//! The campaign write-ahead journal: every resolved cell of a campaign,
//! one sealed line each, synced with its batch before the sink reports
//! it.
//!
//! # Why a journal
//!
//! The source study's numbers came from a multi-day measurement
//! campaign over real machines. At that scale the campaign *will* be
//! interrupted -- a wedged logger, a reboot, an operator `^C` -- and
//! the only acceptable cost of an interruption is the cells not yet
//! measured. Both campaign engines (the offline driver in `lhr-bench`
//! and the server's orchestrator) append every resolved
//! `(configuration, workload)` cell here as it resolves, and a resume
//! replays the journal into the runner's measurement cache
//! ([`OkCell::preload`]) so only the missing cells re-execute.
//!
//! The offline driver journals each batch the
//! [`Supervisor`](crate::Supervisor) hands its sink -- the units that
//! resolved while the previous batch was being written -- with one write
//! and one `sync_data` ([`JournalWriter::record_units`]), before it
//! reports them or counts them toward `--abort-after`. A crash loses at
//! most the batch being written, and resume measures it again. The
//! server's orchestrator still writes and syncs each line on its own.
//!
//! Because measurements are pure functions of their cell under the
//! fixed seed policy, and the journal stores every `f64` in Rust's
//! shortest round-trippable form (see [`lhr_obs::push_json_number`]),
//! a resumed campaign regenerates outputs **byte-identical** to an
//! uninterrupted one.
//!
//! # Journal format
//!
//! One sealed line ([`lhr_obs::sealed`]) per record:
//!
//! * a header line (`"campaign"`, `"version"`, then the engine's own
//!   fields: the offline driver's fidelity and grid shape, or the
//!   server's campaign spec) -- resume refuses a journal recorded at
//!   another fidelity;
//! * one line per resolved cell: `"status":"ok"` with time/power
//!   summaries (`[n, mean, stddev, min, max]`) and health counters, or
//!   `"status":"err"` with the error text (re-executed on resume);
//! * one line per written artifact: name, size, and content checksum,
//!   letting a resumed run verify it reproduced the same bytes;
//! * `{"event":...}` lifecycle markers (the server's preempt/resume).
//!
//! Lines that fail the checksum -- a torn tail from a crash mid-append,
//! or bit rot anywhere -- are skipped, costing only that cell's
//! re-measurement. A torn tail has no final newline, so reopening a
//! journal for append first ends that line: the next record then starts
//! a line of its own instead of extending the torn one past its
//! checksum.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use lhr_obs::sealed::{fnv64, json_array, json_str, json_u64, open_line, read_lines, seal_line};
use lhr_obs::{push_json_number, push_json_string};
use lhr_stats::Summary;
use lhr_uarch::ChipConfig;
use lhr_workloads::Workload;

use crate::error::MeasureHealth;
use crate::runner::{RunMeasurement, Runner};
use crate::supervisor::{UnitOutcome, UnitReport};

fn push_summary(body: &mut String, s: &Summary) {
    let _ = write!(body, "[{},", s.n());
    push_json_number(body, s.mean());
    body.push(',');
    push_json_number(body, s.stddev());
    body.push(',');
    push_json_number(body, s.min());
    body.push(',');
    push_json_number(body, s.max());
    body.push(']');
}

/// Parses the 5-element `[n, mean, stddev, min, max]` array a key
/// points at, reconstructing the summary bit-exactly.
fn parse_summary(body: &str, key: &str) -> Option<Summary> {
    let parts: Vec<f64> = json_array(body, key)?
        .iter()
        .map(|p| p.trim().parse().ok())
        .collect::<Option<_>>()?;
    let [n, mean, stddev, min, max] = parts.as_slice() else {
        return None;
    };
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n = *n as usize;
    (n >= 1).then(|| Summary::from_parts(n, *mean, *stddev, *min, *max))
}

// ---------------------------------------------------------------------
// Journal writer
// ---------------------------------------------------------------------

/// Append-only journal writer. Each call writes its lines with one
/// write and syncs them with one `sync_data` before it returns: once a
/// call returns, its records survive a crash (the definition of
/// write-ahead).
#[derive(Debug)]
pub struct JournalWriter {
    file: Mutex<fs::File>,
    syncs: AtomicU64,
}

impl JournalWriter {
    /// Starts a fresh journal (truncating any previous one) and writes
    /// the offline driver's header line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn fresh(
        path: &Path,
        fidelity: &str,
        configs: usize,
        workloads: usize,
    ) -> io::Result<Self> {
        let me = Self::create(path)?;
        let mut body = String::from("{\"campaign\":\"lhr-study\",\"version\":1,\"fidelity\":");
        push_json_string(&mut body, fidelity);
        let _ = write!(body, ",\"configs\":{configs},\"workloads\":{workloads}");
        me.record_raw(body)?;
        Ok(me)
    }

    /// Reopens an existing journal for appending (the resume path). A
    /// torn final line is ended first, so it stays one skipped line and
    /// the next record is whole.
    ///
    /// # Errors
    ///
    /// Any I/O error opening the file or ending its torn tail.
    pub fn append(path: &Path) -> io::Result<Self> {
        let mut file = fs::OpenOptions::new().read(true).append(true).open(path)?;
        if file.metadata()?.len() > 0 {
            let mut last = [0u8];
            file.seek(SeekFrom::End(-1))?;
            file.read_exact(&mut last)?;
            if last[0] != b'\n' {
                file.write_all(b"\n")?;
            }
        }
        Ok(Self {
            file: Mutex::new(file),
            syncs: AtomicU64::new(0),
        })
    }

    /// Starts a fresh journal without a header, for producers that write
    /// their own via [`JournalWriter::record_raw`] (the server's
    /// campaign orchestrator).
    ///
    /// # Errors
    ///
    /// Any I/O error creating the file.
    pub fn create(path: &Path) -> io::Result<Self> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        let file = fs::File::create(path)?;
        Ok(Self {
            file: Mutex::new(file),
            syncs: AtomicU64::new(0),
        })
    }

    /// Seals and appends an arbitrary record body (everything up to but
    /// excluding `,"crc":...}`), syncing before returning. The body
    /// must open with `{` and omit the closing brace; the seal adds the
    /// checksum field and closes the object.
    ///
    /// # Errors
    ///
    /// Any I/O error appending the record.
    pub fn record_raw(&self, body: String) -> io::Result<()> {
        let mut line = seal_line(body);
        line.push('\n');
        self.write_synced(&line)
    }

    /// Journals one resolved campaign unit: [`JournalWriter::record_units`]
    /// with a batch of one.
    ///
    /// # Errors
    ///
    /// Any I/O error appending the record.
    pub fn record_unit(&self, unit: &UnitReport) -> io::Result<()> {
        self.record_units(std::slice::from_ref(unit))
    }

    /// Journals a batch of resolved campaign units, one line each, with
    /// one write and one sync. Skipped units (abort) are deliberately not
    /// recorded -- they are the cells resume re-runs.
    ///
    /// # Errors
    ///
    /// Any I/O error appending the records.
    pub fn record_units(&self, units: &[UnitReport]) -> io::Result<()> {
        let mut text = String::new();
        for body in units.iter().filter_map(unit_body) {
            text.push_str(&seal_line(body));
            text.push('\n');
        }
        if text.is_empty() {
            return Ok(());
        }
        self.write_synced(&text)
    }

    /// Journals an artifact's name, size, and content checksum.
    ///
    /// # Errors
    ///
    /// Any I/O error appending the record.
    pub fn record_artifact(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut body = String::from("{\"artifact\":");
        push_json_string(&mut body, name);
        let _ = write!(
            body,
            ",\"bytes\":{},\"sum\":\"{:016x}\"",
            bytes.len(),
            fnv64(bytes)
        );
        self.record_raw(body)
    }

    /// The `sync_data` calls this writer has made: one per call that
    /// wrote anything.
    #[must_use]
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Appends `text` (whole lines) with one write and one sync.
    fn write_synced(&self, text: &str) -> io::Result<()> {
        let mut file = self.file.lock().expect("journal lock");
        file.write_all(text.as_bytes())?;
        file.sync_data()?;
        self.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// The record body of one resolved unit; `None` for a skipped one.
fn unit_body(unit: &UnitReport) -> Option<String> {
    let mut body = String::from("{\"cell\":");
    push_json_string(&mut body, &unit.config_label);
    body.push_str(",\"workload\":");
    push_json_string(&mut body, unit.workload);
    match &unit.outcome {
        UnitOutcome::Completed { evaluation, health } => {
            let _ = write!(
                body,
                ",\"status\":\"ok\",\"attempts\":{},\"deadline_misses\":{},\
                 \"retries\":{},\"recalibrations\":{},\"rejected_outliers\":{}",
                unit.attempts,
                unit.deadline_misses,
                health.retries,
                health.recalibrations,
                health.rejected_outliers,
            );
            body.push_str(",\"time\":");
            push_summary(&mut body, &evaluation.measurement.time);
            body.push_str(",\"power\":");
            push_summary(&mut body, &evaluation.measurement.power);
        }
        UnitOutcome::Failed { error } => {
            let _ = write!(
                body,
                ",\"status\":\"err\",\"attempts\":{},\"deadline_misses\":{},\"error\":",
                unit.attempts, unit.deadline_misses,
            );
            push_json_string(&mut body, &error.to_string());
        }
        UnitOutcome::Skipped => return None,
    }
    Some(body)
}

// ---------------------------------------------------------------------
// Journal reader
// ---------------------------------------------------------------------

/// One journaled `"status":"ok"` cell, ready to preload.
#[derive(Debug, Clone)]
pub struct OkCell {
    /// The configuration label.
    pub config: String,
    /// The workload name.
    pub workload: String,
    /// The runner-level cost recorded for the cell.
    pub health: MeasureHealth,
    /// Execution-time summary, bit-exact.
    pub time: Summary,
    /// Power summary, bit-exact.
    pub power: Summary,
}

impl OkCell {
    /// Seeds `runner`'s measurement cache with this cell, so measuring
    /// `(config, workload)` again is a cache hit with the journaled bits.
    ///
    /// # Panics
    ///
    /// Panics if `config`'s label is not this cell's configuration (see
    /// [`Runner::preload`]).
    pub fn preload(&self, runner: &Runner, config: &ChipConfig, workload: &Workload) {
        runner.preload(
            config,
            workload,
            RunMeasurement {
                workload: workload.name(),
                group: workload.group(),
                config: self.config.clone(),
                time: self.time,
                power: self.power,
            },
            self.health,
        );
    }
}

/// Everything a journal replay recovered.
#[derive(Debug, Default)]
pub struct LoadedJournal {
    /// The header line's body (`{"campaign":...`, without its seal),
    /// when the header survived.
    pub header: Option<String>,
    /// The header's fidelity string, when the header survived and
    /// carries one.
    pub fidelity: Option<String>,
    /// Completed cells, in journal (resolution) order.
    pub ok_cells: Vec<OkCell>,
    /// Cells journaled as failed (they re-execute on resume).
    pub err_cells: usize,
    /// Artifact name -> content checksum.
    pub artifacts: BTreeMap<String, u64>,
    /// Lifecycle event names (`{"event":...}` lines), in journal order.
    /// The server's orchestrator journals `preempted` / `resumed`
    /// markers this way; replay uses the last one to restore the
    /// campaign's phase.
    pub events: Vec<String>,
    /// Lines dropped by the integrity check (torn tail, bit rot).
    pub skipped_lines: usize,
}

/// Replays a journal, tolerating damage: any line that fails its
/// checksum or does not parse is counted in
/// [`LoadedJournal::skipped_lines`] and otherwise ignored (its cell
/// simply re-executes). A missing file loads as an empty journal.
///
/// # Errors
///
/// Only on failing to read the file itself.
pub fn load_journal(path: &Path) -> io::Result<LoadedJournal> {
    let mut out = LoadedJournal::default();
    for line in read_lines(path)? {
        let Some(body) = open_line(&line) else {
            out.skipped_lines += 1;
            continue;
        };
        if body.starts_with("{\"campaign\":") {
            out.fidelity = json_str(body, "fidelity");
            out.header = Some(body.to_owned());
        } else if body.starts_with("{\"artifact\":") {
            let parsed = json_str(body, "artifact").and_then(|name| {
                let hex = json_str(body, "sum")?;
                Some((name, u64::from_str_radix(&hex, 16).ok()?))
            });
            match parsed {
                Some((name, sum)) => {
                    out.artifacts.insert(name, sum);
                }
                None => out.skipped_lines += 1,
            }
        } else if body.starts_with("{\"cell\":") {
            match parse_cell(body) {
                Some(Ok(cell)) => out.ok_cells.push(cell),
                Some(Err(())) => out.err_cells += 1,
                None => out.skipped_lines += 1,
            }
        } else if body.starts_with("{\"event\":") {
            match json_str(body, "event") {
                Some(event) => out.events.push(event),
                None => out.skipped_lines += 1,
            }
        } else {
            out.skipped_lines += 1;
        }
    }
    Ok(out)
}

/// Parses one cell record: `Ok` cells carry data, `Err(())` marks a
/// journaled failure, `None` a malformed line.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn parse_cell(body: &str) -> Option<Result<OkCell, ()>> {
    let config = json_str(body, "cell")?;
    let workload = json_str(body, "workload")?;
    match json_str(body, "status")?.as_str() {
        "err" => Some(Err(())),
        "ok" => {
            let health = MeasureHealth {
                retries: json_u64(body, "retries")? as usize,
                recalibrations: json_u64(body, "recalibrations")? as usize,
                rejected_outliers: json_u64(body, "rejected_outliers")? as usize,
            };
            Some(Ok(OkCell {
                config,
                workload,
                health,
                time: parse_summary(body, "time")?,
                power: parse_summary(body, "power")?,
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Harness, MeasureError, MeasureErrorKind};
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lhr-journal-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    fn sample_unit(ok: bool) -> UnitReport {
        let harness = Harness::quick();
        let w = lhr_workloads::by_name("hmmer").unwrap();
        let config = ChipConfig::stock(lhr_uarch::ProcessorId::Atom230.spec());
        let outcome = if ok {
            let (evaluation, health) = harness.try_evaluate_workload(&config, w).unwrap();
            UnitOutcome::Completed { evaluation, health }
        } else {
            UnitOutcome::Failed {
                error: MeasureError {
                    workload: Some(w.name()),
                    config: config.label(),
                    kind: MeasureErrorKind::DeadlineExceeded { deadline_s: 1.5 },
                },
            }
        };
        UnitReport {
            config_label: config.label(),
            workload: w.name(),
            attempts: if ok { 1 } else { 3 },
            deadline_misses: u32::from(!ok),
            outcome,
        }
    }

    /// A journal of `n` raw records `{"event":"w<i>"`.
    fn event_journal(name: &str, n: usize) -> PathBuf {
        let path = scratch(name);
        let writer = JournalWriter::fresh(&path, "Quick", 1, n).unwrap();
        for i in 0..n {
            writer.record_raw(format!("{{\"event\":\"w{i}\"")).unwrap();
        }
        path
    }

    #[test]
    fn journal_round_trips_cells_bit_exactly() {
        let path = scratch("roundtrip.jsonl");
        let writer = JournalWriter::fresh(&path, "Quick", 45, 12).unwrap();
        let ok = sample_unit(true);
        let err = sample_unit(false);
        writer.record_unit(&ok).unwrap();
        writer.record_unit(&err).unwrap();
        writer
            .record_artifact("table4.txt", b"rendered bytes")
            .unwrap();

        let journal = load_journal(&path).unwrap();
        assert_eq!(journal.fidelity.as_deref(), Some("Quick"));
        assert!(journal
            .header
            .unwrap()
            .starts_with("{\"campaign\":\"lhr-study\""));
        assert_eq!(journal.ok_cells.len(), 1);
        assert_eq!(journal.err_cells, 1);
        assert_eq!(journal.skipped_lines, 0);
        assert_eq!(journal.artifacts["table4.txt"], fnv64(b"rendered bytes"));

        let cell = &journal.ok_cells[0];
        let UnitOutcome::Completed { evaluation, health } = &ok.outcome else {
            unreachable!()
        };
        assert_eq!(cell.config, ok.config_label);
        assert_eq!(cell.workload, "hmmer");
        assert_eq!(cell.health, *health);
        // The f64 round trip is exact: shortest-repr format + parse
        // recovers identical bits, the keystone of byte-identical resume.
        assert_eq!(cell.time, evaluation.measurement.time);
        assert_eq!(cell.power, evaluation.measurement.power);
        assert_eq!(
            cell.time.mean().to_bits(),
            evaluation.measurement.time.mean().to_bits()
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn a_batch_is_one_write_and_one_sync() {
        let path = scratch("batch.jsonl");
        let writer = JournalWriter::fresh(&path, "Quick", 45, 12).unwrap();
        assert_eq!(writer.syncs(), 1, "the header");
        let skipped = UnitReport {
            outcome: UnitOutcome::Skipped,
            ..sample_unit(false)
        };
        let batch = [sample_unit(true), skipped.clone(), sample_unit(false)];
        writer.record_units(&batch).unwrap();
        assert_eq!(writer.syncs(), 2, "one sync for the whole batch");
        writer.record_units(&[skipped]).unwrap();
        assert_eq!(writer.syncs(), 2, "nothing to write, nothing synced");

        let journal = load_journal(&path).unwrap();
        assert_eq!((journal.ok_cells.len(), journal.err_cells), (1, 1));
        assert_eq!(journal.skipped_lines, 0);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_and_tampered_lines_are_skipped_not_fatal() {
        let path = scratch("torn.jsonl");
        let writer = JournalWriter::fresh(&path, "Quick", 45, 12).unwrap();
        writer.record_unit(&sample_unit(true)).unwrap();
        writer.record_unit(&sample_unit(true)).unwrap();
        drop(writer);
        // Crash mid-append: the last line is cut short.
        let mut text = fs::read_to_string(&path).unwrap();
        text.truncate(text.len() - 25);
        // And an earlier line is tampered with (bit rot): flip a digit
        // inside the second record's attempts field.
        let tampered = text.replacen("\"attempts\":1", "\"attempts\":7", 1);
        fs::write(&path, &tampered).unwrap();

        let journal = load_journal(&path).unwrap();
        assert_eq!(journal.fidelity.as_deref(), Some("Quick"));
        assert_eq!(
            journal.ok_cells.len(),
            0,
            "both data lines dropped: one torn, one failing its checksum"
        );
        assert_eq!(journal.skipped_lines, 2);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn a_non_utf8_byte_costs_only_its_line() {
        let path = event_journal("bitrot.jsonl", 3);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.windows(2).position(|w| w == b"w1").unwrap();
        bytes[at] |= 0x80;
        fs::write(&path, &bytes).unwrap();

        let journal = load_journal(&path).expect("bit rot is not a read error");
        assert_eq!(journal.events, ["w0", "w2"]);
        assert_eq!(journal.skipped_lines, 1);
        assert_eq!(journal.fidelity.as_deref(), Some("Quick"));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn the_first_record_after_a_torn_tail_survives() {
        let path = event_journal("reopen.jsonl", 3);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 20]).unwrap();

        let writer = JournalWriter::append(&path).unwrap();
        writer.record_raw("{\"event\":\"w7\"".to_owned()).unwrap();
        writer.record_raw("{\"event\":\"w8\"".to_owned()).unwrap();
        drop(writer);
        let journal = load_journal(&path).unwrap();
        assert_eq!(journal.events, ["w0", "w1", "w7", "w8"]);
        assert_eq!(
            journal.skipped_lines, 1,
            "the torn fragment is its own line"
        );

        // An intact journal reopens without gaining a blank line.
        let before = fs::read(&path).unwrap();
        drop(JournalWriter::append(&path).unwrap());
        assert_eq!(fs::read(&path).unwrap(), before);
        fs::remove_file(&path).ok();
    }
}
