//! The columnar cell store: in-memory columns over one append-only,
//! checksummed batch log, a shared string dictionary, and an in-memory
//! fingerprint index for O(1) dedup/upsert.
//!
//! # On-disk layout
//!
//! A store is a directory holding one log, `cells.jsonl`. Each line is
//! one upsert batch, sealed with the workspace's checksummed line format
//! ([`lhr_obs::sealed`]) and shown wrapped here:
//!
//! ```text
//! {"r":<start row>,"n":<rows>,"s":[<new dictionary strings>],
//!  "chip":[<ids>],...,"epi":[<numbers>],"crc":"<16 hex>"}
//! ```
//!
//! The batch's new strings take the next dictionary ids in order. Every
//! schema column follows in [`SCHEMA`] order: string columns carry
//! dictionary ids, numeric columns `f64` values printed
//! shortest-round-trip (the bytes re-parse to the identical bits), with
//! string tokens for the values JSON cannot spell: `"inf"`, `"-inf"`,
//! `"nan"`, and `"nan:<16 hex bits>"` for a NaN other than [`f64::NAN`].
//!
//! # Durability
//!
//! An upsert that writes rows appends its one line with one write and
//! `sync_data`s the log before it returns: one fsync per batch, whatever
//! its size. The directory is fsynced once more when an upsert creates
//! the log. An upsert whose rows are all duplicates touches no file.
//!
//! # Recovery
//!
//! [`Store::open`] accepts the longest prefix of complete lines that
//! verify and continue the row count, so a batch is atomic: its line
//! verifies, or the whole batch is dropped. When it meets anything else
//! (a torn, tampered or non-contiguous line, or a last line without its
//! newline) it rewrites the log from the accepted prefix with
//! [`write_atomic`], so the next append starts on a clean boundary. Open
//! never panics on corruption.
//!
//! Stores written before the log keep one file per column plus
//! `strings.jsonl` (the `legacy` module). Open reads such a directory
//! once under its own recovery rules, writes every appended row into the
//! log as one batch, then deletes the old files. When both exist, the
//! log wins and the old files are deleted.
//!
//! # Upsert
//!
//! Rows are keyed by the structural `(config, workload)` fingerprints
//! minted by `lhr_core::cache`. Re-inserting an identical row is a no-op
//! (no disk write); a changed row appends a fresh copy and the in-memory
//! index moves to it (replay is last-wins), so the store is idempotent
//! under campaign retries and replays.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use lhr_core::cache::{config_fingerprint, workload_fingerprint};
use lhr_core::Evaluation;
use lhr_obs::sealed::{fnv64, open_line, seal_line, take_json_str, write_atomic};
use lhr_obs::{push_json_number, push_json_string};
use lhr_uarch::ChipConfig;

mod legacy;

/// The log file inside a store directory.
const LOG: &str = "cells.jsonl";

/// The type of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColKind {
    /// Dictionary-encoded string.
    Str,
    /// IEEE-754 double.
    Num,
}

/// One column of the fixed store schema.
#[derive(Debug, Clone, Copy)]
pub struct ColumnSpec {
    /// Column name as referenced from queries.
    pub name: &'static str,
    /// Value type.
    pub kind: ColKind,
}

const fn col(name: &'static str, kind: ColKind) -> ColumnSpec {
    ColumnSpec { name, kind }
}

/// The fixed schema: identity, configuration shape, and every measured
/// or derived metric of one resolved cell.
pub const SCHEMA: [ColumnSpec; 18] = [
    col("chip", ColKind::Str),
    col("config", ColKind::Str),
    col("workload", ColKind::Str),
    col("group", ColKind::Str),
    col("config_fp", ColKind::Str),
    col("workload_fp", ColKind::Str),
    col("node", ColKind::Num),
    col("cores", ColKind::Num),
    col("smt", ColKind::Num),
    col("clock", ColKind::Num),
    col("turbo", ColKind::Num),
    col("managed", ColKind::Num),
    col("seconds", ColKind::Num),
    col("watts", ColKind::Num),
    col("joules", ColKind::Num),
    col("perf_norm", ColKind::Num),
    col("energy_norm", ColKind::Num),
    col("epi", ColKind::Num),
];

/// Index of `name` in [`SCHEMA`], if it is a schema column.
#[must_use]
pub fn column_index(name: &str) -> Option<usize> {
    SCHEMA.iter().position(|c| c.name == name)
}

/// One row of the store: a fully resolved `(config, workload)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRow {
    /// Processor shorthand, e.g. `"i7 (45)"`.
    pub chip: String,
    /// Full configuration label, e.g. `"i7 (45) 4C2T @ 2.7GHz"`.
    pub config: String,
    /// Benchmark name.
    pub workload: String,
    /// Workload group display name.
    pub group: String,
    /// Structural configuration fingerprint, 16 hex digits.
    pub config_fp: String,
    /// Structural workload fingerprint, 16 hex digits.
    pub workload_fp: String,
    /// Process node in nanometers.
    pub node: f64,
    /// Active cores.
    pub cores: f64,
    /// 1 when SMT is enabled, else 0.
    pub smt: f64,
    /// Clock in GHz.
    pub clock: f64,
    /// 1 when Turbo is enabled, else 0.
    pub turbo: f64,
    /// 1 for managed (Java) workloads, else 0.
    pub managed: f64,
    /// Measured mean execution time, seconds.
    pub seconds: f64,
    /// Measured mean power, watts.
    pub watts: f64,
    /// Energy of the run, joules (`watts * seconds`).
    pub joules: f64,
    /// Normalized performance (Section 2.6; higher is better).
    pub perf_norm: f64,
    /// Normalized energy (lower is better).
    pub energy_norm: f64,
    /// Energy per instruction, joules.
    pub epi: f64,
}

impl CellRow {
    /// Builds a row from one normalized harness evaluation.
    #[must_use]
    pub fn from_evaluation(config: &ChipConfig, eval: &Evaluation) -> Self {
        let spec = config.spec();
        let seconds = eval.measurement.time.mean();
        let watts = eval.measurement.power.mean();
        let joules = watts * seconds;
        let workload = lhr_workloads::by_name(eval.name());
        let (workload_fp, instructions, managed) = match workload {
            // The structural fingerprint alone only distinguishes
            // *clones* of one workload (the cache keys it alongside the
            // name); two distinct native benchmarks with equal trace
            // lengths collide on it. The row key mixes the name in.
            Some(w) => (
                format!(
                    "{:016x}",
                    workload_fingerprint(w) ^ fnv64(eval.name().as_bytes())
                ),
                w.trace().total_instructions(),
                w.managed().is_some(),
            ),
            // Ablated or synthetic workloads are not in the catalog;
            // key them by name so they still land in a distinct row.
            None => (format!("{:016x}", fnv64(eval.name().as_bytes())), 0, false),
        };
        CellRow {
            chip: spec.short.to_owned(),
            config: eval.measurement.config.clone(),
            workload: eval.name().to_owned(),
            group: eval.group().to_string(),
            config_fp: format!("{:016x}", config_fingerprint(config)),
            workload_fp,
            node: spec.node.nanometers(),
            cores: config.active_cores() as f64,
            smt: f64::from(u8::from(config.smt_enabled())),
            clock: config.clock().as_ghz(),
            turbo: f64::from(u8::from(config.turbo_enabled())),
            managed: f64::from(u8::from(managed)),
            seconds,
            watts,
            joules,
            perf_norm: eval.perf_norm,
            energy_norm: eval.energy_norm,
            epi: if instructions > 0 {
                joules / instructions as f64
            } else {
                f64::NAN
            },
        }
    }

    fn value(&self, idx: usize) -> RowVal<'_> {
        match idx {
            0 => RowVal::Str(&self.chip),
            1 => RowVal::Str(&self.config),
            2 => RowVal::Str(&self.workload),
            3 => RowVal::Str(&self.group),
            4 => RowVal::Str(&self.config_fp),
            5 => RowVal::Str(&self.workload_fp),
            6 => RowVal::Num(self.node),
            7 => RowVal::Num(self.cores),
            8 => RowVal::Num(self.smt),
            9 => RowVal::Num(self.clock),
            10 => RowVal::Num(self.turbo),
            11 => RowVal::Num(self.managed),
            12 => RowVal::Num(self.seconds),
            13 => RowVal::Num(self.watts),
            14 => RowVal::Num(self.joules),
            15 => RowVal::Num(self.perf_norm),
            16 => RowVal::Num(self.energy_norm),
            17 => RowVal::Num(self.epi),
            _ => unreachable!("schema has {} columns", SCHEMA.len()),
        }
    }
}

enum RowVal<'a> {
    Str(&'a str),
    Num(f64),
}

/// In-memory data of one column.
#[derive(Debug, Clone)]
enum ColumnData {
    Str(Vec<u32>),
    Num(Vec<f64>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Str(v) => v.len(),
            ColumnData::Num(v) => v.len(),
        }
    }

    fn truncate(&mut self, n: usize) {
        match self {
            ColumnData::Str(v) => v.truncate(n),
            ColumnData::Num(v) => v.truncate(n),
        }
    }

    fn extend(&mut self, other: ColumnData) {
        match (self, other) {
            (ColumnData::Str(dst), ColumnData::Str(src)) => dst.extend(src),
            (ColumnData::Num(dst), ColumnData::Num(src)) => dst.extend(src),
            _ => unreachable!("schema kind mismatch"),
        }
    }

    /// Parses one written value: a dictionary id below `dict_len`, or a
    /// number as [`push_num`] spells it.
    fn push_token(&mut self, token: &str, dict_len: usize) -> Option<()> {
        match self {
            ColumnData::Str(v) => {
                let id: u32 = token.parse().ok()?;
                if id as usize >= dict_len {
                    return None;
                }
                v.push(id);
            }
            ColumnData::Num(v) => v.push(parse_num(token)?),
        }
        Some(())
    }

    /// Appends the values, comma-separated.
    fn push_values(&self, out: &mut String) {
        match self {
            ColumnData::Str(v) => {
                for (i, id) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{id}");
                }
            }
            ColumnData::Num(v) => {
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_num(out, *x);
                }
            }
        }
    }
}

/// One empty column per schema entry.
fn empty_cols() -> Vec<ColumnData> {
    SCHEMA
        .iter()
        .map(|c| match c.kind {
            ColKind::Str => ColumnData::Str(Vec::new()),
            ColKind::Num => ColumnData::Num(Vec::new()),
        })
        .collect()
}

/// One upsert batch, the unit the log seals: rows `start..start + n` and
/// the dictionary strings they introduced.
struct Batch {
    start: usize,
    strings: Vec<String>,
    cols: Vec<ColumnData>,
}

impl Batch {
    fn rows(&self) -> usize {
        self.cols[0].len()
    }

    /// The batch as one sealed log line, newline included.
    fn line(&self) -> String {
        let mut body = format!("{{\"r\":{},\"n\":{},\"s\":[", self.start, self.rows());
        for (i, s) in self.strings.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            push_json_string(&mut body, s);
        }
        body.push(']');
        for (spec, data) in SCHEMA.iter().zip(&self.cols) {
            let _ = write!(body, ",\"{}\":[", spec.name);
            data.push_values(&mut body);
            body.push(']');
        }
        let mut line = seal_line(body);
        line.push('\n');
        line
    }

    /// Parses a line [`Batch::line`] wrote (without its newline). `None`
    /// unless it verifies, starts at row `rows`, has `n` values in every
    /// column, and references only the first `dict_len` dictionary ids
    /// and its own strings.
    fn parse(line: &str, rows: usize, dict_len: usize) -> Option<Batch> {
        let body = open_line(line)?;
        let (start, rest) = take_uint(body.strip_prefix("{\"r\":")?)?;
        let (n, rest) = take_uint(rest.strip_prefix(",\"n\":")?)?;
        let mut rest = rest.strip_prefix(",\"s\":[")?;
        let mut strings = Vec::new();
        while !rest.starts_with(']') {
            if !strings.is_empty() {
                rest = rest.strip_prefix(',')?;
            }
            let (s, after) = take_json_str(rest)?;
            strings.push(s);
            rest = after;
        }
        rest = &rest[1..];
        let dict_len = dict_len + strings.len();
        let mut cols = empty_cols();
        for (spec, data) in SCHEMA.iter().zip(&mut cols) {
            let values = rest
                .strip_prefix(",\"")?
                .strip_prefix(spec.name)?
                .strip_prefix("\":[")?;
            let (values, after) = values.split_once(']')?;
            rest = after;
            if !values.is_empty() {
                for token in values.split(',') {
                    data.push_token(token, dict_len)?;
                }
            }
            if data.len() != n {
                return None;
            }
        }
        (rest.is_empty() && start == rows).then_some(Batch {
            start,
            strings,
            cols,
        })
    }
}

/// The unsigned integer that opens `text`, and the text after it.
fn take_uint(text: &str) -> Option<(usize, &str)> {
    let end = text
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(text.len());
    Some((text[..end].parse().ok()?, &text[end..]))
}

/// Counts of what one [`Store::upsert`] call actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpsertStats {
    /// Rows appended (new keys or changed values).
    pub written: usize,
    /// Rows skipped because an identical row is already live.
    pub deduped: usize,
    /// Fsyncs the call made: 1 when it wrote rows (the log's
    /// `sync_data`), plus 1 for the directory when it created the log,
    /// and 0 when every row was a duplicate.
    pub syncs: usize,
}

#[derive(Debug, Default)]
struct Inner {
    dict: Vec<String>,
    dict_index: HashMap<String, u32>,
    /// Appended rows, including superseded versions of upserted keys.
    cols: Vec<ColumnData>,
    /// `(config_fp, workload_fp) -> latest row id`.
    index: HashMap<(String, String), usize>,
    /// The log, opened for appending by the first upsert that writes.
    log: Option<File>,
}

/// The columnar measurement store. All operations are internally
/// synchronized; share it behind an `Arc`.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    inner: Mutex<Inner>,
}

impl Store {
    /// Opens (or creates) a store directory, recovering from a torn or
    /// corrupted log tail and migrating a per-column store to the log.
    /// Never panics on bad file contents.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (directory creation, reads, the
    /// rewrite of a damaged log, and a migration's writes and deletes).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut inner = Inner {
            cols: empty_cols(),
            ..Inner::default()
        };
        let path = dir.join(LOG);
        match std::fs::read(&path) {
            Ok(bytes) => {
                // Accept whole lines while they verify and continue the
                // rows; cut the log back to them otherwise.
                let text = String::from_utf8_lossy(&bytes);
                let mut kept = 0;
                for piece in text.split_inclusive('\n') {
                    let Some(batch) = piece
                        .strip_suffix('\n')
                        .and_then(|line| Batch::parse(line, inner.rows(), inner.dict.len()))
                    else {
                        break;
                    };
                    inner.commit(batch);
                    kept += piece.len();
                }
                if kept < text.len() {
                    write_atomic(&path, &text.as_bytes()[..kept])?;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                if let Some(batch) = legacy::load(&dir)? {
                    write_atomic(&path, batch.line().as_bytes())?;
                    inner.commit(batch);
                }
            }
            Err(e) => return Err(e),
        }
        legacy::remove(&dir)?;
        Ok(Store {
            dir,
            inner: Mutex::new(inner),
        })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Live (deduplicated) row count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().index.len()
    }

    /// Whether the store holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Upserts a batch of rows: identical rows are skipped without any
    /// disk traffic; new or changed rows, with the dictionary strings
    /// they add, are appended to the log as one sealed line and synced
    /// once before the call returns.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error the in-memory state is
    /// unchanged (the batch is all-or-nothing in memory, and a torn
    /// partial line on disk is dropped by the next [`Store::open`]).
    pub fn upsert(&self, rows: &[CellRow]) -> io::Result<UpsertStats> {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let mut stats = UpsertStats::default();
        let fresh: Vec<&CellRow> = rows
            .iter()
            .filter(|row| {
                let key = (row.config_fp.clone(), row.workload_fp.clone());
                let same = inner
                    .index
                    .get(&key)
                    .is_some_and(|&at| inner.row_equals(at, row));
                if same {
                    stats.deduped += 1;
                }
                !same
            })
            .collect();
        if fresh.is_empty() {
            return Ok(stats);
        }
        stats.written = fresh.len();
        // Disk first, memory only after the line is synced, so an I/O
        // error leaves memory untouched.
        let batch = inner.stage(&fresh);
        stats.syncs = inner.append(&self.dir, &batch.line())?;
        inner.commit(batch);
        Ok(stats)
    }

    /// Runs `body` with the live rows (ascending row id) and resolved
    /// column data under the store lock.
    pub(crate) fn with_live<R>(&self, body: impl FnOnce(&LiveView<'_>) -> R) -> R {
        let inner = self.inner.lock().unwrap();
        let mut rows: Vec<usize> = inner.index.values().copied().collect();
        rows.sort_unstable();
        let view = LiveView {
            inner: &inner,
            rows,
        };
        body(&view)
    }
}

/// A consistent read snapshot: live row ids plus column access.
pub(crate) struct LiveView<'a> {
    inner: &'a Inner,
    rows: Vec<usize>,
}

impl LiveView<'_> {
    pub(crate) fn row_ids(&self) -> &[usize] {
        &self.rows
    }

    pub(crate) fn str_at(&self, col: usize, row: usize) -> &str {
        self.inner.str_at(col, row)
    }

    pub(crate) fn num_at(&self, col: usize, row: usize) -> f64 {
        match &self.inner.cols[col] {
            ColumnData::Num(v) => v[row],
            ColumnData::Str(_) => unreachable!("numeric access to string column"),
        }
    }
}

impl Inner {
    /// Appended rows, superseded versions included.
    fn rows(&self) -> usize {
        self.cols[0].len()
    }

    fn str_at(&self, col: usize, row: usize) -> &str {
        match &self.cols[col] {
            ColumnData::Str(v) => &self.dict[v[row] as usize],
            ColumnData::Num(_) => unreachable!("string access to numeric column"),
        }
    }

    fn row_equals(&self, at: usize, row: &CellRow) -> bool {
        (0..SCHEMA.len()).all(|ci| match (row.value(ci), &self.cols[ci]) {
            (RowVal::Str(s), ColumnData::Str(_)) => self.str_at(ci, at) == s,
            (RowVal::Num(x), ColumnData::Num(v)) => v[at].to_bits() == x.to_bits(),
            _ => false,
        })
    }

    /// Encodes `rows` as the next batch, interning strings the
    /// dictionary lacks as the batch's own (memory is not touched).
    fn stage(&self, rows: &[&CellRow]) -> Batch {
        let mut strings: Vec<String> = Vec::new();
        let mut staged: HashMap<&str, u32> = HashMap::new();
        let mut cols = empty_cols();
        for row in rows {
            for (ci, col) in cols.iter_mut().enumerate() {
                match (col, row.value(ci)) {
                    (ColumnData::Str(v), RowVal::Str(s)) => {
                        let id = self.dict_index.get(s).copied().unwrap_or_else(|| {
                            *staged.entry(s).or_insert_with(|| {
                                strings.push(s.to_owned());
                                (self.dict.len() + strings.len() - 1) as u32
                            })
                        });
                        v.push(id);
                    }
                    (ColumnData::Num(v), RowVal::Num(x)) => v.push(x),
                    _ => unreachable!("schema kind mismatch"),
                }
            }
        }
        Batch {
            start: self.rows(),
            strings,
            cols,
        }
    }

    /// Adds a batch that is on disk to memory: its strings, its rows,
    /// and the index entries they take over (last wins).
    fn commit(&mut self, batch: Batch) {
        for s in batch.strings {
            self.dict_index.insert(s.clone(), self.dict.len() as u32);
            self.dict.push(s);
        }
        for (dst, src) in self.cols.iter_mut().zip(batch.cols) {
            dst.extend(src);
        }
        for row in batch.start..self.rows() {
            let key = (
                self.str_at(4, row).to_owned(),
                self.str_at(5, row).to_owned(),
            );
            self.index.insert(key, row);
        }
    }

    /// Appends one line to the log and syncs it. Returns the fsyncs
    /// made: the log's, plus the directory's when this created the log.
    fn append(&mut self, dir: &Path, line: &str) -> io::Result<usize> {
        let mut syncs = 1;
        if self.log.is_none() {
            let path = dir.join(LOG);
            let file = match OpenOptions::new().append(true).create_new(true).open(&path) {
                Ok(file) => {
                    // Make the new directory entry durable once, so a
                    // synced batch is never lost with its file name.
                    File::open(dir)?.sync_all()?;
                    syncs += 1;
                    file
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    OpenOptions::new().append(true).open(&path)?
                }
                Err(e) => return Err(e),
            };
            self.log = Some(file);
        }
        let log = self.log.as_mut().expect("just opened");
        log.write_all(line.as_bytes())?;
        log.sync_data()?;
        Ok(syncs)
    }
}

/// Records every resolved cell into the store. Ingestion is purely
/// observational: it never touches a measured value, and an I/O failure
/// is reported on stderr rather than failing the measurement (the store
/// is a byproduct; the experiment result is the product).
impl lhr_core::CellSink for Store {
    fn record_cell(&self, config: &ChipConfig, evaluations: &[Evaluation]) {
        let rows: Vec<CellRow> = evaluations
            .iter()
            .map(|e| CellRow::from_evaluation(config, e))
            .collect();
        if let Err(e) = self.upsert(&rows) {
            eprintln!("lhr-store: dropped a cell batch: {e}");
        }
    }
}

/// Appends `x` in shortest-round-trip form. Values JSON cannot spell
/// get string tokens: `"inf"`, `"-inf"`, `"nan"` for [`f64::NAN`], and
/// `"nan:<16 hex bits>"` for any other NaN. Every value reads back with
/// its exact bits, so a row that dedups in memory dedups after a reopen.
fn push_num(body: &mut String, x: f64) {
    if x.is_finite() {
        push_json_number(body, x);
    } else if x.to_bits() == f64::NAN.to_bits() {
        body.push_str("\"nan\"");
    } else if x.is_nan() {
        let _ = write!(body, "\"nan:{:016x}\"", x.to_bits());
    } else if x > 0.0 {
        body.push_str("\"inf\"");
    } else {
        body.push_str("\"-inf\"");
    }
}

fn parse_num(token: &str) -> Option<f64> {
    match token {
        "\"nan\"" => Some(f64::NAN),
        "\"inf\"" => Some(f64::INFINITY),
        "\"-inf\"" => Some(f64::NEG_INFINITY),
        t => match t.strip_prefix("\"nan:").and_then(|t| t.strip_suffix('"')) {
            Some(hex) => {
                Some(f64::from_bits(u64::from_str_radix(hex, 16).ok()?)).filter(|x| x.is_nan())
            }
            None => t.parse().ok(),
        },
    }
}
