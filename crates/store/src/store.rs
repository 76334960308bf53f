//! The columnar cell store: one segment file per column, a shared
//! dictionary for strings, CRC-sealed fsynced appends, and an in-memory
//! fingerprint index for O(1) dedup/upsert.
//!
//! # On-disk layout
//!
//! A store is a directory:
//!
//! ```text
//! store/
//!   strings.jsonl     {"i":<id>,"s":"<text>","crc":"<16 hex>"}
//!   col_chip.jsonl    {"r":<start row>,"n":<rows>,"v":[...],"crc":"..."}
//!   col_clock.jsonl   ...one file per schema column...
//! ```
//!
//! Every line is sealed with the workspace's checksummed line format
//! ([`lhr_obs::sealed`]) and every append is fsynced, so a crash tears at
//! most the final line of each file. String columns store dictionary ids;
//! numeric columns store `f64` values printed shortest-round-trip (the
//! bytes re-parse to the identical bits).
//!
//! # Recovery
//!
//! [`Store::open`] reads each file up to its first torn, tampered, or
//! non-contiguous line and drops the rest. The usable prefix is the
//! minimum row count across all columns (an interrupted multi-file append
//! leaves some columns one batch ahead); any file longer than that is
//! rewritten from the surviving prefix so the next append starts from a
//! consistent boundary. Open never panics on corruption.
//!
//! # Upsert
//!
//! Rows are keyed by the structural `(config, workload)` fingerprints
//! minted by `lhr_core::cache`. Re-inserting an identical row is a no-op
//! (no disk write); a changed row appends a fresh copy and the in-memory
//! index moves to it (replay is last-wins), so the store is idempotent
//! under campaign retries and replays.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use lhr_core::cache::{config_fingerprint, workload_fingerprint};
use lhr_core::Evaluation;
use lhr_obs::sealed::{
    fnv64, json_array, json_str, json_u64, open_line, read_lines, seal_line, write_atomic,
};
use lhr_obs::{push_json_number, push_json_string};
use lhr_uarch::ChipConfig;

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
}

/// Counts of what one [`Store::upsert`] call actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpsertStats {
    /// Rows appended (new keys or changed values).
    pub written: usize,
    /// Rows skipped because an identical row is already live.
    pub deduped: usize,
}

#[derive(Debug, Default)]
struct Inner {
    dict: Vec<String>,
    dict_index: HashMap<String, u32>,
    cols: Vec<ColumnData>,
    /// Appended rows, including superseded versions of upserted keys.
    appended: usize,
    /// `(config_fp, workload_fp) -> latest row id`.
    index: HashMap<(String, String), usize>,
    files: Option<Files>,
}

#[derive(Debug)]
struct Files {
    strings: File,
    cols: Vec<File>,
}

/// The columnar measurement store. All operations are internally
/// synchronized; share it behind an `Arc`.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    inner: Mutex<Inner>,
}

impl Store {
    /// Opens (or creates) a store directory, recovering from any torn or
    /// corrupted segment tails. Never panics on bad file contents.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (directory creation, reads, and the
    /// rewrite of damaged segments).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut inner = Inner {
            cols: SCHEMA
                .iter()
                .map(|c| match c.kind {
                    ColKind::Str => ColumnData::Str(Vec::new()),
                    ColKind::Num => ColumnData::Num(Vec::new()),
                })
                .collect(),
            ..Inner::default()
        };

        // The dictionary: accept the valid contiguous prefix.
        let mut dict_clean = true;
        for line in read_lines(&dir.join("strings.jsonl"))? {
            let parsed = open_line(&line).and_then(|body| {
                let id = json_u64(body, "i")?;
                let s = json_str(body, "s")?;
                (id == inner.dict.len() as u64).then_some(s)
            });
            match parsed {
                Some(s) => {
                    inner.dict_index.insert(s.clone(), inner.dict.len() as u32);
                    inner.dict.push(s);
                }
                None => {
                    dict_clean = false;
                    break;
                }
            }
        }

        // Each column: accept sealed, contiguous batches.
        let mut clean = vec![true; SCHEMA.len()];
        for (ci, spec) in SCHEMA.iter().enumerate() {
            let data = &mut inner.cols[ci];
            for line in read_lines(&dir.join(col_file(spec.name)))? {
                if !parse_batch(&line, data, spec.kind, inner.dict.len()) {
                    clean[ci] = false;
                    break;
                }
            }
        }

        // The usable prefix is what every column agrees on.
        let usable = inner.cols.iter().map(ColumnData::len).min().unwrap_or(0);
        let mut repair: Vec<usize> = Vec::new();
        for (ci, data) in inner.cols.iter_mut().enumerate() {
            if data.len() > usable || !clean[ci] {
                data.truncate(usable);
                repair.push(ci);
            }
        }
        inner.appended = usable;

        // Rewrite damaged or over-long segments from the surviving
        // prefix so appends resume from a consistent boundary.
        for ci in repair {
            rewrite_column(&dir, ci, &inner.cols[ci])?;
        }
        if !dict_clean {
            let mut buf = String::new();
            for (id, s) in inner.dict.iter().enumerate() {
                push_dict_line(&mut buf, id as u64, s);
            }
            write_atomic(&dir.join("strings.jsonl"), buf.as_bytes())?;
        }

        // Replay the upsert log: last row per key wins.
        for row in 0..usable {
            let key = (
                inner.str_at(4, row).to_owned(),
                inner.str_at(5, row).to_owned(),
            );
            inner.index.insert(key, row);
        }

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
    /// disk traffic; new or changed rows are appended as one sealed,
    /// fsynced line per column (one batch amortizes the fsyncs).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error the in-memory state is
    /// unchanged (the batch is all-or-nothing in memory, and a torn
    /// partial batch on disk is dropped by the next [`Store::open`]).
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

        // Stage everything (dictionary additions included) before any
        // write so an I/O error leaves memory untouched.
        let mut new_strings: Vec<String> = Vec::new();
        let mut staged: HashMap<String, u32> = HashMap::new();
        let dict_len = inner.dict.len();
        let mut intern = |dict_index: &HashMap<String, u32>, s: &str| -> u32 {
            if let Some(&id) = dict_index.get(s) {
                return id;
            }
            if let Some(&id) = staged.get(s) {
                return id;
            }
            let id = (dict_len + new_strings.len()) as u32;
            new_strings.push(s.to_owned());
            staged.insert(s.to_owned(), id);
            id
        };

        let start = inner.appended;
        let mut col_values: Vec<ColumnData> = SCHEMA
            .iter()
            .map(|c| match c.kind {
                ColKind::Str => ColumnData::Str(Vec::new()),
                ColKind::Num => ColumnData::Num(Vec::new()),
            })
            .collect();
        for row in &fresh {
            for (ci, staged_col) in col_values.iter_mut().enumerate() {
                match (staged_col, row.value(ci)) {
                    (ColumnData::Str(v), RowVal::Str(s)) => {
                        v.push(intern(&inner.dict_index, s));
                    }
                    (ColumnData::Num(v), RowVal::Num(x)) => v.push(x),
                    _ => unreachable!("schema kind mismatch"),
                }
            }
        }
        // Disk first: dictionary additions, then one batch per column.
        let base = inner.dict.len() as u64;
        let files = inner.files(&self.dir)?;
        let mut buf = String::new();
        for (k, s) in new_strings.iter().enumerate() {
            push_dict_line(&mut buf, base + k as u64, s);
        }
        if !buf.is_empty() {
            files.strings.write_all(buf.as_bytes())?;
            files.strings.sync_data()?;
        }
        for (ci, staged_col) in col_values.iter().enumerate() {
            let mut body = format!("{{\"r\":{start},\"n\":{}", fresh.len());
            body.push_str(",\"v\":[");
            match staged_col {
                ColumnData::Str(v) => {
                    for (i, id) in v.iter().enumerate() {
                        if i > 0 {
                            body.push(',');
                        }
                        let _ = std::fmt::Write::write_fmt(&mut body, format_args!("{id}"));
                    }
                }
                ColumnData::Num(v) => {
                    for (i, x) in v.iter().enumerate() {
                        if i > 0 {
                            body.push(',');
                        }
                        push_num(&mut body, *x);
                    }
                }
            }
            body.push(']');
            let mut line = seal_line(body);
            line.push('\n');
            files.cols[ci].write_all(line.as_bytes())?;
            files.cols[ci].sync_data()?;
        }

        // Commit to memory only after every write landed.
        for s in new_strings {
            inner.dict_index.insert(s.clone(), inner.dict.len() as u32);
            inner.dict.push(s);
        }
        for (ci, staged_col) in col_values.into_iter().enumerate() {
            match (&mut inner.cols[ci], staged_col) {
                (ColumnData::Str(dst), ColumnData::Str(src)) => dst.extend(src),
                (ColumnData::Num(dst), ColumnData::Num(src)) => dst.extend(src),
                _ => unreachable!("schema kind mismatch"),
            }
        }
        for (k, row) in fresh.iter().enumerate() {
            inner.index.insert(
                (row.config_fp.clone(), row.workload_fp.clone()),
                start + k,
            );
        }
        inner.appended = start + stats.written;
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

    fn files(&mut self, dir: &Path) -> io::Result<&mut Files> {
        if self.files.is_none() {
            let open = |name: &str| {
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(dir.join(name))
            };
            let mut cols = Vec::with_capacity(SCHEMA.len());
            for spec in &SCHEMA {
                cols.push(open(&col_file(spec.name))?);
            }
            self.files = Some(Files {
                strings: open("strings.jsonl")?,
                cols,
            });
        }
        Ok(self.files.as_mut().expect("just opened"))
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

fn col_file(name: &str) -> String {
    format!("col_{name}.jsonl")
}

fn push_dict_line(buf: &mut String, id: u64, s: &str) {
    let mut body = format!("{{\"i\":{id},\"s\":");
    push_json_string(&mut body, s);
    buf.push_str(&seal_line(body));
    buf.push('\n');
}

/// Appends `x` in shortest-round-trip form; non-finite values use the
/// dedicated tokens `nan`/`inf`/`-inf` (this is a private segment
/// format, not interchange JSON, and losing NaN-ness would change
/// bytes downstream).
fn push_num(body: &mut String, x: f64) {
    if x.is_finite() {
        push_json_number(body, x);
    } else if x.is_nan() {
        body.push_str("\"nan\"");
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
        t => t.parse().ok(),
    }
}

/// Parses one sealed batch line into `data`; `true` when the line is
/// intact, contiguous, and self-consistent.
fn parse_batch(line: &str, data: &mut ColumnData, kind: ColKind, dict_len: usize) -> bool {
    let Some(body) = open_line(line) else {
        return false;
    };
    let (Some(r), Some(n), Some(vals)) = (
        json_u64(body, "r"),
        json_u64(body, "n"),
        json_array(body, "v"),
    ) else {
        return false;
    };
    if r as usize != data.len() || n as usize != vals.len() {
        return false;
    }
    match (kind, data) {
        (ColKind::Str, ColumnData::Str(v)) => {
            let start = v.len();
            for tok in vals {
                match tok.parse::<u32>() {
                    Ok(id) if (id as usize) < dict_len => v.push(id),
                    _ => {
                        // A dangling dictionary reference poisons the
                        // whole batch: roll it back.
                        v.truncate(start);
                        return false;
                    }
                }
            }
            true
        }
        (ColKind::Num, ColumnData::Num(v)) => {
            let start = v.len();
            for tok in vals {
                match parse_num(tok) {
                    Some(x) => v.push(x),
                    None => {
                        v.truncate(start);
                        return false;
                    }
                }
            }
            true
        }
        _ => false,
    }
}

fn rewrite_column(dir: &Path, ci: usize, data: &ColumnData) -> io::Result<()> {
    let mut buf = String::new();
    let n = data.len();
    if n > 0 {
        let mut body = format!("{{\"r\":0,\"n\":{n},\"v\":[");
        match data {
            ColumnData::Str(v) => {
                for (i, id) in v.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    let _ = std::fmt::Write::write_fmt(&mut body, format_args!("{id}"));
                }
            }
            ColumnData::Num(v) => {
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    push_num(&mut body, *x);
                }
            }
        }
        body.push(']');
        buf.push_str(&seal_line(body));
        buf.push('\n');
    }
    write_atomic(&dir.join(col_file(SCHEMA[ci].name)), buf.as_bytes())
}
