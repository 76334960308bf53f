//! The span store: distributed-trace persistence for the serving tier.
//!
//! Every process in the shard topology (router, backends, a standalone
//! server) arms a [`SpanRecorder`] next to its other recorders. The
//! recorder folds the live event stream into per-trace fragments and,
//! when a trace's last open span closes, runs the **tail-based sampling
//! decision**: error traces and slow traces are always kept; the rest
//! are kept when `fnv64(trace_id) % keep_one_in == 0`. The hash is a
//! pure function of the trace id, so the router and every backend reach
//! the same verdict for the same trace without coordinating, and the
//! decision is journaled (`decisions.jsonl`) so a resumed process stays
//! deterministic even for traces it kept on error evidence it can no
//! longer see.
//!
//! # On-disk layout
//!
//! A span directory mirrors the cell store's columnar segments — one
//! CRC-sealed JSONL file per column of the span table:
//!
//! ```text
//! spans/
//!   span_trace.jsonl      128-bit trace ids, 32 hex digits
//!   span_span.jsonl       span ids (u64)
//!   span_parent.jsonl     parent span ids (0 = root)
//!   span_name.jsonl       span names
//!   span_start_ns.jsonl   wall-clock UNIX start, nanoseconds
//!   span_dur_ns.jsonl     durations, nanoseconds
//!   span_proc.jsonl       emitting process label ("router", "backend:1")
//!   span_status.jsonl     "ok" | "error"
//!   decisions.jsonl       journaled sampling verdicts
//! ```
//!
//! Appends are buffered (no fsync per trace — the store must not perturb
//! serving latency); [`SpanRecorder::drain`] syncs everything. A crash
//! tears at most the unsynced tail, and [`SpanTable::open`] recovers the
//! longest prefix every column agrees on, exactly like the cell store.
//!
//! # Stitching
//!
//! A distributed trace arrives as per-process fragments whose clocks
//! disagree. [`stitch`] merges them: each remote fragment's root names a
//! parent span id minted by the upstream process (carried over the
//! `x-lhr-trace` header), and the fragment is shifted in time so its
//! root centers inside that parent span's measured bounds — the
//! router's send/recv window is the only clock both sides agree on.
//! Fragments whose parent is missing become extra roots (orphans), which
//! the chaos drill asserts never happens for a surviving request.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use lhr_obs::sealed::{
    fnv64, json_array, json_str, json_u64, open_line, read_lines, seal_line, write_atomic,
};
use lhr_obs::{Event, EventKind, Recorder};

/// One completed span, as persisted in the span table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// 128-bit distributed trace id.
    pub trace: u128,
    /// Span id, unique within the emitting process.
    pub span: u64,
    /// Parent span id (0 = root of its process fragment).
    pub parent: u64,
    /// Span name, e.g. `serve.request.cell`.
    pub name: String,
    /// Wall-clock start, nanoseconds since the UNIX epoch (the emitting
    /// process's clock; [`stitch`] aligns across processes).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Emitting process label, e.g. `router` or `backend:41017`.
    pub proc: String,
    /// `"ok"`, or `"error"` for failed attempts.
    pub status: String,
}

impl SpanRow {
    /// Wall-clock end of the span (`start_ns + dur_ns`, saturating).
    #[must_use]
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// Maps free text onto the charset the columnar string encoding can
/// round-trip (the batch format separates array elements with commas
/// and delimits strings with bare quotes).
fn clean(s: &str) -> String {
    s.chars()
        .take(120)
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | ':' | '-' | '/' | ' ') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

const SPAN_COLS: [&str; 8] = [
    "trace", "span", "parent", "name", "start_ns", "dur_ns", "proc", "status",
];

fn col_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("span_{name}.jsonl"))
}

fn col_value(row: &SpanRow, ci: usize) -> String {
    match ci {
        0 => format!("\"{:032x}\"", row.trace),
        1 => row.span.to_string(),
        2 => row.parent.to_string(),
        3 => format!("\"{}\"", clean(&row.name)),
        4 => row.start_ns.to_string(),
        5 => row.dur_ns.to_string(),
        6 => format!("\"{}\"", clean(&row.proc)),
        7 => format!("\"{}\"", clean(&row.status)),
        _ => unreachable!("span table has {} columns", SPAN_COLS.len()),
    }
}

fn unquote(tok: &str) -> Option<&str> {
    tok.strip_prefix('"')?.strip_suffix('"')
}

#[derive(Debug, Default)]
struct TableInner {
    rows: Vec<SpanRow>,
    files: Option<Vec<File>>,
}

impl TableInner {
    fn files(&mut self, dir: &Path) -> io::Result<&mut Vec<File>> {
        if self.files.is_none() {
            let mut files = Vec::with_capacity(SPAN_COLS.len());
            for name in SPAN_COLS {
                files.push(
                    OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(col_path(dir, name))?,
                );
            }
            self.files = Some(files);
        }
        Ok(self.files.as_mut().expect("just opened"))
    }
}

/// The columnar span table: one sealed-segment file per column, whole
/// table mirrored in memory for queries. Internally synchronized.
#[derive(Debug)]
pub struct SpanTable {
    dir: PathBuf,
    inner: Mutex<TableInner>,
}

impl SpanTable {
    /// Opens (or creates) a span directory, recovering the longest
    /// prefix all columns agree on and dropping torn or tampered tails.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; corrupt contents never panic.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SpanTable> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // Per-column raw token streams, cut at the first bad line. A
        // column that hit a bad line is dirty: its file must be
        // rewritten even if its parsed length matches the agreed
        // prefix, or the dead line would orphan every later append.
        let mut cols: Vec<Vec<String>> = Vec::with_capacity(SPAN_COLS.len());
        let mut dirty = [false; SPAN_COLS.len()];
        for (ci, name) in SPAN_COLS.iter().enumerate() {
            let mut vals: Vec<String> = Vec::new();
            for line in read_lines(&col_path(&dir, name))? {
                let ok = open_line(&line)
                    .and_then(|body| {
                        let r = json_u64(body, "r")?;
                        let n = json_u64(body, "n")?;
                        let toks = json_array(body, "v")?;
                        (r as usize == vals.len() && n as usize == toks.len()).then_some(toks)
                    })
                    .map(|toks| vals.extend(toks.iter().map(|t| (*t).to_owned())))
                    .is_some();
                if !ok {
                    dirty[ci] = true;
                    break;
                }
            }
            cols.push(vals);
        }
        let usable = cols.iter().map(Vec::len).min().unwrap_or(0);
        let mut rows = Vec::with_capacity(usable);
        #[allow(clippy::needless_range_loop)] // eight parallel columns, one index
        for r in 0..usable {
            let parsed = (|| {
                Some(SpanRow {
                    trace: u128::from_str_radix(unquote(&cols[0][r])?, 16).ok()?,
                    span: cols[1][r].parse().ok()?,
                    parent: cols[2][r].parse().ok()?,
                    name: unquote(&cols[3][r])?.to_owned(),
                    start_ns: cols[4][r].parse().ok()?,
                    dur_ns: cols[5][r].parse().ok()?,
                    proc: unquote(&cols[6][r])?.to_owned(),
                    status: unquote(&cols[7][r])?.to_owned(),
                })
            })();
            match parsed {
                Some(row) => rows.push(row),
                None => break, // value-level corruption: keep the prefix
            }
        }
        if rows.len() != usable {
            dirty = [true; SPAN_COLS.len()];
        }
        let usable = rows.len();
        // Rewrite any column that survived longer than the agreed prefix
        // (or stopped at a dead line) so the next append resumes from a
        // consistent boundary.
        for (ci, vals) in cols.iter().enumerate() {
            if vals.len() != usable || dirty[ci] {
                let mut buf = String::new();
                if usable > 0 {
                    let mut body = format!("{{\"r\":0,\"n\":{usable},\"v\":[");
                    for (i, row) in rows.iter().enumerate() {
                        if i > 0 {
                            body.push(',');
                        }
                        body.push_str(&col_value(row, ci));
                    }
                    body.push(']');
                    buf.push_str(&seal_line(body));
                    buf.push('\n');
                }
                write_atomic(&col_path(&dir, SPAN_COLS[ci]), buf.as_bytes())?;
            }
        }
        Ok(SpanTable {
            dir,
            inner: Mutex::new(TableInner {
                rows,
                files: None,
            }),
        })
    }

    /// The span directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total persisted span count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().rows.len()
    }

    /// Whether the table holds no spans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one batch of spans: one sealed segment line per column,
    /// buffered (call [`SpanTable::sync`] to force durability).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; memory is updated only after every
    /// column write landed, and a torn partial batch is dropped by the
    /// next [`SpanTable::open`].
    pub fn append(&self, rows: &[SpanRow]) -> io::Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let mut inner = self.inner.lock().unwrap();
        let start = inner.rows.len();
        let dir = self.dir.clone();
        let files = inner.files(&dir)?;
        for (ci, file) in files.iter_mut().enumerate() {
            let mut body = format!("{{\"r\":{start},\"n\":{}", rows.len());
            body.push_str(",\"v\":[");
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&col_value(row, ci));
            }
            body.push(']');
            let mut line = seal_line(body);
            line.push('\n');
            file.write_all(line.as_bytes())?;
        }
        inner.rows.extend(rows.iter().cloned());
        Ok(())
    }

    /// Forces every buffered append to disk.
    ///
    /// # Errors
    ///
    /// Propagates the first fsync failure.
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(files) = inner.files.as_mut() {
            for f in files {
                f.sync_data()?;
            }
        }
        Ok(())
    }

    /// Every distinct trace id in the table, in first-seen order.
    #[must_use]
    pub fn trace_ids(&self) -> Vec<u128> {
        let inner = self.inner.lock().unwrap();
        let mut ids = Vec::new();
        for row in &inner.rows {
            if !ids.contains(&row.trace) {
                ids.push(row.trace);
            }
        }
        ids
    }

    /// Every persisted span of one trace, in append order.
    #[must_use]
    pub fn trace_rows(&self, trace: u128) -> Vec<SpanRow> {
        self.inner
            .lock()
            .unwrap()
            .rows
            .iter()
            .filter(|r| r.trace == trace)
            .cloned()
            .collect()
    }

    /// Searches the table, newest trace first, grouped into summaries.
    #[must_use]
    pub fn search(&self, query: &SpanQuery) -> Vec<TraceSummary> {
        let inner = self.inner.lock().unwrap();
        let mut order: Vec<u128> = Vec::new();
        let mut by_trace: HashMap<u128, TraceSummary> = HashMap::new();
        for row in &inner.rows {
            let s = by_trace.entry(row.trace).or_insert_with(|| {
                order.push(row.trace);
                TraceSummary {
                    trace: row.trace,
                    root: String::new(),
                    spans: 0,
                    errors: 0,
                    start_ns: u64::MAX,
                    dur_ns: 0,
                }
            });
            s.spans += 1;
            if row.status == "error" {
                s.errors += 1;
            }
            if row.parent == 0 && (s.root.is_empty() || row.dur_ns > s.dur_ns) {
                s.root = row.name.clone();
            }
            s.start_ns = s.start_ns.min(row.start_ns);
            s.dur_ns = s.dur_ns.max(row.dur_ns);
        }
        let mut out: Vec<TraceSummary> = order
            .into_iter()
            .rev()
            .filter_map(|t| by_trace.remove(&t))
            .filter(|s| {
                (query.name.is_empty()
                    || s.root.contains(&query.name)
                    || inner
                        .rows
                        .iter()
                        .any(|r| r.trace == s.trace && r.name.contains(&query.name)))
                    && (!query.errors_only || s.errors > 0)
                    && s.dur_ns >= query.min_dur_ns
            })
            .collect();
        out.truncate(query.limit.max(1));
        out
    }
}

/// Filter for [`SpanTable::search`].
#[derive(Debug, Clone)]
pub struct SpanQuery {
    /// Substring any span name (or the root name) must contain; empty
    /// matches everything.
    pub name: String,
    /// Keep only traces containing at least one error span.
    pub errors_only: bool,
    /// Minimum trace duration (longest span), nanoseconds.
    pub min_dur_ns: u64,
    /// Maximum summaries returned (minimum 1).
    pub limit: usize,
}

impl Default for SpanQuery {
    fn default() -> Self {
        SpanQuery {
            name: String::new(),
            errors_only: false,
            min_dur_ns: 0,
            limit: 50,
        }
    }
}

/// One trace, summarized for `GET /v1/traces`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Trace id.
    pub trace: u128,
    /// Name of the (longest) root span.
    pub root: String,
    /// Persisted span count.
    pub spans: usize,
    /// Spans with error status.
    pub errors: usize,
    /// Earliest span start.
    pub start_ns: u64,
    /// Longest span duration (the trace's critical extent).
    pub dur_ns: u64,
}

// ---------------------------------------------------------------------
// Tail-based sampling + the recorder
// ---------------------------------------------------------------------

/// Tail-sampling knobs.
#[derive(Debug, Clone, Copy)]
pub struct SamplingConfig {
    /// Keep one in this many ordinary traces (1 = keep everything).
    pub keep_one_in: u64,
    /// A trace containing any span at least this long is always kept.
    pub slow_ns: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            keep_one_in: 1,
            slow_ns: 100_000_000, // 100 ms
        }
    }
}

/// The deterministic hash half of the tail decision: every process
/// computes this identically from the trace id alone, so router and
/// backends agree without coordinating.
#[must_use]
pub fn tail_keep(trace: u128, keep_one_in: u64) -> bool {
    keep_one_in <= 1 || fnv64(&trace.to_be_bytes()).is_multiple_of(keep_one_in)
}

#[derive(Debug)]
struct OpenSpan {
    parent: u64,
    start_ns: u64,
}

#[derive(Debug, Default)]
struct TraceBuf {
    open: HashMap<u64, OpenSpan>,
    done: Vec<SpanRow>,
    error: bool,
    slow: bool,
}

/// A [`Recorder`] that persists completed spans of sampled traces into
/// a [`SpanTable`].
///
/// Only events carrying a nonzero trace id are considered; everything a
/// process does outside a distributed trace flows past untouched. Spans
/// buffer in memory per trace and flush as one table batch when the
/// trace's last open span closes (a *fragment* — campaign cells joined
/// to an old trace form their own later fragments and reuse the
/// journaled verdict). Append failures are counted, never raised: the
/// span store is a byproduct, the request is the product.
#[derive(Debug)]
pub struct SpanRecorder {
    table: SpanTable,
    config: SamplingConfig,
    proc: String,
    wall_anchor_ns: u64,
    instant_anchor: Instant,
    pending: Mutex<HashMap<u128, TraceBuf>>,
    decisions: Mutex<HashMap<u128, bool>>,
    decision_file: Mutex<Option<File>>,
    append_errors: AtomicU64,
    traces_kept: AtomicU64,
    traces_dropped: AtomicU64,
}

impl SpanRecorder {
    /// Opens the span directory and loads journaled sampling decisions.
    ///
    /// `proc` labels every span this process emits (e.g. `"router"`).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from [`SpanTable::open`].
    pub fn open(
        dir: impl Into<PathBuf>,
        proc: &str,
        config: SamplingConfig,
    ) -> io::Result<SpanRecorder> {
        let table = SpanTable::open(dir)?;
        let mut decisions = HashMap::new();
        for line in read_lines(&table.dir().join("decisions.jsonl"))? {
            let Some(body) = open_line(&line) else {
                break;
            };
            let (Some(trace), Some(keep)) = (json_str(body, "trace"), json_u64(body, "keep"))
            else {
                break;
            };
            let Ok(trace) = u128::from_str_radix(&trace, 16) else {
                break;
            };
            decisions.insert(trace, keep != 0);
        }
        let wall_anchor_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        Ok(SpanRecorder {
            table,
            config,
            proc: clean(proc),
            wall_anchor_ns,
            instant_anchor: Instant::now(),
            pending: Mutex::new(HashMap::new()),
            decisions: Mutex::new(decisions),
            decision_file: Mutex::new(None),
            append_errors: AtomicU64::new(0),
            traces_kept: AtomicU64::new(0),
            traces_dropped: AtomicU64::new(0),
        })
    }

    /// The backing table (for queries and the trace endpoints).
    #[must_use]
    pub fn table(&self) -> &SpanTable {
        &self.table
    }

    /// Span batches lost to I/O errors (append or decision-journal).
    #[must_use]
    pub fn append_errors(&self) -> u64 {
        self.append_errors.load(Ordering::Relaxed)
    }

    /// Trace fragments persisted.
    #[must_use]
    pub fn traces_kept(&self) -> u64 {
        self.traces_kept.load(Ordering::Relaxed)
    }

    /// Trace fragments discarded by the sampler.
    #[must_use]
    pub fn traces_dropped(&self) -> u64 {
        self.traces_dropped.load(Ordering::Relaxed)
    }

    /// Flushes every buffered trace (completed spans only) and fsyncs
    /// the segment files. Call at shutdown or before reading the table
    /// from another process.
    ///
    /// # Errors
    ///
    /// Propagates the fsync failure; buffered appends that failed
    /// earlier are already counted in [`SpanRecorder::append_errors`].
    pub fn drain(&self) -> io::Result<()> {
        let bufs: Vec<(u128, TraceBuf)> = self.pending.lock().unwrap().drain().collect();
        for (trace, buf) in bufs {
            self.flush_fragment(trace, buf);
        }
        self.table.sync()?;
        if let Some(f) = self.decision_file.lock().unwrap().as_mut() {
            f.sync_data()?;
        }
        Ok(())
    }

    fn now_ns(&self) -> u64 {
        self.wall_anchor_ns
            .saturating_add(u64::try_from(self.instant_anchor.elapsed().as_nanos()).unwrap_or(0))
    }

    fn journal_decision(&self, trace: u128, keep: bool, why: &str) {
        let mut guard = self.decision_file.lock().unwrap();
        if guard.is_none() {
            match OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.table.dir().join("decisions.jsonl"))
            {
                Ok(f) => *guard = Some(f),
                Err(_) => {
                    self.append_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        let body = format!(
            "{{\"trace\":\"{trace:032x}\",\"keep\":{},\"why\":\"{why}\"",
            u8::from(keep)
        );
        let mut line = seal_line(body);
        line.push('\n');
        if guard
            .as_mut()
            .expect("just opened")
            .write_all(line.as_bytes())
            .is_err()
        {
            self.append_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn flush_fragment(&self, trace: u128, buf: TraceBuf) {
        if buf.done.is_empty() {
            return;
        }
        let forced = buf.error || buf.slow;
        let keep = {
            let mut decisions = self.decisions.lock().unwrap();
            match decisions.get(&trace).copied() {
                // Error evidence in a later fragment upgrades a drop:
                // "always keep error traces" wins over the hash.
                Some(false) if forced => {
                    decisions.insert(trace, true);
                    self.journal_decision(trace, true, if buf.error { "error" } else { "slow" });
                    true
                }
                Some(keep) => keep,
                None => {
                    let keep = forced || tail_keep(trace, self.config.keep_one_in);
                    decisions.insert(trace, keep);
                    let why = if buf.error {
                        "error"
                    } else if buf.slow {
                        "slow"
                    } else if keep {
                        "hash"
                    } else {
                        "drop"
                    };
                    self.journal_decision(trace, keep, why);
                    keep
                }
            }
        };
        if keep {
            self.traces_kept.fetch_add(1, Ordering::Relaxed);
            if self.table.append(&buf.done).is_err() {
                self.append_errors.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.traces_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Recorder for SpanRecorder {
    fn record(&self, event: &Event<'_>) {
        if event.trace == 0 {
            return;
        }
        match event.kind {
            EventKind::SpanStart { id, parent } => {
                let start_ns = self.now_ns();
                self.pending
                    .lock()
                    .unwrap()
                    .entry(event.trace)
                    .or_default()
                    .open
                    .insert(id, OpenSpan { parent, start_ns });
            }
            EventKind::SpanEnd { id, nanos, error } => {
                let mut pending = self.pending.lock().unwrap();
                let buf = pending.entry(event.trace).or_default();
                let (parent, start_ns) = match buf.open.remove(&id) {
                    Some(o) => (o.parent, o.start_ns),
                    // The recorder was armed mid-span: back-date from
                    // the measured duration.
                    None => (0, self.now_ns().saturating_sub(nanos)),
                };
                buf.done.push(SpanRow {
                    trace: event.trace,
                    span: id,
                    parent,
                    name: event.name.to_owned(),
                    start_ns,
                    dur_ns: nanos,
                    proc: self.proc.clone(),
                    status: if error { "error" } else { "ok" }.to_owned(),
                });
                buf.error |= error;
                buf.slow |= nanos >= self.config.slow_ns;
                if buf.open.is_empty() {
                    let buf = pending.remove(&event.trace).expect("entry just touched");
                    drop(pending);
                    self.flush_fragment(event.trace, buf);
                }
            }
            _ => {}
        }
    }

    /// A full flush is a drain: the fanout's `flush` only fires at
    /// server shutdown, where discarding open-span bookkeeping is the
    /// point, not a loss.
    fn flush(&self) {
        if self.drain().is_err() {
            self.append_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------
// Stitching
// ---------------------------------------------------------------------

/// One node of a stitched multi-process trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The span itself (with `start_ns` skew-aligned to the reference
    /// process's clock).
    pub row: SpanRow,
    /// Child spans, ordered by aligned start time.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total node count of this subtree (itself included).
    #[must_use]
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(SpanNode::size).sum::<usize>()
    }
}

/// Index of `r`'s parent within its own process fragment, if any: the
/// same-process span carrying the parent id that *started no later*
/// than `r` (within a process a parent always starts before its
/// children; a colliding remote id on a fragment root fails this test
/// because the fragment root is its process's earliest span). `None`
/// means `r` is a fragment root — its parent id, if any, was minted by
/// another process and travelled over the wire.
fn local_parent(rows: &[SpanRow], i: usize) -> Option<usize> {
    let r = &rows[i];
    if r.parent == 0 {
        return None;
    }
    rows.iter().position(|o| {
        o.proc == r.proc && o.span == r.parent && o.span != r.span && o.start_ns <= r.start_ns
    })
}

/// Merges per-process fragments of one trace into a tree, aligning
/// remote clocks. Returns the roots: exactly one for a fully stitched
/// trace; extra roots are orphan fragments whose upstream parent span
/// was never persisted.
#[must_use]
pub fn stitch(rows: &[SpanRow]) -> Vec<SpanNode> {
    if rows.is_empty() {
        return Vec::new();
    }
    let mut procs: Vec<&str> = Vec::new();
    for r in rows {
        if !procs.contains(&r.proc.as_str()) {
            procs.push(&r.proc);
        }
    }
    // Each fragment's representative root: the longest span with no
    // local parent.
    let frag_root = |p: &str| -> Option<usize> {
        (0..rows.len())
            .filter(|&i| rows[i].proc == p && local_parent(rows, i).is_none())
            .max_by_key(|&i| rows[i].dur_ns)
    };
    // The reference process owns a true root (parent 0); failing that,
    // one whose root's parent id resolves nowhere.
    let reference = procs
        .iter()
        .find(|p| rows.iter().any(|r| &r.proc == *p && r.parent == 0))
        .or_else(|| {
            procs.iter().find(|p| {
                frag_root(p).is_some_and(|i| {
                    !rows
                        .iter()
                        .any(|o| o.span == rows[i].parent && o.proc != rows[i].proc)
                })
            })
        })
        .copied()
        .unwrap_or(procs[0]);

    // Align fragments breadth-first from the reference: a fragment's
    // shift places its root centered inside the upstream parent span
    // (the sender's send/recv window is the only clock both agree on).
    let mut shift: HashMap<String, i128> = HashMap::new();
    shift.insert(reference.to_owned(), 0);
    let mut progressed = true;
    while progressed {
        progressed = false;
        for p in &procs {
            if shift.contains_key(*p) {
                continue;
            }
            let Some(ri) = frag_root(p) else { continue };
            let root = &rows[ri];
            // The upstream parent must live in an already-aligned
            // fragment of a different process.
            let Some(parent) = rows
                .iter()
                .find(|r| r.span == root.parent && r.proc != root.proc && shift.contains_key(&r.proc))
            else {
                continue;
            };
            let parent_start = i128::from(parent.start_ns) + shift[&parent.proc];
            let slack = i128::from(parent.dur_ns.saturating_sub(root.dur_ns)) / 2;
            shift.insert((*p).to_owned(), parent_start + slack - i128::from(root.start_ns));
            progressed = true;
        }
    }

    // Materialize aligned rows; unaligned (orphan) fragments keep their
    // own clock.
    let aligned: Vec<SpanRow> = rows
        .iter()
        .map(|r| {
            let s = shift.get(&r.proc).copied().unwrap_or(0);
            let start = i128::from(r.start_ns) + s;
            SpanRow {
                start_ns: u64::try_from(start.max(0)).unwrap_or(0),
                ..r.clone()
            }
        })
        .collect();

    // Build the forest: a node's parent is the enclosing same-process
    // span, or (for fragment roots) the other-process span whose id the
    // root's parent names.
    let mut children_of: HashMap<(String, u64), Vec<usize>> = HashMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, r) in aligned.iter().enumerate() {
        let parent_key = local_parent(rows, i)
            .map(|pi| (rows[pi].proc.clone(), rows[pi].span))
            .or_else(|| {
                if r.parent == 0 {
                    return None;
                }
                aligned
                    .iter()
                    .find(|o| o.span == r.parent && o.proc != r.proc)
                    .map(|o| (o.proc.clone(), o.span))
            });
        match parent_key {
            Some(key) => children_of.entry(key).or_default().push(i),
            None => roots.push(i),
        }
    }
    fn build(
        i: usize,
        aligned: &[SpanRow],
        children_of: &HashMap<(String, u64), Vec<usize>>,
    ) -> SpanNode {
        let row = aligned[i].clone();
        let mut children: Vec<SpanNode> = children_of
            .get(&(row.proc.clone(), row.span))
            .map(|ids| {
                ids.iter()
                    .map(|&c| build(c, aligned, children_of))
                    .collect()
            })
            .unwrap_or_default();
        children.sort_by_key(|n| (n.row.start_ns, n.row.span));
        SpanNode { row, children }
    }
    let mut out: Vec<SpanNode> = roots
        .into_iter()
        .map(|i| build(i, &aligned, &children_of))
        .collect();
    out.sort_by_key(|n| (n.row.start_ns, n.row.span));
    out
}

// ---------------------------------------------------------------------
// Wire formats
// ---------------------------------------------------------------------

fn push_row_json(out: &mut String, r: &SpanRow) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"proc\":\"{}\",\"status\":\"{}\"}}",
        r.span,
        r.parent,
        clean(&r.name),
        r.start_ns,
        r.dur_ns,
        clean(&r.proc),
        clean(&r.status),
    );
}

/// Renders one process's raw fragment of a trace, for the router to
/// fetch from a backend (`GET /v1/trace/<id>?format=fragment`).
#[must_use]
pub fn fragment_json(trace: u128, rows: &[SpanRow]) -> String {
    let mut out = format!("{{\"trace\":\"{trace:032x}\",\"spans\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_row_json(&mut out, r);
    }
    out.push_str("]}");
    out
}

/// Parses a fragment body back into rows. Hostile or truncated bodies
/// yield `None`, never a panic.
#[must_use]
pub fn parse_fragment(body: &str) -> Option<Vec<SpanRow>> {
    let trace_hex = json_str(body, "trace")?;
    let trace = u128::from_str_radix(&trace_hex, 16).ok()?;
    let at = body.find("\"spans\":[")?;
    let rest = &body[at + "\"spans\":[".len()..];
    let end = rest.rfind(']')?;
    let inner = &rest[..end];
    let mut rows = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    for (i, b) in inner.bytes().enumerate() {
        match b {
            b'{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    let obj = &inner[start?..=i];
                    rows.push(SpanRow {
                        trace,
                        span: json_u64(obj, "span")?,
                        parent: json_u64(obj, "parent")?,
                        name: json_str(obj, "name")?,
                        start_ns: json_u64(obj, "start_ns")?,
                        dur_ns: json_u64(obj, "dur_ns")?,
                        proc: json_str(obj, "proc")?,
                        status: json_str(obj, "status")?,
                    });
                }
            }
            _ => {}
        }
    }
    (depth == 0).then_some(rows)
}

/// Renders a stitched tree for `GET /v1/trace/<id>`.
#[must_use]
pub fn tree_json(trace: u128, roots: &[SpanNode]) -> String {
    fn push_node(out: &mut String, n: &SpanNode) {
        let mut head = String::new();
        push_row_json(&mut head, &n.row);
        // Splice the children array in before the closing brace.
        out.push_str(&head[..head.len() - 1]);
        out.push_str(",\"children\":[");
        for (i, c) in n.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_node(out, c);
        }
        out.push_str("]}");
    }
    let total: usize = roots.iter().map(SpanNode::size).sum();
    let mut out = format!("{{\"trace\":\"{trace:032x}\",\"spans\":{total},\"roots\":[");
    for (i, n) in roots.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_node(&mut out, n);
    }
    out.push_str("]}");
    out
}

/// Renders `GET /v1/traces` search results.
#[must_use]
pub fn summaries_json(summaries: &[TraceSummary]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"traces\":[");
    for (i, s) in summaries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"trace\":\"{:032x}\",\"root\":\"{}\",\"spans\":{},\"errors\":{},\"start_ns\":{},\"dur_ns\":{}}}",
            s.trace,
            clean(&s.root),
            s.spans,
            s.errors,
            s.start_ns,
            s.dur_ns,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lhr-spanstore-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn row(trace: u128, span: u64, parent: u64, name: &str, proc: &str) -> SpanRow {
        SpanRow {
            trace,
            span,
            parent,
            name: name.to_owned(),
            start_ns: 1_000 + span * 10,
            dur_ns: 100,
            proc: proc.to_owned(),
            status: "ok".to_owned(),
        }
    }

    fn ev(trace: u128, name: &'static str, kind: EventKind<'static>) -> Event<'static> {
        Event {
            name,
            request: 7,
            trace,
            kind,
        }
    }

    fn start(id: u64, parent: u64) -> EventKind<'static> {
        EventKind::SpanStart { id, parent }
    }

    fn end(id: u64, nanos: u64, error: bool) -> EventKind<'static> {
        EventKind::SpanEnd { id, nanos, error }
    }

    #[test]
    fn table_round_trips_and_recovers_torn_tails() {
        let dir = tempdir("table");
        let rows = vec![
            row(0xAB, 1, 0, "serve.request.cell", "router"),
            row(0xAB, 2, 1, "router.attempt", "router"),
        ];
        {
            let t = SpanTable::open(&dir).unwrap();
            t.append(&rows).unwrap();
            t.append(&[row(0xCD, 3, 0, "serve.request.query", "router")])
                .unwrap();
            t.sync().unwrap();
        }
        let t = SpanTable::open(&dir).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.trace_rows(0xAB), rows);

        // Tear the tail of one column: the second batch must be dropped
        // from every column, leaving the first intact.
        let victim = col_path(&dir, "name");
        let text = std::fs::read_to_string(&victim).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let torn = &lines[1][..lines[1].len() / 2];
        lines[1] = torn;
        std::fs::write(&victim, lines.join("\n")).unwrap();
        let t = SpanTable::open(&dir).unwrap();
        assert_eq!(t.len(), 2, "torn batch dropped, first batch kept");
        assert!(t.trace_rows(0xCD).is_empty());
        // The repair rewrote the other columns to the agreed prefix, so
        // a fresh append lands contiguously.
        t.append(&[row(0xEF, 9, 0, "serve.request.cell", "router")])
            .unwrap();
        t.sync().unwrap();
        assert_eq!(SpanTable::open(&dir).unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recorder_buffers_a_trace_and_flushes_on_last_close() {
        let dir = tempdir("rec");
        let r = SpanRecorder::open(&dir, "router", SamplingConfig::default()).unwrap();
        r.record(&ev(0x77, "serve.request.cell", start(1, 0)));
        r.record(&ev(0x77, "sim.run", start(2, 1)));
        r.record(&ev(0x77, "sim.run", end(2, 5_000, false)));
        assert_eq!(r.table().len(), 0, "trace still open: nothing persisted");
        r.record(&ev(0x77, "serve.request.cell", end(1, 9_000, false)));
        assert_eq!(r.table().len(), 2, "root closed: fragment flushed");
        let rows = r.table().trace_rows(0x77);
        assert_eq!(rows[0].name, "sim.run");
        assert_eq!(rows[0].parent, 1);
        assert_eq!(rows[1].parent, 0);
        assert_eq!(rows[1].proc, "router");
        assert!(rows[0].start_ns >= rows[1].start_ns, "child starts after root");
        // Untraced events never touch the store.
        r.record(&ev(0, "serve.request.cell", start(9, 0)));
        r.record(&ev(0, "serve.request.cell", end(9, 1, false)));
        assert_eq!(r.table().len(), 2);
        assert_eq!(r.traces_kept(), 1);
        assert_eq!(r.append_errors(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_sampling_keeps_errors_and_slow_traces_and_journals_decisions() {
        let dir = tempdir("tail");
        let config = SamplingConfig {
            keep_one_in: u64::MAX, // hash branch keeps (almost) nothing
            slow_ns: 1_000_000,
        };
        // Pick trace ids on both sides of the hash.
        assert!(!tail_keep(1, u64::MAX));
        let r = SpanRecorder::open(&dir, "b1", config).unwrap();
        // Ordinary fast trace: dropped.
        r.record(&ev(1, "serve.request.cell", start(1, 0)));
        r.record(&ev(1, "serve.request.cell", end(1, 10, false)));
        assert_eq!(r.table().len(), 0);
        assert_eq!(r.traces_dropped(), 1);
        // Error trace: always kept.
        r.record(&ev(2, "serve.request.cell", start(2, 0)));
        r.record(&ev(2, "serve.request.cell", end(2, 10, true)));
        assert_eq!(r.table().len(), 1);
        // Slow trace: always kept.
        r.record(&ev(3, "serve.request.cell", start(3, 0)));
        r.record(&ev(3, "serve.request.cell", end(3, 2_000_000, false)));
        assert_eq!(r.table().len(), 2);
        // A later fragment of the error trace reuses the verdict.
        r.record(&ev(2, "campaign.cell", start(4, 2)));
        r.record(&ev(2, "campaign.cell", end(4, 10, false)));
        assert_eq!(r.table().trace_rows(2).len(), 2);
        // A later *error* fragment of the dropped trace upgrades it.
        r.record(&ev(1, "campaign.cell", start(5, 1)));
        r.record(&ev(1, "campaign.cell", end(5, 10, true)));
        assert_eq!(r.table().trace_rows(1).len(), 1);
        r.drain().unwrap();

        // Decisions are journaled: a reopened recorder keeps dropping
        // what it dropped and keeping what it kept.
        let r2 = SpanRecorder::open(&dir, "b1", config).unwrap();
        r2.record(&ev(3, "campaign.cell", start(6, 3)));
        r2.record(&ev(3, "campaign.cell", end(6, 10, false)));
        assert_eq!(
            r2.table().trace_rows(3).len(),
            2,
            "journaled keep survives restart"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deterministic_hash_agrees_across_processes() {
        for trace in [0x1u128, 0xDEAD_BEEF, u128::MAX - 3] {
            let a = tail_keep(trace, 7);
            let b = tail_keep(trace, 7); // a "different process"
            assert_eq!(a, b);
        }
        assert!(tail_keep(42, 1), "keep_one_in=1 keeps everything");
        // With modulus 2, roughly half survive; both outcomes occur.
        let kept = (0u128..64).filter(|t| tail_keep(t * 97 + 5, 2)).count();
        assert!(kept > 8 && kept < 56, "kept {kept}/64");
    }

    #[test]
    fn stitch_aligns_remote_fragments_inside_the_parent_span() {
        // Router: root(1) -> attempt(2) spanning [1000, 5000].
        // Backend clock is 60s ahead; its root(1) has parent=2 (the
        // router's attempt span id travelled over the header). Span ids
        // collide across processes on purpose.
        let mut rows = vec![
            SpanRow { start_ns: 500, dur_ns: 5_000, ..row(9, 1, 0, "serve.request.cell", "router") },
            SpanRow { start_ns: 1_000, dur_ns: 4_000, ..row(9, 2, 1, "router.attempt", "router") },
            SpanRow { start_ns: 60_000_000_000, dur_ns: 2_000, ..row(9, 1, 2, "serve.request.cell", "backend") },
            SpanRow { start_ns: 60_000_000_500, dur_ns: 1_000, ..row(9, 2, 1, "sim.run", "backend") },
        ];
        let roots = stitch(&rows);
        assert_eq!(roots.len(), 1, "fully stitched: one root");
        let root = &roots[0];
        assert_eq!(root.row.name, "serve.request.cell");
        assert_eq!(root.row.proc, "router");
        let attempt = &root.children[0];
        assert_eq!(attempt.row.name, "router.attempt");
        let remote = &attempt.children[0];
        assert_eq!(remote.row.proc, "backend");
        assert!(
            remote.row.start_ns >= attempt.row.start_ns
                && remote.row.end_ns() <= attempt.row.end_ns(),
            "remote root [{}, {}] must sit inside the attempt [{}, {}]",
            remote.row.start_ns,
            remote.row.end_ns(),
            attempt.row.start_ns,
            attempt.row.end_ns(),
        );
        let sim = &remote.children[0];
        assert_eq!(sim.row.name, "sim.run");
        assert!(sim.row.start_ns >= remote.row.start_ns);

        // Drop the router fragment: the backend fragment becomes an
        // orphan root but still renders.
        rows.retain(|r| r.proc == "backend");
        let roots = stitch(&rows);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].row.proc, "backend");
        assert_eq!(roots[0].row.start_ns, 60_000_000_000, "orphan keeps its clock");
        let _ = roots;
    }

    #[test]
    fn fragment_json_round_trips_and_rejects_hostile_bodies() {
        let rows = vec![
            row(0xF00D, 1, 0, "serve.request.cell", "backend:1"),
            SpanRow { status: "error".to_owned(), ..row(0xF00D, 2, 1, "sim.run", "backend:1") },
        ];
        let body = fragment_json(0xF00D, &rows);
        assert!(body.contains("\"trace\":\"0000000000000000000000000000f00d\""));
        let parsed = parse_fragment(&body).unwrap();
        assert_eq!(parsed, rows);
        for hostile in [
            "",
            "{}",
            "{\"trace\":\"zz\",\"spans\":[]}",
            "{\"trace\":\"f00d\",\"spans\":[{\"span\":1}]}",
            "{\"trace\":\"f00d\",\"spans\":[{]}",
            &body[..body.len() - 4],
        ] {
            // Truncation may drop trailing rows or fail outright; it
            // must never panic or fabricate a row.
            let _ = parse_fragment(hostile);
        }
        assert!(parse_fragment("{\"trace\":\"zz\",\"spans\":[]}").is_none());
        let tree = stitch(&parsed);
        let json = tree_json(0xF00D, &tree);
        assert!(json.starts_with("{\"trace\":\"0000000000000000000000000000f00d\",\"spans\":2"));
        assert!(json.contains("\"children\":[{\"span\":2"));
        let _ = std::fs::remove_dir_all(tempdir("unused"));
    }

    #[test]
    fn search_filters_and_summarizes() {
        let dir = tempdir("search");
        let t = SpanTable::open(&dir).unwrap();
        t.append(&[
            SpanRow { dur_ns: 9_000, ..row(0xA, 1, 0, "serve.request.cell", "router") },
            SpanRow { status: "error".to_owned(), ..row(0xA, 2, 1, "router.attempt", "router") },
        ])
        .unwrap();
        t.append(&[SpanRow { dur_ns: 50, ..row(0xB, 1, 0, "serve.request.query", "router") }])
            .unwrap();
        let all = t.search(&SpanQuery::default());
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].trace, 0xB, "newest first");
        let errs = t.search(&SpanQuery { errors_only: true, ..SpanQuery::default() });
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].trace, 0xA);
        assert_eq!(errs[0].errors, 1);
        assert_eq!(errs[0].root, "serve.request.cell");
        let slow = t.search(&SpanQuery { min_dur_ns: 1_000, ..SpanQuery::default() });
        assert_eq!(slow.len(), 1);
        let named = t.search(&SpanQuery { name: "query".to_owned(), ..SpanQuery::default() });
        assert_eq!(named.len(), 1);
        assert_eq!(named[0].trace, 0xB);
        let json = summaries_json(&errs);
        assert!(json.contains("\"errors\":1"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
