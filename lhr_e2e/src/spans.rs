//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only in a traced run, kept in memory, and written
//! as JSON lines when the run ends. Child processes print their spans on
//! stdout (`span {...}` lines) and the parent adopts them under the span
//! of the operation that spawned the child.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lhr_obs::push_json_string;

use crate::json::{self, Value};

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl SpanRec {
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"id\":{},\"parent\":{},\"name\":", self.id, self.parent);
        push_json_string(&mut s, &self.name);
        s.push_str(&format!(
            ",\"start_ns\":{},\"dur_ns\":{}}}",
            self.start_ns, self.dur_ns
        ));
        s
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let v: Value = json::parse(text)?;
        Ok(Self {
            id: v.num("id")? as u64,
            parent: v.num("parent")? as u64,
            name: v.text("name")?.to_owned(),
            start_ns: v.num("start_ns")? as u64,
            dur_ns: v.num("dur_ns")? as u64,
        })
    }

    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// The span recorder. When off, every call is a branch and nothing
/// more.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    recs: Mutex<Vec<SpanRec>>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            recs: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh span id (0 when off), taken before the span's children
    /// record so they can name it as their parent.
    pub fn id(&self) -> u64 {
        if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a finished span under a previously taken id.
    pub fn push(&self, id: u64, parent: u64, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let rec = SpanRec {
            id,
            parent,
            name: name.to_owned(),
            start_ns: ns_between(self.epoch, start),
            dur_ns: ns_between(start, end),
        };
        self.recs.lock().expect("span list lock").push(rec);
    }

    /// Takes an id and records a finished span in one call; returns the
    /// id.
    pub fn record(&self, parent: u64, name: &str, start: Instant, end: Instant) -> u64 {
        let id = self.id();
        self.push(id, parent, name, start, end);
        id
    }

    /// Adopts spans recorded by a child process that started at
    /// `child_start`: ids are renumbered into this recorder's space and
    /// the child's roots hang under `parent`.
    pub fn adopt(&self, child: Vec<SpanRec>, parent: u64, child_start: Instant) {
        if !self.on || child.is_empty() {
            return;
        }
        let max = child.iter().map(|s| s.id).max().unwrap_or(0);
        let base = self.next.fetch_add(max + 1, Ordering::Relaxed);
        let offset = ns_between(self.epoch, child_start);
        let mut recs = self.recs.lock().expect("span list lock");
        for s in child {
            recs.push(SpanRec {
                id: base + s.id,
                parent: if s.parent == 0 {
                    parent
                } else {
                    base + s.parent
                },
                start_ns: s.start_ns + offset,
                ..s
            });
        }
    }

    /// Every span recorded so far.
    pub fn snapshot(&self) -> Vec<SpanRec> {
        self.recs.lock().expect("span list lock").clone()
    }

    pub fn len(&self) -> usize {
        self.recs.lock().expect("span list lock").len()
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// Durations in microseconds of every span named `name`.
pub fn durations_us(recs: &[SpanRec], name: &str) -> Vec<f64> {
    recs.iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect()
}

/// Total duration in nanoseconds of every span named `name`.
pub fn total_ns(recs: &[SpanRec], name: &str) -> u64 {
    recs.iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns)
        .sum()
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_ns(recs: &[SpanRec], id: u64) -> u64 {
    let Some(me) = recs.iter().find(|s| s.id == id) else {
        return 0;
    };
    let mut kids: Vec<(u64, u64)> = recs
        .iter()
        .filter(|s| s.parent == id)
        .map(|s| {
            (
                s.start_ns.clamp(me.start_ns, me.end_ns()),
                s.end_ns().clamp(me.start_ns, me.end_ns()),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    me.dur_ns - covered
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, recs: &[SpanRec]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in recs {
        writeln!(out, "{}", s.to_json())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start_ns: u64, dur_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let recs = vec![
            rec(1, 0, 100, 100),
            rec(2, 1, 110, 20),
            // Overlaps child 2 by 10 ns: counted once.
            rec(3, 1, 120, 30),
            // Runs past the parent's end: clipped.
            rec(4, 1, 190, 50),
            // A grandchild is not a direct child.
            rec(5, 2, 111, 5),
        ];
        assert_eq!(self_ns(&recs, 1), 100 - 40 - 10);
        assert_eq!(self_ns(&recs, 2), 15);
        assert_eq!(self_ns(&recs, 9), 0);
    }

    #[test]
    fn adopted_child_spans_are_renumbered_under_the_parent() {
        let spans = Spans::new(true);
        let t0 = Instant::now();
        let op = spans.record(0, "op", t0, t0);
        spans.adopt(vec![rec(1, 0, 5, 10), rec(2, 1, 6, 2)], op, t0);
        let recs = spans.snapshot();
        assert_eq!(recs.len(), 3);
        let root = recs.iter().find(|s| s.name == "s1").unwrap();
        let leaf = recs.iter().find(|s| s.name == "s2").unwrap();
        assert_eq!(root.parent, op);
        assert_eq!(leaf.parent, root.id);
        assert!(recs.iter().all(|s| s.id != 0));
        assert_eq!(SpanRec::from_json(&leaf.to_json()).unwrap(), *leaf);
    }

    #[test]
    fn an_untraced_recorder_keeps_nothing() {
        let spans = Spans::new(false);
        let t = Instant::now();
        assert_eq!(spans.record(0, "x", t, t), 0);
        assert_eq!(spans.len(), 0);
    }
}
