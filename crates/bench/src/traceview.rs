//! Span-tree reconstruction from a JSON-lines trace: the engine behind
//! the `lhr_traceview` binary.
//!
//! A trace produced with request context (see `lhr_obs::context`)
//! carries `"req"` on every event recorded under a request and
//! `"parent"` on nested span starts. This module folds those lines back
//! into per-request trees:
//!
//! ```text
//! request 7 (3 spans, 12 events)
//!   * serve.request./v1/cell              total 812.40 ms  self 0.52 ms
//!   *   harness.cell                      total 811.88 ms  self 3.10 ms
//!         runner.measure                  total  96.12 ms  self 96.12 ms
//!   *     runner.measure                  total 712.66 ms  self 712.66 ms
//! ```
//!
//! `total` is the span's own wall time; `self` subtracts the children
//! (clamped at zero -- concurrent children can legitimately overlap
//! their parent). The `*` column marks the critical path: from each
//! root, the chain of largest-total children, which is where an
//! optimizer should look first.
//!
//! Spans whose parent never appears in the trace (the parent ended
//! before tracing started, or the line was lost) attach under the
//! request root rather than vanishing, so the tree is complete even on
//! a truncated trace. Events with no request id (campaign runs, the
//! serve accept loop) group under "untraced".

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use lhr_obs::sealed::{json_str, json_u64};

/// One reconstructed span.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The process-unique span id from the trace.
    pub id: u64,
    /// The span name (`serve.request./v1/cell`, `harness.cell`, ...).
    pub name: String,
    /// Parent span id; 0 = a root of its request.
    pub parent: u64,
    /// Wall time from the matching `span_end`; 0 if the span never
    /// ended (the trace stopped first).
    pub nanos: u64,
    /// Whether a `span_end` line was seen for this id.
    pub ended: bool,
    /// Child span ids, in trace order.
    pub children: Vec<u64>,
}

impl SpanNode {
    /// The span's wall time in milliseconds.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn total_ms(&self) -> f64 {
        self.nanos as f64 / 1e6
    }
}

/// Every span of one request, plus the request's non-span event count.
#[derive(Debug, Clone, Default)]
pub struct RequestTrace {
    /// Spans by id.
    pub spans: BTreeMap<u64, SpanNode>,
    /// Root span ids (parent 0 or parent missing from the trace).
    pub roots: Vec<u64>,
    /// Non-span events (counters, gauges, histograms, marks) that
    /// carried this request id.
    pub events: usize,
    /// Leader request ids this request coalesced onto
    /// (`serve.coalesce.follows` marks).
    pub followed: Vec<u64>,
}

impl RequestTrace {
    /// Self time of `id`: total minus the children's totals, clamped at
    /// zero (children running on concurrent threads can overlap).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn self_ms(&self, id: u64) -> f64 {
        let Some(span) = self.spans.get(&id) else {
            return 0.0;
        };
        let children: u64 = span
            .children
            .iter()
            .filter_map(|c| self.spans.get(c))
            .map(|c| c.nanos)
            .sum();
        span.nanos.saturating_sub(children) as f64 / 1e6
    }

    /// The critical path from `root`: the chain of largest-total
    /// children, as span ids (root first).
    #[must_use]
    pub fn critical_path(&self, root: u64) -> Vec<u64> {
        let mut path = Vec::new();
        let mut at = root;
        while let Some(span) = self.spans.get(&at) {
            path.push(at);
            let Some(next) = span
                .children
                .iter()
                .filter_map(|c| self.spans.get(c))
                .max_by_key(|c| c.nanos)
            else {
                break;
            };
            at = next.id;
        }
        path
    }
}

/// A whole parsed trace, grouped by request id (0 = untraced).
#[derive(Debug, Clone, Default)]
pub struct TraceView {
    /// Requests in id order; key 0 holds the request-less spans.
    pub requests: BTreeMap<u64, RequestTrace>,
    /// Lines that were not recognizable events (corrupt tail, etc.).
    pub skipped_lines: usize,
}

impl TraceView {
    /// Parses a trace from its text (one JSON object per line).
    #[must_use]
    pub fn parse(text: &str) -> Self {
        let mut view = TraceView::default();
        // First pass: collect spans and events under their requests.
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Some(ev) = json_str(line, "ev") else {
                view.skipped_lines += 1;
                continue;
            };
            let req = json_u64(line, "req").unwrap_or(0);
            let request = view.requests.entry(req).or_default();
            match ev.as_str() {
                "span_start" => {
                    let (Some(id), Some(name)) =
                        (json_u64(line, "id"), json_str(line, "name"))
                    else {
                        view.skipped_lines += 1;
                        continue;
                    };
                    request.spans.insert(
                        id,
                        SpanNode {
                            id,
                            name,
                            parent: json_u64(line, "parent").unwrap_or(0),
                            nanos: 0,
                            ended: false,
                            children: Vec::new(),
                        },
                    );
                }
                "span_end" => {
                    let Some(id) = json_u64(line, "id") else {
                        view.skipped_lines += 1;
                        continue;
                    };
                    if let Some(span) = request.spans.get_mut(&id) {
                        span.nanos = json_u64(line, "ns").unwrap_or(0);
                        span.ended = true;
                    }
                }
                "counter" | "gauge" | "histogram" => request.events += 1,
                "mark" => {
                    request.events += 1;
                    if json_str(line, "name").as_deref() == Some("serve.coalesce.follows") {
                        if let Some(leader) = json_str(line, "detail")
                            .and_then(|d| d.strip_prefix("leader_request=")?.parse().ok())
                        {
                            request.followed.push(leader);
                        }
                    }
                }
                _ => view.skipped_lines += 1,
            }
        }
        // Second pass: link children and find roots. A span whose
        // parent id is absent from its request still appears -- as a
        // root -- so truncated traces stay readable.
        for request in view.requests.values_mut() {
            let ids: Vec<u64> = request.spans.keys().copied().collect();
            for id in ids {
                let parent = request.spans[&id].parent;
                if parent != 0 && request.spans.contains_key(&parent) {
                    request
                        .spans
                        .get_mut(&parent)
                        .expect("parent present")
                        .children
                        .push(id);
                } else {
                    request.roots.push(id);
                }
            }
        }
        view
    }

    /// Parses the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the [`io::Error`] if the file cannot be read.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::parse(&fs::read_to_string(path)?))
    }

    /// Total spans reconstructed across every request.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.requests.values().map(|r| r.spans.len()).sum()
    }

    /// Renders the per-request span trees with self/total time and
    /// critical-path markers (see the module docs for the shape).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (req, request) in &self.requests {
            if request.spans.is_empty() && request.events == 0 {
                continue;
            }
            if *req == 0 {
                let _ = write!(out, "untraced");
            } else {
                let _ = write!(out, "request {req}");
            }
            let _ = writeln!(
                out,
                " ({} span{}, {} event{})",
                request.spans.len(),
                if request.spans.len() == 1 { "" } else { "s" },
                request.events,
                if request.events == 1 { "" } else { "s" },
            );
            for leader in &request.followed {
                let _ = writeln!(out, "  coalesced onto request {leader}");
            }
            for &root in &request.roots {
                let critical: std::collections::BTreeSet<u64> =
                    request.critical_path(root).into_iter().collect();
                render_subtree(&mut out, request, root, 0, &critical);
            }
        }
        if self.skipped_lines > 0 {
            let _ = writeln!(out, "({} unparseable line(s) skipped)", self.skipped_lines);
        }
        out
    }
}

// ---------------------------------------------------------------------
// Distributed traces: span-store directories
// ---------------------------------------------------------------------

/// A multi-process distributed-trace view over one or more span-store
/// directories (a router's plus its backends'). Fragments recorded by
/// different processes for the same 128-bit trace id merge here, and
/// rendering stitches them with clock-skew alignment -- each remote
/// fragment is shifted into the reference process's timeline using the
/// send/recv bounds of the attempt span that parented it (see
/// `lhr_store::stitch`).
#[derive(Debug, Clone, Default)]
pub struct SpanStoreView {
    /// All persisted rows, grouped by trace id.
    pub traces: BTreeMap<u128, Vec<lhr_store::SpanRow>>,
}

impl SpanStoreView {
    /// Opens every span-store directory in `dirs` and merges their
    /// rows. Exact duplicate rows (two dirs sharing a store) collapse.
    ///
    /// # Errors
    ///
    /// Propagates the first [`io::Error`] opening a directory.
    pub fn open(dirs: &[impl AsRef<Path>]) -> io::Result<Self> {
        let mut view = Self::default();
        for dir in dirs {
            let table = lhr_store::SpanTable::open(dir.as_ref())?;
            for trace in table.trace_ids() {
                let rows = view.traces.entry(trace).or_default();
                for row in table.trace_rows(trace) {
                    let dup = rows.iter().any(|r| {
                        r.proc == row.proc && r.span == row.span && r.start_ns == row.start_ns
                    });
                    if !dup {
                        rows.push(row);
                    }
                }
            }
        }
        Ok(view)
    }

    /// Renders one trace's stitched multi-process tree; `None` if the
    /// trace id is unknown.
    #[must_use]
    pub fn render_trace(&self, trace: u128) -> Option<String> {
        let rows = self.traces.get(&trace)?;
        let roots = lhr_store::stitch(rows);
        let mut procs: Vec<&str> = rows.iter().map(|r| r.proc.as_str()).collect();
        procs.sort_unstable();
        procs.dedup();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {trace:032x} ({} span{}, {} process{})",
            rows.len(),
            if rows.len() == 1 { "" } else { "s" },
            procs.len(),
            if procs.len() == 1 { "" } else { "es" },
        );
        for root in &roots {
            render_stitched(&mut out, root, 0);
        }
        Some(out)
    }

    /// Renders every trace, largest span count first.
    #[must_use]
    pub fn render(&self) -> String {
        let mut ids: Vec<u128> = self.traces.keys().copied().collect();
        ids.sort_by_key(|id| std::cmp::Reverse(self.traces[id].len()));
        let mut out = String::new();
        for id in ids {
            if let Some(text) = self.render_trace(id) {
                out.push_str(&text);
            }
        }
        out
    }
}

#[allow(clippy::cast_precision_loss)]
fn render_stitched(out: &mut String, node: &lhr_store::SpanNode, depth: usize) {
    let indent = depth * 2;
    let name_width = 40usize.saturating_sub(indent);
    let _ = writeln!(
        out,
        "  {:indent$}{:<name_width$} [{}] total {:>10.3} ms{}",
        "",
        node.row.name,
        node.row.proc,
        node.row.dur_ns as f64 / 1e6,
        if node.row.status == "error" {
            "  ERROR"
        } else {
            ""
        },
    );
    for child in &node.children {
        render_stitched(out, child, depth + 1);
    }
}

fn render_subtree(
    out: &mut String,
    request: &RequestTrace,
    id: u64,
    depth: usize,
    critical: &std::collections::BTreeSet<u64>,
) {
    let Some(span) = request.spans.get(&id) else {
        return;
    };
    let marker = if critical.contains(&id) { '*' } else { ' ' };
    let indent = depth * 2;
    let name_width = 40usize.saturating_sub(indent);
    let _ = write!(
        out,
        "  {marker} {:indent$}{:<name_width$}",
        "", span.name,
    );
    if span.ended {
        let _ = writeln!(
            out,
            " total {:>10.3} ms  self {:>10.3} ms",
            span.total_ms(),
            request.self_ms(id)
        );
    } else {
        let _ = writeln!(out, " (never ended)");
    }
    for &child in &span.children {
        render_subtree(out, request, child, depth + 1, critical);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
{\"ev\":\"span_start\",\"name\":\"serve.request./v1/cell\",\"id\":10,\"req\":7}\n\
{\"ev\":\"span_start\",\"name\":\"harness.cell\",\"id\":11,\"parent\":10,\"req\":7}\n\
{\"ev\":\"span_start\",\"name\":\"runner.measure\",\"id\":12,\"parent\":11,\"req\":7}\n\
{\"ev\":\"span_end\",\"name\":\"runner.measure\",\"id\":12,\"ns\":600000000,\"req\":7}\n\
{\"ev\":\"counter\",\"name\":\"runner.measurements\",\"delta\":1,\"req\":7}\n\
{\"ev\":\"span_end\",\"name\":\"harness.cell\",\"id\":11,\"ns\":800000000,\"req\":7}\n\
{\"ev\":\"span_end\",\"name\":\"serve.request./v1/cell\",\"id\":10,\"ns\":900000000,\"req\":7}\n\
{\"ev\":\"span_start\",\"name\":\"serve.request./healthz\",\"id\":20,\"req\":8}\n\
{\"ev\":\"span_end\",\"name\":\"serve.request./healthz\",\"id\":20,\"ns\":50000,\"req\":8}\n\
{\"ev\":\"mark\",\"name\":\"serve.coalesce.follows\",\"detail\":\"leader_request=7\",\"req\":9}\n\
{\"ev\":\"counter\",\"name\":\"serve.accepted\",\"delta\":1}\n";

    #[test]
    fn reconstructs_trees_with_parent_links() {
        let view = TraceView::parse(SAMPLE);
        assert_eq!(view.skipped_lines, 0);
        assert_eq!(view.span_count(), 4, "3 in request 7 plus the healthz span");
        let r7 = &view.requests[&7];
        assert_eq!(r7.roots, vec![10]);
        assert_eq!(r7.spans[&10].children, vec![11]);
        assert_eq!(r7.spans[&11].children, vec![12]);
        assert_eq!(r7.events, 1);
        // Untraced events (the accept counter) group under request 0.
        assert_eq!(view.requests[&0].events, 1);
    }

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        let view = TraceView::parse(SAMPLE);
        let r7 = &view.requests[&7];
        // 900ms total, 800ms child -> 100ms self.
        assert!((r7.self_ms(10) - 100.0).abs() < 1e-9);
        // Leaf: self == total.
        assert!((r7.self_ms(12) - 600.0).abs() < 1e-9);
        // A child longer than its parent clamps to zero, never negative.
        let overlap = TraceView::parse(
            "{\"ev\":\"span_start\",\"name\":\"p\",\"id\":1,\"req\":1}\n\
             {\"ev\":\"span_start\",\"name\":\"c\",\"id\":2,\"parent\":1,\"req\":1}\n\
             {\"ev\":\"span_end\",\"name\":\"c\",\"id\":2,\"ns\":100,\"req\":1}\n\
             {\"ev\":\"span_end\",\"name\":\"p\",\"id\":1,\"ns\":50,\"req\":1}\n",
        );
        assert!(overlap.requests[&1].self_ms(1).abs() < 1e-12);
    }

    #[test]
    fn critical_path_follows_the_largest_child() {
        let view = TraceView::parse(SAMPLE);
        assert_eq!(view.requests[&7].critical_path(10), vec![10, 11, 12]);
    }

    #[test]
    fn orphaned_spans_surface_as_roots() {
        let truncated = "\
{\"ev\":\"span_start\",\"name\":\"child\",\"id\":5,\"parent\":99,\"req\":3}\n\
{\"ev\":\"span_end\",\"name\":\"child\",\"id\":5,\"ns\":1000,\"req\":3}\n";
        let view = TraceView::parse(truncated);
        let r3 = &view.requests[&3];
        assert_eq!(r3.roots, vec![5], "orphan becomes a root, not lost");
    }

    #[test]
    fn render_shows_requests_critical_path_and_linkage() {
        let view = TraceView::parse(SAMPLE);
        let text = view.render();
        assert!(text.contains("request 7 (3 spans, 1 event)"), "{text}");
        assert!(text.contains("* serve.request./v1/cell"), "{text}");
        assert!(text.contains("runner.measure"), "{text}");
        assert!(text.contains("request 9"), "{text}");
        assert!(text.contains("coalesced onto request 7"), "{text}");
        assert!(text.contains("untraced (0 spans, 1 event)"), "{text}");
    }

    #[test]
    fn unparseable_lines_are_counted_not_fatal() {
        let view = TraceView::parse("not json\n{\"ev\":\"widget\",\"name\":\"x\"}\n");
        assert_eq!(view.skipped_lines, 2);
        assert!(view.render().contains("2 unparseable line(s) skipped"));
    }
}
