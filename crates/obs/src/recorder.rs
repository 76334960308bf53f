//! The [`Recorder`] trait, the cheap [`Obs`] handle the pipeline carries,
//! RAII [`Span`] timing, and the [`Tee`] combinator.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::context;
use crate::event::{Event, EventKind};

/// Issues process-unique span ids so a stream's `span_start`/`span_end`
/// pairs can be matched even when spans of the same name nest or overlap
/// across threads.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// A sink for pipeline events.
///
/// Implementations must be cheap and non-blocking in spirit: they run on
/// the measurement hot path (albeit only when armed), so they should do
/// bounded work per event and must never panic. The crate ships three:
/// [`crate::MemoryRecorder`] (aggregation for tests and end-of-run
/// profiles), [`crate::JsonLinesRecorder`] (streaming trace files), and
/// [`Tee`] (fan-out to several recorders).
pub trait Recorder: Send + Sync {
    /// Consumes one event. Borrowed payloads die with the call; copy
    /// what must outlive it.
    fn record(&self, event: &Event<'_>);

    /// Flushes any buffered output. The default does nothing.
    fn flush(&self) {}
}

/// The handle instrumentation sites call into: either nothing (the
/// default, compiling down to a branch on `None`) or a shared
/// [`Recorder`].
///
/// `Obs` is deliberately transparent to the types that carry it: cloning
/// is an `Arc` bump, and *all* handles compare equal, so embedding one
/// in a `PartialEq` type (e.g. a measurement rig) cannot change that
/// type's equality semantics.
#[derive(Clone, Default)]
pub struct Obs(Option<Arc<dyn Recorder>>);

impl Obs {
    /// The silent handle: every call is a no-op.
    #[must_use]
    pub fn none() -> Self {
        Self(None)
    }

    /// A handle that forwards every event to `recorder`.
    #[must_use]
    pub fn recording(recorder: Arc<dyn Recorder>) -> Self {
        Self(Some(recorder))
    }

    /// A handle fanning out to several recorders (sugar over [`Tee`]).
    #[must_use]
    pub fn fanout(recorders: Vec<Arc<dyn Recorder>>) -> Self {
        Self::recording(Arc::new(Tee::new(recorders)))
    }

    /// Whether a recorder is armed. Instrumentation sites that must
    /// build a payload (e.g. format a label) should guard on this.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Advances the counter `name` by `delta`.
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(r) = &self.0 {
            r.record(&Event {
                name,
                request: context::current_request(),
                trace: context::current_trace(),
                kind: EventKind::Counter { delta },
            });
        }
    }

    /// Sets the gauge `name` to `value` (the latest level replaces any
    /// previous one -- use for progress, queue depth, an ETA).
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(r) = &self.0 {
            r.record(&Event {
                name,
                request: context::current_request(),
                trace: context::current_trace(),
                kind: EventKind::Gauge { value },
            });
        }
    }

    /// Records one sample of the distribution `name`.
    pub fn histogram(&self, name: &str, value: f64) {
        if let Some(r) = &self.0 {
            r.record(&Event {
                name,
                request: context::current_request(),
                trace: context::current_trace(),
                kind: EventKind::Histogram { value },
            });
        }
    }

    /// Emits a free-form annotation.
    pub fn mark(&self, name: &str, detail: &str) {
        if let Some(r) = &self.0 {
            r.record(&Event {
                name,
                request: context::current_request(),
                trace: context::current_trace(),
                kind: EventKind::Mark { detail },
            });
        }
    }

    /// Opens a timed span that closes (emitting its duration) when the
    /// returned guard drops. Disabled handles return an inert guard and
    /// never read the clock, the trace context, or the allocator.
    ///
    /// Armed spans record the innermost span already open on this thread
    /// (or installed via [`context::with_ctx`]) as their parent, and the
    /// thread's current request id, so a trace reader can rebuild
    /// per-request span trees. The guard must drop on the thread that
    /// created it (see [`context`]).
    pub fn span(&self, name: &str) -> Span {
        match &self.0 {
            None => Span(None),
            Some(r) => {
                let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
                let parent = context::current_parent();
                r.record(&Event {
                    name,
                    request: context::current_request(),
                    trace: context::current_trace(),
                    kind: EventKind::SpanStart { id, parent },
                });
                context::push_span(id);
                Span(Some(SpanInner {
                    recorder: Arc::clone(r),
                    name: name.to_owned(),
                    id,
                    start: Instant::now(),
                    error: false,
                }))
            }
        }
    }

    /// Flushes the armed recorder, if any.
    pub fn flush(&self) {
        if let Some(r) = &self.0 {
            r.flush();
        }
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.enabled() {
            "Obs(recording)"
        } else {
            "Obs(none)"
        })
    }
}

/// Observers are transparent: two values differing only in their `Obs`
/// are the same value. See the type-level docs.
impl PartialEq for Obs {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Obs {}

/// RAII guard for a timed region; see [`Obs::span`].
#[must_use = "a span measures the region it is alive for; bind it to a variable"]
pub struct Span(Option<SpanInner>);

struct SpanInner {
    recorder: Arc<dyn Recorder>,
    name: String,
    id: u64,
    start: Instant,
    error: bool,
}

impl Span {
    /// Closes the span now instead of at end of scope.
    pub fn end(mut self) {
        self.finish();
    }

    /// The span's process-unique id (0 for an inert span from a disabled
    /// handle). The router sends this as the parent-span field of the
    /// `x-lhr-trace` header so a backend's root span links under the
    /// forwarding attempt.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |inner| inner.id)
    }

    /// Marks the region as failed: its `span_end` event carries an error
    /// status, which flags the attempt in trace trees and forces
    /// tail-based sampling to keep the trace. No-op on an inert span.
    pub fn fail(&mut self) {
        if let Some(inner) = &mut self.0 {
            inner.error = true;
        }
    }

    fn finish(&mut self) {
        if let Some(inner) = self.0.take() {
            let nanos = u64::try_from(inner.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            context::pop_span(inner.id);
            inner.recorder.record(&Event {
                name: &inner.name,
                request: context::current_request(),
                trace: context::current_trace(),
                kind: EventKind::SpanEnd {
                    id: inner.id,
                    nanos,
                    error: inner.error,
                },
            });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(inner) => write!(f, "Span({:?}, id {})", inner.name, inner.id),
            None => f.write_str("Span(inert)"),
        }
    }
}

/// Fans every event out to several recorders, in order.
pub struct Tee(Vec<Arc<dyn Recorder>>);

impl Tee {
    /// A tee over `recorders`.
    #[must_use]
    pub fn new(recorders: Vec<Arc<dyn Recorder>>) -> Self {
        Self(recorders)
    }
}

impl Recorder for Tee {
    fn record(&self, event: &Event<'_>) {
        for r in &self.0 {
            r.record(event);
        }
    }

    fn flush(&self) {
        for r in &self.0 {
            r.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryRecorder;
    use crate::testing::{Collecting, OwnedEventKind};

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::none();
        assert!(!obs.enabled());
        obs.counter("a", 1);
        obs.histogram("b", 1.0);
        obs.mark("c", "detail");
        let span = obs.span("d");
        assert_eq!(format!("{span:?}"), "Span(inert)");
        drop(span);
        obs.flush();
    }

    #[test]
    fn span_guard_times_its_region() {
        let memory = Arc::new(MemoryRecorder::default());
        let obs = Obs::recording(memory.clone());
        {
            let _outer = obs.span("outer");
            let inner = obs.span("inner");
            inner.end();
        }
        let snap = memory.snapshot();
        assert_eq!(snap.spans["outer"].count, 1);
        assert_eq!(snap.spans["inner"].count, 1);
        // Four raw events: two starts, two ends.
        assert_eq!(snap.events_recorded, 4);
    }

    #[test]
    fn span_ids_are_unique_and_paired() {
        let memory = Arc::new(Collecting::default());
        let obs = Obs::recording(memory.clone());
        drop(obs.span("a"));
        drop(obs.span("a"));
        let events = memory.events();
        let starts: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                OwnedEventKind::SpanStart { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        let ends: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                OwnedEventKind::SpanEnd { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(starts.len(), 2);
        assert_ne!(starts[0], starts[1]);
        assert_eq!(starts, ends);
    }

    #[test]
    fn spans_record_their_parent_and_request_context() {
        let memory = Arc::new(Collecting::default());
        let obs = Obs::recording(memory.clone());
        let (req, ()) = crate::context::with_new_request(|| {
            let outer = obs.span("outer");
            let inner = obs.span("inner");
            obs.counter("work", 1);
            inner.end();
            outer.end();
        });
        let events = memory.events();
        let mut outer_id = 0;
        for e in &events {
            assert_eq!(e.request, req, "{e:?} must carry the request id");
            if let OwnedEventKind::SpanStart { id, parent } = e.kind {
                if e.name == "outer" {
                    assert_eq!(parent, 0, "outer is a root span");
                    outer_id = id;
                } else {
                    assert_eq!(parent, outer_id, "inner nests under outer");
                }
            }
        }
        assert_ne!(outer_id, 0);
        // Outside the request scope, events carry no request id and the
        // span stack is clean again.
        obs.counter("later", 1);
        assert_eq!(memory.events().last().unwrap().request, 0);
        assert_eq!(crate::context::current_parent(), 0);
    }

    #[test]
    fn spans_stamp_the_thread_trace_and_failure() {
        let memory = Arc::new(Collecting::default());
        let obs = Obs::recording(memory.clone());
        crate::context::with_ctx(
            crate::context::Ctx {
                request: 5,
                parent: 0,
                trace: 0xFEED,
            },
            || {
                let mut span = obs.span("attempt");
                assert_ne!(span.id(), 0);
                span.fail();
                obs.histogram("latency", 0.5);
            },
        );
        let events = memory.events();
        assert!(events.iter().all(|e| e.trace == 0xFEED), "{events:?}");
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, OwnedEventKind::SpanEnd { error: true, .. })));
        // Inert spans expose id 0 and ignore fail().
        let mut inert = Obs::none().span("x");
        assert_eq!(inert.id(), 0);
        inert.fail();
    }

    #[test]
    fn fanout_reaches_every_recorder() {
        let a = Arc::new(MemoryRecorder::default());
        let b = Arc::new(MemoryRecorder::default());
        let obs = Obs::fanout(vec![a.clone(), b.clone()]);
        obs.counter("x", 2);
        obs.flush();
        assert_eq!(a.snapshot().counter("x"), 2);
        assert_eq!(b.snapshot().counter("x"), 2);
    }

    #[test]
    fn observers_are_transparent_to_equality() {
        let recording = Obs::recording(Arc::new(MemoryRecorder::default()));
        assert_eq!(Obs::none(), recording);
        assert_eq!(format!("{recording:?}"), "Obs(recording)");
        assert_eq!(format!("{:?}", Obs::none()), "Obs(none)");
    }
}
