//! An in-memory recorder: aggregates counters, histograms, and span
//! timings for tests and end-of-run profile summaries.

use std::sync::Mutex;

use crate::event::{Event, EventKind};
use crate::recorder::Recorder;
use crate::snapshot::{HistogramSummary, MetricsSnapshot, SpanStats};

/// Aggregating in-memory [`Recorder`].
///
/// Keeps running aggregates only, never the raw events, so a long-lived
/// process (a server) holds memory in proportion to the metric names it
/// uses rather than the events it has seen; a
/// [`MemoryRecorder::snapshot`] is cheap and can be taken mid-run.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    snapshot: Mutex<MetricsSnapshot>,
}

impl MemoryRecorder {
    /// A copy of the aggregates so far.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the internal
    /// lock (recorders never panic in normal operation).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot.lock().expect("recorder lock poisoned").clone()
    }
}

impl Recorder for MemoryRecorder {
    fn record(&self, event: &Event<'_>) {
        let Ok(mut snap) = self.snapshot.lock() else {
            return; // a poisoned notebook must not kill the measurement
        };
        snap.events_recorded += 1;
        match event.kind {
            EventKind::SpanStart { .. } => {}
            EventKind::SpanEnd { nanos, .. } => {
                let stats = snap
                    .spans
                    .entry(event.name.to_owned())
                    .or_insert_with(SpanStats::empty);
                stats.observe(nanos);
            }
            EventKind::Counter { delta } => {
                *snap.counters.entry(event.name.to_owned()).or_insert(0) += delta;
            }
            EventKind::Gauge { value } => {
                snap.gauges.insert(event.name.to_owned(), value);
            }
            EventKind::Histogram { value } => {
                let h = snap
                    .histograms
                    .entry(event.name.to_owned())
                    .or_insert_with(HistogramSummary::empty);
                h.observe(value);
                // Exemplar: remember the slowest/largest sample that
                // carried a distributed trace, so a scrape can link the
                // metric to one offending trace.
                if event.trace != 0 {
                    let ex = snap.exemplars.entry(event.name.to_owned()).or_default();
                    if value >= ex.value || ex.trace == 0 {
                        ex.value = value;
                        ex.trace = event.trace;
                    }
                }
            }
            EventKind::Mark { detail } => {
                snap.marks.push((event.name.to_owned(), detail.to_owned()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Tee;
    use crate::testing::Collecting;
    use std::sync::Arc;

    #[test]
    fn aggregates_counters_histograms_and_marks() {
        let memory = Arc::new(MemoryRecorder::default());
        let log = Arc::new(Collecting::default());
        let r = Tee::new(vec![memory.clone(), log.clone()]);
        r.record(&Event {
            name: "c",
            request: 0,
            trace: 0,
            kind: EventKind::Counter { delta: 2 },
        });
        r.record(&Event {
            name: "c",
            request: 0,
            trace: 0,
            kind: EventKind::Counter { delta: 3 },
        });
        r.record(&Event {
            name: "h",
            request: 0,
            trace: 0,
            kind: EventKind::Histogram { value: 1.0 },
        });
        r.record(&Event {
            name: "h",
            request: 0,
            trace: 0,
            kind: EventKind::Histogram { value: 3.0 },
        });
        r.record(&Event {
            name: "m",
            request: 0,
            trace: 0,
            kind: EventKind::Mark { detail: "cell X" },
        });
        r.record(&Event {
            name: "g",
            request: 0,
            trace: 0,
            kind: EventKind::Gauge { value: 10.0 },
        });
        r.record(&Event {
            name: "g",
            request: 0,
            trace: 0,
            kind: EventKind::Gauge { value: 4.0 },
        });
        let snap = memory.snapshot();
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(snap.gauge("g"), Some(4.0), "latest gauge level wins");
        assert_eq!(snap.gauge("absent"), None);
        let h = &snap.histograms["h"];
        assert_eq!(h.count, 2);
        assert!((h.mean() - 2.0).abs() < 1e-12);
        assert!((h.min - 1.0).abs() < 1e-12 && (h.max - 3.0).abs() < 1e-12);
        assert_eq!(snap.marks, vec![("m".to_owned(), "cell X".to_owned())]);
        assert_eq!(snap.events_recorded, 7);
        assert_eq!(log.events().len(), 7);
    }

    #[test]
    fn exemplars_keep_the_slowest_traced_sample() {
        let r = MemoryRecorder::default();
        let sample = |value: f64, trace: u128| Event {
            name: "serve.latency.cell",
            request: 0,
            trace,
            kind: EventKind::Histogram { value },
        };
        r.record(&sample(0.5, 0)); // untraced: aggregated, no exemplar
        assert!(r.snapshot().exemplars.is_empty());
        r.record(&sample(0.2, 0xA));
        r.record(&sample(0.9, 0xB));
        r.record(&sample(0.3, 0xC)); // faster than the champion: ignored
        let snap = r.snapshot();
        let ex = &snap.exemplars["serve.latency.cell"];
        assert_eq!(ex.trace, 0xB);
        assert!((ex.value - 0.9).abs() < 1e-12);
        assert_eq!(snap.histograms["serve.latency.cell"].count, 4);
    }

    #[test]
    fn span_stats_accumulate_durations() {
        let r = MemoryRecorder::default();
        for (id, nanos) in [(1, 100), (2, 300)] {
            r.record(&Event {
                name: "s",
                request: 0,
                trace: 0,
                kind: EventKind::SpanStart { id, parent: 0 },
            });
            r.record(&Event {
                name: "s",
                request: 0,
                trace: 0,
                kind: EventKind::SpanEnd {
                    id,
                    nanos,
                    error: false,
                },
            });
        }
        let stats = &r.snapshot().spans["s"];
        assert_eq!(stats.count, 2);
        assert_eq!(stats.total_nanos, 400);
        assert_eq!(stats.min_nanos, 100);
        assert_eq!(stats.max_nanos, 300);
        assert!((stats.mean_nanos() - 200.0).abs() < 1e-12);
    }
}
