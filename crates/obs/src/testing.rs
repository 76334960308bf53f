//! A collecting [`Recorder`] for this crate's tests: keeps an owned copy
//! of every event, in arrival order, so a test can inspect the raw
//! stream that [`crate::MemoryRecorder`] only aggregates.

use std::sync::Mutex;

use crate::event::{Event, EventKind};
use crate::recorder::Recorder;

/// An owned copy of one recorded event.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OwnedEvent {
    pub name: String,
    pub request: u64,
    pub trace: u128,
    pub kind: OwnedEventKind,
}

/// Owned counterpart of [`EventKind`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum OwnedEventKind {
    SpanStart { id: u64, parent: u64 },
    SpanEnd { id: u64, nanos: u64, error: bool },
    Counter { delta: u64 },
    Gauge { value: f64 },
    Histogram { value: f64 },
    Mark { detail: String },
}

/// Records every event it is given.
#[derive(Debug, Default)]
pub(crate) struct Collecting(Mutex<Vec<OwnedEvent>>);

impl Collecting {
    /// The events so far, in arrival order.
    pub(crate) fn events(&self) -> Vec<OwnedEvent> {
        self.0.lock().expect("collector lock poisoned").clone()
    }
}

impl Recorder for Collecting {
    fn record(&self, event: &Event<'_>) {
        let kind = match event.kind {
            EventKind::SpanStart { id, parent } => OwnedEventKind::SpanStart { id, parent },
            EventKind::SpanEnd { id, nanos, error } => OwnedEventKind::SpanEnd { id, nanos, error },
            EventKind::Counter { delta } => OwnedEventKind::Counter { delta },
            EventKind::Gauge { value } => OwnedEventKind::Gauge { value },
            EventKind::Histogram { value } => OwnedEventKind::Histogram { value },
            EventKind::Mark { detail } => OwnedEventKind::Mark {
                detail: detail.to_owned(),
            },
        };
        self.0
            .lock()
            .expect("collector lock poisoned")
            .push(OwnedEvent {
                name: event.name.to_owned(),
                request: event.request,
                trace: event.trace,
                kind,
            });
    }
}
