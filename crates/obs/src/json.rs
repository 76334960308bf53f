//! A streaming JSON-lines recorder: one JSON object per event, written
//! to any `Write` sink (typically the file named by a binary's
//! `--trace <path>` flag).
//!
//! The encoding is hand-rolled (this crate takes no dependencies) and
//! documented in DESIGN.md's "Observability" section:
//!
//! ```json
//! {"ev":"span_start","name":"experiment.table4","id":7}
//! {"ev":"span_end","name":"experiment.table4","id":7,"ns":1532000}
//! {"ev":"counter","name":"runner.retries","delta":1}
//! {"ev":"histogram","name":"rig.sample_yield","value":0.98}
//! {"ev":"mark","name":"sweep.degraded","detail":"i7 (45) 4C2T@2.7GHz"}
//! ```
//!
//! Events carrying trace context gain optional fields: `"req":<id>` on
//! any event recorded under a request (see [`crate::context`]),
//! `"parent":<span id>` on a `span_start` whose opening span had an
//! enclosing span, `"trace":"<32 hex>"` on any event recorded under a
//! distributed trace, and `"status":"error"` on a `span_end` whose span
//! was failed. All are omitted when zero/absent, so traces from
//! un-contexted runs are byte-identical to the legacy encoding:
//!
//! ```json
//! {"ev":"span_start","name":"serve.request.query","id":9,"parent":8,"req":4}
//! {"ev":"counter","name":"runner.measurements","delta":1,"req":4}
//! ```
//!
//! Write errors are counted, not raised: the notebook must never kill
//! the experiment it is describing.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::event::{Event, EventKind};
use crate::recorder::Recorder;

/// Streaming JSON-lines [`Recorder`].
pub struct JsonLinesRecorder {
    sink: Mutex<Box<dyn Write + Send>>,
    lines: AtomicU64,
    write_errors: AtomicU64,
}

impl JsonLinesRecorder {
    /// Streams to a buffered file at `path`, truncating any existing
    /// file.
    ///
    /// # Errors
    ///
    /// Propagates the [`io::Error`] if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::to_writer(Box::new(BufWriter::new(File::create(
            path,
        )?))))
    }

    /// Streams to an arbitrary sink (tests use a `Vec<u8>` behind a
    /// wrapper).
    #[must_use]
    pub fn to_writer(sink: Box<dyn Write + Send>) -> Self {
        Self {
            sink: Mutex::new(sink),
            lines: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        }
    }

    /// Lines successfully written so far.
    #[must_use]
    pub fn lines_written(&self) -> u64 {
        self.lines.load(Ordering::Relaxed)
    }

    /// Events dropped to write errors so far.
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }
}

impl Recorder for JsonLinesRecorder {
    fn record(&self, event: &Event<'_>) {
        let mut line = String::with_capacity(96);
        line.push_str("{\"ev\":\"");
        line.push_str(event.kind.tag());
        line.push_str("\",\"name\":");
        push_json_string(&mut line, event.name);
        match event.kind {
            EventKind::SpanStart { id, parent } => {
                line.push_str(",\"id\":");
                line.push_str(&id.to_string());
                if parent != 0 {
                    line.push_str(",\"parent\":");
                    line.push_str(&parent.to_string());
                }
            }
            EventKind::SpanEnd { id, nanos, error } => {
                line.push_str(",\"id\":");
                line.push_str(&id.to_string());
                line.push_str(",\"ns\":");
                line.push_str(&nanos.to_string());
                if error {
                    line.push_str(",\"status\":\"error\"");
                }
            }
            EventKind::Counter { delta } => {
                line.push_str(",\"delta\":");
                line.push_str(&delta.to_string());
            }
            EventKind::Gauge { value } => {
                line.push_str(",\"value\":");
                push_json_number(&mut line, value);
            }
            EventKind::Histogram { value } => {
                line.push_str(",\"value\":");
                push_json_number(&mut line, value);
            }
            EventKind::Mark { detail } => {
                line.push_str(",\"detail\":");
                push_json_string(&mut line, detail);
            }
        }
        if event.request != 0 {
            line.push_str(",\"req\":");
            line.push_str(&event.request.to_string());
        }
        if event.trace != 0 {
            let _ = std::fmt::Write::write_fmt(
                &mut line,
                format_args!(",\"trace\":\"{:032x}\"", event.trace),
            );
        }
        line.push_str("}\n");
        let Ok(mut sink) = self.sink.lock() else {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        match sink.write_all(line.as_bytes()) {
            Ok(()) => {
                self.lines.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn flush(&self) {
        if let Ok(mut sink) = self.sink.lock() {
            let _ = sink.flush();
        }
    }
}

impl std::fmt::Debug for JsonLinesRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesRecorder")
            .field("lines", &self.lines_written())
            .field("write_errors", &self.write_errors())
            .finish_non_exhaustive()
    }
}

/// Appends `s` as a JSON string literal (RFC 8259 escaping).
///
/// Public so other JSON-lines writers in the workspace (the sealed-line
/// files of [`crate::sealed`]) share one escaping implementation;
/// [`crate::sealed::json_str`] is its inverse.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number; non-finite values (which JSON cannot
/// express) become `null`.
///
/// Finite values use Rust's shortest round-trippable formatting, so a
/// reader that parses the text back with [`str::parse`] recovers the
/// identical bits -- the property the campaign journal's byte-identical
/// resume relies on.
pub fn push_json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = std::fmt::Write::write_fmt(out, format_args!("{v}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A `Write` handing bytes to a shared buffer, for asserting on
    /// output.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn lines_of(buf: &SharedBuf) -> Vec<String> {
        String::from_utf8(buf.0.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn encodes_every_event_kind_as_one_line() {
        let buf = SharedBuf::default();
        let r = JsonLinesRecorder::to_writer(Box::new(buf.clone()));
        r.record(&Event {
            name: "s",
            request: 0,
            trace: 0,
            kind: EventKind::SpanStart { id: 3, parent: 0 },
        });
        r.record(&Event {
            name: "s",
            request: 0,
            trace: 0,
            kind: EventKind::SpanEnd {
                id: 3,
                nanos: 250,
                error: false,
            },
        });
        r.record(&Event {
            name: "c",
            request: 0,
            trace: 0,
            kind: EventKind::Counter { delta: 4 },
        });
        r.record(&Event {
            name: "g",
            request: 0,
            trace: 0,
            kind: EventKind::Gauge { value: 7.5 },
        });
        r.record(&Event {
            name: "h",
            request: 0,
            trace: 0,
            kind: EventKind::Histogram { value: 0.5 },
        });
        r.record(&Event {
            name: "m",
            request: 0,
            trace: 0,
            kind: EventKind::Mark { detail: "x" },
        });
        r.flush();
        let lines = lines_of(&buf);
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0], r#"{"ev":"span_start","name":"s","id":3}"#);
        assert_eq!(lines[1], r#"{"ev":"span_end","name":"s","id":3,"ns":250}"#);
        assert_eq!(lines[2], r#"{"ev":"counter","name":"c","delta":4}"#);
        assert_eq!(lines[3], r#"{"ev":"gauge","name":"g","value":7.5}"#);
        assert_eq!(lines[4], r#"{"ev":"histogram","name":"h","value":0.5}"#);
        assert_eq!(lines[5], r#"{"ev":"mark","name":"m","detail":"x"}"#);
        assert_eq!(r.lines_written(), 6);
        assert_eq!(r.write_errors(), 0);
    }

    #[test]
    fn escapes_strings_and_nulls_non_finite_values() {
        let buf = SharedBuf::default();
        let r = JsonLinesRecorder::to_writer(Box::new(buf.clone()));
        r.record(&Event {
            name: "q\"\\\n",
            request: 0,
            trace: 0,
            kind: EventKind::Mark {
                detail: "tab\there \u{1}",
            },
        });
        r.record(&Event {
            name: "h",
            request: 0,
            trace: 0,
            kind: EventKind::Histogram {
                value: f64::INFINITY,
            },
        });
        let lines = lines_of(&buf);
        assert_eq!(
            lines[0],
            r#"{"ev":"mark","name":"q\"\\\n","detail":"tab\there \u0001"}"#
        );
        assert_eq!(lines[1], r#"{"ev":"histogram","name":"h","value":null}"#);
    }

    #[test]
    fn trace_context_fields_appear_only_when_nonzero() {
        let buf = SharedBuf::default();
        let r = JsonLinesRecorder::to_writer(Box::new(buf.clone()));
        r.record(&Event {
            name: "s",
            request: 4,
            trace: 0,
            kind: EventKind::SpanStart { id: 9, parent: 8 },
        });
        r.record(&Event {
            name: "c",
            request: 4,
            trace: 0,
            kind: EventKind::Counter { delta: 1 },
        });
        let lines = lines_of(&buf);
        assert_eq!(
            lines[0],
            r#"{"ev":"span_start","name":"s","id":9,"parent":8,"req":4}"#
        );
        assert_eq!(lines[1], r#"{"ev":"counter","name":"c","delta":1,"req":4}"#);
    }

    #[test]
    fn distributed_trace_fields_encode_as_hex_and_status() {
        let buf = SharedBuf::default();
        let r = JsonLinesRecorder::to_writer(Box::new(buf.clone()));
        r.record(&Event {
            name: "router.attempt",
            request: 4,
            trace: 0xAB,
            kind: EventKind::SpanEnd {
                id: 9,
                nanos: 50,
                error: true,
            },
        });
        let lines = lines_of(&buf);
        assert_eq!(
            lines[0],
            concat!(
                r#"{"ev":"span_end","name":"router.attempt","id":9,"ns":50,"#,
                r#""status":"error","req":4,"#,
                r#""trace":"000000000000000000000000000000ab"}"#
            )
        );
    }

    #[test]
    fn write_errors_are_counted_not_raised() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let r = JsonLinesRecorder::to_writer(Box::new(Broken));
        r.record(&Event {
            name: "c",
            request: 0,
            trace: 0,
            kind: EventKind::Counter { delta: 1 },
        });
        assert_eq!(r.lines_written(), 0);
        assert_eq!(r.write_errors(), 1);
    }
}
