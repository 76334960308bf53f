//! The metric catalog and the result record of one workload run.
//!
//! A run prints a human-readable table (every metric with its unit and
//! sample count) and, as its last line, the contract record:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! `--out` appends the fuller record (workload, seed, sample counts) as
//! one JSON line, which `--compare` reads back.

use lhr_obs::{push_json_number, push_json_string};

use crate::json::{self, Value};

/// End-to-end metrics, reported by every workload with tracing off.
/// Each names what a user of that workload waits for; see README.md.
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics that do not depend on the experiment list.
const LAYERS: [(&str, &str); 33] = [
    // Replayed through each layer on a sample of the workload's own
    // cells, at the workload's fidelity (see layers.rs).
    ("core.cell_us_p50", "us"),
    ("uarch.sim_run_us_p50", "us"),
    ("workloads.software_threads_us_p50", "us"),
    ("sensors.rig_measure_us_p50", "us"),
    ("sensors.rig_ns_per_sim_s", "ns/s"),
    ("sensors.rig_calibrate_us", "us"),
    ("sensors.rig_share", "frac"),
    ("uarch.sim_share", "frac"),
    ("core.runner_residual_frac", "frac"),
    ("core.replay_mismatches", "count"),
    ("uarch.memo_warm_speedup", "x"),
    ("store.upsert_ms_p50", "ms"),
    ("store.query_ms_p50", "ms"),
    // Counted in the timed phase.
    ("core.cells_measured_per_op", "count"),
    ("core.cache_lookups_per_op", "count"),
    ("core.cache_hit_ratio", "frac"),
    // repro_quick.
    ("campaign.prepare_share", "frac"),
    ("bench.artifact_write_share", "frac"),
    ("bench.child_overhead_share", "frac"),
    ("bench.journal_lines", "count"),
    // serve_hot and routed_cold.
    ("serve.server_share", "frac"),
    ("serve.coalesce_hits", "count"),
    ("serve.shed_503", "count"),
    ("router.hop_share", "frac"),
    ("router.requests", "count"),
    ("router.cache_hits", "count"),
    ("router.hedges", "count"),
    ("router.local_fallbacks", "count"),
    ("router.backend_io_errors", "count"),
    ("bench.late_frac", "frac"),
    // The benchmark's own span recording.
    ("obs.trace_overhead_frac", "frac"),
    ("obs.spans_per_op", "count"),
    ("obs.spans", "count"),
];

/// Every per-layer metric, reported by every workload with tracing on:
/// [`LAYERS`] plus `experiments.<name>_share` for each experiment.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    let at = out
        .iter()
        .position(|(n, _)| n == "bench.artifact_write_share")
        .expect("listed above");
    for (i, name) in lhr_bench::EXPERIMENTS.iter().enumerate() {
        out.insert(at + i, (format!("experiments.{name}_share"), "frac"));
    }
    out
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// How many measurements the value summarizes.
    pub samples: u64,
}

/// The result of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// No operation failed and every checked output matched its oracle.
    pub correct: bool,
    pub attempted: u64,
    /// Failed, refused or incorrect operations.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The contract record: the benchmark's last line of output.
    pub fn contract_line(&self) -> String {
        let mut s = String::from("{\"correct\":");
        s.push_str(if self.correct { "true" } else { "false" });
        s.push_str(&format!(
            ",\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted, self.failed
        ));
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_string(&mut s, &m.name);
            s.push_str(":{\"value\":");
            push_json_number(&mut s, m.value);
            s.push_str(",\"unit\":");
            push_json_string(&mut s, &m.unit);
            s.push('}');
        }
        s.push_str("}}");
        s
    }

    /// The full record `--out` appends and `--compare` reads.
    pub fn to_record(&self) -> String {
        let mut s = String::from("{\"workload\":");
        push_json_string(&mut s, &self.workload);
        s.push_str(&format!(
            ",\"seed\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":[",
            self.seed, self.trace, self.correct, self.attempted, self.failed
        ));
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            push_json_string(&mut s, &m.name);
            s.push_str(",\"unit\":");
            push_json_string(&mut s, &m.unit);
            s.push_str(",\"value\":");
            push_json_number(&mut s, m.value);
            s.push_str(&format!(",\"samples\":{}}}", m.samples));
        }
        s.push_str("]}");
        s
    }

    /// Parses a line written by [`Outcome::to_record`].
    pub fn from_record(line: &str) -> Result<Self, String> {
        let v = json::parse(line)?;
        let flag = |key: &str| {
            v.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| format!("missing flag {key:?}"))
        };
        let count = |key: &str| v.num(key).map(|n| n as u64);
        let metrics = v
            .get("metrics")
            .and_then(Value::as_array)
            .ok_or("missing metrics")?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: m.text("name")?.to_owned(),
                    unit: m.text("unit")?.to_owned(),
                    value: m.num("value")?,
                    samples: m.num("samples")? as u64,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            workload: v.text("workload")?.to_owned(),
            seed: count("seed")?,
            trace: flag("trace")?,
            correct: flag("correct")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    /// The human-readable table printed before the contract line.
    pub fn render(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut s = format!(
            "{} (seed {}, {}): correct={} attempted={} failed={} failed_frac={}\n",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            self.correct,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        for m in &self.metrics {
            let value = if m.value != 0.0 && m.value.abs() < 1e-3 {
                format!("{:.6e}", m.value)
            } else {
                format!("{:.6}", m.value)
            };
            s.push_str(&format!(
                "  {:<width$}  {value:>16} {:<6} n={}\n",
                m.name, m.unit, m.samples
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        Outcome {
            workload: "serve_hot".to_owned(),
            seed: 7,
            trace: false,
            correct: true,
            attempted: 12_345,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "latency_ms_p50".to_owned(),
                    unit: "ms".to_owned(),
                    value: 0.1 + 0.2,
                    samples: 12_345,
                },
                Metric {
                    name: "setup_s".to_owned(),
                    unit: "s".to_owned(),
                    value: 1.234_567_890_123,
                    samples: 3,
                },
            ],
        }
    }

    #[test]
    fn results_round_trip_bit_exactly() {
        let o = sample();
        let back = Outcome::from_record(&o.to_record()).unwrap();
        assert_eq!(back, o);
        assert_eq!(back.metrics[0].value.to_bits(), (0.1f64 + 0.2).to_bits());
    }

    fn keys(v: &Value) -> Vec<&str> {
        match v {
            Value::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let v = json::parse(&sample().contract_line()).unwrap();
        assert_eq!(keys(&v), ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(keys(m), ["value", "unit"]);
        assert_eq!(m.num("value").unwrap(), 1.234_567_890_123);
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.text("name").unwrap().to_owned(),
                        m.text("unit").unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = E2E
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.text("name").unwrap().to_owned())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
