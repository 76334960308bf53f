//! Figure 6: CMP impact for *single-threaded* Java -- 2C1T / 1C1T on the
//! i7 (45).
//!
//! Workload Finding 1: the JVM's concurrent services (GC, JIT) inject
//! parallelism into ostensibly sequential benchmarks, so most speed up
//! measurably on a second core -- `db` by ~30%, driven by a 2.5x drop in
//! DTLB misses when the collector stops displacing application state.

use lhr_uarch::{ChipConfig, ProcessorId};
use lhr_workloads::{by_name, Workload};

use crate::harness::Harness;
use crate::report::Table;

/// The single-threaded Java benchmarks of Figure 6, with the paper's
/// approximate speedups.
pub const PAPER_SPEEDUPS: [(&str, f64); 10] = [
    ("antlr", 1.52),
    ("luindex", 1.26),
    ("fop", 1.22),
    ("jack", 1.15),
    ("db", 1.30),
    ("bloat", 1.12),
    ("jess", 1.10),
    ("compress", 1.05),
    ("mpegaudio", 1.03),
    ("javac", 1.14),
];

/// One benchmark's single-threaded CMP gain.
#[derive(Debug, Clone, PartialEq)]
pub struct JvmCmpGain {
    /// Benchmark name.
    pub name: &'static str,
    /// `time(1C1T) / time(2C1T)`.
    pub speedup: f64,
    /// The paper's approximate value.
    pub paper: f64,
}

/// Runs the Figure 6 experiment.
#[must_use]
pub fn run(harness: &Harness) -> Vec<JvmCmpGain> {
    let spec = ProcessorId::CoreI7_920.spec();
    let base = ChipConfig::stock(spec)
        .with_smt(false)
        .expect("smt off")
        .with_turbo(false)
        .expect("turbo off");
    let one = base.clone().with_cores(1).expect("1 core");
    let two = base.with_cores(2).expect("2 cores");
    let cells: Vec<(&ChipConfig, &Workload)> = PAPER_SPEEDUPS
        .iter()
        .flat_map(|&(name, _)| {
            let w = by_name(name).expect("Figure 6 benchmarks exist");
            [(&one, w), (&two, w)]
        })
        .collect();
    let measured = harness.measure_all(&cells);
    PAPER_SPEEDUPS
        .iter()
        .zip(measured.chunks(2))
        .map(|(&(name, paper), pair)| JvmCmpGain {
            name,
            speedup: pair[0].seconds().value() / pair[1].seconds().value(),
            paper,
        })
        .collect()
}

/// Renders the series.
#[must_use]
pub fn render(results: &[JvmCmpGain]) -> String {
    let mut t = Table::new(["Benchmark", "2C1T/1C1T (ours)", "paper"]);
    for r in results {
        t.row([
            r.name.to_owned(),
            format!("{:.2}", r.speedup),
            format!("{:.2}", r.paper),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;
    use lhr_workloads::catalog;

    #[test]
    fn single_threaded_java_speeds_up_on_two_cores() {
        let ws = ["antlr", "db", "mpegaudio"]
            .iter()
            .map(|n| by_name(n).unwrap())
            .collect();
        let harness = Harness::new(Runner::fast()).with_workloads(ws);
        let all = run(&harness);
        let get = |n: &str| all.iter().find(|r| r.name == n).unwrap().speedup;
        // antlr (JVM-heavy) gains the most; db gains from displacement
        // relief; mpegaudio (tiny services, compute-bound) gains least.
        let antlr = get("antlr");
        let db = get("db");
        let mpeg = get("mpegaudio");
        assert!(antlr > 1.2, "antlr speedup {antlr}");
        assert!(db > 1.1, "db speedup {db}");
        assert!(mpeg > 0.98 && mpeg < 1.2, "mpegaudio speedup {mpeg}");
        assert!(antlr > mpeg && db > mpeg);
        assert!(render(&all).contains("antlr"));
        // All of the Figure 6 benchmarks are indeed single-threaded Java.
        for (name, _) in PAPER_SPEEDUPS {
            let w = catalog().iter().find(|w| w.name() == name).unwrap();
            assert!(
                matches!(w.thread_model(), lhr_workloads::ThreadModel::Single),
                "{name} must be single-threaded"
            );
        }
    }
}
