//! Figure 1: scalability of the multithreaded Java benchmarks on the
//! i7 (45) -- 4C2T versus 1C1T speedup, which defined the Java
//! Scalable/Non-scalable split.

use lhr_uarch::{ChipConfig, ProcessorId};
use lhr_workloads::{by_name, Workload};

use crate::harness::Harness;
use crate::report::Table;

/// The multithreaded Java benchmarks of Figure 1, paper order (most
/// scalable first), with the paper's approximate measured speedups.
pub const PAPER_SPEEDUPS: [(&str, f64); 13] = [
    ("sunflow", 4.5),
    ("xalan", 4.3),
    ("tomcat", 4.0),
    ("lusearch", 3.3),
    ("eclipse", 2.4),
    ("pjbb2005", 2.4),
    ("mtrt", 2.0),
    ("tradebeans", 1.8),
    ("jython", 1.3),
    ("avrora", 1.25),
    ("batik", 1.1),
    ("pmd", 1.05),
    ("h2", 0.95),
];

/// One benchmark's measured scalability.
#[derive(Debug, Clone, PartialEq)]
pub struct Scalability {
    /// Benchmark name.
    pub name: &'static str,
    /// `time(1C1T) / time(4C2T)`.
    pub speedup: f64,
    /// The paper's approximate value, for comparison.
    pub paper: f64,
}

/// Runs the Figure 1 experiment.
#[must_use]
pub fn run(harness: &Harness) -> Vec<Scalability> {
    let spec = ProcessorId::CoreI7_920.spec();
    let full = ChipConfig::stock(spec).with_turbo(false).expect("i7 has turbo");
    let single = ChipConfig::stock(spec)
        .with_cores(1)
        .expect("1 core is valid")
        .with_smt(false)
        .expect("smt off is valid")
        .with_turbo(false)
        .expect("i7 has turbo");
    let cells: Vec<(&ChipConfig, &Workload)> = PAPER_SPEEDUPS
        .iter()
        .flat_map(|&(name, _)| {
            let w: &Workload = by_name(name).expect("Figure 1 benchmarks exist");
            [(&single, w), (&full, w)]
        })
        .collect();
    let measured = harness.measure_all(&cells);
    PAPER_SPEEDUPS
        .iter()
        .zip(measured.chunks(2))
        .map(|(&(name, paper), pair)| Scalability {
            name,
            speedup: pair[0].seconds().value() / pair[1].seconds().value(),
            paper,
        })
        .collect()
}

/// Renders the measured-vs-paper series.
#[must_use]
pub fn render(results: &[Scalability]) -> String {
    let mut t = Table::new(["Benchmark", "4C2T/1C1T (ours)", "paper"]);
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

    #[test]
    fn java_scalables_outscale_non_scalables() {
        // Subset for speed: one scalable, one middling, one flat.
        let subset = ["sunflow", "jython", "h2"];
        let ws = subset.iter().map(|n| by_name(n).unwrap()).collect();
        let harness = Harness::new(Runner::fast()).with_workloads(ws);
        let all = run(&harness);
        let get = |n: &str| all.iter().find(|r| r.name == n).unwrap().speedup;
        let sunflow = get("sunflow");
        let jython = get("jython");
        let h2 = get("h2");
        assert!(sunflow > 3.0, "sunflow scales strongly, got {sunflow}");
        assert!(jython > 1.0 && jython < 2.2, "jython is middling, got {jython}");
        assert!(h2 < 1.4, "h2 barely scales, got {h2}");
        assert!(sunflow > jython && jython > h2);
        let s = render(&all);
        assert!(s.contains("sunflow"));
    }
}
