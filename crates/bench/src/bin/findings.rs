//! Audits the paper's thirteen findings against the reproduction, printing
//! PASS/FAIL per finding with the numbers behind each verdict.
//!
//! The audit is resilient: each experiment runs behind a panic guard, so a
//! degraded rig or a dead cell downgrades the findings that needed it to
//! SKIP instead of aborting the audit, and the runner's health ledger is
//! printed at the end.
//!
//! Usage: `cargo run --release -p lhr-bench --bin findings
//! [--quick|--paper] [--trace <path>]`

use std::panic::{catch_unwind, AssertUnwindSafe};

use lhr_bench::{Fidelity, Observability};
use lhr_core::experiments::{
    figure10_turbo, figure4_cmp, figure5_smt, figure6_jvm, figure7_clock, figure8_dieshrink,
    figure9_uarch, figure11_history, pareto, table4,
};
use lhr_core::Harness;
use lhr_uarch::ProcessorId;
use lhr_workloads::Group;

struct Audit {
    passed: usize,
    failed: usize,
    skipped: usize,
}

impl Audit {
    fn check(&mut self, name: &str, detail: String, ok: bool) {
        if ok {
            self.passed += 1;
            println!("PASS  {name}\n      {detail}");
        } else {
            self.failed += 1;
            println!("FAIL  {name}\n      {detail}");
        }
    }

    /// A finding whose experiment could not produce numbers at all.
    fn skip(&mut self, name: &str, why: &str) {
        self.skipped += 1;
        println!("SKIP  {name}\n      {why}");
    }
}

/// Runs one experiment behind a panic guard and an `experiment.<name>`
/// span: a failure yields `None` (plus a diagnostic) instead of killing
/// the audit.
fn guarded<T>(obs: &Observability, name: &str, f: impl FnOnce() -> T) -> Option<T> {
    let span = obs.experiment_span(name);
    let outcome = catch_unwind(AssertUnwindSafe(f));
    span.end();
    match outcome {
        Ok(v) => Some(v),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "opaque panic".to_owned());
            println!("WARN  experiment {name} failed: {msg}");
            None
        }
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    lhr_bench::check_args(
        "findings",
        &[lhr_bench::FIDELITY_FLAGS, lhr_bench::TRACE_FLAGS],
    );
    let observability = Observability::from_args();
    let harness: Harness = observability.arm(Fidelity::from_args().harness());
    let mut audit = Audit { passed: 0, failed: 0, skipped: 0 };

    // ---- Workload findings -------------------------------------------------
    if let Some(fig6) = guarded(&observability, "figure6", || figure6_jvm::run(&harness)) {
        let avg_gain: f64 =
            fig6.iter().map(|r| r.speedup).sum::<f64>() / fig6.len() as f64;
        let max_gain = fig6.iter().map(|r| r.speedup).fold(0.0f64, f64::max);
        audit.check(
            "W1: JVM induces parallelism in single-threaded Java",
            format!("avg 2C/1C gain {avg_gain:.2} (paper ~1.10), max {max_gain:.2} (paper up to 1.6)"),
            avg_gain > 1.05 && max_gain > 1.2,
        );
    } else {
        audit.skip("W1: JVM induces parallelism in single-threaded Java", "figure6 failed");
    }

    let fig5 = guarded(&observability, "figure5", || figure5_smt::run(&harness));
    let p4 = fig5
        .as_ref()
        .and_then(|f| f.iter().find(|r| r.processor.contains("Pentium4")));
    if let Some(p4) = p4 {
        let p4_jn = p4.energy_by_group[&Group::JavaNonScalable];
        let p4_ns = p4.energy_by_group[&Group::NativeScalable];
        audit.check(
            "W2: SMT on Pentium 4 treats Java Non-scalable worst",
            format!("P4 SMT energy: JN {p4_jn:.2} vs NS {p4_ns:.2} (JN must look worse)"),
            p4_jn > p4_ns,
        );
    } else {
        audit.skip("W2: SMT on Pentium 4 treats Java Non-scalable worst", "figure5 failed");
    }

    let fig7 = guarded(&observability, "figure7", || figure7_clock::run(&harness));
    let i5_clock = fig7
        .as_ref()
        .and_then(|f| f.iter().find(|r| r.processor == "i5 (32)"));
    if let Some(i5_clock) = i5_clock {
        let nn = i5_clock.energy_by_group[&Group::NativeNonScalable];
        let others_min = [Group::NativeScalable, Group::JavaScalable]
            .iter()
            .map(|g| i5_clock.energy_by_group[g])
            .fold(f64::INFINITY, f64::min);
        audit.check(
            "W3: Native Non-scalable responds differently to clock scaling",
            format!("i5 energy/doubling: NN {nn:.2} vs scalables' best {others_min:.2}"),
            nn < others_min,
        );
    } else {
        audit.skip(
            "W3: Native Non-scalable responds differently to clock scaling",
            "figure7 failed",
        );
    }

    if let Some(par) = guarded(&observability, "pareto", || pareto::run(&harness)) {
        let group_sets: Vec<Vec<usize>> = Group::ALL
            .iter()
            .filter_map(|&g| par.frontiers.get(&Some(g)).cloned())
            .collect();
        let all_same = group_sets.windows(2).all(|w| w[0] == w[1]);
        audit.check(
            "W4: Pareto-efficient design is workload-sensitive",
            format!(
                "per-group frontier sizes {:?}, identical across groups: {all_same}",
                group_sets.iter().map(Vec::len).collect::<Vec<_>>()
            ),
            !all_same,
        );
    } else {
        audit.skip("W4: Pareto-efficient design is workload-sensitive", "pareto failed");
    }

    // ---- Architecture findings ---------------------------------------------
    if let Some(fig4) = guarded(&observability, "figure4", || figure4_cmp::run(&harness)) {
        let (i7c, i5c) = (&fig4[0], &fig4[1]);
        audit.check(
            "A1: enabling a core is not consistently energy efficient",
            format!(
                "2C/1C energy: i7 {:.2} (paper 1.12) vs i5 {:.2} (paper 0.91)",
                i7c.ratios.energy, i5c.ratios.energy
            ),
            i7c.ratios.energy > 0.97 && i5c.ratios.energy < 0.95,
        );
    } else {
        audit.skip("A1: enabling a core is not consistently energy efficient", "figure4 failed");
    }

    let atom = fig5
        .as_ref()
        .and_then(|f| f.iter().find(|r| r.processor == "Atom (45)"));
    let i5s = fig5
        .as_ref()
        .and_then(|f| f.iter().find(|r| r.processor == "i5 (32)"));
    if let (Some(atom), Some(i5s), Some(p4)) = (atom, i5s, p4) {
        audit.check(
            "A2: SMT saves energy on i5 and (most) on Atom",
            format!(
                "SMT energy: Atom {:.2} (paper 0.86), i5 {:.2} (paper 0.89), P4 {:.2} (paper 0.98)",
                atom.ratios.energy, i5s.ratios.energy, p4.ratios.energy
            ),
            atom.ratios.energy < i5s.ratios.energy && i5s.ratios.energy < 1.0
                && atom.ratios.energy < p4.ratios.energy,
        );
    } else {
        audit.skip("A2: SMT saves energy on i5 and (most) on Atom", "figure5 failed");
    }

    let i7_clock = fig7
        .as_ref()
        .and_then(|f| f.iter().find(|r| r.processor == "i7 (45)"));
    if let (Some(i7_clock), Some(i5_clock)) = (i7_clock, i5_clock) {
        audit.check(
            "A3: clocking up costs the i7 dearly, the i5 nothing",
            format!(
                "energy per doubling: i7 {:+.0}% (paper +60%), i5 {:+.0}% (paper -4%)",
                (i7_clock.energy - 1.0) * 100.0,
                (i5_clock.energy - 1.0) * 100.0
            ),
            i7_clock.energy > 1.3 && i5_clock.energy < 1.05,
        );
    } else {
        audit.skip("A3: clocking up costs the i7 dearly, the i5 nothing", "figure7 failed");
    }

    if let Some(fig8) = guarded(&observability, "figure8", || figure8_dieshrink::run(&harness)) {
        audit.check(
            "A4: die shrink cuts energy even at matched clocks",
            format!(
                "matched-clock energy: Core {:.2} (paper 0.54), Nehalem {:.2} (paper 0.60)",
                fig8[0].matched.energy, fig8[1].matched.energy
            ),
            fig8.iter().all(|r| r.matched.energy < 0.85),
        );
        audit.check(
            "A5: 45->32nm repeated the previous generation's savings",
            format!(
                "both shrinks save >=15% energy at matched clocks ({:.2}, {:.2})",
                fig8[0].matched.energy, fig8[1].matched.energy
            ),
            fig8.iter().all(|r| r.matched.energy < 0.85 && r.matched.power < 0.85),
        );
    } else {
        audit.skip("A4: die shrink cuts energy even at matched clocks", "figure8 failed");
        audit.skip("A5: 45->32nm repeated the previous generation's savings", "figure8 failed");
    }

    if let Some(fig9) = guarded(&observability, "figure9", || figure9_uarch::run(&harness)) {
        let core45 = fig9.iter().find(|r| r.label.starts_with("Core: i7")).expect("present");
        audit.check(
            "A6: Nehalem ~14% faster than Core at matched configuration",
            format!("perf ratio {:.2} (paper 1.14)", core45.ratios.performance),
            core45.ratios.performance > 1.05 && core45.ratios.performance < 1.5,
        );
        let bonnell = fig9.iter().find(|r| r.label.starts_with("Bonnell")).expect("present");
        audit.check(
            "A7: similar energy across 45nm microarchitectures",
            format!(
                "i7/AtomD energy {:.2} (paper 0.85), i7/C2D45 {:.2} (paper 1.00)",
                bonnell.ratios.energy, core45.ratios.energy
            ),
            bonnell.ratios.energy > 0.5 && bonnell.ratios.energy < 1.5,
        );
    } else {
        audit.skip("A6: Nehalem ~14% faster than Core at matched configuration", "figure9 failed");
        audit.skip("A7: similar energy across 45nm microarchitectures", "figure9 failed");
    }

    if let Some(fig10) = guarded(&observability, "figure10", || figure10_turbo::run(&harness)) {
        let i7_tb = &fig10[0];
        let i5_tb = &fig10[2];
        audit.check(
            "A8: Turbo Boost is energy-inefficient on the i7, neutral on the i5",
            format!(
                "turbo energy: i7 stock {:.2} (paper 1.19), i5 stock {:.2} (paper 1.04)",
                i7_tb.ratios.energy, i5_tb.ratios.energy
            ),
            i7_tb.ratios.energy > 1.08 && i5_tb.ratios.energy < 1.06,
        );
    } else {
        audit.skip(
            "A8: Turbo Boost is energy-inefficient on the i7, neutral on the i5",
            "figure10 failed",
        );
    }

    if let Some(fig11) = guarded(&observability, "figure11", || figure11_history::run(&harness)) {
        let p4_ppt = fig11
            .iter()
            .find(|p| p.processor.contains("Pentium4"))
            .expect("present")
            .power_per_transistor();
        let max_other = fig11
            .iter()
            .filter(|p| !p.processor.contains("Pentium4"))
            .map(figure11_history::HistoryPoint::power_per_transistor)
            .fold(0.0f64, f64::max);
        audit.check(
            "A9: power/transistor consistent within families; P4 the outlier",
            format!("P4 {p4_ppt:.3} W/Mtran vs next-highest {max_other:.3}"),
            p4_ppt > 2.0 * max_other,
        );
    } else {
        audit.skip(
            "A9: power/transistor consistent within families; P4 the outlier",
            "figure11 failed",
        );
    }

    // TDP, for good measure (Section 2.5).
    if let Some(t4) = guarded(&observability, "table4", || table4::run(&harness)) {
        let tdp_ok = t4.rows.iter().all(|r| {
            let spec = ProcessorId::ALL
                .iter()
                .map(|id| id.spec())
                .find(|s| s.short == r.processor)
                .expect("row names match catalog");
            r.metrics.power_max < spec.power.tdp_w
        });
        audit.check(
            "TDP: strictly above measured power on every chip",
            "max per-benchmark power < TDP for all eight processors".to_owned(),
            tdp_ok,
        );
    } else {
        audit.skip("TDP: strictly above measured power on every chip", "table4 failed");
    }

    println!(
        "\n{} passed, {} failed, {} skipped",
        audit.passed, audit.failed, audit.skipped
    );
    println!("runner health: {}", harness.runner().health());
    if observability.tracing() {
        println!("{}", observability.profile_summary());
    } else {
        observability.flush();
    }
    if audit.failed > 0 || audit.skipped > 0 {
        std::process::exit(1);
    }
}
