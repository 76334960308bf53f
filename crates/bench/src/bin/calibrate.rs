//! Calibration dashboard: prints every headline number next to the
//! paper's measured value, so model-parameter tuning has a target sheet.
//!
//! Usage: `cargo run --release -p lhr-bench --bin calibrate [--full]`
//! (`--full` uses the complete catalog and prescribed invocations; the
//! default uses the fast 12-benchmark harness.)

use lhr_core::experiments::{
    figure1_scalability, figure4_cmp, figure5_smt, figure6_jvm, figure7_clock,
    figure8_dieshrink, figure9_uarch, figure10_turbo, figure11_history, table4,
};
use lhr_core::{Harness, Runner};

fn main() {
    lhr_bench::check_args("calibrate", &[&[("--full", false)]]);
    let full = std::env::args().any(|a| a == "--full");
    let harness = if full {
        Harness::new(Runner::new().with_invocations(3))
    } else {
        Harness::quick()
    };

    println!("=== Table 4: paper vs measured (Avg_w) ===");
    let t4 = table4::run(&harness);
    println!("{}", t4.render_comparison());

    println!("=== Figure 4: CMP (2C/1C) — paper i7: 1.32/1.57/1.12, i5: 1.34/1.29/0.91 ===");
    println!("{}", figure4_cmp::render(&figure4_cmp::run(&harness)));

    println!("=== Figure 5: SMT — paper P4: 1.06/1.06/0.98, i7: 1.14/1.15/0.97, Atom: 1.24/1.10/0.86, i5: 1.17/1.10/0.89 ===");
    println!("{}", figure5_smt::render(&figure5_smt::run(&harness)));

    println!("=== Figure 7: clock doubling — paper i7: +83/+180/+60, C2D45: +73/+159/+56, i5: +78/+73/-4 ===");
    println!("{}", figure7_clock::render(&figure7_clock::run(&harness)));

    println!("=== Figure 8: die shrink (matched) — paper Core: 1.01/0.55/0.54, Nehalem: 0.90/0.53/0.60 ===");
    println!("{}", figure8_dieshrink::render(&figure8_dieshrink::run(&harness)));

    println!("=== Figure 9: gross uarch — paper Bonnell: 2.70/2.38/0.85, NetBurst: 2.60/0.33/0.13, Core45: 1.14/1.14/1.00, Core65: 1.14/0.55/0.48 ===");
    println!("{}", figure9_uarch::render(&figure9_uarch::run(&harness)));

    println!("=== Figure 10: Turbo — paper i7 stock: 1.05/1.19/1.19, i7 1C1T: 1.07/1.49/1.39, i5 stock: 1.03/1.07/1.04, i5 1C1T: 1.05/1.05/1.00 ===");
    println!("{}", figure10_turbo::render(&figure10_turbo::run(&harness)));

    println!("=== Figure 1: Java MT scalability on i7 ===");
    println!(
        "{}",
        figure1_scalability::render(&figure1_scalability::run(&harness))
    );

    println!("=== Figure 6: single-threaded Java 2C1T/1C1T on i7 ===");
    println!("{}", figure6_jvm::render(&figure6_jvm::run(&harness)));

    println!("=== Figure 11: history ===");
    println!("{}", figure11_history::render(&figure11_history::run(&harness)));
}
