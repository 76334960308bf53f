//! Exports the per-benchmark dataset as csv, mirroring the paper's
//! published companion data in the ACM Digital Library: one row per
//! (benchmark, configuration) with time, power, and normalized metrics.
//!
//! Usage: `cargo run --release -p lhr-bench --bin dataset [--quick] [--paper]`
//! Writes `repro_out/dataset.csv`.

use lhr_bench::Fidelity;
use lhr_core::{configs, Table};

fn main() {
    lhr_bench::check_args("dataset", &[lhr_bench::FIDELITY_FLAGS]);
    let fidelity = Fidelity::from_args();
    let harness = fidelity.harness();
    let mut table = Table::new([
        "benchmark",
        "group",
        "configuration",
        "seconds",
        "seconds_ci95",
        "watts",
        "watts_ci95",
        "perf_normalized",
        "energy_normalized",
    ]);
    for config in configs::stock_configs() {
        for e in harness.evaluate_config(&config) {
            let m = &e.measurement;
            table.row([
                m.workload.to_owned(),
                m.group.to_string(),
                m.config.clone(),
                format!("{:.6}", m.time.mean()),
                format!("{:.6}", m.time.ci95_halfwidth()),
                format!("{:.4}", m.power.mean()),
                format!("{:.4}", m.power.ci95_halfwidth()),
                format!("{:.4}", e.perf_norm),
                format!("{:.4}", e.energy_norm),
            ]);
        }
    }
    std::fs::create_dir_all("repro_out").expect("create repro_out/");
    let csv = table.to_csv();
    // Crash-safe: an interrupted export leaves the previous csv intact.
    lhr_obs::sealed::write_atomic(std::path::Path::new("repro_out/dataset.csv"), csv.as_bytes())
        .expect("write dataset.csv");
    println!("{} rows -> repro_out/dataset.csv", table.len());
}
