//! `lhr_queries_check` -- proves the stored queries in `queries/`
//! reproduce the committed artifacts bit-for-bit.
//!
//! Runs the figure 7 and figure 8 pipelines with a measurement-store
//! sink attached, re-derives both figures *from the store* through the
//! stored `group_by`/`agg` queries, and compares the rendered bytes
//! against `repro_out/figure7.txt` / `repro_out/figure8.txt`. The three
//! headline-finding queries and the Pareto view are executed as well
//! and must return non-empty tables.
//!
//! ```text
//! lhr_queries_check              # standard fidelity, checks repro_out/
//! lhr_queries_check --quick      # 12-benchmark subset, skips the
//!                                # repro_out byte comparison (quick
//!                                # artifacts differ by design) but
//!                                # still requires direct == derived
//! ```
//!
//! Exit codes: 0 all checks pass; 1 a derivation or byte check failed.

use std::process::ExitCode;
use std::sync::Arc;

use lhr_bench::queries;
use lhr_core::experiments::{figure7_clock, figure8_dieshrink};
use lhr_core::Harness;
use lhr_store::Store;

fn fail(what: &str) -> ExitCode {
    eprintln!("FAIL: {what}");
    ExitCode::FAILURE
}

/// Points at the first line where two renders diverge, so a failure
/// names the row instead of just the byte count.
fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("first diff at line {}:\n  direct:  {la}\n  derived: {lb}", i + 1);
        }
    }
    format!("one render is a prefix of the other ({} vs {} bytes)", a.len(), b.len())
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    lhr_bench::check_args(
        "lhr_queries_check",
        &[&[("--quick", false), ("--fast-full", false)]],
    );
    let quick = std::env::args().any(|a| a == "--quick");
    let fast_full = std::env::args().any(|a| a == "--fast-full");
    let dir = std::env::temp_dir().join(format!("lhr-queries-check-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = match Store::open(&dir) {
        Ok(s) => Arc::new(s),
        Err(e) => return fail(&format!("opening scratch store: {e}")),
    };
    let (base, mode) = if quick {
        (Harness::quick(), "quick")
    } else if fast_full {
        // Full catalog on the fast runner: the derivation contract at
        // real breadth without standard fidelity's runtime. Skips the
        // repro_out byte check (those artifacts are 3-invocation).
        (Harness::new(lhr_core::Runner::fast()), "fast-full")
    } else {
        (lhr_bench::Fidelity::Standard.harness(), "standard")
    };
    let skip_committed = quick || fast_full;
    let harness = base.with_cell_sink(Arc::clone(&store) as _);
    println!("populating store via the {mode} pipelines...");

    // Figure 7: direct pipeline vs store-derived, and vs the committed
    // artifact bytes at standard fidelity.
    let direct7 = figure7_clock::render(&figure7_clock::run(&harness));
    let derived7 = match queries::derive_figure7(&store, 4) {
        Ok(d) => figure7_clock::render(&d),
        Err(e) => return fail(&format!("deriving figure 7 from the store: {e}")),
    };
    if direct7 != derived7 {
        eprintln!("{}", first_diff(&direct7, &derived7));
        return fail("figure 7: store-derived bytes differ from the direct pipeline");
    }
    println!("figure 7: direct == derived ({} bytes)", derived7.len());

    // Figure 8 likewise.
    let direct8 = figure8_dieshrink::render(&figure8_dieshrink::run(&harness));
    let derived8 = match queries::derive_figure8(&store) {
        Ok(d) => figure8_dieshrink::render(&d),
        Err(e) => return fail(&format!("deriving figure 8 from the store: {e}")),
    };
    if direct8 != derived8 {
        eprintln!("{}", first_diff(&direct8, &derived8));
        return fail("figure 8: store-derived bytes differ from the direct pipeline");
    }
    println!("figure 8: direct == derived ({} bytes)", derived8.len());

    if !skip_committed {
        for (name, derived) in [("figure7", &derived7), ("figure8", &derived8)] {
            let path = format!("repro_out/{name}.txt");
            match std::fs::read_to_string(&path) {
                Ok(committed) => {
                    if committed != *derived {
                        return fail(&format!(
                            "{name}: store-derived bytes differ from committed {path}"
                        ));
                    }
                    println!("{name}: derived == committed {path}");
                }
                Err(e) => return fail(&format!("reading {path}: {e}")),
            }
        }
    }

    // The figure pipelines never measure an Atom; seed its stock cells
    // so the i7-vs-Atom finding has both sides of the comparison.
    let atom = lhr_uarch::ChipConfig::stock(lhr_uarch::ProcessorId::Atom230.spec());
    let _ = harness.group_metrics(&atom);

    // The finding queries and the Pareto view must execute and return
    // rows over the store the figures populated.
    for name in [
        "finding_i7_vs_atom_perf",
        "finding_power_range",
        "finding_managed_epi_smt",
        "pareto_power_perf",
    ] {
        let text = match queries::load_query(name) {
            Ok(t) => t,
            Err(e) => return fail(&format!("loading queries/{name}.lhq: {e}")),
        };
        match store.query(&text) {
            Ok(table) if table.rows.is_empty() => {
                return fail(&format!("{name}: returned no rows"));
            }
            Ok(table) => println!("{name}: {} rows", table.rows.len()),
            Err(e) => return fail(&format!("{name}: {e}")),
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
    println!("all stored-query checks passed");
    ExitCode::SUCCESS
}
