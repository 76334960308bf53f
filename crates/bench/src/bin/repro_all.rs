//! Regenerates every table and figure in one pass as a supervised,
//! resumable campaign, writing each artifact crash-safely to
//! `repro_out/<name>.txt` (plus everything to stdout).
//!
//! The study grid (45 configurations x the catalog) is measured first
//! under the campaign supervisor, with every resolved cell appended to
//! a write-ahead journal (`repro_out/campaign.jsonl` by default). Kill
//! the run at any point and `--resume` replays the journal, re-executing
//! only the missing cells -- and regenerating byte-identical artifacts,
//! verified against the journal's recorded checksums.
//!
//! Each experiment then runs behind a panic guard: a faulted rig or dead
//! cell skips that experiment's output file and the run continues,
//! ending with the runner's health ledger. On a clean run the written
//! files are byte-for-byte identical to the non-resilient pipeline's.
//!
//! Flags: `--quick` (12-benchmark subset), `--paper` (prescribed
//! invocation counts), `--trace <path>` (stream pipeline events as JSON
//! lines), `--journal <path>`, `--resume`, `--max-cell-seconds <s>`,
//! `--jobs <n>`, `--abort-after <n>`, `--out-dir <path>`. Default: full
//! catalog, 3 invocations, artifacts in `repro_out/`.
//!
//! Exit codes: 0 clean; 1 failed experiments; 2 artifact checksum
//! mismatch against the journal, or an unknown argument; 3 campaign
//! aborted (resume to finish).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use lhr_bench::campaign::{self, CampaignOptions};
use lhr_bench::{
    run_experiment, Fidelity, Observability, CAMPAIGN_FLAGS, EXPERIMENTS, FIDELITY_FLAGS,
    TRACE_FLAGS,
};
use lhr_obs::sealed::{fnv64, write_atomic};

fn main() {
    lhr_bench::check_args("repro_all", &[FIDELITY_FLAGS, TRACE_FLAGS, CAMPAIGN_FLAGS]);
    let fidelity = Fidelity::from_args();
    let observability = Observability::from_args();
    let mut opts = CampaignOptions::from_args();
    // repro_all is the multi-day campaign: the journal is always on.
    if opts.journal.is_none() {
        opts.journal = Some(opts.out_dir.join(campaign::DEFAULT_JOURNAL));
    }
    let out_dir = opts.out_dir.clone();
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    println!("regenerating all tables and figures at {fidelity:?} fidelity\n");
    let t0 = Instant::now();

    let prepared = campaign::prepare(fidelity, &observability, &opts);
    if prepared.aborted() {
        println!(
            "total: {:.1?}; campaign aborted before artifact generation",
            t0.elapsed()
        );
        std::process::exit(campaign::EXIT_ABORTED);
    }

    let mut failed: Vec<&str> = Vec::new();
    let mut mismatched: Vec<String> = Vec::new();
    for name in EXPERIMENTS {
        let t = Instant::now();
        let span = observability.experiment_span(name);
        let outcome = catch_unwind(AssertUnwindSafe(|| run_experiment(name, &prepared.harness)));
        span.end();
        match outcome {
            Ok(rendered) => {
                let file = format!("{name}.txt");
                let path = out_dir.join(&file);
                // A resumed run must reproduce the interrupted run's
                // bytes: compare against the journaled checksum before
                // overwriting, and report the first divergence if not.
                if let Some(prior) = prepared.prior_artifact(&file) {
                    if prior != fnv64(rendered.as_bytes()) {
                        let old = std::fs::read_to_string(&path).unwrap_or_default();
                        mismatched.push(campaign::diff_summary(&file, &old, &rendered));
                    }
                }
                write_atomic(&path, rendered.as_bytes()).expect("write experiment output");
                prepared.record_artifact(&file, rendered.as_bytes());
                println!("=== {name} ({:.1?}) ===\n{rendered}", t.elapsed());
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                    .unwrap_or_else(|| "opaque panic".to_owned());
                println!("=== {name} FAILED ({:.1?}) ===\n{msg}\n", t.elapsed());
                failed.push(name);
            }
        }
    }
    println!("total: {:.1?}; outputs in {}", t0.elapsed(), out_dir.display());
    println!("runner health: {}", prepared.harness.runner().health());
    println!("campaign journal: {} syncs", prepared.journal_syncs());
    println!("{}", observability.profile_summary());
    if !mismatched.is_empty() {
        println!(
            "artifact checksum mismatches against the campaign journal:\n{}",
            mismatched.join("\n")
        );
        std::process::exit(campaign::EXIT_CHECKSUM_MISMATCH);
    }
    if !failed.is_empty() {
        println!("failed experiments: {}", failed.join(", "));
        std::process::exit(1);
    }
}
