//! Scenario: a multi-day sweep campaign on a rig that wedges.
//!
//! The paper's numbers came from a measurement campaign that ran for
//! days across eight motherboards -- long enough for a logger to hang
//! mid-run. The campaign supervisor turns that from a restart-from-zero
//! catastrophe into a scheduling detail: every (configuration, benchmark)
//! cell runs under a watchdog deadline scaled to its invocation count,
//! a missed deadline triggers seeded exponential-backoff retries, and a
//! permanently wedged cell degrades to a typed failure while the rest of
//! the grid completes.
//!
//! This example arms an i7-920 rig whose first run stalls for 1.2 s
//! (a hung logger that recovers on power-cycle) and supervises a small
//! grid over it. Watch the deadline miss land, the retry heal it, and
//! the final health ledger carry the scar -- while every measured value
//! stays bit-identical to an unwedged run, because supervision schedules
//! measurements and never touches their values.
//!
//! The binaries wrap the same machinery behind flags: `--journal` arms a
//! crash-safe write-ahead journal, `--resume` replays it after a kill,
//! `--max-cell-seconds` sets the watchdog scale (see EXPERIMENTS.md,
//! "Interrupting and resuming a campaign").
//!
//! Run with: `cargo run --release --example resumable_campaign`

use std::sync::Arc;

use lhr::core::{
    grid_units, AbortHandle, CampaignSink, Harness, RetryPolicy, Runner, Supervisor, UnitOutcome,
    UnitReport,
};
use lhr::sensors::faults::{FaultPlan, Stall};
use lhr::uarch::{ChipConfig, ProcessorId};
use lhr::workloads::by_name;

/// A sink that narrates the campaign, one line per resolved cell --
/// the binaries' progress meter and journal hang off this same hook.
struct NarratingSink;

impl CampaignSink for NarratingSink {
    fn units_resolved(&self, units: &[UnitReport]) {
        for unit in units {
            narrate(unit);
        }
    }
}

fn narrate(unit: &UnitReport) {
    let verdict = match &unit.outcome {
        UnitOutcome::Completed { .. } if unit.deadline_misses > 0 || unit.attempts > 1 => "healed",
        UnitOutcome::Completed { .. } => "ok",
        UnitOutcome::Failed { error } => {
            println!(
                "  {:<28} FAILED after {} attempts: {}",
                format!("{} / {}", unit.config_label, unit.workload),
                unit.attempts,
                error
            );
            return;
        }
        UnitOutcome::Skipped => "skipped",
    };
    println!(
        "  {:<28} {verdict:<7} ({} attempt{}, {} deadline miss{})",
        format!("{} / {}", unit.config_label, unit.workload),
        unit.attempts,
        if unit.attempts == 1 { "" } else { "s" },
        unit.deadline_misses,
        if unit.deadline_misses == 1 { "" } else { "es" },
    );
}

fn main() {
    // The i7's logger hangs for 1.2 s on its first run, then recovers --
    // the kind of fault a multi-day campaign *will* eventually hit.
    let wedge = FaultPlan::new(0xCA3_BA6E).with_stall(Stall::transient(1, 1.2));
    let runner = Runner::fast().with_fault_plan(ProcessorId::CoreI7_920, wedge);
    let harness = Arc::new(Harness::new(runner).with_workloads(vec![
        by_name("hmmer").expect("catalog benchmark"),
        by_name("db").expect("catalog benchmark"),
    ]));

    let configs = [
        ChipConfig::stock(ProcessorId::Atom230.spec()),
        ChipConfig::stock(ProcessorId::Core2DuoE6600.spec()),
        ChipConfig::stock(ProcessorId::CoreI7_920.spec()),
    ];
    let units = grid_units(&configs, harness.workloads());

    // A 0.5 s watchdog scale catches the 1.2 s wedge fast; four attempts
    // with ~20-100 ms seeded-jitter backoff give it room to heal.
    let supervisor = Supervisor::new(Arc::clone(&harness))
        .with_max_cell_seconds(0.5)
        .with_policy(RetryPolicy {
            max_attempts: 4,
            base_delay_s: 0.02,
            max_delay_s: 0.1,
            seed: 0xB0FF_5EED,
        });

    println!(
        "supervising {} cells ({} configurations x {} benchmarks):",
        units.len(),
        configs.len(),
        harness.workloads().len()
    );
    let report = supervisor.run(&units, &NarratingSink, &AbortHandle::new());

    println!(
        "\ncampaign: {} completed, {} failed, {} retries, {} deadline misses",
        report.completed, report.failed, report.retries, report.deadline_misses
    );
    println!("health:   {}", report.sweep_health().render());

    // Supervision is pure scheduling: the healed i7 cell carries the
    // same bits an unwedged rig produces.
    let clean = Harness::new(Runner::fast()).with_workloads(vec![
        by_name("hmmer").expect("catalog benchmark"),
        by_name("db").expect("catalog benchmark"),
    ]);
    let i7 = ChipConfig::stock(ProcessorId::CoreI7_920.spec());
    let (expected, _) = clean
        .try_evaluate_workload(&i7, by_name("hmmer").expect("catalog benchmark"))
        .expect("clean rig");
    let healed = report
        .units
        .iter()
        .find(|u| u.config_label == i7.label() && u.workload == "hmmer")
        .and_then(UnitReport::evaluation)
        .expect("the wedged cell healed");
    assert_eq!(healed, &expected);
    println!("\nthe healed cell is bit-identical to an unwedged run.");
}
