//! Resumable, supervised sweep campaigns: the campaign driver the
//! regenerator binaries share.
//!
//! Every resolved `(configuration, workload)` cell is appended to a
//! crash-safe write-ahead journal ([`lhr_core::journal`], by default
//! `campaign.jsonl` next to the artifacts) in the batch it resolves in,
//! and `--resume` replays the journal into the runner's measurement
//! cache so only the missing cells re-execute. A resumed campaign
//! regenerates outputs **byte-identical** to an uninterrupted one --
//! locked in by the `campaign_resume` integration test. Artifact
//! checksums are journaled too, letting a resumed run verify it
//! reproduced the same bytes.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lhr_core::journal::{load_journal, JournalWriter};
use lhr_core::{
    configs, grid_units, AbortHandle, CampaignReport, CampaignSink, Harness, RetryPolicy,
    Supervisor, UnitReport,
};

use crate::{Fidelity, Observability};

/// Journal file name used when `--journal` is not given: it lives next
/// to the artifacts in the output directory (and is gitignored there --
/// resolution order is timing-dependent, so the journal is not
/// byte-reproducible even though the data in it is).
pub const DEFAULT_JOURNAL: &str = "campaign.jsonl";

/// Process exit code for a run that stopped on a checksum mismatch:
/// a resumed campaign failed to reproduce the journaled artifact bytes.
pub const EXIT_CHECKSUM_MISMATCH: i32 = 2;

/// Process exit code for a campaign stopped by `--abort-after` (or any
/// abort): the journal is intact and `--resume` will pick up from it.
pub const EXIT_ABORTED: i32 = 3;

/// Campaign-related command-line options shared by `repro_all` and the
/// per-experiment binaries.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// `--journal <path>`: where the write-ahead journal lives
    /// (default: `<out-dir>/campaign.jsonl`).
    pub journal: Option<PathBuf>,
    /// `--resume`: replay the journal, re-executing only missing cells.
    pub resume: bool,
    /// `--max-cell-seconds <s>`: watchdog deadline for a 3-invocation
    /// cell; other cells scale by their prescribed invocation count.
    pub max_cell_seconds: Option<f64>,
    /// `--jobs <n>`: cap on concurrent measurement workers.
    pub jobs: Option<usize>,
    /// `--abort-after <n>`: abort the campaign once `n` cells resolve
    /// (the kill half of the kill-and-resume test). The journal batch
    /// that crosses `n` is written whole, so the journal may hold a few
    /// more than `n` cells.
    pub abort_after: Option<usize>,
    /// `--out-dir <path>`: artifact directory (default `repro_out`).
    pub out_dir: PathBuf,
}

impl CampaignOptions {
    /// Parses the process arguments.
    ///
    /// # Panics
    ///
    /// Panics when a flag is missing its value or the value is malformed.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::parse(&args)
    }

    /// Parses an explicit argument list (exposed for tests).
    ///
    /// # Panics
    ///
    /// Panics when a flag is missing its value or the value is malformed.
    #[must_use]
    pub fn parse(args: &[String]) -> Self {
        fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
            args.iter().position(|a| a == flag).map(|i| {
                args.get(i + 1)
                    .unwrap_or_else(|| panic!("{flag} requires a value"))
                    .as_str()
            })
        }
        let max_cell_seconds = value(args, "--max-cell-seconds").map(|v| {
            let s: f64 = v.parse().unwrap_or_else(|_| panic!("--max-cell-seconds: bad number {v:?}"));
            assert!(s > 0.0 && s.is_finite(), "--max-cell-seconds must be positive");
            s
        });
        let jobs = value(args, "--jobs").map(|v| {
            let n: usize = v.parse().unwrap_or_else(|_| panic!("--jobs: bad count {v:?}"));
            assert!(n > 0, "--jobs must be at least 1");
            n
        });
        let abort_after = value(args, "--abort-after").map(|v| {
            v.parse::<usize>()
                .unwrap_or_else(|_| panic!("--abort-after: bad count {v:?}"))
        });
        Self {
            journal: value(args, "--journal").map(PathBuf::from),
            resume: args.iter().any(|a| a == "--resume"),
            max_cell_seconds,
            jobs,
            abort_after,
            out_dir: value(args, "--out-dir").map_or_else(|| PathBuf::from("repro_out"), PathBuf::from),
        }
    }

    /// Whether any campaign feature was requested: a journal, a resume,
    /// a watchdog deadline, or a deterministic abort. (`--jobs` alone
    /// only caps harness parallelism -- no campaign needed.)
    #[must_use]
    pub fn armed(&self) -> bool {
        self.journal.is_some()
            || self.resume
            || self.max_cell_seconds.is_some()
            || self.abort_after.is_some()
    }

    /// The journal path in force.
    #[must_use]
    pub fn journal_path(&self) -> PathBuf {
        self.journal
            .clone()
            .unwrap_or_else(|| self.out_dir.join(DEFAULT_JOURNAL))
    }
}

// ---------------------------------------------------------------------
// Progress sink
// ---------------------------------------------------------------------

/// The supervisor sink the binaries use: journals every batch of
/// resolved units with one write and one sync, then prints periodic
/// progress (cells done/remaining, retries, ETA) and trips the abort
/// handle when `--abort-after` says so. The batch that crosses the
/// `--abort-after` count is journaled whole, so the journal may hold a
/// few more cells than the count.
struct ProgressSink {
    writer: Arc<JournalWriter>,
    total: usize,
    already_done: usize,
    resolved: AtomicUsize,
    retries: AtomicUsize,
    started: Instant,
    last_print: Mutex<Instant>,
    abort_after: Option<usize>,
    abort: AbortHandle,
}

impl ProgressSink {
    fn new(
        writer: Arc<JournalWriter>,
        total: usize,
        already_done: usize,
        abort_after: Option<usize>,
        abort: AbortHandle,
    ) -> Self {
        let now = Instant::now();
        Self {
            writer,
            total,
            already_done,
            resolved: AtomicUsize::new(0),
            retries: AtomicUsize::new(0),
            started: now,
            last_print: Mutex::new(now),
            abort_after,
            abort,
        }
    }

    /// Counts one journaled unit toward progress and `--abort-after`.
    #[allow(clippy::cast_precision_loss)]
    fn count(&self, unit: &UnitReport) {
        let fresh = self.resolved.fetch_add(1, Ordering::Relaxed) + 1;
        let retries = self
            .retries
            .fetch_add(unit.attempts.saturating_sub(1) as usize, Ordering::Relaxed)
            + unit.attempts.saturating_sub(1) as usize;
        let done = self.already_done + fresh;
        let mut last = self.last_print.lock().expect("progress lock");
        if last.elapsed().as_secs_f64() >= 2.0 || done == self.total {
            *last = Instant::now();
            let eta = self.started.elapsed().as_secs_f64() / fresh as f64
                * (self.total - done) as f64;
            println!(
                "[campaign] {done}/{} cells done, {} remaining, {retries} retries, ETA {eta:.0}s",
                self.total,
                self.total - done,
            );
        }
        drop(last);
        if let Some(n) = self.abort_after {
            if fresh >= n {
                self.abort.abort();
            }
        }
    }
}

impl CampaignSink for ProgressSink {
    fn units_resolved(&self, units: &[UnitReport]) {
        if let Err(e) = self.writer.record_units(units) {
            eprintln!("[campaign] journal append failed: {e}");
        }
        for unit in units {
            self.count(unit);
        }
    }
}

// ---------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------

/// A prepared (possibly resumed, possibly aborted) campaign: the warmed
/// harness plus the journal handles the artifact phase needs.
pub struct Campaign {
    /// The harness, its measurement cache warmed by the campaign (and
    /// by the journal replay on resume).
    pub harness: Arc<Harness>,
    /// The supervisor's report, when a campaign ran (`None` when no
    /// campaign feature was requested).
    pub report: Option<CampaignReport>,
    /// Cells preloaded from the journal instead of re-measured.
    pub preloaded: usize,
    /// Artifact checksums recovered from the journal on resume.
    prior_artifacts: BTreeMap<String, u64>,
    writer: Option<Arc<JournalWriter>>,
}

impl Campaign {
    /// Whether the campaign was aborted before completing (exit with
    /// [`EXIT_ABORTED`]; the journal supports `--resume`).
    #[must_use]
    pub fn aborted(&self) -> bool {
        self.report.as_ref().is_some_and(|r| r.aborted)
    }

    /// The journaled checksum of an artifact from the interrupted run,
    /// if the journal recorded one.
    #[must_use]
    pub fn prior_artifact(&self, name: &str) -> Option<u64> {
        self.prior_artifacts.get(name).copied()
    }

    /// The journal's `sync_data` calls so far (0 without a journal):
    /// one for the header, one per batch of resolved cells, one per
    /// artifact.
    #[must_use]
    pub fn journal_syncs(&self) -> u64 {
        self.writer.as_ref().map_or(0, |w| w.syncs())
    }

    /// Journals a freshly written artifact's checksum.
    pub fn record_artifact(&self, name: &str, bytes: &[u8]) {
        if let Some(w) = &self.writer {
            if let Err(e) = w.record_artifact(name, bytes) {
                eprintln!("[campaign] artifact record failed: {e}");
            }
        }
    }
}

/// Builds the harness for `fidelity` (applying `--jobs`), and -- when a
/// campaign feature is armed -- replays the journal (on `--resume`) and
/// runs the supervised campaign over the full study grid
/// ([`configs::all_study_configs`] x the harness workloads), journaling
/// every resolved cell. The returned harness's cache then serves the
/// experiment renders, so supervision never touches rendered bytes.
///
/// # Panics
///
/// Panics if the journal cannot be created, or exits with
/// [`EXIT_CHECKSUM_MISMATCH`] when resuming against a journal recorded
/// at a different fidelity.
#[must_use]
pub fn prepare(fidelity: Fidelity, observability: &Observability, opts: &CampaignOptions) -> Campaign {
    let mut harness = fidelity.harness();
    if let Some(jobs) = opts.jobs {
        harness = harness.with_jobs(jobs);
    }
    let harness = observability.arm(harness);
    if !opts.armed() {
        return Campaign {
            harness: Arc::new(harness),
            report: None,
            preloaded: 0,
            prior_artifacts: BTreeMap::new(),
            writer: None,
        };
    }

    let path = opts.journal_path();
    let fidelity_name = format!("{fidelity:?}");
    let mut done: HashSet<(String, String)> = HashSet::new();
    let mut preloaded = 0usize;
    let mut prior_artifacts = BTreeMap::new();
    let resuming = opts.resume && path.exists();
    if resuming {
        let journal = load_journal(&path).unwrap_or_else(|e| panic!("--resume {}: {e}", path.display()));
        if let Some(recorded) = &journal.fidelity {
            if *recorded != fidelity_name {
                eprintln!(
                    "cannot resume: journal {} was recorded at {recorded} fidelity, this run is {fidelity_name}",
                    path.display()
                );
                std::process::exit(EXIT_CHECKSUM_MISMATCH);
            }
        }
        // The journal records configurations by label; the study grid's
        // labels are unique, so each maps back to one real ChipConfig
        // (needed for the cache key's structural config fingerprint).
        let study: HashMap<String, lhr_uarch::ChipConfig> = configs::all_study_configs()
            .into_iter()
            .map(|c| (c.label(), c))
            .collect();
        for cell in &journal.ok_cells {
            let Some(w) = lhr_workloads::by_name(&cell.workload) else {
                continue; // a workload this build no longer knows
            };
            let Some(config) = study.get(&cell.config) else {
                continue; // a configuration this build no longer measures
            };
            cell.preload(harness.runner(), config, w);
            done.insert((cell.config.clone(), cell.workload.clone()));
            preloaded += 1;
        }
        prior_artifacts = journal.artifacts;
        println!(
            "[campaign] resumed {}: {preloaded} cells replayed, {} failed cells to retry, {} torn/invalid lines skipped",
            path.display(),
            journal.err_cells,
            journal.skipped_lines,
        );
    }

    let harness = Arc::new(harness);
    let grid = grid_units(&configs::all_study_configs(), harness.workloads());
    let grid_total = grid.len();
    let units: Vec<_> = grid
        .into_iter()
        .filter(|u| !done.contains(&(u.config.label(), u.workload.name().to_owned())))
        .collect();

    let writer = Arc::new(
        if resuming {
            JournalWriter::append(&path)
        } else {
            JournalWriter::fresh(&path, &fidelity_name, configs::all_study_configs().len(), harness.workloads().len())
        }
        .unwrap_or_else(|e| panic!("journal {}: {e}", path.display())),
    );

    let mut supervisor = Supervisor::new(Arc::clone(&harness)).with_policy(RetryPolicy::default());
    if let Some(s) = opts.max_cell_seconds {
        supervisor = supervisor.with_max_cell_seconds(s);
    }
    if let Some(jobs) = opts.jobs {
        supervisor = supervisor.with_jobs(jobs);
    }
    let abort = AbortHandle::new();
    let sink = ProgressSink::new(
        Arc::clone(&writer),
        grid_total,
        preloaded,
        opts.abort_after,
        abort.clone(),
    );
    println!(
        "[campaign] supervising {} cells ({} already journaled), journal {}",
        units.len(),
        preloaded,
        path.display()
    );
    let report = supervisor.run(&units, &sink, &abort);
    let health = report.sweep_health();
    if report.aborted {
        println!(
            "[campaign] aborted with {} cells resolved this run; resume with --resume --journal {}",
            report.completed + report.failed,
            path.display()
        );
    } else if !health.is_clean() {
        println!("[campaign] {}", health.render());
    }
    Campaign {
        harness,
        report: Some(report),
        preloaded,
        prior_artifacts,
        writer: Some(writer),
    }
}

/// A human-readable first-divergence summary between a journaled
/// artifact and its regeneration, for the checksum-mismatch report.
#[must_use]
pub fn diff_summary(name: &str, old: &str, new: &str) -> String {
    let o: Vec<&str> = old.lines().collect();
    let n: Vec<&str> = new.lines().collect();
    let mut differing = 0usize;
    let mut first = None;
    for i in 0..o.len().max(n.len()) {
        let a = o.get(i).copied();
        let b = n.get(i).copied();
        if a != b {
            differing += 1;
            if first.is_none() {
                first = Some(i);
            }
        }
    }
    match first {
        None => format!("  {name}: lines identical, trailing bytes differ"),
        Some(i) => format!(
            "  {name}: {differing} differing line(s), first at line {}:\n    before: {}\n    after:  {}",
            i + 1,
            o.get(i).copied().unwrap_or("<absent>"),
            n.get(i).copied().unwrap_or("<absent>"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_all_campaign_flags() {
        let args: Vec<String> = [
            "repro_all", "--quick", "--resume", "--journal", "/tmp/j.jsonl",
            "--max-cell-seconds", "2.5", "--jobs", "4", "--abort-after", "40",
            "--out-dir", "out",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let opts = CampaignOptions::parse(&args);
        assert!(opts.resume && opts.armed());
        assert_eq!(opts.journal_path(), PathBuf::from("/tmp/j.jsonl"));
        assert_eq!(opts.max_cell_seconds, Some(2.5));
        assert_eq!(opts.jobs, Some(4));
        assert_eq!(opts.abort_after, Some(40));
        assert_eq!(opts.out_dir, PathBuf::from("out"));

        let plain = CampaignOptions::parse(&["x".to_owned()]);
        assert!(!plain.armed(), "no campaign flags, no campaign");
        assert_eq!(plain.journal_path(), PathBuf::from("repro_out/campaign.jsonl"));
        let jobs_only = CampaignOptions::parse(&["x".to_owned(), "--jobs".to_owned(), "2".to_owned()]);
        assert!(!jobs_only.armed(), "--jobs alone only caps parallelism");
    }

    #[test]
    fn diff_summary_points_at_the_first_divergence() {
        let old = "alpha\nbeta\ngamma\n";
        let new = "alpha\nBETA\ngamma\ndelta\n";
        let s = diff_summary("table2.txt", old, new);
        assert!(s.contains("2 differing line(s)"), "{s}");
        assert!(s.contains("first at line 2"), "{s}");
        assert!(s.contains("before: beta"), "{s}");
        assert!(s.contains("after:  BETA"), "{s}");
    }
}
