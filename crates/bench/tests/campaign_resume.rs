//! The kill-and-resume guarantee, end to end against the real
//! `repro_all` binary: a campaign aborted mid-flight and resumed from
//! its journal regenerates **byte-identical** artifacts to an
//! uninterrupted run -- even with a torn journal tail from the "crash".
//!
//! This is the reproduction's version of the paper's multi-day
//! measurement campaign surviving a power cut at hour 40.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory unique to this test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lhr-resume-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs the `repro_all` binary with `args`, returning its exit code.
fn repro_all(args: &[&str]) -> i32 {
    let status = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .status()
        .expect("spawn repro_all");
    status.code().expect("exit code")
}

/// The experiment artifacts in a directory, name -> bytes.
fn artifacts(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("read out dir")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".txt"))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).expect("read artifact"),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn killed_campaign_resumes_to_byte_identical_artifacts() {
    let interrupted = scratch("interrupted");
    let fresh = scratch("fresh");
    let journal = interrupted.join("campaign.jsonl");
    let journal_arg = journal.to_string_lossy().into_owned();
    let interrupted_arg = interrupted.to_string_lossy().into_owned();
    let fresh_arg = fresh.to_string_lossy().into_owned();

    // 1. Start the campaign and "crash" it after 40 cells: the driver
    //    aborts deterministically and exits with the aborted code.
    let code = repro_all(&[
        "--quick",
        "--out-dir",
        &interrupted_arg,
        "--journal",
        &journal_arg,
        "--abort-after",
        "40",
    ]);
    assert_eq!(code, 3, "an aborted campaign must exit with code 3");
    assert!(journal.exists(), "the journal survives the crash");
    let journal_text = fs::read_to_string(&journal).expect("read journal");
    let lines_before = journal_text.lines().count();
    assert!(
        lines_before >= 40,
        "at least the header plus ~40 cells journaled, got {lines_before}"
    );
    assert!(
        artifacts(&interrupted).is_empty(),
        "the crash hit before the artifact phase"
    );

    // 2. Tear the journal's tail, as a crash mid-append would: the last
    //    record loses its end (and with it, its checksum).
    let torn = &journal_text[..journal_text.len() - 30];
    fs::write(&journal, torn).expect("tear journal tail");

    // 3. Resume: the journal replays (minus the torn record), the
    //    missing cells re-execute, and the artifacts get written.
    let code = repro_all(&[
        "--quick",
        "--out-dir",
        &interrupted_arg,
        "--journal",
        &journal_arg,
        "--resume",
    ]);
    assert_eq!(code, 0, "the resumed campaign completes cleanly");
    let resumed = artifacts(&interrupted);
    assert_eq!(resumed.len(), 16, "all sixteen experiments rendered");
    let resumed_journal = fs::read_to_string(&journal).expect("read journal");
    assert!(
        resumed_journal.lines().count() > lines_before,
        "resume appended the remaining cells to the same journal"
    );

    // 4. An uninterrupted run from nothing produces the same bytes:
    //    interruption cost wall-clock time, never data.
    let code = repro_all(&["--quick", "--out-dir", &fresh_arg]);
    assert_eq!(code, 0, "the fresh campaign completes cleanly");
    let baseline = artifacts(&fresh);
    assert_eq!(baseline.len(), 16);
    for ((name_a, bytes_a), (name_b, bytes_b)) in baseline.iter().zip(&resumed) {
        assert_eq!(name_a, name_b);
        assert_eq!(
            bytes_a, bytes_b,
            "{name_a}: resumed artifact must be byte-identical to the uninterrupted run"
        );
    }

    // 5. Resuming a *completed* campaign is a fast no-op replay that
    //    re-verifies every artifact checksum against the journal. It
    //    measures nothing, so it journals no cell: the first record the
    //    step-3 resume appended after the torn tail must have survived.
    let cell_lines = |text: &str| text.lines().filter(|l| l.starts_with("{\"cell\":")).count();
    let cells_before = cell_lines(&resumed_journal);
    let code = repro_all(&[
        "--quick",
        "--out-dir",
        &interrupted_arg,
        "--journal",
        &journal_arg,
        "--resume",
    ]);
    assert_eq!(code, 0, "re-resume verifies checksums and stays clean");
    assert_eq!(
        cell_lines(&fs::read_to_string(&journal).expect("read journal")),
        cells_before,
        "re-resuming a completed campaign journals no cell"
    );

    fs::remove_dir_all(&interrupted).ok();
    fs::remove_dir_all(&fresh).ok();
}
