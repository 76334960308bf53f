//! The regenerator binaries reject an argument they do not accept with
//! a usage line and exit status 2, before any measurement starts.

use std::process::Command;

fn rejects(exe: &str, args: &[&str], unknown: &str) {
    let out = Command::new(exe).args(args).output().expect("spawn binary");
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unknown argument {unknown:?}")),
        "{stderr}"
    );
    assert!(stderr.contains("usage: "), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "nothing ran: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn a_mistyped_fidelity_flag_is_rejected() {
    rejects(env!("CARGO_BIN_EXE_repro_all"), &["--quik"], "--quik");
    rejects(
        env!("CARGO_BIN_EXE_findings"),
        &["--quick", "--jobs", "2"],
        "--jobs",
    );
    rejects(
        env!("CARGO_BIN_EXE_figure4"),
        &["--out-dir", "x", "quick"],
        "quick",
    );
    rejects(
        env!("CARGO_BIN_EXE_dataset"),
        &["--trace", "t.jsonl"],
        "--trace",
    );
    rejects(env!("CARGO_BIN_EXE_ablations"), &["-q"], "-q");
    rejects(
        env!("CARGO_BIN_EXE_retrospective"),
        &["--paper", "--resume"],
        "--resume",
    );
    rejects(env!("CARGO_BIN_EXE_calibrate"), &["--ful"], "--ful");
    rejects(
        env!("CARGO_BIN_EXE_lhr_queries_check"),
        &["--fast"],
        "--fast",
    );
}
