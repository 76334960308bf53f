//! Crash-safety properties of the on-disk store.
//!
//! The batch log: a last line cut at *any* byte offset, a flipped CRC
//! digit, or a replayed line must never panic a reopen, must never lose
//! rows from earlier sealed batches, and must leave the store writable --
//! the repair rewrites the log from its surviving prefix and appends
//! continue from it.
//!
//! The per-column layout that stores used before the log: the committed
//! fixtures under `tests/fixtures/` were written by that code. They open
//! with the same rows, scan order and query bytes they had, migrate into
//! the log, and the old layout's torn-tail and CRC rules still hold on
//! the way. Opening migrates a store, so every test works on a copy.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use lhr_store::{CellRow, Store, SCHEMA};

fn row(chip: &str, workload: &str, clock: f64, watts: f64) -> CellRow {
    CellRow {
        chip: chip.to_owned(),
        config: format!("{chip} @ {clock}"),
        workload: workload.to_owned(),
        group: "Native Non-scalable".to_owned(),
        config_fp: format!("{:016x}", (clock * 1e6) as u64 ^ chip.len() as u64),
        workload_fp: format!("{:016x}", workload.len() as u64),
        node: 45.0,
        cores: 4.0,
        smt: 1.0,
        clock,
        turbo: 0.0,
        managed: 0.0,
        seconds: 10.0,
        watts,
        joules: watts * 10.0,
        perf_norm: 1.5,
        energy_norm: watts / 1.5,
        epi: watts * 1e-9,
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lhr-store-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Every file in `dir`, keyed by name.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        files.insert(name, std::fs::read(entry.path()).unwrap());
    }
    files
}

/// The legacy fixture's files: the two sealed batches (3 + 2 rows) the
/// old recovery tests built.
fn pristine() -> BTreeMap<String, Vec<u8>> {
    let files = snapshot(&fixture("legacy_two_batches"));
    assert_eq!(files.len(), 19, "strings.jsonl plus one file per column");
    files
}

/// Makes `dir` hold exactly `files`, with `target` replaced by `bytes`.
fn restore_with(dir: &Path, files: &BTreeMap<String, Vec<u8>>, target: &str, bytes: &[u8]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    for (name, content) in files {
        let data = if name == target {
            bytes
        } else {
            content.as_slice()
        };
        std::fs::write(dir.join(name), data).unwrap();
    }
}

/// The byte offset where the final line of `bytes` starts.
fn last_line_start(bytes: &[u8]) -> usize {
    let end = bytes.len().saturating_sub(1); // skip the trailing newline
    bytes[..end]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1)
}

/// `bytes` with one digit inside its final line's CRC flipped.
fn flip_last_crc_digit(bytes: &[u8]) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    let tail = last_line_start(&bytes);
    let crc_at = tail
        + String::from_utf8_lossy(&bytes[tail..])
            .find("\"crc\":")
            .expect("sealed line carries a crc");
    let digit = crc_at + 8;
    bytes[digit] = if bytes[digit] == b'0' { b'1' } else { b'0' };
    bytes
}

/// The query bytes a fixture's `.expected` file pins: every column of
/// every live row in scan order (JSON), and the three stored queries
/// (text and JSON).
fn rendered(store: &Store) -> String {
    let queries = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../queries");
    let names: Vec<&str> = SCHEMA.iter().map(|c| c.name).collect();
    let mut list = vec![("rows".to_owned(), format!("project {}", names.join(", ")))];
    for q in [
        "finding_power_range",
        "finding_managed_epi_smt",
        "pareto_power_perf",
    ] {
        let text = std::fs::read_to_string(queries.join(format!("{q}.lhq"))).unwrap();
        list.push((q.to_owned(), text));
    }
    let mut out = String::new();
    for (name, q) in list {
        let t = store.query(&q).unwrap();
        if name != "rows" {
            out.push_str(&format!("== {name} text\n{}", t.render_text()));
        }
        out.push_str(&format!("== {name} json\n{}\n", t.render_json()));
    }
    out
}

/// Whether `dir` holds the log and nothing of the per-column layout.
fn holds_only_the_log(dir: &Path) -> bool {
    let names: Vec<String> = snapshot(dir).into_keys().collect();
    names == ["cells.jsonl"]
}

// ---------------------------------------------------------------------
// The batch log
// ---------------------------------------------------------------------

/// Builds a store with two sealed batches (3 + 2 rows) through the log
/// and returns the log's bytes.
fn pristine_log(dir: &Path) -> Vec<u8> {
    let store = Store::open(dir).unwrap();
    store
        .upsert(&[
            row("i7 (45)", "mcf", 2.66, 30.0),
            row("i7 (45)", "jess", 2.66, 28.0),
            row("i7 (45)", "lusearch", 2.66, 33.0),
        ])
        .unwrap();
    store
        .upsert(&[
            row("Atom (45)", "mcf", 1.66, 2.0),
            row("Atom (45)", "jess", 1.66, 2.2),
        ])
        .unwrap();
    assert_eq!(store.len(), 5);
    drop(store);
    assert!(holds_only_the_log(dir), "one log file per store");
    let log = std::fs::read(dir.join("cells.jsonl")).unwrap();
    assert_eq!(
        log.iter().filter(|&&b| b == b'\n').count(),
        2,
        "one line per batch"
    );
    log
}

#[test]
fn log_cut_at_every_byte_offset_keeps_earlier_batches_and_stays_writable() {
    let dir = tempdir("log-torn");
    let full = pristine_log(&dir);
    let tail = last_line_start(&full);
    // From "line fully removed" up to "only the newline missing": a line
    // counts only once it is whole, so the second batch always goes.
    for cut in tail..full.len() {
        std::fs::write(dir.join("cells.jsonl"), &full[..cut]).unwrap();
        let store = Store::open(&dir)
            .unwrap_or_else(|e| panic!("reopen after cutting the log at {cut}: {e}"));
        assert_eq!(store.len(), 3, "cutting the log at {cut}");
        assert_eq!(
            std::fs::read(dir.join("cells.jsonl")).unwrap(),
            &full[..tail],
            "the repair rewrites the log to its surviving prefix (cut at {cut})"
        );
        // The repaired store takes a new batch that survives a reopen:
        // nothing glues onto a torn or newline-less tail.
        store.upsert(&[row("i5 (32)", "mcf", 3.46, 20.0)]).unwrap();
        drop(store);
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.len(), 4, "append after cutting the log at {cut}");
        let t = reopened
            .query("filter workload == \"lusearch\" | project chip, watts")
            .unwrap();
        assert_eq!(
            t.rows.len(),
            1,
            "batch-one row lost cutting the log at {cut}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flipped_log_crc_digit_drops_only_its_batch() {
    let dir = tempdir("log-crc");
    let full = pristine_log(&dir);
    std::fs::write(dir.join("cells.jsonl"), flip_last_crc_digit(&full)).unwrap();
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.len(), 3, "the bad-CRC batch must be dropped whole");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_replayed_log_line_is_not_contiguous_and_is_dropped() {
    let dir = tempdir("log-replay");
    let full = pristine_log(&dir);
    // The first batch appended again: it verifies, but starts at row 0.
    let mut replayed = full.clone();
    replayed.extend_from_slice(&full[..last_line_start(&full)]);
    std::fs::write(dir.join("cells.jsonl"), &replayed).unwrap();
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.len(), 5);
    drop(store);
    assert_eq!(std::fs::read(dir.join("cells.jsonl")).unwrap(), full);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Stores in the per-column layout
// ---------------------------------------------------------------------

#[test]
fn legacy_stores_migrate_with_the_same_rows_order_and_query_bytes() {
    for name in ["legacy_store", "legacy_two_batches"] {
        let expected = std::fs::read_to_string(fixture(&format!("{name}.expected"))).unwrap();
        let dir = tempdir(&format!("migrate-{name}"));
        restore_with(&dir, &snapshot(&fixture(name)), "", b"");
        let store = Store::open(&dir).unwrap();
        assert_eq!(rendered(&store), expected, "{name} as migrated");
        assert!(holds_only_the_log(&dir), "{name}: the old files are gone");
        // Superseded versions move too: the log's one batch holds every
        // row the old files appended, live or not.
        let old_files = snapshot(&fixture(name));
        let appended: usize = String::from_utf8_lossy(&old_files["col_chip.jsonl"])
            .lines()
            .map(|line| {
                let n = line.split("\"n\":").nth(1).unwrap();
                n[..n.find(',').unwrap()].parse::<usize>().unwrap()
            })
            .sum();
        let log = std::fs::read_to_string(dir.join("cells.jsonl")).unwrap();
        assert_eq!(log.lines().count(), 1, "{name} migrates as one batch");
        assert!(
            log.starts_with(&format!("{{\"r\":0,\"n\":{appended},")),
            "{name}: {appended} appended rows expected, {} live",
            store.len()
        );
        drop(store);
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(
            rendered(&reopened),
            expected,
            "{name} reopened from the log"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn the_log_wins_over_leftover_legacy_files() {
    // A crash after the migrated log was written but before the old
    // files were deleted: the next open trusts the log and deletes them.
    let dir = tempdir("leftovers");
    let files = snapshot(&fixture("legacy_store"));
    restore_with(&dir, &files, "", b"");
    let expected = rendered(&Store::open(&dir).unwrap());
    let log = std::fs::read(dir.join("cells.jsonl")).unwrap();
    for (name, bytes) in &files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let store = Store::open(&dir).unwrap();
    assert_eq!(rendered(&store), expected);
    assert!(holds_only_the_log(&dir));
    assert_eq!(std::fs::read(dir.join("cells.jsonl")).unwrap(), log);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_at_every_byte_offset_never_panics_and_keeps_earlier_rows() {
    let dir = tempdir("torn");
    let files = pristine();
    let column_files: Vec<&String> = files.keys().filter(|n| n.starts_with("col_")).collect();
    assert_eq!(column_files.len(), 18, "one segment file per schema column");

    for name in column_files {
        let full = &files[name.as_str()];
        let tail = last_line_start(full);
        // Cut the final sealed batch line at every byte offset, from
        // "line fully removed" up to "only the newline missing".
        for cut in tail..full.len() {
            restore_with(&dir, &files, name, &full[..cut]);
            let store = Store::open(&dir)
                .unwrap_or_else(|e| panic!("reopen after cutting {name} at {cut}: {e}"));
            // The first sealed batch must always survive; the second
            // may survive only when the cut left the line intact
            // (cutting just the newline can still parse).
            assert!(
                store.len() == 3 || store.len() == 5,
                "cutting {name} at {cut} left {} rows",
                store.len()
            );
            let t = store
                .query("filter workload == \"lusearch\" | project chip, watts")
                .unwrap_or_else(|e| panic!("query after cutting {name} at {cut}: {e}"));
            assert_eq!(
                t.rows.len(),
                1,
                "batch-one row lost cutting {name} at {cut}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_crc_drops_only_the_damaged_batch() {
    let dir = tempdir("crc");
    let files = pristine();
    let name = "col_watts.jsonl";
    restore_with(&dir, &files, name, &flip_last_crc_digit(&files[name]));

    let store = Store::open(&dir).unwrap();
    assert_eq!(store.len(), 3, "the bad-CRC batch must be dropped whole");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_damaged_store_remains_writable_and_the_repair_sticks() {
    let dir = tempdir("repair");
    let files = pristine();
    let name = "col_clock.jsonl";
    let full = &files[name];
    restore_with(&dir, &files, name, &full[..full.len() - 7]);

    let store = Store::open(&dir).unwrap();
    assert_eq!(store.len(), 3);
    // Appending after the repair works, and the new batch survives a
    // clean reopen -- the damaged store was migrated, not left torn.
    store.upsert(&[row("i5 (32)", "mcf", 3.46, 20.0)]).unwrap();
    assert_eq!(store.len(), 4);
    drop(store);
    assert!(holds_only_the_log(&dir));
    let reopened = Store::open(&dir).unwrap();
    assert_eq!(reopened.len(), 4);
    let t = reopened
        .query("filter chip == \"i5 (32)\" | project watts")
        .unwrap();
    assert_eq!(t.rows.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_dictionary_never_panics() {
    let dir = tempdir("dict");
    let files = pristine();
    let full = &files["strings.jsonl"];
    let tail = last_line_start(full);
    for cut in tail..full.len() {
        restore_with(&dir, &files, "strings.jsonl", &full[..cut]);
        let store = Store::open(&dir)
            .unwrap_or_else(|e| panic!("reopen after cutting strings.jsonl at {cut}: {e}"));
        // Rows whose strings survived are still queryable; rows whose
        // dictionary ids dangle must be dropped, never fabricated.
        assert!(store.len() <= 5, "cut at {cut} grew the store");
        let _ = store.query("group_by chip | agg mean(watts)").unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
