//! The batch log's line format and flush policy.
//!
//! Any row must survive `upsert` and a reopen with every string intact
//! and every `f64` bit-identical, in the same scan order -- whatever the
//! strings hold (the line's own delimiters, quotes, control and
//! multi-byte characters) and whatever the numbers' bits are. And an
//! upsert costs exactly one fsync per written batch, none for
//! duplicates.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use lhr_store::{CellRow, Store, Value, SCHEMA};
use proptest::prelude::*;

fn tempdir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lhr-store-log-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What string fields are built from: the log line's own syntax, JSON
/// escapes, control characters and multi-byte UTF-8.
const FRAGMENTS: [&str; 22] = [
    "a",
    " ",
    "\"",
    "\\",
    ",",
    "]",
    "}",
    "[",
    "\"chip\":[",
    "\"s\":[\"",
    "],\"n\":",
    "{\"r\":0",
    ",\"crc\":\"",
    "\u{0}",
    "\u{1f}",
    "\n",
    "\r",
    "\t",
    "\u{7f}",
    "é",
    "\u{2028}",
    "🦀",
];

/// Numbers drawn besides arbitrary bits: signed zeros, subnormals, the
/// extremes, infinities and NaNs with and without payloads.
const SPECIALS: [f64; 11] = [
    -0.0,
    0.0,
    5e-324,
    f64::MIN_POSITIVE / 3.0,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
];

/// Row `i` from its draws: string field `k` joins every sixth fragment
/// pick from `k`; number `k` is `SPECIALS[pick]` or else `bits[k]`.
fn drawn_row(i: usize, picks: &[usize], bits: &[u64], specials: &[usize]) -> CellRow {
    let text = |k: usize| -> String {
        picks
            .iter()
            .skip(k)
            .step_by(6)
            .map(|&p| FRAGMENTS[p])
            .collect()
    };
    let num = |k: usize| {
        SPECIALS
            .get(specials[k])
            .copied()
            .unwrap_or(f64::from_bits(bits[k]))
    };
    CellRow {
        chip: text(0),
        config: text(1),
        workload: text(2),
        group: text(3),
        // Unique per row, so every row stays live.
        config_fp: format!("{}#{i}", text(4)),
        workload_fp: text(5),
        node: num(0),
        cores: num(1),
        smt: num(2),
        clock: num(3),
        turbo: num(4),
        managed: num(5),
        seconds: num(6),
        watts: num(7),
        joules: num(8),
        perf_norm: num(9),
        energy_norm: num(10),
        epi: num(11),
    }
}

fn values(row: &CellRow) -> Vec<Value> {
    let s = |v: &String| Value::Str(v.clone());
    vec![
        s(&row.chip),
        s(&row.config),
        s(&row.workload),
        s(&row.group),
        s(&row.config_fp),
        s(&row.workload_fp),
        Value::Num(row.node),
        Value::Num(row.cores),
        Value::Num(row.smt),
        Value::Num(row.clock),
        Value::Num(row.turbo),
        Value::Num(row.managed),
        Value::Num(row.seconds),
        Value::Num(row.watts),
        Value::Num(row.joules),
        Value::Num(row.perf_norm),
        Value::Num(row.energy_norm),
        Value::Num(row.epi),
    ]
}

/// Every live row, every column, in scan order.
fn scan(store: &Store) -> Vec<Vec<Value>> {
    let names: Vec<&str> = SCHEMA.iter().map(|c| c.name).collect();
    store
        .query(&format!("project {}", names.join(", ")))
        .expect("projecting every column")
        .rows
}

/// Equal strings, and numbers with equal bits.
fn identical(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|pair| match pair {
            (Value::Str(x), Value::Str(y)) => x == y,
            (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
            _ => false,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rows_survive_upsert_and_reopen_bit_exactly(
        cells in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..FRAGMENTS.len(), 0..30),
                proptest::collection::vec(any::<u64>(), 12..13),
                proptest::collection::vec(0usize..2 * SPECIALS.len(), 12..13),
            ),
            1..6,
        ),
        split in 0usize..6,
    ) {
        let rows: Vec<CellRow> = cells
            .iter()
            .enumerate()
            .map(|(i, (picks, bits, specials))| drawn_row(i, picks, bits, specials))
            .collect();
        let want: Vec<Vec<Value>> = rows.iter().map(values).collect();
        let dir = tempdir("prop");
        let store = Store::open(&dir).unwrap();
        // Two batches, so dictionary ids continue across lines.
        let (first, second) = rows.split_at(split.min(rows.len()));
        store.upsert(first).unwrap();
        store.upsert(second).unwrap();
        let live = scan(&store);
        prop_assert!(live.len() == want.len() && live.iter().zip(&want).all(|(a, b)| identical(a, b)));
        drop(store);

        let reopened = Store::open(&dir).unwrap();
        let back = scan(&reopened);
        prop_assert!(
            back.len() == want.len() && back.iter().zip(&want).all(|(a, b)| identical(a, b)),
            "reopened rows differ: {:?} vs {:?}", back, want
        );
        // Bits that round-trip also dedup: nothing is written again.
        let log = std::fs::read(dir.join("cells.jsonl")).unwrap();
        let again = reopened.upsert(&rows).unwrap();
        prop_assert_eq!((again.written, again.syncs), (0, 0));
        prop_assert_eq!(std::fs::read(dir.join("cells.jsonl")).unwrap(), log);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn plain_row(i: usize) -> CellRow {
    CellRow {
        chip: "i7 (45)".to_owned(),
        config: format!("i7 (45) config {i}"),
        workload: "xalan".to_owned(),
        group: "Java Scalable".to_owned(),
        config_fp: format!("{i:016x}"),
        workload_fp: "00000000000000aa".to_owned(),
        node: 45.0,
        cores: 4.0,
        smt: 1.0,
        clock: 2.66,
        turbo: 0.0,
        managed: 1.0,
        seconds: 1.0 + i as f64,
        watts: 40.0,
        joules: 40.0 * (1.0 + i as f64),
        perf_norm: 2.0,
        energy_norm: 1.5,
        epi: 1e-9,
    }
}

#[test]
fn every_written_batch_costs_one_fsync_and_duplicates_none() {
    let dir = tempdir("syncs");
    let log = dir.join("cells.jsonl");
    let store = Store::open(&dir).unwrap();
    assert!(!log.exists(), "opening writes nothing");

    // The first batch creates the log: its fsync plus the directory's.
    let created = store.upsert(&[plain_row(0)]).unwrap();
    assert_eq!((created.written, created.syncs), (1, 2));

    // One row with a new config fingerprint, so it adds dictionary
    // strings: one fsync (the per-column layout made 19).
    let before = std::fs::read_to_string(&log).unwrap();
    let one = store.upsert(&[plain_row(1)]).unwrap();
    assert_eq!((one.written, one.syncs), (1, 1));
    let after = std::fs::read_to_string(&log).unwrap();
    let line = &after[before.len()..];
    assert_eq!(line.matches('\n').count(), 1, "one line per batch: {line}");
    assert!(!line.contains("\"s\":[]"), "the batch adds strings: {line}");

    // A sweep-sized batch: still one line and one fsync.
    let sweep: Vec<CellRow> = (100..161).map(plain_row).collect();
    let batch = store.upsert(&sweep).unwrap();
    assert_eq!((batch.written, batch.syncs), (61, 1));

    // All duplicates: no fsync, and the log does not grow.
    let len = std::fs::metadata(&log).unwrap().len();
    let dup = store.upsert(&sweep).unwrap();
    assert_eq!((dup.written, dup.deduped, dup.syncs), (0, 61, 0));
    assert_eq!(std::fs::metadata(&log).unwrap().len(), len);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_routed_cell_upsert_syncs_once() {
    // The row a backend's sink writes for one never-seen cell, into a
    // store that already holds rows.
    let dir = tempdir("routed");
    let store = Store::open(&dir).unwrap();
    store.upsert(&[plain_row(0)]).unwrap();
    let config = lhr_uarch::ChipConfig::stock(lhr_uarch::ProcessorId::CoreI7_920.spec());
    let workload = lhr_workloads::by_name("xalan").unwrap();
    let (eval, _) = lhr_core::Harness::quick()
        .try_evaluate_workload(&config, workload)
        .unwrap();
    let stats = store
        .upsert(&[CellRow::from_evaluation(&config, &eval)])
        .unwrap();
    assert_eq!((stats.written, stats.syncs), (1, 1));
    let _ = std::fs::remove_dir_all(&dir);
}
