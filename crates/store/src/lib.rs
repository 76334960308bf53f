//! `lhr-store`: a queryable columnar measurement database.
//!
//! The paper's findings and figures are, at heart, queries over a
//! `(configuration, workload, metrics)` cell table. This crate stores
//! every resolved cell in a compact columnar on-disk format and answers
//! declarative queries over it, so a new question about the data is a
//! query, not a new binary.
//!
//! Three pieces:
//!
//! * **The store** ([`Store`], [`store`] module) — in-memory columns
//!   over one append-only log with one CRC-sealed line and one fsync
//!   per upsert batch, a dictionary-encoded string table, and the
//!   structural config/workload fingerprints from `lhr_core::cache` as
//!   row keys with an in-memory index for O(1) dedup/upsert. Torn or
//!   corrupted tails are dropped (never panic) and repaired on open.
//! * **The query DSL** ([`dsl`] module) —
//!   `filter | project | group_by | agg | sort | limit | pareto` over a
//!   hand-rolled recursive-descent parser with typed byte positions.
//! * **Execution** ([`exec`] module) — a pull-based operator pipeline
//!   over the column data, deterministic end to end: a grouped `mean`
//!   over harness-ingested cells is bit-identical to the harness's own
//!   `arithmetic_mean` aggregation, which is what lets the paper's
//!   figure queries reproduce the committed artifacts byte for byte.
//!
//! Ingestion is wired through `lhr_core::CellSink`: attach a store to a
//! harness ([`Store`] implements the trait) and every resolved cell is
//! upserted on the measurement path, on the thread that measured it,
//! before the harness returns the cell. The upsert never changes a
//! measured value, but its one fsync is time the caller waits for (a
//! server's client included).
//!
//! ```
//! use lhr_store::{CellRow, Store};
//! # let dir = std::env::temp_dir().join(format!("lhr-store-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let store = Store::open(&dir).unwrap();
//! let harness = lhr_core::Harness::quick().with_cell_sink(std::sync::Arc::new(store));
//! let config = lhr_uarch::ChipConfig::stock(lhr_uarch::ProcessorId::Atom230.spec());
//! let _ = harness.try_evaluate_config(&config);
//! let store = Store::open(&dir).unwrap(); // reopen: the cells persisted
//! let table = store
//!     .query("group_by chip | agg mean(perf_norm), mean(watts)")
//!     .unwrap();
//! assert_eq!(table.rows.len(), 1);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dsl;
pub mod exec;
pub mod spanstore;
pub mod store;

pub use dsl::{parse, ParseError, Query};
pub use exec::{PlanError, QueryError, TableResult, Value};
pub use spanstore::{
    fragment_json, parse_fragment, stitch, summaries_json, tail_keep, tree_json, SamplingConfig,
    SpanNode, SpanQuery, SpanRecorder, SpanRow, SpanTable, TraceSummary,
};
pub use store::{column_index, CellRow, ColKind, ColumnSpec, Store, UpsertStats, SCHEMA};

impl Store {
    /// Parses and executes one query against the live rows.
    ///
    /// # Errors
    ///
    /// [`QueryError::Parse`] with a byte position for malformed text;
    /// [`QueryError::Plan`] when the query does not fit the schema.
    pub fn query(&self, text: &str) -> Result<TableResult, QueryError> {
        let query = dsl::parse(text).map_err(QueryError::Parse)?;
        self.with_live(|view| exec::execute(view, &query))
            .map_err(QueryError::Plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_obs::sealed::fnv64;

    fn row(chip: &str, workload: &str, group: &str, clock: f64, perf: f64, watts: f64) -> CellRow {
        CellRow {
            chip: chip.to_owned(),
            config: format!("{chip} @ {clock}"),
            workload: workload.to_owned(),
            group: group.to_owned(),
            config_fp: format!("{:016x}", fnv64(format!("{chip}{clock}").as_bytes())),
            workload_fp: format!("{:016x}", fnv64(workload.as_bytes())),
            node: 45.0,
            cores: 4.0,
            smt: 1.0,
            clock,
            turbo: 0.0,
            managed: f64::from(u8::from(group.starts_with("Java"))),
            seconds: 10.0 / perf,
            watts,
            joules: watts * 10.0 / perf,
            perf_norm: perf,
            energy_norm: watts / perf,
            epi: watts / (perf * 1e9),
        }
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lhr-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn upsert_dedups_and_survives_reopen() {
        let dir = tempdir("upsert");
        let store = Store::open(&dir).unwrap();
        let a = row("i7 (45)", "mcf", "Native Non-scalable", 2.66, 2.0, 30.0);
        let b = row("i7 (45)", "jess", "Java Non-scalable", 2.66, 3.0, 25.0);
        let stats = store.upsert(&[a.clone(), b.clone()]).unwrap();
        assert_eq!((stats.written, stats.deduped), (2, 0));
        // Identical rows are skipped entirely.
        let stats = store.upsert(std::slice::from_ref(&a)).unwrap();
        assert_eq!((stats.written, stats.deduped), (0, 1));
        // A changed row for the same key supersedes it.
        let mut a2 = a.clone();
        a2.watts = 31.0;
        let stats = store.upsert(&[a2.clone()]).unwrap();
        assert_eq!((stats.written, stats.deduped), (1, 0));
        assert_eq!(store.len(), 2);

        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        let t = reopened
            .query("filter workload == \"mcf\" | project watts")
            .unwrap();
        assert_eq!(t.rows, vec![vec![Value::Num(31.0)]]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queries_cover_every_operator() {
        let dir = tempdir("ops");
        let store = Store::open(&dir).unwrap();
        store
            .upsert(&[
                row("i7 (45)", "mcf", "Native Non-scalable", 2.66, 2.0, 30.0),
                row("i7 (45)", "jess", "Java Non-scalable", 2.66, 4.0, 26.0),
                row("Atom (45)", "mcf", "Native Non-scalable", 1.6, 0.5, 3.0),
                row("Atom (45)", "jess", "Java Non-scalable", 1.6, 0.7, 4.0),
            ])
            .unwrap();

        // filter + project + sort + limit.
        let t = store
            .query("filter perf_norm > 0.6 | project workload, perf_norm | sort perf_norm desc | limit 2")
            .unwrap();
        assert_eq!(t.columns, vec!["workload", "perf_norm"]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], Value::Str("jess".to_owned()));

        // group_by + agg: key order is deterministic (sorted).
        let t = store
            .query("group_by chip | agg mean(perf_norm), min(watts), max(watts), p50(watts), p95(watts)")
            .unwrap();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], Value::Str("Atom (45)".to_owned()));
        assert_eq!(t.rows[0][1], Value::Num((0.5 + 0.7) / 2.0));
        assert_eq!(t.rows[1][2], Value::Num(26.0));

        // Global agg without group_by.
        let t = store.query("agg max(perf_norm)").unwrap();
        assert_eq!(t.rows, vec![vec![Value::Num(4.0)]]);

        // pareto: maximize perf, minimize watts. The Atom rows are not
        // dominated (cheapest); the i7 jess row dominates the i7 mcf row.
        let t = store
            .query("project workload, chip, perf_norm, watts | pareto(perf_norm, watts)")
            .unwrap();
        let survivors: Vec<&Value> = t.rows.iter().map(|r| &r[1]).collect();
        assert_eq!(t.rows.len(), 3, "{survivors:?}");
        assert!(!t
            .rows
            .iter()
            .any(|r| r[0] == Value::Str("mcf".to_owned())
                && r[1] == Value::Str("i7 (45)".to_owned())));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_errors_are_typed_and_named() {
        let dir = tempdir("plan");
        let store = Store::open(&dir).unwrap();
        let e = store.query("project nope").unwrap_err();
        assert!(matches!(e, QueryError::Plan(_)), "{e}");
        assert!(e.to_string().contains("unknown column `nope`"));
        let e = store.query("filter chip == 3").unwrap_err();
        assert!(e.to_string().contains("compare to a string"));
        let e = store.query("group_by chip | limit 3").unwrap_err();
        assert!(e.to_string().contains("immediately followed"));
        let e = store.query("group_by chip").unwrap_err();
        assert!(e.to_string().contains("immediately followed"));
        let e = store.query("agg mean(chip)").unwrap_err();
        assert!(e.to_string().contains("not numeric"));
        let e = store.query("filter clock == ").unwrap_err();
        assert!(matches!(e, QueryError::Parse(_)), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn renders_are_deterministic_and_aligned() {
        let dir = tempdir("render");
        let store = Store::open(&dir).unwrap();
        store
            .upsert(&[row("i7 (45)", "mcf", "Native Non-scalable", 2.66, 2.0, 30.0)])
            .unwrap();
        let t = store.query("project chip, watts, perf_norm").unwrap();
        let text = t.render_text();
        assert!(text.starts_with("chip"));
        assert!(text.contains("30"));
        assert_eq!(text, store.query("project chip, watts, perf_norm").unwrap().render_text());
        let json = t.render_json();
        assert!(json.starts_with("{\"columns\":[\"chip\""));
        assert!(json.ends_with("]}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
