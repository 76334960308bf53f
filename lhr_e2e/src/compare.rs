//! `lhr_e2e --compare A B`: for each workload and metric, the median
//! and quartiles of each side's runs (records appended by `--out`) and,
//! for end-to-end metrics, a verdict against the metric's bound in
//! `BENCHMARK.json`:
//!
//! - `worse`: B's median is worse than A's by more than the bound, and
//!   the runs resolve it (both spreads within the bound, or every B run
//!   worse than every A run);
//! - `better`: the same, the other way;
//! - `unresolved`: a spread is wider than the bound and the runs do not
//!   separate;
//! - `agree`: otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::report::Outcome;
use crate::stats;

/// How an end-to-end metric may move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` bounds of a `BENCHMARK.json`.
pub fn bounds(text: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = json::parse(text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let better = m.text("better")?;
            if better != "lower" && better != "higher" {
                return Err(format!("better must be lower or higher, got {better:?}"));
            }
            Ok((
                m.text("name")?.to_owned(),
                Bound {
                    lower_is_better: better == "lower",
                    bound: m.num("bound")?,
                },
            ))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on B against A for one metric.
pub fn verdict(a: &[f64], b: &[f64], bound: Bound) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse_by = if bound.lower_is_better {
        change
    } else {
        -change
    };
    let within = |v: &[f64]| stats::relative_spread(v) <= bound.bound;
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    // Every B run on the worse (or better) side of every A run.
    let (b_all_worse, b_all_better) = if bound.lower_is_better {
        (min(b) > max(a), max(b) < min(a))
    } else {
        (max(b) < min(a), min(b) > max(a))
    };
    let resolved = within(a) && within(b);
    if worse_by > bound.bound {
        if resolved || b_all_worse {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if -worse_by > bound.bound && (resolved || b_all_better) {
        Verdict::Better
    } else if resolved || b_all_better {
        Verdict::Agree
    } else {
        Verdict::Unresolved
    }
}

fn load(path: &Path) -> Result<Vec<Outcome>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(Outcome::from_record)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", path.display()))
}

type Series = BTreeMap<(String, String), (String, Vec<f64>)>;

fn series(outcomes: &[Outcome]) -> Series {
    let mut out: Series = BTreeMap::new();
    for o in outcomes {
        for m in &o.metrics {
            out.entry((o.workload.clone(), m.name.clone()))
                .or_insert_with(|| (m.unit.clone(), Vec::new()))
                .1
                .push(m.value);
        }
    }
    out
}

/// Compares two result files; returns the report and whether every
/// end-to-end verdict is `agree` or `better` with no failed operation.
pub fn compare(a: &Path, b: &Path, bench: &Path) -> Result<(String, bool), String> {
    let text = std::fs::read_to_string(bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let bounds = bounds(&text)?;
    let (ra, rb) = (load(a)?, load(b)?);
    let (sa, sb) = (series(&ra), series(&rb));
    let mut ok = true;
    let mut out = String::new();
    let mut workloads: Vec<&str> = ra.iter().map(|o| o.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    for w in &workloads {
        let tally = |rs: &[Outcome]| {
            rs.iter()
                .filter(|o| o.workload == *w)
                .fold((0, 0, 0), |(n, att, f), o| {
                    (n + 1, att + o.attempted, f + o.failed)
                })
        };
        let (na, atta, fa) = tally(&ra);
        let (nb, attb, fb) = tally(&rb);
        ok &= fa == 0 && fb == 0 && nb > 0;
        out.push_str(&format!(
            "{w}: A {na} runs, failed {fa}/{atta}; B {nb} runs, failed {fb}/{attb}\n"
        ));
        for ((_, metric), (unit, va)) in sa.iter().filter(|((wl, _), _)| wl == w) {
            let Some((_, vb)) = sb.get(&(w.to_string(), metric.clone())) else {
                out.push_str(&format!("  {metric:<36} missing from B\n"));
                ok = false;
                continue;
            };
            let [a1, a2, a3] = stats::quartiles(va);
            let [b1, b2, b3] = stats::quartiles(vb);
            let change = if a2 == 0.0 {
                0.0
            } else {
                (b2 - a2) / a2.abs() * 100.0
            };
            let (bound_txt, verdict_txt) = match bounds.get(metric) {
                Some(&bound) => {
                    let v = verdict(va, vb, bound);
                    ok &= matches!(v, Verdict::Agree | Verdict::Better);
                    (format!("{:.0}%", bound.bound * 100.0), v.as_str())
                }
                None => ("-".to_owned(), "info"),
            };
            out.push_str(&format!(
                "  {metric:<36} A {a2:>12.4} [{a1:.4}, {a3:.4}]  B {b2:>12.4} [{b1:.4}, {b3:.4}] {unit:<6} {change:>+7.2}%  bound {bound_txt:<4} {verdict_txt}\n"
            ));
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        lower_is_better: true,
        bound: 0.1,
    };
    const HIGHER: Bound = Bound {
        lower_is_better: false,
        bound: 0.1,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9];
        assert_eq!(verdict(&a, &[10.2, 10.0, 10.3], LOWER), Verdict::Agree);
        assert_eq!(verdict(&a, &[12.0, 12.1, 11.9], LOWER), Verdict::Worse);
        assert_eq!(verdict(&a, &[12.0, 12.1, 11.9], HIGHER), Verdict::Better);
        assert_eq!(verdict(&a, &[8.0, 8.1, 7.9], HIGHER), Verdict::Worse);
        // B's runs straddle A's and spread past the bound.
        assert_eq!(verdict(&a, &[6.0, 10.0, 16.0], LOWER), Verdict::Unresolved);
        // Wide spread, but every B run beats every A run.
        assert_eq!(verdict(&a, &[5.0, 7.0, 9.5], LOWER), Verdict::Better);
        // Wide spread and worse, but every B run is worse: resolved.
        assert_eq!(verdict(&a, &[11.0, 14.0, 19.0], LOWER), Verdict::Worse);
    }

    #[test]
    fn reads_bounds_from_benchmark_json() {
        let b = bounds(r#"{"end_to_end":[{"name":"x","unit":"s","better":"lower","bound":0.2}]}"#)
            .unwrap();
        assert_eq!(
            b["x"],
            Bound {
                lower_is_better: true,
                bound: 0.2
            }
        );
        assert!(
            bounds(r#"{"end_to_end":[{"name":"x","unit":"s","better":"up","bound":0.2}]}"#)
                .is_err()
        );
    }
}
