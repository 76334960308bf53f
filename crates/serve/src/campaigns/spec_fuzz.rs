//! Fuzzes the campaign submission parser: `POST /v1/campaigns` query
//! strings through [`read_request`], [`CampaignSpec::from_request`] and
//! the grid resolution ([`CampaignSpec::resolve`]).
//!
//! Inputs are token soup (keys and values drawn from spec-shaped
//! fragments, separators, percent escapes, numbers at and past every
//! bound, and multi-byte characters) and a valid spec with one field
//! replaced, removed or cut, or the whole query cut. The properties:
//!
//! - no input panics;
//! - every rejection is a typed 4xx: `400` from the parser, `400` or
//!   `404` from the resolution, each with a JSON error code;
//! - every accepted spec is valid: its tenant, weight and quota are in
//!   range, it names at least one chip, and it resolves to one unit per
//!   chip and workload, on a configuration its chip can run at a clock
//!   inside the chip's range, and an `NCxT@GHz` descriptor resolves to
//!   `N` cores of `x` hardware threads each;
//! - the valid spec parses to the fields it was built from, and
//!   removing an optional field gives that field's default.

use std::io::Cursor;

use proptest::prelude::*;

use lhr_core::Harness;

use super::{CampaignSpec, Lane};
use crate::handlers::chip_by_token;
use crate::http::{read_request, Response};

/// SplitMix64, for drawing an input's parts from one sampled seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Parameter names: the spec's own, near misses, and junk.
const KEYS: &[&str] = &[
    "tenant", "priority", "weight", "quota", "chips", "config", "workloads", "chip", "turbo",
    "Tenant", "chips%20", "ch%69ps", "", "x", "%",
];

/// Value fragments.
const VALUES: &[&str] = &[
    "", "team-a", "a_b-9", "default", "abcdefghijklmnopqrstuvwxyz012345",
    "abcdefghijklmnopqrstuvwxyz0123456", "tenant with space", "t%C3%A9", "é", "high", "normal", "HIGH", "low", "1", "0", "-1", "2.5", "100", "100.0000001", "1000", "1001",
    "1e-320", "1e309", "inf", "-inf", "NaN", "nan", "0x10", "+3", "i7-45", "atom", "C2D (45)",
    "c2d-45", "p4", "i5-32", "atomd-45", "gpu", ",", ",,", "i7-45,atom-45", "stock", "STOCK",
    "2C1T@1.6", "4c2t@2.66", "1C1T@0.8", "1C2T@1.66", "0C1T@1.6", "9C1T@1.6", "2C0T@1.6",
    "4C7T@2.66", "2C3T@1.6", "1C2T@2.4",
    "2C1T@nan", "2C1T@inf", "2C1T@-1", "2C1T@1e-300", "2C1T@", "@1.6", "C1T@1.6", "2CT@1.6",
    "2C1T1.6", "2C1T@@1.6", "db", "jess", "db,jess", "mcf,hmmer,", "nosuch", "%2C", "%zz", "%",
    "%00", "%ff", "+", "=", "&", "?", "#",
];

/// Draws a query string of up to seven `key=value` pairs.
fn soup(g: &mut Gen) -> String {
    let pairs = g.below(8);
    let mut query = String::new();
    for p in 0..pairs {
        if p > 0 {
            query.push_str(g.pick(&["&", "&", "&", "&&", ";"]));
        }
        query.push_str(g.pick(KEYS));
        if g.below(8) != 0 {
            query.push('=');
        }
        for v in 0..g.below(4) {
            if v > 0 {
                query.push_str(g.pick(&[",", "", "%2C", "+"]));
            }
            query.push_str(g.pick(VALUES));
        }
    }
    query
}

/// A valid submission, field by field.
const BASE: [(&str, &str); 7] = [
    ("tenant", "team-a"),
    ("priority", "high"),
    ("weight", "2.5"),
    ("quota", "16"),
    ("chips", "i7-45,c2d-45"),
    ("config", "2C1T@1.6"),
    ("workloads", "db,jess"),
];

fn join(pairs: &[(&str, String)]) -> String {
    pairs.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join("&")
}

/// What a query string came to.
#[derive(Debug)]
enum Outcome {
    /// The request head itself was refused (the HTTP fuzz covers this).
    Unparsed,
    /// A typed rejection.
    Refused(u16),
    /// An accepted spec and the units it resolved to.
    Accepted(CampaignSpec, usize),
}

/// Submits `query` the way the server reads it and checks every
/// property; returns what happened.
fn submit(harness: &Harness, query: &str) -> Outcome {
    let head = format!("POST /v1/campaigns?{query} HTTP/1.1\r\nHost: lhr\r\n\r\n");
    let Ok(req) = read_request(&mut Cursor::new(head.as_bytes())) else {
        return Outcome::Unparsed;
    };
    let spec = match CampaignSpec::from_request(&req) {
        Ok(spec) => spec,
        Err(refusal) => return Outcome::Refused(typed(&refusal, &[400], query)),
    };
    check_spec(&spec, query);
    match spec.resolve(harness) {
        Err(refusal) => Outcome::Refused(typed(&refusal, &[400, 404], query)),
        Ok(units) => {
            let served = harness.workloads();
            let per_chip =
                if spec.workloads.is_empty() { served.len() } else { spec.workloads.len() };
            assert_eq!(units.len(), spec.chips.len() * per_chip, "{query:?}");
            for (k, (config, workload)) in units.iter().enumerate() {
                let chip = chip_by_token(&spec.chips[k / per_chip]).expect("resolved chips exist");
                let cpu = config.spec();
                assert_eq!(cpu.id, chip, "{query:?}: units are chip-major");
                let hz = config.clock().value();
                assert!(
                    hz.is_finite()
                        && hz >= cpu.min_clock.value() - 1.0
                        && hz <= cpu.base_clock.value() + 1.0,
                    "{query:?}: clock {hz} Hz outside {}",
                    cpu.short
                );
                assert!((1..=cpu.cores).contains(&config.active_cores()), "{query:?}");
                if let Some((cores, threads)) = topology_asked(&spec.descriptor) {
                    assert_eq!(
                        (config.active_cores(), config.threads_per_core()),
                        (cores, threads),
                        "{query:?}: resolved to {}",
                        config.label()
                    );
                } else {
                    assert!(spec.descriptor.eq_ignore_ascii_case("stock"), "{query:?}");
                }
                assert!(served.iter().any(|w| std::ptr::eq(*w, *workload)), "{query:?}");
            }
            let count = units.len();
            Outcome::Accepted(spec, count)
        }
    }
}

/// The cores and threads per core an `NCxT@GHz` descriptor asks for.
fn topology_asked(descriptor: &str) -> Option<(usize, usize)> {
    let (topology, _) = descriptor.split_once('@')?;
    let topology = topology.to_ascii_lowercase();
    let (cores, threads) = topology.strip_suffix('t')?.split_once('c')?;
    Some((cores.parse().ok()?, threads.parse().ok()?))
}

/// Checks `refusal` is a typed error with an allowed status; returns the
/// status.
fn typed(refusal: &Response, allowed: &[u16], query: &str) -> u16 {
    assert!(allowed.contains(&refusal.status), "{query:?}: status {}", refusal.status);
    let body = String::from_utf8_lossy(&refusal.body);
    let code = lhr_obs::sealed::json_str(&body, "error");
    assert!(code.is_some_and(|c| !c.is_empty()), "{query:?}: untyped body {body}");
    refusal.status
}

/// The invariants every accepted spec holds.
fn check_spec(spec: &CampaignSpec, query: &str) {
    assert!(
        (1..=32).contains(&spec.tenant.len())
            && spec.tenant.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'),
        "{query:?}: tenant {:?}",
        spec.tenant
    );
    assert!(spec.weight > 0.0 && spec.weight <= 100.0, "{query:?}: weight {}", spec.weight);
    assert!(spec.quota > 0.0 && spec.quota <= 1000.0, "{query:?}: quota {}", spec.quota);
    assert!(!spec.chips.is_empty(), "{query:?}");
    assert!(spec.chips.iter().chain(&spec.workloads).all(|t| !t.is_empty()), "{query:?}");
}

#[test]
fn the_valid_spec_parses_to_its_fields_and_defaults_fill_removed_ones() {
    let harness = Harness::quick();
    let base: Vec<(&str, String)> = BASE.iter().map(|(k, v)| (*k, (*v).to_owned())).collect();
    let Outcome::Accepted(spec, units) = submit(&harness, &join(&base)) else {
        panic!("the base spec is valid");
    };
    assert_eq!(spec.tenant, "team-a");
    assert_eq!(spec.lane, Lane::High);
    assert!((spec.weight - 2.5).abs() < 1e-12 && (spec.quota - 16.0).abs() < 1e-12);
    assert_eq!(spec.chips, ["i7-45", "c2d-45"]);
    assert_eq!(spec.descriptor, "2C1T@1.6");
    assert_eq!(spec.workloads, ["db", "jess"]);
    assert_eq!(units, 4);

    for field in 0..BASE.len() {
        let mut pairs = base.clone();
        let (name, _) = pairs.remove(field);
        let outcome = submit(&harness, &join(&pairs));
        match (name, outcome) {
            ("chips", Outcome::Refused(status)) => assert_eq!(status, 400),
            ("tenant", Outcome::Accepted(spec, _)) => assert_eq!(spec.tenant, "default"),
            ("priority", Outcome::Accepted(spec, _)) => assert_eq!(spec.lane, Lane::Normal),
            ("weight", Outcome::Accepted(spec, _)) => assert!((spec.weight - 1.0).abs() < 1e-12),
            ("quota", Outcome::Accepted(spec, _)) => assert!((spec.quota - 8.0).abs() < 1e-12),
            ("config", Outcome::Accepted(spec, _)) => assert_eq!(spec.descriptor, "stock"),
            ("workloads", Outcome::Accepted(spec, units)) => {
                assert!(spec.workloads.is_empty());
                assert_eq!(units, 2 * harness.workloads().len());
            }
            (name, outcome) => panic!("removing {name} gave {outcome:?}"),
        }
    }

    // Every descriptor in the value pool on the base spec, with and
    // without a chip that has no SMT: `submit` checks that an accepted
    // one resolves to the cores and threads it names.
    for chips in ["i7-45,c2d-45", "i7-45"] {
        for descriptor in VALUES.iter().filter(|v| v.contains('@')) {
            let mut pairs = base.clone();
            pairs[4].1 = chips.to_owned();
            pairs[5].1 = (*descriptor).to_owned();
            let _ = submit(&harness, &join(&pairs));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Token soup: a typed refusal or a valid spec, never a panic.
    #[test]
    fn token_soup_is_refused_typed_or_valid(seed in any::<u64>()) {
        let harness = Harness::quick();
        let mut g = Gen(seed);
        for _ in 0..16 {
            let _ = submit(&harness, &soup(&mut g));
        }
    }

    /// The valid spec with one field replaced, removed or cut, or the
    /// whole query cut: a typed refusal or a valid spec.
    #[test]
    fn mutated_specs_are_refused_typed_or_valid(seed in any::<u64>()) {
        let harness = Harness::quick();
        let mut g = Gen(seed);
        let base: Vec<(&str, String)> = BASE.iter().map(|(k, v)| (*k, (*v).to_owned())).collect();
        for _ in 0..16 {
            let mut pairs = base.clone();
            let field = g.below(pairs.len());
            match g.below(3) {
                0 => pairs[field].1 = soup_value(&mut g),
                1 => {
                    pairs.remove(field);
                }
                _ => {
                    let value = &mut pairs[field].1;
                    let cut = g.below(value.chars().count() + 1);
                    *value = value.chars().take(cut).collect();
                }
            }
            let query = join(&pairs);
            let _ = submit(&harness, &query);
            let cut = g.below(query.len() + 1);
            if query.is_char_boundary(cut) {
                let _ = submit(&harness, &query[..cut]);
            }
        }
    }
}

/// One to three value fragments, joined the ways a client might.
fn soup_value(g: &mut Gen) -> String {
    let mut value = String::new();
    for v in 0..=g.below(3) {
        if v > 0 {
            value.push_str(g.pick(&[",", "", "%2C"]));
        }
        value.push_str(g.pick(VALUES));
    }
    value
}
