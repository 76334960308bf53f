//! Seeded input generators. The same seed gives the same inputs; the
//! program under test only ever sees the generated cells and requests.

use std::collections::HashSet;

use lhr_core::{configs, Harness};
use lhr_uarch::{ChipConfig, ProcessorId};
use lhr_workloads::Workload;

/// SplitMix64: small, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6c68_725f_6532_6521)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The serving chip tokens, one per processor (see `chip_by_token`).
pub const CHIP_TOKENS: [&str; 8] = [
    "p4-130", "c2d-65", "c2q-65", "i7-45", "atom-45", "c2d-45", "atomd-45", "i5-32",
];

/// Catalog blocks of `cells_cold`: 61 workloads in 20 blocks of 3 or 4.
const BLOCKS: usize = 20;

/// One row of `cells_cold`: a configuration and a block of workloads,
/// the unit a `Harness` evaluates.
pub type Row = (ChipConfig, Vec<&'static Workload>);

/// Every (configuration, workload) cell of the study grid -- the 45
/// study configurations times the 61-workload catalog -- once each, in
/// rows of one configuration and one block of workloads. Block `b`
/// holds every twentieth catalog workload from `b`, so each block spans
/// the catalog's groups. Blocks come in order, and within a block the 45
/// configurations come in a seeded order.
///
/// Cell costs span three orders of magnitude and a run measures only a
/// prefix, so the order is stratified: a run's first 45 rows are the
/// first block on every configuration whatever the seed, the next 45
/// the second block, and the seed decides only the order. (Modelled on
/// the cells' simulated durations, this keeps the seed's share of the
/// row-latency spread near 1% against 37% for a seeded shuffle of cells.)
pub fn cold_rows(seed: u64) -> Vec<Row> {
    let configs = configs::all_study_configs();
    let catalog = lhr_workloads::catalog();
    let mut rng = Rng::new(seed);
    let mut rows = Vec::with_capacity(BLOCKS * configs.len());
    for b in 0..BLOCKS {
        let block: Vec<&'static Workload> = catalog.iter().skip(b).step_by(BLOCKS).collect();
        let mut perm: Vec<usize> = (0..configs.len()).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        rows.extend(
            perm.into_iter()
                .map(|c| (configs[c].clone(), block.clone())),
        );
    }
    rows
}

/// One `/v1/cell` request: its query string and the configuration the
/// server will build from it.
#[derive(Debug, Clone)]
pub struct CellRequest {
    pub target: String,
    pub config: ChipConfig,
    pub workload: &'static Workload,
}

fn cell_request(token: &str, descriptor: &str, w: &'static Workload) -> Option<CellRequest> {
    let id = lhr_serve::chip_by_token(token)?;
    // The server's own parser: a descriptor it would reject with a 400
    // is never sent.
    let config = lhr_serve::build_config(id, descriptor, None).ok()?;
    Some(CellRequest {
        target: format!(
            "/v1/cell?chip={token}&config={descriptor}&workload={}",
            w.name()
        ),
        config,
        workload: w,
    })
}

/// The hot set: every chip at stock settings times the quick set.
pub fn hot_cells() -> Vec<CellRequest> {
    CHIP_TOKENS
        .iter()
        .flat_map(|t| {
            Harness::quick_set()
                .into_iter()
                .map(move |w| cell_request(t, "stock", w).expect("stock cells are valid"))
        })
        .collect()
}

/// Never-seen routed cells: a seeded chip with a down-clocking range,
/// `NC1T@GHz` with the clock drawn at 1 MHz resolution inside that
/// chip's range, and a quick-set workload. Draws are checked against
/// the server's configuration parser and against every earlier draw.
#[derive(Debug)]
pub struct RoutedCells {
    rng: Rng,
    seen: HashSet<String>,
    /// Drawn descriptors the configuration parser rejected (redrawn).
    pub rejected: u64,
}

impl RoutedCells {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed ^ 0x726f_7574),
            seen: HashSet::new(),
            rejected: 0,
        }
    }

    pub fn next(&mut self) -> CellRequest {
        let quick = Harness::quick_set();
        let chips: Vec<(&str, ProcessorId)> = CHIP_TOKENS
            .iter()
            .filter_map(|&t| lhr_serve::chip_by_token(t).map(|id| (t, id)))
            .filter(|(_, id)| id.spec().base_clock.as_ghz() - id.spec().min_clock.as_ghz() >= 0.1)
            .collect();
        loop {
            let (token, id) = chips[self.rng.below(chips.len())];
            let spec = id.spec();
            let cores = 1 + self.rng.below(spec.cores);
            let lo = (spec.min_clock.as_ghz() * 1000.0).ceil() as u64;
            let hi = (spec.base_clock.as_ghz() * 1000.0).floor() as u64;
            let mhz = lo + self.rng.below((hi - lo + 1) as usize) as u64;
            let w = quick[self.rng.below(quick.len())];
            let descriptor = format!("{cores}C1T@{}.{:03}", mhz / 1000, mhz % 1000);
            match cell_request(token, &descriptor, w) {
                Some(req) if self.seen.insert(req.target.clone()) => return req,
                Some(_) => {}
                None => self.rejected += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(seed: u64) -> Vec<String> {
        cold_rows(seed)
            .iter()
            .take(50)
            .map(|(c, _)| format!("{c:?}"))
            .collect()
    }

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        assert_eq!(labels(3), labels(3));
        assert_ne!(labels(3), labels(4));
        let mut r1 = RoutedCells::new(9);
        let mut r2 = RoutedCells::new(9);
        for _ in 0..200 {
            assert_eq!(r1.next().target, r2.next().target);
        }
    }

    #[test]
    fn cold_rows_cover_the_study_grid_once_in_stratified_order() {
        let (nc, nw) = (
            configs::all_study_configs().len(),
            lhr_workloads::catalog().len(),
        );
        let rows = cold_rows(1);
        let cells: Vec<String> = rows
            .iter()
            .flat_map(|(c, ws)| ws.iter().map(move |w| format!("{c:?}|{}", w.name())))
            .collect();
        assert_eq!(cells.len(), nc * nw);
        assert_eq!(cells.iter().collect::<HashSet<_>>().len(), cells.len());
        assert!(rows.iter().all(|(_, ws)| ws.len() == 3 || ws.len() == 4));
        // The first 45 rows are the first block on every configuration,
        // for every seed.
        let first = |s: u64| {
            let mut v: Vec<String> = cold_rows(s)[..nc]
                .iter()
                .map(|(c, ws)| format!("{c:?}{}", ws[0].name()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(first(1), first(2));
        assert_eq!(first(1).iter().collect::<HashSet<_>>().len(), nc);
    }

    #[test]
    fn routed_cells_are_valid_and_never_repeat() {
        let mut gen = RoutedCells::new(42);
        let mut targets = HashSet::new();
        for _ in 0..2000 {
            let req = gen.next();
            let spec = req.config.spec();
            let ghz = req.config.clock().as_ghz();
            assert!(
                ghz >= spec.min_clock.as_ghz() - 1e-9 && ghz <= spec.base_clock.as_ghz() + 1e-9
            );
            assert!(!req.config.smt_enabled());
            assert!(req.config.active_cores() >= 1 && req.config.active_cores() <= spec.cores);
            assert!(Harness::quick_set()
                .iter()
                .any(|w| w.name() == req.workload.name()));
            assert!(targets.insert(req.target), "a routed cell repeated");
        }
        assert_eq!(gen.rejected, 0, "clocks are drawn inside each chip's range");
    }

    #[test]
    fn hot_set_is_every_chip_times_the_quick_set() {
        let hot = hot_cells();
        assert_eq!(hot.len(), CHIP_TOKENS.len() * Harness::quick_set().len());
        assert!(hot.iter().all(|c| c.target.contains("config=stock")));
    }
}
