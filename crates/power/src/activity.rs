//! Per-interval activity counters: the interface between the performance
//! simulation (`lhr-uarch`) and the power model.

/// Counts of energy-bearing events in one simulation interval on one
/// hardware context (or aggregated across contexts).
///
/// All counts are raw event totals for the interval; the [`crate::EnergyModel`]
/// assigns each a per-event energy.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ActivityCounters {
    /// Retired instructions in total (drives fetch/decode/retire energy).
    pub instructions: u64,
    /// Integer ALU operations.
    pub int_ops: u64,
    /// Floating-point operations.
    pub fp_ops: u64,
    /// L1 data-cache accesses (loads + stores).
    pub l1_accesses: u64,
    /// L1 misses that hit in L2.
    pub l2_accesses: u64,
    /// L2 misses that hit in the last-level cache.
    pub llc_accesses: u64,
    /// LLC misses that go to DRAM.
    pub dram_accesses: u64,
    /// Branch instructions executed.
    pub branches: u64,
    /// Branch mispredictions (each costs a pipeline refill of wrong-path work).
    pub branch_flushes: u64,
    /// TLB misses (page-walk energy).
    pub tlb_misses: u64,
    /// Cycles any instruction issue was attempted on an active context.
    pub active_cycles: u64,
    /// Cycles an enabled core spent with no thread to run.
    pub idle_cycles: u64,
}

impl ActivityCounters {
    /// Elementwise sum of two counter sets.
    #[must_use]
    pub fn merged(&self, other: &ActivityCounters) -> ActivityCounters {
        ActivityCounters {
            instructions: self.instructions + other.instructions,
            int_ops: self.int_ops + other.int_ops,
            fp_ops: self.fp_ops + other.fp_ops,
            l1_accesses: self.l1_accesses + other.l1_accesses,
            l2_accesses: self.l2_accesses + other.l2_accesses,
            llc_accesses: self.llc_accesses + other.llc_accesses,
            dram_accesses: self.dram_accesses + other.dram_accesses,
            branches: self.branches + other.branches,
            branch_flushes: self.branch_flushes + other.branch_flushes,
            tlb_misses: self.tlb_misses + other.tlb_misses,
            active_cycles: self.active_cycles + other.active_cycles,
            idle_cycles: self.idle_cycles + other.idle_cycles,
        }
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &ActivityCounters) {
        *self = self.merged(other);
    }

    /// True when no events at all were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == ActivityCounters::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_empty() {
        assert!(ActivityCounters::default().is_empty());
    }

    #[test]
    fn merge_sums_every_field() {
        let a = ActivityCounters {
            instructions: 1,
            int_ops: 2,
            fp_ops: 3,
            l1_accesses: 4,
            l2_accesses: 5,
            llc_accesses: 6,
            dram_accesses: 7,
            branches: 8,
            branch_flushes: 9,
            tlb_misses: 10,
            active_cycles: 11,
            idle_cycles: 12,
        };
        let b = a;
        let m = a.merged(&b);
        assert_eq!(m.instructions, 2);
        assert_eq!(m.int_ops, 4);
        assert_eq!(m.fp_ops, 6);
        assert_eq!(m.l1_accesses, 8);
        assert_eq!(m.l2_accesses, 10);
        assert_eq!(m.llc_accesses, 12);
        assert_eq!(m.dram_accesses, 14);
        assert_eq!(m.branches, 16);
        assert_eq!(m.branch_flushes, 18);
        assert_eq!(m.tlb_misses, 20);
        assert_eq!(m.active_cycles, 22);
        assert_eq!(m.idle_cycles, 24);
        assert!(!m.is_empty());
        let mut c = a;
        c.merge(&b);
        assert_eq!(c, m);
    }
}
