//! The event-energy model: activity counts in, joules out.

use lhr_units::{Joules, TechNode, Volts, Watts};

use crate::activity::ActivityCounters;
use crate::node::NodeScaling;

/// Nominal per-event energies, in picojoules, at the 65nm node's nominal
/// voltage. Passive data in the C spirit: the processor catalog constructs
/// one per chip family (a NetBurst instruction costs several times a Core
/// instruction at the same node).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventEnergies {
    /// Fetch/decode/rename/retire cost charged to every instruction.
    pub per_instruction_pj: f64,
    /// Integer ALU execution.
    pub int_op_pj: f64,
    /// Floating-point execution.
    pub fp_op_pj: f64,
    /// L1 data access.
    pub l1_access_pj: f64,
    /// L2 access.
    pub l2_access_pj: f64,
    /// Last-level-cache access.
    pub llc_access_pj: f64,
    /// DRAM access (chip-side share: controller/bus; DIMM power is outside
    /// the measured rail on most of the studied boards).
    pub dram_access_pj: f64,
    /// Branch resolution.
    pub branch_pj: f64,
    /// Pipeline flush: wrong-path fetch/execute discarded per mispredict.
    /// The catalog scales this with pipeline depth.
    pub flush_pj: f64,
    /// TLB miss (page walk).
    pub tlb_miss_pj: f64,
    /// Clock tree and always-toggling structures, charged per active-core
    /// cycle regardless of issue.
    pub clock_per_cycle_pj: f64,
}

impl Default for EventEnergies {
    /// Ballpark 65nm-class desktop-core energies; each chip in the catalog
    /// scales these by family factors during calibration.
    fn default() -> Self {
        Self {
            per_instruction_pj: 950.0,
            int_op_pj: 250.0,
            fp_op_pj: 1_300.0,
            l1_access_pj: 180.0,
            l2_access_pj: 900.0,
            llc_access_pj: 2_400.0,
            dram_access_pj: 9_000.0,
            branch_pj: 120.0,
            flush_pj: 3_000.0,
            tlb_miss_pj: 4_000.0,
            clock_per_cycle_pj: 650.0,
        }
    }
}

impl EventEnergies {
    /// Returns a copy with every per-event energy multiplied by `factor`
    /// (used for family-level scaling, e.g. NetBurst's hungry pipeline).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite(), "invalid energy scale");
        Self {
            per_instruction_pj: self.per_instruction_pj * factor,
            int_op_pj: self.int_op_pj * factor,
            fp_op_pj: self.fp_op_pj * factor,
            l1_access_pj: self.l1_access_pj * factor,
            l2_access_pj: self.l2_access_pj * factor,
            llc_access_pj: self.llc_access_pj * factor,
            dram_access_pj: self.dram_access_pj * factor,
            branch_pj: self.branch_pj * factor,
            flush_pj: self.flush_pj * factor,
            tlb_miss_pj: self.tlb_miss_pj * factor,
            clock_per_cycle_pj: self.clock_per_cycle_pj * factor,
        }
    }
}

/// Static (leakage + always-on) power parameters for one chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticPowerParams {
    /// Leakage of one powered core at the node's nominal voltage.
    pub core_leak_w: f64,
    /// Always-on uncore (interconnect, memory controller, I/O, PLLs).
    pub uncore_w: f64,
    /// LLC leakage per megabyte.
    pub llc_leak_w_per_mb: f64,
    /// Fraction of a core's static+clock power still drawn when the core is
    /// enabled but idle. Near 1.0 for chips without power gating (i7-920's
    /// C-states were conservative on desktop boards); low for chips with
    /// aggressive gating (i5-670 / Westmere).
    pub idle_core_fraction: f64,
    /// Fraction of a core's static power drawn when BIOS-disabled.
    pub disabled_core_fraction: f64,
}

impl Default for StaticPowerParams {
    fn default() -> Self {
        Self {
            core_leak_w: 2.0,
            uncore_w: 4.0,
            llc_leak_w_per_mb: 0.25,
            idle_core_fraction: 0.7,
            disabled_core_fraction: 0.05,
        }
    }
}

/// The chip-level energy model: per-event energies plus node scaling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    events: EventEnergies,
    nodes: NodeScaling,
}

impl EnergyModel {
    /// Creates a model from event energies and node-scaling tables.
    #[must_use]
    pub fn new(events: EventEnergies, nodes: NodeScaling) -> Self {
        Self { events, nodes }
    }

    /// The event-energy table.
    #[must_use]
    pub fn events(&self) -> &EventEnergies {
        &self.events
    }

    /// The node-scaling table.
    #[must_use]
    pub fn nodes(&self) -> &NodeScaling {
        &self.nodes
    }

    /// The voltage-squared scaling factor for dynamic energy at `v` on
    /// `node`, relative to the node's nominal voltage.
    #[must_use]
    pub fn voltage_factor(&self, node: TechNode, v: Volts) -> f64 {
        let vn = self.nodes.nominal_voltage(node).value();
        let r = v.value() / vn;
        r * r
    }

    /// Dynamic energy of an activity interval on `node` at voltage `v`,
    /// with `activity` applying the workload's switching-activity factor
    /// to the execution events.
    #[must_use]
    pub fn dynamic_energy_with_activity(
        &self,
        act: &ActivityCounters,
        node: TechNode,
        v: Volts,
        activity: f64,
    ) -> Joules {
        let e = &self.events;
        let pj_exec = act.instructions as f64 * e.per_instruction_pj
            + act.int_ops as f64 * e.int_op_pj
            + act.fp_ops as f64 * e.fp_op_pj
            + act.l1_accesses as f64 * e.l1_access_pj
            + act.l2_accesses as f64 * e.l2_access_pj
            + act.llc_accesses as f64 * e.llc_access_pj
            + act.dram_accesses as f64 * e.dram_access_pj
            + act.branches as f64 * e.branch_pj
            + act.branch_flushes as f64 * e.flush_pj
            + act.tlb_misses as f64 * e.tlb_miss_pj;
        let pj_clock = act.active_cycles as f64 * e.clock_per_cycle_pj;
        let pj = pj_exec * activity + pj_clock;
        let scale = self.nodes.cap_scale(node) * self.voltage_factor(node, v);
        Joules::new(pj * 1e-12 * scale)
    }

    /// Dynamic energy with a neutral activity factor of 1.
    #[must_use]
    pub fn dynamic_energy(
        &self,
        act: &ActivityCounters,
        node: TechNode,
        v: Volts,
        _v_nom_unused: Volts,
    ) -> Joules {
        self.dynamic_energy_with_activity(act, node, v, 1.0)
    }

    /// Static power of the whole chip given its population of cores.
    ///
    /// * `busy_cores` draw full static power;
    /// * `idle_cores` (enabled, no work) draw `idle_core_fraction` of it;
    /// * `disabled_cores` draw `disabled_core_fraction`;
    /// * the uncore and LLC are always on.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn static_power(
        &self,
        p: &StaticPowerParams,
        node: TechNode,
        v: Volts,
        busy_cores: usize,
        idle_cores: usize,
        disabled_cores: usize,
        llc_mb: f64,
    ) -> Watts {
        let (core, llc, uncore) =
            self.static_power_parts(p, node, v, busy_cores, idle_cores, disabled_cores, llc_mb);
        core + llc + uncore
    }

    /// [`EnergyModel::static_power`], broken down by structure for the
    /// per-structure power meters: `(all cores, LLC, uncore)`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn static_power_parts(
        &self,
        p: &StaticPowerParams,
        node: TechNode,
        v: Volts,
        busy_cores: usize,
        idle_cores: usize,
        disabled_cores: usize,
        llc_mb: f64,
    ) -> (Watts, Watts, Watts) {
        let vf = self.voltage_factor(node, v);
        let leak = self.nodes.leak_scale(node);
        let core = p.core_leak_w
            * (busy_cores as f64
                + idle_cores as f64 * p.idle_core_fraction
                + disabled_cores as f64 * p.disabled_core_fraction);
        let llc = p.llc_leak_w_per_mb * llc_mb;
        (
            Watts::new(core * leak * vf),
            Watts::new(llc * leak * vf),
            Watts::new(p.uncore_w * leak),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EnergyModel {
        EnergyModel::new(EventEnergies::default(), NodeScaling::default())
    }

    fn act(instructions: u64) -> ActivityCounters {
        ActivityCounters {
            instructions,
            int_ops: instructions / 2,
            l1_accesses: instructions / 3,
            active_cycles: instructions / 2,
            ..ActivityCounters::default()
        }
    }

    #[test]
    fn energy_scales_linearly_with_activity_counts() {
        let m = model();
        let v = Volts::new(1.25);
        let e1 = m.dynamic_energy(&act(1_000_000), TechNode::Nm65, v, v);
        let e2 = m.dynamic_energy(&act(2_000_000), TechNode::Nm65, v, v);
        assert!((e2.value() / e1.value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn energy_scales_with_voltage_squared() {
        let m = model();
        let a = act(1_000_000);
        let e_lo = m.dynamic_energy(&a, TechNode::Nm65, Volts::new(1.0), Volts::new(1.0));
        let e_hi = m.dynamic_energy(&a, TechNode::Nm65, Volts::new(2.0), Volts::new(2.0));
        assert!((e_hi.value() / e_lo.value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn newer_node_uses_less_energy() {
        let m = model();
        let a = act(1_000_000);
        let v65 = m.nodes().nominal_voltage(TechNode::Nm65);
        let v32 = m.nodes().nominal_voltage(TechNode::Nm32);
        let e65 = m.dynamic_energy(&a, TechNode::Nm65, v65, v65);
        let e32 = m.dynamic_energy(&a, TechNode::Nm32, v32, v32);
        assert!(e32.value() < e65.value() * 0.6);
    }

    #[test]
    fn activity_factor_scales_execution_not_clock() {
        let m = model();
        let mut a = ActivityCounters {
            active_cycles: 1_000_000,
            ..ActivityCounters::default()
        };
        let v = Volts::new(1.25);
        // Pure clock activity is unaffected by the workload activity factor.
        let e1 = m.dynamic_energy_with_activity(&a, TechNode::Nm65, v, 1.0);
        let e2 = m.dynamic_energy_with_activity(&a, TechNode::Nm65, v, 2.0);
        assert_eq!(e1, e2);
        // Execution activity is scaled.
        a.fp_ops = 1_000_000;
        let e3 = m.dynamic_energy_with_activity(&a, TechNode::Nm65, v, 1.0);
        let e4 = m.dynamic_energy_with_activity(&a, TechNode::Nm65, v, 2.0);
        assert!(e4.value() > e3.value());
    }

    #[test]
    fn static_power_population_accounting() {
        let m = model();
        let p = StaticPowerParams {
            core_leak_w: 2.0,
            uncore_w: 4.0,
            llc_leak_w_per_mb: 0.5,
            idle_core_fraction: 0.5,
            disabled_core_fraction: 0.0,
        };
        let v = m.nodes().nominal_voltage(TechNode::Nm65);
        let all_busy = m.static_power(&p, TechNode::Nm65, v, 4, 0, 0, 8.0);
        let half_idle = m.static_power(&p, TechNode::Nm65, v, 2, 2, 0, 8.0);
        let half_disabled = m.static_power(&p, TechNode::Nm65, v, 2, 0, 2, 8.0);
        assert!(all_busy.value() > half_idle.value());
        assert!(half_idle.value() > half_disabled.value());
        // At nominal voltage and 65nm all scale factors are 1.
        assert!((all_busy.value() - (2.0 * 4.0 + 0.5 * 8.0 + 4.0)).abs() < 1e-9);
    }

    #[test]
    fn scaled_event_energies() {
        let e = EventEnergies::default().scaled(2.0);
        assert_eq!(e.per_instruction_pj, EventEnergies::default().per_instruction_pj * 2.0);
        assert_eq!(e.dram_access_pj, EventEnergies::default().dram_access_pj * 2.0);
    }

    #[test]
    #[should_panic(expected = "invalid energy scale")]
    fn bad_scale_panics() {
        let _ = EventEnergies::default().scaled(0.0);
    }

    #[test]
    fn empty_activity_costs_nothing() {
        let m = model();
        let v = Volts::new(1.2);
        let e = m.dynamic_energy(&ActivityCounters::default(), TechNode::Nm45, v, v);
        assert_eq!(e, Joules::ZERO);
    }
}
