//! Technology-node scaling of dynamic capacitance and leakage.
//!
//! Between 130nm and 32nm Dennard scaling slowed (Bohr's retrospective,
//! cited by the paper): capacitance per structure kept falling with feature
//! size, but threshold/supply voltages stopped falling proportionally and
//! leakage grew until high-k metal-gate processes (45nm) pulled it back.
//! These per-node factors encode that history for the power model.

use lhr_units::{TechNode, Volts};

/// Per-node scaling factors, normalized to the 65nm generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeScaling {
    /// Dynamic-energy (effective switched capacitance) multiplier per node.
    cap_scale: [f64; 5],
    /// Leakage multiplier per node (same area, nominal voltage).
    leak_scale: [f64; 5],
    /// Nominal supply voltage per node.
    v_nominal: [f64; 5],
}

impl NodeScaling {
    fn index(node: TechNode) -> usize {
        match node {
            TechNode::Nm32 => 0,
            TechNode::Nm45 => 1,
            TechNode::Nm65 => 2,
            TechNode::Nm90 => 3,
            TechNode::Nm130 => 4,
        }
    }

    /// The effective-capacitance multiplier for a node (65nm = 1.0).
    #[must_use]
    pub fn cap_scale(&self, node: TechNode) -> f64 {
        self.cap_scale[Self::index(node)]
    }

    /// The leakage multiplier for a node (65nm = 1.0).
    #[must_use]
    pub fn leak_scale(&self, node: TechNode) -> f64 {
        self.leak_scale[Self::index(node)]
    }

    /// The nominal supply voltage of the node, used to normalize the
    /// `(V / V_nom)^2` dynamic-energy dependence.
    #[must_use]
    pub fn nominal_voltage(&self, node: TechNode) -> Volts {
        Volts::new(self.v_nominal[Self::index(node)])
    }

    /// Builds a scaling table from explicit per-node entries ordered
    /// `[32nm, 45nm, 65nm, 90nm, 130nm]`.
    ///
    /// # Panics
    ///
    /// Panics if any entry is non-positive or non-finite.
    #[must_use]
    pub fn from_tables(cap_scale: [f64; 5], leak_scale: [f64; 5], v_nominal: [f64; 5]) -> Self {
        for table in [&cap_scale, &leak_scale, &v_nominal] {
            for &v in table {
                assert!(v.is_finite() && v > 0.0, "scaling entries must be positive");
            }
        }
        Self {
            cap_scale,
            leak_scale,
            v_nominal,
        }
    }
}

impl Default for NodeScaling {
    /// Calibrated defaults.
    ///
    /// Capacitance roughly halves per two-node step (ideal scaling would be
    /// ~0.7x linear per step; real designs spent some of it on complexity).
    /// Leakage: rising sharply from 130nm to 65nm (classic oxide-scaling
    /// leakage growth), then held roughly flat by strain/high-k at 45nm and
    /// improved integration at 32nm. Nominal voltage drifts down slowly --
    /// the post-Dennard regime the paper describes.
    fn default() -> Self {
        Self {
            //           32nm  45nm  65nm  90nm  130nm
            cap_scale: [0.42, 0.62, 1.00, 1.45, 2.10],
            leak_scale: [0.80, 0.95, 1.00, 0.80, 0.55],
            v_nominal: [1.10, 1.15, 1.25, 1.35, 1.50],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_monotone_in_capacitance() {
        let s = NodeScaling::default();
        assert!(s.cap_scale(TechNode::Nm32) < s.cap_scale(TechNode::Nm45));
        assert!(s.cap_scale(TechNode::Nm45) < s.cap_scale(TechNode::Nm65));
        assert!(s.cap_scale(TechNode::Nm65) < s.cap_scale(TechNode::Nm90));
        assert!(s.cap_scale(TechNode::Nm90) < s.cap_scale(TechNode::Nm130));
    }

    #[test]
    fn leakage_peaks_mid_history() {
        let s = NodeScaling::default();
        // 130nm leaks least; 65nm is the local peak before high-k.
        assert!(s.leak_scale(TechNode::Nm130) < s.leak_scale(TechNode::Nm65));
        assert!(s.leak_scale(TechNode::Nm45) <= s.leak_scale(TechNode::Nm65));
    }

    #[test]
    fn nominal_voltage_decreases_with_node() {
        let s = NodeScaling::default();
        assert!(
            s.nominal_voltage(TechNode::Nm32).value()
                < s.nominal_voltage(TechNode::Nm130).value()
        );
    }

    #[test]
    fn custom_tables_round_trip() {
        let s = NodeScaling::from_tables(
            [1.0, 2.0, 3.0, 4.0, 5.0],
            [5.0, 4.0, 3.0, 2.0, 1.0],
            [1.0, 1.1, 1.2, 1.3, 1.4],
        );
        assert_eq!(s.cap_scale(TechNode::Nm32), 1.0);
        assert_eq!(s.cap_scale(TechNode::Nm130), 5.0);
        assert_eq!(s.leak_scale(TechNode::Nm45), 4.0);
        assert_eq!(s.nominal_voltage(TechNode::Nm65).value(), 1.2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_entry_rejected() {
        let _ = NodeScaling::from_tables(
            [0.0; 5],
            [1.0; 5],
            [1.0; 5],
        );
    }
}
