//! Reference execution time and reference energy (Section 2.6).
//!
//! "To avoid biasing performance measurements to the strengths or
//! weaknesses of one architecture, we normalize individual benchmark
//! execution times to its average execution time executing on four
//! architectures. We choose the Pentium 4 (130), Core 2D (65), Atom (45),
//! and i5 (32) to capture all four microarchitectures and all four
//! technology generations ... The reference energy is the average power on
//! these four processors times the average runtime."

use std::collections::HashMap;

use lhr_uarch::{ChipConfig, ProcessorId};
use lhr_workloads::Workload;

use crate::error::MeasureError;
use crate::runner::Runner;

/// The four reference machines.
pub const REFERENCE_PROCESSORS: [ProcessorId; 4] = [
    ProcessorId::Pentium4_130,
    ProcessorId::Core2DuoE6600,
    ProcessorId::Atom230,
    ProcessorId::CoreI5_670,
];

/// Per-benchmark reference time and energy.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceSet {
    seconds: HashMap<&'static str, f64>,
    joules: HashMap<&'static str, f64>,
}

impl ReferenceSet {
    /// Computes the references for a set of workloads by running each on
    /// the four reference machines in their stock configurations.
    ///
    /// # Panics
    ///
    /// Panics if a reference measurement fails;
    /// [`ReferenceSet::try_compute`] is the non-panicking form.
    #[must_use]
    pub fn compute(runner: &Runner, workloads: &[&'static Workload]) -> Self {
        Self::try_compute(runner, workloads)
            .unwrap_or_else(|e| panic!("reference computation failed: {e}"))
    }

    /// Computes the references, reporting the first failed measurement
    /// instead of panicking. A broken reference machine invalidates the
    /// whole normalization (Section 2.6 averages over exactly four
    /// machines), so any failure here fails the set.
    ///
    /// The cells are measured on the machine's available parallelism;
    /// the result, and the error, are those of a serial pass in
    /// (workload, machine) order.
    ///
    /// # Errors
    ///
    /// The first [`MeasureError`] hit on any reference machine.
    pub fn try_compute(
        runner: &Runner,
        workloads: &[&'static Workload],
    ) -> Result<Self, MeasureError> {
        Self::try_compute_on(runner, workloads, None)
    }

    /// [`ReferenceSet::try_compute`] on up to `jobs` workers (`None`:
    /// available parallelism). Means sum in (workload, machine) order,
    /// and the error returned is the first in that order.
    pub(crate) fn try_compute_on(
        runner: &Runner,
        workloads: &[&'static Workload],
        jobs: Option<usize>,
    ) -> Result<Self, MeasureError> {
        let machines = REFERENCE_PROCESSORS.map(|id| ChipConfig::stock(id.spec()));
        let cells: Vec<(&ChipConfig, &Workload)> = workloads
            .iter()
            .flat_map(|&w| machines.iter().map(move |config| (config, w)))
            .collect();
        let mut outcomes = runner.try_measure_cells(jobs, &cells).into_iter();
        let mut seconds = HashMap::new();
        let mut joules = HashMap::new();
        for w in workloads {
            let mut times = [0.0; 4];
            let mut powers = [0.0; 4];
            for (time, power) in times.iter_mut().zip(&mut powers) {
                let m = outcomes
                    .next()
                    .flatten()
                    .expect("a faulted machine stops only after an earlier failure")?;
                *time = m.seconds().value();
                *power = m.watts().value();
            }
            let avg_time = times.iter().sum::<f64>() / 4.0;
            let avg_power = powers.iter().sum::<f64>() / 4.0;
            seconds.insert(w.name(), avg_time);
            joules.insert(w.name(), avg_power * avg_time);
        }
        Ok(Self { seconds, joules })
    }

    /// The reference time for a benchmark.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark was not part of the computed set -- mixing
    /// references across sets is a methodology error.
    #[must_use]
    pub fn seconds(&self, name: &str) -> f64 {
        *self
            .seconds
            .get(name)
            .unwrap_or_else(|| panic!("no reference time for {name}"))
    }

    /// The reference energy for a benchmark.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark was not part of the computed set.
    #[must_use]
    pub fn joules(&self, name: &str) -> f64 {
        *self
            .joules
            .get(name)
            .unwrap_or_else(|| panic!("no reference energy for {name}"))
    }

    /// Number of benchmarks covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seconds.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seconds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_workloads::by_name;

    #[test]
    fn references_are_positive_and_keyed_by_name() {
        let runner = Runner::fast();
        let ws = vec![by_name("jess").unwrap(), by_name("mpegaudio").unwrap()];
        let refs = ReferenceSet::compute(&runner, &ws);
        assert_eq!(refs.len(), 2);
        assert!(!refs.is_empty());
        assert!(refs.seconds("jess") > 0.0);
        assert!(refs.joules("jess") > 0.0);
        assert!(refs.seconds("mpegaudio") > 0.0);
    }

    #[test]
    #[should_panic(expected = "no reference time")]
    fn missing_benchmark_panics() {
        let runner = Runner::fast();
        let refs = ReferenceSet::compute(&runner, &[by_name("jess").unwrap()]);
        let _ = refs.seconds("mcf");
    }
}
