//! Classification types for the benchmark suite.

use std::fmt;

/// The benchmark suite a workload originates from (Table 1 "Src" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CINT2006 ("SI").
    SpecInt2006,
    /// SPEC CFP2006 ("SF").
    SpecFp2006,
    /// PARSEC ("PA").
    Parsec,
    /// SPECjvm98 ("SJ").
    SpecJvm,
    /// DaCapo 06-10-MR2 ("D6").
    DaCapo06,
    /// DaCapo 9.12 ("D9").
    DaCapo9,
    /// pjbb2005, the fixed-workload SPECjbb2005 variant ("JB").
    Pjbb2005,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Suite::SpecInt2006 => "SPEC CINT2006",
            Suite::SpecFp2006 => "SPEC CFP2006",
            Suite::Parsec => "PARSEC",
            Suite::SpecJvm => "SPECjvm",
            Suite::DaCapo06 => "DaCapo 06-10-MR2",
            Suite::DaCapo9 => "DaCapo 9.12",
            Suite::Pjbb2005 => "pjbb2005",
        };
        f.write_str(s)
    }
}

/// The four equally weighted workload groups (Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Group {
    /// Single-threaded C/C++/Fortran from SPEC CPU2006.
    NativeNonScalable,
    /// Multithreaded C/C++ from PARSEC.
    NativeScalable,
    /// Java benchmarks that do not scale well (single- and multithreaded).
    JavaNonScalable,
    /// Multithreaded Java that scales like the native scalables.
    JavaScalable,
}

impl Group {
    /// All four groups, in the paper's presentation order.
    pub const ALL: [Group; 4] = [
        Group::NativeNonScalable,
        Group::NativeScalable,
        Group::JavaNonScalable,
        Group::JavaScalable,
    ];

    /// The implementation language class of the group.
    #[must_use]
    pub fn language(self) -> Language {
        match self {
            Group::NativeNonScalable | Group::NativeScalable => Language::Native,
            Group::JavaNonScalable | Group::JavaScalable => Language::Java,
        }
    }

    /// Whether the group's benchmarks speed up with added hardware contexts.
    #[must_use]
    pub fn is_scalable(self) -> bool {
        matches!(self, Group::NativeScalable | Group::JavaScalable)
    }
}

impl fmt::Display for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Group::NativeNonScalable => "Native Non-scalable",
            Group::NativeScalable => "Native Scalable",
            Group::JavaNonScalable => "Java Non-scalable",
            Group::JavaScalable => "Java Scalable",
        };
        f.write_str(s)
    }
}

/// Native (compiled ahead of time) versus managed (JIT + GC) languages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Language {
    /// C, C++, Fortran: compiled ahead of time, no runtime services.
    Native,
    /// Java: dynamic compilation, garbage collection, runtime services.
    Java,
}

impl fmt::Display for Language {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Language::Native => "native",
            Language::Java => "Java",
        })
    }
}

/// How a workload's application threads scale across hardware contexts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThreadModel {
    /// One application thread, always.
    Single,
    /// `n = min(max_threads, contexts)` application threads.
    Parallel {
        /// Upper bound on spawned threads; `usize::MAX` means "as many as
        /// there are hardware contexts" (the PARSEC convention).
        max_threads: usize,
        /// Amdahl parallel fraction of the total work.
        parallel_fraction: f64,
        /// Extra work per thread per additional peer (synchronization,
        /// communication, redundant computation), as a fraction.
        sync_overhead_per_thread: f64,
    },
}

impl ThreadModel {
    /// A fully-scalable parallel model with the given Amdahl fraction and
    /// per-peer sync overhead.
    #[must_use]
    pub fn parallel(parallel_fraction: f64, sync_overhead_per_thread: f64) -> Self {
        ThreadModel::Parallel {
            max_threads: usize::MAX,
            parallel_fraction,
            sync_overhead_per_thread,
        }
    }

    /// A parallel model capped at `max_threads` application threads.
    #[must_use]
    pub fn parallel_capped(
        max_threads: usize,
        parallel_fraction: f64,
        sync_overhead_per_thread: f64,
    ) -> Self {
        ThreadModel::Parallel {
            max_threads,
            parallel_fraction,
            sync_overhead_per_thread,
        }
    }

    /// Number of application threads spawned given available contexts.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is zero.
    #[must_use]
    pub fn app_threads(&self, contexts: usize) -> usize {
        assert!(contexts > 0, "need at least one hardware context");
        match *self {
            ThreadModel::Single => 1,
            ThreadModel::Parallel { max_threads, .. } => contexts.min(max_threads).max(1),
        }
    }
}

/// JVM runtime-service profile attached to managed workloads.
///
/// The JVM's services -- GC, JIT compilation, profiling -- are concurrent
/// and parallel (Section 3.1 of the paper), so they appear in the simulation
/// as additional software threads plus a cache/TLB *displacement* penalty
/// when they are co-scheduled onto the application's hardware context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagedProfile {
    /// GC work as a fraction of application work.
    pub gc_work_fraction: f64,
    /// JIT compilation work as a fraction of application work (mostly
    /// front-loaded; the methodology measures the fifth steady-state
    /// iteration, so this is the residual recompilation activity).
    pub jit_work_fraction: f64,
    /// Multiplier on the application's cache/TLB miss rates when a service
    /// thread shares its hardware context (the displacement effect the
    /// paper diagnoses via DTLB counters for `db`).
    pub displacement_miss_factor: f64,
    /// Number of parallel GC threads.
    pub gc_threads: usize,
    /// Run-to-run coefficient of variation induced by adaptive JIT and GC
    /// timing (why the methodology needs 20 invocations).
    pub nondeterminism_cv: f64,
}

impl ManagedProfile {
    /// A typical steady-state HotSpot profile for a medium-heap benchmark.
    #[must_use]
    pub fn typical() -> Self {
        Self {
            gc_work_fraction: 0.08,
            jit_work_fraction: 0.03,
            displacement_miss_factor: 1.35,
            gc_threads: 1,
            nondeterminism_cv: 0.015,
        }
    }

    /// A JRockit-like runtime: a heavier optimizing compiler that runs
    /// longer (JRockit compiles everything, having no interpreter) and a
    /// somewhat larger collector footprint. The paper measured aggregate
    /// power differences of up to 10% between JVMs (Section 2.2).
    #[must_use]
    pub fn jrockit_like() -> Self {
        Self {
            gc_work_fraction: 0.09,
            jit_work_fraction: 0.07,
            displacement_miss_factor: 1.40,
            gc_threads: 1,
            nondeterminism_cv: 0.018,
        }
    }

    /// A J9-like runtime: leaner compilation, slightly lighter GC, tighter
    /// run-to-run variation.
    #[must_use]
    pub fn j9_like() -> Self {
        Self {
            gc_work_fraction: 0.07,
            jit_work_fraction: 0.02,
            displacement_miss_factor: 1.30,
            gc_threads: 1,
            nondeterminism_cv: 0.012,
        }
    }

    /// Sets the GC work fraction.
    #[must_use]
    pub fn with_gc(mut self, fraction: f64) -> Self {
        self.gc_work_fraction = fraction;
        self
    }

    /// Sets the JIT work fraction.
    #[must_use]
    pub fn with_jit(mut self, fraction: f64) -> Self {
        self.jit_work_fraction = fraction;
        self
    }

    /// Sets the displacement miss factor.
    #[must_use]
    pub fn with_displacement(mut self, factor: f64) -> Self {
        self.displacement_miss_factor = factor;
        self
    }

    /// Sets the GC thread count.
    #[must_use]
    pub fn with_gc_threads(mut self, n: usize) -> Self {
        self.gc_threads = n;
        self
    }
}

/// The role of a software thread within a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadRole {
    /// Application (mutator) work.
    Application,
    /// Garbage-collection service work.
    GcService,
    /// JIT-compilation service work.
    JitService,
}

impl ThreadRole {
    /// Whether this is a VM service rather than application work.
    #[must_use]
    pub fn is_service(self) -> bool {
        !matches!(self, ThreadRole::Application)
    }
}

impl fmt::Display for ThreadRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ThreadRole::Application => "app",
            ThreadRole::GcService => "gc",
            ThreadRole::JitService => "jit",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_language_and_scalability() {
        assert_eq!(Group::NativeNonScalable.language(), Language::Native);
        assert_eq!(Group::JavaScalable.language(), Language::Java);
        assert!(Group::NativeScalable.is_scalable());
        assert!(Group::JavaScalable.is_scalable());
        assert!(!Group::NativeNonScalable.is_scalable());
        assert!(!Group::JavaNonScalable.is_scalable());
        assert_eq!(Group::ALL.len(), 4);
    }

    #[test]
    fn thread_model_counts() {
        assert_eq!(ThreadModel::Single.app_threads(8), 1);
        assert_eq!(ThreadModel::parallel(0.9, 0.01).app_threads(8), 8);
        assert_eq!(
            ThreadModel::parallel_capped(2, 0.9, 0.01).app_threads(8),
            2
        );
        assert_eq!(ThreadModel::parallel(0.9, 0.01).app_threads(1), 1);
    }

    #[test]
    #[should_panic(expected = "at least one hardware context")]
    fn zero_contexts_panics() {
        let _ = ThreadModel::Single.app_threads(0);
    }

    #[test]
    fn managed_profile_builders() {
        let p = ManagedProfile::typical()
            .with_gc(0.12)
            .with_jit(0.05)
            .with_displacement(1.8)
            .with_gc_threads(2);
        assert_eq!(p.gc_work_fraction, 0.12);
        assert_eq!(p.jit_work_fraction, 0.05);
        assert_eq!(p.displacement_miss_factor, 1.8);
        assert_eq!(p.gc_threads, 2);
    }

    #[test]
    fn role_predicates() {
        assert!(!ThreadRole::Application.is_service());
        assert!(ThreadRole::GcService.is_service());
        assert!(ThreadRole::JitService.is_service());
    }

    #[test]
    fn displays() {
        assert_eq!(Suite::Parsec.to_string(), "PARSEC");
        assert_eq!(Group::JavaNonScalable.to_string(), "Java Non-scalable");
        assert_eq!(Language::Java.to_string(), "Java");
        assert_eq!(ThreadRole::GcService.to_string(), "gc");
    }
}
