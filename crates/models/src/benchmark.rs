//! Workload catalog.
//!
//! Chapter 4 of the paper evaluates on ten HPC benchmarks (Table 4.1): eight
//! from the NAS Parallel Benchmarks and two from the HPC Challenge suite.
//! Chapter 3 additionally characterizes SPEC CPU2006 and PARSEC workloads.
//! Since the real binaries are not run here, each workload is reduced to the
//! information the algorithms actually consume: a qualitative *class* and a
//! quantitative *memory-boundedness* that parameterize its power→throughput
//! curve and its synthetic performance-counter signature.

use std::fmt;

/// Benchmark suite a workload comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// NAS Parallel Benchmarks.
    Npb,
    /// HPC Challenge.
    Hpcc,
    /// SPEC CPU2006.
    SpecCpu2006,
    /// PARSEC 2.1.
    Parsec,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Suite::Npb => "NPB",
            Suite::Hpcc => "HPCC",
            Suite::SpecCpu2006 => "SPEC CPU2006",
            Suite::Parsec => "PARSEC",
        };
        f.write_str(s)
    }
}

/// Dominant resource a workload stresses.
///
/// Drives both the shape of the throughput-vs-power curve (CPU-bound
/// workloads scale steeply with the power cap; memory-bound ones saturate
/// early) and the synthetic PMC signature (memory-bound ⇒ high LLC misses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Saturates the cores; throughput tracks frequency almost linearly.
    CpuBound,
    /// Mixed compute and memory behaviour.
    Balanced,
    /// Bounded by DRAM bandwidth/latency; extra power buys little.
    MemoryBound,
    /// Sensitive to cache capacity; in between balanced and memory-bound.
    CacheSensitive,
}

impl WorkloadClass {
    /// Memory-boundedness in `[0, 1]` used as the master knob for curve and
    /// PMC synthesis: `0` is purely CPU-bound, `1` purely memory-bound.
    pub(crate) fn memory_boundedness(self) -> f64 {
        match self {
            WorkloadClass::CpuBound => 0.04,
            WorkloadClass::Balanced => 0.28,
            WorkloadClass::CacheSensitive => 0.58,
            WorkloadClass::MemoryBound => 0.90,
        }
    }
}

impl fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WorkloadClass::CpuBound => "cpu-bound",
            WorkloadClass::Balanced => "balanced",
            WorkloadClass::MemoryBound => "memory-bound",
            WorkloadClass::CacheSensitive => "cache-sensitive",
        };
        f.write_str(s)
    }
}

/// Static description of one catalog workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Short benchmark name as printed in the paper (e.g. `"CG"`).
    pub name: &'static str,
    /// Suite the benchmark belongs to.
    pub suite: Suite,
    /// One-line description (Table 4.1 wording for the HPC set).
    pub description: &'static str,
    /// Dominant resource class.
    pub class: WorkloadClass,
    /// Per-workload jitter around the class memory-boundedness, in `[-1, 1]`;
    /// scaled by ±0.06 when synthesizing curves so same-class workloads are
    /// distinguishable.
    pub skew: f64,
}

impl WorkloadSpec {
    /// Effective memory-boundedness in `[0.02, 0.95]`.
    pub fn memory_boundedness(&self) -> f64 {
        (self.class.memory_boundedness() + 0.06 * self.skew).clamp(0.02, 0.95)
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.suite)
    }
}

/// The ten HPC benchmarks of Table 4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// NPB Block Tri-diagonal solver.
    Bt,
    /// NPB Conjugate Gradient.
    Cg,
    /// NPB Embarrassingly Parallel.
    Ep,
    /// NPB discrete 3D fast Fourier Transform.
    Ft,
    /// NPB Integer Sort.
    Is,
    /// NPB Lower-Upper Gauss-Seidel solver.
    Lu,
    /// NPB Multi-Grid on a sequence of meshes.
    Mg,
    /// NPB Scalar Penta-diagonal solver.
    Sp,
    /// HPCC High Performance Linpack.
    Hpl,
    /// HPCC integer RandomAccess.
    Ra,
}

impl Benchmark {
    /// All ten benchmarks in Table 4.1 order.
    pub(crate) const ALL: [Benchmark; 10] = [
        Benchmark::Bt,
        Benchmark::Cg,
        Benchmark::Ep,
        Benchmark::Ft,
        Benchmark::Is,
        Benchmark::Lu,
        Benchmark::Mg,
        Benchmark::Sp,
        Benchmark::Hpl,
        Benchmark::Ra,
    ];

    /// Static catalog entry for this benchmark.
    pub fn spec(self) -> &'static WorkloadSpec {
        &HPC_BENCHMARKS[self as usize]
    }

    /// Short printed name, e.g. `"CG"`.
    pub fn name(self) -> &'static str {
        self.spec().name
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Catalog backing [`Benchmark`], in `Benchmark::ALL` order (Table 4.1).
pub const HPC_BENCHMARKS: [WorkloadSpec; 10] = [
    WorkloadSpec {
        name: "BT",
        suite: Suite::Npb,
        description: "Block Tri-diagonal solver",
        class: WorkloadClass::Balanced,
        skew: -0.4,
    },
    WorkloadSpec {
        name: "CG",
        suite: Suite::Npb,
        description: "Conjugate Gradient",
        class: WorkloadClass::MemoryBound,
        skew: 0.5,
    },
    WorkloadSpec {
        name: "EP",
        suite: Suite::Npb,
        description: "Embarrassingly Parallel",
        class: WorkloadClass::CpuBound,
        skew: -0.8,
    },
    WorkloadSpec {
        name: "FT",
        suite: Suite::Npb,
        description: "discrete 3D fast Fourier Transform",
        class: WorkloadClass::Balanced,
        skew: 0.6,
    },
    WorkloadSpec {
        name: "IS",
        suite: Suite::Npb,
        description: "Integer Sort",
        class: WorkloadClass::MemoryBound,
        skew: -0.3,
    },
    WorkloadSpec {
        name: "LU",
        suite: Suite::Npb,
        description: "Lower-Upper Gauss-Seidel solver",
        class: WorkloadClass::Balanced,
        skew: -0.9,
    },
    WorkloadSpec {
        name: "MG",
        suite: Suite::Npb,
        description: "Multi-Grid on a sequence of meshes",
        class: WorkloadClass::CacheSensitive,
        skew: 0.4,
    },
    WorkloadSpec {
        name: "SP",
        suite: Suite::Npb,
        description: "Scalar Penta-diagonal solver",
        class: WorkloadClass::Balanced,
        skew: 0.1,
    },
    WorkloadSpec {
        name: "HPL",
        suite: Suite::Hpcc,
        description: "High performance Linpack benchmark",
        class: WorkloadClass::CpuBound,
        skew: 0.3,
    },
    WorkloadSpec {
        name: "RA",
        suite: Suite::Hpcc,
        description: "Integer random access of memory",
        class: WorkloadClass::MemoryBound,
        skew: 0.9,
    },
];

/// SPEC CPU2006 subset used for the Chapter 3 characterization database.
pub const SPEC_CPU2006: [WorkloadSpec; 16] = [
    WorkloadSpec {
        name: "bzip2",
        suite: Suite::SpecCpu2006,
        description: "compression",
        class: WorkloadClass::Balanced,
        skew: -0.2,
    },
    WorkloadSpec {
        name: "gcc",
        suite: Suite::SpecCpu2006,
        description: "C compiler",
        class: WorkloadClass::CacheSensitive,
        skew: -0.5,
    },
    WorkloadSpec {
        name: "mcf",
        suite: Suite::SpecCpu2006,
        description: "combinatorial optimization",
        class: WorkloadClass::MemoryBound,
        skew: 0.7,
    },
    WorkloadSpec {
        name: "milc",
        suite: Suite::SpecCpu2006,
        description: "lattice QCD",
        class: WorkloadClass::MemoryBound,
        skew: 0.1,
    },
    WorkloadSpec {
        name: "namd",
        suite: Suite::SpecCpu2006,
        description: "molecular dynamics",
        class: WorkloadClass::CpuBound,
        skew: 0.2,
    },
    WorkloadSpec {
        name: "gobmk",
        suite: Suite::SpecCpu2006,
        description: "Go playing",
        class: WorkloadClass::Balanced,
        skew: 0.4,
    },
    WorkloadSpec {
        name: "soplex",
        suite: Suite::SpecCpu2006,
        description: "linear programming",
        class: WorkloadClass::CacheSensitive,
        skew: 0.3,
    },
    WorkloadSpec {
        name: "povray",
        suite: Suite::SpecCpu2006,
        description: "ray tracing",
        class: WorkloadClass::CpuBound,
        skew: -0.4,
    },
    WorkloadSpec {
        name: "hmmer",
        suite: Suite::SpecCpu2006,
        description: "gene sequence search",
        class: WorkloadClass::CpuBound,
        skew: 0.6,
    },
    WorkloadSpec {
        name: "sjeng",
        suite: Suite::SpecCpu2006,
        description: "chess playing",
        class: WorkloadClass::Balanced,
        skew: -0.6,
    },
    WorkloadSpec {
        name: "libquantum",
        suite: Suite::SpecCpu2006,
        description: "quantum simulation",
        class: WorkloadClass::MemoryBound,
        skew: -0.6,
    },
    WorkloadSpec {
        name: "h264ref",
        suite: Suite::SpecCpu2006,
        description: "video encoding",
        class: WorkloadClass::Balanced,
        skew: 0.8,
    },
    WorkloadSpec {
        name: "lbm",
        suite: Suite::SpecCpu2006,
        description: "lattice Boltzmann",
        class: WorkloadClass::MemoryBound,
        skew: 0.4,
    },
    WorkloadSpec {
        name: "omnetpp",
        suite: Suite::SpecCpu2006,
        description: "discrete event simulation",
        class: WorkloadClass::CacheSensitive,
        skew: 0.7,
    },
    WorkloadSpec {
        name: "astar",
        suite: Suite::SpecCpu2006,
        description: "path finding",
        class: WorkloadClass::CacheSensitive,
        skew: -0.2,
    },
    WorkloadSpec {
        name: "sphinx3",
        suite: Suite::SpecCpu2006,
        description: "speech recognition",
        class: WorkloadClass::Balanced,
        skew: 0.2,
    },
];

/// PARSEC subset used for the Chapter 3 characterization database.
pub const PARSEC: [WorkloadSpec; 10] = [
    WorkloadSpec {
        name: "blackscholes",
        suite: Suite::Parsec,
        description: "option pricing",
        class: WorkloadClass::CpuBound,
        skew: 0.1,
    },
    WorkloadSpec {
        name: "bodytrack",
        suite: Suite::Parsec,
        description: "body tracking",
        class: WorkloadClass::Balanced,
        skew: -0.3,
    },
    WorkloadSpec {
        name: "canneal",
        suite: Suite::Parsec,
        description: "simulated annealing",
        class: WorkloadClass::MemoryBound,
        skew: 0.6,
    },
    WorkloadSpec {
        name: "dedup",
        suite: Suite::Parsec,
        description: "stream deduplication",
        class: WorkloadClass::CacheSensitive,
        skew: 0.1,
    },
    WorkloadSpec {
        name: "facesim",
        suite: Suite::Parsec,
        description: "face simulation",
        class: WorkloadClass::Balanced,
        skew: 0.5,
    },
    WorkloadSpec {
        name: "ferret",
        suite: Suite::Parsec,
        description: "content similarity search",
        class: WorkloadClass::CacheSensitive,
        skew: -0.4,
    },
    WorkloadSpec {
        name: "fluidanimate",
        suite: Suite::Parsec,
        description: "fluid dynamics",
        class: WorkloadClass::Balanced,
        skew: -0.7,
    },
    WorkloadSpec {
        name: "freqmine",
        suite: Suite::Parsec,
        description: "frequent itemset mining",
        class: WorkloadClass::CacheSensitive,
        skew: 0.5,
    },
    WorkloadSpec {
        name: "streamcluster",
        suite: Suite::Parsec,
        description: "online clustering",
        class: WorkloadClass::MemoryBound,
        skew: -0.2,
    },
    WorkloadSpec {
        name: "swaptions",
        suite: Suite::Parsec,
        description: "swaption pricing",
        class: WorkloadClass::CpuBound,
        skew: -0.6,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table_4_1() {
        assert_eq!(Benchmark::ALL.len(), 10);
        let npb: Vec<_> = Benchmark::ALL
            .iter()
            .filter(|b| b.spec().suite == Suite::Npb)
            .collect();
        let hpcc: Vec<_> = Benchmark::ALL
            .iter()
            .filter(|b| b.spec().suite == Suite::Hpcc)
            .collect();
        assert_eq!(npb.len(), 8);
        assert_eq!(hpcc.len(), 2);
        assert_eq!(Benchmark::Cg.name(), "CG");
        assert_eq!(
            Benchmark::Hpl.spec().description,
            "High performance Linpack benchmark"
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = HPC_BENCHMARKS.iter().map(|s| s.name).collect();
        names.extend(SPEC_CPU2006.iter().map(|s| s.name));
        names.extend(PARSEC.iter().map(|s| s.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate benchmark names in catalog");
    }

    #[test]
    fn memory_boundedness_is_ordered_and_bounded() {
        assert!(
            WorkloadClass::CpuBound.memory_boundedness()
                < WorkloadClass::Balanced.memory_boundedness()
        );
        assert!(
            WorkloadClass::Balanced.memory_boundedness()
                < WorkloadClass::CacheSensitive.memory_boundedness()
        );
        assert!(
            WorkloadClass::CacheSensitive.memory_boundedness()
                < WorkloadClass::MemoryBound.memory_boundedness()
        );
        for spec in HPC_BENCHMARKS.iter().chain(&SPEC_CPU2006).chain(&PARSEC) {
            let m = spec.memory_boundedness();
            assert!((0.02..=0.95).contains(&m), "{}: {m}", spec.name);
        }
    }

    #[test]
    fn ra_is_most_memory_bound_hpc_benchmark() {
        let ra = Benchmark::Ra.spec().memory_boundedness();
        for b in Benchmark::ALL {
            assert!(b.spec().memory_boundedness() <= ra, "{b}");
        }
    }

    #[test]
    fn display_includes_suite() {
        assert_eq!(format!("{}", Benchmark::Ra.spec()), "RA (HPCC)");
        assert_eq!(format!("{}", Benchmark::Cg), "CG");
    }
}
