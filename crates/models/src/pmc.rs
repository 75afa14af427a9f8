//! Synthetic performance-monitoring-counter (PMC) signatures.
//!
//! Chapter 3's throughput predictor keys on LLC misses (Fig. 3.7) and the
//! current throughput/Watt ratio (Fig. 3.8). Real pfmon traces are
//! unavailable here, so each workload gets a deterministic signature
//! derived from its memory-boundedness, with optional sampling noise. Memory-bound workloads
//! have high LLC miss rates and low IPC, matching the relationships the
//! models assume.

use crate::benchmark::WorkloadSpec;
use rand::Rng;

/// Average per-core counter rates for a workload at its nominal operating
/// point. Rates are per kilo-instruction (PKI) except `ipc`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmcSignature {
    /// Instructions per cycle.
    pub ipc: f64,
    /// Last-level-cache misses per kilo-instruction.
    pub llc_mpki: f64,
    /// L1 data-cache references per kilo-instruction.
    pub l1_refs_pki: f64,
    /// L2 data-cache misses per kilo-instruction.
    pub l2_mpki: f64,
    /// Mispredicted branches per kilo-instruction.
    pub branch_mpki: f64,
}

impl PmcSignature {
    /// Deterministic signature for a catalog workload.
    pub fn for_spec(spec: &WorkloadSpec) -> PmcSignature {
        Self::for_memory_boundedness(spec.memory_boundedness())
    }

    /// Signature as a function of memory-boundedness `mb ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `mb` is outside `[0, 1]`.
    pub fn for_memory_boundedness(mb: f64) -> PmcSignature {
        assert!(
            (0.0..=1.0).contains(&mb),
            "memory-boundedness {mb} not in [0,1]"
        );
        PmcSignature {
            // CPU-bound ≈ 2.2 IPC; memory-bound ≈ 0.3.
            ipc: 2.2 - 1.9 * mb,
            // LLC MPKI grows super-linearly with memory-boundedness.
            llc_mpki: 0.2 + 30.0 * mb * mb,
            l1_refs_pki: 250.0 + 150.0 * mb,
            l2_mpki: 1.0 + 18.0 * mb,
            branch_mpki: 6.0 - 3.0 * mb,
        }
    }

    /// LLC misses per cycle — the predictor feature of Eq. 3.8
    /// (`llc_mpki / 1000 * ipc` misses per cycle).
    pub fn llc_misses_per_cycle(&self) -> f64 {
        self.llc_mpki / 1000.0 * self.ipc
    }

    /// A noisy sample of this signature (multiplicative, ±`amount`
    /// relative), modeling run-to-run PMC variation.
    ///
    /// # Panics
    ///
    /// Panics if `amount` is not in `[0, 0.5)`.
    pub fn sample<R: Rng + ?Sized>(&self, amount: f64, rng: &mut R) -> PmcSignature {
        assert!(
            (0.0..0.5).contains(&amount),
            "noise amount {amount} not in [0, 0.5)"
        );
        let mut j = |v: f64| v * (1.0 + rng.gen_range(-amount..=amount));
        PmcSignature {
            ipc: j(self.ipc),
            llc_mpki: j(self.llc_mpki),
            l1_refs_pki: j(self.l1_refs_pki),
            l2_mpki: j(self.l2_mpki),
            branch_mpki: j(self.branch_mpki),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Benchmark;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn memory_bound_signature_has_high_llc_low_ipc() {
        let cpu = PmcSignature::for_spec(Benchmark::Ep.spec());
        let mem = PmcSignature::for_spec(Benchmark::Ra.spec());
        assert!(mem.llc_mpki > 5.0 * cpu.llc_mpki);
        assert!(mem.ipc < cpu.ipc);
        assert!(mem.llc_misses_per_cycle() > cpu.llc_misses_per_cycle());
    }

    #[test]
    fn signatures_are_deterministic() {
        let a = PmcSignature::for_spec(Benchmark::Cg.spec());
        let b = PmcSignature::for_spec(Benchmark::Cg.spec());
        assert_eq!(a, b);
    }

    #[test]
    fn sampling_stays_near_signature() {
        let mut rng = StdRng::seed_from_u64(11);
        let base = PmcSignature::for_spec(Benchmark::Mg.spec());
        for _ in 0..100 {
            let s = base.sample(0.05, &mut rng);
            assert!((s.ipc / base.ipc - 1.0).abs() <= 0.05 + 1e-12);
            assert!((s.llc_mpki / base.llc_mpki - 1.0).abs() <= 0.05 + 1e-12);
        }
    }
}
