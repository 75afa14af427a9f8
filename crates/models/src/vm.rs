//! Server load composition for the online-dynamics scenarios: a server's
//! fitted power→throughput curve as a function of its resident VM set.
//!
//! CloudPowerCap's premise is that power capping only matters inside a
//! *changing* resource-management timeline: VMs arrive and depart, and the
//! server's fitted quadratic `r_i(p)` must be re-fitted each time. This
//! module is that re-fitting model. A [`ServerLoad`] carries a base
//! workload (the server's always-resident services) plus a LIFO stack of
//! [`VmSpec`]s; [`ServerLoad::fitted`] composes them into one
//! [`QuadraticUtility`]:
//!
//! * **Shape** — the effective memory-boundedness is the share-weighted
//!   mean over the resident load (base + VMs): memory-bound VMs flatten
//!   the curve, CPU-bound VMs steepen it (via
//!   [`CurveParams::for_memory_boundedness`]).
//! * **Magnitude** — peak throughput scales with occupancy: an idle
//!   server gains little from extra power, a packed one gains a lot, so
//!   arrivals raise (and departures lower) the curve's slope and with it
//!   the power the allocator steers toward the node.
//!
//! The composition is a pure function of the resident set, so replaying
//! the same arrival/departure sequence always re-fits the same curves —
//! the determinism the scenario replay driver builds on.

use crate::throughput::{CurveParams, QuadraticUtility};
use crate::units::Watts;

/// One virtual machine resident on a server, as the re-fitting model sees
/// it: how much of the server it occupies and what its workload looks like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmSpec {
    /// Fraction of the server's capacity the VM occupies, in `(0, 1]`.
    pub share: f64,
    /// Memory-boundedness of the VM's workload, in `[0, 1]` (0 = purely
    /// CPU-bound, 1 = purely memory-bound).
    pub memory_boundedness: f64,
}

impl VmSpec {
    /// `true` when both fields are finite and in range — the check the
    /// scenario parser performs before any panicking model call.
    pub fn is_valid(&self) -> bool {
        self.share.is_finite()
            && self.share > 0.0
            && self.share <= 1.0
            && self.memory_boundedness.is_finite()
            && (0.0..=1.0).contains(&self.memory_boundedness)
    }
}

/// The share a freshly provisioned server's base workload (OS, always-on
/// services) occupies regardless of VM churn. Servers adopted from an
/// already-fitted curve ([`ServerLoad::from_fitted`]) instead carry a
/// fully-busy base of share 1.0, because the cluster's learned curves
/// describe fully utilized servers.
const BASE_SHARE: f64 = 0.35;

/// The throughput scale of a fully idle server relative to a packed one:
/// even at zero occupancy the curve keeps a quarter of its slope, so the
/// allocator never sees a dead-flat (degenerate) utility.
const IDLE_SCALE: f64 = 0.25;

/// A server's resident load: a base workload plus a stack of VMs, with the
/// fitted utility curve derived from the composition.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerLoad {
    base_mb: f64,
    base_share: f64,
    p_idle: Watts,
    p_peak: Watts,
    vms: Vec<VmSpec>,
}

impl ServerLoad {
    /// A server with only its base workload resident.
    ///
    /// # Panics
    ///
    /// Panics when `base_mb` is outside `[0, 1]` or the power box is empty
    /// (`p_idle ≥ p_peak`). The scenario parser validates before calling.
    pub(crate) fn new(base_mb: f64, p_idle: Watts, p_peak: Watts) -> ServerLoad {
        assert!(
            base_mb.is_finite() && (0.0..=1.0).contains(&base_mb),
            "base memory-boundedness {base_mb} not in [0,1]"
        );
        assert!(p_idle < p_peak, "power box empty: {p_idle} >= {p_peak}");
        ServerLoad {
            base_mb,
            base_share: BASE_SHARE,
            p_idle,
            p_peak,
            vms: Vec::new(),
        }
    }

    /// A server whose base workload is estimated *from* an already-fitted
    /// curve: the curve's end-slope ratio is inverted through the
    /// [`CurveParams::for_memory_boundedness`] synthesis to recover a
    /// memory-boundedness, so the composed base keeps roughly the shape of
    /// the curve the cluster was built with. This is how the replay driver
    /// adopts a server the first time an event touches it.
    pub fn from_fitted(u: &QuadraticUtility) -> ServerLoad {
        let m0 = u.slope(u.p_min()).max(1e-12);
        let rho = (u.slope(u.p_max()) / m0).clamp(0.0, 1.0);
        // Invert end_slope_ratio = 0.85·(1−mb)^1.5 + 0.02.
        let base_mb = 1.0 - ((rho - 0.02) / 0.85).clamp(0.0, 1.0).powf(2.0 / 3.0);
        let mut load = ServerLoad::new(base_mb.clamp(0.0, 1.0), u.p_min(), u.p_max());
        // The learned curve described a fully utilized server.
        load.base_share = 1.0;
        load
    }

    /// Places a VM on the server.
    ///
    /// # Panics
    ///
    /// Panics when `vm` fails [`VmSpec::is_valid`].
    pub fn vm_arrive(&mut self, vm: VmSpec) {
        assert!(vm.is_valid(), "invalid VM spec: {vm:?}");
        self.vms.push(vm);
    }

    /// Removes the most recently placed VM (LIFO — the scenario format
    /// addresses departures by server, not by VM id). Returns `None` when
    /// only the base workload is resident.
    pub fn vm_depart(&mut self) -> Option<VmSpec> {
        self.vms.pop()
    }

    /// Re-characterizes the base workload (a phase change: the resident
    /// job moved from its compute phase to its memory phase, say).
    ///
    /// # Panics
    ///
    /// Panics when `mb` is outside `[0, 1]`.
    pub fn set_phase(&mut self, mb: f64) {
        assert!(
            mb.is_finite() && (0.0..=1.0).contains(&mb),
            "memory-boundedness {mb} not in [0,1]"
        );
        self.base_mb = mb;
    }

    /// Total occupancy (base share + VM shares), clamped to `[0, 1]` —
    /// oversubscription saturates rather than overdriving the curve.
    pub(crate) fn occupancy(&self) -> f64 {
        let vm_total: f64 = self.vms.iter().map(|v| v.share).sum();
        (self.base_share + vm_total).min(1.0)
    }

    /// The share-weighted effective memory-boundedness of the resident
    /// load.
    pub(crate) fn effective_memory_boundedness(&self) -> f64 {
        let mut weight = self.base_share;
        let mut acc = self.base_share * self.base_mb;
        for vm in &self.vms {
            weight += vm.share;
            acc += vm.share * vm.memory_boundedness;
        }
        (acc / weight).clamp(0.0, 1.0)
    }

    /// The fitted utility curve of the current composition: shape from the
    /// effective memory-boundedness, magnitude from occupancy. Pure in the
    /// resident set — the same composition always fits the same curve.
    pub fn fitted(&self) -> QuadraticUtility {
        let shape = CurveParams::for_memory_boundedness(self.effective_memory_boundedness());
        let scale = IDLE_SCALE + (1.0 - IDLE_SCALE) * self.occupancy();
        shape.utility(self.p_idle, self.p_peak).scaled(scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load() -> ServerLoad {
        ServerLoad::new(0.4, Watts(100.0), Watts(250.0))
    }

    #[test]
    fn arrival_raises_the_curve_departure_restores_it() {
        let mut s = load();
        let before = s.fitted();
        s.vm_arrive(VmSpec {
            share: 0.5,
            memory_boundedness: 0.4,
        });
        let during = s.fitted();
        // Same workload mix at higher occupancy: strictly more throughput
        // per watt everywhere in the box interior.
        assert!(during.value(Watts(180.0)) > before.value(Watts(180.0)));
        assert!(during.slope(Watts(180.0)) > before.slope(Watts(180.0)));
        let departed = s.vm_depart().expect("one VM resident");
        assert_eq!(departed.share, 0.5);
        // Pure composition: the restored curve is bit-identical.
        assert_eq!(s.fitted(), before);
        assert!(s.vm_depart().is_none());
    }

    #[test]
    fn memory_bound_vms_flatten_the_curve() {
        let mut cpu = load();
        let mut mem = load();
        cpu.vm_arrive(VmSpec {
            share: 0.6,
            memory_boundedness: 0.0,
        });
        mem.vm_arrive(VmSpec {
            share: 0.6,
            memory_boundedness: 1.0,
        });
        // The CPU-bound tenant keeps a much steeper end slope.
        let at_peak = Watts(249.0);
        assert!(cpu.fitted().slope(at_peak) > mem.fitted().slope(at_peak));
        assert!(mem.effective_memory_boundedness() > cpu.effective_memory_boundedness());
    }

    #[test]
    fn oversubscription_saturates_occupancy() {
        let mut s = load();
        for _ in 0..4 {
            s.vm_arrive(VmSpec {
                share: 0.9,
                memory_boundedness: 0.5,
            });
        }
        assert_eq!(s.occupancy(), 1.0);
        // The fitted curve stays a valid concave utility.
        let u = s.fitted();
        assert!(u.slope(u.p_max()) >= 0.0);
    }

    #[test]
    fn phase_change_shifts_shape_only() {
        let mut s = load();
        let before = s.fitted();
        s.set_phase(0.95);
        let after = s.fitted();
        assert!(after.slope(Watts(249.0)) < before.slope(Watts(249.0)));
        assert_eq!(s.occupancy(), BASE_SHARE.min(1.0));
    }

    #[test]
    fn from_fitted_recovers_the_curve_shape() {
        // Round trip: synthesize a curve at a known memory-boundedness,
        // adopt it, and check the estimated base lands close.
        for mb in [0.1, 0.5, 0.9] {
            let u = CurveParams::for_memory_boundedness(mb).utility(Watts(100.0), Watts(250.0));
            let s = ServerLoad::from_fitted(&u);
            assert!(
                (s.effective_memory_boundedness() - mb).abs() < 0.05,
                "mb {mb} estimated as {}",
                s.effective_memory_boundedness()
            );
            // Adopted servers are fully utilized: the re-fitted curve
            // keeps the original magnitude.
            assert_eq!(s.occupancy(), 1.0);
            let refit = s.fitted();
            let mid = Watts(175.0);
            assert!((refit.slope(mid) - u.slope(mid)).abs() / u.slope(mid).max(1e-9) < 0.1);
        }
    }

    #[test]
    fn validity_check_matches_the_panicking_contract() {
        for (share, mb, ok) in [
            (0.5, 0.5, true),
            (0.0, 0.5, false),
            (1.5, 0.5, false),
            (f64::NAN, 0.5, false),
            (0.5, -0.1, false),
            (0.5, f64::INFINITY, false),
        ] {
            assert_eq!(
                VmSpec {
                    share,
                    memory_boundedness: mb
                }
                .is_valid(),
                ok,
                "share {share}, mb {mb}"
            );
        }
    }
}
