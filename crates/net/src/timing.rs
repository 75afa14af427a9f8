//! Socket-level timing constants and the per-round communication models.
//!
//! The paper measured ≈200 µs to read and ≈10 µs to write a packet on TCP
//! sockets between two cluster nodes and used those values as service times
//! in a network queueing model (Section 4.4.2, "Scalability"). Two
//! communication patterns are modeled:
//!
//! * **coordinator round** (centralized & primal-dual): all `N` nodes send
//!   to one coordinator — Poisson arrivals drained by a serial reader — then
//!   the coordinator writes `N` replies back serially;
//! * **neighbor round** (DiBA): every node exchanges one packet with each
//!   graph neighbor, all nodes in parallel, so a round costs the *maximum
//!   per-node* exchange time — independent of cluster size.
//!
//! The tests cross-validate the queue simulation against its closed-form
//! expectation.

use dpc_models::units::Seconds;
use rand::Rng;

/// Point-to-point packet service times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkTiming {
    /// Time for the receiver to read one packet off the socket.
    pub read: Seconds,
    /// Time for the sender to write one packet onto the socket.
    pub write: Seconds,
}

impl LinkTiming {
    /// The paper's measured 10 GbE cluster values: 200 µs read, 10 µs write.
    pub fn measured_10gbe() -> LinkTiming {
        LinkTiming {
            read: Seconds::from_micros(200.0),
            write: Seconds::from_micros(10.0),
        }
    }
}

impl Default for LinkTiming {
    fn default() -> Self {
        LinkTiming::measured_10gbe()
    }
}

/// One coordinator round simulated as an M/D/1-style drain: `n` uplink
/// packets with exponential inter-arrival times (mean = `read`) served
/// FIFO at deterministic `read` per packet, followed by `n` serial
/// downlink writes.
///
/// Returns the wall-clock duration of the round.
pub(crate) fn coordinator_round_sim<R: Rng + ?Sized>(
    n: usize,
    timing: LinkTiming,
    rng: &mut R,
) -> Seconds {
    if n == 0 {
        return Seconds::ZERO;
    }
    let mean = timing.read.0.max(1e-12);
    let mut arrival = 0.0_f64;
    let mut server_free = 0.0_f64;
    for _ in 0..n {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        arrival += -mean * u.ln();
        let start = arrival.max(server_free);
        server_free = start + timing.read.0;
    }
    Seconds(server_free) + timing.write * n as f64
}

/// One DiBA round: every node writes one packet to and reads one packet
/// from each of its neighbors; nodes proceed in parallel, so the round
/// costs the busiest node's exchange time.
pub(crate) fn neighbor_round(max_degree: usize, timing: LinkTiming) -> Seconds {
    (timing.read + timing.write) * max_degree as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Closed-form expectation of [`coordinator_round_sim`]: with arrival
    /// rate equal to the service rate the drain completes essentially when
    /// the last packet has been served, `n·read`, plus the serial downlink
    /// `n·write`.
    fn coordinator_round_expected(n: usize, timing: LinkTiming) -> Seconds {
        timing.read * n as f64 + timing.write * n as f64
    }

    #[test]
    fn defaults_match_paper_measurements() {
        let t = LinkTiming::default();
        assert!((t.read.micros() - 200.0).abs() < 1e-9);
        assert!((t.write.micros() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn coordinator_round_matches_table_4_2_magnitudes() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = LinkTiming::default();
        // Paper Table 4.2 centralized comm: 86.25 ms @ N=400, 1362.5 ms @ N=6400.
        let r400 = coordinator_round_sim(400, t, &mut rng);
        assert!(
            r400.millis() > 78.0 && r400.millis() < 100.0,
            "{}",
            r400.millis()
        );
        let r6400 = coordinator_round_sim(6400, t, &mut rng);
        assert!(
            r6400.millis() > 1280.0 && r6400.millis() < 1500.0,
            "{}",
            r6400.millis()
        );
    }

    #[test]
    fn simulation_is_close_to_expectation() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = LinkTiming::default();
        for &n in &[100usize, 800, 3200] {
            let sim = coordinator_round_sim(n, t, &mut rng);
            let exp = coordinator_round_expected(n, t);
            let rel = (sim.0 - exp.0).abs() / exp.0;
            // Queueing jitter adds O(√n) absolute, i.e. O(1/√n) relative.
            let tol = 3.0 / (n as f64).sqrt() + 0.02;
            assert!(
                rel < tol,
                "n={n}: sim {sim} vs exp {exp} (rel {rel:.3} > tol {tol:.3})"
            );
            assert!(sim >= exp * 0.99, "drain cannot beat pure service time");
        }
    }

    #[test]
    fn neighbor_round_is_size_independent_and_cheap() {
        let t = LinkTiming::default();
        let ring = neighbor_round(2, t);
        assert!((ring.micros() - 420.0).abs() < 1e-9);
        // A whole DiBA convergence (≈70 ring iterations) stays under the
        // coordinator's single round at N=400.
        assert!(ring * 70.0 < coordinator_round_expected(400, t));
    }

    #[test]
    fn zero_size_edge_cases() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = LinkTiming::default();
        assert_eq!(coordinator_round_sim(0, t, &mut rng), Seconds::ZERO);
        assert_eq!(neighbor_round(0, t), Seconds::ZERO);
    }
}
