//! The paper's physical network: a two-tier star of stars.
//!
//! "Each rack consists of 40 servers which are connected with one
//! top-of-rack 10 GbE Ethernet switch. Further, all racks are connected via
//! a higher-layer core switch" (Section 4.4.1). This module accounts
//! DiBA's per-round core-switch load over that tree: a rack-aligned ring
//! sends only two packets per rack boundary through the core, leaving it
//! essentially idle.

use crate::timing::LinkTiming;
use dpc_models::units::Seconds;

/// Two-tier tree parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoTierNetwork {
    /// Servers behind each top-of-rack switch.
    pub servers_per_rack: usize,
    /// Per-packet forwarding time at a ToR switch.
    pub tor_forward: Seconds,
    /// Per-packet forwarding time at the core switch.
    pub core_forward: Seconds,
    /// Endpoint socket timings.
    pub timing: LinkTiming,
}

impl TwoTierNetwork {
    /// The paper's cluster: 40 servers/rack, 10 GbE cut-through switches
    /// (≈10 µs per forwarded packet), measured endpoint timings.
    pub fn paper() -> TwoTierNetwork {
        TwoTierNetwork {
            servers_per_rack: 40,
            tor_forward: Seconds::from_micros(10.0),
            core_forward: Seconds::from_micros(10.0),
            timing: LinkTiming::measured_10gbe(),
        }
    }

    /// Number of racks for `n` servers (rounding up).
    pub(crate) fn racks(&self, n: usize) -> usize {
        n.div_ceil(self.servers_per_rack.max(1))
    }

    /// Core-switch packets per DiBA round for a rack-aligned ring of `n`
    /// servers: one boundary between consecutive racks, two directed
    /// packets per boundary.
    pub fn diba_core_packets_per_round(&self, n: usize) -> usize {
        if n <= self.servers_per_rack {
            0
        } else {
            2 * self.racks(n)
        }
    }

    /// Wall time of one DiBA ring round over the tree: the neighbor
    /// exchange plus (for cross-rack edges) two switch traversals.
    pub(crate) fn diba_round(&self) -> Seconds {
        let exchange = (self.timing.read + self.timing.write) * 2.0;
        exchange + (self.tor_forward * 2.0 + self.core_forward) * 2.0
    }

    /// Core utilization of a DiBA round: fraction of the round the core
    /// spends forwarding DiBA packets.
    pub fn diba_core_utilization(&self, n: usize) -> f64 {
        let busy = self.core_forward * self.diba_core_packets_per_round(n) as f64;
        busy / self.diba_round()
    }
}

impl Default for TwoTierNetwork {
    fn default() -> Self {
        TwoTierNetwork::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rack_count() {
        let net = TwoTierNetwork::paper();
        assert_eq!(net.racks(40), 1);
        assert_eq!(net.racks(41), 2);
        assert_eq!(net.racks(6400), 160);
        assert_eq!(net.racks(0), 0);
    }

    #[test]
    fn diba_leaves_the_core_essentially_idle() {
        let net = TwoTierNetwork::paper();
        // 6400 servers = 160 racks: 320 core packets per round.
        assert_eq!(net.diba_core_packets_per_round(6400), 320);
        // Within one rack, no core traffic at all.
        assert_eq!(net.diba_core_packets_per_round(30), 0);
        // The core spends a tiny fraction of each round on DiBA.
        let util = net.diba_core_utilization(6400);
        assert!(util > 0.0 && util < 10.0, "utilization {util}");
        // One distributed round costs sub-millisecond even over the tree.
        assert!(net.diba_round().millis() < 1.0);
    }
}
