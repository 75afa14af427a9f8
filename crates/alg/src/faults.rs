//! Deterministic fault injection for the deployed agents.
//!
//! The paper's robustness story (Section 4.2) is that a fully decentralized
//! allocator keeps operating — and keeps the budget — when the datacenter
//! misbehaves: packets are dropped, duplicated, reordered or delayed, and
//! servers stall, crash, reboot, or leave for good. This module states
//! that as a seeded, bit-reproducible [`FaultPlan`]; the runtime's lockstep
//! executor (`dpc_runtime::lockstep::Lockstep`) runs the agents under it.
//!
//! The plan has three parts:
//!
//! * [`LinkFaults`] — per-message stochastic faults;
//! * an activation probability — a node whose control loop fired late
//!   sits the round out;
//! * a round-indexed schedule of [`NodeFault`]s — crash, restart, and
//!   permanent departure events.
//!
//! Every draw comes from the plan's own seeded RNG through a
//! [`FaultSampler`], and a benign plan draws nothing, so it leaves the
//! fault-free trajectory bitwise untouched. Fault semantics are chosen so
//! the residual invariant `Σe = Σp − P` stays *exactly* accounted at all
//! times (see DESIGN.md, "Fault model & recovery"): a dropped message is
//! rolled back by its sender (reliable transport reports the failure after
//! [`LinkFaults::rtt`] rounds), a duplicate re-delivers only the stale
//! residual (receivers deduplicate the slack payload), and a dead node's
//! residual-and-power mass is held in escrow until its neighbors detect
//! the silence and re-absorb the freed budget.
//!
//! ```
//! use dpc_alg::faults::{FaultPlan, FaultSampler, LinkFaults, NodeFaultKind};
//!
//! // 10 % message loss, a node sitting one round in five out, and node 5
//! // crashing at round 200.
//! let link = LinkFaults { drop: 0.10, ..LinkFaults::none() };
//! let plan = FaultPlan { activation: 0.8, ..FaultPlan::with_link(7, link) }
//!     .and(200, 5, NodeFaultKind::Crash);
//! assert!(plan.validate(16).is_ok());
//! assert!(!plan.is_benign());
//!
//! // Fates are a pure function of the seed.
//! let (mut a, mut b) = (FaultSampler::new(&plan), FaultSampler::new(&plan));
//! let drops = (0..1_000).filter(|_| a.fate().dropped).count();
//! assert_eq!(drops, (0..1_000).filter(|_| b.fate().dropped).count());
//! assert!((50..150).contains(&drops));
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Per-message stochastic link faults. All probabilities are per message
/// and independent; every draw comes from the plan's seeded RNG, so a run
/// is bit-reproducible given the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is dropped. The transfer it carried is rolled
    /// back by the sender [`LinkFaults::rtt`] rounds later (reliable
    /// transport reports the delivery failure), so no slack mass is ever
    /// silently destroyed.
    pub drop: f64,
    /// Probability a message is duplicated. The duplicate arrives later
    /// (up to [`LinkFaults::reorder_max`] extra rounds) carrying only the
    /// — by then stale — residual snapshot: receivers deduplicate the
    /// slack payload, but sequence-number-free gossip state regresses.
    pub duplicate: f64,
    /// Probability a message is reordered: it picks up an extra uniform
    /// delay of `1..=reorder_max` rounds and may overtake or be overtaken
    /// by its neighbors.
    pub reorder: f64,
    /// Bound (rounds) on the extra delay of reordered messages and
    /// duplicates.
    pub reorder_max: usize,
    /// Rounds until a failed delivery is reported back to the sender
    /// (dropped messages and messages addressed to dead nodes bounce after
    /// this many rounds).
    pub rtt: usize,
}

impl LinkFaults {
    /// No link faults at all.
    pub fn none() -> LinkFaults {
        LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_max: 4,
            rtt: 3,
        }
    }

    /// `true` when no message can ever be faulted.
    pub fn is_benign(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.reorder == 0.0
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::none()
    }
}

/// What happens to a node at a scheduled round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFaultKind {
    /// The node powers off silently: its draw goes to zero, its residual
    /// mass moves to escrow, and it stops sending. Neighbors only learn of
    /// the crash through silence (the agents' `detect_after` rounds of it).
    Crash,
    /// A crashed node reboots: it re-admits itself at its idle power by
    /// consuming its own escrowed slack, topped up by neighbor donations
    /// when the escrow was already re-absorbed. A reboot that cannot
    /// gather enough slack is retried every round until it can.
    Restart,
    /// The node leaves the cluster for good, gracefully: it donates its
    /// residual-and-power mass `e − p` to its live neighbors in a farewell
    /// message, so the budget it occupied is re-absorbed immediately.
    Depart,
}

impl fmt::Display for NodeFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NodeFaultKind::Crash => "crash",
            NodeFaultKind::Restart => "restart",
            NodeFaultKind::Depart => "depart",
        })
    }
}

/// One scheduled node event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeFault {
    /// The round at which the event fires, before any node acts in it
    /// (rounds count from 1; round 0 is the initial state).
    pub round: usize,
    /// The affected node.
    pub node: usize,
    /// What happens.
    pub kind: NodeFaultKind,
}

/// Health of a node under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Operating normally.
    Alive,
    /// Powered off by a [`NodeFaultKind::Crash`]; may restart.
    Crashed,
    /// Left permanently via [`NodeFaultKind::Depart`].
    Departed,
}

/// A complete, seeded fault-injection plan: link-fault rates, node
/// activation, and a node event schedule.
///
/// A benign plan (the [`FaultPlan::none`] default) injects nothing and is
/// guaranteed not to perturb the fault-free trajectory — the runtime's
/// `lockstep_faults` tests pin that bitwise.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the plan's RNG, which draws every message fate and stall.
    pub seed: u64,
    /// Stochastic per-message link faults.
    pub link: LinkFaults,
    /// Scheduled node events, in any order (scanned per round).
    pub schedule: Vec<NodeFault>,
    /// Probability a live node takes its round, in `(0, 1]`; otherwise it
    /// stalls — its control loop fired late — and sits the round out.
    pub activation: f64,
}

impl FaultPlan {
    /// The benign plan: no link faults, no node events, every node acting
    /// every round.
    pub fn none() -> FaultPlan {
        FaultPlan::with_link(0, LinkFaults::none())
    }

    /// A plan with the given seed and link-fault rates, every node acting
    /// every round, and an empty node schedule.
    pub fn with_link(seed: u64, link: LinkFaults) -> FaultPlan {
        FaultPlan {
            seed,
            link,
            schedule: Vec::new(),
            activation: 1.0,
        }
    }

    /// Appends a node event to the schedule (builder style).
    pub fn and(mut self, round: usize, node: usize, kind: NodeFaultKind) -> FaultPlan {
        self.schedule.push(NodeFault { round, node, kind });
        self
    }

    /// `true` when the plan can never perturb a run: no link faults, no
    /// node events, and no stalls.
    pub fn is_benign(&self) -> bool {
        self.link.is_benign() && self.schedule.is_empty() && self.activation == 1.0
    }

    /// Validates the plan against a cluster of `n` nodes.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending field: a node id out
    /// of range, a probability outside `[0, 1)`, an activation outside
    /// `(0, 1]`, or a zero `reorder_max` / `rtt` with a nonzero matching
    /// rate.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        for (name, p) in [
            ("drop", self.link.drop),
            ("duplicate", self.link.duplicate),
            ("reorder", self.link.reorder),
        ] {
            if !(0.0..1.0).contains(&p) {
                return Err(format!("link fault `{name}` = {p} not in [0, 1)"));
            }
        }
        if !(self.activation > 0.0 && self.activation <= 1.0) {
            return Err(format!("activation {} not in (0, 1]", self.activation));
        }
        if (self.link.reorder > 0.0 || self.link.duplicate > 0.0) && self.link.reorder_max == 0 {
            return Err("reorder_max must be positive when reorder/duplicate > 0".into());
        }
        if self.link.rtt == 0 {
            return Err("rtt must be at least 1 round".into());
        }
        for f in &self.schedule {
            if f.node >= n {
                return Err(format!(
                    "scheduled {} at round {} targets node {} of {n}",
                    f.kind, f.round, f.node
                ));
            }
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// The fate of one message under a plan's link faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageFate {
    /// The message never arrives; the sender rolls the transfer back after
    /// [`LinkFaults::rtt`] rounds.
    pub dropped: bool,
    /// A stale, transfer-free duplicate is delivered `dup_lag` extra
    /// rounds later (0 = no duplicate).
    pub dup_lag: usize,
    /// Extra delay from reordering (0 = in order).
    pub extra_delay: usize,
}

impl MessageFate {
    /// The fate of an unfaulted message.
    pub fn clean() -> MessageFate {
        MessageFate {
            dropped: false,
            dup_lag: 0,
            extra_delay: 0,
        }
    }
}

/// The seeded sampler turning a plan's rates into per-message
/// [`MessageFate`]s and per-node stalls, from the plan's own RNG stream.
#[derive(Debug, Clone)]
pub struct FaultSampler {
    link: LinkFaults,
    activation: f64,
    rng: StdRng,
    benign: bool,
}

impl FaultSampler {
    /// Builds the sampler for a plan.
    pub fn new(plan: &FaultPlan) -> FaultSampler {
        FaultSampler {
            link: plan.link,
            activation: plan.activation,
            rng: StdRng::seed_from_u64(plan.seed),
            benign: plan.link.is_benign(),
        }
    }

    /// Draws the fate of the next message. Consumes no randomness at all
    /// when the link is benign, so a benign plan is draw-for-draw inert.
    pub fn fate(&mut self) -> MessageFate {
        if self.benign {
            return MessageFate::clean();
        }
        let dropped = self.link.drop > 0.0 && self.rng.gen_range(0.0..1.0) < self.link.drop;
        let dup_lag = if !dropped
            && self.link.duplicate > 0.0
            && self.rng.gen_range(0.0..1.0) < self.link.duplicate
        {
            self.rng.gen_range(1..=self.link.reorder_max.max(1))
        } else {
            0
        };
        let extra_delay = if !dropped
            && self.link.reorder > 0.0
            && self.rng.gen_range(0.0..1.0) < self.link.reorder
        {
            self.rng.gen_range(1..=self.link.reorder_max.max(1))
        } else {
            0
        };
        MessageFate {
            dropped,
            dup_lag,
            extra_delay,
        }
    }

    /// Whether the next node sits this round out. Consumes no randomness
    /// when every node always acts.
    pub fn stalls(&mut self) -> bool {
        self.activation < 1.0 && self.rng.gen_range(0.0..1.0) >= self.activation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_plan_is_benign() {
        let plan = FaultPlan::none();
        assert!(plan.is_benign());
        assert!(plan.validate(10).is_ok());
        let mut s = FaultSampler::new(&plan);
        for _ in 0..100 {
            assert_eq!(s.fate(), MessageFate::clean());
            assert!(!s.stalls());
        }
    }

    #[test]
    fn builder_composes_the_schedule() {
        let plan = FaultPlan::with_link(
            7,
            LinkFaults {
                drop: 0.1,
                ..LinkFaults::none()
            },
        )
        .and(50, 3, NodeFaultKind::Crash)
        .and(200, 3, NodeFaultKind::Restart);
        assert!(!plan.is_benign());
        assert_eq!(plan.schedule.len(), 2);
        assert!(plan.validate(10).is_ok());
        assert!(plan.validate(3).is_err(), "node 3 out of range for n=3");
        let stalling = FaultPlan {
            activation: 0.9,
            ..FaultPlan::none()
        };
        assert!(!stalling.is_benign());
    }

    #[test]
    fn validation_rejects_bad_rates() {
        let mut plan = FaultPlan::none();
        plan.link.drop = 1.5;
        assert!(plan.validate(4).unwrap_err().contains("drop"));
        plan.link.drop = 0.0;
        plan.link.rtt = 0;
        assert!(plan.validate(4).unwrap_err().contains("rtt"));
        plan.link.rtt = 3;
        plan.link.reorder = 0.2;
        plan.link.reorder_max = 0;
        assert!(plan.validate(4).unwrap_err().contains("reorder_max"));
        plan.link.reorder_max = 4;
        for activation in [0.0, -0.5, 1.5, f64::NAN] {
            plan.activation = activation;
            assert!(plan.validate(4).unwrap_err().contains("activation"));
        }
    }

    #[test]
    fn sampler_is_seed_deterministic_and_rates_bite() {
        let plan = FaultPlan {
            activation: 0.75,
            ..FaultPlan::with_link(
                42,
                LinkFaults {
                    drop: 0.3,
                    duplicate: 0.2,
                    reorder: 0.25,
                    reorder_max: 4,
                    rtt: 3,
                },
            )
        };
        let mut a = FaultSampler::new(&plan);
        let mut b = FaultSampler::new(&plan);
        let fates: Vec<MessageFate> = (0..2_000).map(|_| a.fate()).collect();
        assert!(fates
            .iter()
            .eq((0..2_000).map(|_| b.fate()).collect::<Vec<_>>().iter()));
        let drops = fates.iter().filter(|f| f.dropped).count();
        let dups = fates.iter().filter(|f| f.dup_lag > 0).count();
        let reorders = fates.iter().filter(|f| f.extra_delay > 0).count();
        assert!((400..800).contains(&drops), "drop rate off: {drops}");
        assert!(dups > 100, "duplicates never fired: {dups}");
        assert!(reorders > 100, "reorders never fired: {reorders}");
        for f in &fates {
            assert!(f.extra_delay <= 4 && f.dup_lag <= 4);
            assert!(!(f.dropped && (f.dup_lag > 0 || f.extra_delay > 0)));
        }
        let stalls = (0..2_000).filter(|_| a.stalls()).count();
        assert!((350..650).contains(&stalls), "stall rate off: {stalls}");
    }
}
