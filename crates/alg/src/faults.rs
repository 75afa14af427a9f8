//! Deterministic fault injection for the deployed agents.
//!
//! The paper's robustness story (Section 4.2) is that a fully decentralized
//! allocator keeps operating — and keeps the budget — when the datacenter
//! misbehaves: entries arrive late or out of order, control loops fire
//! late, and servers crash, reboot, or leave for good. This module states
//! that as a seeded, bit-reproducible [`FaultPlan`]; the runtime's lockstep
//! executor (`dpc_runtime::lockstep::Lockstep`) runs the agents under it.
//!
//! The link faults are the ones the shipped transport has. TCP delivers
//! every entry it accepted, once, so an entry can only be late: it picks
//! up an extra delay and may overtake its neighbours ([`LinkFaults`]).
//! The plan has three parts:
//!
//! * [`LinkFaults`] — per-entry late delivery;
//! * an activation probability — a node whose control loop fired late
//!   sits the round out;
//! * a round-indexed schedule of [`NodeFault`]s — crash, restart, and
//!   permanent departure events.
//!
//! Every draw comes from the plan's own seeded RNG through a
//! [`FaultSampler`], and a benign plan draws nothing, so it leaves the
//! fault-free trajectory bitwise untouched. A dead node's budget is
//! recovered from what its neighbours already hold: each keeps the net
//! flow on its link, and its share of a powered-off peer is booked into its
//! own residual (see DESIGN.md, "Fault model & recovery").
//!
//! ```
//! use dpc_alg::faults::{FaultPlan, FaultSampler, LinkFaults, NodeFaultKind};
//!
//! // 10 % of the entries late, a node sitting one round in five out, and
//! // node 5 crashing at round 200.
//! let link = LinkFaults { reorder: 0.10, ..LinkFaults::none() };
//! let plan = FaultPlan { activation: 0.8, ..FaultPlan::with_link(7, link) }
//!     .and(200, 5, NodeFaultKind::Crash);
//! assert!(plan.validate(16).is_ok());
//! assert!(!plan.is_benign());
//!
//! // Delays are a pure function of the seed.
//! let (mut a, mut b) = (FaultSampler::new(&plan), FaultSampler::new(&plan));
//! let late = (0..1_000).filter(|_| a.delay() > 0).count();
//! assert_eq!(late, (0..1_000).filter(|_| b.delay() > 0).count());
//! assert!((50..150).contains(&late));
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Per-entry late delivery. Every draw comes from the plan's seeded RNG,
/// so a run is bit-reproducible given the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability an entry is late: it picks up an extra uniform delay of
    /// `1..=reorder_max` rounds and may overtake or be overtaken by its
    /// neighbours.
    pub reorder: f64,
    /// Bound (rounds) on the extra delay of a late entry.
    pub reorder_max: usize,
}

impl LinkFaults {
    /// No link faults at all.
    pub fn none() -> LinkFaults {
        LinkFaults {
            reorder: 0.0,
            reorder_max: 4,
        }
    }

    /// `true` when no entry can ever be late.
    pub(crate) fn is_benign(&self) -> bool {
        self.reorder == 0.0
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
    /// The node powers off silently: its draw goes to zero and it stops
    /// sending. Its `e − p` lives on as the shares its neighbours hold of
    /// it; each books its share once its failure detector has pruned the
    /// silent link (the agents' `detect_after` rounds of silence).
    Crash,
    /// A crashed node reboots at its idle power, funded first by its
    /// neighbours' unbooked shares of it, then by their spare slack and
    /// power cuts. A reboot that cannot gather enough is retried every
    /// round until it can.
    Restart,
    /// The node leaves the cluster for good, announced: the notice that it
    /// has left closes its links at once and every neighbour books its
    /// share of it, so the budget it occupied is re-absorbed immediately.
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
    /// Seed of the plan's RNG, which draws every entry's delay and every
    /// stall.
    pub seed: u64,
    /// Per-entry late delivery.
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
    /// Returns a message naming the first offending field: a `reorder`
    /// probability outside `[0, 1)`, an activation outside `(0, 1]`, a zero
    /// `reorder_max` with a nonzero `reorder`, or a node event at round 0
    /// (rounds count from 1) or on a node out of range.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        let reorder = self.link.reorder;
        if !(0.0..1.0).contains(&reorder) {
            return Err(format!("link fault `reorder` = {reorder} not in [0, 1)"));
        }
        if !(self.activation > 0.0 && self.activation <= 1.0) {
            return Err(format!("activation {} not in (0, 1]", self.activation));
        }
        if reorder > 0.0 && self.link.reorder_max == 0 {
            return Err("reorder_max must be positive when reorder > 0".into());
        }
        for f in &self.schedule {
            if f.round == 0 {
                return Err(format!(
                    "scheduled {} of node {} at round 0: rounds count from 1",
                    f.kind, f.node
                ));
            }
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

/// The seeded sampler turning a plan's rates into per-entry delays and
/// per-node stalls, from the plan's own RNG stream.
#[derive(Debug, Clone)]
pub struct FaultSampler {
    link: LinkFaults,
    activation: f64,
    rng: StdRng,
}

impl FaultSampler {
    /// Builds the sampler for a plan.
    pub fn new(plan: &FaultPlan) -> FaultSampler {
        FaultSampler {
            link: plan.link,
            activation: plan.activation,
            rng: StdRng::seed_from_u64(plan.seed),
        }
    }

    /// Draws the extra delay of the next entry, in rounds (0 = on time).
    /// Consumes no randomness at all when the link is benign, so a benign
    /// plan is draw-for-draw inert.
    pub fn delay(&mut self) -> usize {
        if self.link.reorder > 0.0 && self.rng.gen_range(0.0..1.0) < self.link.reorder {
            self.rng.gen_range(1..=self.link.reorder_max.max(1))
        } else {
            0
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
            assert_eq!(s.delay(), 0);
            assert!(!s.stalls());
        }
    }

    #[test]
    fn builder_composes_the_schedule() {
        let plan = FaultPlan::with_link(
            7,
            LinkFaults {
                reorder: 0.1,
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
        plan.link.reorder = 1.5;
        assert!(plan.validate(4).unwrap_err().contains("reorder"));
        plan.link.reorder = 0.2;
        plan.link.reorder_max = 0;
        assert!(plan.validate(4).unwrap_err().contains("reorder_max"));
        plan.link.reorder_max = 4;
        for activation in [0.0, -0.5, 1.5, f64::NAN] {
            plan.activation = activation;
            assert!(plan.validate(4).unwrap_err().contains("activation"));
        }
        plan.activation = 1.0;
        let at_zero = plan.and(0, 1, NodeFaultKind::Crash).validate(4);
        assert!(at_zero.unwrap_err().contains("round 0"));
    }

    #[test]
    fn sampler_is_seed_deterministic_and_rates_bite() {
        let plan = FaultPlan {
            activation: 0.75,
            ..FaultPlan::with_link(
                42,
                LinkFaults {
                    reorder: 0.25,
                    reorder_max: 4,
                },
            )
        };
        let mut a = FaultSampler::new(&plan);
        let mut b = FaultSampler::new(&plan);
        let delays: Vec<usize> = (0..2_000).map(|_| a.delay()).collect();
        assert_eq!(delays, (0..2_000).map(|_| b.delay()).collect::<Vec<_>>());
        let late = delays.iter().filter(|&&d| d > 0).count();
        assert!((400..600).contains(&late), "late rate off: {late}");
        assert!(delays.iter().all(|&d| d <= 4));
        for max in 1..=4 {
            assert!(delays.contains(&max), "delay {max} never drawn");
        }
        let stalls = (0..2_000).filter(|_| a.stalls()).count();
        assert!((350..650).contains(&stalls), "stall rate off: {stalls}");
    }
}
