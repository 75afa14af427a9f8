//! The seeded event timeline of `replay_events_1k`: budget moves of
//! ±1 %, ±5 % and ±20 % of the base budget interleaved with VM arrivals,
//! VM departures and workload phase changes.
//!
//! The generator is a pure function of its arguments (its own SplitMix64,
//! no global state), so the same seed always gives the same event list.

use dpc_models::units::Watts;
use dpc_models::vm::VmSpec;
use dpc_sim::replay::{ScenarioEvent, TimedEvent};

/// Budget move sizes, as shares of the base budget.
pub const BUDGET_STEPS: [f64; 3] = [0.01, 0.05, 0.20];

/// SplitMix64 — small, fast, and good enough to scatter event choices.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `events` timed events for a cluster of `servers` nodes whose initial
/// budget is `base_budget` watts. Even positions are budget moves, odd
/// positions curve changes; every event has its own timestamp, so each is
/// one re-capping episode.
pub fn generate(seed: u64, servers: usize, base_budget: f64, events: usize) -> Vec<TimedEvent> {
    let mut rng = SplitMix64(seed);

    // Budget moves come as excursions: a cut of one step size below the
    // base budget, later undone by the matching raise. The level is thus
    // always the base or one step below it — never above the base (where
    // the cap stops binding) and never below 80 % of it (which still
    // covers idle power on the generated clusters). The seed orders the
    // excursions; each step size gets the same number of them.
    let excursions = events.div_ceil(4);
    let mut steps: Vec<f64> = (0..excursions).map(|j| BUDGET_STEPS[j % 3]).collect();
    for i in (1..steps.len()).rev() {
        steps.swap(i, rng.below(i + 1));
    }

    let mut resident: Vec<usize> = Vec::new();
    let mut out = Vec::with_capacity(events);
    for k in 0..events {
        let event = if k % 2 == 0 {
            let cut = k % 4 == 0;
            let level = if cut { 1.0 - steps[k / 4] } else { 1.0 };
            ScenarioEvent::SetBudget(Watts(base_budget * level))
        } else {
            match rng.below(3) {
                1 if !resident.is_empty() => {
                    let node = resident.swap_remove(rng.below(resident.len()));
                    ScenarioEvent::VmDepart { node }
                }
                2 => ScenarioEvent::Phase {
                    node: rng.below(servers),
                    memory_boundedness: rng.unit(),
                },
                _ => {
                    let node = rng.below(servers);
                    resident.push(node);
                    ScenarioEvent::VmArrive {
                        node,
                        vm: VmSpec {
                            share: 0.1 + 0.5 * rng.unit(),
                            memory_boundedness: rng.unit(),
                        },
                    }
                }
            }
        };
        out.push(TimedEvent {
            at: (k + 1) as f64,
            event,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(events: &[TimedEvent]) -> String {
        events
            .iter()
            .map(|e| format!("{:?}\n", e))
            .collect::<String>()
    }

    #[test]
    fn same_seed_gives_a_byte_identical_event_list() {
        let a = render(&generate(42, 1000, 172_000.0, 24));
        let b = render(&generate(42, 1000, 172_000.0, 24));
        assert_eq!(a, b);
        assert_ne!(a, render(&generate(43, 1000, 172_000.0, 24)));
    }

    #[test]
    fn timelines_mix_every_budget_step_with_valid_curve_events() {
        for seed in 0..50 {
            let events = generate(seed, 1000, 172_000.0, 24);
            assert_eq!(events.len(), 24);
            let mut level = 172_000.0;
            let mut seen = [0usize; 3];
            let mut resident = std::collections::BTreeMap::<usize, usize>::new();
            for (k, e) in events.iter().enumerate() {
                assert_eq!(e.at, (k + 1) as f64);
                match &e.event {
                    ScenarioEvent::SetBudget(w) => {
                        assert_eq!(k % 2, 0);
                        let step = (w.0 - level).abs() / 172_000.0;
                        let which = BUDGET_STEPS
                            .iter()
                            .position(|s| (s - step).abs() < 1e-9)
                            .expect("a budget move is one of the three step sizes");
                        seen[which] += 1;
                        level = w.0;
                        assert!(w.0 <= 172_000.0 && w.0 >= 172_000.0 * 0.8);
                    }
                    ScenarioEvent::VmArrive { node, vm } => {
                        assert!(*node < 1000 && vm.is_valid());
                        *resident.entry(*node).or_default() += 1;
                    }
                    ScenarioEvent::VmDepart { node } => {
                        let count = resident.get_mut(node).expect("a VM is resident");
                        assert!(*count > 0);
                        *count -= 1;
                    }
                    ScenarioEvent::Phase {
                        node,
                        memory_boundedness,
                    } => {
                        assert!(*node < 1000 && (0.0..=1.0).contains(memory_boundedness));
                    }
                    other => panic!("unexpected event {other:?}"),
                }
            }
            assert_eq!(seen, [4, 4, 4]);
        }
    }
}
