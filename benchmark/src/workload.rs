//! The four workloads: how their inputs are generated from a seed, what
//! one capping episode is on each, and how an episode is judged.
//!
//! Every call into the product goes through its public functions. Each
//! such call sits between `Tracer::enter`/`exit`, which do nothing in the
//! untraced pass; where the traced pass needs spans *inside* a product
//! loop (`run_until_within`, `run_to_rest`) it runs the same loop itself,
//! one public `step()` at a time.

use crate::calib::Calibrator;
use crate::timeline;
use crate::trace::Tracer;
use dpc_alg::centralized;
use dpc_alg::diba::{DibaConfig, DibaRun};
use dpc_alg::exec::Threads;
use dpc_alg::problem::{Allocation, PowerBudgetProblem};
use dpc_models::throughput::QuadraticUtility;
use dpc_models::units::Watts;
use dpc_models::vm::ServerLoad;
use dpc_models::workload::ClusterBuilder;
use dpc_runtime::cluster::{run_cluster, RuntimeConfig, ShardCount, TransportKind};
use dpc_sim::replay::{ScenarioEvent, SettleCriterion, TimedEvent};
use dpc_topology::Graph;
use std::time::Instant;

/// The cap criterion of the cold solves (Eq. 4.11): utility within 1 % of
/// the water-filling oracle while feasible.
pub const GAP_TOL: f64 = 0.01;
/// Round cap of one cold solve.
pub const SOLVE_ROUND_CAP: usize = 60_000;
/// Round cap of one reactor deployment.
pub const CLUSTER_ROUND_CAP: usize = 40_000;
/// Feasibility and conservation tolerance (watts).
pub const WATTS_TOL: f64 = 1e-6;

/// Conservation drift an episode may end with: [`WATTS_TOL`], or where
/// that is larger the worst-case rounding `n·ε·P` of the naive
/// `n`-term sums that measure the drift (0.4 mW at 100 000 servers).
pub fn drift_tol(servers: usize, budget: Watts) -> f64 {
    WATTS_TOL.max(servers as f64 * f64::EPSILON * budget.0)
}
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolveCold10k,
    SolveScale100k,
    ClusterTorus1k,
    ReplayEvents1k,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SolveCold10k,
        Workload::SolveScale100k,
        Workload::ClusterTorus1k,
        Workload::ReplayEvents1k,
    ];

    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].0
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sizes of the workload. `quick` shrinks them for the smoke run,
    /// whose numbers are not for claims.
    pub fn shape(self, quick: bool) -> Shape {
        let (servers, pool, events) = match (self, quick) {
            (Workload::SolveCold10k, false) => (10_000, 28, 0),
            (Workload::SolveCold10k, true) => (1_000, 3, 0),
            (Workload::SolveScale100k, false) => (100_000, 4, 0),
            (Workload::SolveScale100k, true) => (10_000, 2, 0),
            (Workload::ClusterTorus1k, false) => (32 * 32, 10, 0),
            (Workload::ClusterTorus1k, true) => (16 * 16, 2, 0),
            (Workload::ReplayEvents1k, false) => (1_000, 10, 24),
            (Workload::ReplayEvents1k, true) => (100, 2, 8),
        };
        Shape {
            workload: self,
            servers,
            pool,
            events,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub workload: Workload,
    pub servers: usize,
    /// Distinct instances one run cycles through. The first cycle is the
    /// part of a run that repeats exactly for a given seed.
    pub pool: usize,
    /// Events per timeline (`replay_events_1k` only).
    pub events: usize,
}

impl Shape {
    pub fn watts_per_server(&self) -> f64 {
        match self.workload {
            Workload::ClusterTorus1k => 170.0,
            _ => 172.0,
        }
    }

    pub fn budget(&self) -> Watts {
        Watts(self.watts_per_server() * self.servers as f64)
    }

    pub fn graph(&self) -> Graph {
        let n = self.servers;
        match self.workload {
            Workload::SolveCold10k | Workload::ReplayEvents1k => Graph::ring(n),
            Workload::SolveScale100k => Graph::ring_with_chords(n, n / 64),
            Workload::ClusterTorus1k => {
                let side = (n as f64).sqrt().round() as usize;
                Graph::torus(side, side).expect("the torus sizes are squares of at least 3")
            }
        }
    }

    /// Solver configuration: product defaults, except that the workloads
    /// meant to bypass the worker pool pin one thread.
    pub fn diba(&self) -> DibaConfig {
        let threads = match self.workload {
            Workload::SolveScale100k | Workload::ClusterTorus1k => Threads::Auto,
            Workload::SolveCold10k | Workload::ReplayEvents1k => Threads::Fixed(1),
        };
        DibaConfig {
            threads,
            ..DibaConfig::default()
        }
    }

    /// Runtime configuration of the measured deployment: one reactor
    /// shard, coalesced frames.
    pub fn runtime(&self) -> RuntimeConfig {
        RuntimeConfig {
            transport: TransportKind::Reactor,
            shards: ShardCount::Fixed(1),
            coalesce: true,
            max_rounds: CLUSTER_ROUND_CAP,
            ..RuntimeConfig::default()
        }
    }

    /// The host-speed calibrator of this workload (see [`crate::calib`]):
    /// a ring of the workload's own size where the timed region is
    /// `DibaRun`'s round loop, which the calibration kernel imitates; off
    /// for the reactor deployment, whose round is wire and event loop and
    /// which the kernel did not track.
    pub fn calibrator(&self) -> Calibrator {
        match self.workload {
            Workload::ClusterTorus1k => Calibrator::off(),
            _ => Calibrator::new(self.servers),
        }
    }

    /// Generator seed of pool instance `k`: `seed + k`, so `--seed 0`
    /// starts at the row pinned in `BENCH_runtime.json`. Runs whose
    /// `--seed` values are closer than the pool size share instances.
    pub fn instance_seed(&self, seed: u64, k: usize) -> u64 {
        seed.wrapping_add((k % self.pool) as u64)
    }
}

/// One generated problem with its communication graph and oracle.
#[derive(Debug, Clone)]
pub struct Instance {
    pub seed: u64,
    pub problem: PowerBudgetProblem,
    pub graph: Graph,
    /// Total utility of `centralized::solve` on `problem`.
    pub oracle_utility: f64,
}

pub fn build_instance(shape: &Shape, seed: u64, tracer: &mut Tracer) -> Instance {
    let s = tracer.enter("models.build");
    let utilities = ClusterBuilder::new(shape.servers)
        .seed(seed)
        .build()
        .utilities();
    let problem = PowerBudgetProblem::new(utilities, shape.budget())
        .expect("the per-server budgets are feasible for every generated cluster");
    tracer.exit(s);

    let s = tracer.enter("topology.build");
    let graph = shape.graph();
    tracer.exit(s);

    let oracle_utility = oracle(&problem, tracer);
    Instance {
        seed,
        problem,
        graph,
        oracle_utility,
    }
}

/// Total utility of the water-filling oracle on `problem`.
pub fn oracle(problem: &PowerBudgetProblem, tracer: &mut Tracer) -> f64 {
    let s = tracer.enter("alg_centralized.solve");
    let utility = problem.total_utility(&centralized::solve(problem).allocation);
    tracer.exit(s);
    utility
}

/// One perturbation followed by the run to the cap criterion.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Wall-clock of the timed region (seconds), as measured.
    pub wall_s: f64,
    /// Host slowdown around the timed region (see [`crate::calib`]); 1.0
    /// until [`run_instance`] fills it in.
    pub slowdown: f64,
    pub rounds: usize,
    /// Utility gap to the oracle at episode end (percent).
    pub gap_pct: f64,
    /// Why the episode failed, if it did.
    pub failure: Option<String>,
}

/// How an episode ended, as the judge needs to know it.
struct Ending {
    servers: usize,
    /// `None`: the round cap ran out first.
    rounds: Option<usize>,
    total_power: Watts,
    budget: Watts,
    drift: f64,
    utility: f64,
    oracle_utility: f64,
}

impl Ending {
    /// The ending of an in-process solver run.
    fn of(run: &DibaRun, rounds: Option<usize>, oracle_utility: f64) -> Ending {
        Ending {
            servers: run.problem().len(),
            rounds,
            total_power: run.total_power(),
            budget: run.problem().budget(),
            drift: run.invariant_drift(),
            utility: run.total_utility(),
            oracle_utility,
        }
    }
}

/// Applies the failure rules every workload shares.
fn judge(wall_s: f64, end: Ending) -> Episode {
    let gap = (end.oracle_utility - end.utility).abs() / end.oracle_utility.abs().max(1e-12);
    let over = end.total_power.0 - end.budget.0;
    let failure = if end.rounds.is_none() {
        Some("round cap exhausted".to_string())
    } else if over > WATTS_TOL {
        Some(format!("infeasible: {over} W over budget"))
    } else if end.drift > drift_tol(end.servers, end.budget) {
        Some(format!("conservation drift {:e} W", end.drift))
    } else if gap > GAP_TOL {
        Some(format!("utility gap {:.3} % to the oracle", gap * 100.0))
    } else {
        None
    };
    Episode {
        wall_s,
        slowdown: 1.0,
        rounds: end.rounds.unwrap_or(0),
        gap_pct: gap * 100.0,
        failure,
    }
}

impl Episode {
    /// The timed region at nominal host speed (seconds).
    pub fn nominal_s(&self) -> f64 {
        self.wall_s / self.slowdown
    }
}

/// Everything one pool instance contributes to a run.
#[derive(Debug)]
pub struct Sample {
    /// Untimed work before the first timed region, as measured: instance
    /// generation, graph, oracle, `DibaRun::new`, and on
    /// `replay_events_1k` the initial settle and timeline generation.
    pub setup_s: f64,
    /// Host slowdown around the set-up.
    pub setup_slowdown: f64,
    pub episodes: Vec<Episode>,
    /// Final allocation and message total (`cluster_torus_1k`).
    pub cluster: Option<(Allocation, u64)>,
    /// Rounds of the initial settle (`replay_events_1k`).
    pub initial_rounds: Option<usize>,
}

/// Runs instance `k` of the pool: set-up, then its episode(s), with a
/// calibration burst between any two timed stretches. A stretch's
/// slowdown is the mean of the bursts on either side of it.
pub fn run_instance(
    shape: &Shape,
    seed: u64,
    k: usize,
    tracer: &mut Tracer,
    cal: &mut Calibrator,
) -> Sample {
    tracer.set_episode(k as u32);
    let before = cal.slowdown();
    let t0 = Instant::now();
    let inst = build_instance(shape, shape.instance_seed(seed, k), tracer);
    let mut sample = Sample {
        setup_s: 0.0,
        setup_slowdown: 1.0,
        episodes: Vec::new(),
        cluster: None,
        initial_rounds: None,
    };
    // Ends the set-up stretch; returns the burst that follows it.
    let mut end_setup = |sample: &mut Sample| {
        sample.setup_s = t0.elapsed().as_secs_f64();
        let after = cal.slowdown();
        sample.setup_slowdown = (before + after) / 2.0;
        after
    };
    match shape.workload {
        Workload::SolveCold10k | Workload::SolveScale100k => {
            let mut run = new_run(&inst, shape.diba(), tracer);
            let before = end_setup(&mut sample);
            let mut episode = solve_episode(&mut run, inst.oracle_utility, tracer);
            episode.slowdown = (before + cal.slowdown()) / 2.0;
            sample.episodes.push(episode);
        }
        Workload::ClusterTorus1k => {
            let (problem, graph) = (inst.problem.clone(), inst.graph.clone());
            let before = end_setup(&mut sample);
            let (mut episode, allocation, msgs) = cluster_episode(
                problem,
                graph,
                &inst,
                shape.diba(),
                &shape.runtime(),
                tracer,
            );
            episode.slowdown = (before + cal.slowdown()) / 2.0;
            sample.episodes.push(episode);
            sample.cluster = Some((allocation, msgs));
        }
        Workload::ReplayEvents1k => {
            let mut warm = WarmRun::settle(&inst, shape.diba(), tracer);
            let events =
                timeline::generate(inst.seed, shape.servers, shape.budget().0, shape.events);
            let mut before = end_setup(&mut sample);
            for event in &events {
                let mut episode = warm.recap_episode(event, tracer);
                let after = cal.slowdown();
                episode.slowdown = (before + after) / 2.0;
                before = after;
                sample.episodes.push(episode);
            }
            sample.initial_rounds = warm.initial_rounds;
        }
    }
    sample
}

pub fn new_run(inst: &Instance, config: DibaConfig, tracer: &mut Tracer) -> DibaRun {
    let s = tracer.enter("alg_diba.new");
    let run = DibaRun::new(inst.problem.clone(), inst.graph.clone(), config)
        .expect("the generated graph matches the generated problem");
    tracer.exit(s);
    run
}

/// A cold solve to the cap criterion. Untraced, this is the product's
/// `run_until_within`; traced, it is the same loop with a span around the
/// per-round cap test and around each `step()`.
pub fn solve_to_cap(run: &mut DibaRun, oracle_utility: f64, tracer: &mut Tracer) -> Option<usize> {
    if !tracer.enabled() {
        return run.run_until_within(oracle_utility, GAP_TOL, SOLVE_ROUND_CAP);
    }
    let start = run.iterations();
    for round in 0..=SOLVE_ROUND_CAP {
        let s = tracer.enter("alg_diba.criterion");
        let feasible = run.total_power() <= run.problem().budget() + Watts(WATTS_TOL);
        let gap = (oracle_utility - run.total_utility()).abs() / oracle_utility.abs().max(1e-12);
        tracer.exit(s);
        if feasible && gap < GAP_TOL {
            return Some(run.iterations() - start);
        }
        if round < SOLVE_ROUND_CAP {
            let s = tracer.enter("alg_diba.step");
            run.step();
            tracer.exit(s);
        }
    }
    None
}

fn solve_episode(run: &mut DibaRun, oracle_utility: f64, tracer: &mut Tracer) -> Episode {
    let span = tracer.enter("episode");
    let t = Instant::now();
    let rounds = solve_to_cap(run, oracle_utility, tracer);
    let wall_s = t.elapsed().as_secs_f64();
    tracer.exit(span);
    judge(wall_s, Ending::of(run, rounds, oracle_utility))
}

/// One whole `run_cluster` call: bring-up, handshake, rounds, quorum
/// drain and join.
pub fn cluster_episode(
    problem: PowerBudgetProblem,
    graph: Graph,
    inst: &Instance,
    diba: DibaConfig,
    rt: &RuntimeConfig,
    tracer: &mut Tracer,
) -> (Episode, Allocation, u64) {
    let span = tracer.enter("episode");
    let s = tracer.enter("runtime.run_cluster");
    let t = Instant::now();
    let outcome = run_cluster(problem, graph, diba, rt).expect("in-memory deployment");
    let wall_s = t.elapsed().as_secs_f64();
    tracer.exit(s);
    tracer.exit(span);
    let episode = judge(
        wall_s,
        Ending {
            servers: inst.problem.len(),
            rounds: outcome.converged.then_some(outcome.rounds),
            total_power: outcome.total_power(),
            budget: outcome.budget,
            drift: outcome.drift,
            utility: inst.problem.total_utility(&outcome.allocation),
            oracle_utility: inst.oracle_utility,
        },
    );
    (episode, outcome.allocation, outcome.msgs_sent)
}

/// A settled solver that is re-capped event by event, the way
/// `dpc_sim::replay` drives one — which the harness cross-checks against.
#[derive(Debug)]
pub struct WarmRun {
    pub run: DibaRun,
    pub initial_rounds: Option<usize>,
    loads: Vec<Option<ServerLoad>>,
    settle: SettleCriterion,
}

impl WarmRun {
    /// Builds the solver for `inst` and runs it to rest.
    pub fn settle(inst: &Instance, config: DibaConfig, tracer: &mut Tracer) -> WarmRun {
        let mut run = new_run(inst, config, tracer);
        let settle = SettleCriterion::default();
        let s = tracer.enter("alg_diba.initial_settle");
        let initial_rounds =
            run.run_to_rest(settle.tol_watts, settle.stable_rounds, settle.max_rounds);
        tracer.exit(s);
        WarmRun::adopt(run, initial_rounds)
    }

    /// Takes over an already running solver.
    pub fn adopt(run: DibaRun, initial_rounds: Option<usize>) -> WarmRun {
        let n = run.problem().len();
        WarmRun {
            run,
            initial_rounds,
            loads: vec![None; n],
            settle: SettleCriterion::default(),
        }
    }

    /// The curve of `node` after `change` is applied to its resident load.
    fn refit(&mut self, node: usize, change: impl FnOnce(&mut ServerLoad)) -> QuadraticUtility {
        let current = self.run.problem().utility(node);
        let load = self.loads[node].get_or_insert_with(|| ServerLoad::from_fitted(current));
        change(load);
        load.fitted()
    }

    /// Applies one event through the warm-start entry points.
    pub fn apply(&mut self, event: &ScenarioEvent, tracer: &mut Tracer) {
        let change = match *event {
            ScenarioEvent::SetBudget(budget) => {
                let s = tracer.enter("alg_diba.set_budget");
                self.run
                    .set_budget(budget)
                    .expect("timeline budgets cover idle power");
                tracer.exit(s);
                return;
            }
            ScenarioEvent::VmArrive { node, vm } => (node, self.refit(node, |l| l.vm_arrive(vm))),
            ScenarioEvent::VmDepart { node } => (
                node,
                self.refit(node, |l| {
                    l.vm_depart();
                }),
            ),
            ScenarioEvent::Phase {
                node,
                memory_boundedness,
            } => (node, self.refit(node, |l| l.set_phase(memory_boundedness))),
            ScenarioEvent::Drain { .. } | ScenarioEvent::Restore { .. } => {
                unreachable!("the timeline generator emits no maintenance events")
            }
        };
        let s = tracer.enter("alg_diba.replace_utilities");
        self.run
            .replace_utilities(&[change])
            .expect("timeline nodes exist");
        tracer.exit(s);
    }

    /// Runs to rest. Untraced, this is the product's `run_to_rest`;
    /// traced, the same loop with a span around each `step()`.
    fn rest(&mut self, tracer: &mut Tracer) -> Option<usize> {
        let c = self.settle;
        if !tracer.enabled() {
            return self
                .run
                .run_to_rest(c.tol_watts, c.stable_rounds, c.max_rounds);
        }
        let start = self.run.iterations();
        let mut stable = 0;
        for _ in 0..c.max_rounds {
            let s = tracer.enter("alg_diba.step");
            self.run.step();
            tracer.exit(s);
            if self.run.last_max_step() < c.tol_watts {
                stable += 1;
                if stable >= c.stable_rounds {
                    return Some(self.run.iterations() - start);
                }
            } else {
                stable = 0;
            }
        }
        None
    }

    /// One warm episode: the mutation call through the return to rest.
    pub fn recap_episode(&mut self, event: &TimedEvent, tracer: &mut Tracer) -> Episode {
        let span = tracer.enter("episode");
        let t = Instant::now();
        self.apply(&event.event, tracer);
        let rounds = self.rest(tracer);
        let wall_s = t.elapsed().as_secs_f64();
        tracer.exit(span);
        // The oracle of the mutated problem is the judge's business, not
        // the episode's.
        let oracle_utility = oracle(self.run.problem(), &mut Tracer::off());
        judge(wall_s, Ending::of(&self.run, rounds, oracle_utility))
    }

    /// Rounds a fresh solver needs to come to rest on the current
    /// (mutated) problem — the cold restart a warm re-cap is compared to.
    pub fn cold_rounds(&self, graph: &Graph, config: DibaConfig) -> Option<usize> {
        let c = self.settle;
        DibaRun::new(self.run.problem().clone(), graph.clone(), config)
            .expect("the mutated problem keeps its size")
            .run_to_rest(c.tol_watts, c.stable_rounds, c.max_rounds)
    }
}
