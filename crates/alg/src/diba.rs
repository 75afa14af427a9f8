//! DiBA — fully decentralized power-budget allocation (Algorithm 4).
//!
//! Every node `i` keeps two state variables: its power `pᵢ` and a local
//! estimate `eᵢ` of the global constraint residual, maintained so that
//! `Σ eᵢ = Σ pᵢ − P` holds exactly at all times. Nodes act on *local*
//! information only:
//!
//! * a gradient step on power against the barrier-augmented local utility
//!   `Rᵢ = rᵢ(pᵢ) + η·log(−eᵢ)` — marginal utility pushes power up, the
//!   barrier pushes back as the local slack `|eᵢ|` shrinks;
//! * pairwise slack transfers `ê_{i→j} ≤ 0` to each neighbor (Eq. 4.9),
//!   diffusing slack toward nodes that need it. Transfers cancel pairwise,
//!   so the residual invariant is preserved by construction.
//!
//! At equilibrium the slack estimates equalize and every unpinned node
//! satisfies `rᵢ′(pᵢ) = η/|e|` — the KKT condition of the global problem
//! with price `λ = η/|e|`, so the fixed point is the centralized optimum up
//! to the barrier gap `n·η/λ` (made small by the auto-tuned η).
//!
//! The dissertation's sign convention for the barrier term is
//! typographically inconsistent (see DESIGN.md); this is the
//! mathematically-consistent interior-point form with the behaviour the
//! paper describes: strict feasibility throughout, immediate reaction to
//! budget changes, and local response to local perturbations.

use crate::exec::{
    chunked_sum, run_workers, Backend, Chunked, Held, Precision, SpinBarrier, Threads, Whole,
};
use crate::fast::{phase_a_fast, phase_b_fast, FastState, Sealed};
use crate::problem::{AlgError, Allocation, PowerBudgetProblem};
use crate::telemetry::{FaultEvent, FaultEventKind, RoundRecord, Telemetry, TelemetryConfig};
use dpc_models::units::Watts;
use dpc_topology::Graph;
use std::ops::Range;

/// Tuning knobs for DiBA. The defaults are calibrated for the paper's
/// cluster scale (hundreds to thousands of nodes, ring-like topologies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DibaConfig {
    /// Barrier weight η; `None` auto-tunes from the problem scale so the
    /// equilibrium leaves ≈0.4 % of the budget as barrier slack.
    pub eta: Option<f64>,
    /// Power gradient step in `(0, 1]` (diagonally preconditioned).
    pub step_power: f64,
    /// Slack diffusion step in `(0, 1)`.
    pub step_transfer: f64,
    /// Fraction of the per-node budget kept as the hard slack margin
    /// (own actions never push `eᵢ` above `−margin`). Must be positive: at
    /// `0` the barrier loses its margin, a residual can end at `e = 0`
    /// (breaking `e < 0`), and `1/ê` turns infinite.
    pub margin_frac: f64,
    /// Barrier continuation: η starts at `eta · eta_boost`. A boosted
    /// barrier holds a larger slack reservoir at every node, so slack
    /// differences — and with them the diffusion rate — are proportionally
    /// larger during the initial redistribution. The boost decays by
    /// [`BOOST_DECAY`] every round and, in [`DibaRun`], is also *halved
    /// each time the redistribution stagnates* at the current stage (path
    /// following), so every stage only re-adjusts locally relative to the
    /// previous one. That stage rule reads the global max |Δp|, which no
    /// deployed agent sees, so the agents (`dpc-runtime`'s `AgentCore`)
    /// run the decay alone: the continuation schedule is the one thing
    /// the engine and the agents compute differently. At `eta_boost = 1`
    /// there is no continuation, and `DibaRun` is the agents' round bit
    /// for bit.
    pub eta_boost: f64,
    /// Worker policy for the round engine: [`Threads::Auto`] (the default)
    /// applies the measured serial↔parallel cutover per problem size and
    /// host, `Threads::Fixed(1)` forces the inline serial path (no threads
    /// spawned). Any policy produces bitwise-identical `(p, e)`
    /// trajectories — see the determinism notes in [`crate::exec`].
    pub threads: Threads,
    /// Selects nothing: every solve fans out on scoped threads, one
    /// dispatch per solve. Kept, like `precision`, only for the callers
    /// that still name it.
    pub backend: Backend,
    /// Selects nothing: every value runs the same arithmetic, and the
    /// round traversal (CSR rows, or the 4-lane ring sweep of
    /// `crate::fast`) is picked from the graph's shape. Kept, like
    /// `equiv_eps_watts`, only for the callers that still name it.
    pub precision: Precision,
    /// A per-node allocation tolerance (watts) that tests and the
    /// benchmark compare solves with; the run itself reads it nowhere.
    pub equiv_eps_watts: f64,
    /// Round-level recording (off by default — the round loop then skips
    /// telemetry entirely). Recording never perturbs the trajectory.
    pub telemetry: TelemetryConfig,
}

impl DibaConfig {
    /// Checks every knob holds a value the engines can honor, so bad
    /// configurations fail at construction instead of panicking (or
    /// silently misbehaving) rounds later deep inside a run.
    ///
    /// # Errors
    ///
    /// [`AlgError::InvalidConfig`] naming the offending knob: explicit
    /// zero worker counts (`threads = Fixed(0)`), non-finite or
    /// non-positive steps / η / margin fraction, non-finite continuation
    /// knobs, or a zero telemetry capacity.
    pub fn validate(&self) -> Result<(), AlgError> {
        let bad = |what: String| Err(AlgError::InvalidConfig { what });
        if self.threads == Threads::Fixed(0) {
            return bad(
                "threads = Fixed(0): the round engine needs at least one worker (use Auto)"
                    .to_string(),
            );
        }
        if !self.step_power.is_finite() || self.step_power <= 0.0 {
            return bad(format!(
                "step_power = {} must be finite and positive",
                self.step_power
            ));
        }
        if !self.step_transfer.is_finite() || self.step_transfer <= 0.0 {
            return bad(format!(
                "step_transfer = {} must be finite and positive",
                self.step_transfer
            ));
        }
        if !self.margin_frac.is_finite() || self.margin_frac <= 0.0 {
            return bad(format!(
                "margin_frac = {} must be finite and positive",
                self.margin_frac
            ));
        }
        if let Some(eta) = self.eta {
            if !eta.is_finite() || eta <= 0.0 {
                return bad(format!("eta = Some({eta}) must be finite and positive"));
            }
        }
        if !self.eta_boost.is_finite() {
            return bad(format!("eta_boost = {} must be finite", self.eta_boost));
        }
        if !self.equiv_eps_watts.is_finite() || self.equiv_eps_watts <= 0.0 {
            return bad(format!(
                "equiv_eps_watts = {} must be finite and positive",
                self.equiv_eps_watts
            ));
        }
        self.telemetry.validate()
    }
}

impl Default for DibaConfig {
    fn default() -> Self {
        DibaConfig {
            eta: None,
            step_power: 0.7,
            step_transfer: 1.2,
            margin_frac: 1e-5,
            eta_boost: 30.0,
            threads: Threads::Auto,
            backend: Backend::Pooled,
            precision: Precision::Reference,
            equiv_eps_watts: 0.05,
            telemetry: TelemetryConfig::off(),
        }
    }
}

/// Per-round multiplicative decay of the barrier-continuation boost, the
/// backstop that makes it vanish even without stagnation:
/// `boost ← max(boost · BOOST_DECAY, 1)` at the end of every round, in
/// `DibaRun` and in every deployed agent alike.
pub const BOOST_DECAY: f64 = 0.995;

/// Resolved per-node parameters — what a deployed node actually carries.
/// Shared by the synchronous reference implementation and the
/// message-passing agents in `dpc-runtime` so both run identical math.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeParams {
    /// Barrier weight η.
    pub eta: f64,
    /// Hard slack margin (watts): own actions keep `e ≤ −margin`.
    pub margin: f64,
    /// Power gradient step.
    pub step_power: f64,
    /// Slack diffusion step.
    pub step_transfer: f64,
}

/// The local action of one DiBA round: a power move and one (non-positive)
/// slack transfer per neighbor, aligned with the neighbor list passed to
/// [`node_action`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAction {
    /// Power change to apply (watts).
    pub dp: f64,
    /// Slack donated to each neighbor (each ≤ 0), in input order.
    pub transfers: Vec<f64>,
}

impl NodeAction {
    /// Total slack sent (≤ 0).
    pub(crate) fn sent_total(&self) -> f64 {
        self.transfers.iter().sum()
    }

    /// The node's own residual change: `dp − Σ transfers` (donations raise
    /// the residual; incoming transfers are applied by the caller).
    pub fn own_residual_delta(&self) -> f64 {
        self.dp - self.sent_total()
    }
}

/// Reusable per-node working memory for [`node_action_into`]: the buffers a
/// round would otherwise allocate. One instance per worker thread serves an
/// entire run — the round engine holds them in its persistent scratch, so
/// steady-state rounds perform no heap allocation at all.
#[derive(Debug, Clone, Default)]
pub struct NodeScratch {
    /// Slack donated to each neighbor (each ≤ 0), aligned with the neighbor
    /// order of the most recent call.
    pub transfers: Vec<f64>,
    /// Staging buffer for the neighbors' last-known residuals.
    pub neighbor_e: Vec<f64>,
}

impl NodeScratch {
    /// Scratch pre-sized for nodes of up to `max_degree` neighbors, so no
    /// later call needs to grow the buffers.
    pub fn with_capacity(max_degree: usize) -> NodeScratch {
        NodeScratch {
            transfers: Vec::with_capacity(max_degree),
            neighbor_e: Vec::with_capacity(max_degree),
        }
    }
}

/// `x.max(floor)` as a compare-select: `floor` unless `x` is larger.
///
/// `f64::max` lowers on x86 to `maxsd` plus a NaN fix-up sequence that
/// keeps a loop from packing; this form is one `maxsd`/`maxpd`. The two
/// agree bit for bit whenever `floor` is not NaN (a NaN `x` yields `floor`
/// in both), except on a signed-zero tie, where `f64::max` may pick either
/// zero — see `select_helpers_match_the_f64_forms` for why no call site
/// meets one.
#[inline(always)]
pub(crate) fn max_sel(x: f64, floor: f64) -> f64 {
    if x > floor {
        x
    } else {
        floor
    }
}

/// `x.min(ceil)` as a compare-select: `ceil` unless `x` is smaller. Same
/// contract as [`max_sel`].
#[inline(always)]
pub(crate) fn min_sel(x: f64, ceil: f64) -> f64 {
    if x < ceil {
        x
    } else {
        ceil
    }
}

/// `x.clamp(lo, hi)` without its `lo ≤ hi` assertion: the same two
/// compare-selects `f64::clamp` performs, so the two agree bit for bit
/// (NaN and signed zeros included) on every ordered pair of bounds — and
/// the branch-free form packs.
#[inline(always)]
pub(crate) fn clamp_sel(x: f64, lo: f64, hi: f64) -> f64 {
    let x = if x < lo { lo } else { x };
    if x > hi {
        hi
    } else {
        x
    }
}

/// One node's raw power move: a gradient step on the barrier-augmented
/// local utility `Rᵢ = rᵢ(pᵢ) + η·log(−êᵢ)` with `ê = min(e, −margin)`,
/// diagonally preconditioned (utility curvature + barrier curvature, so
/// steps are scale-free), projected into the box `[lo, hi]`. `b` and `c`
/// are the curve's linear and quadratic coefficients.
///
/// Every traversal calls this: [`node_action_generic`] per CSR row and
/// `alg::fast` per ring lane, so the expressions exist once. Its two
/// divisions, `1/ê` and `step·grad/max(precond, 1e-12)`, are dependent
/// and stay divisions (a reciprocal would round differently); the clamps
/// are compare-selects, so a 4-lane loop over it packs.
#[inline(always)]
pub(crate) fn gradient_step(
    p: f64,
    e: f64,
    b: f64,
    c: f64,
    lo: f64,
    hi: f64,
    rp: &NodeParams,
) -> f64 {
    let inv = 1.0 / min_sel(e, -rp.margin);
    let grad = b + 2.0 * c * p + rp.eta * inv;
    let precond = 2.0 * c.abs() + rp.eta * inv * inv;
    let dp = rp.step_power * grad / max_sel(precond, 1e-12);
    clamp_sel(p + dp, lo, hi) - p
}

/// One node's slack donation toward one neighbour: consensus diffusion
/// toward the neighbour with less slack, one-directional per Algorithm 4
/// (always `≤ 0`). `degree` is the sender's row length as `f64`; the
/// division stays a division (a precomputed reciprocal would round
/// differently), except that a literal `2.0` — the lanes' ring rows — is
/// exactly the multiplication by `0.5` the compiler emits. The `min(0.0)`
/// needs no compare-select: against a constant, non-NaN bound it already
/// lowers to a bare `minsd`/`minpd`.
#[inline(always)]
pub(crate) fn send(step_transfer: f64, e_i: f64, e_j: f64, degree: f64) -> f64 {
    (step_transfer * (e_i - e_j) / degree * 0.5).min(0.0)
}

/// Algorithm 4's feasibility backtracking on a node's raw move `dp` and
/// its `sent` total (`0.0 + s₀ + s₁ + …` in row order). The own action
/// must keep `e ≤ −margin`, and its own delta to `e` is `dp − sent`
/// (donations raise `e`). When the budget is tight, donations to deficit
/// neighbours are *financed by shedding power*: lowering `dp` creates
/// exactly the slack being handed over, which is how a budget cut
/// propagates through the ring at watts per round instead of stalling at
/// the barrier. If the box stops the shedding, the donations are scaled
/// down to what the margin still affords. Returns the final move and the
/// factor the node's sends are scaled by (`1.0` when they stand).
///
/// The first test is the only one a round usually reaches; the lanes
/// evaluate it packed, per lane, and call this only for a block where some
/// lane fails it.
#[inline(always)]
pub(crate) fn backtrack(
    p: f64,
    e: f64,
    lo: f64,
    hi: f64,
    dp: f64,
    sent: f64,
    margin: f64,
) -> (f64, f64) {
    let bound = -margin - e;
    if dp - sent <= bound {
        return (dp, 1.0);
    }
    // Shed power to cover the donations (and any violation), as far as
    // the box allows: dp ≤ bound + sent.
    let dp_shed = clamp_sel(p + dp.min(bound + sent), lo, hi) - p;
    if dp_shed - sent <= bound {
        return (dp_shed, 1.0);
    }
    // Box-limited: dp − sent ≤ bound needs sent ≥ dp − bound, with every
    // send non-positive.
    let allowed = dp_shed - bound;
    let scale = if allowed < 0.0 && sent < 0.0 {
        (allowed / sent).clamp(0.0, 1.0)
    } else {
        0.0
    };
    (dp_shed, scale)
}

/// The per-node math of every engine, generic over how the neighbors'
/// residuals are fetched: the sharded round engine reads the global `e`
/// array in place (fused — no staging copy), while the message-passing
/// engines pass a staged slice. Monomorphized and inlined per call site, so
/// genericity costs nothing; because every engine runs *this* code over the
/// same values in the same order, they agree bitwise. Its three steps are
/// [`gradient_step`], one [`send`] per neighbour and [`backtrack`] — the
/// helpers the lane traversal runs too, so the expressions exist once.
///
/// Computes `dp` and writes one transfer per neighbor into `transfers`
/// (`transfers.len() == degree`); `neighbor_e(k)` must yield the residual
/// of the `k`-th neighbor for `k < degree`.
#[inline(always)]
fn node_action_generic<G: Fn(usize) -> f64>(
    u: &dpc_models::QuadraticUtility,
    p: f64,
    e: f64,
    degree: usize,
    neighbor_e: G,
    params: &NodeParams,
    transfers: &mut [f64],
) -> f64 {
    debug_assert_eq!(transfers.len(), degree);
    let (_, b, c) = u.coefficients();
    let (lo, hi) = (u.p_min().0, u.p_max().0);
    let dp = gradient_step(p, e, b, c, lo, hi, params);
    // The usize→f64 degree conversion is exact, so hoisting it out of the
    // loop is bitwise-inert.
    let degree_f = degree.max(1) as f64;
    let mut sent_total = 0.0;
    for (k, t) in transfers.iter_mut().enumerate() {
        *t = send(params.step_transfer, e, neighbor_e(k), degree_f);
        sent_total += *t;
    }
    let (dp, scale) = backtrack(p, e, lo, hi, dp, sent_total, params.margin);
    if scale != 1.0 {
        for t in transfers.iter_mut() {
            *t *= scale;
        }
    }
    dp
}

/// The allocation-free kernel over a staged neighbor-residual slice:
/// computes `dp` and writes one transfer per neighbor into `transfers`,
/// so a caller that keeps its own transfer row needs no scratch. Identical
/// math to [`node_action`].
///
/// # Panics
///
/// Panics if `transfers` and `neighbor_e` differ in length.
pub fn node_action_slice(
    u: &dpc_models::QuadraticUtility,
    p: f64,
    e: f64,
    neighbor_e: &[f64],
    params: &NodeParams,
    transfers: &mut [f64],
) -> f64 {
    assert_eq!(
        transfers.len(),
        neighbor_e.len(),
        "one transfer per neighbor"
    );
    node_action_generic(
        u,
        p,
        e,
        neighbor_e.len(),
        |k| neighbor_e[k],
        params,
        transfers,
    )
}

/// Computes one node's DiBA action into reusable scratch buffers and
/// returns `dp`; the per-neighbor transfers are left in
/// `scratch.transfers`. Identical math to [`node_action`] with zero
/// allocations once the scratch has reached the node's degree.
pub fn node_action_into(
    u: &dpc_models::QuadraticUtility,
    p: f64,
    e: f64,
    neighbor_e: &[f64],
    params: &NodeParams,
    scratch: &mut NodeScratch,
) -> f64 {
    scratch.transfers.clear();
    scratch.transfers.resize(neighbor_e.len(), 0.0);
    node_action_slice(u, p, e, neighbor_e, params, &mut scratch.transfers)
}

/// Computes one node's DiBA action from purely local information: its
/// utility, power `p`, residual estimate `e`, and the last-known residuals
/// of its neighbors.
///
/// This is the entire per-round program of a deployed node (Algorithm 4's
/// step 3): a preconditioned gradient step on the barrier-augmented local
/// utility, one-directional slack diffusion toward needier neighbors, and
/// the feasibility backtracking that finances donations by shedding power.
///
/// Thin allocating wrapper over the scratch-buffer kernel
/// ([`node_action_into`]) for call sites outside the hot round loop.
pub fn node_action(
    u: &dpc_models::QuadraticUtility,
    p: f64,
    e: f64,
    neighbor_e: &[f64],
    params: &NodeParams,
) -> NodeAction {
    let mut transfers = vec![0.0; neighbor_e.len()];
    let dp = node_action_slice(u, p, e, neighbor_e, params, &mut transfers);
    NodeAction { dp, transfers }
}

/// When a dispatched round loop ends. Private on purpose: `step`, `run`,
/// `run_until_within` and `run_to_rest` each pick one, nobody configures it.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After exactly this many rounds.
    Rounds(usize),
    /// At the first round boundary where the allocation is feasible and
    /// within `rel_tol` of `reference` — tested on every pre-round state,
    /// so before the first round and after the last one too — or after
    /// `max_rounds` rounds.
    Within {
        reference: f64,
        rel_tol: f64,
        max_rounds: usize,
    },
    /// Once the largest per-node move has stayed below `tol` watts for
    /// `stable` consecutive rounds, or after `max_rounds` rounds.
    AtRest {
        tol: f64,
        stable: usize,
        max_rounds: usize,
    },
}

/// The control state a round updates after its reduction: everything the
/// continuation schedule and the stop rule need, extracted so the serial
/// path and worker 0 of the parallel path run the *same* update code on
/// the same struct.
#[derive(Debug, Clone, Copy)]
struct RoundCtl {
    params: NodeParams,
    boost: f64,
    stage_tol: f64,
    stage_rounds: usize,
    iterations: usize,
    last_max_step: f64,
    /// Rounds the stop rule still allows this dispatch.
    rounds_left: usize,
    /// Consecutive rounds that moved less than the at-rest tolerance.
    streak: usize,
    /// The stop rule's criterion (not its round cap) has fired.
    met: bool,
}

impl RoundCtl {
    /// The parameters in effect for the next round (boosted barrier).
    fn round_params(&self) -> NodeParams {
        NodeParams {
            eta: self.params.eta * self.boost,
            ..self.params
        }
    }

    /// Absorbs a finished round's max-|dp| reduction: advances the round
    /// counter and the barrier continuation (path following — halve the
    /// boost once this stage's redistribution has stalled or run its
    /// scheduled length; the backstop decay guarantees it vanishes).
    fn absorb(&mut self, max_step: f64) {
        self.iterations += 1;
        self.last_max_step = max_step;
        self.stage_rounds += 1;
        if self.boost > 1.0 && (max_step < self.stage_tol || self.stage_rounds >= 25) {
            self.boost = (self.boost * 0.5).max(1.0);
            self.stage_rounds = 0;
        }
        self.boost = (self.boost * BOOST_DECAY).max(1.0);
    }

    /// Closes a finished round under `stop`: absorbs the reduction, spends
    /// one round of the cap and applies the at-rest rule (the streak
    /// resets on any round at or above the tolerance, and only a round
    /// below it can fire the rule — so `stable = 0` behaves like 1).
    fn close_round(&mut self, stop: Stop, max_step: f64) {
        self.absorb(max_step);
        self.rounds_left -= 1;
        if let Stop::AtRest { tol, stable, .. } = stop {
            if max_step < tol {
                self.streak += 1;
                self.met = self.streak >= stable;
            } else {
                self.streak = 0;
            }
        }
    }
}

/// How a run traverses its rounds, picked once from the graph's shape
/// ([`FastState::for_graph`]). Both compute the reference kernel's arithmetic in
/// its fold orders, so the pick moves wall-clock and memory, never a bit;
/// each holds only the per-round scratch it uses.
#[derive(Debug, Clone)]
enum Traversal {
    /// One scalar kernel per CSR row ([`phase_a`]/[`phase_b`]).
    Csr {
        /// Per-directed-slot transfer of the round in flight, CSR-aligned
        /// with the graph's adjacency array.
        transfers: Vec<f64>,
        /// Reverse-slot map: `transfers[rev[s]]` is what the neighbor sent
        /// back over the edge whose outgoing slot is `s`.
        rev: Vec<usize>,
    },
    /// The 4-lane ring sweep over an SoA mirror of the curves
    /// ([`crate::fast`]).
    Lanes {
        state: Box<FastState>,
        /// Each node's final send to `i − 1` and to `i + 1`.
        vp: Vec<f64>,
        vn: Vec<f64>,
        /// Exceptional rows' final chord sends, one slot per row slot.
        extras: Vec<f64>,
        /// Phase B's parked `[sent residual, residual]` of each
        /// exceptional node.
        stash: Vec<[f64; 2]>,
    },
}

impl Traversal {
    fn for_graph(problem: &PowerBudgetProblem, graph: &Graph) -> Traversal {
        match FastState::for_graph(problem.utilities(), graph) {
            Some(state) => Traversal::lanes(state),
            None => Traversal::csr(graph),
        }
    }

    fn csr(graph: &Graph) -> Traversal {
        Traversal::Csr {
            transfers: vec![0.0; graph.flat_neighbors().len()],
            rev: graph.reverse_slots(),
        }
    }

    fn lanes(state: FastState) -> Traversal {
        let n = state.len();
        Traversal::Lanes {
            vp: vec![0.0; n],
            vn: vec![0.0; n],
            extras: vec![0.0; state.extras_len()],
            stash: vec![[0.0; 2]; state.exceptional_len()],
            state: Box::new(state),
        }
    }

    /// Where the per-slot buffers are cut for the node cuts `cuts`: the
    /// first slot of each cut's row (CSR slots or extras slots), and for
    /// the lanes the first exceptional row at or after each cut.
    fn slot_cuts(&self, graph: &Graph, cuts: &[usize]) -> (Vec<usize>, Vec<usize>) {
        match self {
            Traversal::Csr { .. } => (cuts.iter().map(|&c| graph.offsets()[c]).collect(), vec![]),
            Traversal::Lanes { state, .. } => state.chunk_cuts(cuts),
        }
    }

    /// The per-round buffers cut for one dispatch: one chunk per worker
    /// at `scratch`'s node, slot and row cuts.
    fn chunk<'a>(&'a mut self, scratch: &'a RoundCuts) -> Buffers<'a> {
        let RoundCuts {
            nodes, slots, rows, ..
        } = scratch;
        match self {
            Traversal::Csr { transfers, rev } => Buffers::Csr(Chunked::new(transfers, slots), rev),
            Traversal::Lanes {
                state,
                vp,
                vn,
                extras,
                stash,
            } => {
                let sends = [(vp, nodes), (vn, nodes), (extras, slots)];
                let sends = sends.map(|(v, cuts)| Chunked::new(v, cuts));
                Buffers::Lanes(state, sends, Chunked::new(stash, rows))
            }
        }
    }
}

/// A [`Traversal`]'s per-round buffers as the workers of one dispatch
/// share them: phase A writes each worker's own chunk, phase B reads them
/// all — the CSR transfers beside the reverse-slot map, or the lanes'
/// `[vp, vn, extras]` beside their state and the stash (which only its
/// own worker touches).
enum Buffers<'a> {
    Csr(Chunked<'a, f64>, &'a [usize]),
    Lanes(&'a FastState, [Chunked<'a, f64>; 3], Chunked<'a, [f64; 2]>),
}

const PHASE_A: &str = "phase A";
const PHASE_B: &str = "phase B";
/// Between barriers: the cap test's verdict and the round close.
const BETWEEN: &str = "between barriers";

impl<'a> Buffers<'a> {
    /// Phase A over worker `w`'s shard `range`: writes its own chunks of
    /// `hat` and the sends, and returns the cap test's partial sums.
    fn phase_a<const SUMS: bool>(
        &self,
        (problem, graph, rp): (&PowerBudgetProblem, &Graph, &NodeParams),
        w: usize,
        range: Range<usize>,
        sealed: Sealed<'_>,
        hat: &mut [f64],
    ) -> [f64; 2] {
        match self {
            Buffers::Csr(transfers, _) => {
                let out = &mut transfers.write(w, PHASE_A);
                phase_a::<SUMS>(problem, graph, rp, range, sealed, hat, out)
            }
            Buffers::Lanes(state, [vp, vn, tx], _) => {
                let (mut vp, mut vn) = (vp.write(w, PHASE_A), vn.write(w, PHASE_A));
                let tx = &mut tx.write(w, PHASE_A);
                phase_a_fast::<SUMS>(state, rp, sealed, range, hat, (&mut vp, &mut vn), tx)
            }
        }
    }

    /// Phase B over worker `w`'s shard `range`, into its own chunks `own`
    /// of `p`, `e` and `e_sent`; returns the shard's max |dp|. `held`
    /// keeps the guards of the sends read whole; the caller empties it
    /// before the barrier.
    fn phase_b<'s>(
        &'s self,
        (graph, w, range): (&Graph, usize, Range<usize>),
        [h_vp, h_vn, h_tx]: &mut [Held<'s, 'a, f64>; 3],
        own: (&mut [f64], &mut [f64], &mut [f64]),
        hat: &[f64],
    ) -> f64 {
        match self {
            Buffers::Csr(transfers, rev) => {
                let all = transfers.read_all(w, PHASE_B, h_tx);
                phase_b(graph, rev, range, own, hat, all)
            }
            Buffers::Lanes(state, [vp, vn, tx], stash) => {
                let (vp, vn) = (vp.read_all(w, PHASE_B, h_vp), vn.read_all(w, PHASE_B, h_vn));
                let sends = [vp, vn, tx.read_all(w, PHASE_B, h_tx)];
                phase_b_fast(state, range, own, hat, sends, &mut stash.write(w, PHASE_B))
            }
        }
    }
}

/// Where a dispatch cuts its arrays, one chunk per worker, computed once
/// per worker count.
#[derive(Debug, Clone)]
struct RoundCuts {
    /// Shard cut points (edge-balanced contiguous node ranges) for the
    /// resolved worker count; `nodes.len() - 1` workers.
    nodes: Vec<usize>,
    /// The traversal's per-slot buffers, cut at the first slot of each
    /// node cut's row.
    slots: Vec<usize>,
    /// The lanes' exceptional rows, cut at the first one at or after each
    /// node cut (empty for the CSR rows).
    rows: Vec<usize>,
    /// `0, 1, …, workers`: one slot per worker of the per-worker scalars.
    workers: Vec<usize>,
}

/// Persistent per-run working memory of the round engine that depends on
/// the worker count, sized once so steady-state rounds allocate nothing.
#[derive(Debug, Clone)]
struct RoundScratch {
    /// Per-node power move of the round in flight.
    p_hat: Vec<f64>,
    cuts: RoundCuts,
    /// Per-worker max |dp| of the round in flight.
    worker_max: Vec<f64>,
    /// Per-worker `[Σpᵢ, Σrᵢ(pᵢ)]` over the shard's pre-round state — the
    /// cap-test partials phase A accumulates under [`Stop::Within`].
    worker_sums: Vec<[f64; 2]>,
}

impl RoundScratch {
    fn new(graph: &Graph, traversal: &Traversal, workers: usize) -> RoundScratch {
        let nodes = graph.shard_offsets(workers);
        let (slots, rows) = traversal.slot_cuts(graph, &nodes);
        RoundScratch {
            p_hat: vec![0.0; graph.len()],
            cuts: RoundCuts {
                nodes,
                slots,
                rows,
                workers: (0..=workers).collect(),
            },
            worker_max: vec![0.0; workers],
            worker_sums: vec![[0.0; 2]; workers],
        }
    }
}

/// The strictly feasible start point of a cold run: the uniform allocation
/// backed off toward each box's lower bound by 0.5 %.
fn backed_off_start(problem: &PowerBudgetProblem) -> Vec<f64> {
    let uniform = crate::baselines::uniform(problem);
    problem
        .utilities()
        .iter()
        .zip(uniform.powers())
        .map(|(u, &pw)| {
            let backed = u.p_min().0 + (pw.0 - u.p_min().0) * 0.995;
            backed.clamp(u.p_min().0, u.p_max().0)
        })
        .collect()
}

/// Auto-tuned barrier weight η as a *pure function of the problem*: the
/// equilibrium slack target (0.4 % of the per-node budget) times the mean
/// marginal utility at the canonical cold-start point.
///
/// Purity is what makes warm starting sound: a warm run that re-tunes η
/// after a mutation lands on the *same* barrier weight a cold run on the
/// mutated instance would auto-tune, so both runs share one equilibrium
/// and the warm trajectory converges to the cold answer (the
/// `warm_equivalence` property tests pin this).
pub(crate) fn auto_eta(problem: &PowerBudgetProblem) -> f64 {
    let n = problem.len();
    let budget = problem.budget().0;
    let p = backed_off_start(problem);
    let target = 0.004 * (budget / n as f64).abs().max(1.0);
    let mean_slope = problem
        .utilities()
        .iter()
        .zip(&p)
        .map(|(u, &pw)| u.slope(Watts(pw)).max(0.0))
        .sum::<f64>()
        / n as f64;
    target * mean_slope.max(1e-9)
}

/// The hard slack margin for a problem (watts): `margin_frac` of the
/// per-node budget. Pure in the problem, like [`auto_eta`].
fn margin_for(problem: &PowerBudgetProblem, margin_frac: f64) -> f64 {
    (problem.budget().0 / problem.len() as f64).abs().max(1.0) * margin_frac
}

/// The continuation stagnation tolerance for a problem (watts). Pure in
/// the problem, like [`auto_eta`].
fn stage_tol_for(problem: &PowerBudgetProblem) -> f64 {
    0.002 * (problem.budget().0 / problem.len() as f64).abs().max(1.0)
}

/// Σrᵢ(pᵢ) in plain index order — the one summation order every caller
/// that judges a solve (`DibaRun::total_utility`, the cap test, the
/// benchmark, `dpc solve`) shares.
fn utility_sum(problem: &PowerBudgetProblem, p: impl IntoIterator<Item = f64>) -> f64 {
    problem
        .utilities()
        .iter()
        .zip(p)
        .map(|(u, p)| u.value(Watts(p)))
        .sum()
}

/// Relative distance of a total utility from the reference one.
fn utility_gap(reference_utility: f64, total_utility: f64) -> f64 {
    (reference_utility - total_utility).abs() / reference_utility.abs().max(1e-12)
}

/// The paper's 99 % criterion (Eq. 4.11) on a power vector: feasible and
/// within `rel_tol` of `reference_utility`, both sums in plain index order.
/// This is the *decider* of [`Stop::Within`]; `p` yields the powers in
/// index order, once per sum.
fn is_within<I: Iterator<Item = f64>>(
    problem: &PowerBudgetProblem,
    p: impl Fn() -> I,
    reference_utility: f64,
    rel_tol: f64,
) -> bool {
    let feasible = Watts(p().sum()) <= problem.budget() + Watts(1e-6);
    let gap = utility_gap(reference_utility, utility_sum(problem, p()));
    feasible && gap < rel_tol
}

/// Relative guard of the fused cap-test filter for an `n`-node run. Two
/// orderings of one `n`-term sum of same-sign values differ by at most
/// `n·ε·Σ|x|` (ε = `f64::EPSILON`): 1e-9 is ~45× that at n = 100 000 and
/// ~1 000× smaller than one round's progress near the 1 % line; the
/// second term keeps the margin ≥ 8× however large `n` grows.
fn cap_filter_guard(n: usize) -> f64 {
    1e-9_f64.max(8.0 * n as f64 * f64::EPSILON)
}

/// The *filter* in front of [`is_within`]: the same test on the sums
/// phase A accumulated shard by shard, loosened by `guard` so that a state
/// the decider accepts is always near (powers and throughputs are
/// positive, so the re-association bound of [`cap_filter_guard`] applies;
/// the gap guard carries `1 + rel_tol` because the gap is relative to the
/// reference while the error is relative to the sum). Not-near rounds —
/// all but a handful per solve — skip the decider and its barrier.
fn is_near_within(
    budget: Watts,
    [sum_p, sum_u]: [f64; 2],
    reference_utility: f64,
    rel_tol: f64,
    guard: f64,
) -> bool {
    let cap = budget.0 + 1e-6;
    sum_p <= cap + guard * cap.abs()
        && utility_gap(reference_utility, sum_u) < rel_tol + guard * (1.0 + rel_tol.abs())
}

/// A running DiBA instance: the synchronous-round reference implementation
/// (the message-passing agents live in `dpc-runtime`).
#[derive(Debug, Clone)]
pub struct DibaRun {
    problem: PowerBudgetProblem,
    graph: Graph,
    params: NodeParams,
    /// The explicit η from the config, when one was given. Warm-start
    /// mutations re-tune η from the mutated problem ([`auto_eta`]) only
    /// when this is `None` — a pinned η stays pinned.
    eta_override: Option<f64>,
    /// The configured margin fraction, kept so warm-start mutations can
    /// re-derive the margin for the mutated problem.
    margin_frac: f64,
    /// Barrier continuation: current multiplicative boost on η (≥ 1).
    boost: f64,
    reboost: f64,
    /// Per-round move below which the current continuation stage is
    /// considered stagnant and the boost halves (watts).
    stage_tol: f64,
    /// Rounds spent in the current continuation stage.
    stage_rounds: usize,
    p: Vec<f64>,
    e: Vec<f64>,
    /// The residual each node last sent — what its neighbours act on, as
    /// an agent acts on the residual its peer put on the wire last round.
    /// Only rounds write it; a warm event changes `e`, and the next round
    /// publishes the change.
    e_sent: Vec<f64>,
    iterations: usize,
    last_max_step: f64,
    scratch: RoundScratch,
    traversal: Traversal,
    /// Round recorder; `None` (the default) skips recording entirely.
    /// Boxed so the disabled path costs one pointer on the run.
    telemetry: Option<Box<Telemetry>>,
}

impl DibaRun {
    /// Initializes DiBA at a slightly-backed-off uniform allocation with the
    /// global slack shared equally (`eᵢ = (Σp − P)/n`), which a real
    /// deployment computes with one gossip round. Every node starts out
    /// having sent that same residual, as an agent starts out assuming its
    /// peers hold its own.
    ///
    /// # Errors
    ///
    /// [`AlgError::DimensionMismatch`] when the graph size differs from the
    /// problem size. A disconnected graph is accepted but will only
    /// equalize slack within components.
    pub fn new(
        problem: PowerBudgetProblem,
        graph: Graph,
        config: DibaConfig,
    ) -> Result<DibaRun, AlgError> {
        config.validate()?;
        if graph.len() != problem.len() {
            return Err(AlgError::DimensionMismatch {
                expected: problem.len(),
                got: graph.len(),
            });
        }
        let n = problem.len();
        let budget = problem.budget().0;

        // Strictly feasible start: back the uniform allocation off toward
        // the boxes' lower bounds by 0.5 %.
        let p = backed_off_start(&problem);
        let residual = p.iter().sum::<f64>() - budget;
        let e = vec![residual / n as f64; n];

        let margin = margin_for(&problem, config.margin_frac);
        let eta = config.eta.unwrap_or_else(|| auto_eta(&problem));

        let traversal = Traversal::for_graph(&problem, &graph);
        let scratch = RoundScratch::new(&graph, &traversal, config.threads.resolve(n));
        let telemetry = if config.telemetry.enabled {
            let mut t = Telemetry::new(config.telemetry);
            t.set_shard_work(graph.shard_work(&scratch.cuts.nodes));
            Some(Box::new(t))
        } else {
            None
        };
        let stage_tol = stage_tol_for(&problem);
        Ok(DibaRun {
            problem,
            graph,
            params: NodeParams {
                eta,
                margin,
                step_power: config.step_power,
                step_transfer: config.step_transfer,
            },
            eta_override: config.eta,
            margin_frac: config.margin_frac,
            boost: config.eta_boost.max(1.0),
            reboost: config.eta_boost.max(1.0),
            stage_tol,
            stage_rounds: 0,
            p,
            e_sent: e.clone(),
            e,
            iterations: 0,
            last_max_step: f64::INFINITY,
            scratch,
            traversal,
            telemetry,
        })
    }

    /// Re-targets the round engine at a different worker policy. The
    /// trajectory is unaffected: every policy produces bitwise-identical
    /// rounds. When the resolved count is unchanged the existing shard
    /// cuts and scratch are kept.
    pub fn set_threads(&mut self, threads: Threads) {
        let workers = threads.resolve(self.p.len());
        if workers != self.threads() {
            self.scratch = RoundScratch::new(&self.graph, &self.traversal, workers);
            if let Some(t) = self.telemetry.as_mut() {
                t.set_shard_work(self.graph.shard_work(&self.scratch.cuts.nodes));
            }
        }
    }

    /// The round recorder, when telemetry is enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// The resolved worker count of the round engine.
    pub fn threads(&self) -> usize {
        self.scratch.cuts.nodes.len() - 1
    }

    /// The barrier weight in effect (auto-tuned unless overridden).
    pub fn eta(&self) -> f64 {
        self.params.eta
    }

    /// The resolved per-node parameters (for deploying agents).
    pub fn params(&self) -> NodeParams {
        self.params
    }

    /// Per-node state snapshot `(p, e)` for deploying the message-passing
    /// prototype from the same initial conditions.
    pub fn node_states(&self) -> Vec<(f64, f64)> {
        self.p.iter().copied().zip(self.e.iter().copied()).collect()
    }

    /// Rounds executed so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Current power vector as an allocation.
    pub fn allocation(&self) -> Allocation {
        self.p.iter().map(|&p| Watts(p)).collect()
    }

    /// Current total power.
    pub fn total_power(&self) -> Watts {
        Watts(self.p.iter().sum())
    }

    /// Current total utility.
    pub fn total_utility(&self) -> f64 {
        utility_sum(&self.problem, self.p.iter().copied())
    }

    /// The local residual estimates `eᵢ` (watts).
    pub fn residuals(&self) -> &[f64] {
        &self.e
    }

    /// Largest per-node power move of the most recent round (watts);
    /// `+∞` before the first round.
    pub fn last_max_step(&self) -> f64 {
        self.last_max_step
    }

    /// The problem being solved.
    pub fn problem(&self) -> &PowerBudgetProblem {
        &self.problem
    }

    /// One synchronous round: every node computes its action from the
    /// previous round's neighbor state, then all messages are delivered.
    pub fn step(&mut self) {
        self.step_batch(Stop::Rounds(1));
    }

    /// Runs `rounds` synchronous rounds as one batch: one engine dispatch,
    /// with convergence bookkeeping and telemetry flushed at round
    /// boundaries *inside* the batch (worker 0, between barriers) rather
    /// than returning to the caller each round. The recorded
    /// [`RoundRecord`] stream and the `(p, e)` trajectory are bitwise
    /// identical to `rounds` single [`DibaRun::step`] calls — batching
    /// only removes dispatch overhead.
    pub fn run(&mut self, rounds: usize) {
        self.step_batch(Stop::Rounds(rounds));
    }

    /// The round engine — the one round loop, run as a single engine
    /// dispatch until `stop` fires. Returns the rounds this call executed
    /// when the stop rule's criterion fired, `None` when its round cap
    /// did (always `None` under [`Stop::Rounds`]).
    ///
    /// Each round is the deployed agent's round (`dpc-runtime`'s
    /// `AgentCore`), receiver-centric and two-phase:
    ///
    /// * **Phase A** — every node computes its kernel from its own `(p, e)`
    ///   and its neighbours' sent residuals `e_sent` — what each put on
    ///   the wire last round — writing its power move into `p_hat[i]` and
    ///   its final (backtracked) per-neighbor transfers: into its
    ///   CSR-aligned `transfers` slots on the CSR traversal, into the
    ///   ring-send arrays (and, for chord rows, the extras buffer) on the
    ///   lane traversal.
    /// * **Phase B** — every node applies `p[i] += p̂ᵢ`, folds its own
    ///   final sends in slot order into `sent` (the agent's
    ///   `Iterator::sum`), publishes `e_sent[i] = e[i] + (p̂ᵢ − sent)` and
    ///   then adds each incoming transfer to it in slot order — through
    ///   the reverse-slot map (CSR) or the neighbours' ring-send entries
    ///   (lanes) — exactly as an agent's `receive` calls do.
    ///
    /// Both traversals evaluate the same expressions in the same orders,
    /// so which one the graph's shape picked ([`Traversal`]) is invisible
    /// in the bits; and with no continuation (`eta_boost = 1`) the
    /// trajectory is the lockstep agents' bit for bit
    /// (`dpc-runtime/tests/equivalence.rs`).
    ///
    /// Every array element is written by exactly one node, through its
    /// worker's own `Chunked` chunk, in a fixed fold order, so the
    /// trajectory is a pure function of the previous state: any worker
    /// count (including the inline serial path, which runs the same phase
    /// functions over the full range) produces
    /// bitwise-identical `(p, e)`. This is stronger than merging per-worker
    /// accumulators in worker order, which is only deterministic per worker
    /// count — see DESIGN.md, "Performance engineering".
    ///
    /// The stop rule lives at the round boundaries and costs no extra
    /// synchronisation on an ordinary round. Worker 0 closes each round
    /// between barriers 2 and 3 ([`RoundCtl::close_round`]: continuation,
    /// round cap, at-rest streak); barrier 3 seals that, and every worker
    /// reads the same verdict at the top of the next round.
    /// [`Stop::Within`] tests the *pre-round* state, which is what phase A
    /// reads anyway: each worker accumulates `Σpᵢ` and `Σrᵢ(pᵢ)` over its
    /// shard, and after barrier 1 every worker folds the sealed partials in
    /// ascending worker order — same inputs, same verdict, no barrier.
    /// Those sums only *filter* ([`is_near_within`]); on a near round
    /// worker 0 runs the plain-order decider ([`is_within`]) over the full
    /// arrays — nobody writes `p` before phase B — and publishes it behind
    /// one extra barrier. A round that stops there has written scratch
    /// only, so the state is exactly the one the criterion accepted.
    fn step_batch(&mut self, stop: Stop) -> Option<usize> {
        let (cap_test, rounds_left) = match stop {
            Stop::Rounds(rounds) => (None, rounds),
            Stop::Within {
                reference,
                rel_tol,
                max_rounds,
            } => (Some((reference, rel_tol)), max_rounds),
            Stop::AtRest { max_rounds, .. } => (None, max_rounds),
        };
        if cap_test.is_none() && rounds_left == 0 {
            return None;
        }
        let workers = self.scratch.cuts.nodes.len() - 1;
        let n = self.p.len();
        // Decided once per batch: a disabled recorder costs the hot loop
        // exactly this branch (and nothing per round).
        let tel_on = self.telemetry.is_some();
        let start = self.iterations;
        let mut ctl = RoundCtl {
            params: self.params,
            boost: self.boost,
            stage_tol: self.stage_tol,
            stage_rounds: self.stage_rounds,
            iterations: self.iterations,
            last_max_step: self.last_max_step,
            rounds_left,
            streak: 0,
            met: false,
        };

        {
            let problem = &self.problem;
            let graph = &self.graph;
            let all_cuts = &self.scratch.cuts;
            let cuts = &all_cuts.nodes;
            // The round state, one chunk per worker of every array.
            let p = Chunked::new(&mut self.p, cuts);
            let e = Chunked::new(&mut self.e, cuts);
            let e_sent = Chunked::new(&mut self.e_sent, cuts);
            let p_hat = Chunked::new(&mut self.scratch.p_hat, cuts);
            // One slot per worker of the per-worker scalars.
            let per_worker = &all_cuts.workers;
            let worker_max = Chunked::new(&mut self.scratch.worker_max, per_worker);
            let worker_sums = Chunked::new(&mut self.scratch.worker_sums, per_worker);
            // The traversal, hoisted: one branch per phase per worker,
            // nothing per node.
            let buffers = self.traversal.chunk(all_cuts);
            // Worker 0 writes these two between barriers.
            let control = Chunked::new(std::slice::from_mut(&mut ctl), &[0, 1]);
            let recorder = Chunked::new(std::slice::from_mut(&mut self.telemetry), &[0, 1]);
            let budget = problem.budget();
            let guard = cap_filter_guard(n);
            let msgs_per_round = graph.flat_neighbors().len() as u64;
            let barrier = SpinBarrier::new(workers);

            run_workers(workers, |w| {
                let _poison = barrier.poison_on_unwind();
                let range = cuts[w]..cuts[w + 1];
                // Guard buffers of the arrays a phase reads whole, emptied
                // before every barrier.
                let mut held_a = Vec::new();
                let mut held_b: [Held<'_, '_, f64>; 3] = Default::default();
                loop {
                    // Worker 0's update last round was sealed by the
                    // round-end barrier.
                    let top = control.read(0, BETWEEN)[0];
                    if cap_test.is_none() && (top.met || top.rounds_left == 0) {
                        break;
                    }
                    let rp = top.round_params();
                    let at = (problem, graph, &rp);
                    let sums = {
                        let heard = e_sent.read_all(w, PHASE_A, &mut held_a);
                        let (p, e) = (p.read(w, PHASE_A), e.read(w, PHASE_A));
                        let sealed = Sealed {
                            start: range.start,
                            p: &p,
                            e: &e,
                            heard,
                        };
                        let (hat, r) = (&mut p_hat.write(w, PHASE_A), range.clone());
                        if cap_test.is_some() {
                            buffers.phase_a::<true>(at, w, r, sealed, hat)
                        } else {
                            buffers.phase_a::<false>(at, w, r, sealed, hat)
                        }
                    };
                    held_a.clear();
                    if cap_test.is_some() {
                        worker_sums.write(w, PHASE_A)[0] = sums;
                    }
                    barrier.wait(); // all transfers + p_hat + cap-test partials written
                    if let Some((reference, rel_tol)) = cap_test {
                        let mut total = [0.0_f64; 2];
                        for part in worker_sums.values(BETWEEN) {
                            total[0] += part[0];
                            total[1] += part[1];
                        }
                        let near = is_near_within(budget, total, reference, rel_tol, guard);
                        let mut met = false;
                        if near {
                            if w == 0 {
                                // Nobody writes `p` before phase B, and
                                // peers read the control only after the
                                // verdict barrier.
                                let verdict =
                                    is_within(problem, || p.values(BETWEEN), reference, rel_tol);
                                control.write(0, BETWEEN)[0].met = verdict;
                            }
                            // The one extra barrier of a near round
                            // seals the verdict.
                            barrier.wait();
                            met = control.read(0, BETWEEN)[0].met;
                        }
                        if met || top.rounds_left == 0 {
                            break;
                        }
                    }
                    let local_max = {
                        let hat = p_hat.read(w, PHASE_B);
                        let (mut p, mut e) = (p.write(w, PHASE_B), e.write(w, PHASE_B));
                        let mut sent = e_sent.write(w, PHASE_B);
                        let own = (&mut **p, &mut **e, &mut **sent);
                        buffers.phase_b((graph, w, range.clone()), &mut held_b, own, &hat)
                    };
                    held_b.iter_mut().for_each(Vec::clear);
                    worker_max.write(w, PHASE_B)[0] = local_max;
                    barrier.wait(); // all (p, e) updated, worker maxima in
                    if w == 0 {
                        // f64::max is exactly associative on these NaN-free
                        // values, so folding per-worker maxima in any
                        // grouping reproduces the serial max bitwise.
                        let max_step = worker_max.values(BETWEEN).fold(0.0_f64, f64::max);
                        let mut ctl_now = control.write(0, BETWEEN);
                        ctl_now[0].close_round(stop, max_step);
                        if tel_on {
                            // Worker 0 computes every aggregate serially
                            // over the *full* arrays, so the record — like
                            // the trajectory — is identical for every
                            // worker count.
                            if let Some(tel) = recorder.write(0, BETWEEN)[0].as_mut() {
                                let mut max_abs_e = 0.0_f64;
                                let mut norm2 = 0.0_f64;
                                for (pi, ei) in p.values(BETWEEN).zip(e.values(BETWEEN)) {
                                    max_abs_e = max_abs_e.max(ei.abs());
                                    norm2 += pi * pi;
                                }
                                tel.record_round(RoundRecord {
                                    round: ctl_now[0].iterations as u64,
                                    budget: budget.0,
                                    sum_p: chunked_sum(p.values(BETWEEN)),
                                    norm2_p: norm2.sqrt(),
                                    sum_e: chunked_sum(e.values(BETWEEN)),
                                    max_abs_e,
                                    max_step,
                                    msgs_sent: msgs_per_round,
                                    live: n as u64,
                                    ..RoundRecord::default()
                                });
                            }
                        }
                    }
                    barrier.wait(); // ctl update sealed for the next round
                }
            });
        }

        self.boost = ctl.boost;
        self.stage_rounds = ctl.stage_rounds;
        self.iterations = ctl.iterations;
        self.last_max_step = ctl.last_max_step;
        ctl.met.then(|| ctl.iterations - start)
    }

    /// Runs until the utility is within `rel_tol` of `reference_utility`
    /// while feasible (the paper's 99 % criterion, Eq. 4.11). Returns the
    /// number of rounds used, or `None` when `max_rounds` is exhausted.
    ///
    /// The criterion is tested before the first step and after every step
    /// (including the last), so at most `max_rounds` rounds run and a
    /// return of `Some(r)` means exactly `r` rounds were executed by this
    /// call. The whole solve is one engine dispatch; the returned round is
    /// the first at which the plain-order
    /// [`total_power`](DibaRun::total_power) /
    /// [`total_utility`](DibaRun::total_utility) test holds, for every
    /// worker count.
    pub fn run_until_within(
        &mut self,
        reference_utility: f64,
        rel_tol: f64,
        max_rounds: usize,
    ) -> Option<usize> {
        self.step_batch(Stop::Within {
            reference: reference_utility,
            rel_tol,
            max_rounds,
        })
    }

    /// Runs until the largest per-node power move stays below `tol_watts`
    /// for `stable_rounds` consecutive rounds (oracle-free convergence, used
    /// by the dynamic experiments). Returns rounds used or `None`. One
    /// engine dispatch, like [`DibaRun::run`].
    pub fn run_to_rest(
        &mut self,
        tol_watts: f64,
        stable_rounds: usize,
        max_rounds: usize,
    ) -> Option<usize> {
        self.step_batch(Stop::AtRest {
            tol: tol_watts,
            stable: stable_rounds,
            max_rounds,
        })
    }

    /// Re-derives η, the slack margin, and the stagnation tolerance from
    /// the (mutated) problem, exactly as a cold run on that problem would.
    /// An explicit `eta` from the config stays pinned.
    fn retune(&mut self) {
        self.params.eta = self.eta_override.unwrap_or_else(|| auto_eta(&self.problem));
        self.params.margin = margin_for(&self.problem, self.margin_frac);
        self.stage_tol = stage_tol_for(&self.problem);
    }

    /// Announces a new total budget `P′`. Each node shifts its residual by
    /// `(P − P′)/n`, which keeps `Σe = Σp − P′` exact; the barrier then
    /// drives the power response (sharp drop on a cut, gradual fill on a
    /// raise), reproducing the step responses of Figs. 4.5/4.6.
    ///
    /// This is a *warm-start* entry point: power and residual state carry
    /// over, η/margin are re-tuned to what a cold run on the new budget
    /// would use, and the barrier continuation is re-armed *in proportion
    /// to the event magnitude* — a budget move of ≥ 5 % re-arms the full
    /// continuation (the redistribution really is global), while a small
    /// trim re-arms only a fraction of it, so the run re-settles in far
    /// fewer rounds than a cold start (the benchmark's
    /// `alg_diba.warm_rounds_p50` vs `alg_diba.cold_rounds_p50`).
    ///
    /// # Errors
    ///
    /// [`AlgError::InvalidConfig`] for a NaN or infinite `P′`,
    /// [`AlgError::InfeasibleBudget`] when `P′` cannot cover idle power.
    /// The run is unchanged on error.
    pub fn set_budget(&mut self, budget: Watts) -> Result<(), AlgError> {
        let old = self.problem.budget();
        self.problem = self.problem.with_budget(budget)?;
        let shift = (old.0 - budget.0) / self.p.len() as f64;
        for e in &mut self.e {
            *e += shift;
        }
        self.retune();
        // Re-arm the barrier continuation proportionally to the event:
        // the new budget needs another redistribution phase, but only a
        // large move needs the full cold-start continuation ladder.
        let rel = ((budget.0 - old.0).abs() / old.0.abs().max(1.0)).min(1.0);
        let target = if rel >= 0.05 {
            self.reboost
        } else {
            self.reboost.powf(rel / 0.05)
        };
        self.boost = self.boost.max(target);
        self.stage_rounds = 0;
        let round = self.iterations as u64;
        self.record_event(FaultEvent {
            round,
            node: 0,
            kind: FaultEventKind::Budget,
            mass: budget.0 - old.0,
        });
        Ok(())
    }

    /// Replaces node `i`'s utility (a workload change). The power is
    /// clamped into the new box and the residual adjusted by the clamp so
    /// the invariant is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range. [`DibaRun::replace_utilities`] is the
    /// typed-error (and batched) form.
    pub fn replace_utility(&mut self, i: usize, utility: dpc_models::QuadraticUtility) {
        assert!(i < self.p.len(), "node {i} out of range");
        self.replace_utilities(&[(i, utility)])
            .expect("index checked above");
    }

    /// Replaces several nodes' utilities at once (VM churn, workload phase
    /// changes) — the warm-start entry point of the replay driver. For each
    /// `(i, u)` the node's power is clamped into the new box and its
    /// residual adjusted by exactly the clamp, so `Σe = Σp − P` is
    /// preserved by construction; the rest of the cluster's state carries
    /// over untouched. η/margin are re-tuned to what a cold run on the
    /// mutated instance would auto-tune (unless η was pinned in the
    /// config), and a mild continuation phase (√ of the full boost) is
    /// re-armed so slack can flow toward or away from the changed nodes.
    ///
    /// When the same node appears more than once, the last entry wins.
    ///
    /// # Errors
    ///
    /// [`AlgError::UnknownNode`] naming the first out-of-range index; the
    /// run is unchanged on error.
    pub fn replace_utilities(
        &mut self,
        changes: &[(usize, dpc_models::QuadraticUtility)],
    ) -> Result<(), AlgError> {
        let n = self.p.len();
        if let Some(&(bad, _)) = changes.iter().find(|(i, _)| *i >= n) {
            return Err(AlgError::UnknownNode {
                node: bad,
                nodes: n,
            });
        }
        if changes.is_empty() {
            return Ok(());
        }
        let mut utilities = self.problem.utilities().to_vec();
        for (i, u) in changes {
            utilities[*i] = *u;
        }
        let budget = self.problem.budget();
        self.problem = PowerBudgetProblem::new(utilities, budget)
            .expect("replacing utilities keeps the problem non-empty");
        let round = self.iterations as u64;
        for &(i, _) in changes {
            let u = self.problem.utility(i);
            if let Traversal::Lanes { state, .. } = &mut self.traversal {
                state.replace_utility(i, u);
            }
            let clamped = self.p[i].clamp(u.p_min().0, u.p_max().0);
            let clamp_delta = clamped - self.p[i];
            self.e[i] += clamp_delta;
            self.p[i] = clamped;
            self.record_event(FaultEvent {
                round,
                node: i,
                kind: FaultEventKind::Workload,
                mass: clamp_delta,
            });
        }
        self.retune();
        // A local change re-arms a mild continuation phase so slack can
        // flow toward (or away from) the changed nodes quickly.
        self.boost = self.boost.max(self.reboost.sqrt());
        self.stage_rounds = 0;
        Ok(())
    }

    /// Appends a discrete event marker to the attached round recorder
    /// (no-op when telemetry is off). Like all recording, this never
    /// perturbs the trajectory — the replay driver uses it to mark
    /// re-convergence boundaries in the JSONL stream.
    pub fn record_event(&mut self, event: FaultEvent) {
        if let Some(t) = self.telemetry.as_mut() {
            t.record_event(event);
        }
    }

    /// Verifies the residual invariant `Σe = Σp − P` (watts of drift).
    pub fn invariant_drift(&self) -> f64 {
        let sum_e: f64 = self.e.iter().sum();
        let sum_p: f64 = self.p.iter().sum();
        (sum_e - (sum_p - self.problem.budget().0)).abs()
    }
}

/// Phase A of a round over one shard: kernel every node in `range` against
/// the previous round's state — its own `(p, e)` and its neighbours' sent
/// residuals — writing `hat` and the node's own CSR-aligned `transfers`
/// slots (the shard's own, from its first). With `SUMS`, returns the cap
/// test's `[Σpᵢ, Σrᵢ(pᵢ)]` over the shard's pre-round state, ascending;
/// zeros otherwise.
///
/// Fused: the kernel reads each neighbor's sent residual straight out of
/// `sealed.heard` through its CSR row instead of staging a per-node copy
/// first — one pass over the shard, no scratch traffic. Reading the same
/// `f64`s from a different place is bitwise-inert, so the fusion cannot
/// move the trajectory.
///
/// `SUMS` accumulates the sums while `pᵢ` and the curve are in registers;
/// it is a const so the loops that never read them ([`Stop::Rounds`],
/// [`Stop::AtRest`]) compile to the kernel alone.
///
/// Rows are sorted, so a row whose first and last neighbours lie in the
/// shard reads the shard's own chunk directly; only a row that crosses a
/// cut asks [`Whole::get`] where each neighbour is.
fn phase_a<const SUMS: bool>(
    problem: &PowerBudgetProblem,
    graph: &Graph,
    rp: &NodeParams,
    range: Range<usize>,
    sealed: Sealed<'_>,
    hat: &mut [f64],
    transfers: &mut [f64],
) -> [f64; 2] {
    let offsets = &graph.offsets()[range.start..=range.end];
    let (flat, base) = (graph.flat_neighbors(), offsets[0]);
    let (heard, mine) = (sealed.heard, sealed.heard.own());
    let in_shard = |row: &[usize]| match (row.first(), row.last()) {
        (Some(&lo), Some(&hi)) => lo >= sealed.start && hi - sealed.start < mine.len(),
        _ => true,
    };
    let mut sums = [0.0; 2];
    let own = sealed.p.iter().zip(sealed.e).zip(hat);
    for ((i, slots), ((&pi, &ei), dp)) in range.zip(offsets.windows(2)).zip(own) {
        let (row, out) = (
            &flat[slots[0]..slots[1]],
            &mut transfers[slots[0] - base..slots[1] - base],
        );
        let u = problem.utility(i);
        if SUMS {
            sums[0] += pi;
            sums[1] += u.value(Watts(pi));
        }
        let n = row.len();
        *dp = match in_shard(row) {
            true => node_action_generic(u, pi, ei, n, |k| mine[row[k] - sealed.start], rp, out),
            false => node_action_generic(u, pi, ei, n, |k| heard.get(row[k]), rp, out),
        };
    }
    sums
}

/// Phase B of a round over one shard, in the agent's order: apply the
/// node's move, publish `e_mid = e + (dp − sent)` with `sent` its own row's
/// final sends summed in slot order, then add the incoming transfers to it
/// in slot order. Runs strictly after a barrier seals every phase-A write.
/// `p`, `e`, `e_sent` and `hat` are the shard's own chunks; the node's own
/// sends are in `transfers`' own chunk, and what it received at their
/// reverse slots. Returns the shard's max `|dp|`. A row's reverse slots
/// ascend, so as in [`phase_a`] only a row that crosses a cut asks
/// [`Whole::get`] where each lies.
fn phase_b(
    graph: &Graph,
    rev: &[usize],
    range: Range<usize>,
    (p, e, e_sent): (&mut [f64], &mut [f64], &mut [f64]),
    hat: &[f64],
    transfers: Whole<'_, f64>,
) -> f64 {
    let offsets = &graph.offsets()[range.start..=range.end];
    let (base, own) = (offsets[0], transfers.own());
    let mut max_step = 0.0;
    let state = p.iter_mut().zip(e.iter_mut()).zip(e_sent.iter_mut());
    for (((p, e), e_sent), (&dp, slots)) in state.zip(hat.iter().zip(offsets.windows(2))) {
        let (lo, hi) = (slots[0], slots[1]);
        let sent: f64 = own[lo - base..hi - base].iter().sum();
        *p += dp;
        *e_sent = *e + (dp - sent);
        let back = &rev[lo..hi];
        *e = match (back.first(), back.last()) {
            (Some(&first), Some(&last)) if first >= base && last - base < own.len() => {
                back.iter().fold(*e_sent, |e, &r| e + own[r - base])
            }
            _ => back.iter().fold(*e_sent, |e, &r| e + transfers.get(r)),
        };
        max_step = max_sel(dp.abs(), max_step);
    }
    max_step
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized;
    use dpc_models::workload::ClusterBuilder;

    fn problem(n: usize, budget: f64, seed: u64) -> PowerBudgetProblem {
        let c = ClusterBuilder::new(n).seed(seed).build();
        PowerBudgetProblem::new(c.utilities(), Watts(budget)).unwrap()
    }

    fn run_on_ring(n: usize, budget: f64, seed: u64) -> (PowerBudgetProblem, DibaRun) {
        let p = problem(n, budget, seed);
        let run = DibaRun::new(p.clone(), Graph::ring(n), DibaConfig::default()).unwrap();
        (p, run)
    }

    #[test]
    fn threads_zero_is_a_typed_error_not_a_panic() {
        // Regression (satellite bugfix): an explicit zero worker count used
        // to ride unvalidated toward the sharding layer; it must surface as
        // a typed error at construction.
        let p = problem(10, 1700.0, 1);
        let config = DibaConfig {
            threads: Threads::Fixed(0),
            ..DibaConfig::default()
        };
        let err = DibaRun::new(p, Graph::ring(10), config).unwrap_err();
        assert!(matches!(err, AlgError::InvalidConfig { .. }), "{err:?}");
        assert!(err.to_string().contains("threads"), "{err}");
    }

    #[test]
    fn non_finite_knobs_are_typed_errors() {
        for config in [
            DibaConfig {
                step_power: f64::NAN,
                ..DibaConfig::default()
            },
            DibaConfig {
                step_transfer: 0.0,
                ..DibaConfig::default()
            },
            DibaConfig {
                margin_frac: -1.0,
                ..DibaConfig::default()
            },
            // No margin: a residual can end at e = ±0, where 1/ê is
            // infinite.
            DibaConfig {
                margin_frac: 0.0,
                ..DibaConfig::default()
            },
            DibaConfig {
                eta: Some(f64::INFINITY),
                ..DibaConfig::default()
            },
            DibaConfig {
                eta_boost: f64::NAN,
                ..DibaConfig::default()
            },
            DibaConfig {
                equiv_eps_watts: f64::NAN,
                ..DibaConfig::default()
            },
            DibaConfig {
                equiv_eps_watts: -0.5,
                ..DibaConfig::default()
            },
            DibaConfig {
                telemetry: crate::telemetry::TelemetryConfig {
                    enabled: true,
                    capacity: 0,
                },
                ..DibaConfig::default()
            },
        ] {
            let p = problem(4, 700.0, 1);
            let err = DibaRun::new(p, Graph::ring(4), config).unwrap_err();
            assert!(matches!(err, AlgError::InvalidConfig { .. }), "{config:?}");
        }
        assert!(DibaConfig::default().validate().is_ok());
    }

    #[test]
    fn telemetry_records_the_run_it_watches() {
        use crate::telemetry::TelemetryConfig;
        let p = problem(30, 5_100.0, 11);
        let config = DibaConfig {
            telemetry: TelemetryConfig::on(),
            ..DibaConfig::default()
        };
        let mut run = DibaRun::new(p, Graph::ring(30), config).unwrap();
        run.run(40);
        let tel = run.telemetry().expect("recorder attached");
        assert_eq!(tel.rounds_recorded(), 40);
        let last = tel.latest().expect("recorded");
        assert_eq!(last.round, 40);
        // The record mirrors the run's own aggregates exactly.
        assert_eq!(last.sum_p, {
            let powers: Vec<f64> = run.allocation().powers().iter().map(|w| w.0).collect();
            crate::exec::chunked_sum(&powers)
        });
        assert_eq!(last.max_step, run.last_max_step());
        assert!(last.conservation_drift() < 1e-6);
        assert_eq!(last.msgs_sent, 60); // one per directed ring edge
                                        // Sharding metadata is attached.
        assert!(tel.prometheus().contains("dpc_shard_work{shard=\"0\"}"));
    }

    /// The compare-select helpers against the `f64` forms they replace,
    /// bit for bit, over ordinary values, zeros, subnormals,
    /// `MIN_POSITIVE`, `±1e300`, `±∞` and NaN. The value clamped or
    /// compared may be anything, NaN included; the floor, ceiling or box
    /// is never NaN, as at every call site (`1e-12`, `−margin`, a box
    /// bound, a running max). `clamp_sel` performs `f64::clamp`'s own
    /// compare-selects and always agrees.
    ///
    /// `max_sel`/`min_sel` may differ from `f64::max`/`min` only on a
    /// signed-zero tie (`+0` against `−0`), and no call site can meet one:
    /// `validate` requires `margin_frac > 0`, so `−margin` in
    /// `min(e, −margin)` is strictly negative and `1e-12` in the
    /// preconditioner floor is not zero; in the max-|p̂| folds both
    /// operands are `|p̂| ≥ +0` or a maximum that starts at `+0`, never
    /// `−0`. The projection's operand `p + dp` is not `−0` either: every
    /// power starts at `+0` or above, and `x + y` is `−0` only when both
    /// operands are `−0`.
    #[test]
    fn select_helpers_match_the_f64_forms() {
        let tiny = f64::from_bits(1);
        let mut values = vec![
            0.0,
            -0.0,
            1.5,
            -2.25,
            172.0,
            -3e-5,
            1e-12,
            tiny,
            -tiny,
            1e-310,
            -1e-310,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let bounds = values.clone();
        values.push(f64::NAN);
        let tie = |x: f64, y: f64| x == 0.0 && y == 0.0;
        for &x in &values {
            for &y in &bounds {
                for want in [x.max(y), y.max(x)] {
                    let got = max_sel(x, y);
                    assert!(
                        got.to_bits() == want.to_bits() || tie(x, y),
                        "max {x:e} {y:e}"
                    );
                }
                for want in [x.min(y), y.min(x)] {
                    let got = min_sel(x, y);
                    assert!(
                        got.to_bits() == want.to_bits() || tie(x, y),
                        "min {x:e} {y:e}"
                    );
                }
                for &hi in bounds.iter().filter(|&&hi| hi >= y) {
                    let (got, want) = (clamp_sel(x, y, hi), x.clamp(y, hi));
                    assert_eq!(got.to_bits(), want.to_bits(), "clamp {x:e} {y:e} {hi:e}");
                }
            }
        }
    }

    /// What the lanes ≡ CSR test compares after every step: the state
    /// bits (sent residuals included), the round counter and the last
    /// round's max |dp|.
    fn observed(run: &DibaRun) -> (Vec<[u64; 3]>, usize, u64) {
        let bits = run.p.iter().zip(&run.e).zip(&run.e_sent);
        (
            bits.map(|((p, e), s)| [p, e, s].map(|x| x.to_bits()))
                .collect(),
            run.iterations,
            run.last_max_step.to_bits(),
        )
    }

    /// The shapes the lanes' cold backtracking block takes in the next
    /// round, judged on the run's own state with the reference kernel:
    /// whether some 4-lane block — cut as the lanes cut the run's shards
    /// ([`crate::fast::block_span`]) — has rows
    /// failing the first feasibility test beside rows passing it, and
    /// whether some failing ring row in a block sheds power without
    /// scaling its sends (`scale == 1`, but `dp` changed).
    fn cold_block_shapes(run: &DibaRun) -> (bool, bool) {
        let rp = NodeParams {
            eta: run.params.eta * run.boost,
            ..run.params
        };
        let (p, e, heard) = (&run.p, &run.e, &run.e_sent);
        // Row i as the lanes see it: ring neighbours i − 1 and i + 1, read
        // at their sent residuals.
        let row = |i: usize| {
            let u = run.problem.utility(i);
            let (_, b, c) = u.coefficients();
            let raw = gradient_step(p[i], e[i], b, c, u.p_min().0, u.p_max().0, &rp);
            let sends =
                [heard[i - 1], heard[i + 1]].map(|ej| send(rp.step_transfer, e[i], ej, 2.0));
            let sent = 0.0 + sends[0] + sends[1];
            (raw, sends, raw - sent <= -rp.margin - e[i])
        };
        let (mut mixed, mut shed_only) = (false, false);
        for cut in run.scratch.cuts.nodes.windows(2) {
            let (mut i, blocks, _) = crate::fast::block_span(&(cut[0]..cut[1]));
            for _ in 0..blocks {
                let block: Vec<_> = (i..i + crate::fast::LANES).map(row).collect();
                mixed |= block.iter().any(|r| r.2) && block.iter().any(|r| !r.2);
                for (j, (raw, sends, holds)) in (i..).zip(block) {
                    if !holds && run.graph.neighbors(j) == [j - 1, j + 1] {
                        let u = run.problem.utility(j);
                        let action = node_action(u, p[j], e[j], &[heard[j - 1], heard[j + 1]], &rp);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        shed_only |= bits(&action.transfers) == bits(&sends) && action.dp != raw;
                    }
                }
                i += crate::fast::LANES;
            }
        }
        (mixed, shed_only)
    }

    /// `true` when the next round scales some ring row's donations down —
    /// the lanes' slow backtracking path — judged by the reference kernel
    /// on the run's own state.
    fn ring_row_scales(run: &DibaRun) -> bool {
        let rp = NodeParams {
            eta: run.params.eta * run.boost,
            ..run.params
        };
        let mut ring_rows = (0..run.p.len()).filter(|&i| run.graph.degree(i) == 2);
        ring_rows.any(|i| {
            let neighbor_e: Vec<f64> = run
                .graph
                .neighbors(i)
                .iter()
                .map(|&j| run.e_sent[j])
                .collect();
            let action = node_action(run.problem.utility(i), run.p[i], run.e[i], &neighbor_e, &rp);
            let unscaled = neighbor_e
                .iter()
                .map(|&ej| (rp.step_transfer * (run.e[i] - ej) / 2.0 * 0.5).min(0.0));
            action.transfers.iter().copied().ne(unscaled)
        })
    }

    #[test]
    fn lanes_and_csr_traversals_agree_bit_for_bit() {
        use crate::telemetry::TelemetryConfig;
        use dpc_models::throughput::CurveParams;
        let mut scaled = false;
        // Per tight-phase worker count (2, 7, 1): a cold block seen with
        // failing and passing rows mixed, and one with a shed-only row.
        let (mut mixed, mut shed_only) = ([false; 3], [false; 3]);
        let mut case = 0usize;
        for n in [3, 4, 5, 6, 7, 9, 13, 31, 64, 150, 300] {
            let mut chord_counts = vec![0, 1, n / 8, n / 4];
            chord_counts.sort_unstable();
            chord_counts.dedup();
            let mut graphs: Vec<(String, Graph)> = chord_counts
                .into_iter()
                .map(|c| (format!("{c} chords"), Graph::ring_with_chords(n, c)))
                .collect();
            // Rows missing a ring edge: a path's two ends, and a ring cut
            // between k and k + 1 whose node k also holds a chord to 0 —
            // rows of `Prev` only, `Next` only, and `Prev` beside a chord.
            graphs.push(("a path".to_string(), Graph::path(n)));
            let k = n / 2;
            let mut edges: Vec<(usize, usize)> = Graph::ring(n)
                .edges()
                .into_iter()
                .filter(|&edge| edge != (k, k + 1))
                .collect();
            if n >= 4 {
                edges.push((0, k));
            }
            let cut = Graph::from_edges(n, &edges).unwrap();
            graphs.push((format!("a ring cut at {k}"), cut));
            for (shape, graph) in graphs {
                case += 1;
                let threads = [1, 2, 7][case % 3];
                let p = problem(n, 172.0 * n as f64, case as u64);
                let oracle = p.total_utility(&centralized::solve(&p).allocation);
                let config = DibaConfig {
                    threads: Threads::Fixed(threads),
                    telemetry: TelemetryConfig::with_capacity(100_000),
                    ..DibaConfig::default()
                };
                let mut lanes = DibaRun::new(p.clone(), graph.clone(), config).unwrap();
                let mut csr = lanes.clone();
                lanes.traversal = Traversal::lanes(FastState::new(p.utilities(), &graph));
                csr.traversal = Traversal::csr(&csr.graph);
                // The dispatch cuts follow the traversal.
                for run in [&mut lanes, &mut csr] {
                    run.scratch = RoundScratch::new(&run.graph, &run.traversal, threads);
                }
                let what = format!("n = {n}, {shape}, {threads} workers");
                let check = |lanes: &DibaRun, csr: &DibaRun, step: &str| {
                    assert_eq!(observed(lanes), observed(csr), "{what}: after {step}");
                };

                lanes.run(40);
                csr.run(40);
                check(&lanes, &csr, "run");
                let want = csr.run_until_within(oracle, 0.01, 3_000);
                assert_eq!(lanes.run_until_within(oracle, 0.01, 3_000), want, "{what}");
                check(&lanes, &csr, "run_until_within");

                let node = n / 3;
                let u = *lanes.problem().utility(node);
                let steep = CurveParams::for_memory_boundedness(0.0).utility(u.p_min(), u.p_max());
                for run in [&mut lanes, &mut csr] {
                    run.set_budget(Watts(169.0 * n as f64)).unwrap();
                    run.replace_utilities(&[(node, steep)]).unwrap();
                    run.set_threads(Threads::Fixed([2, 7, 1][case % 3]));
                }
                let want = csr.run_to_rest(1e-2, 5, 3_000);
                assert_eq!(lanes.run_to_rest(1e-2, 5, 3_000), want, "{what}");
                check(&lanes, &csr, "run_to_rest");

                // Half a watt per server above idle: boxes pin, and
                // backtracking sheds power and scales donations down.
                let tight = Watts(lanes.problem().min_total().0 + 0.5 * n as f64);
                lanes.set_budget(tight).unwrap();
                csr.set_budget(tight).unwrap();
                for _ in 0..60 {
                    scaled |= ring_row_scales(&lanes);
                    let (m, s) = cold_block_shapes(&lanes);
                    mixed[case % 3] |= m;
                    shed_only[case % 3] |= s;
                    lanes.step();
                    csr.step();
                }
                check(&lanes, &csr, "the tight budget");

                let stream = |run: &DibaRun| {
                    let tel = run.telemetry().expect("recorder attached");
                    let rounds: Vec<RoundRecord> = tel.rounds().copied().collect();
                    let events: Vec<FaultEvent> = tel.events().copied().collect();
                    (rounds, events)
                };
                assert_eq!(stream(&lanes), stream(&csr), "{what}: telemetry");
            }
        }
        assert!(scaled, "no case took the scaled-donation path");
        assert_eq!(mixed, [true; 3], "a mixed cold block at 2, 7, 1 workers");
        assert_eq!(
            shed_only, [true; 3],
            "a shed-only cold row at 2, 7, 1 workers"
        );
    }

    #[test]
    fn the_traversal_follows_the_graph_not_the_precision() {
        let p = problem(64, 64.0 * 172.0, 3);
        for precision in [Precision::Reference, Precision::Fast] {
            let config = DibaConfig {
                precision,
                ..DibaConfig::default()
            };
            let ring = DibaRun::new(p.clone(), Graph::ring(64), config).unwrap();
            let torus = DibaRun::new(p.clone(), Graph::torus(8, 8).unwrap(), config).unwrap();
            assert!(matches!(ring.traversal, Traversal::Lanes { .. }));
            assert!(matches!(torus.traversal, Traversal::Csr { .. }));
        }
    }

    #[test]
    fn fast_tier_converges_feasibly_and_conserves() {
        let p = problem(100, 16_600.0, 3);
        let opt = p.total_utility(&centralized::solve(&p).allocation);
        let config = DibaConfig {
            precision: Precision::Fast,
            ..DibaConfig::default()
        };
        let mut run = DibaRun::new(p.clone(), Graph::ring(100), config).unwrap();
        let rounds = run.run_until_within(opt, 0.01, 5_000);
        assert!(rounds.is_some(), "fast tier never converged");
        assert!(run.total_power() <= p.budget() + Watts(1e-6));
        assert!(run.invariant_drift() < 1e-6, "fast tier leaks Σe");
        for (u, &pw) in p.utilities().iter().zip(run.allocation().powers()) {
            assert!(pw >= u.p_min() - Watts(1e-9) && pw <= u.p_max() + Watts(1e-9));
        }
    }

    #[test]
    fn fast_tier_tracks_workload_changes() {
        // `replace_utility` must re-mirror the SoA row, or the lanes keep
        // optimizing the stale curve.
        use dpc_models::throughput::CurveParams;
        let p = problem(40, 6_800.0, 10);
        let mut run = DibaRun::new(p, Graph::ring(40), DibaConfig::default()).unwrap();
        assert!(matches!(run.traversal, Traversal::Lanes { .. }));
        run.run(300);
        let u = *run.problem().utility(20);
        let steep = CurveParams::for_memory_boundedness(0.0).utility(u.p_min(), u.p_max());
        run.replace_utility(20, steep);
        run.run(400);
        // The steepest curve in the cluster should now hold above-average
        // power; with a stale mirror it would sit where the old curve did.
        let total = run.total_power().0;
        let mean = total / 40.0;
        assert!(
            run.allocation().power(20).0 > mean,
            "changed node not re-optimized: {} vs mean {}",
            run.allocation().power(20).0,
            mean
        );
        assert!(run.invariant_drift() < 1e-6);
    }

    #[test]
    fn rejects_mismatched_graph() {
        let p = problem(10, 1700.0, 1);
        let err = DibaRun::new(p, Graph::ring(5), DibaConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            AlgError::DimensionMismatch {
                expected: 10,
                got: 5
            }
        ));
    }

    #[test]
    fn stays_feasible_every_round() {
        let (p, mut run) = run_on_ring(60, 10_000.0, 2);
        for _ in 0..300 {
            run.step();
            assert!(
                run.total_power() <= p.budget() + Watts(1e-6),
                "budget violated"
            );
            assert!(run.invariant_drift() < 1e-6, "invariant drifted");
            for (u, &pw) in p.utilities().iter().zip(run.allocation().powers()) {
                assert!(pw >= u.p_min() - Watts(1e-9) && pw <= u.p_max() + Watts(1e-9));
            }
        }
    }

    #[test]
    fn converges_to_99_percent_of_oracle_on_a_ring() {
        let (p, mut run) = run_on_ring(100, 16_600.0, 3);
        let opt = p.total_utility(&centralized::solve(&p).allocation);
        let rounds = run.run_until_within(opt, 0.01, 5_000);
        assert!(rounds.is_some(), "no convergence in 5000 rounds");
        let rounds = rounds.unwrap();
        assert!(rounds < 2_000, "too slow: {rounds} rounds");
    }

    #[test]
    fn run_until_within_counts_rounds_exactly() {
        // Regression: the convergence check used to run twice per round,
        // so the returned count could disagree with the rounds actually
        // stepped. Pin the exact accounting from three angles.
        let (p, mut run) = run_on_ring(100, 16_600.0, 3);
        let opt = p.total_utility(&centralized::solve(&p).allocation);
        let r = run.run_until_within(opt, 0.01, 5_000).expect("converges");
        assert_eq!(
            run.iterations(),
            r,
            "iteration counter disagrees with the return value"
        );

        // A run that already satisfies the criterion reports zero rounds
        // and steps nothing.
        let before = run.iterations();
        assert_eq!(run.run_until_within(opt, 0.01, 5_000), Some(0));
        assert_eq!(run.iterations(), before);

        // A twin run capped one round short of the known answer fails,
        // and executes exactly the cap.
        let (_, mut twin) = run_on_ring(100, 16_600.0, 3);
        assert_eq!(twin.run_until_within(opt, 0.01, r - 1), None);
        assert_eq!(twin.iterations(), r - 1);
        // One more round is precisely what it takes.
        assert_eq!(twin.run_until_within(opt, 0.01, 1), Some(1));
        assert_eq!(twin.iterations(), r);
    }

    #[test]
    fn stop_rules_hold_at_their_edges() {
        let (p, mut run) = run_on_ring(100, 16_600.0, 3);
        let opt = p.total_utility(&centralized::solve(&p).allocation);
        let cold = run.clone();

        // A zero cap runs nothing; the cap test is still applied once.
        assert_eq!(run.run_until_within(opt, 0.01, 0), None);
        assert_eq!(run.run_to_rest(1e-2, 10, 0), None);
        assert_eq!(run.iterations(), 0);
        assert_eq!(run.node_states(), cold.node_states());
        assert_eq!(run.last_max_step(), f64::INFINITY);

        // A cap equal to the answer succeeds: the criterion is tested
        // after the last allowed round too.
        let r = run.run_until_within(opt, 0.01, 5_000).expect("converges");
        let mut exact = cold.clone();
        assert_eq!(exact.run_until_within(opt, 0.01, r), Some(r));
        assert_eq!(exact.node_states(), run.node_states());

        // Already within at entry: zero rounds, under any cap, and the
        // state is the one the criterion accepted.
        let accepted = run.node_states();
        assert_eq!(run.run_until_within(opt, 0.01, 0), Some(0));
        assert_eq!(run.run_until_within(opt, 0.01, 7), Some(0));
        assert_eq!(run.iterations(), r);
        assert_eq!(run.node_states(), accepted);

        // At rest: the cap counts rounds exactly, and `stable_rounds` of 0
        // and 1 both stop at the first round under the tolerance — not at
        // the first round.
        let mut capped = cold.clone();
        assert_eq!(capped.run_to_rest(1e-9, 10, 37), None);
        assert_eq!(capped.iterations(), 37);
        let mut first_quiet = cold.clone();
        let mut rounds = 0;
        while first_quiet.last_max_step() >= 0.1 {
            first_quiet.step();
            rounds += 1;
        }
        assert!(rounds > 1, "the tolerance must not hold on round 1");
        for stable in [0, 1] {
            let mut rested = cold.clone();
            assert_eq!(rested.run_to_rest(0.1, stable, 5_000), Some(rounds));
            assert_eq!(rested.node_states(), first_quiet.node_states());
        }
    }

    #[test]
    fn cap_test_filter_never_decides() {
        // A reference the run only approaches: once settled, the gap sits
        // inside the filter's guard band above the tolerance — near on
        // every round, within on none. The filter must not end the solve.
        let rel_tol = 0.01;
        let (_, mut run) = run_on_ring(40, 6_800.0, 10);
        run.run_to_rest(1e-9, 20, 400_000).expect("settles");
        let reference = run.total_utility() / (1.0 - rel_tol) * (1.0 + 3e-10);
        let verdicts = |run: &DibaRun| {
            let sums = [run.total_power().0, run.total_utility()];
            (
                is_near_within(
                    run.problem.budget(),
                    sums,
                    reference,
                    rel_tol,
                    cap_filter_guard(40),
                ),
                is_within(&run.problem, || run.p.iter().copied(), reference, rel_tol),
            )
        };
        assert_eq!(verdicts(&run), (true, false), "not in the guard band");

        for threads in [1, 2, 7] {
            let mut fused = run.clone();
            fused.set_threads(Threads::Fixed(threads));
            let mut stepped = run.clone();
            assert_eq!(fused.run_until_within(reference, rel_tol, 60), None);
            for _ in 0..60 {
                stepped.step();
            }
            assert_eq!(fused.iterations(), stepped.iterations());
            assert_eq!(
                fused.node_states(),
                stepped.node_states(),
                "{threads} workers"
            );
            assert_eq!(verdicts(&fused), (true, false), "left the guard band");
        }
    }

    #[test]
    fn clone_and_rethreading_between_stop_rule_calls_change_nothing() {
        let (p, mut whole) = run_on_ring(100, 16_600.0, 3);
        let opt = p.total_utility(&centralized::solve(&p).allocation);
        let mut split = whole.clone();
        let r = whole.run_until_within(opt, 0.01, 5_000).expect("converges");
        let rest = whole.run_to_rest(1e-2, 10, 100_000).expect("rests");

        // The same solve cut in two, cloned mid-way and re-threaded twice.
        assert_eq!(split.run_until_within(opt, 0.01, r / 2), None);
        let mut split = split.clone();
        split.set_threads(Threads::Fixed(3));
        assert_eq!(split.run_until_within(opt, 0.01, 5_000), Some(r - r / 2));
        split.set_threads(Threads::Fixed(2));
        assert_eq!(split.run_to_rest(1e-2, 10, 100_000), Some(rest));
        assert_eq!(split.iterations(), whole.iterations());
        assert_eq!(split.node_states(), whole.node_states());
        assert_eq!(
            split.last_max_step().to_bits(),
            whole.last_max_step().to_bits()
        );
    }

    #[test]
    fn beats_uniform_at_tight_budgets() {
        let (p, mut run) = run_on_ring(100, 16_600.0, 4);
        let opt = p.total_utility(&centralized::solve(&p).allocation);
        run.run_until_within(opt, 0.01, 5_000).expect("converges");
        let uniform_util = p.total_utility(&crate::baselines::uniform(&p));
        assert!(run.total_utility() > uniform_util, "DiBA must beat uniform");
    }

    #[test]
    fn budget_drop_is_respected_quickly() {
        let (_, mut run) = run_on_ring(50, 9_500.0, 5);
        run.run(400);
        run.set_budget(Watts(8_500.0)).unwrap();
        // Overshoot is corrected within a modest number of rounds.
        let mut ok_round = None;
        for r in 0..300 {
            run.step();
            if run.total_power() <= Watts(8_500.0) + Watts(1e-6) {
                ok_round = Some(r);
                break;
            }
        }
        let r = ok_round.expect("never met the reduced budget");
        assert!(r < 200, "took {r} rounds to cap");
        assert!(run.invariant_drift() < 1e-6);
    }

    #[test]
    fn budget_raise_is_filled() {
        let (_, mut run) = run_on_ring(50, 8_500.0, 6);
        run.run(400);
        let before = run.total_power();
        run.set_budget(Watts(9_500.0)).unwrap();
        run.run(600);
        let after = run.total_power();
        assert!(
            after > before + Watts(500.0),
            "budget raise unused: {before} -> {after}"
        );
        assert!(after <= Watts(9_500.0) + Watts(1e-6));
    }

    #[test]
    fn perturbation_response_is_local() {
        // Ring of 100; change node 50's workload to an extreme CPU-bound
        // curve; nearby nodes should absorb most of the re-equilibration
        // (Fig. 4.9). The locality lives in the transient — full diffusion
        // would eventually spread a (much smaller) uniform shift — so the
        // comparison is made a modest number of rounds after the change,
        // exactly as the paper's snapshot does.
        use dpc_models::throughput::CurveParams;
        let n = 100;
        let (_, mut run) = run_on_ring(n, 16_600.0, 7);
        // Deterministic maximal swing: settle with node 50 memory-bound,
        // then flip it to the steepest CPU-bound curve.
        let u = *run.problem().utility(50);
        let flat = CurveParams::for_memory_boundedness(1.0).utility(u.p_min(), u.p_max());
        run.replace_utility(50, flat);
        run.run_to_rest(1e-3, 20, 100_000)
            .expect("settles before perturbation");
        let before = run.allocation();

        let steep = CurveParams::for_memory_boundedness(0.0).utility(u.p_min(), u.p_max());
        run.replace_utility(50, steep);
        run.run(150);
        let after = run.allocation();

        let delta = |i: usize| (after.power(i) - before.power(i)).abs().0;
        let near: f64 = (45..=55).filter(|&i| i != 50).map(delta).sum::<f64>() / 10.0;
        let far: f64 = (0..10).chain(90..100).map(delta).sum::<f64>() / 20.0;
        assert!(
            near > 1.5 * far,
            "perturbation response not local: near {near} vs far {far}"
        );
        assert!(run.invariant_drift() < 1e-6);
    }

    #[test]
    fn higher_connectivity_converges_no_slower() {
        let p = problem(60, 10_000.0, 8);
        let opt = p.total_utility(&centralized::solve(&p).allocation);
        let mut ring = DibaRun::new(p.clone(), Graph::ring(60), DibaConfig::default()).unwrap();
        let mut dense = DibaRun::new(
            p.clone(),
            Graph::ring_with_chords(60, 12),
            DibaConfig::default(),
        )
        .unwrap();
        let r_ring = ring
            .run_until_within(opt, 0.01, 10_000)
            .expect("ring converges");
        let r_dense = dense
            .run_until_within(opt, 0.01, 10_000)
            .expect("dense converges");
        assert!(
            r_dense <= r_ring + 50,
            "chords should not hurt: ring {r_ring}, dense {r_dense}"
        );
    }

    #[test]
    fn unconstrained_budget_drives_everyone_to_peak() {
        let p = problem(20, 1e6, 9);
        let mut run = DibaRun::new(p.clone(), Graph::ring(20), DibaConfig::default()).unwrap();
        run.run(500);
        for (u, &pw) in p.utilities().iter().zip(run.allocation().powers()) {
            assert!(
                pw > u.p_max() - Watts(2.0),
                "node stuck at {pw} of {}",
                u.p_max()
            );
        }
    }

    #[test]
    fn run_to_rest_detects_equilibrium() {
        let (_, mut run) = run_on_ring(40, 6_800.0, 10);
        // The slack-diffusion tail decays slowly; resting below 10 mW of
        // per-node movement is equilibrium for all practical purposes.
        let rounds = run.run_to_rest(1e-2, 10, 10_000);
        assert!(rounds.is_some(), "never rested");
        // After rest, further steps barely move.
        run.step();
        assert!(run.last_max_step() < 2e-2);
    }

    #[test]
    fn warm_budget_trim_beats_cold_restart() {
        // The tentpole claim in miniature: after a small budget event, the
        // warm run (carried residual state, proportional re-arm) re-settles
        // in fewer rounds than a cold start on the mutated instance.
        let (_, mut warm) = run_on_ring(200, 33_000.0, 12);
        warm.run_to_rest(1e-2, 10, 100_000).expect("initial settle");
        let trimmed = Watts(33_000.0 * 0.99);
        warm.set_budget(trimmed).unwrap();
        let warm_rounds = warm.run_to_rest(1e-2, 10, 100_000).expect("warm re-settle");

        let cold_problem = warm.problem().clone();
        let mut cold = DibaRun::new(cold_problem, Graph::ring(200), DibaConfig::default()).unwrap();
        let cold_rounds = cold.run_to_rest(1e-2, 10, 100_000).expect("cold settle");
        assert!(
            warm_rounds < cold_rounds,
            "warm {warm_rounds} rounds vs cold {cold_rounds}"
        );
        assert!(warm.invariant_drift() < 1e-6);
    }

    #[test]
    fn warm_retune_matches_cold_eta_exactly() {
        // Warm mutations re-tune η from the mutated problem with the same
        // pure function a cold run auto-tunes with, so warm and cold share
        // one barrier equilibrium. Pinned η stays pinned.
        let (_, mut warm) = run_on_ring(60, 10_000.0, 13);
        warm.run(100);
        warm.set_budget(Watts(9_700.0)).unwrap();
        let u = *warm.problem().utility(7);
        warm.replace_utilities(&[(
            7,
            dpc_models::throughput::CurveParams::for_memory_boundedness(0.9)
                .utility(u.p_min(), u.p_max()),
        )])
        .unwrap();
        let cold = DibaRun::new(
            warm.problem().clone(),
            Graph::ring(60),
            DibaConfig::default(),
        )
        .unwrap();
        assert_eq!(warm.eta().to_bits(), cold.eta().to_bits());
        assert_eq!(
            warm.params().margin.to_bits(),
            cold.params().margin.to_bits()
        );

        let pinned_cfg = DibaConfig {
            eta: Some(0.25),
            ..DibaConfig::default()
        };
        let p = problem(20, 3_400.0, 13);
        let mut pinned = DibaRun::new(p, Graph::ring(20), pinned_cfg).unwrap();
        pinned.set_budget(Watts(3_300.0)).unwrap();
        assert_eq!(pinned.eta(), 0.25);
    }

    #[test]
    fn replace_utilities_rejects_unknown_node_and_leaves_state_intact() {
        let (_, mut run) = run_on_ring(10, 1_700.0, 14);
        run.run(50);
        let before = run.node_states();
        let eta_before = run.eta();
        let u = *run.problem().utility(0);
        let err = run.replace_utilities(&[(0, u), (10, u)]).unwrap_err();
        assert!(
            matches!(
                err,
                AlgError::UnknownNode {
                    node: 10,
                    nodes: 10
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("unknown node 10"), "{err}");
        assert_eq!(run.node_states(), before, "state mutated on error");
        assert_eq!(run.eta(), eta_before);
    }

    #[test]
    fn batched_replace_conserves_and_marks_telemetry() {
        use crate::telemetry::TelemetryConfig;
        use dpc_models::throughput::CurveParams;
        let p = problem(30, 5_100.0, 15);
        let config = DibaConfig {
            telemetry: TelemetryConfig::on(),
            ..DibaConfig::default()
        };
        let mut run = DibaRun::new(p, Graph::ring(30), config).unwrap();
        run.run(200);
        let changes: Vec<(usize, dpc_models::QuadraticUtility)> = [3usize, 11, 22]
            .iter()
            .map(|&i| {
                let u = *run.problem().utility(i);
                (
                    i,
                    CurveParams::for_memory_boundedness(0.8).utility(u.p_min(), u.p_max()),
                )
            })
            .collect();
        run.set_budget(Watts(5_000.0)).unwrap();
        run.replace_utilities(&changes).unwrap();
        assert!(run.invariant_drift() < 1e-6, "{}", run.invariant_drift());
        let events: Vec<_> = run.telemetry().unwrap().events().collect();
        assert_eq!(events.len(), 4, "{events:?}");
        assert_eq!(events[0].kind, FaultEventKind::Budget);
        assert!((events[0].mass - (-100.0)).abs() < 1e-9);
        assert!(events[1..]
            .iter()
            .all(|e| e.kind == FaultEventKind::Workload));
        run.run(200);
        assert!(run.total_power() <= Watts(5_000.0) + Watts(1e-6));
    }
}
