//! The lane traversal of a DiBA round: the reference kernel's exact
//! arithmetic, laid out for 4-wide lanes over a ring.
//!
//! [`crate::diba`]'s CSR traversal runs one scalar kernel per adjacency
//! row, buffers every directed transfer in a CSR-aligned array and folds
//! it back through a reverse-slot gather. On a ring nearly every row has
//! the same shape — neighbours `i − 1` and `i + 1`, degree 2 — so this
//! module evaluates the same per-node expressions over a layout that
//! streams. It is a second traversal, not a second numeric contract:
//! `DibaRun` picks it from the graph's shape (`FastState::for_graph`) whatever
//! `Precision` says, and its trajectory is bitwise the CSR traversal's for
//! any worker count (`tests/kernel_pins.rs`, and the lanes ≡ CSR test in
//! `diba.rs`).
//!
//! What differs from the CSR traversal is layout only:
//!
//! * **SoA curves.** `FastState` mirrors the per-node quadratic
//!   utilities into flat `a`, `b`, `c`, `p_min` and `p_max` arrays, so the
//!   sweep streams coefficients instead of striding over
//!   `QuadraticUtility` structs.
//! * **Packed blocks.** Both phases walk the shard in blocks of `LANES`
//!   nodes held in fixed-size lane arrays, with no cross-lane dependency.
//!   Every slice a phase reads or writes is cut into lane arrays once per
//!   shard (`as_chunks`), so a block carries no bounds check; and every
//!   clamp in the arithmetic is a compare-select (`max_sel`, `min_sel`,
//!   `clamp_sel` in `diba.rs`) — `f64::max`/`min` lower on x86 to
//!   `maxsd`/`minsd` plus a NaN fix-up that kept the old loops scalar. On
//!   the default SSE2 target, with no intrinsics and no target features,
//!   a block therefore compiles to packed `mulpd`/`divpd`/`minpd`/`maxpd`
//!   with one predictable branch. The two dependent divisions per node
//!   (`divpd` handles two lanes) set a floor of about 2 ns/node-round.
//! * **One phase-A sweep.** Each block computes the raw moves, both ring
//!   sends (from shifted contiguous reads of the neighbours' sent
//!   residuals), `sent` and Algorithm 4's first feasibility test
//!   lane-wise, and stores `p̂`, `vp` and `vn` as they stand. A block where
//!   some lane fails the test — a few per round outside a budget cut — goes
//!   to a `#[cold]`, out-of-line function that redoes its rows scalar from
//!   sealed state, so the packed loop keeps nothing live for it. The
//!   blocks stay strictly inside a worker's shard, so they read its own
//!   chunks only; each shard's first and last nodes (the wrap nodes among
//!   them) and the tail past its last whole block run the same scalar row.
//! * **Ring sends in two flat arrays.** Phase A stores node `i`'s final
//!   donations to `i − 1` and `i + 1` in `vp[i]` and `vn[i]`; phase B reads
//!   what `i` received from its neighbours' entries `vn[i − 1]` and
//!   `vp[i + 1]` — shifted contiguous loads instead of a reverse-slot
//!   gather — and stores `e` and the sent residual in the same block
//!   pass.
//! * **Exceptional rows, scalar.** A node whose row is not exactly its two
//!   ring neighbours (a chord endpoint, or a node missing a ring edge) is
//!   re-done after the sweep over its CSR row. Its ring sends land in
//!   `vp`/`vn` like everyone else's and its chord sends in an `extras`
//!   buffer with one slot per exceptional row slot; phase B folds its
//!   residual over the row from those buffered final sends. The
//!   cost is `O(exceptional)`, and `MAX_EXCEPTIONAL_SHARE` bounds it.
//!
//! The arithmetic is the deployed agent's round, not a copy of it: the
//! sweep, the scalar rows and the exceptional path call `gradient_step`,
//! `send` and `backtrack`, the helpers `node_action_generic` in `diba.rs`
//! is made of, and fold in `AgentCore`'s orders:
//!
//! * a node acts on its own residual and on its neighbours' *sent*
//!   residuals — what each put on the wire last round;
//! * a ring node's send divides by the literal `2.0`, which compiles to
//!   the exact `·0.5`;
//! * `sent` is `s₀ + s₁ + …` in CSR slot order (the agent's
//!   `Iterator::sum`); the node publishes `e_mid = e + (dp − sent)` as its
//!   sent residual and then adds each incoming transfer in slot order,
//!   `e = (e_mid + in₀) + in₁ + …`. A two-term sum is commutative to the
//!   bit, so `sent`'s order on a ring row is free; the incoming fold is
//!   not — rows are sorted, so nodes `0` and `n − 1` hear `next` first —
//!   and an exceptional row folds its slots strictly in row order.
//!
//! The blocks, the scalar rows and the exceptional path share these
//! expressions (no FMA contraction, no lane-position dependence) and read
//! only state sealed by the previous barrier, so a node's bits depend on
//! neither shard cuts nor block alignment. No kernel holds a pointer: a
//! worker writes its own `exec::Chunked` chunks and reads its peers'.

use crate::diba::{backtrack, gradient_step, max_sel, send, NodeParams};
use crate::exec::Whole;
use dpc_models::QuadraticUtility;
use dpc_topology::Graph;
use std::ops::Range;

/// Nodes per block of the packed sweeps: two SSE2 or NEON registers of
/// `f64` (one AVX2 register), enough independent work to cover a
/// division's latency on the default target.
pub(crate) const LANES: usize = 4;

/// The largest share of exceptional nodes (see `FastState`) at which a
/// graph still counts as ring-dominant and runs the lane traversal.
///
/// Measured on the 2-vCPU Xeon sizing host, one worker, `run(2000)` on a
/// 10 000-ring with chords `i ↔ i + 5 000` (two exceptional nodes each),
/// ns per node-round, lanes / CSR, each the median of three passes of
/// best-of-five:
///
/// | exceptional | 0 %  | 12 % | 20 % | 24 % | 28 % | 32 % | 35 % | 40 % | 50 % |
/// |-------------|------|------|------|------|------|------|------|------|------|
/// | lanes       | 2.8  | 4.8  | 6.2  | 6.5  | 7.3  | 7.7  | 8.0  | 9.1  | 10.5 |
/// | CSR         | 7.3  | 7.8  | 7.6  | 7.7  | 7.6  | 7.4  | 7.7  | 8.1  | 8.2  |
///
/// An exceptional node costs the lanes a scalar re-do of its row in both
/// phases on top of its block slot, about 15 ns, while the CSR traversal
/// pays only its extra slots; the lines cross between 28 % and 32 %, and
/// the cut-over sits there. Rings, paths and the deployment's chorded
/// rings take the lanes; tori, hypercubes, random-regular and complete
/// graphs, whose every node is exceptional, take the CSR rows.
const MAX_EXCEPTIONAL_SHARE: f64 = 0.30;

/// One slot of an exceptional node's CSR row, in slot order.
#[derive(Debug, Clone, Copy)]
enum Link {
    /// The ring edge to `i − 1`: sent from `vp[i]`, received from
    /// `vn[i − 1]`.
    Prev,
    /// The ring edge to `i + 1`: sent from `vn[i]`, received from
    /// `vp[i + 1]`.
    Next,
    /// Any other edge, to node `to`: sent from `extras[own slot]`,
    /// received from `extras[back]`, the slot of `to`'s link back.
    Chord { to: usize, back: usize },
}

/// A node the ring lanes cannot finish: its row is not exactly its two
/// ring neighbours. `links` indexes its row in [`FastState`]'s link list
/// (and its slots of the extras buffer).
#[derive(Debug, Clone)]
struct Exceptional {
    node: usize,
    links: Range<usize>,
}

/// `true` when node `i`'s row is exactly `{i − 1, i + 1} (mod n)` — the
/// shape the ring lanes assume.
fn is_ring_row(graph: &Graph, i: usize) -> bool {
    let n = graph.len();
    let prev = if i == 0 { n - 1 } else { i - 1 };
    let next = if i + 1 == n { 0 } else { i + 1 };
    graph.neighbors(i) == [prev.min(next), prev.max(next)]
}

/// Structure-of-arrays mirror of the problem's curve coefficients plus
/// the graph's ring/exceptional decomposition — the read-only working set
/// of the lane traversal. Built once per run on ring-dominant graphs and
/// updated in place on workload changes.
#[derive(Debug, Clone)]
pub(crate) struct FastState {
    /// Constant coefficient `a` per node (read by the cap-test sums only).
    a: Vec<f64>,
    /// Linear coefficient `b` per node.
    b: Vec<f64>,
    /// Quadratic coefficient `c` per node.
    c: Vec<f64>,
    /// Lower power box bound per node.
    p_min: Vec<f64>,
    /// Upper power box bound per node.
    p_max: Vec<f64>,
    /// Nodes the ring lanes must not finish, ascending. Empty for a pure
    /// ring; `2 · chords` entries for a chorded ring.
    exceptional: Vec<Exceptional>,
    /// The exceptional rows' slots, row after row in slot order. Index `s`
    /// is also the extras slot a chord send at `s` is buffered in.
    links: Vec<Link>,
}

impl FastState {
    /// The lane state for `utilities` on `graph` when the graph is
    /// ring-dominant — at least three nodes (so `i − 1` and `i + 1` are
    /// distinct) and at most [`MAX_EXCEPTIONAL_SHARE`] of them exceptional
    /// — and `None` otherwise, decided before the SoA arrays are built.
    pub(crate) fn for_graph(utilities: &[QuadraticUtility], graph: &Graph) -> Option<FastState> {
        let limit = (MAX_EXCEPTIONAL_SHARE * graph.len() as f64) as usize;
        FastState::with_limit(utilities, graph, limit)
    }

    /// [`FastState::for_graph`] with the exceptional share unbounded, for
    /// tests that drive the lanes over any graph of three or more nodes.
    #[cfg(test)]
    pub(crate) fn new(utilities: &[QuadraticUtility], graph: &Graph) -> FastState {
        FastState::with_limit(utilities, graph, usize::MAX).expect("the lanes need n ≥ 3")
    }

    /// Classifies every row as ring or exceptional, giving up once more
    /// than `limit` are exceptional, then mirrors the curves.
    fn with_limit(
        utilities: &[QuadraticUtility],
        graph: &Graph,
        limit: usize,
    ) -> Option<FastState> {
        let n = utilities.len();
        assert_eq!(graph.len(), n, "one utility per graph node");
        if n < 3 {
            return None;
        }
        let mut rows = Vec::new();
        for i in (0..n).filter(|&i| !is_ring_row(graph, i)) {
            if rows.len() == limit {
                return None;
            }
            rows.push(i);
        }
        let mut exceptional = Vec::with_capacity(rows.len());
        let mut links = Vec::new();
        for i in rows {
            let prev = if i == 0 { n - 1 } else { i - 1 };
            let next = if i + 1 == n { 0 } else { i + 1 };
            let start = links.len();
            links.extend(graph.neighbors(i).iter().map(|&j| match j {
                j if j == prev => Link::Prev,
                j if j == next => Link::Next,
                to => Link::Chord { to, back: 0 },
            }));
            exceptional.push(Exceptional {
                node: i,
                links: start..links.len(),
            });
        }
        // Pair every chord slot with its reverse: a chord endpoint's
        // neighbour is never its ring neighbour, so it is exceptional too.
        for k in 0..exceptional.len() {
            let i = exceptional[k].node;
            for s in exceptional[k].links.clone() {
                if let Link::Chord { to, .. } = links[s] {
                    let row = &exceptional[exceptional
                        .binary_search_by_key(&to, |x| x.node)
                        .expect("a chord's far end is exceptional")];
                    let back = row
                        .links
                        .clone()
                        .find(|&r| matches!(links[r], Link::Chord { to, .. } if to == i))
                        .expect("undirected edge has both directions");
                    links[s] = Link::Chord { to, back };
                }
            }
        }
        let coefficient = |k: fn(&QuadraticUtility) -> f64| utilities.iter().map(k).collect();
        Some(FastState {
            a: coefficient(|u| u.coefficients().0),
            b: coefficient(|u| u.coefficients().1),
            c: coefficient(|u| u.coefficients().2),
            p_min: coefficient(|u| u.p_min().0),
            p_max: coefficient(|u| u.p_max().0),
            exceptional,
            links,
        })
    }

    /// Node count.
    pub(crate) fn len(&self) -> usize {
        self.b.len()
    }

    /// Re-mirrors node `i`'s curve after a workload change.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn replace_utility(&mut self, i: usize, u: &QuadraticUtility) {
        (self.a[i], self.b[i], self.c[i]) = u.coefficients();
        self.p_min[i] = u.p_min().0;
        self.p_max[i] = u.p_max().0;
    }

    /// Number of exceptional nodes (the length of the phase-B stash).
    pub(crate) fn exceptional_len(&self) -> usize {
        self.exceptional.len()
    }

    /// Length of the per-round extras buffer: one slot per exceptional
    /// row slot.
    pub(crate) fn extras_len(&self) -> usize {
        self.links.len()
    }

    /// The exceptional nodes inside `range`, as an index range of
    /// `exceptional` (which is ascending by node).
    fn exceptional_in(&self, range: &Range<usize>) -> Range<usize> {
        let lo = self.exceptional.partition_point(|x| x.node < range.start);
        let hi = self.exceptional.partition_point(|x| x.node < range.end);
        lo..hi
    }

    /// The extras slots owned by the exceptional nodes `ex` (contiguous:
    /// rows are laid out in node order).
    fn links_of(&self, ex: &Range<usize>) -> Range<usize> {
        let at = |k: usize| {
            self.exceptional
                .get(k)
                .map_or(self.links.len(), |x| x.links.start)
        };
        at(ex.start)..at(ex.end)
    }

    /// Where the node cuts `cuts` cut the extras buffer and the stash:
    /// each shard's exceptional rows' slots, and its exceptional nodes.
    pub(crate) fn chunk_cuts(&self, cuts: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let rows: Vec<usize> = cuts
            .iter()
            .map(|&c| self.exceptional_in(&(0..c)).end)
            .collect();
        let slots = rows.iter().map(|&k| self.links_of(&(k..k)).start).collect();
        (slots, rows)
    }
}

/// The state phase A reads, sealed by the previous round-end barrier:
/// the shard's own powers and residuals (index `i − start`), and every
/// node's sent residual.
#[derive(Clone, Copy)]
pub(crate) struct Sealed<'s> {
    pub start: usize,
    pub p: &'s [f64],
    pub e: &'s [f64],
    pub heard: Whole<'s, f64>,
}

/// `s[from..]` as `blocks` lane arrays. The one bounds check happens here,
/// once per shard; indexing the result by a block number below `blocks`
/// then needs none.
#[inline(always)]
fn blocks_of(s: &[f64], from: usize, blocks: usize) -> &[[f64; LANES]] {
    &s[from..].as_chunks::<LANES>().0[..blocks]
}

/// [`blocks_of`] for a slice the sweep writes.
#[inline(always)]
fn blocks_of_mut(s: &mut [f64], from: usize, blocks: usize) -> &mut [[f64; LANES]] {
    &mut s[from..].as_chunks_mut::<LANES>().0[..blocks]
}

/// The nodes of `range` the packed blocks cover, `lo..lo + blocks·LANES`,
/// strictly inside the shard so that `i − 1` and `i + 1` are its own and
/// never wrap; and `hi`, the shard's last node when it has two.
pub(crate) fn block_span(range: &Range<usize>) -> (usize, usize, usize) {
    let lo = range.start + 1;
    let hi = range.end.saturating_sub(1).max(lo);
    (lo, (hi - lo) / LANES, hi)
}

/// The nodes of `range` the scalar row serves: the shard's first and last
/// (the wrap nodes among them), then the tail past the last whole block.
fn scalar_rows(range: &Range<usize>) -> impl Iterator<Item = usize> {
    let ((lo, blocks, hi), end) = (block_span(range), range.end);
    let edges = [range.start, hi].into_iter().filter(move |&i| i < end);
    edges.chain(lo + blocks * LANES..hi)
}

/// Phase A of a round over one shard: one fused sweep over the ring rows
/// ([`ring_sweep`]), then the exceptional rows re-done over their CSR
/// slots ([`exceptional_pass`]). Writes `hat`, `vp` and `vn` — the
/// shard's own chunks, index `i − range.start` — and `tx`, the extras
/// slots of the shard's exceptional rows. With `SUMS`, returns the cap
/// test's `[Σpᵢ, Σrᵢ(pᵢ)]` over the shard's pre-round state, accumulated
/// per lane (any order serves: `is_near_within`'s guard covers the
/// re-association); zeros otherwise.
///
/// The memory contract is the borrow checker's: `sealed` is read-locked,
/// and the chunks this worker writes are its own, write-locked.
pub(crate) fn phase_a_fast<const SUMS: bool>(
    st: &FastState,
    rp: &NodeParams,
    sealed: Sealed<'_>,
    range: Range<usize>,
    hat: &mut [f64],
    (vp, vn): (&mut [f64], &mut [f64]),
    tx: &mut [f64],
) -> [f64; 2] {
    let ex = st.exceptional_in(&range);
    let sums = ring_sweep::<SUMS>(st, rp, sealed, range, hat, vp, vn);
    exceptional_pass(st, rp, sealed, ex, hat, vp, vn, tx);
    sums
}

/// Phase B of a round over one shard, in the agent's order:
/// every node applies `p[i] += p̂ᵢ`, publishes `e_mid = e[i] + (p̂ᵢ − sent)`
/// as its sent residual and then adds what it received in slot order.
/// Ring nodes stream over the shifted send arrays in packed blocks that
/// store `p`, `e_sent` and `e` together; exceptional nodes fold over their
/// CSR row from the buffered final sends, stashed first because the blocks
/// overwrite both their residuals. `p`, `e`, `e_sent`, `hat` and `stash`
/// are the shard's own chunks; `vp`, `vn` and the extras buffer `tx` are
/// read whole. Returns the shard's max `|p̂|` (a compare-select fold:
/// exactly associative on these non-negative, NaN-free values).
pub(crate) fn phase_b_fast(
    st: &FastState,
    range: Range<usize>,
    (p, e, e_sent): (&mut [f64], &mut [f64], &mut [f64]),
    hat: &[f64],
    [vp_all, vn_all, tx_all]: [Whole<'_, f64>; 3],
    stash: &mut [[f64; 2]],
) -> f64 {
    let n = st.len();
    let ex = st.exceptional_in(&range);
    let (start, tx_base) = (range.start, st.links_of(&ex).start);
    let (vp, vn, tx) = (vp_all.own(), vn_all.own(), tx_all.own());

    for (x, parked) in st.exceptional[ex.clone()].iter().zip(stash.iter_mut()) {
        let i = x.node;
        let prev = if i == 0 { n - 1 } else { i - 1 };
        let next = if i + 1 == n { 0 } else { i + 1 };
        let k = i - start;
        // `Iterator::sum`'s fold, which starts from −0.0.
        let mut sent = -0.0_f64;
        for s in x.links.clone() {
            sent += match st.links[s] {
                Link::Prev => vp[k],
                Link::Next => vn[k],
                Link::Chord { .. } => tx[s - tx_base],
            };
        }
        let e_mid = e[k] + (hat[k] - sent);
        let mut e_new = e_mid;
        for s in x.links.clone() {
            e_new += match st.links[s] {
                Link::Prev => vn_all.get(prev),
                Link::Next => vp_all.get(next),
                Link::Chord { back, .. } => tx_all.get(back),
            };
        }
        *parked = [e_mid, e_new];
    }

    let (lo, blocks, _) = block_span(&range);
    let mut max4 = [0.0_f64; LANES];
    if blocks > 0 {
        let k = lo - start;
        let (from_prev, out_prev) = (blocks_of(vn, k - 1, blocks), blocks_of(vp, k, blocks));
        let (from_next, out_next) = (blocks_of(vp, k + 1, blocks), blocks_of(vn, k, blocks));
        let dp4 = blocks_of(hat, k, blocks);
        let p4 = blocks_of_mut(p, k, blocks);
        let e4 = blocks_of_mut(e, k, blocks);
        let s4 = blocks_of_mut(e_sent, k, blocks);
        for j in 0..blocks {
            let (dp, p, e) = (dp4[j], p4[j], e4[j]);
            let (mut p_new, mut e_mid, mut e_new) = ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
            for l in 0..LANES {
                p_new[l] = p[l] + dp[l];
                e_mid[l] = e[l] + (dp[l] - (out_prev[j][l] + out_next[j][l]));
                e_new[l] = e_mid[l] + from_prev[j][l] + from_next[j][l];
                max4[l] = max_sel(dp[l].abs(), max4[l]);
            }
            (p4[j], s4[j], e4[j]) = (p_new, e_mid, e_new);
        }
    }
    // The max is order-free, so the lane tree costs nothing in determinism.
    let mut local_max = max_sel(max_sel(max4[0], max4[1]), max_sel(max4[2], max4[3]));
    for i in scalar_rows(&range) {
        let prev = if i == 0 { n - 1 } else { i - 1 };
        let next = if i + 1 == n { 0 } else { i + 1 };
        // Rows are sorted: the wrap nodes hear `next` first.
        let (first, second) = if prev < next {
            (vn_all.get(prev), vp_all.get(next))
        } else {
            (vp_all.get(next), vn_all.get(prev))
        };
        let k = i - start;
        let dp = hat[k];
        p[k] += dp;
        e_sent[k] = e[k] + (dp - (vp[k] + vn[k]));
        e[k] = e_sent[k] + first + second;
        local_max = max_sel(dp.abs(), local_max);
    }

    for (x, parked) in st.exceptional[ex].iter().zip(stash.iter()) {
        [e_sent[x.node - start], e[x.node - start]] = *parked;
    }
    local_max
}

/// Phase A's one sweep over the shard's ring rows: per node, the raw move
/// ([`gradient_step`]), the two ring sends ([`send`]) from shifted
/// contiguous reads of the neighbours' sent residuals,
/// `sent = 0.0 + s₀ + s₁` and Algorithm 4's first feasibility test,
/// `dp − sent ≤ −margin − e`, lane-wise. A block stores its moves and
/// sends as they stand; a block where some lane fails the test — rare
/// outside a budget cut — is redone by [`backtrack_block`]. `hat`, `vp`
/// and `vn` are the shard's own slots (index `i − range.start`). The
/// sweep assumes every row is a ring row; [`exceptional_pass`] overwrites
/// the rows where that is wrong. With `SUMS`, the cap test's two sums ride
/// along, one partial per lane.
fn ring_sweep<const SUMS: bool>(
    st: &FastState,
    rp: &NodeParams,
    sealed: Sealed<'_>,
    range: Range<usize>,
    hat: &mut [f64],
    vp: &mut [f64],
    vn: &mut [f64],
) -> [f64; 2] {
    let start = range.start;
    let (lo, blocks, _) = block_span(&range);
    let (mut sum_p, mut sum_u) = ([0.0_f64; LANES], [0.0_f64; LANES]);
    let (p_own, e_own) = (sealed.p, sealed.e);
    if blocks > 0 {
        let k = lo - start;
        let p4 = blocks_of(p_own, k, blocks);
        let (e_m, e_i, e_p) = (
            blocks_of(sealed.heard.own(), k - 1, blocks),
            blocks_of(e_own, k, blocks),
            blocks_of(sealed.heard.own(), k + 1, blocks),
        );
        let (a4, b4, c4) = (
            blocks_of(&st.a, lo, blocks),
            blocks_of(&st.b, lo, blocks),
            blocks_of(&st.c, lo, blocks),
        );
        let (lo4, hi4) = (
            blocks_of(&st.p_min, lo, blocks),
            blocks_of(&st.p_max, lo, blocks),
        );
        let hat4 = blocks_of_mut(hat, k, blocks);
        let vp4 = blocks_of_mut(vp, k, blocks);
        let vn4 = blocks_of_mut(vn, k, blocks);
        for j in 0..blocks {
            let (p, e) = (p4[j], e_i[j]);
            let (mut dp, mut to_prev, mut to_next) = ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
            let mut holds = [false; LANES];
            for l in 0..LANES {
                dp[l] = gradient_step(p[l], e[l], b4[j][l], c4[j][l], lo4[j][l], hi4[j][l], rp);
                to_prev[l] = send(rp.step_transfer, e[l], e_m[j][l], 2.0);
                to_next[l] = send(rp.step_transfer, e[l], e_p[j][l], 2.0);
                let sent = 0.0 + to_prev[l] + to_next[l];
                holds[l] = dp[l] - sent <= -rp.margin - e[l];
                if SUMS {
                    sum_p[l] += p[l];
                    sum_u[l] += a4[j][l] + b4[j][l] * p[l] + c4[j][l] * p[l] * p[l];
                }
            }
            hat4[j] = dp;
            vp4[j] = to_prev;
            vn4[j] = to_next;
            // A NaN fails the test, as in `backtrack`.
            if !((holds[0] & holds[1]) & (holds[2] & holds[3])) {
                let i = lo + j * LANES;
                backtrack_block(st, rp, &sealed, i, &mut hat4[j], &mut vp4[j], &mut vn4[j]);
            }
        }
    }
    for i in scalar_rows(&range) {
        let k = i - start;
        let (p, b, c) = (p_own[k], st.b[i], st.c[i]);
        let dp = gradient_step(p, e_own[k], b, c, st.p_min[i], st.p_max[i], rp);
        (hat[k], vp[k], vn[k]) = ring_row(st, rp, &sealed, i, dp);
        if SUMS {
            sum_p[0] += p;
            sum_u[0] += st.a[i] + b * p + c * p * p;
        }
    }
    let fold = |s: [f64; LANES]| (s[0] + s[1]) + (s[2] + s[3]);
    [fold(sum_p), fold(sum_u)]
}

/// The backtracking of a block where some lane fails the first test,
/// nodes `i .. i + LANES`: each row redone from sealed state exactly as
/// [`ring_row`] does, with `dp` the raw moves on entry and `dp`, `vp`,
/// `vn` the final values on return. Out of line and cold, so the packed
/// sweep keeps nothing live for it.
#[cold]
#[inline(never)]
fn backtrack_block(
    st: &FastState,
    rp: &NodeParams,
    sealed: &Sealed<'_>,
    i: usize,
    dp: &mut [f64; LANES],
    vp: &mut [f64; LANES],
    vn: &mut [f64; LANES],
) {
    for l in 0..LANES {
        (dp[l], vp[l], vn[l]) = ring_row(st, rp, sealed, i + l, dp[l]);
    }
}

/// One ring row, scalar, from its raw move `dp`: the sends to `i − 1` and
/// `i + 1` against their sent residuals, `sent = 0.0 + s₀ + s₁` and
/// [`backtrack`]. Serves each shard's first and last nodes, the tails and
/// the cold blocks. Returns the final move and the final sends to `i − 1` and
/// `i + 1`.
fn ring_row(
    st: &FastState,
    rp: &NodeParams,
    sealed: &Sealed<'_>,
    i: usize,
    dp: f64,
) -> (f64, f64, f64) {
    let n = st.len();
    let prev = if i == 0 { n - 1 } else { i - 1 };
    let next = if i + 1 == n { 0 } else { i + 1 };
    let k = i - sealed.start;
    let e_i = sealed.e[k];
    let to_prev = send(rp.step_transfer, e_i, sealed.heard.get(prev), 2.0);
    let to_next = send(rp.step_transfer, e_i, sealed.heard.get(next), 2.0);
    let sent = 0.0 + to_prev + to_next;
    let (lo, hi) = (st.p_min[i], st.p_max[i]);
    let (dp, scale) = backtrack(sealed.p[k], e_i, lo, hi, dp, sent, rp.margin);
    if scale != 1.0 {
        (dp, to_prev * scale, to_next * scale)
    } else {
        (dp, to_prev, to_next)
    }
}

/// Every exceptional row of the shard re-done scalar over its CSR
/// slots — the raw move re-derived (the lanes may have backtracked it
/// against a wrong `sent`), every send at the row's true degree against
/// the neighbour's sent residual, `sent` folded in slot order, the
/// backtracking applied. Ring sends go to `vp`/`vn` (zero for a missing
/// ring edge, which no ring row reads), chord sends to the row's extras
/// slots (`tx` starts at the first slot of the shard's rows `ex`).
#[allow(clippy::too_many_arguments)] // the shard's phase-A working set
fn exceptional_pass(
    st: &FastState,
    rp: &NodeParams,
    sealed: Sealed<'_>,
    ex: Range<usize>,
    hat: &mut [f64],
    vp: &mut [f64],
    vn: &mut [f64],
    tx: &mut [f64],
) {
    let n = st.len();
    let tx_base = st.links_of(&ex).start;
    for x in &st.exceptional[ex] {
        let i = x.node;
        let prev = if i == 0 { n - 1 } else { i - 1 };
        let next = if i + 1 == n { 0 } else { i + 1 };
        let k = i - sealed.start;
        let (p_i, e_i) = (sealed.p[k], sealed.e[k]);
        let (lo, hi) = (st.p_min[i], st.p_max[i]);
        let dp = gradient_step(p_i, e_i, st.b[i], st.c[i], lo, hi, rp);
        let degree = x.links.len().max(1) as f64;
        let (mut to_prev, mut to_next) = (0.0, 0.0);
        let mut sent = 0.0_f64;
        for s in x.links.clone() {
            let (slot, to) = match st.links[s] {
                Link::Prev => (&mut to_prev, prev),
                Link::Next => (&mut to_next, next),
                Link::Chord { to, .. } => (&mut tx[s - tx_base], to),
            };
            *slot = send(rp.step_transfer, e_i, sealed.heard.get(to), degree);
            sent += *slot;
        }
        let (dp, scale) = backtrack(p_i, e_i, lo, hi, dp, sent, rp.margin);
        hat[k] = dp;
        if scale != 1.0 {
            to_prev *= scale;
            to_next *= scale;
            for v in &mut tx[x.links.start - tx_base..x.links.end - tx_base] {
                *v *= scale;
            }
        }
        (vp[k], vn[k]) = (to_prev, to_next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_models::workload::ClusterBuilder;

    #[test]
    fn state_mirrors_curves_and_a_ring_has_no_exceptions() {
        let utilities = ClusterBuilder::new(10).seed(3).build().utilities();
        let graph = Graph::ring(10);
        assert!(dominant(&graph));
        let st = FastState::new(&utilities, &graph);
        assert_eq!(st.len(), 10);
        for (i, u) in utilities.iter().enumerate() {
            assert_eq!((st.a[i], st.b[i], st.c[i]), u.coefficients());
            assert_eq!(st.p_min[i], u.p_min().0);
            assert_eq!(st.p_max[i], u.p_max().0);
        }
        assert!(st.exceptional.is_empty());
        assert_eq!(st.extras_len(), 0);
    }

    #[test]
    fn ring_classification_splits_chords_into_extras() {
        let n = 16;
        let utilities = ClusterBuilder::new(n).seed(5).build().utilities();
        let graph = Graph::ring_with_chords(n, 3);
        let st = FastState::new(&utilities, &graph);
        // Only chord endpoints are exceptional, and each row mirrors the
        // CSR row slot for slot.
        for x in &st.exceptional {
            let row = graph.neighbors(x.node);
            assert!(row.len() > 2, "node {} is a ring row", x.node);
            assert_eq!(x.links.len(), row.len());
            for (s, &j) in x.links.clone().zip(row) {
                match st.links[s] {
                    Link::Prev => assert_eq!((j + 1) % n, x.node),
                    Link::Next => assert_eq!((x.node + 1) % n, j),
                    Link::Chord { to, back } => {
                        assert_eq!(to, j);
                        assert!(matches!(st.links[back], Link::Chord { to, .. } if to == x.node));
                    }
                }
            }
        }
        assert_eq!(
            st.extras_len(),
            graph.flat_neighbors().len() - 2 * n + 2 * st.exceptional_len()
        );
    }

    fn dominant(graph: &Graph) -> bool {
        let utilities = ClusterBuilder::new(graph.len()).seed(1).build().utilities();
        FastState::for_graph(&utilities, graph).is_some()
    }

    #[test]
    fn ring_dominance_follows_the_exceptional_share() {
        // Chords i ↔ i + 50 on a 100-ring: two exceptional nodes each.
        let chorded = |chords: usize| {
            let mut edges = Graph::ring(100).edges();
            edges.extend((0..chords).map(|i| (i, i + 50)));
            Graph::from_edges(100, &edges).unwrap()
        };
        assert!(dominant(&chorded(15)), "30 % exceptional");
        assert!(!dominant(&chorded(16)), "32 % exceptional");
        assert!(dominant(&Graph::path(12)));
        assert!(!dominant(&Graph::torus(8, 8).unwrap()));
        assert!(!dominant(&Graph::complete(6)));
        assert!(!dominant(&Graph::ring(2)));
    }

    #[test]
    fn non_ring_graphs_fall_back_to_exceptional_nodes() {
        // A path's two ends miss the wrap-around edge; a chord 0 ↔ 3 makes
        // node 3 exceptional with both ring edges intact.
        let n = 6;
        let utilities = ClusterBuilder::new(n).seed(2).build().utilities();
        let st = FastState::new(&utilities, &Graph::path(n));
        let nodes: Vec<usize> = st.exceptional.iter().map(|x| x.node).collect();
        assert_eq!(nodes, vec![0, 5]);
        assert!(matches!(st.links[..], [Link::Next, Link::Prev]));

        let graph =
            Graph::from_edges(n, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3)]).unwrap();
        let st = FastState::new(&utilities, &graph);
        let nodes: Vec<usize> = st.exceptional.iter().map(|x| x.node).collect();
        assert_eq!(nodes, vec![0, 3, 5]);
        let rows: Vec<&[Link]> = st
            .exceptional
            .iter()
            .map(|x| &st.links[x.links.clone()])
            .collect();
        assert!(matches!(rows[0], [Link::Next, Link::Chord { to: 3, .. }]));
        assert!(matches!(
            rows[1],
            [Link::Chord { to: 0, .. }, Link::Prev, Link::Next]
        ));
        assert!(matches!(rows[2], [Link::Prev]));
        // The chord's two slots point at each other.
        assert!(matches!(st.links[1], Link::Chord { back: 2, .. }));
        assert!(matches!(st.links[2], Link::Chord { back: 1, .. }));
        assert_eq!(st.extras_len(), 6);
        assert!(!dominant(&graph), "3 of 6 rows are exceptional");
    }
}
