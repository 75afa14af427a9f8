//! Undirected communication graph in compressed sparse row form.
//!
//! The decentralized algorithm exchanges state only along the edges of this
//! graph (Section 4.3.2); the primal-dual baseline uses the star. CSR keeps
//! neighbor iteration allocation-free, which matters when DiBA steps
//! thousands of nodes per iteration.

use std::collections::VecDeque;
use std::fmt;

/// Error constructing a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint is `>= n`.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Number of nodes in the graph.
        n: usize,
    },
    /// An edge connects a node to itself.
    SelfLoop {
        /// The node with the self-loop.
        node: usize,
    },
    /// Too few edges for the requested construction (e.g. a connected graph
    /// on `n` nodes needs at least `n − 1` edges).
    TooFewEdges {
        /// Edges requested.
        have: usize,
        /// Minimum required.
        need: usize,
    },
    /// A random construction failed to produce a connected graph within the
    /// attempt budget.
    ConnectivityNotReached {
        /// Attempts made.
        attempts: usize,
    },
    /// No simple `d`-regular graph on `n` nodes exists (`n·d` odd, or
    /// `d ≥ n`).
    BadRegularity {
        /// Number of nodes requested.
        n: usize,
        /// Degree requested.
        d: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph of {n} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self loop at node {node}"),
            GraphError::TooFewEdges { have, need } => {
                write!(f, "too few edges: have {have}, need at least {need}")
            }
            GraphError::ConnectivityNotReached { attempts } => {
                write!(f, "no connected graph found in {attempts} attempts")
            }
            GraphError::BadRegularity { n, d } => {
                write!(f, "no simple {d}-regular graph on {n} nodes exists")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected graph over nodes `0..n`, stored in CSR form with both edge
/// directions materialized.
///
/// # Examples
///
/// ```
/// use dpc_topology::Graph;
///
/// let ring = Graph::ring(5);
/// assert_eq!(ring.len(), 5);
/// assert_eq!(ring.degree(0), 2);
/// assert!(ring.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    adjacency: Vec<usize>,
}

impl Graph {
    /// Builds a graph from an undirected edge list. Duplicate edges are
    /// collapsed.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`] on invalid
    /// input.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Graph, GraphError> {
        let mut pairs = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            if u >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            pairs.push(if u < v { (u, v) } else { (v, u) });
        }
        pairs.sort_unstable();
        pairs.dedup();

        let mut degree = vec![0usize; n];
        for &(u, v) in &pairs {
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for d in &degree {
            offsets.push(offsets.last().unwrap() + d);
        }
        let mut adjacency = vec![0usize; offsets[n]];
        let mut cursor = offsets[..n].to_vec();
        for &(u, v) in &pairs {
            adjacency[cursor[u]] = v;
            cursor[u] += 1;
            adjacency[cursor[v]] = u;
            cursor[v] += 1;
        }
        // Sorted input plus increasing cursors yields sorted rows, which we
        // rely on for deterministic iteration order.
        Ok(Graph { offsets, adjacency })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// Neighbors of `node`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: usize) -> &[usize] {
        &self.adjacency[self.offsets[node]..self.offsets[node + 1]]
    }

    /// Degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: usize) -> usize {
        self.offsets[node + 1] - self.offsets[node]
    }

    /// Mean degree `2·E / N`. Zero for the empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.adjacency.len() as f64 / self.len() as f64
    }

    /// Maximum degree over all nodes. Zero for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.len()).map(|i| self.degree(i)).max().unwrap_or(0)
    }

    /// BFS hop distances from `src`; unreachable nodes get `usize::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn bfs_distances(&self, src: usize) -> Vec<usize> {
        assert!(src < self.len(), "source {src} out of range");
        let mut dist = vec![usize::MAX; self.len()];
        dist[src] = 0;
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(u) {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// `true` when every node is reachable from node 0 (vacuously true for
    /// empty or singleton graphs).
    pub fn is_connected(&self) -> bool {
        if self.len() <= 1 {
            return true;
        }
        self.bfs_distances(0).iter().all(|&d| d != usize::MAX)
    }

    /// `true` when the subgraph induced by the nodes with `include[i] ==
    /// true` is connected (vacuously true when at most one node is
    /// included). Runs BFS over the mask without materializing the
    /// subgraph — this is the churn-time connectivity check of the
    /// fault-injection layer: DiBA's convergence guarantee requires the
    /// *live* communication graph to stay connected after node removal.
    ///
    /// # Panics
    ///
    /// Panics if `include` is not exactly one flag per node.
    pub fn is_connected_among(&self, include: &[bool]) -> bool {
        assert_eq!(
            include.len(),
            self.len(),
            "mask length {} for graph of {}",
            include.len(),
            self.len()
        );
        let total = include.iter().filter(|&&b| b).count();
        if total <= 1 {
            return true;
        }
        let src = include.iter().position(|&b| b).expect("total >= 1");
        let mut seen = vec![false; self.len()];
        seen[src] = true;
        let mut reached = 1usize;
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(u) {
                if include[v] && !seen[v] {
                    seen[v] = true;
                    reached += 1;
                    queue.push_back(v);
                }
            }
        }
        reached == total
    }

    /// Longest shortest-path over all sources (O(N·E); intended for the
    /// N ≤ a-few-thousand experiment graphs). `None` when disconnected or
    /// empty.
    pub fn diameter(&self) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for src in 0..self.len() {
            let dist = self.bfs_distances(src);
            let far = *dist.iter().max().unwrap();
            if far == usize::MAX {
                return None;
            }
            best = best.max(far);
        }
        Some(best)
    }

    /// The CSR row offsets: `offsets()[i]..offsets()[i+1]` indexes node
    /// `i`'s slots in [`Graph::flat_neighbors`]. Length `n + 1`.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// A stable 64-bit fingerprint of the topology (FNV-1a over the node
    /// count and the CSR arrays). Two `Graph`s hash equal iff they compare
    /// equal, so distributed peers can cheaply verify they were launched
    /// with the same communication graph during a handshake.
    pub fn topology_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let eat = |h: &mut u64, x: u64| {
            for byte in x.to_le_bytes() {
                *h ^= u64::from(byte);
                *h = h.wrapping_mul(PRIME);
            }
        };
        eat(&mut h, self.len() as u64);
        for &o in &self.offsets {
            eat(&mut h, o as u64);
        }
        for &a in &self.adjacency {
            eat(&mut h, a as u64);
        }
        h
    }

    /// The CSR adjacency array: all neighbor lists concatenated, each row
    /// ascending. `flat_neighbors()[offsets()[i] + k]` is node `i`'s `k`-th
    /// neighbor. One entry per *directed* edge (`2·num_edges()` total).
    pub fn flat_neighbors(&self) -> &[usize] {
        &self.adjacency
    }

    /// For every directed slot `s` (an `(i → j)` entry of the adjacency
    /// array), the slot of the reverse direction `(j → i)`. An involution:
    /// `rev[rev[s]] == s`.
    ///
    /// This is what lets a per-edge quantity written at slot `s` by the
    /// sender be read back by the *receiver* without any shared counters:
    /// the transfer node `j` receives over edge `s` sits at
    /// `values[reverse_slots()[s]]`.
    pub fn reverse_slots(&self) -> Vec<usize> {
        let mut rev = vec![0usize; self.adjacency.len()];
        for i in 0..self.len() {
            for (k, &j) in self.neighbors(i).iter().enumerate() {
                let s = self.offsets[i] + k;
                // Rows are sorted ascending, so the reverse slot is found by
                // binary search for `i` in `j`'s row.
                let row = self.neighbors(j);
                let pos = row
                    .binary_search(&i)
                    .expect("undirected edge has both directions");
                rev[s] = self.offsets[j] + pos;
            }
        }
        rev
    }

    /// Splits `0..n` into at most `shards` contiguous node ranges balanced
    /// by *work* (directed-edge count plus a constant per node), returned as
    /// ascending cut points `c₀ = 0 ≤ c₁ ≤ … = n` with `len() == shards+1`.
    /// Range `k` is `c_k..c_{k+1}`; some trailing ranges may be empty when
    /// `n < shards`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn shard_offsets(&self, shards: usize) -> Vec<usize> {
        assert!(shards > 0, "at least one shard required");
        let n = self.len();
        // Per-node cost: its degree (message work) plus 4 (state update,
        // gradient, bookkeeping) — the constant keeps degree-0 nodes from
        // collapsing a shard to zero width on sparse graphs.
        let total: usize = self.adjacency.len() + 4 * n;
        let mut cuts = Vec::with_capacity(shards + 1);
        cuts.push(0);
        let mut acc = 0usize;
        let mut node = 0usize;
        for k in 1..shards {
            let target = total * k / shards;
            while node < n && acc < target {
                acc += self.degree(node) + 4;
                node += 1;
            }
            cuts.push(node);
        }
        cuts.push(n);
        cuts
    }

    /// Per-shard work estimate for a set of cut points (as produced by
    /// [`Graph::shard_offsets`]): directed-edge count plus the same
    /// constant-per-node cost the balancer uses. Telemetry exposes this so
    /// a trace shows how even the work-balanced sharding actually is.
    ///
    /// # Panics
    ///
    /// Panics if `cuts` is not an ascending `0..=n` cut sequence.
    pub fn shard_work(&self, cuts: &[usize]) -> Vec<usize> {
        assert!(
            cuts.first() == Some(&0) && cuts.last() == Some(&self.len()),
            "cuts must span 0..=n"
        );
        cuts.windows(2)
            .map(|w| {
                assert!(w[0] <= w[1], "cuts must be ascending");
                (w[0]..w[1]).map(|i| self.degree(i) + 4).sum()
            })
            .collect()
    }

    /// Edge list `(u, v)` with `u < v`, sorted.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.num_edges());
        for u in 0..self.len() {
            for &v in self.neighbors(u) {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, edges={}, avg-degree={:.2})",
            self.len(),
            self.num_edges(),
            self.average_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_builds_sorted_csr() {
        let g = Graph::from_edges(4, &[(2, 1), (0, 1), (1, 2), (3, 0)]).unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_edges(), 3); // duplicate (1,2)/(2,1) collapsed
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn connected_among_tracks_live_subgraph() {
        // Ring minus one node is a path: still connected.
        let ring = Graph::ring(6);
        let mut alive = vec![true; 6];
        alive[2] = false;
        assert!(ring.is_connected_among(&alive));
        // Two non-adjacent removals split the ring in two.
        alive[5] = false;
        assert!(!ring.is_connected_among(&alive));
        // Losing the star hub isolates every leaf.
        let star = Graph::star(5);
        let mut alive = vec![true; 5];
        assert!(star.is_connected_among(&alive));
        alive[0] = false;
        assert!(!star.is_connected_among(&alive));
        // Degenerate masks are vacuously connected.
        assert!(star.is_connected_among(&[false; 5]));
        assert!(ring.is_connected_among(&[false, true, false, false, false, false]));
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn connected_among_rejects_bad_mask() {
        let _ = Graph::ring(4).is_connected_among(&[true; 3]);
    }

    #[test]
    fn rejects_bad_edges() {
        assert_eq!(
            Graph::from_edges(3, &[(0, 3)]),
            Err(GraphError::NodeOutOfRange { node: 3, n: 3 })
        );
        assert_eq!(
            Graph::from_edges(3, &[(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn bfs_and_connectivity() {
        let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(path.bfs_distances(0), vec![0, 1, 2, 3]);
        assert!(path.is_connected());
        assert_eq!(path.diameter(), Some(3));

        let split = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!split.is_connected());
        assert_eq!(split.diameter(), None);
        assert_eq!(split.bfs_distances(0)[2], usize::MAX);
    }

    #[test]
    fn empty_and_singleton() {
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert!(empty.is_empty());
        assert!(empty.is_connected());
        assert_eq!(empty.diameter(), None);
        assert_eq!(empty.average_degree(), 0.0);

        let one = Graph::from_edges(1, &[]).unwrap();
        assert!(one.is_connected());
        assert_eq!(one.diameter(), Some(0));
    }

    #[test]
    fn edges_roundtrip() {
        let edges = vec![(0, 1), (0, 2), (1, 3)];
        let g = Graph::from_edges(4, &edges).unwrap();
        assert_eq!(g.edges(), edges);
        let rebuilt = Graph::from_edges(4, &g.edges()).unwrap();
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn csr_accessors_expose_the_layout() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(g.offsets(), &[0, 2, 4, 6, 8]);
        assert_eq!(g.flat_neighbors().len(), 2 * g.num_edges());
        for i in 0..g.len() {
            let row = &g.flat_neighbors()[g.offsets()[i]..g.offsets()[i + 1]];
            assert_eq!(row, g.neighbors(i));
        }
    }

    #[test]
    fn reverse_slots_form_an_involution() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]).unwrap();
        let rev = g.reverse_slots();
        assert_eq!(rev.len(), g.flat_neighbors().len());
        for i in 0..g.len() {
            for (k, &j) in g.neighbors(i).iter().enumerate() {
                let s = g.offsets()[i] + k;
                assert_eq!(rev[rev[s]], s);
                // The reverse slot must live in j's row and point back at i.
                assert!((g.offsets()[j]..g.offsets()[j + 1]).contains(&rev[s]));
                assert_eq!(g.flat_neighbors()[rev[s]], i);
            }
        }
    }

    #[test]
    fn shard_offsets_cover_and_balance() {
        let g = Graph::from_edges(10, &(0..9).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap();
        for shards in [1, 2, 3, 7, 10, 16] {
            let cuts = g.shard_offsets(shards);
            assert_eq!(cuts.len(), shards + 1);
            assert_eq!(cuts[0], 0);
            assert_eq!(*cuts.last().unwrap(), g.len());
            assert!(
                cuts.windows(2).all(|w| w[0] <= w[1]),
                "cuts must ascend: {cuts:?}"
            );
        }
        // Two shards over a uniform path should split near the middle.
        let halves = g.shard_offsets(2);
        assert!((4..=6).contains(&halves[1]), "unbalanced split: {halves:?}");
    }

    #[test]
    fn display_summary() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(format!("{g}"), "Graph(n=3, edges=2, avg-degree=1.33)");
    }

    #[test]
    fn topology_hash_separates_graphs_and_is_stable() {
        let ring = Graph::ring(8);
        assert_eq!(ring.topology_hash(), Graph::ring(8).topology_hash());
        // Edge-list construction order does not matter, only the topology.
        let same = Graph::from_edges(
            8,
            &[
                (7, 0),
                (0, 1),
                (2, 1),
                (2, 3),
                (4, 3),
                (4, 5),
                (6, 5),
                (6, 7),
            ],
        )
        .unwrap();
        assert_eq!(ring.topology_hash(), same.topology_hash());
        // Different size, different wiring, different hash.
        assert_ne!(ring.topology_hash(), Graph::ring(9).topology_hash());
        assert_ne!(
            ring.topology_hash(),
            Graph::ring_with_chords(8, 2).topology_hash()
        );
        assert_ne!(ring.topology_hash(), Graph::star(8).topology_hash());
    }
}
