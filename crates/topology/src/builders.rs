//! Standard topologies used by the paper's experiments.
//!
//! DiBA runs on a ring by default ("a ring topology is particularly ideal
//! for DiBA due to its low degree and symmetry"), hardened with chords for
//! fault tolerance; the primal-dual method uses the star (Fig. 4.1); the
//! convergence-vs-connectivity study (Fig. 4.10) uses connected Erdős–Rényi
//! random graphs.

use crate::graph::{Graph, GraphError};
use rand::seq::SliceRandom;
use rand::Rng;

/// The edges of [`Graph::ring`].
fn ring_edges(n: usize) -> Vec<(usize, usize)> {
    match n {
        0 | 1 => vec![],
        2 => vec![(0, 1)],
        _ => (0..n).map(|i| (i, (i + 1) % n)).collect(),
    }
}

impl Graph {
    /// Ring over `n` nodes: node `i` talks to `i±1 (mod n)`.
    ///
    /// Degenerate sizes: `n = 0/1` have no edges, `n = 2` is a single edge.
    pub fn ring(n: usize) -> Graph {
        Graph::from_edges(n, &ring_edges(n)).expect("ring edges are valid")
    }

    /// Star over `n` nodes with node 0 as the hub — the primal-dual /
    /// centralized coordinator topology.
    pub fn star(n: usize) -> Graph {
        let edges: Vec<_> = (1..n).map(|i| (0, i)).collect();
        Graph::from_edges(n, &edges).expect("star edges are valid")
    }

    /// Complete graph over `n` nodes.
    pub fn complete(n: usize) -> Graph {
        let mut edges = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for u in 0..n {
            for v in u + 1..n {
                edges.push((u, v));
            }
        }
        Graph::from_edges(n, &edges).expect("complete edges are valid")
    }

    /// Simple path over `n` nodes (a ring with one broken link — the worst
    /// surviving topology after a single ring-node failure).
    pub fn path(n: usize) -> Graph {
        let edges: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
        Graph::from_edges(n, &edges).expect("path edges are valid")
    }

    /// Ring hardened with `chords` evenly spaced long-range chords
    /// (`i ↔ i + n/2`-style skips), the fault-tolerant deployment topology
    /// suggested in Section 4.4.2.
    ///
    /// Chords whose endpoints coincide or duplicate ring edges are dropped,
    /// so the result can have fewer than `n + chords` edges.
    pub fn ring_with_chords(n: usize, chords: usize) -> Graph {
        let mut edges = ring_edges(n);
        if n > 3 && chords > 0 {
            let skip = (n / 2).max(2);
            for k in 0..chords {
                let u = (k * n) / chords.max(1) % n;
                let v = (u + skip) % n;
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        Graph::from_edges(n, &edges).expect("chord edges are valid")
    }

    /// 2-D grid of `rows × cols` nodes with 4-neighbor connectivity.
    pub fn grid(rows: usize, cols: usize) -> Graph {
        let id = |r: usize, c: usize| r * cols + c;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((id(r, c), id(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((id(r, c), id(r + 1, c)));
                }
            }
        }
        Graph::from_edges(rows * cols, &edges).expect("grid edges are valid")
    }

    /// Connected random graph with exactly `m` edges — the construction
    /// behind Fig. 4.10's "100 instances of connected Erdős–Rényi random
    /// graphs".
    ///
    /// Pure G(n, M) rejection sampling is attempted first (`max_attempts`
    /// resamples); since a connected sample is vanishingly unlikely for
    /// sparse `m` (near the tree threshold, exactly where the experiment's
    /// low-degree points live), the builder falls back to a uniform random
    /// spanning tree (random Prüfer sequence) augmented with `m − (n − 1)`
    /// additional distinct uniform edges. The fallback is not exactly
    /// G(n, M) conditioned on connectivity but matches its degree
    /// statistics, which is what the convergence-vs-degree study consumes.
    ///
    /// # Errors
    ///
    /// [`GraphError::TooFewEdges`] when `m < n − 1` (connectivity
    /// impossible) or `m` exceeds the complete graph.
    pub fn erdos_renyi_connected<R: Rng + ?Sized>(
        n: usize,
        m: usize,
        rng: &mut R,
        max_attempts: usize,
    ) -> Result<Graph, GraphError> {
        if n == 0 {
            return Graph::from_edges(0, &[]);
        }
        let max_edges = n * (n - 1) / 2;
        if m < n.saturating_sub(1) {
            return Err(GraphError::TooFewEdges {
                have: m,
                need: n - 1,
            });
        }
        if m > max_edges {
            return Err(GraphError::TooFewEdges {
                have: max_edges,
                need: m,
            });
        }
        // Rejection sampling is only worth trying when the graph is dense
        // enough that connectivity has non-negligible probability
        // (average degree ≳ ln n).
        if n >= 2 && 2.0 * m as f64 / n as f64 >= (n as f64).ln() {
            for _ in 0..max_attempts {
                let g = sample_gnm(n, m, rng);
                if g.is_connected() {
                    return Ok(g);
                }
            }
        }
        Ok(sample_tree_augmented(n, m, rng))
    }

    /// 2-D torus of `rows × cols` nodes: the grid with wraparound edges, so
    /// every node has exactly 4 neighbors (when both dimensions are ≥ 3).
    /// The natural scale-out topology: constant degree like the ring, but
    /// diameter `(rows + cols)/2` instead of `n/2`, which multiplies the
    /// consensus spectral gap and cuts rounds-to-converge accordingly.
    ///
    /// Degenerate dimensions degrade gracefully: a wrap edge that would
    /// duplicate a grid edge (dimension 2) collapses, and one that would
    /// self-loop (dimension 1) is dropped, so `torus(1, n)` is `ring(n)`.
    ///
    /// # Errors
    ///
    /// None today — the signature is fallible to match the other
    /// parameterized builders and leave room for size validation.
    pub fn torus(rows: usize, cols: usize) -> Result<Graph, GraphError> {
        let id = |r: usize, c: usize| r * cols + c;
        let mut edges = Vec::with_capacity(2 * rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let right = id(r, (c + 1) % cols);
                let down = id((r + 1) % rows, c);
                if id(r, c) != right {
                    edges.push((id(r, c), right));
                }
                if id(r, c) != down {
                    edges.push((id(r, c), down));
                }
            }
        }
        Graph::from_edges(rows * cols, &edges)
    }

    /// Boolean hypercube of dimension `dim`: `2^dim` nodes, node `i`
    /// adjacent to `i ^ (1 << b)` for every bit `b`. Logarithmic degree
    /// *and* logarithmic diameter — the high-connectivity endpoint of the
    /// topology sweep.
    ///
    /// # Panics
    ///
    /// Panics if `dim` exceeds the machine word (`dim ≥ usize::BITS`).
    pub fn hypercube(dim: u32) -> Graph {
        assert!(dim < usize::BITS, "hypercube dimension too large");
        let n = 1usize << dim;
        let mut edges = Vec::with_capacity(n / 2 * dim as usize);
        for u in 0..n {
            for b in 0..dim {
                let v = u ^ (1 << b);
                if u < v {
                    edges.push((u, v));
                }
            }
        }
        Graph::from_edges(n, &edges).expect("hypercube edges are valid")
    }

    /// Random simple `d`-regular graph on `n` nodes via the configuration
    /// model with local pair retries (Steger–Wormald style): each step
    /// draws two random unmatched stubs and accepts the pair unless it
    /// would self-loop or duplicate an edge; a stuck pairing restarts from
    /// scratch. A naive shuffle-and-pair attempt is simple only with
    /// probability `≈ e^{−(d²−1)/4}` — hopeless already at `d = 6` — while
    /// local retries succeed essentially always. The sample is kept only
    /// if connected, which for `d ≥ 3` is almost sure.
    ///
    /// # Errors
    ///
    /// [`GraphError::BadRegularity`] when no simple `d`-regular graph
    /// exists (`n·d` odd, or `d ≥ n`);
    /// [`GraphError::ConnectivityNotReached`] when `max_attempts` pairings
    /// all got stuck or produced a disconnected sample (expected only for
    /// `d ≤ 2`, where connectivity is not almost-sure).
    pub fn random_regular<R: Rng + ?Sized>(
        n: usize,
        d: usize,
        rng: &mut R,
        max_attempts: usize,
    ) -> Result<Graph, GraphError> {
        if d == 0 || n == 0 {
            return Graph::from_edges(n, &[]);
        }
        if d >= n || !(n * d).is_multiple_of(2) {
            return Err(GraphError::BadRegularity { n, d });
        }
        let attempts = max_attempts.max(1);
        'attempt: for _ in 0..attempts {
            let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
            let mut set = std::collections::HashSet::with_capacity(n * d / 2);
            while !stubs.is_empty() {
                let mut paired = false;
                // Toward the end of a pairing only a few stubs remain and
                // most draws collide; a bounded number of redraws before
                // declaring the pairing stuck keeps the loop total-time
                // linear in n·d with overwhelming probability.
                for _ in 0..64 {
                    let i = rng.gen_range(0..stubs.len());
                    let j = rng.gen_range(0..stubs.len());
                    let (u, v) = (stubs[i], stubs[j]);
                    if i == j || u == v {
                        continue;
                    }
                    if !set.insert(if u < v { (u, v) } else { (v, u) }) {
                        continue;
                    }
                    let (hi, lo) = if i > j { (i, j) } else { (j, i) };
                    stubs.swap_remove(hi);
                    stubs.swap_remove(lo);
                    paired = true;
                    break;
                }
                if !paired {
                    continue 'attempt;
                }
            }
            let edges: Vec<_> = set.into_iter().collect();
            let g = Graph::from_edges(n, &edges).expect("paired edges are valid");
            if g.is_connected() {
                return Ok(g);
            }
        }
        Err(GraphError::ConnectivityNotReached { attempts })
    }
}

/// Uniform random spanning tree (via a random Prüfer sequence) plus
/// `m − (n − 1)` extra distinct uniform edges.
fn sample_tree_augmented<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    debug_assert!(n >= 1 && m >= n - 1);
    let mut set = std::collections::HashSet::with_capacity(m);
    if n == 2 {
        set.insert((0usize, 1usize));
    } else if n > 2 {
        // Decode a uniformly random Prüfer sequence of length n-2.
        let prufer: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
        let mut degree = vec![1usize; n];
        for &p in &prufer {
            degree[p] += 1;
        }
        // Min-heap of current leaves.
        let mut leaves: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
            .filter(|&i| degree[i] == 1)
            .map(std::cmp::Reverse)
            .collect();
        for &p in &prufer {
            let std::cmp::Reverse(leaf) = leaves.pop().expect("tree decode invariant");
            set.insert(if leaf < p { (leaf, p) } else { (p, leaf) });
            degree[p] -= 1;
            if degree[p] == 1 {
                leaves.push(std::cmp::Reverse(p));
            }
        }
        let std::cmp::Reverse(u) = leaves.pop().expect("two leaves remain");
        let std::cmp::Reverse(v) = leaves.pop().expect("two leaves remain");
        set.insert(if u < v { (u, v) } else { (v, u) });
    }
    while set.len() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            set.insert(if u < v { (u, v) } else { (v, u) });
        }
    }
    let edges: Vec<_> = set.into_iter().collect();
    Graph::from_edges(n, &edges).expect("sampled edges are valid")
}

/// Samples G(n, M) by partial Fisher–Yates over the edge index space.
fn sample_gnm<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    let max_edges = n * (n - 1) / 2;
    // For dense requests shuffle the full list; for sparse ones rejection
    // sample, which is faster and allocation-light.
    let edges: Vec<(usize, usize)> = if m * 3 >= max_edges {
        let mut all: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        all.shuffle(rng);
        all.truncate(m);
        all
    } else {
        let mut set = std::collections::HashSet::with_capacity(m);
        while set.len() < m {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                set.insert(if u < v { (u, v) } else { (v, u) });
            }
        }
        set.into_iter().collect()
    };
    Graph::from_edges(n, &edges).expect("sampled edges are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ring_shapes() {
        let g = Graph::ring(6);
        assert_eq!(g.num_edges(), 6);
        assert!(g.is_connected());
        assert!((0..6).all(|i| g.degree(i) == 2));
        assert_eq!(g.diameter(), Some(3));

        assert_eq!(Graph::ring(2).num_edges(), 1);
        assert_eq!(Graph::ring(1).num_edges(), 0);
        assert!(Graph::ring(0).is_empty());
    }

    #[test]
    fn star_matches_fig_4_1_left() {
        let g = Graph::star(10);
        assert_eq!(g.degree(0), 9);
        assert!((1..10).all(|i| g.degree(i) == 1));
        assert_eq!(g.diameter(), Some(2));
    }

    #[test]
    fn complete_and_path() {
        let k5 = Graph::complete(5);
        assert_eq!(k5.num_edges(), 10);
        assert_eq!(k5.diameter(), Some(1));
        let p4 = Graph::path(4);
        assert_eq!(p4.num_edges(), 3);
        assert_eq!(p4.diameter(), Some(3));
    }

    #[test]
    fn chords_shrink_diameter() {
        let ring = Graph::ring(40);
        let chorded = Graph::ring_with_chords(40, 8);
        assert!(chorded.num_edges() > ring.num_edges());
        assert!(chorded.diameter().unwrap() < ring.diameter().unwrap());
        assert!(chorded.is_connected());
    }

    #[test]
    fn chorded_ring_survives_single_failure() {
        let chorded = Graph::ring_with_chords(30, 6);
        for node in [0usize, 7, 15] {
            let mut alive = vec![true; chorded.len()];
            alive[node] = false;
            assert!(
                chorded.is_connected_among(&alive),
                "failure of node {node} partitioned"
            );
        }
    }

    #[test]
    fn grid_shape() {
        let g = Graph::grid(3, 4);
        assert_eq!(g.len(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4); // rows*(cols-1) + (rows-1)*cols
        assert!(g.is_connected());
        assert_eq!(g.degree(0), 2); // corner
    }

    #[test]
    fn erdos_renyi_respects_edge_count_and_connectivity() {
        let mut rng = StdRng::seed_from_u64(17);
        for &m in &[99usize, 150, 400, 2000] {
            let g = Graph::erdos_renyi_connected(100, m, &mut rng, 500).unwrap();
            assert_eq!(g.num_edges(), m);
            assert!(g.is_connected());
            assert!((g.average_degree() - 2.0 * m as f64 / 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn erdos_renyi_rejects_impossible_requests() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            Graph::erdos_renyi_connected(10, 5, &mut rng, 10),
            Err(GraphError::TooFewEdges { .. })
        ));
        assert!(matches!(
            Graph::erdos_renyi_connected(5, 100, &mut rng, 10),
            Err(GraphError::TooFewEdges { .. })
        ));
    }

    #[test]
    fn erdos_renyi_samples_differ() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Graph::erdos_renyi_connected(50, 100, &mut rng, 100).unwrap();
        let b = Graph::erdos_renyi_connected(50, 100, &mut rng, 100).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn torus_is_4_regular_connected_and_beats_the_ring_diameter() {
        let g = Graph::torus(6, 8).unwrap();
        assert_eq!(g.len(), 48);
        assert_eq!(g.num_edges(), 2 * 48);
        assert!((0..48).all(|v| g.degree(v) == 4));
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(3 + 4));
        assert!(g.diameter().unwrap() < Graph::ring(48).diameter().unwrap());
    }

    #[test]
    fn degenerate_torus_dimensions_collapse_cleanly() {
        // A 1×n torus is exactly the ring.
        assert_eq!(Graph::torus(1, 5).unwrap(), Graph::ring(5));
        // A 2×n torus: wrap edges between the two rows collapse onto the
        // grid edges, leaving degree 3 per node.
        let g = Graph::torus(2, 4).unwrap();
        assert!((0..8).all(|v| g.degree(v) == 3));
        assert!(g.is_connected());
        assert!(Graph::torus(0, 0).unwrap().is_empty());
    }

    #[test]
    fn hypercube_shape() {
        let g = Graph::hypercube(4);
        assert_eq!(g.len(), 16);
        assert_eq!(g.num_edges(), 16 * 4 / 2);
        assert!((0..16).all(|v| g.degree(v) == 4));
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(4));
        assert_eq!(Graph::hypercube(0).len(), 1);
        assert_eq!(Graph::hypercube(1).num_edges(), 1);
    }

    #[test]
    fn random_regular_is_regular_connected_and_seed_stable() {
        for &(n, d) in &[(20usize, 3usize), (50, 4), (101, 6)] {
            let mut rng = StdRng::seed_from_u64(11);
            let g = Graph::random_regular(n, d, &mut rng, 200).unwrap();
            assert_eq!(g.len(), n);
            assert_eq!(g.num_edges(), n * d / 2);
            assert!((0..n).all(|v| g.degree(v) == d), "not {d}-regular");
            assert!(g.is_connected());
            // Same seed, same sample: topology_hash (and thus the handshake
            // identity every node validates) is reproducible.
            let mut rng2 = StdRng::seed_from_u64(11);
            let g2 = Graph::random_regular(n, d, &mut rng2, 200).unwrap();
            assert_eq!(g.topology_hash(), g2.topology_hash());
            assert_eq!(g, g2);
        }
    }

    #[test]
    fn random_regular_rejects_impossible_requests() {
        let mut rng = StdRng::seed_from_u64(3);
        // n·d odd.
        assert!(matches!(
            Graph::random_regular(5, 3, &mut rng, 10),
            Err(GraphError::BadRegularity { n: 5, d: 3 })
        ));
        // d ≥ n.
        assert!(matches!(
            Graph::random_regular(4, 4, &mut rng, 10),
            Err(GraphError::BadRegularity { n: 4, d: 4 })
        ));
        // Degree 0 is the empty graph, not an error.
        assert_eq!(
            Graph::random_regular(3, 0, &mut rng, 10)
                .unwrap()
                .num_edges(),
            0
        );
    }

    #[test]
    fn new_builders_hash_distinctly() {
        // The handshake's topology_hash must tell these apart even at equal
        // node counts.
        let torus = Graph::torus(4, 4).unwrap();
        let cube = Graph::hypercube(4);
        let ring = Graph::ring(16);
        assert_ne!(torus.topology_hash(), cube.topology_hash());
        assert_ne!(torus.topology_hash(), ring.topology_hash());
        assert_ne!(cube.topology_hash(), ring.topology_hash());
    }
}
