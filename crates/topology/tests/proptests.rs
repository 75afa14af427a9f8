//! Property tests for graph builders and operations.

use dpc_topology::Graph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_is_2_regular_and_connected(n in 3usize..200) {
        let g = Graph::ring(n);
        prop_assert!(g.is_connected());
        prop_assert_eq!(g.num_edges(), n);
        for i in 0..n {
            prop_assert_eq!(g.degree(i), 2);
        }
        prop_assert_eq!(g.diameter(), Some(n / 2));
    }

    #[test]
    fn star_has_hub_and_leaves(n in 2usize..150) {
        let g = Graph::star(n);
        prop_assert_eq!(g.degree(0), n - 1);
        prop_assert_eq!(g.num_edges(), n - 1);
        prop_assert!(g.is_connected());
    }

    #[test]
    fn chorded_ring_stays_connected_after_any_single_failure(
        n in 5usize..80,
        chords in 2usize..12,
        victim_sel in 0.0f64..1.0,
    ) {
        let g = Graph::ring_with_chords(n, chords);
        prop_assert!(g.is_connected());
        let victim = ((n as f64 * victim_sel) as usize).min(n - 1);
        let mut alive = vec![true; n];
        alive[victim] = false;
        prop_assert!(g.is_connected_among(&alive), "failure of {victim} partitioned n={n}");
    }

    #[test]
    fn edges_roundtrip_through_rebuild(n in 2usize..60, m_extra in 0usize..60, seed in 0u64..500) {
        let m = (n - 1 + m_extra).min(n * (n - 1) / 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Graph::erdos_renyi_connected(n, m, &mut rng, 100).unwrap();
        let rebuilt = Graph::from_edges(n, &g.edges()).unwrap();
        prop_assert_eq!(&g, &rebuilt);
        // Handshake lemma.
        let degree_sum: usize = (0..n).map(|i| g.degree(i)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    #[test]
    fn bfs_distances_satisfy_triangle_step(n in 3usize..60, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = (2 * n).min(n * (n - 1) / 2);
        let g = Graph::erdos_renyi_connected(n, m, &mut rng, 100).unwrap();
        let dist = g.bfs_distances(0);
        for u in 0..n {
            for &v in g.neighbors(u) {
                // Adjacent nodes differ by at most one hop from any source.
                prop_assert!(dist[u].abs_diff(dist[v]) <= 1);
            }
        }
    }

    #[test]
    fn grid_dimensions(r in 1usize..12, c in 1usize..12) {
        let g = Graph::grid(r, c);
        prop_assert_eq!(g.len(), r * c);
        prop_assert_eq!(g.num_edges(), r * (c - 1) + (r - 1) * c);
        prop_assert!(g.is_connected());
    }
}
