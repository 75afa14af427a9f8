//! Spectral properties of communication graphs.
//!
//! DiBA's slack diffusion is a consensus iteration; its mixing time is
//! governed by the spectral gap of the graph's consensus matrix
//! `W = I − (1/(d_max + 1))·L` (with `L` the graph Laplacian). This module
//! estimates the gap by power iteration, giving an a-priori predictor of
//! convergence rounds that the `ext_spectral` experiment checks against
//! measured DiBA behaviour — and an operator a way to size chord counts
//! *before* deployment.
//!
//! The estimate is one-sided: for a unit mean-free `v`, `‖Wv‖` never
//! exceeds the SLEM, so until the iteration has converged
//! ([`SpectralInfo::converged`]) the gap is only an **upper** bound —
//! ≈ `1/(2·iterations)` on any slow-mixing graph, whatever the graph.

use crate::graph::Graph;

/// Spectral summary of a graph's consensus dynamics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralInfo {
    /// Second-largest eigenvalue modulus of the consensus matrix, in
    /// `[0, 1]`; smaller is faster mixing.
    pub slem: f64,
    /// Spectral gap `1 − slem`.
    pub gap: f64,
    /// Mixing-time estimate `1 / gap` (iterations to shrink disagreement by
    /// `e`); `f64::INFINITY` for a disconnected graph.
    pub mixing_time: f64,
    /// Whether the power iteration settled: the last two SLEM estimates
    /// differ by at most `CONVERGENCE_TOL` × `gap`. When `false`, `gap`
    /// is only an upper bound and `mixing_time` a lower bound.
    pub converged: bool,
}

/// Relative tolerance of [`SpectralInfo::converged`]: successive SLEM
/// estimates must agree to within this fraction of the gap. An iterate
/// still creeping at the `1/(2k)` rate moves by `gap/k` a step and fails.
pub(crate) const CONVERGENCE_TOL: f64 = 1e-6;

/// Estimates the consensus spectral gap by power iteration on the
/// mean-removed consensus matrix.
///
/// `iterations` controls the estimate's accuracy: a graph needs on the
/// order of its own mixing time in iterations, so 200 settles a 24-node
/// ring or a small expander, not a 1 024-node ring (true gap 1.3e-5,
/// reported 2.5e-3) — check [`SpectralInfo::converged`]. Returns
/// `slem = 1` (zero gap) for disconnected graphs and the degenerate
/// `n ≤ 1` cases mix instantly.
pub fn consensus_spectrum(graph: &Graph, iterations: usize) -> SpectralInfo {
    let n = graph.len();
    if n <= 1 {
        return SpectralInfo {
            slem: 0.0,
            gap: 1.0,
            mixing_time: 0.0,
            converged: true,
        };
    }
    if !graph.is_connected() {
        return SpectralInfo {
            slem: 1.0,
            gap: 0.0,
            mixing_time: f64::INFINITY,
            converged: true,
        };
    }
    let alpha = 1.0 / (graph.max_degree() as f64 + 1.0);

    // Deterministic pseudo-random start vector, mean-removed.
    let mut v: Vec<f64> = (0..n)
        .map(|i| {
            let h = i.wrapping_mul(2654435761) % 1000;
            h as f64 / 1000.0 - 0.5
        })
        .collect();
    remove_mean(&mut v);
    normalize(&mut v);

    let mut lambda = 0.0;
    let mut previous = 0.0;
    let mut w = vec![0.0; n];
    for _ in 0..iterations.max(1) {
        // w = W·v with W = I − α·L  ⇒  w_i = v_i + α·Σ_j (v_j − v_i).
        for i in 0..n {
            let mut acc = v[i];
            for &j in graph.neighbors(i) {
                acc += alpha * (v[j] - v[i]);
            }
            w[i] = acc;
        }
        remove_mean(&mut w);
        previous = lambda;
        lambda = norm(&w);
        if lambda < 1e-300 {
            // Disagreement annihilated (e.g. complete graph at exact α).
            return SpectralInfo {
                slem: 0.0,
                gap: 1.0,
                mixing_time: 0.0,
                converged: true,
            };
        }
        for (vi, wi) in v.iter_mut().zip(&w) {
            *vi = wi / lambda;
        }
    }
    let slem = lambda.clamp(0.0, 1.0);
    let gap = (1.0 - slem).max(0.0);
    let mixing_time = if gap > 0.0 { 1.0 / gap } else { f64::INFINITY };
    SpectralInfo {
        slem,
        gap,
        mixing_time,
        converged: (lambda - previous).abs() <= CONVERGENCE_TOL * gap,
    }
}

fn remove_mean(v: &mut [f64]) {
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    for x in v.iter_mut() {
        *x -= mean;
    }
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn normalize(v: &mut [f64]) {
    let n = norm(v);
    if n > 1e-300 {
        for x in v.iter_mut() {
            *x /= n;
        }
    } else {
        v[0] = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Closed-form gap of the `n`-ring's consensus matrix at α = 1/3.
    fn ring_gap(n: usize) -> f64 {
        (2.0 / 3.0) * (1.0 - (2.0 * std::f64::consts::PI / n as f64).cos())
    }

    #[test]
    fn complete_graph_mixes_almost_instantly() {
        let g = Graph::complete(20);
        let s = consensus_spectrum(&g, 300);
        assert!(s.gap > 0.9, "gap {}", s.gap);
        assert!(s.mixing_time < 2.0);
    }

    #[test]
    fn ring_gap_matches_the_closed_form() {
        // Ring consensus with α = 1/3: slem = 1 − (2/3)(1 − cos(2π/n)).
        let n = 24;
        let g = Graph::ring(n);
        let s = consensus_spectrum(&g, 3_000);
        let expected = 1.0 - ring_gap(n);
        assert!(s.converged);
        assert!(
            (s.slem - expected).abs() < 1e-3,
            "slem {} vs {expected}",
            s.slem
        );
    }

    #[test]
    fn an_unconverged_iterate_is_flagged_and_bounds_the_gap_from_above() {
        // 200 iterations on the 1 024-ring report ≈ 1/(2·200), two hundred
        // times the true gap; the flag is what tells the two apart.
        let s = consensus_spectrum(&Graph::ring(1_024), 200);
        assert!(!s.converged);
        assert!(s.gap > 100.0 * ring_gap(1_024), "{}", s.gap);
    }

    #[test]
    fn scale_out_families_out_mix_the_ring() {
        use rand::{rngs::StdRng, SeedableRng};
        let n = 64;
        let gap = |g: Graph| {
            let s = consensus_spectrum(&g, 5_000);
            assert!(s.converged, "{s:?}");
            s.gap
        };
        let ring = gap(Graph::ring(n));
        assert!((ring - ring_gap(n)).abs() < 1e-6, "{ring}");
        let regular = Graph::random_regular(n, 4, &mut StdRng::seed_from_u64(5), 200).unwrap();
        for (name, g) in [
            ("chords", Graph::ring_with_chords(n, n / 8)),
            ("torus", Graph::torus(8, 8).unwrap()),
            ("hypercube", Graph::hypercube(6)),
            ("random-regular", regular),
        ] {
            let g = gap(g);
            assert!(g > ring, "{name}: {g} vs ring {ring}");
        }
    }

    #[test]
    fn chords_widen_the_gap() {
        let ring = consensus_spectrum(&Graph::ring(60), 2_000);
        let chorded = consensus_spectrum(&Graph::ring_with_chords(60, 12), 2_000);
        assert!(
            chorded.gap > ring.gap,
            "chorded {} vs ring {}",
            chorded.gap,
            ring.gap
        );
        assert!(chorded.mixing_time < ring.mixing_time);
    }

    #[test]
    fn disconnected_graph_never_mixes() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let s = consensus_spectrum(&g, 100);
        assert_eq!(s.gap, 0.0);
        assert!(s.mixing_time.is_infinite());
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(consensus_spectrum(&Graph::ring(1), 10).mixing_time, 0.0);
        assert_eq!(consensus_spectrum(&Graph::ring(0), 10).gap, 1.0);
    }

    #[test]
    fn mixing_time_grows_quadratically_on_rings() {
        let t1 = consensus_spectrum(&Graph::ring(20), 4_000).mixing_time;
        let t2 = consensus_spectrum(&Graph::ring(40), 8_000).mixing_time;
        let ratio = t2 / t1;
        assert!(ratio > 3.0 && ratio < 5.0, "ratio {ratio}");
    }
}
