//! Property-based tests for Algorithm 1's components and invariants.

use powerlens_cluster::{
    cluster_graph, dbscan, power_distance_matrix, power_distance_matrix_reference,
    process_clusters, smooth_features, ClusterParams, DistanceCache,
};
use powerlens_dnn::random::{generate, RandomDnnConfig};
use powerlens_features::depthwise_features;
use powerlens_numeric::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_graph(seed: u64) -> powerlens_dnn::Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generate(&RandomDnnConfig::default(), &mut rng)
}

/// The top edge of the neighbour index's bucket grid: distances at or above
/// 255/170 share its last bucket.
const EDGE_MAX: f64 = 255.0 / 170.0;

/// Grid code `c` (0..771): bucket edge k/170 for k in 0..=256, exact or
/// one ulp either side.
fn grid_value(c: u32) -> f64 {
    let edge = f64::from(c / 3) / 170.0;
    match c % 3 {
        0 => edge,
        1 => edge.next_up(),
        _ => edge.next_down(),
    }
}

/// Special code `c` (0..12): non-finite, or on or next to `eps` and the
/// edges of the bucket `eps` falls in.
fn special_value(c: u32, eps: f64) -> f64 {
    let low = (eps * 170.0).floor() / 170.0;
    let high = ((eps * 170.0).floor() + 1.0) / 170.0;
    match c {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => eps,
        4 => eps.next_up(),
        5 => eps.next_down(),
        6 => low,
        7 => low.next_up(),
        8 => low.next_down(),
        9 => high,
        10 => high.next_up(),
        _ => high.next_down(),
    }
}

/// Strategy for arbitrary DBSCAN-like label vectors.
fn labels() -> impl Strategy<Value = Vec<Option<usize>>> {
    proptest::collection::vec(proptest::option::of(0usize..4), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Post-processing always produces a contiguous tiling of the input.
    #[test]
    fn process_clusters_tiles_any_labelling(l in labels(), min_len in 1usize..5) {
        let view = process_clusters(&l, min_len);
        prop_assert_eq!(view.num_layers(), l.len());
        let mut expected_start = 0;
        for b in view.blocks() {
            prop_assert_eq!(b.start, expected_start);
            prop_assert!(!b.is_empty());
            expected_start = b.end;
        }
        prop_assert_eq!(expected_start, l.len());
    }

    /// Only the first block may be shorter than `min_len` (when the whole
    /// input is shorter); later blocks respect the floor because short runs
    /// merge backwards.
    #[test]
    fn process_clusters_merges_short_runs(l in labels(), min_len in 2usize..5) {
        let view = process_clusters(&l, min_len);
        for b in view.blocks().iter().skip(1) {
            prop_assert!(!b.is_empty(), "degenerate block {b:?}");
        }
    }

    /// The full Algorithm 1 tiles every random network for any scheme.
    #[test]
    fn cluster_graph_tiles_random_networks(seed in 0u64..3000, scheme in 0usize..4) {
        let g = random_graph(seed);
        let eps = [0.05, 0.15, 0.25, 0.40][scheme];
        let params = ClusterParams { epsilon: eps, ..ClusterParams::default() };
        let view = cluster_graph(&g, &params).unwrap();
        prop_assert_eq!(view.num_layers(), g.num_layers());
        let covered: usize = view.blocks().iter().map(|b| b.len()).sum();
        prop_assert_eq!(covered, g.num_layers());
        // block_of agrees with the tiling.
        for (i, b) in view.blocks().iter().enumerate() {
            prop_assert_eq!(view.block_of(b.start), Some(b), "block {}", i);
            prop_assert_eq!(view.block_of(b.end - 1), Some(b), "block {}", i);
        }
    }

    /// The blended power distance is a symmetric, finite, zero-diagonal
    /// matrix bounded by alpha + (1 - alpha) for any random network.
    #[test]
    fn distance_matrix_properties(seed in 0u64..3000, alpha in 0.0f64..1.0, lambda in 0.01f64..0.5) {
        let g = random_graph(seed);
        let x = depthwise_features(&g);
        let d = power_distance_matrix(&x, alpha, lambda).unwrap();
        prop_assert!(d.all_finite());
        prop_assert!(d.is_symmetric(1e-9));
        let n = d.rows();
        for i in 0..n {
            prop_assert_eq!(d[(i, i)], 0.0);
            for j in 0..n {
                prop_assert!(d[(i, j)] >= 0.0);
                prop_assert!(d[(i, j)] <= alpha + (1.0 - alpha) + 1e-9);
            }
        }
    }

    /// The whitened fast path agrees with the seed's per-pair Mahalanobis
    /// implementation element-wise on real graph features.
    #[test]
    fn whitened_distance_matches_reference(seed in 0u64..3000, alpha in 0.0f64..1.0) {
        let g = random_graph(seed);
        let x = depthwise_features(&g);
        let fast = power_distance_matrix(&x, alpha, 0.08).unwrap();
        let slow = power_distance_matrix_reference(&x, alpha, 0.08).unwrap();
        prop_assert_eq!(fast.rows(), slow.rows());
        for i in 0..fast.rows() {
            for j in 0..fast.cols() {
                prop_assert!(
                    (fast[(i, j)] - slow[(i, j)]).abs() < 1e-9,
                    "({}, {}): {} vs {}", i, j, fast[(i, j)], slow[(i, j)]
                );
            }
        }
    }

    /// Prefix-sum smoothing agrees with a naive window rescan.
    #[test]
    fn smoothing_matches_naive_rescan(seed in 0u64..3000, radius in 0usize..9) {
        let g = random_graph(seed);
        let x = depthwise_features(&g);
        let fast = smooth_features(&x, radius);
        // Naive reference: re-sum the window for every row.
        let n = x.rows();
        for i in 0..n {
            let lo = i.saturating_sub(radius);
            let hi = (i + radius + 1).min(n);
            let span = (hi - lo) as f64;
            for j in 0..x.cols() {
                let want: f64 = (lo..hi).map(|k| x[(k, j)]).sum::<f64>() / span;
                prop_assert!(
                    (fast[(i, j)] - want).abs() < 1e-9 * want.abs().max(1.0),
                    "({}, {}): {} vs {}", i, j, fast[(i, j)], want
                );
            }
        }
    }

    /// Sweep incrementality: a [`DistanceCache`] built once and re-clustered
    /// across a full ε×minPts grid must return exactly the views a
    /// from-scratch `cluster_graph` call produces at every grid point —
    /// the contract that lets `plan_oracle` pay the distance matrix once.
    /// Each point is also checked against plain `dbscan` +
    /// `process_clusters` over the cached matrix, which pins the cache's
    /// sweep-tuned DBSCAN (indexed region queries, visit-once queue) to the
    /// allocating reference implementation. The grid is the production
    /// scheme space (`powerlens::default_schemes`: seven ε × minPts 3
    /// and 6) plus minPts 2 and 4.
    #[test]
    fn distance_cache_sweep_equals_from_scratch(seed in 0u64..3000) {
        let g = random_graph(seed);
        let shape = ClusterParams::default();
        let cache = DistanceCache::build(&g, &shape).unwrap();
        prop_assert_eq!(cache.num_layers(), g.num_layers());
        for eps in [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40] {
            for min_pts in [2usize, 3, 4, 6] {
                let params = ClusterParams { epsilon: eps, min_pts, ..shape };
                prop_assert!(cache.matches(&params));
                let incremental = cache.cluster(&params);
                let scratch = cluster_graph(&g, &params).unwrap();
                prop_assert_eq!(
                    incremental.clone(), scratch,
                    "grid point (eps {}, minPts {})", eps, min_pts
                );
                let reference = process_clusters(
                    &dbscan(cache.distance(), eps, min_pts),
                    min_pts.max(2),
                );
                prop_assert_eq!(
                    incremental, reference,
                    "indexed vs matrix-scan DBSCAN at (eps {}, minPts {})", eps, min_pts
                );
            }
        }
    }

    /// The neighbour index is exact where its buckets are tight: over
    /// arbitrary (asymmetric, non-zero-diagonal) matrices whose entries sit
    /// on bucket edges k/170 or one ulp either side, on or next to ε and
    /// its bucket's edges, or are NaN or ±∞, every re-threshold equals
    /// plain `dbscan` + `process_clusters`. Every case runs the ε values
    /// that fall outside the bucket grid (≤ 0, NaN, ±∞, ≥ 255/170) plus one
    /// ε on the grid.
    #[test]
    fn index_matches_dbscan_on_edge_values(
        (n, codes) in (1usize..20).prop_flat_map(|n| {
            (Just(n), proptest::collection::vec((0u32..2, 0u32..12, 0u32..771), n * n))
        }),
        grid_eps in 0u32..771,
    ) {
        let mut epsilons = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -0.25,
            EDGE_MAX,
            EDGE_MAX.next_up(),
            EDGE_MAX.next_down(),
            2.0,
        ];
        epsilons.push(grid_value(grid_eps));
        for eps in epsilons {
            let values = codes.iter().map(|&(special, s, g)| {
                if special == 0 { special_value(s, eps) } else { grid_value(g) }
            });
            let dist = Matrix::from_vec(n, n, values.collect()).unwrap();
            let shape = ClusterParams::default();
            let cache = DistanceCache::from_parts_unchecked(n, 14, &shape, dist.clone());
            for min_pts in [0usize, 1, 2, 3, 5] {
                let params = ClusterParams { epsilon: eps, min_pts, ..shape };
                let reference = process_clusters(&dbscan(&dist, eps, min_pts), min_pts.max(2));
                prop_assert_eq!(
                    cache.cluster(&params), reference,
                    "eps {} ({:#x}), minPts {}, matrix {:?}",
                    eps, eps.to_bits(), min_pts, dist.as_slice()
                );
            }
        }
    }

    /// DBSCAN labels are dense (0..k) and noise-only inputs yield no labels.
    #[test]
    fn dbscan_labels_are_dense(seed in 0u64..3000) {
        let g = random_graph(seed);
        let x = depthwise_features(&g);
        let d = power_distance_matrix(&x, 0.7, 0.08).unwrap();
        let labels = dbscan(&d, 0.15, 4);
        let max = labels.iter().flatten().copied().max();
        if let Some(max) = max {
            for c in 0..=max {
                prop_assert!(
                    labels.iter().flatten().any(|&l| l == c),
                    "cluster id {c} missing"
                );
            }
        }
    }
}
