//! Ablation variants of Table 2:
//!
//! * **P-R** — the clustering algorithm is replaced with *random block
//!   partitioning* (same number of blocks, random contiguous boundaries);
//! * **P-N** — *no clustering*: one frequency decision for the entire DNN.
//!
//! Both keep the rest of the pipeline (per-block frequency assignment)
//! identical, isolating the contribution of power-behaviour similarity
//! clustering.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use powerlens_cluster::{PowerBlock, PowerView};
use powerlens_dnn::Graph;
use powerlens_platform::{InstrumentationPlan, InstrumentationPoint};

use crate::PowerLens;

/// Builds a power view with `num_blocks` *random* contiguous blocks (P-R).
///
/// # Panics
///
/// Panics if `num_blocks` is zero or exceeds the layer count.
pub fn random_partition(graph: &Graph, num_blocks: usize, seed: u64) -> PowerView {
    let n = graph.num_layers();
    assert!(num_blocks >= 1 && num_blocks <= n, "invalid block count");
    let mut rng = StdRng::seed_from_u64(seed);
    // Choose num_blocks - 1 distinct interior boundaries.
    let mut cut_points: Vec<usize> = (1..n).collect();
    cut_points.shuffle(&mut rng);
    let mut cuts: Vec<usize> = cut_points.into_iter().take(num_blocks - 1).collect();
    cuts.sort_unstable();
    let mut blocks = Vec::with_capacity(num_blocks);
    let mut start = 0;
    for c in cuts {
        blocks.push(PowerBlock { start, end: c });
        start = c;
    }
    blocks.push(PowerBlock { start, end: n });
    PowerView::new(blocks)
}

/// The single-block view used by P-N.
pub fn whole_network_view(graph: &Graph) -> PowerView {
    PowerView::new(vec![PowerBlock {
        start: 0,
        end: graph.num_layers(),
    }])
}

/// Builds an instrumentation plan from an arbitrary view using the same
/// per-block frequency assignment PowerLens itself uses: the trained
/// decision model when available, the oracle otherwise — so the comparison
/// isolates the *partitioning*.
pub fn plan_for_view(pl: &PowerLens<'_>, graph: &Graph, view: &PowerView) -> InstrumentationPlan {
    let points = view
        .blocks()
        .iter()
        .map(|b| {
            let gpu_level = pl
                .model_block_level(graph, b.start, b.end)
                .unwrap_or_else(|_| pl.oracle_block_level(graph, b.start, b.end));
            InstrumentationPoint {
                layer: b.start,
                gpu_level,
            }
        })
        .collect();
    InstrumentationPlan::new(points, pl.platform().cpu_table().max_level())
}

/// P-R: random partitioning with the same block count as `reference_blocks`.
pub fn plan_random(
    pl: &PowerLens<'_>,
    graph: &Graph,
    reference_blocks: usize,
    seed: u64,
) -> InstrumentationPlan {
    let blocks = reference_blocks.clamp(1, graph.num_layers());
    let view = random_partition(graph, blocks, seed);
    plan_for_view(pl, graph, &view)
}

/// P-N: a single frequency decision for the whole network.
pub fn plan_no_clustering(pl: &PowerLens<'_>, graph: &Graph) -> InstrumentationPlan {
    let view = whole_network_view(graph);
    plan_for_view(pl, graph, &view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_plan, PowerLensConfig};
    use powerlens_dnn::zoo;
    use powerlens_platform::Platform;

    #[test]
    fn random_partition_tiles_graph() {
        let g = zoo::resnet34();
        let v = random_partition(&g, 5, 42);
        assert_eq!(v.num_blocks(), 5);
        assert_eq!(v.num_layers(), g.num_layers());
    }

    #[test]
    fn random_partition_seed_determinism() {
        let g = zoo::resnet34();
        assert_eq!(random_partition(&g, 4, 1), random_partition(&g, 4, 1));
        assert_ne!(random_partition(&g, 4, 1), random_partition(&g, 4, 2));
    }

    #[test]
    fn pn_plan_has_one_block() {
        let p = Platform::agx();
        let pl = PowerLens::untrained(&p, PowerLensConfig::default());
        let g = zoo::vgg19();
        let plan = plan_no_clustering(&pl, &g);
        assert_eq!(plan.num_blocks(), 1);
    }

    #[test]
    fn ablations_do_not_beat_full_pipeline() {
        // The Table 2 shape: with the oracle assigner, P-R and P-N can at
        // best *match* the full pipeline (homogeneous models collapse to a
        // single optimal level); on models with a distinct memory-bound
        // tail they must lose. Average several P-R seeds (a single random
        // partition can get lucky).
        let p = Platform::agx();
        let pl = PowerLens::untrained(&p, PowerLensConfig::default());
        for (graph, heterogeneous) in [(zoo::resnet152(), false), (zoo::alexnet(), true)] {
            let g = &graph;
            let full = pl.plan_oracle(g).unwrap();
            let ee_full = evaluate_plan(&p, g, &full.plan, 8, 48).energy_efficiency;

            let blocks = full.plan.num_blocks().max(2);
            let ee_pr: f64 = (0..6)
                .map(|s| {
                    let plan = plan_random(&pl, g, blocks, s);
                    evaluate_plan(&p, g, &plan, 8, 48).energy_efficiency
                })
                .sum::<f64>()
                / 6.0;
            let pn = plan_no_clustering(&pl, g);
            let ee_pn = evaluate_plan(&p, g, &pn, 8, 48).energy_efficiency;

            assert!(
                ee_pn <= ee_full * 1.0001,
                "{}: P-N {ee_pn} must not beat full {ee_full}",
                g.name()
            );
            assert!(
                ee_pr <= ee_full * 1.0001,
                "{}: P-R {ee_pr} must not beat full {ee_full}",
                g.name()
            );
            if heterogeneous {
                assert!(
                    ee_pr < ee_full * 0.9999,
                    "{}: P-R {ee_pr} should strictly lose on a model with a memory tail ({ee_full})",
                    g.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid block count")]
    fn random_partition_rejects_zero_blocks() {
        random_partition(&zoo::alexnet(), 0, 0);
    }
}
