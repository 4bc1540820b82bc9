//! View pack: partition rules over [`powerlens_cluster::PowerView`] and
//! shape rules over [`powerlens_cluster::DistanceCache`].

use powerlens_cluster::{DistanceCache, PowerView};
use powerlens_dnn::Graph;
use powerlens_features::DEPTHWISE_DIM;

use crate::diag::{LintReport, Location};
use crate::rules;
use crate::LintConfig;

/// Blocks shorter than this many layers trigger `PL106` (warning): a
/// one-layer block pays a DVFS switch for a single kernel.
pub const MIN_BLOCK_LEN: usize = 2;

/// Runs every view rule, appending findings to `report`. Coverage against
/// the source graph (`PL104`) only runs when `graph` is provided.
pub fn check(
    view: &PowerView,
    graph: Option<&Graph>,
    config: &LintConfig,
    report: &mut LintReport,
) {
    if view.num_blocks() == 0 {
        report.push(
            &rules::VIEW_EMPTY,
            Location::Model,
            "power view contains no blocks".to_string(),
        );
        return; // the remaining rules assume at least one block
    }

    let mut expected_start = 0;
    let mut covered = 0usize;
    for (i, b) in view.blocks().iter().enumerate() {
        let loc = Location::Block(i);
        if b.is_empty() {
            report.push(
                &rules::BLOCK_EMPTY,
                loc,
                format!("block spans no layers ({}..{})", b.start, b.end),
            );
            // A degenerate block makes the tiling check meaningless from
            // here on; re-anchor on its start.
            expected_start = b.start;
            continue;
        }
        if b.start != expected_start {
            let kind = if b.start > expected_start {
                "gap"
            } else {
                "overlap"
            };
            report.push(
                &rules::VIEW_NOT_CONTIGUOUS,
                loc,
                format!(
                    "{kind}: block starts at layer {} but the previous block ended at {}",
                    b.start, expected_start
                ),
            );
        }
        if b.len() < MIN_BLOCK_LEN {
            report.push(
                &rules::BLOCK_TOO_SHORT,
                loc,
                format!(
                    "block spans {} layer(s), below the minimum of {MIN_BLOCK_LEN}",
                    b.len()
                ),
            );
        }
        covered += b.len();
        expected_start = b.end;
    }

    if view.num_layers() != covered {
        report.push(
            &rules::VIEW_COUNT_MISMATCH,
            Location::Model,
            format!(
                "view records {} layers but its blocks span {}",
                view.num_layers(),
                covered
            ),
        );
    }

    if view.num_blocks() > config.max_blocks {
        report.push(
            &rules::VIEW_MANY_BLOCKS,
            Location::Model,
            format!(
                "{} blocks exceed the configured maximum of {}",
                view.num_blocks(),
                config.max_blocks
            ),
        );
    }

    if let Some(g) = graph {
        let end = view.blocks().last().map_or(0, |b| b.end);
        if end != g.num_layers() {
            report.push(
                &rules::VIEW_COVERAGE,
                Location::Model,
                format!(
                    "view ends at layer {} but graph `{}` has {} layers",
                    end,
                    g.name(),
                    g.num_layers()
                ),
            );
        }
    }
}

/// Runs the distance-cache shape rule (`PL108`), appending findings to
/// `report`. The graph comparison only runs when `graph` is provided.
///
/// [`DistanceCache::build`] cannot produce a mismatched cache; this guards
/// caches assembled from outside sources (deserializers,
/// `from_parts_unchecked`) before they are re-thresholded into power views.
pub fn check_distance_cache(cache: &DistanceCache, graph: Option<&Graph>, report: &mut LintReport) {
    let d = cache.distance();
    if d.rows() != d.cols() {
        report.push(
            &rules::DISTANCE_CACHE_SHAPE,
            Location::Model,
            format!("distance matrix is {}x{}, not square", d.rows(), d.cols()),
        );
    }
    if d.rows() != cache.num_layers() {
        report.push(
            &rules::DISTANCE_CACHE_SHAPE,
            Location::Model,
            format!(
                "distance matrix has {} rows but the cache records {} layers",
                d.rows(),
                cache.num_layers()
            ),
        );
    }
    if cache.feature_dim() != DEPTHWISE_DIM {
        report.push(
            &rules::DISTANCE_CACHE_SHAPE,
            Location::Model,
            format!(
                "cache records feature dimension {} but the depthwise \
                 extractor produces {}",
                cache.feature_dim(),
                DEPTHWISE_DIM
            ),
        );
    }
    if let Some(g) = graph {
        if cache.num_layers() != g.num_layers() {
            report.push(
                &rules::DISTANCE_CACHE_SHAPE,
                Location::Model,
                format!(
                    "cache covers {} layers but graph `{}` has {}",
                    cache.num_layers(),
                    g.name(),
                    g.num_layers()
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlens_cluster::{cluster_graph, ClusterParams, PowerBlock, PowerView};
    use powerlens_dnn::zoo;

    fn lint(view: &PowerView, graph: Option<&Graph>) -> LintReport {
        let mut r = LintReport::new("t");
        check(view, graph, &LintConfig::default(), &mut r);
        r
    }

    fn blocks(spec: &[(usize, usize)]) -> Vec<PowerBlock> {
        spec.iter()
            .map(|&(start, end)| PowerBlock { start, end })
            .collect()
    }

    #[test]
    fn built_distance_caches_lint_clean() {
        for (name, build) in zoo::all_models() {
            let g = build();
            let cache = DistanceCache::build(&g, &ClusterParams::default()).unwrap();
            let mut r = LintReport::new(name);
            check_distance_cache(&cache, Some(&g), &mut r);
            assert!(!r.has_errors(), "{name}: {:?}", r.diagnostics);
        }
    }

    #[test]
    fn mismatched_cache_fires_pl108_per_defect() {
        let g = zoo::alexnet();
        let params = ClusterParams::default();
        let good = DistanceCache::build(&g, &params).unwrap();
        // Wrong layer count (vs both the matrix and the graph) and wrong
        // feature dimension: three distinct findings.
        let bad = DistanceCache::from_parts_unchecked(
            g.num_layers() + 1,
            DEPTHWISE_DIM + 3,
            &params,
            good.distance().clone(),
        );
        let mut r = LintReport::new("t");
        check_distance_cache(&bad, Some(&g), &mut r);
        assert!(r.fired("PL108"));
        assert_eq!(r.num_errors(), 3, "{:?}", r.diagnostics);
    }

    #[test]
    fn clustered_zoo_views_are_error_free() {
        for (name, build) in zoo::all_models() {
            let g = build();
            let v = cluster_graph(&g, &ClusterParams::default()).unwrap();
            let r = lint(&v, Some(&g));
            assert!(!r.has_errors(), "{name}: {:?}", r.diagnostics);
        }
    }

    #[test]
    fn empty_view_fires_pl101() {
        let v = PowerView::from_blocks_unchecked(vec![], 0);
        let r = lint(&v, None);
        assert!(r.fired("PL101"));
        assert_eq!(r.diagnostics.len(), 1);
    }

    #[test]
    fn empty_block_fires_pl102() {
        let v = PowerView::from_blocks_unchecked(blocks(&[(0, 3), (3, 3), (3, 6)]), 6);
        let r = lint(&v, None);
        assert!(r.fired("PL102"));
        assert!(!r.fired("PL103"), "re-anchoring avoids a cascade");
    }

    #[test]
    fn gap_and_overlap_fire_pl103() {
        let gap = PowerView::from_blocks_unchecked(blocks(&[(0, 3), (4, 8)]), 7);
        assert!(lint(&gap, None).fired("PL103"));
        let overlap = PowerView::from_blocks_unchecked(blocks(&[(0, 4), (3, 8)]), 9);
        assert!(lint(&overlap, None).fired("PL103"));
        let shifted = PowerView::from_blocks_unchecked(blocks(&[(1, 8)]), 7);
        assert!(lint(&shifted, None).fired("PL103"), "must start at layer 0");
        let good = PowerView::new(blocks(&[(0, 4), (4, 8)]));
        assert!(!lint(&good, None).fired("PL103"));
    }

    #[test]
    fn coverage_mismatch_fires_pl104() {
        let g = zoo::alexnet();
        let v = PowerView::new(blocks(&[(0, g.num_layers() - 1)]));
        assert!(lint(&v, Some(&g)).fired("PL104"));
        let full = PowerView::new(blocks(&[(0, g.num_layers())]));
        assert!(!lint(&full, Some(&g)).fired("PL104"));
    }

    #[test]
    fn count_mismatch_fires_pl105() {
        let v = PowerView::from_blocks_unchecked(blocks(&[(0, 4)]), 11);
        assert!(lint(&v, None).fired("PL105"));
        let ok = PowerView::new(blocks(&[(0, 4)]));
        assert!(!lint(&ok, None).fired("PL105"));
    }

    #[test]
    fn short_block_fires_pl106_warning() {
        let v = PowerView::new(blocks(&[(0, 1), (1, 5)]));
        let r = lint(&v, None);
        assert!(r.fired("PL106"));
        assert_eq!(r.num_errors(), 0);
        let two_layers = PowerView::new(blocks(&[(0, 2), (2, 5)]));
        assert!(!lint(&two_layers, None).fired("PL106"));
    }

    #[test]
    fn many_blocks_fire_pl107_info() {
        let spec: Vec<(usize, usize)> = (0..12).map(|i| (2 * i, 2 * i + 2)).collect();
        let v = PowerView::new(blocks(&spec));
        let r = lint(&v, None);
        assert!(r.fired("PL107"));
        assert_eq!(r.num_errors(), 0);
        assert_eq!(r.num_warnings(), 0);
        let few = PowerView::new(blocks(&[(0, 4), (4, 8)]));
        assert!(!lint(&few, None).fired("PL107"));
    }
}
