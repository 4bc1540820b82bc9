//! Plan pack: DVFS-schedule rules over
//! [`powerlens_platform::InstrumentationPlan`].

use powerlens_cluster::PowerView;
use powerlens_dnn::Graph;
use powerlens_platform::{FreqLevel, InstrumentationPlan, Platform};

use crate::diag::{LintReport, Location};
use crate::rules;

/// `PL209` fires when a block's level differs from the oracle's by more
/// than this many frequency steps.
pub const ORACLE_TOLERANCE: usize = 2;

/// Everything a plan is validated against: the target platform (mandatory —
/// frequency levels are meaningless without a table), and optionally the
/// power view and graph the plan was derived from, plus an oracle callback
/// `(block_start, block_end) -> best level` for the `PL209` cross-check.
pub struct PlanContext<'a> {
    /// The plan under analysis.
    pub plan: &'a InstrumentationPlan,
    /// The board whose frequency tables the plan must respect.
    pub platform: &'a Platform,
    /// The power view the plan instruments, if available.
    pub view: Option<&'a PowerView>,
    /// The source graph, if available.
    pub graph: Option<&'a Graph>,
    /// Exhaustive-search reference: best level for a layer range.
    #[allow(clippy::type_complexity)]
    pub oracle: Option<&'a dyn Fn(usize, usize) -> FreqLevel>,
}

/// Runs every plan rule, appending findings to `report`.
pub fn check(ctx: &PlanContext<'_>, report: &mut LintReport) {
    let points = ctx.plan.points();
    if points.is_empty() {
        report.push(
            &rules::PLAN_EMPTY,
            Location::Model,
            "plan contains no instrumentation points".to_string(),
        );
        return; // the remaining rules assume at least one point
    }

    let gpu_levels = ctx.platform.gpu_levels();
    let cpu_levels = ctx.platform.cpu_levels();

    if ctx.plan.cpu_level() >= cpu_levels {
        report.push(
            &rules::PLAN_CPU_LEVEL_INVALID,
            Location::Model,
            format!(
                "cpu level {} does not exist on {} ({} levels)",
                ctx.plan.cpu_level(),
                ctx.platform.name(),
                cpu_levels
            ),
        );
    }

    for (i, p) in points.iter().enumerate() {
        let loc = Location::PlanStep(i);
        if p.gpu_level >= gpu_levels {
            report.push(
                &rules::PLAN_GPU_LEVEL_INVALID,
                loc,
                format!(
                    "gpu level {} does not exist on {} ({} levels)",
                    p.gpu_level,
                    ctx.platform.name(),
                    gpu_levels
                ),
            );
        }
        if i > 0 {
            let prev = &points[i - 1];
            if p.layer <= prev.layer {
                report.push(
                    &rules::PLAN_NOT_ASCENDING,
                    loc,
                    format!(
                        "point at layer {} does not follow the previous point at layer {}",
                        p.layer, prev.layer
                    ),
                );
            }
            if p.gpu_level == prev.gpu_level {
                report.push(
                    &rules::PLAN_NOOP_TRANSITION,
                    loc,
                    format!(
                        "transition at layer {} re-requests the active gpu level {}",
                        p.layer, p.gpu_level
                    ),
                );
            }
        }
        if let Some(g) = ctx.graph {
            if p.layer >= g.num_layers() {
                report.push(
                    &rules::PLAN_POINT_BEYOND_GRAPH,
                    loc,
                    format!(
                        "point references layer {} but graph `{}` has {} layers",
                        p.layer,
                        g.name(),
                        g.num_layers()
                    ),
                );
            }
        }
    }

    if points[0].layer != 0 {
        report.push(
            &rules::PLAN_UNCONTROLLED_PREFIX,
            Location::PlanStep(0),
            format!(
                "first point is at layer {}; layers 0..{} run at an inherited frequency",
                points[0].layer, points[0].layer
            ),
        );
    }

    if let Some(view) = ctx.view {
        check_view_alignment(ctx, view, report);
    }
}

/// `PL206`/`PL209`: one point per block, preset at the block's first layer,
/// and (with an oracle) within tolerance of the exhaustive search.
fn check_view_alignment(ctx: &PlanContext<'_>, view: &PowerView, report: &mut LintReport) {
    let points = ctx.plan.points();
    if points.len() != view.num_blocks() {
        report.push(
            &rules::PLAN_VIEW_MISALIGNED,
            Location::Model,
            format!(
                "plan has {} points but the view has {} blocks",
                points.len(),
                view.num_blocks()
            ),
        );
        return; // pointwise comparison is meaningless
    }
    for (i, (p, b)) in points.iter().zip(view.blocks()).enumerate() {
        if p.layer != b.start {
            report.push(
                &rules::PLAN_VIEW_MISALIGNED,
                Location::PlanStep(i),
                format!(
                    "point at layer {} does not precede its block ({}..{})",
                    p.layer, b.start, b.end
                ),
            );
            continue;
        }
        if let Some(oracle) = ctx.oracle {
            let best = oracle(b.start, b.end);
            let diff = p.gpu_level.abs_diff(best);
            if diff > ORACLE_TOLERANCE {
                report.push(
                    &rules::PLAN_ORACLE_DIVERGENCE,
                    Location::PlanStep(i),
                    format!(
                        "block {}..{} planned at level {} but the oracle picks {} \
                         ({} levels apart, tolerance {ORACLE_TOLERANCE})",
                        b.start, b.end, p.gpu_level, best, diff
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlens_cluster::{PowerBlock, PowerView};
    use powerlens_platform::InstrumentationPoint;

    fn point(layer: usize, gpu_level: usize) -> InstrumentationPoint {
        InstrumentationPoint { layer, gpu_level }
    }

    fn lint(ctx: &PlanContext<'_>) -> LintReport {
        let mut r = LintReport::new("t");
        check(ctx, &mut r);
        r
    }

    fn ctx<'a>(plan: &'a InstrumentationPlan, platform: &'a Platform) -> PlanContext<'a> {
        PlanContext {
            plan,
            platform,
            view: None,
            graph: None,
            oracle: None,
        }
    }

    #[test]
    fn valid_plan_is_error_free() {
        let agx = Platform::agx();
        let plan = InstrumentationPlan::new(vec![point(0, 13), point(5, 4)], 0);
        assert!(!lint(&ctx(&plan, &agx)).has_errors());
    }

    #[test]
    fn empty_plan_fires_pl201() {
        let agx = Platform::agx();
        let plan = InstrumentationPlan::from_points_unchecked(vec![], 0);
        let r = lint(&ctx(&plan, &agx));
        assert!(r.fired("PL201"));
        assert_eq!(r.diagnostics.len(), 1);
    }

    #[test]
    fn unsorted_points_fire_pl202() {
        let agx = Platform::agx();
        let plan = InstrumentationPlan::from_points_unchecked(vec![point(5, 3), point(0, 4)], 0);
        assert!(lint(&ctx(&plan, &agx)).fired("PL202"));
    }

    #[test]
    fn gpu_level_beyond_table_fires_pl203() {
        // AGX has 14 levels (0..=13), TX2 only 13: level 13 is valid on one
        // board and invalid on the other.
        let plan = InstrumentationPlan::new(vec![point(0, 13)], 0);
        let agx = Platform::agx();
        let tx2 = Platform::tx2();
        assert!(!lint(&ctx(&plan, &agx)).fired("PL203"));
        assert!(lint(&ctx(&plan, &tx2)).fired("PL203"));
    }

    #[test]
    fn cpu_level_beyond_table_fires_pl204() {
        let agx = Platform::agx();
        let plan = InstrumentationPlan::new(vec![point(0, 3)], 999);
        assert!(lint(&ctx(&plan, &agx)).fired("PL204"));
    }

    #[test]
    fn point_beyond_graph_fires_pl205() {
        let agx = Platform::agx();
        let g = powerlens_dnn::zoo::alexnet();
        let plan = InstrumentationPlan::new(vec![point(0, 3), point(g.num_layers() + 5, 2)], 0);
        let mut c = ctx(&plan, &agx);
        c.graph = Some(&g);
        assert!(lint(&c).fired("PL205"));
    }

    #[test]
    fn view_misalignment_fires_pl206() {
        let agx = Platform::agx();
        let view = PowerView::new(vec![
            PowerBlock { start: 0, end: 4 },
            PowerBlock { start: 4, end: 9 },
        ]);
        // Wrong point position.
        let off = InstrumentationPlan::new(vec![point(0, 3), point(5, 2)], 0);
        let mut c = ctx(&off, &agx);
        c.view = Some(&view);
        assert!(lint(&c).fired("PL206"));
        // Wrong point count.
        let missing = InstrumentationPlan::new(vec![point(0, 3)], 0);
        let mut c2 = ctx(&missing, &agx);
        c2.view = Some(&view);
        assert!(lint(&c2).fired("PL206"));
        // Aligned.
        let good = InstrumentationPlan::new(vec![point(0, 3), point(4, 2)], 0);
        let mut c3 = ctx(&good, &agx);
        c3.view = Some(&view);
        assert!(!lint(&c3).fired("PL206"));
    }

    #[test]
    fn noop_transition_fires_pl207_warning() {
        let agx = Platform::agx();
        let plan = InstrumentationPlan::new(vec![point(0, 5), point(4, 5)], 0);
        let r = lint(&ctx(&plan, &agx));
        assert!(r.fired("PL207"));
        assert_eq!(r.num_errors(), 0);
    }

    #[test]
    fn late_first_point_fires_pl208_warning() {
        let agx = Platform::agx();
        let plan = InstrumentationPlan::new(vec![point(3, 5)], 0);
        let r = lint(&ctx(&plan, &agx));
        assert!(r.fired("PL208"));
        assert_eq!(r.num_errors(), 0);
        let from_zero = InstrumentationPlan::new(vec![point(0, 5)], 0);
        assert!(!lint(&ctx(&from_zero, &agx)).fired("PL208"));
    }

    #[test]
    fn oracle_divergence_fires_pl209_info() {
        let agx = Platform::agx();
        let view = PowerView::new(vec![PowerBlock { start: 0, end: 6 }]);
        let plan = InstrumentationPlan::new(vec![point(0, 13)], 0);
        let oracle = |_: usize, _: usize| 2usize;
        let mut c = ctx(&plan, &agx);
        c.view = Some(&view);
        c.oracle = Some(&oracle);
        let r = lint(&c);
        assert!(r.fired("PL209"));
        assert_eq!(r.num_errors(), 0);
        assert_eq!(r.num_warnings(), 0);
        // Within tolerance: quiet.
        let close = |_: usize, _: usize| 12usize;
        c.oracle = Some(&close);
        assert!(!lint(&c).fired("PL209"));
        // The tolerance is two steps: two apart is quiet, three fires.
        let two_apart = |_: usize, _: usize| 11usize;
        c.oracle = Some(&two_apart);
        assert!(!lint(&c).fired("PL209"));
        let three_apart = |_: usize, _: usize| 10usize;
        c.oracle = Some(&three_apart);
        assert!(lint(&c).fired("PL209"));
    }
}
