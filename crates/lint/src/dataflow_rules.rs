//! `PL5xx`: cross-artifact rules over fixpoint dataflow facts.
//!
//! The pack runs [`crate::dataflow::analyze_bounded`] over the graph and
//! checks the resulting facts against whichever companion artifacts the
//! caller supplies: the plan (switch points on unreachable blocks, boot
//! budget), the platform (statically derivable energy intervals, per-block
//! activity envelopes), and the view (block membership for activity checks).

use powerlens_cluster::PowerView;
use powerlens_dnn::Graph;
use powerlens_platform::{InstrumentationPlan, LayerEnvelope, Platform};

use crate::dataflow::{self, DataflowFacts, DEFAULT_SWEEP_LIMIT};
use crate::diag::{LintReport, Location};
use crate::rules;

/// `PL506` fires when boot-frequency energy before the first
/// instrumentation point exceeds this fraction of the best-case total.
pub const BOOT_ENERGY_FRACTION: f64 = 0.10;

/// `PL507` fires when a block's busy-utilization envelopes are disjoint by
/// more than this gap.
pub const ACTIVITY_MARGIN: f64 = 0.25;

/// Everything the dataflow pack can cross-check. Only `graph` is required;
/// each optional artifact unlocks the rules that need it.
pub struct DataflowContext<'a> {
    /// The operator graph the facts are derived from.
    pub graph: &'a Graph,
    /// Target platform — unlocks `PL505`/`PL506`/`PL507`.
    pub platform: Option<&'a Platform>,
    /// Power view — unlocks `PL507`.
    pub view: Option<&'a PowerView>,
    /// DVFS plan — unlocks `PL504`/`PL506`.
    pub plan: Option<&'a InstrumentationPlan>,
    /// Batch size the energy intervals are evaluated at.
    pub batch: usize,
    /// A recorded energy-efficiency claim (images per joule) to validate
    /// against the static envelope — unlocks `PL505`.
    pub claim_images_per_joule: Option<f64>,
    /// Per-pass sweep budget for the fixpoint engine.
    pub sweep_limit: usize,
}

impl<'a> DataflowContext<'a> {
    /// A context with only the graph: batch 1, default sweep budget, no
    /// companion artifacts.
    pub fn new(graph: &'a Graph) -> Self {
        DataflowContext {
            graph,
            platform: None,
            view: None,
            plan: None,
            batch: 1,
            claim_images_per_joule: None,
            sweep_limit: DEFAULT_SWEEP_LIMIT,
        }
    }
}

/// Statically derivable energy envelope of a whole graph: the sum of
/// per-layer [min, max] energies over every GPU level at a fixed CPU level.
fn graph_energy_interval(envelopes: &[LayerEnvelope]) -> (f64, f64) {
    envelopes.iter().fold((0.0, 0.0), |(lo, hi), env| {
        (lo + env.energy.0, hi + env.energy.1)
    })
}

/// Runs the dataflow pack and returns its findings.
pub fn check(ctx: &DataflowContext<'_>) -> LintReport {
    let mut report = LintReport::new(ctx.graph.name());
    let facts = dataflow::analyze_bounded(ctx.graph, ctx.sweep_limit);

    if !facts.converged {
        report.push(
            &rules::DF_DIVERGED,
            Location::Model,
            format!(
                "fixpoint analysis exhausted its budget after {} sweeps \
                 (limit {} per pass) without stabilizing; dataflow facts \
                 are untrustworthy and the remaining PL5xx rules were \
                 skipped",
                facts.sweeps, ctx.sweep_limit
            ),
        );
        return report;
    }

    check_reachability(ctx, &facts, &mut report);
    check_shape_intervals(ctx, &facts, &mut report);
    if let Some(plan) = ctx.plan {
        check_plan_points(&facts, plan, &mut report);
    }
    if let Some(platform) = ctx.platform {
        // The per-layer envelopes are the pack's expensive fact (every GPU
        // level per layer); derive them once and share across PL505-PL507.
        let cpu = ctx
            .plan
            .map(|p| p.cpu_level())
            .unwrap_or(platform.cpu_levels() - 1);
        let envelopes = platform.graph_envelopes(ctx.graph.layers(), ctx.batch, cpu);
        check_energy(ctx, platform, &envelopes, &mut report);
        if let Some(view) = ctx.view {
            check_activity(ctx, platform, view, &envelopes, &mut report);
        }
    }
    report
}

fn check_reachability(ctx: &DataflowContext<'_>, facts: &DataflowFacts, report: &mut LintReport) {
    for i in facts.unreachable() {
        let l = &ctx.graph.layers()[i];
        report.push(
            &rules::DF_LAYER_UNREACHABLE,
            Location::Layer(i),
            format!(
                "layer {i} ({}) declares input {} which neither the graph \
                 input nor any reachable earlier layer produces",
                l.name, l.input_shape
            ),
        );
    }
    for i in facts.dead() {
        let l = &ctx.graph.layers()[i];
        report.push(
            &rules::DF_LAYER_DEAD,
            Location::Layer(i),
            format!(
                "layer {i} ({}) produces output {} that no live later \
                 layer consumes; it burns energy in every plan for nothing",
                l.name, l.output_shape
            ),
        );
    }
}

fn check_shape_intervals(
    ctx: &DataflowContext<'_>,
    facts: &DataflowFacts,
    report: &mut LintReport,
) {
    for (i, lf) in facts.layers.iter().enumerate() {
        let declared = ctx.graph.layers()[i].output_shape.numel();
        if !lf.out_elems.contains(declared) {
            report.push(
                &rules::DF_SHAPE_INTERVAL,
                Location::Layer(i),
                format!(
                    "declared output size {declared} lies outside the derived \
                     interval [{}, {}]",
                    lf.out_elems.lo, lf.out_elems.hi
                ),
            );
        }
    }
}

fn check_plan_points(facts: &DataflowFacts, plan: &InstrumentationPlan, report: &mut LintReport) {
    for (step, p) in plan.points().iter().enumerate() {
        // Out-of-range points are PL205's finding, not ours.
        if let Some(lf) = facts.layers.get(p.layer) {
            if !lf.reachable {
                report.push(
                    &rules::DF_POINT_UNREACHABLE,
                    Location::PlanStep(step),
                    format!(
                        "instrumentation point {step} switches frequency at \
                         unreachable layer {}; the block it opens never runs, \
                         so the transition can never amortize",
                        p.layer
                    ),
                );
            }
        }
    }
}

fn check_energy(
    ctx: &DataflowContext<'_>,
    platform: &Platform,
    envelopes: &[LayerEnvelope],
    report: &mut LintReport,
) {
    let (e_lo, e_hi) = graph_energy_interval(envelopes);

    if let Some(claim) = ctx.claim_images_per_joule {
        // Images per joule is antitone in energy: the envelope inverts.
        let ee_lo = ctx.batch as f64 / e_hi;
        let ee_hi = ctx.batch as f64 / e_lo;
        if !(claim.is_finite() && claim >= ee_lo && claim <= ee_hi) {
            report.push(
                &rules::DF_EE_CLAIM_IMPOSSIBLE,
                Location::Model,
                format!(
                    "claimed {claim:.4} images/J is outside the statically \
                     derivable envelope [{ee_lo:.4}, {ee_hi:.4}] for batch \
                     {} on {}",
                    ctx.batch,
                    platform.name()
                ),
            );
        }
    }

    if let Some(plan) = ctx.plan {
        let first = plan.points()[0].layer.min(ctx.graph.num_layers());
        // Before the first point both domains run at their boot (max)
        // levels — the same convention `evaluate_plan` uses.
        let boot_gpu = platform.gpu_levels() - 1;
        let boot_cpu = platform.cpu_levels() - 1;
        let boot_energy: f64 = ctx.graph.layers()[..first]
            .iter()
            .map(|l| platform.layer_energy(l, ctx.batch, boot_gpu, boot_cpu))
            .sum();
        let budget = BOOT_ENERGY_FRACTION * e_lo;
        if boot_energy > budget {
            report.push(
                &rules::DF_BOOT_BUDGET,
                Location::PlanStep(0),
                format!(
                    "{first} layer(s) before the first instrumentation \
                     point spend {boot_energy:.4} J at boot frequencies, \
                     exceeding the budget of {budget:.4} J ({:.0}% of the \
                     best-case total {e_lo:.4} J)",
                    BOOT_ENERGY_FRACTION * 100.0
                ),
            );
        }
    }
}

fn check_activity(
    ctx: &DataflowContext<'_>,
    platform: &Platform,
    view: &PowerView,
    envelopes: &[LayerEnvelope],
    report: &mut LintReport,
) {
    for (b, block) in view.blocks().iter().enumerate() {
        let range = block.start.min(ctx.graph.num_layers())..block.end.min(ctx.graph.num_layers());
        if range.len() < 2 {
            continue;
        }
        let mut lo_max = f64::NEG_INFINITY;
        let mut hi_min = f64::INFINITY;
        let mut compute_layers = 0;
        for i in range {
            // Zero-FLOP glue (adds, concats, flattens) has a degenerate
            // activity envelope; only compute layers carry the signal.
            if ctx.graph.layers()[i].flops() == 0.0 {
                continue;
            }
            compute_layers += 1;
            let env = &envelopes[i];
            lo_max = lo_max.max(env.busy_util.0);
            hi_min = hi_min.min(env.busy_util.1);
        }
        if compute_layers >= 2 && lo_max - hi_min > ACTIVITY_MARGIN {
            report.push(
                &rules::DF_ACTIVITY_INCONSISTENT,
                Location::Block(b),
                format!(
                    "block {b} (layers {}..{}) groups layers whose \
                     busy-utilization envelopes are disjoint by {:.4} on {}; \
                     the view's activity grouping contradicts the platform \
                     model",
                    block.start,
                    block.end,
                    lo_max - hi_min,
                    platform.name()
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlens_cluster::PowerBlock;
    use powerlens_dnn::{zoo, TensorShape};
    use powerlens_platform::InstrumentationPoint;

    fn broken_graph() -> Graph {
        let g = zoo::alexnet();
        let mut layers = g.layers().to_vec();
        layers[3].input_shape = TensorShape::chw(999, 1, 1);
        Graph::from_parts_unchecked("broken", g.input_shape(), layers, vec![])
    }

    #[test]
    fn zoo_graphs_have_no_dataflow_errors() {
        for (name, build) in zoo::all_models() {
            let g = build();
            let r = check(&DataflowContext::new(&g));
            assert_eq!(r.num_errors(), 0, "{name}: {:?}", r.codes());
            // The only tolerated warnings are dead cost-only side chains.
            assert!(
                r.codes().iter().all(|&c| c == "PL502"),
                "{name}: {:?}",
                r.codes()
            );
        }
    }

    #[test]
    fn unreachable_layer_fires_pl501() {
        let g = broken_graph();
        let r = check(&DataflowContext::new(&g));
        assert!(r.fired("PL501"));
        assert!(r.has_errors());
    }

    #[test]
    fn dead_layer_fires_pl502() {
        use powerlens_dnn::{Layer, OpKind};
        let input = TensorShape::chw(3, 8, 8);
        let conv = |id: usize, in_ch: usize, out_ch: usize, shape| {
            Layer::new(
                id,
                format!("c{id}"),
                OpKind::Conv2d {
                    in_ch,
                    out_ch,
                    kernel: 1,
                    stride: 1,
                    padding: 0,
                    groups: 1,
                },
                shape,
            )
        };
        let l0 = conv(0, 3, 16, input);
        let dead = conv(1, 3, 7, input);
        let l2 = conv(2, 16, 32, l0.output_shape);
        let g = Graph::from_parts_unchecked("deadbranch", input, vec![l0, dead, l2], vec![]);
        let r = check(&DataflowContext::new(&g));
        assert!(r.fired("PL502"));
        assert_eq!(r.num_errors(), 0, "PL502 is a warning");
    }

    #[test]
    fn corrupted_output_shape_fires_pl503() {
        let g = zoo::alexnet();
        let mut layers = g.layers().to_vec();
        layers[2].output_shape = TensorShape::chw(1, 1, 7);
        let g = Graph::from_parts_unchecked("corrupt", g.input_shape(), layers, vec![]);
        let r = check(&DataflowContext::new(&g));
        assert!(r.fired("PL503"));
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule.code == "PL503" && d.location == Location::Layer(2)));
    }

    #[test]
    fn plan_point_on_unreachable_layer_fires_pl504() {
        let g = broken_graph();
        let plan = InstrumentationPlan::new(
            vec![
                InstrumentationPoint {
                    layer: 0,
                    gpu_level: 1,
                },
                InstrumentationPoint {
                    layer: 3,
                    gpu_level: 2,
                },
            ],
            0,
        );
        let mut ctx = DataflowContext::new(&g);
        ctx.plan = Some(&plan);
        let r = check(&ctx);
        assert!(r.fired("PL504"));
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule.code == "PL504" && d.location == Location::PlanStep(1)));
    }

    #[test]
    fn ee_claim_outside_envelope_fires_pl505() {
        let agx = Platform::agx();
        let g = zoo::alexnet();
        let batch = 8;
        let cpu = agx.cpu_levels() - 1;
        let envelopes: Vec<LayerEnvelope> = g
            .layers()
            .iter()
            .map(|l| agx.layer_envelope(l, batch, cpu).unwrap())
            .collect();
        let (e_lo, e_hi) = graph_energy_interval(&envelopes);
        assert!(e_lo > 0.0 && e_hi > e_lo);

        let mut ctx = DataflowContext::new(&g);
        ctx.platform = Some(&agx);
        ctx.batch = batch;

        ctx.claim_images_per_joule = Some(batch as f64 / e_hi * 0.5); // below envelope
        assert!(check(&ctx).fired("PL505"));

        ctx.claim_images_per_joule = Some(batch as f64 / e_lo * 2.0); // above envelope
        assert!(check(&ctx).fired("PL505"));

        // The midpoint of the inverted envelope is always admissible.
        ctx.claim_images_per_joule = Some(0.5 * (batch as f64 / e_hi + batch as f64 / e_lo));
        assert!(!check(&ctx).fired("PL505"));
    }

    #[test]
    fn late_first_point_fires_pl506() {
        let agx = Platform::agx();
        let g = zoo::alexnet();
        let mid = g.num_layers() / 2;
        let late = InstrumentationPlan::new(
            vec![InstrumentationPoint {
                layer: mid,
                gpu_level: 3,
            }],
            0,
        );
        let mut ctx = DataflowContext::new(&g);
        ctx.platform = Some(&agx);
        ctx.plan = Some(&late);
        ctx.batch = 8;
        let r = check(&ctx);
        assert!(r.fired("PL506"));
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.message.contains("(10% of the best-case total")),
            "{:?}",
            r.diagnostics
        );

        let from_zero = InstrumentationPlan::new(
            vec![InstrumentationPoint {
                layer: 0,
                gpu_level: 3,
            }],
            0,
        );
        ctx.plan = Some(&from_zero);
        assert!(!check(&ctx).fired("PL506"));
    }

    #[test]
    fn disjoint_activity_envelopes_fire_pl507() {
        let agx = Platform::agx();
        let g = zoo::alexnet();
        let view = PowerView::from_blocks_unchecked(
            vec![PowerBlock {
                start: 0,
                end: g.num_layers(),
            }],
            g.num_layers(),
        );
        let mut ctx = DataflowContext::new(&g);
        ctx.platform = Some(&agx);
        ctx.view = Some(&view);
        ctx.batch = 8;

        // Lumping the whole net into one block mixes compute-bound convs
        // with memory-bound tails: the envelopes are disjoint well past
        // `ACTIVITY_MARGIN`.
        assert!(check(&ctx).fired("PL507"));

        // Single-layer blocks carry no intra-block comparison — silent.
        let singletons = PowerView::from_blocks_unchecked(
            (0..g.num_layers())
                .map(|i| PowerBlock {
                    start: i,
                    end: i + 1,
                })
                .collect(),
            g.num_layers(),
        );
        ctx.view = Some(&singletons);
        assert!(!check(&ctx).fired("PL507"));

        // Either side of the margin on agx: conv1 and its ReLU are 0.17
        // apart (quiet), conv2 and its ReLU 0.27 apart (fires).
        let block = |start, end| {
            PowerView::from_blocks_unchecked(vec![PowerBlock { start, end }], g.num_layers())
        };
        let within = block(0, 2);
        ctx.view = Some(&within);
        assert!(!check(&ctx).fired("PL507"));
        let beyond = block(3, 5);
        ctx.view = Some(&beyond);
        assert!(check(&ctx).fired("PL507"));
    }

    #[test]
    fn exhausted_sweep_budget_fires_only_pl508() {
        let g = broken_graph();
        let mut ctx = DataflowContext::new(&g);
        ctx.sweep_limit = 0;
        let r = check(&ctx);
        assert_eq!(r.codes(), vec!["PL508"]);
        assert!(r.has_errors());
    }
}
