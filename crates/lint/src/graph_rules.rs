//! Graph pack: structural and shape-consistency rules over
//! [`powerlens_dnn::Graph`].

use powerlens_dnn::{Graph, Layer, OpKind, PoolKind, TensorShape};

use crate::diag::{LintReport, Location};
use crate::rules;

/// Relative tolerance for comparing cached against recomputed layer costs.
const COST_REL_TOL: f64 = 1e-9;

/// Runs every graph rule over `graph`, appending findings to `report`.
pub fn check(graph: &Graph, report: &mut LintReport) {
    if graph.num_layers() == 0 {
        report.push(
            &rules::GRAPH_EMPTY,
            Location::Model,
            "graph contains no layers".to_string(),
        );
        return; // every other rule assumes at least one layer
    }

    check_skip_edges(graph, report);

    // Shapes any later layer may legally consume: the graph input, every
    // earlier output, and — for branch heads that re-read a token stream as
    // a vector (ViT class-token extraction) — the flattened embedding of any
    // earlier token output. A set, so the per-layer check is O(1) instead
    // of a scan over every earlier output.
    let mut known_shapes = crate::dataflow::ShapeSet::default();
    known_shapes.insert(graph.input_shape());

    for (idx, layer) in graph.layers().iter().enumerate() {
        let loc = Location::Layer(idx);

        if layer.id != idx {
            report.push(
                &rules::LAYER_ID_ORDER,
                loc,
                format!("layer at position {idx} carries id {}", layer.id),
            );
        }

        if !known_shapes.any_feeds(&layer.input_shape) {
            report.push(
                &rules::SHAPE_CHAIN_BROKEN,
                loc,
                format!(
                    "input shape {} is neither the graph input nor any earlier layer's output",
                    layer.input_shape
                ),
            );
        }
        known_shapes.insert(layer.output_shape);

        let shapes_ok = check_op(layer, idx, report);

        if layer.input_shape.numel() == 0 || layer.output_shape.numel() == 0 {
            report.push(
                &rules::ZERO_ELEMENT_ACTIVATION,
                loc,
                format!(
                    "activation has zero elements ({} -> {})",
                    layer.input_shape, layer.output_shape
                ),
            );
        }

        if shapes_ok {
            check_cost_cache(layer, idx, report);
        }

        if layer.flops() == 0.0 {
            report.push(
                &rules::ZERO_FLOP_LAYER,
                loc,
                format!("{} layer performs no floating-point work", layer.op.name()),
            );
        }
    }
}

/// `true` if `input` is one of the known upstream shapes, or the flattening
/// of a known token stream (`Tokens(n, d)` may be re-read as `Flat(d)` when
/// a head consumes a single token, e.g. the ViT class token). The
/// compatibility relation itself lives in [`TensorShape::feeds`], shared
/// with the dataflow engine's reachability analysis.
#[cfg(test)]
pub(crate) fn consumable(known: &[TensorShape], input: TensorShape) -> bool {
    known.iter().any(|s| s.feeds(&input))
}

/// Per-operator rules: degenerate hyperparameters (`PL007`), shape
/// compatibility (`PL003`), and output-shape cache agreement (`PL004`).
/// Returns `true` when the stored shapes are trustworthy enough for the
/// cost-cache recompute.
fn check_op(layer: &Layer, idx: usize, report: &mut LintReport) -> bool {
    let loc = Location::Layer(idx);

    if let Some(why) = degenerate_params(&layer.op) {
        report.push(&rules::OP_DEGENERATE_PARAMS, loc, why);
        return false;
    }

    let inferred = layer.op.try_output_shape(layer.input_shape);
    let arity_clash = arity_mismatch(&layer.op, layer.input_shape);
    let out = match (inferred, arity_clash) {
        (Some(out), None) => out,
        (_, arity_clash) => {
            let why = arity_clash.unwrap_or_else(|| {
                format!(
                    "{} cannot consume a {} input",
                    layer.op.name(),
                    layer.input_shape
                )
            });
            report.push(&rules::OP_SHAPE_INCOMPATIBLE, loc, why);
            return false;
        }
    };
    if out != layer.output_shape {
        report.push(
            &rules::SHAPE_CACHE_MISMATCH,
            loc,
            format!(
                "stored output shape {} but {} infers {} from input {}",
                layer.output_shape,
                layer.op.name(),
                out,
                layer.input_shape
            ),
        );
        return false;
    }
    true
}

/// Describes why an operator's hyperparameters are degenerate, if they are.
fn degenerate_params(op: &OpKind) -> Option<String> {
    match *op {
        OpKind::Conv2d {
            in_ch,
            out_ch,
            kernel,
            stride,
            groups,
            ..
        } => {
            if in_ch == 0 || out_ch == 0 || kernel == 0 || stride == 0 || groups == 0 {
                Some(format!(
                    "conv2d with zero hyperparameter \
                     (in={in_ch}, out={out_ch}, k={kernel}, s={stride}, g={groups})"
                ))
            } else if in_ch % groups != 0 {
                Some(format!(
                    "conv2d groups {groups} do not divide in_ch {in_ch}"
                ))
            } else {
                None
            }
        }
        OpKind::Linear {
            in_features,
            out_features,
        } if in_features == 0 || out_features == 0 => Some(format!(
            "linear with zero features (in={in_features}, out={out_features})"
        )),
        OpKind::Pool {
            kind,
            kernel,
            stride,
        } if kind != PoolKind::GlobalAvg && (kernel == 0 || stride == 0) => Some(format!(
            "pool with zero window or stride (k={kernel}, s={stride})"
        )),
        OpKind::Attention { embed_dim, heads } => {
            if embed_dim == 0 || heads == 0 {
                Some(format!(
                    "attention with zero dimension (d={embed_dim}, heads={heads})"
                ))
            } else if embed_dim % heads != 0 {
                Some(format!(
                    "attention heads {heads} do not divide embed_dim {embed_dim}"
                ))
            } else {
                None
            }
        }
        OpKind::PatchEmbed {
            in_ch,
            embed_dim,
            patch,
            ..
        } if in_ch == 0 || embed_dim == 0 || patch == 0 => Some(format!(
            "patch_embed with zero hyperparameter (in={in_ch}, d={embed_dim}, p={patch})"
        )),
        _ => None,
    }
}

/// Channel/feature arity clashes [`OpKind::try_output_shape`] does not see:
/// it matches on shape *category* only, so a conv declared for 3 input
/// channels silently "consumes" a 64-channel map.
fn arity_mismatch(op: &OpKind, input: TensorShape) -> Option<String> {
    match (*op, input) {
        (OpKind::Conv2d { in_ch, .. }, TensorShape::Chw { c, .. }) if in_ch != c => Some(format!(
            "conv2d declared for {in_ch} input channels applied to {c}-channel map"
        )),
        (OpKind::PatchEmbed { in_ch, .. }, TensorShape::Chw { c, .. }) if in_ch != c => Some(
            format!("patch_embed declared for {in_ch} input channels applied to {c}-channel map"),
        ),
        (OpKind::Linear { in_features, .. }, TensorShape::Flat(n)) if in_features != n => {
            Some(format!(
                "linear declared for {in_features} input features applied to length-{n} vector"
            ))
        }
        (OpKind::Linear { in_features, .. }, TensorShape::Tokens { d, .. }) if in_features != d => {
            Some(format!(
                "linear declared for {in_features} input features applied to {d}-dim tokens"
            ))
        }
        (OpKind::Attention { embed_dim, .. }, TensorShape::Tokens { d, .. }) if embed_dim != d => {
            Some(format!(
                "attention declared for embed_dim {embed_dim} applied to {d}-dim tokens"
            ))
        }
        _ => None,
    }
}

/// `PL009`: cached costs must match a recompute and be finite. Only called
/// when the stored shapes passed `PL003`/`PL004`, so the recompute cannot
/// panic.
fn check_cost_cache(layer: &Layer, idx: usize, report: &mut LintReport) {
    let stale = |cached: f64, fresh: f64| -> bool {
        !cached.is_finite() || (cached - fresh).abs() > COST_REL_TOL * fresh.abs().max(1.0)
    };
    let norm_params = match layer.op {
        OpKind::BatchNorm | OpKind::LayerNorm => 2.0 * layer.input_shape.channels() as f64,
        _ => 0.0,
    };
    let checks = [
        ("flops", layer.flops(), layer.op.flops(layer.input_shape)),
        ("params", layer.params(), layer.op.params() + norm_params),
        (
            "memory_bytes",
            layer.memory_bytes(),
            layer.op.memory_bytes(layer.input_shape),
        ),
    ];
    for (what, cached, fresh) in checks {
        if stale(cached, fresh) {
            report.push(
                &rules::COST_CACHE_STALE,
                Location::Layer(idx),
                format!("cached {what} {cached} but recompute yields {fresh}"),
            );
        }
    }
}

/// `PL006`/`PL010`: skip edges must go forward to existing layers, and
/// should land on a merge operator.
fn check_skip_edges(graph: &Graph, report: &mut LintReport) {
    let n = graph.num_layers();
    for &(from, to) in graph.skip_edges() {
        let loc = Location::Edge(from, to);
        if from >= n || to >= n {
            report.push(
                &rules::SKIP_EDGE_INVALID,
                loc,
                format!("skip edge references a layer outside the graph (0..{n})"),
            );
            continue;
        }
        if from >= to {
            report.push(
                &rules::SKIP_EDGE_INVALID,
                loc,
                "skip edge does not point forward (cycle or self-loop)".to_string(),
            );
            continue;
        }
        if !matches!(graph.layer(to).op, OpKind::Add | OpKind::Concat { .. }) {
            report.push(
                &rules::SKIP_TARGET_NOT_MERGE,
                loc,
                format!(
                    "skip edge terminates at a {} layer, expected add or concat",
                    graph.layer(to).op.name()
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlens_dnn::{zoo, ActKind, GraphBuilder, Layer};

    fn conv(in_ch: usize, out_ch: usize) -> OpKind {
        OpKind::Conv2d {
            in_ch,
            out_ch,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        }
    }

    fn small_graph() -> Graph {
        let mut b = GraphBuilder::new("small", TensorShape::chw(3, 16, 16));
        let c1 = b.push("c1", conv(3, 8));
        b.push("r1", OpKind::Activation(ActKind::Relu));
        b.push("c2", conv(8, 8));
        let add = b.push("add", OpKind::Add);
        b.add_skip(c1, add);
        b.finish()
    }

    fn lint(g: &Graph) -> LintReport {
        let mut r = LintReport::new(g.name());
        check(g, &mut r);
        r
    }

    #[test]
    fn well_formed_graph_is_error_free() {
        assert!(!lint(&small_graph()).has_errors());
    }

    #[test]
    fn empty_graph_fires_pl001() {
        let g = Graph::from_parts_unchecked("empty", TensorShape::flat(8), vec![], vec![]);
        let r = lint(&g);
        assert!(r.fired("PL001"));
        assert_eq!(r.diagnostics.len(), 1, "PL001 short-circuits");
    }

    #[test]
    fn shuffled_ids_fire_pl002() {
        let mut g = small_graph();
        let mut layers = g.layers().to_vec();
        layers[1].id = 9;
        g = Graph::from_parts_unchecked("ids", g.input_shape(), layers, g.skip_edges().to_vec());
        assert!(lint(&g).fired("PL002"));
        assert!(!lint(&small_graph()).fired("PL002"));
    }

    #[test]
    fn category_clash_fires_pl003() {
        // A conv asked to consume a token sequence.
        let mut g = small_graph();
        let mut layers = g.layers().to_vec();
        layers[2].input_shape = TensorShape::tokens(4, 8);
        g = Graph::from_parts_unchecked("cat", g.input_shape(), layers, vec![]);
        assert!(lint(&g).fired("PL003"));
    }

    #[test]
    fn channel_arity_clash_fires_pl003() {
        // try_output_shape alone would accept this: category matches.
        let mut g = small_graph();
        let mut layers = g.layers().to_vec();
        layers[2].op = conv(5, 8); // input map has 8 channels
        g = Graph::from_parts_unchecked("arity", g.input_shape(), layers, vec![]);
        assert!(lint(&g).fired("PL003"));
        assert!(!lint(&small_graph()).fired("PL003"));
    }

    #[test]
    fn stored_shape_disagreement_fires_pl004() {
        let mut g = small_graph();
        let mut layers = g.layers().to_vec();
        layers[0].output_shape = TensorShape::chw(8, 5, 5);
        g = Graph::from_parts_unchecked("cache", g.input_shape(), layers, vec![]);
        let r = lint(&g);
        assert!(r.fired("PL004"));
        // Downstream, layer 1's input no longer matches any known shape.
        assert!(r.fired("PL005"));
        assert!(!lint(&small_graph()).fired("PL004"));
    }

    #[test]
    fn disconnected_input_fires_pl005() {
        let mut g = small_graph();
        let mut layers = g.layers().to_vec();
        layers[3].input_shape = TensorShape::chw(99, 1, 1);
        layers[3].output_shape = TensorShape::chw(99, 1, 1); // keep PL004 quiet
        g = Graph::from_parts_unchecked("chain", g.input_shape(), layers, vec![]);
        let r = lint(&g);
        assert!(r.fired("PL005"));
        assert!(!r.fired("PL004"));
    }

    #[test]
    fn token_flattening_is_consumable() {
        // ViT-style: a head reads Flat(d) out of a Tokens(n, d) stream.
        assert!(consumable(
            &[TensorShape::tokens(197, 768)],
            TensorShape::flat(768)
        ));
        assert!(!consumable(
            &[TensorShape::tokens(197, 768)],
            TensorShape::flat(769)
        ));
    }

    #[test]
    fn dangling_and_backward_edges_fire_pl006() {
        let g = small_graph();
        let dangling = Graph::from_parts_unchecked(
            "dangling",
            g.input_shape(),
            g.layers().to_vec(),
            vec![(0, 17)],
        );
        assert!(lint(&dangling).fired("PL006"));
        let backward = Graph::from_parts_unchecked(
            "backward",
            g.input_shape(),
            g.layers().to_vec(),
            vec![(3, 1)],
        );
        assert!(lint(&backward).fired("PL006"));
        assert!(!lint(&g).fired("PL006"));
    }

    #[test]
    fn zero_stride_fires_pl007() {
        let mut g = small_graph();
        let mut layers = g.layers().to_vec();
        layers[0].op = OpKind::Conv2d {
            in_ch: 3,
            out_ch: 8,
            kernel: 3,
            stride: 0,
            padding: 1,
            groups: 1,
        };
        g = Graph::from_parts_unchecked("deg", g.input_shape(), layers, vec![]);
        let r = lint(&g);
        assert!(r.fired("PL007"));
        // PL007 pre-empts the shape rules for that layer.
        assert!(!r.fired("PL003"));
        assert!(!lint(&small_graph()).fired("PL007"));
    }

    #[test]
    fn indivisible_heads_fire_pl007() {
        assert!(degenerate_params(&OpKind::Attention {
            embed_dim: 768,
            heads: 7,
        })
        .is_some());
        assert!(degenerate_params(&OpKind::Attention {
            embed_dim: 768,
            heads: 12,
        })
        .is_none());
    }

    #[test]
    fn zero_element_activation_fires_pl008() {
        let l = Layer::new(0, "fc", OpKind::Flatten, TensorShape::chw(0, 4, 4));
        let g = Graph::from_parts_unchecked("zero", TensorShape::chw(0, 4, 4), vec![l], vec![]);
        assert!(lint(&g).fired("PL008"));
        assert!(!lint(&small_graph()).fired("PL008"));
    }

    #[test]
    fn mutated_op_leaves_stale_caches_pl009() {
        let mut g = small_graph();
        let mut layers = g.layers().to_vec();
        // Swap in a fatter conv without rebuilding: cached costs now
        // undercount. Shapes still agree (same output map), so only the
        // cost cache is stale.
        layers[2].op = OpKind::Conv2d {
            in_ch: 8,
            out_ch: 8,
            kernel: 5,
            stride: 1,
            padding: 2,
            groups: 1,
        };
        g = Graph::from_parts_unchecked("stale", g.input_shape(), layers, g.skip_edges().to_vec());
        let r = lint(&g);
        assert!(r.fired("PL009"));
        assert!(
            !r.has_errors(),
            "staleness is a warning: {:?}",
            r.diagnostics
        );
        assert!(!lint(&small_graph()).fired("PL009"));
    }

    #[test]
    fn skip_to_non_merge_fires_pl010() {
        let mut b = GraphBuilder::new("nm", TensorShape::chw(3, 16, 16));
        b.push("c1", conv(3, 8));
        let r1 = b.push("r1", OpKind::Activation(ActKind::Relu));
        b.add_skip(0, r1);
        let r = lint(&b.finish());
        assert!(r.fired("PL010"));
        assert!(!r.has_errors());
        assert!(!lint(&small_graph()).fired("PL010"));
    }

    #[test]
    fn flatten_fires_pl011_info() {
        let mut b = GraphBuilder::new("flat", TensorShape::chw(3, 8, 8));
        b.push("c1", conv(3, 4));
        b.push("flat", OpKind::Flatten);
        let r = lint(&b.finish());
        assert!(r.fired("PL011"));
        assert_eq!(r.num_errors(), 0);
        assert_eq!(r.num_warnings(), 0);
    }

    #[test]
    fn zoo_is_clean_of_graph_errors() {
        for (name, build) in zoo::all_models() {
            let r = lint(&build());
            assert!(!r.has_errors(), "{name}: {:?}", r.diagnostics);
        }
    }
}
