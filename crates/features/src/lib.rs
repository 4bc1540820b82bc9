//! Power-sensitive feature extraction (paper §2.1.2).
//!
//! Two complementary extractors build the intermediate representation every
//! other PowerLens stage consumes:
//!
//! * the [**depthwise feature extractor**](depthwise_features) walks the
//!   network layer by layer and emits one fine-grained feature vector per
//!   operator (computational load, parameters, memory traffic, operator
//!   type, channel counts, feature-map dimensions, plus operator-specific
//!   deep features such as kernel size / stride for convolutions and head
//!   count / embedding dimension for transformer blocks);
//! * the [**global feature extractor**](GlobalFeatures) summarizes a whole
//!   network or a layer range (power block) into macro *structural* features
//!   (layer counts, residual and branching structure, operator-type mix) and
//!   aggregated *statistics* features (total FLOPs, parameters, memory
//!   traffic, arithmetic intensity, FLOP shares per operator family).
//!
//! The split between structural and statistics features matters downstream:
//! the clustering-hyperparameter model of Figure 3 consumes them at
//! different network stages.
//!
//! # Example
//!
//! ```
//! use powerlens_features::{depthwise_features, GlobalFeatures, DEPTHWISE_DIM};
//! use powerlens_dnn::zoo;
//!
//! let g = zoo::resnet34();
//! let x = depthwise_features(&g);
//! assert_eq!(x.rows(), g.num_layers());
//! assert_eq!(x.cols(), DEPTHWISE_DIM);
//!
//! let gf = GlobalFeatures::of_graph(&g);
//! assert_eq!(gf.structural.len(), GlobalFeatures::STRUCTURAL_DIM);
//! assert_eq!(gf.statistics.len(), GlobalFeatures::STATISTICS_DIM);
//! ```

#![forbid(unsafe_code)]

use powerlens_dnn::{Graph, Layer, OpKind};
use powerlens_numeric::Matrix;

/// Dimensionality of one depthwise (per-layer) feature vector.
pub const DEPTHWISE_DIM: usize = 14;

/// Names of the depthwise feature dimensions, index-aligned with the columns
/// of [`depthwise_features`].
pub fn depthwise_feature_names() -> [&'static str; DEPTHWISE_DIM] {
    [
        "log_flops",
        "log_params",
        "log_memory_bytes",
        "arithmetic_intensity",
        "op_type_code",
        "log_in_channels",
        "log_out_channels",
        "log_spatial",
        "log_out_numel",
        "kernel_size",
        "stride",
        "groups_ratio",
        "attn_heads",
        "log_embed_dim",
    ]
}

fn log1p(x: f64) -> f64 {
    x.max(0.0).ln_1p()
}

/// Writes the depthwise feature vector of one layer into `out` — the
/// allocation-free core of [`depthwise_features`], which extracts whole
/// graphs into one flat arena instead of one `Vec` per layer.
///
/// # Panics
///
/// Panics if `out.len() != DEPTHWISE_DIM`.
pub fn layer_features_into(layer: &Layer, out: &mut [f64]) {
    assert_eq!(out.len(), DEPTHWISE_DIM, "feature slot width");
    let (h, w) = layer.input_shape.spatial();
    out[0] = log1p(layer.flops());
    out[1] = log1p(layer.params());
    out[2] = log1p(layer.memory_bytes());
    out[3] = layer.arithmetic_intensity();
    out[4] = layer.op.type_code() as f64;
    out[5] = log1p(layer.input_shape.channels() as f64);
    out[6] = log1p(layer.output_shape.channels() as f64);
    out[7] = log1p((h * w) as f64);
    out[8] = log1p(layer.output_shape.numel() as f64);
    // Operator-specific deep features (zeros when not applicable).
    let (kernel, stride, groups_ratio) = match layer.op {
        OpKind::Conv2d {
            kernel,
            stride,
            groups,
            in_ch,
            ..
        } => (
            kernel as f64,
            stride as f64,
            groups as f64 / in_ch.max(1) as f64,
        ),
        OpKind::Pool { kernel, stride, .. } => (kernel as f64, stride as f64, 0.0),
        OpKind::PatchEmbed { patch, .. } => (patch as f64, patch as f64, 0.0),
        _ => (0.0, 0.0, 0.0),
    };
    let (heads, embed) = match layer.op {
        OpKind::Attention { heads, embed_dim } => (heads as f64, log1p(embed_dim as f64)),
        _ => (0.0, 0.0),
    };
    out[9] = kernel;
    out[10] = stride;
    out[11] = groups_ratio;
    out[12] = heads;
    out[13] = embed;
}

/// Extracts the depthwise feature vector of one layer.
pub fn layer_features(layer: &Layer) -> Vec<f64> {
    let mut v = vec![0.0; DEPTHWISE_DIM];
    layer_features_into(layer, &mut v);
    v
}

/// Extracts the `num_layers x DEPTHWISE_DIM` depthwise feature matrix of a
/// graph — the input of the power-behaviour similarity clustering
/// (Algorithm 1's `X`).
///
/// Rows are written in layer order straight into one flat
/// `num_layers x DEPTHWISE_DIM` arena ([`layer_features_into`]), so
/// extraction performs one allocation, not one `Vec` per layer. It runs on
/// the calling thread: extraction is a sub-millisecond step inside one
/// plan, and callers parallelize across graphs instead.
pub fn depthwise_features(graph: &Graph) -> Matrix {
    let layers = graph.layers();
    let mut data = vec![0.0; layers.len() * DEPTHWISE_DIM];
    for (l, slot) in layers.iter().zip(data.chunks_exact_mut(DEPTHWISE_DIM)) {
        layer_features_into(l, slot);
    }
    Matrix::from_vec(layers.len(), DEPTHWISE_DIM, data).expect("graphs have at least one layer")
}

/// Global features of a network or power block: macro structure plus
/// aggregated statistics (paper §2.1.2, "Global Feature Extractor").
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalFeatures {
    /// Macro structural features: scale, residual/branching structure and
    /// operator-type mix. Fed to the *beginning* of the hyperparameter
    /// prediction model (Figure 3).
    pub structural: Vec<f64>,
    /// Aggregated statistics: totals and computational-pattern shares. Fed
    /// to the *mid-stage* of the model.
    pub statistics: Vec<f64>,
}

impl GlobalFeatures {
    /// Length of the structural feature vector.
    pub const STRUCTURAL_DIM: usize = 4 + OpKind::NUM_TYPE_CODES;
    /// Length of the statistics feature vector.
    pub const STATISTICS_DIM: usize = 8;

    /// Extracts global features of the whole graph.
    pub fn of_graph(graph: &Graph) -> Self {
        Self::of_range(graph, 0, graph.num_layers())
    }

    /// Extracts global features of the layer range `lo..hi` (a power block).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn of_range(graph: &Graph, lo: usize, hi: usize) -> Self {
        let stats = graph.stats_range(lo, hi);
        let mut structural = vec![
            log1p(stats.num_layers as f64),
            log1p(stats.num_skip_edges as f64),
            log1p(stats.num_concats as f64),
            log1p(stats.max_channels as f64),
        ];
        structural.extend_from_slice(&stats.type_fractions);

        // FLOP shares per operator family: convolution-like, linear,
        // attention, element-wise/other.
        let mut conv_f = 0.0;
        let mut lin_f = 0.0;
        let mut attn_f = 0.0;
        let mut other_f = 0.0;
        for l in &graph.layers()[lo..hi] {
            match l.op {
                OpKind::Conv2d { .. } | OpKind::PatchEmbed { .. } => conv_f += l.flops(),
                OpKind::Linear { .. } => lin_f += l.flops(),
                OpKind::Attention { .. } => attn_f += l.flops(),
                _ => other_f += l.flops(),
            }
        }
        let total = (conv_f + lin_f + attn_f + other_f).max(1.0);
        let statistics = vec![
            log1p(stats.total_flops),
            log1p(stats.total_params),
            log1p(stats.total_memory_bytes),
            stats.mean_arithmetic_intensity,
            conv_f / total,
            lin_f / total,
            attn_f / total,
            other_f / total,
        ];
        debug_assert_eq!(structural.len(), Self::STRUCTURAL_DIM);
        debug_assert_eq!(statistics.len(), Self::STATISTICS_DIM);
        GlobalFeatures {
            structural,
            statistics,
        }
    }

    /// Concatenates structural and statistics features into one flat vector
    /// (for models that take a single input).
    pub fn concat(&self) -> Vec<f64> {
        let mut v = self.structural.clone();
        v.extend_from_slice(&self.statistics);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlens_dnn::zoo;

    #[test]
    fn depthwise_matrix_shape_and_finiteness() {
        for (name, build) in zoo::all_models() {
            let g = build();
            let x = depthwise_features(&g);
            assert_eq!(x.rows(), g.num_layers(), "{name}");
            assert_eq!(x.cols(), DEPTHWISE_DIM, "{name}");
            assert!(x.all_finite(), "{name} produced non-finite features");
        }
    }

    #[test]
    fn feature_names_match_dim() {
        assert_eq!(depthwise_feature_names().len(), DEPTHWISE_DIM);
    }

    #[test]
    fn depthwise_rows_match_per_layer_extraction() {
        // Row i of the flat arena must equal the standalone per-layer
        // extraction, bit for bit.
        for (name, build) in zoo::all_models() {
            let g = build();
            let x = depthwise_features(&g);
            for (i, l) in g.layers().iter().enumerate() {
                assert_eq!(x.row(i), layer_features(l).as_slice(), "{name} row {i}");
            }
        }
    }

    #[test]
    fn conv_layers_have_kernel_features() {
        let g = zoo::vgg19();
        let x = depthwise_features(&g);
        // First layer of VGG19 is a 3x3 stride-1 conv.
        assert_eq!(x[(0, 9)], 3.0);
        assert_eq!(x[(0, 10)], 1.0);
    }

    #[test]
    fn attention_layers_have_head_features() {
        let g = zoo::vit_base_16();
        let x = depthwise_features(&g);
        let attn_row = g
            .layers()
            .iter()
            .position(|l| matches!(l.op, OpKind::Attention { .. }))
            .unwrap();
        assert_eq!(x[(attn_row, 12)], 12.0);
        assert!(x[(attn_row, 13)] > 0.0);
    }

    #[test]
    fn similar_layers_have_similar_features() {
        // Two identical convs in different VGG positions (same stage) should
        // have identical feature vectors.
        let g = zoo::vgg19();
        let x = depthwise_features(&g);
        let convs: Vec<usize> = g
            .layers()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.name.starts_with("features.3") && l.name.ends_with(".conv"))
            .map(|(i, _)| i)
            .collect();
        assert!(convs.len() >= 3);
        // Stage 3 convs after the first all map 512ch 28x28 -> same shape.
        let a = x.row(convs[1]).to_vec();
        let b = x.row(convs[2]).to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn global_features_dims() {
        let g = zoo::resnet34();
        let f = GlobalFeatures::of_graph(&g);
        assert_eq!(f.structural.len(), GlobalFeatures::STRUCTURAL_DIM);
        assert_eq!(f.statistics.len(), GlobalFeatures::STATISTICS_DIM);
        assert_eq!(
            f.concat().len(),
            GlobalFeatures::STRUCTURAL_DIM + GlobalFeatures::STATISTICS_DIM
        );
    }

    #[test]
    fn bigger_model_bigger_flop_feature() {
        let small = GlobalFeatures::of_graph(&zoo::alexnet());
        let big = GlobalFeatures::of_graph(&zoo::vgg19());
        assert!(big.statistics[0] > small.statistics[0]);
    }

    #[test]
    fn vit_flops_dominated_by_linear_and_attention() {
        let f = GlobalFeatures::of_graph(&zoo::vit_base_16());
        let lin_share = f.statistics[5];
        let attn_share = f.statistics[6];
        assert!(lin_share + attn_share > 0.7, "{lin_share} + {attn_share}");
    }

    #[test]
    fn cnn_flops_dominated_by_conv() {
        let f = GlobalFeatures::of_graph(&zoo::resnet152());
        assert!(f.statistics[4] > 0.9);
    }

    #[test]
    fn block_features_differ_from_whole() {
        let g = zoo::resnet152();
        let whole = GlobalFeatures::of_graph(&g);
        let head = GlobalFeatures::of_range(&g, g.num_layers() - 3, g.num_layers());
        assert_ne!(whole, head);
        assert!(whole.statistics[0] > head.statistics[0]);
    }

    #[test]
    fn residual_structure_visible() {
        let res = GlobalFeatures::of_graph(&zoo::resnet34());
        let plain = GlobalFeatures::of_graph(&zoo::vgg19());
        assert!(res.structural[1] > plain.structural[1]);
    }

    #[test]
    fn flop_shares_sum_to_one() {
        for (name, build) in zoo::all_models() {
            let f = GlobalFeatures::of_graph(&build());
            let sum: f64 = f.statistics[4..8].iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{name}: shares sum {sum}");
        }
    }
}
