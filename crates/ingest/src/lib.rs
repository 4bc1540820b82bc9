//! External model ingest for PowerLens: an ONNX-like manifest format.
//!
//! The rest of the workspace plans models built in Rust (the
//! `powerlens_dnn::zoo`, the random generator). Real deployments bring their models from *outside* —
//! an exporter script walks a PyTorch/ONNX graph and emits a small JSON
//! manifest, and this crate lowers it into a [`Graph`] the whole pipeline
//! (features, clustering, planning, simulation, linting) already consumes.
//!
//! Manifests are **untrusted input**: every malformed byte pattern maps to
//! a structured [`IngestError`], never a panic. Locatable objections
//! (unknown operator, sparsity out of range, shape-inference failure,
//! dangling skip edge) are collected as [`ImportIssue`]s — the vocabulary
//! the `powerlens-lint` ingest pack (`PL7xx`) renders — so a bad manifest
//! produces a full diagnostic report, not just the first failure.
//!
//! # Manifest schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "name": "tiny-transformer",
//!   "input": { "kind": "flat", "dims": [16] },
//!   "nodes": [
//!     { "op": "embedding", "attrs": { "vocab": 1000, "embed_dim": 64 } },
//!     { "op": "attention", "attrs": { "embed_dim": 64, "heads": 4 } },
//!     { "op": "layernorm", "sparsity": 0.5 }
//!   ],
//!   "skip_edges": [[0, 2]]
//! }
//! ```
//!
//! * `input` — the activation shape the first node consumes: `"chw"`
//!   (`dims: [c, h, w]`), `"tokens"` (`dims: [n, d]`) or `"flat"`
//!   (`dims: [n]`).
//! * `nodes` — the operator sequence. Each node names an `op`, carries its
//!   hyperparameters under `attrs`, and may override the activation shape
//!   it consumes with its own `input` (branch points — the manifest analog
//!   of [`GraphBuilder::set_current_shape`]). An optional `sparsity`
//!   fraction in `[0, 1]` scales the layer's effective compute in the
//!   platform power model (`0` — the default — is bit-identical to a dense
//!   layer).
//! * `skip_edges` — `[from, to]` pairs recording residual / branch-merge
//!   structure; edges must point forward to an existing node.
//!
//! [`export`] writes any [`Graph`] back out in this format, losslessly:
//! `import(export(g))` reproduces `g`'s [`Graph::fingerprint`] exactly,
//! for every zoo model (property-tested in this crate).
//!
//! # Example
//!
//! ```
//! use powerlens_dnn::zoo;
//!
//! let g = zoo::resnet34();
//! let manifest = powerlens_ingest::export(&g);
//! let back = powerlens_ingest::import_str(&manifest).unwrap();
//! assert_eq!(back.graph.fingerprint(), g.fingerprint());
//! ```

#![forbid(unsafe_code)]

mod reader;

use std::borrow::Cow;
use std::fmt;

use powerlens_dnn::{ActKind, Graph, GraphBuilder, Layer, OpKind, PoolKind, TensorShape};
use powerlens_lint::{lint_import, ImportIssue, LintConfig, LintReport};
use serde::Value;

/// The manifest schema version this build reads and writes.
pub const SCHEMA_VERSION: u64 = 1;

/// Why a manifest could not be imported. [`IngestError::Rejected`] carries
/// the locatable findings (renderable as `PL7xx` lint diagnostics); the
/// other variants describe input so malformed that no node-level location
/// exists yet.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The text is not valid JSON.
    Json(String),
    /// The JSON does not have the manifest's structure (missing or
    /// mistyped fields, bad attribute values).
    Schema(String),
    /// The manifest has no nodes — an empty graph cannot be planned.
    Empty,
    /// The manifest parsed but validation found fatal issues; every issue
    /// found (including non-fatal warnings) is listed.
    Rejected(Vec<ImportIssue>),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Json(m) => write!(f, "manifest is not valid JSON: {m}"),
            IngestError::Schema(m) => write!(f, "manifest violates schema: {m}"),
            IngestError::Empty => write!(f, "manifest has no nodes"),
            IngestError::Rejected(issues) => {
                write!(f, "manifest rejected ({} issue(s)):", issues.len())?;
                for issue in issues {
                    write!(f, "\n  - {issue}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for IngestError {}

impl IngestError {
    /// The issues this error renders as `PL7xx` diagnostics (empty for the
    /// structural variants, which carry their own message).
    pub fn issues(&self) -> &[ImportIssue] {
        match self {
            IngestError::Rejected(issues) => issues,
            _ => &[],
        }
    }
}

/// A successful import: the lowered graph plus any non-fatal findings
/// (warning-severity [`ImportIssue`]s such as inert sparsity annotations).
#[derive(Debug, Clone)]
pub struct Import {
    /// The lowered graph, ready for the planning pipeline.
    pub graph: Graph,
    /// Warning-severity issues (`PL706`) raised during validation.
    pub warnings: Vec<ImportIssue>,
}

// ---------------------------------------------------------------------------
// Raw manifest
// ---------------------------------------------------------------------------
//
// Both frontends — the streaming reader ([`import_str`]'s hot path, which
// never builds a JSON tree) and the [`Value`] walker ([`import_value`],
// the serve daemon's inline-manifest path) — parse into this borrowed
// intermediate, and a single `lower` turns it into a [`Graph`]. Keeping
// validation and lowering in one place is what guarantees the two entry
// points cannot drift apart semantically.

/// An attribute value a node hyperparameter can take. Anything else
/// (arrays, objects, booleans) is dropped at parse time; the operator
/// codec then reports the attribute as missing if it needed it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AttrVal<'a> {
    Num(f64),
    Str(Cow<'a, str>),
}

pub(crate) type Attrs<'a> = Vec<(Cow<'a, str>, AttrVal<'a>)>;

#[derive(Debug, Clone)]
pub(crate) struct RawNode<'a> {
    pub name: Option<Cow<'a, str>>,
    pub op: Cow<'a, str>,
    pub attrs: Attrs<'a>,
    pub sparsity: Option<f64>,
    pub input: Option<TensorShape>,
}

#[derive(Debug, Clone)]
pub(crate) struct RawManifest<'a> {
    pub name: Cow<'a, str>,
    pub input: TensorShape,
    pub nodes: Vec<RawNode<'a>>,
    pub skip_edges: Vec<(usize, usize)>,
}

// ---------------------------------------------------------------------------
// Value helpers
// ---------------------------------------------------------------------------

fn schema(msg: impl Into<String>) -> IngestError {
    IngestError::Schema(msg.into())
}

fn as_object<'a>(v: &'a Value, what: &str) -> Result<&'a [(String, Value)], IngestError> {
    match v {
        Value::Object(fields) => Ok(fields),
        other => Err(schema(format!(
            "{what} must be an object, got {}",
            other.kind()
        ))),
    }
}

fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn require<'a>(
    fields: &'a [(String, Value)],
    key: &str,
    what: &str,
) -> Result<&'a Value, IngestError> {
    get(fields, key).ok_or_else(|| schema(format!("{what} is missing field `{key}`")))
}

fn as_str<'a>(v: &'a Value, what: &str) -> Result<&'a str, IngestError> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(schema(format!(
            "{what} must be a string, got {}",
            other.kind()
        ))),
    }
}

fn as_array<'a>(v: &'a Value, what: &str) -> Result<&'a [Value], IngestError> {
    match v {
        Value::Array(items) => Ok(items),
        other => Err(schema(format!(
            "{what} must be an array, got {}",
            other.kind()
        ))),
    }
}

fn as_f64(v: &Value, what: &str) -> Result<f64, IngestError> {
    match v {
        Value::Num(n) => Ok(*n),
        other => Err(schema(format!(
            "{what} must be a number, got {}",
            other.kind()
        ))),
    }
}

/// Non-negative integer; rejects fractions, negatives and non-finite input.
fn as_usize(v: &Value, what: &str) -> Result<usize, IngestError> {
    let n = as_f64(v, what)?;
    if !n.is_finite() || n.fract() != 0.0 || n < 0.0 || n > usize::MAX as f64 {
        return Err(schema(format!(
            "{what} must be a non-negative integer, got {n}"
        )));
    }
    Ok(n as usize)
}

// ---------------------------------------------------------------------------
// Shape codec
// ---------------------------------------------------------------------------

fn shape_from_value(v: &Value, what: &str) -> Result<TensorShape, IngestError> {
    let fields = as_object(v, what)?;
    let kind = as_str(require(fields, "kind", what)?, &format!("{what}.kind"))?;
    let dims_v = as_array(require(fields, "dims", what)?, &format!("{what}.dims"))?;
    let mut dims = Vec::with_capacity(dims_v.len());
    for (i, d) in dims_v.iter().enumerate() {
        let n = as_usize(d, &format!("{what}.dims[{i}]"))?;
        if n == 0 {
            return Err(schema(format!(
                "{what}.dims[{i}] must be a positive integer"
            )));
        }
        dims.push(n);
    }
    shape_from_parts(kind, &dims, what)
}

/// Assembles a [`TensorShape`] from an already-validated kind string and
/// positive dims — the piece both manifest frontends share.
pub(crate) fn shape_from_parts(
    kind: &str,
    dims: &[usize],
    what: &str,
) -> Result<TensorShape, IngestError> {
    match (kind, dims) {
        ("chw", &[c, h, w]) => Ok(TensorShape::chw(c, h, w)),
        ("tokens", &[n, d]) => Ok(TensorShape::tokens(n, d)),
        ("flat", &[n]) => Ok(TensorShape::flat(n)),
        ("chw", _) | ("tokens", _) | ("flat", _) => Err(schema(format!(
            "{what}: shape kind `{kind}` takes {} dims, got {}",
            match kind {
                "chw" => 3,
                "tokens" => 2,
                _ => 1,
            },
            dims.len()
        ))),
        _ => Err(schema(format!(
            "{what}: unknown shape kind `{kind}` (expected `chw`, `tokens` or `flat`)"
        ))),
    }
}

fn shape_to_value(s: TensorShape) -> Value {
    let (kind, dims) = match s {
        TensorShape::Chw { c, h, w } => ("chw", vec![c, h, w]),
        TensorShape::Tokens { n, d } => ("tokens", vec![n, d]),
        TensorShape::Flat(n) => ("flat", vec![n]),
    };
    Value::Object(vec![
        ("kind".into(), Value::Str(kind.into())),
        (
            "dims".into(),
            Value::Array(dims.into_iter().map(|d| Value::Num(d as f64)).collect()),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Operator codec
// ---------------------------------------------------------------------------

fn attr<'x, 'a>(attrs: &'x Attrs<'a>, key: &str) -> Option<&'x AttrVal<'a>> {
    attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Non-negative integer from an attribute number; the context closure is
/// only invoked on the error path so the happy path allocates nothing.
fn usize_from(n: f64, what: impl FnOnce() -> String) -> Result<usize, IngestError> {
    if !n.is_finite() || n.fract() != 0.0 || n < 0.0 || n > usize::MAX as f64 {
        return Err(schema(format!(
            "{} must be a non-negative integer, got {n}",
            what()
        )));
    }
    Ok(n as usize)
}

fn attr_usize(attrs: &Attrs<'_>, key: &str, node: usize) -> Result<usize, IngestError> {
    match attr(attrs, key) {
        Some(AttrVal::Num(n)) => usize_from(*n, || format!("node {node} attribute `{key}`")),
        Some(AttrVal::Str(_)) => Err(schema(format!(
            "node {node} attribute `{key}` must be a number, got string"
        ))),
        None => Err(schema(format!("node {node} is missing field `{key}`"))),
    }
}

fn attr_usize_or(
    attrs: &Attrs<'_>,
    key: &str,
    node: usize,
    default: usize,
) -> Result<usize, IngestError> {
    match attr(attrs, key) {
        Some(AttrVal::Num(n)) => usize_from(*n, || format!("node {node} attribute `{key}`")),
        Some(AttrVal::Str(_)) => Err(schema(format!(
            "node {node} attribute `{key}` must be a number, got string"
        ))),
        None => Ok(default),
    }
}

fn attr_str<'x>(attrs: &'x Attrs<'_>, key: &str, node: usize) -> Result<&'x str, IngestError> {
    match attr(attrs, key) {
        Some(AttrVal::Str(s)) => Ok(s),
        Some(AttrVal::Num(_)) => Err(schema(format!(
            "node {node} attribute `{key}` must be a string, got number"
        ))),
        None => Err(schema(format!("node {node} is missing field `{key}`"))),
    }
}

/// Parses a node's operator; `Ok(None)` means the `op` string is outside
/// the cost model's vocabulary (reported as an [`ImportIssue::UnknownOp`],
/// not a hard schema error, so validation can continue past it).
fn op_from_node(node: usize, op: &str, attrs: &Attrs<'_>) -> Result<Option<OpKind>, IngestError> {
    Ok(Some(match op {
        "conv2d" => {
            let kernel = attr_usize(attrs, "kernel", node)?;
            OpKind::Conv2d {
                in_ch: attr_usize(attrs, "in_ch", node)?,
                out_ch: attr_usize(attrs, "out_ch", node)?,
                kernel,
                stride: attr_usize_or(attrs, "stride", node, 1)?,
                padding: attr_usize_or(attrs, "padding", node, 0)?,
                groups: attr_usize_or(attrs, "groups", node, 1)?,
            }
        }
        "linear" => OpKind::Linear {
            in_features: attr_usize(attrs, "in_features", node)?,
            out_features: attr_usize(attrs, "out_features", node)?,
        },
        "pool" => {
            let kind = match attr_str(attrs, "pool", node)? {
                "max" => PoolKind::Max,
                "avg" => PoolKind::Avg,
                "global_avg" => PoolKind::GlobalAvg,
                other => {
                    return Err(schema(format!(
                        "node {node}: unknown pool kind `{other}` \
                         (expected `max`, `avg` or `global_avg`)"
                    )))
                }
            };
            let kernel = attr_usize_or(attrs, "kernel", node, 1)?;
            OpKind::Pool {
                kind,
                kernel,
                stride: attr_usize_or(attrs, "stride", node, kernel)?,
            }
        }
        "batchnorm" => OpKind::BatchNorm,
        "layernorm" => OpKind::LayerNorm,
        "activation" => {
            let act = match attr_str(attrs, "act", node)? {
                "relu" => ActKind::Relu,
                "gelu" => ActKind::Gelu,
                "hard_swish" => ActKind::HardSwish,
                "sigmoid" => ActKind::Sigmoid,
                "softmax" => ActKind::Softmax,
                other => {
                    return Err(schema(format!(
                        "node {node}: unknown activation `{other}` (expected `relu`, \
                         `gelu`, `hard_swish`, `sigmoid` or `softmax`)"
                    )))
                }
            };
            OpKind::Activation(act)
        }
        "attention" => OpKind::Attention {
            embed_dim: attr_usize(attrs, "embed_dim", node)?,
            heads: attr_usize(attrs, "heads", node)?,
        },
        "add" => OpKind::Add,
        "concat" => OpKind::Concat {
            extra_ch: attr_usize(attrs, "extra_ch", node)?,
        },
        "flatten" => OpKind::Flatten,
        "patch_embed" => OpKind::PatchEmbed {
            in_ch: attr_usize(attrs, "in_ch", node)?,
            embed_dim: attr_usize(attrs, "embed_dim", node)?,
            patch: attr_usize(attrs, "patch", node)?,
            extra_tokens: attr_usize_or(attrs, "extra_tokens", node, 0)?,
        },
        "embedding" => OpKind::Embedding {
            vocab: attr_usize(attrs, "vocab", node)?,
            embed_dim: attr_usize(attrs, "embed_dim", node)?,
        },
        _ => return Ok(None),
    }))
}

fn num(n: usize) -> Value {
    Value::Num(n as f64)
}

fn op_attrs_value(op: &OpKind) -> Vec<(String, Value)> {
    match *op {
        OpKind::Conv2d {
            in_ch,
            out_ch,
            kernel,
            stride,
            padding,
            groups,
        } => vec![
            ("in_ch".into(), num(in_ch)),
            ("out_ch".into(), num(out_ch)),
            ("kernel".into(), num(kernel)),
            ("stride".into(), num(stride)),
            ("padding".into(), num(padding)),
            ("groups".into(), num(groups)),
        ],
        OpKind::Linear {
            in_features,
            out_features,
        } => vec![
            ("in_features".into(), num(in_features)),
            ("out_features".into(), num(out_features)),
        ],
        OpKind::Pool {
            kind,
            kernel,
            stride,
        } => vec![
            (
                "pool".into(),
                Value::Str(
                    match kind {
                        PoolKind::Max => "max",
                        PoolKind::Avg => "avg",
                        PoolKind::GlobalAvg => "global_avg",
                    }
                    .into(),
                ),
            ),
            ("kernel".into(), num(kernel)),
            ("stride".into(), num(stride)),
        ],
        OpKind::BatchNorm | OpKind::LayerNorm | OpKind::Add | OpKind::Flatten => vec![],
        OpKind::Activation(act) => vec![(
            "act".into(),
            Value::Str(
                match act {
                    ActKind::Relu => "relu",
                    ActKind::Gelu => "gelu",
                    ActKind::HardSwish => "hard_swish",
                    ActKind::Sigmoid => "sigmoid",
                    ActKind::Softmax => "softmax",
                }
                .into(),
            ),
        )],
        OpKind::Attention { embed_dim, heads } => vec![
            ("embed_dim".into(), num(embed_dim)),
            ("heads".into(), num(heads)),
        ],
        OpKind::Concat { extra_ch } => vec![("extra_ch".into(), num(extra_ch))],
        OpKind::PatchEmbed {
            in_ch,
            embed_dim,
            patch,
            extra_tokens,
        } => vec![
            ("in_ch".into(), num(in_ch)),
            ("embed_dim".into(), num(embed_dim)),
            ("patch".into(), num(patch)),
            ("extra_tokens".into(), num(extra_tokens)),
        ],
        OpKind::Embedding { vocab, embed_dim } => vec![
            ("vocab".into(), num(vocab)),
            ("embed_dim".into(), num(embed_dim)),
        ],
    }
}

// ---------------------------------------------------------------------------
// Import
// ---------------------------------------------------------------------------

struct NodeSpec {
    name: String,
    op: Option<OpKind>,
    sparsity: f64,
    input_override: Option<TensorShape>,
}

/// Imports a manifest from JSON text.
///
/// This is the hot path (the CLI's `--model` flag, the bench harness): a
/// streaming reader lowers the text straight into the raw manifest without
/// materialising a JSON tree, then shares `lower` with [`import_value`].
///
/// # Errors
///
/// Every failure mode of untrusted input maps to an [`IngestError`]; this
/// function never panics.
pub fn import_str(text: &str) -> Result<Import, IngestError> {
    lower(reader::read_manifest(text)?)
}

/// Imports a manifest from an already-parsed JSON value (the serve daemon's
/// inline-manifest path).
///
/// # Errors
///
/// See [`import_str`].
pub fn import_value(v: &Value) -> Result<Import, IngestError> {
    lower(raw_from_value(v)?)
}

/// Checks the schema version and rejects mismatches without validating
/// anything else — later versions may carry constructs this build cannot
/// even parse, so guessing past the version would produce noise findings.
pub(crate) fn check_version(n: f64) -> Result<(), IngestError> {
    if !n.is_finite() || n.fract() != 0.0 || n < 0.0 {
        return Err(schema(format!(
            "manifest.schema_version must be an integer, got {n}"
        )));
    }
    if n as u64 != SCHEMA_VERSION {
        return Err(IngestError::Rejected(vec![
            ImportIssue::UnsupportedSchemaVersion {
                found: n as u64,
                supported: SCHEMA_VERSION,
            },
        ]));
    }
    Ok(())
}

/// Walks a parsed [`Value`] into the raw manifest.
fn raw_from_value(v: &Value) -> Result<RawManifest<'_>, IngestError> {
    let fields = as_object(v, "manifest")?;
    check_version(as_f64(
        require(fields, "schema_version", "manifest")?,
        "manifest.schema_version",
    )?)?;
    let name = as_str(require(fields, "name", "manifest")?, "manifest.name")?;
    let input = shape_from_value(require(fields, "input", "manifest")?, "manifest.input")?;
    let nodes_v = as_array(require(fields, "nodes", "manifest")?, "manifest.nodes")?;

    let mut nodes = Vec::with_capacity(nodes_v.len());
    for (i, nv) in nodes_v.iter().enumerate() {
        let nf = as_object(nv, &format!("node {i}"))?;
        let op = Cow::Borrowed(as_str(
            require(nf, "op", &format!("node {i}"))?,
            &format!("node {i}.op"),
        )?);
        let mut attrs: Attrs<'_> = Vec::new();
        if let Some(a) = get(nf, "attrs") {
            for (k, av) in as_object(a, &format!("node {i}.attrs"))? {
                match av {
                    Value::Num(n) => attrs.push((Cow::Borrowed(k.as_str()), AttrVal::Num(*n))),
                    Value::Str(s) => {
                        attrs.push((Cow::Borrowed(k.as_str()), AttrVal::Str(Cow::Borrowed(s))));
                    }
                    // Arrays/objects/booleans/null are not attribute
                    // material; the operator codec reports the attribute
                    // as missing if it needed it.
                    _ => {}
                }
            }
        }
        let sparsity = match get(nf, "sparsity") {
            Some(Value::Null) | None => None,
            Some(sv) => Some(as_f64(sv, &format!("node {i}.sparsity"))?),
        };
        let name = match get(nf, "name") {
            Some(Value::Null) | None => None,
            Some(nm) => Some(Cow::Borrowed(as_str(nm, &format!("node {i}.name"))?)),
        };
        let input = match get(nf, "input") {
            Some(Value::Null) | None => None,
            Some(iv) => Some(shape_from_value(iv, &format!("node {i}.input"))?),
        };
        nodes.push(RawNode {
            name,
            op,
            attrs,
            sparsity,
            input,
        });
    }

    let mut skip_edges = Vec::new();
    if let Some(ev) = get(fields, "skip_edges") {
        for (i, edge) in as_array(ev, "manifest.skip_edges")?.iter().enumerate() {
            let pair = as_array(edge, &format!("skip_edges[{i}]"))?;
            if pair.len() != 2 {
                return Err(schema(format!(
                    "skip_edges[{i}] must be a [from, to] pair, got {} elements",
                    pair.len()
                )));
            }
            let from = as_usize(&pair[0], &format!("skip_edges[{i}][0]"))?;
            let to = as_usize(&pair[1], &format!("skip_edges[{i}][1]"))?;
            skip_edges.push((from, to));
        }
    }

    Ok(RawManifest {
        name: Cow::Borrowed(name),
        input,
        nodes,
        skip_edges,
    })
}

/// Validates a raw manifest and lowers it into a [`Graph`] — the single
/// back half both [`import_str`] and [`import_value`] share.
fn lower(raw: RawManifest<'_>) -> Result<Import, IngestError> {
    if raw.nodes.is_empty() {
        return Err(IngestError::Empty);
    }
    let input = raw.input;
    let name = raw.name.into_owned();

    let mut issues: Vec<ImportIssue> = Vec::new();
    let mut specs: Vec<NodeSpec> = Vec::with_capacity(raw.nodes.len());
    for (i, node) in raw.nodes.iter().enumerate() {
        let op = op_from_node(i, &node.op, &node.attrs)?;
        if op.is_none() {
            issues.push(ImportIssue::UnknownOp {
                node: i,
                op: node.op.to_string(),
            });
        }
        let sparsity = match node.sparsity {
            None => 0.0,
            Some(s) if !s.is_finite() || !(0.0..=1.0).contains(&s) => {
                issues.push(ImportIssue::SparsityOutOfRange { node: i, value: s });
                0.0
            }
            Some(s) => s,
        };
        let node_name = match &node.name {
            Some(n) => n.to_string(),
            None => format!("node{i}"),
        };
        specs.push(NodeSpec {
            name: node_name,
            op,
            sparsity,
            input_override: node.input,
        });
    }

    // Shape threading. Once a node fails inference (or is unknown) the
    // running shape is unknowable; downstream checks resume at the next
    // explicit `input` override so one bad node does not cascade into a
    // spurious finding per remaining node.
    let mut cur: Option<TensorShape> = Some(input);
    for (i, spec) in specs.iter().enumerate() {
        if let Some(s) = spec.input_override {
            cur = Some(s);
        }
        cur = match (spec.op, cur) {
            (Some(op), Some(shape)) => {
                let out = op.try_output_shape(shape);
                if out.is_none() {
                    issues.push(ImportIssue::ShapeInference {
                        node: i,
                        op: op.name().to_string(),
                        input: shape.to_string(),
                    });
                }
                out
            }
            _ => None,
        };
    }

    // Skip edges: must point forward to an existing node.
    let mut skips: Vec<(usize, usize)> = Vec::new();
    for &(from, to) in &raw.skip_edges {
        if from >= to {
            issues.push(ImportIssue::SkipEdge {
                from,
                to,
                detail: "edge must point forward (from < to); backward edges make the \
                         graph cyclic"
                    .into(),
            });
        } else if to >= specs.len() {
            issues.push(ImportIssue::SkipEdge {
                from,
                to,
                detail: format!("edge dangles past the last node ({})", specs.len() - 1),
            });
        } else {
            skips.push((from, to));
        }
    }

    if issues.iter().any(ImportIssue::is_fatal) {
        return Err(IngestError::Rejected(issues));
    }

    // Lowering. Validation above proved every push succeeds, so a `None`
    // here would be a bug in the validator — still surfaced as an error,
    // not a panic, because this path handles untrusted input.
    let mut b = GraphBuilder::new(name, input);
    for spec in specs {
        if let Some(s) = spec.input_override {
            b.set_current_shape(s);
        }
        let op = spec.op.expect("fatal-issue check rejected unknown ops");
        if b.try_push_sparse(spec.name, op, spec.sparsity).is_none() {
            return Err(IngestError::Rejected(vec![ImportIssue::ShapeInference {
                node: b.next_id(),
                op: op.name().to_string(),
                input: b.current_shape().to_string(),
            }]));
        }
    }
    for (from, to) in skips {
        b.add_skip(from, to);
    }
    let graph = b.try_finish().map_err(|_| IngestError::Empty)?;

    // Warning pass: sparsity that cannot scale anything.
    for l in graph.layers() {
        if l.sparsity() > 0.0 && l.flops() == 0.0 {
            issues.push(ImportIssue::InertSparsity {
                node: l.id,
                op: l.op.name().to_string(),
            });
        }
    }

    Ok(Import {
        graph,
        warnings: issues,
    })
}

/// Imports a manifest and runs the lint ingest pack (`PL7xx`) over every
/// issue raised, fatal or not — the entry point the CLI and serve daemon
/// share so no import skips linting.
pub fn import_and_lint(
    subject: &str,
    text: &str,
    config: &LintConfig,
) -> (Result<Import, IngestError>, LintReport) {
    let result = import_str(text);
    let report = match &result {
        Ok(import) => lint_import(subject, &import.warnings, config),
        Err(err) => lint_import(subject, err.issues(), config),
    };
    (result, report)
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

fn node_to_value(layer: &Layer, expected_input: TensorShape) -> Value {
    let mut nf: Vec<(String, Value)> = vec![
        ("op".into(), Value::Str(layer.op.name().into())),
        ("name".into(), Value::Str(layer.name.clone())),
    ];
    if layer.input_shape != expected_input {
        // Branch point: this layer consumes an earlier activation, not its
        // predecessor's output.
        nf.push(("input".into(), shape_to_value(layer.input_shape)));
    }
    let attrs = op_attrs_value(&layer.op);
    if !attrs.is_empty() {
        nf.push(("attrs".into(), Value::Object(attrs)));
    }
    if layer.sparsity() != 0.0 {
        nf.push(("sparsity".into(), Value::Num(layer.sparsity())));
    }
    Value::Object(nf)
}

/// Serializes a graph as a manifest [`Value`] (see the module docs for the
/// schema).
pub fn export_value(graph: &Graph) -> Value {
    let mut nodes = Vec::with_capacity(graph.num_layers());
    let mut expected = graph.input_shape();
    for layer in graph.layers() {
        nodes.push(node_to_value(layer, expected));
        expected = layer.output_shape;
    }
    let edges = graph
        .skip_edges()
        .iter()
        .map(|&(from, to)| Value::Array(vec![num(from), num(to)]))
        .collect();
    Value::Object(vec![
        ("schema_version".into(), Value::Num(SCHEMA_VERSION as f64)),
        ("name".into(), Value::Str(graph.name().into())),
        ("input".into(), shape_to_value(graph.input_shape())),
        ("nodes".into(), Value::Array(nodes)),
        ("skip_edges".into(), Value::Array(edges)),
    ])
}

/// Serializes a graph as pretty-printed manifest JSON. Lossless:
/// re-importing reproduces the graph's [`Graph::fingerprint`] exactly.
pub fn export(graph: &Graph) -> String {
    serde_json::to_string_pretty(&export_value(graph))
        .expect("graph manifests contain only finite numbers")
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlens_dnn::zoo;

    fn tiny_manifest() -> String {
        r#"{
            "schema_version": 1,
            "name": "tiny",
            "input": { "kind": "chw", "dims": [3, 32, 32] },
            "nodes": [
                { "op": "conv2d", "attrs": { "in_ch": 3, "out_ch": 8, "kernel": 3, "padding": 1 } },
                { "op": "activation", "attrs": { "act": "relu" } },
                { "op": "add" },
                { "op": "flatten" },
                { "op": "linear", "attrs": { "in_features": 8192, "out_features": 10 } }
            ],
            "skip_edges": [[0, 2]]
        }"#
        .to_string()
    }

    #[test]
    fn imports_a_minimal_manifest() {
        let imp = import_str(&tiny_manifest()).unwrap();
        assert_eq!(imp.graph.num_layers(), 5);
        assert_eq!(imp.graph.name(), "tiny");
        assert_eq!(imp.graph.skip_edges(), &[(0, 2)]);
        assert!(imp.warnings.is_empty());
        assert_eq!(
            imp.graph.output_shape(),
            TensorShape::flat(10),
            "shapes thread through conv -> relu -> add -> flatten -> linear"
        );
    }

    #[test]
    fn imports_a_transformer_block() {
        let text = r#"{
            "schema_version": 1,
            "name": "tiny-transformer",
            "input": { "kind": "flat", "dims": [16] },
            "nodes": [
                { "op": "embedding", "attrs": { "vocab": 1000, "embed_dim": 64 } },
                { "op": "layernorm" },
                { "op": "attention", "attrs": { "embed_dim": 64, "heads": 4 } },
                { "op": "add" },
                { "op": "layernorm" },
                { "op": "linear", "attrs": { "in_features": 64, "out_features": 256 } },
                { "op": "activation", "attrs": { "act": "gelu" } },
                { "op": "linear", "attrs": { "in_features": 256, "out_features": 64 } },
                { "op": "add" }
            ],
            "skip_edges": [[0, 3], [4, 8]]
        }"#;
        let imp = import_str(text).unwrap();
        assert_eq!(imp.graph.output_shape(), TensorShape::tokens(16, 64));
        assert!(imp.graph.stats().total_flops > 0.0);
    }

    #[test]
    fn every_zoo_model_round_trips_losslessly() {
        for (name, build) in zoo::all_models() {
            let g = build();
            let manifest = export(&g);
            let back =
                import_str(&manifest).unwrap_or_else(|e| panic!("{name} failed to re-import: {e}"));
            assert_eq!(
                back.graph.fingerprint(),
                g.fingerprint(),
                "{name} fingerprint changed across export -> import"
            );
            assert_eq!(back.graph.num_layers(), g.num_layers(), "{name}");
            assert_eq!(back.graph.skip_edges(), g.skip_edges(), "{name}");
            assert!(back.warnings.is_empty(), "{name}: {:?}", back.warnings);
            // Layer names are not part of the fingerprint; check them too.
            for (a, b) in g.layers().iter().zip(back.graph.layers()) {
                assert_eq!(a.name, b.name, "{name} layer {}", a.id);
            }
        }
    }

    #[test]
    fn sparsity_survives_round_trip() {
        let mut b = GraphBuilder::new("sparse", TensorShape::chw(3, 8, 8));
        b.try_push_sparse(
            "c1",
            OpKind::Conv2d {
                in_ch: 3,
                out_ch: 4,
                kernel: 3,
                stride: 1,
                padding: 1,
                groups: 1,
            },
            0.75,
        )
        .unwrap();
        let g = b.try_finish().unwrap();
        let back = import_str(&export(&g)).unwrap();
        assert_eq!(back.graph.layers()[0].sparsity(), 0.75);
        assert_eq!(back.graph.fingerprint(), g.fingerprint());
    }

    #[test]
    fn truncated_json_is_an_error_not_a_panic() {
        let full = tiny_manifest();
        // Every prefix of a valid manifest must fail cleanly.
        for cut in [1, 10, 50, full.len() / 2, full.len() - 1] {
            let err = import_str(&full[..cut]).unwrap_err();
            assert!(
                matches!(err, IngestError::Json(_) | IngestError::Schema(_)),
                "prefix of {cut} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn unknown_op_is_rejected_with_location() {
        let text = r#"{
            "schema_version": 1, "name": "m",
            "input": { "kind": "flat", "dims": [8] },
            "nodes": [
                { "op": "linear", "attrs": { "in_features": 8, "out_features": 8 } },
                { "op": "softplus" }
            ]
        }"#;
        match import_str(text).unwrap_err() {
            IngestError::Rejected(issues) => {
                assert_eq!(
                    issues,
                    vec![ImportIssue::UnknownOp {
                        node: 1,
                        op: "softplus".into()
                    }]
                );
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn negative_and_fractional_dims_are_schema_errors() {
        for dims in ["[-3, 32, 32]", "[3, 32.5, 32]", "[3, 0, 32]"] {
            let text = format!(
                r#"{{"schema_version": 1, "name": "m",
                    "input": {{ "kind": "chw", "dims": {dims} }},
                    "nodes": [{{ "op": "flatten" }}]}}"#
            );
            assert!(
                matches!(import_str(&text), Err(IngestError::Schema(_))),
                "dims {dims} should be a schema error"
            );
        }
    }

    #[test]
    fn bad_skip_edges_are_rejected() {
        let base = |edges: &str| {
            format!(
                r#"{{"schema_version": 1, "name": "m",
                    "input": {{ "kind": "flat", "dims": [8] }},
                    "nodes": [
                        {{ "op": "linear", "attrs": {{ "in_features": 8, "out_features": 8 }} }},
                        {{ "op": "add" }}
                    ],
                    "skip_edges": {edges}}}"#
            )
        };
        // Dangling: target beyond the last node.
        match import_str(&base("[[0, 5]]")).unwrap_err() {
            IngestError::Rejected(issues) => {
                assert!(matches!(
                    issues[0],
                    ImportIssue::SkipEdge { from: 0, to: 5, .. }
                ));
            }
            other => panic!("{other:?}"),
        }
        // Cyclic: backward and self edges.
        for edges in ["[[1, 0]]", "[[1, 1]]"] {
            assert!(
                matches!(import_str(&base(edges)), Err(IngestError::Rejected(_))),
                "{edges} should be rejected"
            );
        }
        // Valid forward edge passes.
        assert!(import_str(&base("[[0, 1]]")).is_ok());
    }

    #[test]
    fn out_of_range_sparsity_is_rejected() {
        for s in ["1.5", "-0.1", "1e30"] {
            let text = format!(
                r#"{{"schema_version": 1, "name": "m",
                    "input": {{ "kind": "flat", "dims": [8] }},
                    "nodes": [{{ "op": "linear", "sparsity": {s},
                                 "attrs": {{ "in_features": 8, "out_features": 8 }} }}]}}"#
            );
            match import_str(&text).unwrap_err() {
                IngestError::Rejected(issues) => {
                    assert!(
                        matches!(issues[0], ImportIssue::SparsityOutOfRange { node: 0, .. }),
                        "sparsity {s}: {issues:?}"
                    );
                }
                other => panic!("sparsity {s}: {other:?}"),
            }
        }
    }

    #[test]
    fn incompatible_shapes_are_rejected_not_panicked() {
        // conv2d cannot consume the flat vector flatten produces.
        let text = r#"{
            "schema_version": 1, "name": "m",
            "input": { "kind": "chw", "dims": [3, 8, 8] },
            "nodes": [
                { "op": "flatten" },
                { "op": "conv2d", "attrs": { "in_ch": 3, "out_ch": 4, "kernel": 3 } }
            ]
        }"#;
        match import_str(text).unwrap_err() {
            IngestError::Rejected(issues) => {
                assert_eq!(
                    issues.len(),
                    1,
                    "shape failure must not cascade: {issues:?}"
                );
                assert!(matches!(
                    issues[0],
                    ImportIssue::ShapeInference { node: 1, .. }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_node_list_is_the_empty_error() {
        let text = r#"{"schema_version": 1, "name": "m",
                       "input": { "kind": "flat", "dims": [8] }, "nodes": []}"#;
        assert_eq!(import_str(text).unwrap_err(), IngestError::Empty);
    }

    #[test]
    fn future_schema_versions_are_refused_without_guessing() {
        let text = r#"{"schema_version": 2, "name": "m",
                       "input": { "kind": "flat", "dims": [8] },
                       "nodes": [{ "op": "some-future-op" }]}"#;
        match import_str(text).unwrap_err() {
            IngestError::Rejected(issues) => {
                assert_eq!(
                    issues,
                    vec![ImportIssue::UnsupportedSchemaVersion {
                        found: 2,
                        supported: 1
                    }],
                    "version mismatch must short-circuit node validation"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn inert_sparsity_warns_but_imports() {
        let text = r#"{
            "schema_version": 1, "name": "m",
            "input": { "kind": "chw", "dims": [3, 8, 8] },
            "nodes": [{ "op": "flatten", "sparsity": 0.5 }]
        }"#;
        let imp = import_str(text).unwrap();
        assert_eq!(
            imp.warnings,
            vec![ImportIssue::InertSparsity {
                node: 0,
                op: "flatten".into()
            }]
        );
        let (result, report) = import_and_lint("m", text, &LintConfig::default());
        assert!(result.is_ok());
        assert!(report.fired("PL706"));
        assert_eq!(report.num_errors(), 0);
    }

    #[test]
    fn rejection_lints_as_pl7xx() {
        let text = r#"{"schema_version": 1, "name": "m",
                       "input": { "kind": "flat", "dims": [8] },
                       "nodes": [{ "op": "softplus" }]}"#;
        let (result, report) = import_and_lint("m", text, &LintConfig::default());
        assert!(result.is_err());
        assert!(report.fired("PL702"));
        assert!(report.has_errors());
    }

    #[test]
    fn zero_sparsity_annotation_is_bit_identical_to_dense() {
        // An exporter that writes "sparsity": 0 on every node must produce
        // the same graph — same fingerprint, same simulated physics — as
        // one that omits the key entirely.
        let dense = r#"{
            "schema_version": 1, "name": "m",
            "input": { "kind": "chw", "dims": [3, 16, 16] },
            "nodes": [
                { "op": "conv2d", "attrs": { "in_ch": 3, "out_ch": 8, "kernel": 3, "padding": 1 } },
                { "op": "batchnorm" },
                { "op": "activation", "attrs": { "act": "relu" } }
            ]
        }"#;
        let annotated = dense.replace(
            r#"{ "op": "batchnorm" }"#,
            r#"{ "op": "batchnorm", "sparsity": 0 }"#,
        );
        assert_ne!(dense, annotated);
        let a = import_str(dense).unwrap().graph;
        let b = import_str(&annotated).unwrap().graph;
        assert_eq!(a.fingerprint(), b.fingerprint());
        let agx = powerlens_platform::Platform::agx();
        for (la, lb) in a.layers().iter().zip(b.layers()) {
            let ta = agx.layer_timing(la, 8, 3, 1);
            let tb = agx.layer_timing(lb, 8, 3, 1);
            assert_eq!(ta.total.to_bits(), tb.total.to_bits());
            assert_eq!(
                agx.layer_energy(la, 8, 3, 1).to_bits(),
                agx.layer_energy(lb, 8, 3, 1).to_bits()
            );
        }
    }

    #[test]
    fn imported_zoo_models_simulate_bit_identically() {
        // Differential: a round-tripped dense graph must not perturb the
        // platform model anywhere — planning an imported copy of a zoo
        // model hits the same cache entries and produces the same physics.
        let agx = powerlens_platform::Platform::agx();
        for (name, build) in zoo::all_models() {
            let g = build();
            let back = import_str(&export(&g)).unwrap().graph;
            for (la, lb) in g.layers().iter().zip(back.layers()) {
                assert_eq!(
                    agx.layer_energy(la, 4, 2, 0).to_bits(),
                    agx.layer_energy(lb, 4, 2, 0).to_bits(),
                    "{name} layer {}",
                    la.id
                );
            }
        }
    }

    /// Collapses an import outcome to what the frontends must agree on:
    /// success content (fingerprint, graph name, warnings) and failure
    /// variant plus issue list. Structural *messages* may differ (the
    /// streaming reader words JSON errors its own way); everything else
    /// may not.
    fn outcome_shape(r: &Result<Import, IngestError>) -> String {
        match r {
            Ok(imp) => format!(
                "ok fp={:016x} name={} warnings={:?}",
                imp.graph.fingerprint(),
                imp.graph.name(),
                imp.warnings
            ),
            Err(IngestError::Json(_)) => "json".into(),
            Err(IngestError::Schema(_)) => "schema".into(),
            Err(IngestError::Empty) => "empty".into(),
            Err(IngestError::Rejected(issues)) => format!("rejected {issues:?}"),
        }
    }

    #[test]
    fn streaming_and_value_frontends_agree() {
        // The streaming reader (`import_str`) and the Value walker
        // (`import_value`, the serve daemon's inline path) share `lower`,
        // so only their JSON-to-raw front halves can drift. Pin them
        // together: every zoo manifest and every malformed corpus entry
        // must produce the same outcome through both.
        let mut corpus: Vec<String> = zoo::all_models()
            .iter()
            .map(|(_, build)| export(&build()))
            .collect();
        corpus.extend(
            [
                // Failure classes, one per validation layer.
                r#"{"schema_version": 1, "name"#,
                r#"{"schema_version": 1} trailing"#,
                "[]",
                "3",
                "null",
                "{}",
                r#"{"schema_version": 2, "name": "m", "input": {"kind": "flat", "dims": [8]}, "nodes": [{"op": "x"}]}"#,
                r#"{"schema_version": 1.5, "name": "m", "input": {"kind": "flat", "dims": [8]}, "nodes": [{"op": "add"}]}"#,
                r#"{"schema_version": true}"#,
                r#"{"schema_version": 1, "input": {"kind": "flat", "dims": [8]}, "nodes": [{"op": "add"}]}"#,
                r#"{"schema_version": 1, "name": 7, "input": {"kind": "flat", "dims": [8]}, "nodes": [{"op": "add"}]}"#,
                r#"{"schema_version": 1, "name": "m", "input": {"kind": "grid", "dims": [8]}, "nodes": [{"op": "add"}]}"#,
                r#"{"schema_version": 1, "name": "m", "input": {"kind": "chw", "dims": [8]}, "nodes": [{"op": "add"}]}"#,
                r#"{"schema_version": 1, "name": "m", "input": {"kind": "flat", "dims": [8.5]}, "nodes": [{"op": "add"}]}"#,
                r#"{"schema_version": 1, "name": "m", "input": {"kind": "flat", "dims": [8]}, "nodes": []}"#,
                r#"{"schema_version": 1, "name": "m", "input": {"kind": "flat", "dims": [8]}, "nodes": [{"op": "softplus"}]}"#,
                r#"{"schema_version": 1, "name": "m", "input": {"kind": "flat", "dims": [8]}, "nodes": [{"op": "add", "sparsity": 1.5}]}"#,
                r#"{"schema_version": 1, "name": "m", "input": {"kind": "flat", "dims": [8]}, "nodes": [{"op": "add"}, {"op": "add"}], "skip_edges": [[1, 0]]}"#,
                r#"{"schema_version": 1, "name": "m", "input": {"kind": "flat", "dims": [8]}, "nodes": [{"op": "add"}], "skip_edges": [[0, 9]]}"#,
                r#"{"schema_version": 1, "name": "m", "input": {"kind": "flat", "dims": [8]}, "nodes": [{"op": "add"}], "skip_edges": [[0]]}"#,
                r#"{"schema_version": 1, "name": "m", "input": {"kind": "flat", "dims": [8]}, "nodes": [{"op": "add"}], "skip_edges": [["a", "b"]]}"#,
                r#"{"schema_version": 1, "name": "m", "input": {"kind": "flat", "dims": [8]}, "nodes": [{"op": "linear", "attrs": {"in_features": [8], "out_features": 8}}]}"#,
                r#"{"schema_version": 1, "name": "m", "input": {"kind": "flat", "dims": [8]}, "nodes": [{"op": "linear", "attrs": {"in_features": "8", "out_features": 8}}]}"#,
                // Accepted edge cases: duplicate keys (first wins), null
                // optionals, escaped strings, unknown keys, inert sparsity.
                r#"{"schema_version": 1, "schema_version": 99, "name": "first", "name": "second", "input": {"kind": "flat", "dims": [8]}, "nodes": [{"op": "add"}]}"#,
                r#"{"schema_version": 1, "name": "m", "input": {"kind": "flat", "dims": [8]}, "nodes": [{"op": "add", "name": null, "sparsity": null, "input": null}]}"#,
                "{\"schema_version\": 1, \"name\": \"caf\\u00e9 \\\"quoted\\\" \\uD83D\\uDE00\", \"input\": {\"kind\": \"flat\", \"dims\": [8]}, \"nodes\": [{\"op\": \"add\", \"name\": \"l\\nine\"}]}",
                r#"{"schema_version": 1, "name": "m", "future_key": {"deep": [1, {"er": true}]}, "input": {"kind": "flat", "dims": [8], "note": "ignored"}, "nodes": [{"op": "add", "metadata": [1, 2]}]}"#,
                r#"{"schema_version": 1, "name": "m", "input": {"kind": "chw", "dims": [3, 8, 8]}, "nodes": [{"op": "flatten", "sparsity": 0.5}]}"#,
            ]
            .into_iter()
            .map(String::from),
        );
        // An unknown key nested up to and past the JSON depth bound (the
        // root object is one more level): both draw the line at 128.
        for depth in [127, 128, 1_000, 10_000] {
            corpus.push(format!(
                r#"{{"schema_version": 1, "name": "m", "deep": {}{}, "input": {{"kind": "flat", "dims": [8]}}, "nodes": [{{"op": "add"}}]}}"#,
                "[".repeat(depth),
                "]".repeat(depth)
            ));
        }
        for text in &corpus {
            let streamed = import_str(text);
            let walked = match serde_json::from_str::<Value>(text) {
                Ok(v) => import_value(&v),
                Err(e) => Err(IngestError::Json(e.to_string())),
            };
            assert_eq!(
                outcome_shape(&streamed),
                outcome_shape(&walked),
                "frontends disagree on {text:?}\n  streaming: {streamed:?}\n  value:     {walked:?}"
            );
        }
    }

    #[test]
    fn garbage_top_levels_are_schema_errors() {
        for text in ["[]", "3", "\"hi\"", "null", "{}"] {
            let err = import_str(text).unwrap_err();
            assert!(matches!(err, IngestError::Schema(_)), "{text} gave {err:?}");
        }
    }
}
