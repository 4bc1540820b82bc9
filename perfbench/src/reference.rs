//! Reference plans, the comparisons every timed operation is checked
//! against, and the staged oracle planner the traced replays run.

use powerlens::{evaluate_plan, PlanOutcome, PowerLens, PowerLensConfig};
use powerlens_cluster::{DistanceCache, PowerView};
use powerlens_dnn::Graph;
use powerlens_features::GlobalFeatures;
use powerlens_platform::{InstrumentationPlan, InstrumentationPoint, Platform};
use serde::Value;

use crate::trace::Tracer;

/// Inference batch the daemon and the CLI plan with by default.
pub const BATCH: usize = 8;

/// The planner configuration the daemon and the CLI use by default.
pub fn config() -> PowerLensConfig {
    PowerLensConfig {
        batch: BATCH,
        ..PowerLensConfig::default()
    }
}

/// The observable content of a plan: winning scheme, CPU level, and each
/// power block with the GPU level its instrumentation point sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanShape {
    pub scheme: usize,
    pub cpu_level: usize,
    /// `(start, end, gpu_level)` per block.
    pub blocks: Vec<(usize, usize, usize)>,
}

impl PlanShape {
    pub fn of(outcome: &PlanOutcome) -> Self {
        PlanShape {
            scheme: outcome.scheme_index,
            cpu_level: outcome.plan.cpu_level(),
            blocks: outcome
                .view
                .blocks()
                .iter()
                .zip(outcome.plan.points())
                .map(|(b, p)| (b.start, b.end, p.gpu_level))
                .collect(),
        }
    }

    /// The executable plan (one switch at each block start).
    pub fn plan(&self) -> InstrumentationPlan {
        InstrumentationPlan::new(
            self.blocks
                .iter()
                .map(|&(start, _, gpu_level)| InstrumentationPoint {
                    layer: start,
                    gpu_level,
                })
                .collect(),
            self.cpu_level,
        )
    }
}

/// A model's reference: its oracle plan and that plan's energy-efficiency
/// gain over the BiM heuristic.
#[derive(Debug, Clone)]
pub struct Reference {
    pub shape: PlanShape,
    pub ee_gain: f64,
}

impl Reference {
    /// The exhaustive oracle plan, as `PowerLens::plan_oracle` returns it.
    pub fn oracle(platform: &Platform, graph: &Graph) -> Self {
        let pl = PowerLens::untrained(platform, config());
        let outcome = pl
            .plan_oracle(graph)
            .expect("zoo, example and random graphs have finite features");
        Reference {
            shape: PlanShape::of(&outcome),
            ee_gain: ee_gain_vs_bim(platform, graph, &outcome.plan),
        }
    }
}

/// `evaluate_plan` energy efficiency of `plan` over that of the BiM
/// heuristic plan (Table 1's quantity).
pub fn ee_gain_vs_bim(platform: &Platform, graph: &Graph, plan: &InstrumentationPlan) -> f64 {
    let cfg = config();
    let ee = |p: &InstrumentationPlan| {
        evaluate_plan(platform, graph, p, cfg.batch, cfg.label_images).energy_efficiency
    };
    let bim = powerlens_serve::ops::bim_heuristic_outcome(platform, graph);
    ee(plan) / ee(&bim.plan)
}

/// `PowerLens::plan_oracle`, step by step, with a span around each layer
/// call: features, the distance-matrix build, re-thresholding plus
/// coarsening per scheme, the per-block oracle, and plan evaluation. The
/// selection rule is the planner's own, so the result must be identical.
pub fn staged_plan_oracle(
    t: &mut Tracer,
    id: u64,
    pl: &PowerLens<'_>,
    graph: &Graph,
) -> Result<PlanOutcome, String> {
    let cfg = pl.config();
    let platform = pl.platform();
    t.span("features.global", id, |_| GlobalFeatures::of_graph(graph));
    let mut best: Option<(f64, usize, PowerView, InstrumentationPlan)> = None;
    let mut cache: Option<DistanceCache> = None;
    for idx in 0..cfg.schemes.len() {
        let params = cfg.schemes.get(idx);
        let c = match cache.take() {
            Some(c) if c.matches(&params) => c,
            _ => t
                .span("cluster.distance_build", id, |_| {
                    DistanceCache::build(graph, &params)
                })
                .map_err(|e| e.to_string())?,
        };
        let view = t.span("cluster.rethreshold", id, |_| {
            pl.coarsen_view(graph, c.cluster(&params))
        });
        cache = Some(c);
        let points = view
            .blocks()
            .iter()
            .map(|b| InstrumentationPoint {
                layer: b.start,
                gpu_level: t.span("governors.oracle", id, |_| {
                    pl.oracle_block_level(graph, b.start, b.end)
                }),
            })
            .collect();
        let plan = InstrumentationPlan::new(points, platform.cpu_table().max_level());
        let ee = t
            .span("core.evaluate", id, |_| {
                evaluate_plan(platform, graph, &plan, cfg.batch, cfg.label_images)
            })
            .energy_efficiency;
        let better = match best.as_ref() {
            None => true,
            Some((b, _, v, _)) => {
                ee > b * 1.0005 || (ee > b * 0.9995 && view.num_blocks() < v.num_blocks())
            }
        };
        if better {
            best = Some((ee, idx, view, plan));
        }
    }
    let (_, scheme_index, view, plan) = best.ok_or("empty scheme space")?;
    Ok(PlanOutcome {
        view,
        plan,
        scheme_index,
        timings: Default::default(),
    })
}

fn num(v: &Value, name: &str) -> Result<f64, String> {
    match v.field(name) {
        Ok(Value::Num(n)) => Ok(*n),
        _ => Err(format!("response field `{name}` is not a number")),
    }
}

fn array<'v>(v: &'v Value, name: &str) -> Result<&'v [Value], String> {
    match v.field(name) {
        Ok(Value::Array(a)) => Ok(a),
        _ => Err(format!("response field `{name}` is not an array")),
    }
}

/// Parses a `POST /plan` response body into its plan shape and `degraded`
/// flag.
pub fn parse_serve_plan(body: &str) -> Result<(PlanShape, bool), String> {
    let v: Value = serde_json::from_str(body).map_err(|e| format!("bad response JSON: {e}"))?;
    let degraded = matches!(v.field("degraded"), Ok(Value::Bool(true)));
    let blocks = array(&v, "blocks")?;
    let points = array(&v, "points")?;
    if blocks.len() != points.len() {
        return Err(format!(
            "{} blocks but {} points",
            blocks.len(),
            points.len()
        ));
    }
    let mut out = Vec::with_capacity(blocks.len());
    for (b, p) in blocks.iter().zip(points) {
        let start = num(b, "start")? as usize;
        if num(p, "layer")? as usize != start {
            return Err("instrumentation point is not at its block start".to_string());
        }
        out.push((
            start,
            num(b, "end")? as usize,
            num(p, "gpu_level")? as usize,
        ));
    }
    Ok((
        PlanShape {
            scheme: num(&v, "scheme_index")? as usize,
            cpu_level: num(&v, "cpu_level")? as usize,
            blocks: out,
        },
        degraded,
    ))
}

/// Parses the block table `powerlens-cli plan` prints: the header
/// `<model> on <platform>: <n> power block(s), scheme #<i>` and one
/// `layers <start>..<end> <mhz> MHz (level <l>) ...` row per block. The CLI
/// does not print the CPU level, so the caller supplies it.
pub fn parse_cli_table(stdout: &str, cpu_level: usize) -> Result<PlanShape, String> {
    let mut lines = stdout.lines();
    let header = lines.next().ok_or("empty CLI output")?;
    let scheme = header
        .rsplit_once("scheme #")
        .and_then(|(_, s)| s.trim().parse().ok())
        .ok_or_else(|| format!("no scheme in header {header:?}"))?;
    let mut blocks = Vec::new();
    for line in lines {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.first() != Some(&"layers") {
            continue;
        }
        let bad = || format!("bad block row {line:?}");
        let (start, end) = tokens
            .get(1)
            .and_then(|r| r.split_once(".."))
            .ok_or_else(bad)?;
        let level = tokens
            .iter()
            .position(|t| *t == "(level")
            .and_then(|i| tokens.get(i + 1))
            .map(|t| t.trim_end_matches(')'))
            .ok_or_else(bad)?;
        blocks.push((
            start.parse().map_err(|_| bad())?,
            end.parse().map_err(|_| bad())?,
            level.parse().map_err(|_| bad())?,
        ));
    }
    Ok(PlanShape {
        scheme,
        cpu_level,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_table_round_trips_a_plan_shape() {
        let out = "resnet152 on agx: 2 power block(s), scheme #3\n\
                   \x20 layers    0..100    829 MHz (level  7)     23.05 GFLOPs, AI   24.9\n\
                   \x20 layers  100..515   1300 MHz (level 13)      1.00 GFLOPs, AI    2.0\n\
                   predicted (48 images): 13.99 FPS, 14.05 W, 0.996 img/J\n";
        let shape = parse_cli_table(out, 4).unwrap();
        assert_eq!(shape.scheme, 3);
        assert_eq!(shape.blocks, vec![(0, 100, 7), (100, 515, 13)]);
        assert!(parse_cli_table("garbage", 0).is_err());
    }

    #[test]
    fn serve_response_parses_and_rejects_misaligned_points() {
        let ok = r#"{"scheme_index": 2, "cpu_level": 4, "degraded": false,
            "blocks": [{"start": 0, "end": 5}], "points": [{"layer": 0, "gpu_level": 7, "freq_mhz": 1.0}]}"#;
        let (shape, degraded) = parse_serve_plan(ok).unwrap();
        assert!(!degraded);
        assert_eq!(shape.blocks, vec![(0, 5, 7)]);
        let bad = ok.replace(r#""layer": 0"#, r#""layer": 1"#);
        assert!(parse_serve_plan(&bad).is_err());
    }
}
