//! Static analysis for PowerLens artifacts: graphs, power views, DVFS plans.
//!
//! PowerLens' correctness hinges on structural invariants the paper states
//! but code elsewhere only spot-checks: power views must tile the layer
//! sequence contiguously and without overlap (Algorithm 1 post-processing),
//! DVFS instrumentation points must be preset *before* each block at a
//! frequency level the platform actually exposes (the 13/14-level Jetson
//! tables), and graphs must thread activation shapes consistently so the
//! depthwise features mean what the predictors assume. This crate turns
//! those invariants into a rule engine with stable error codes
//! (`PL001`-`PL2xx`), severities, source locations, and machine-readable
//! output (human text, JSON, SARIF 2.1.0) — the offline-position analog of
//! NeuralPower/DSO-style static model validation.
//!
//! The rule packs:
//!
//! * **graph** ([`lint_graph`]): shape-inference consistency, dangling or
//!   cyclic skip edges, degenerate operator hyperparameters, stale cost
//!   caches, zero-FLOP layers;
//! * **view** ([`lint_view`]): contiguity, non-overlap, full coverage,
//!   minimum block length, block/layer count agreement;
//! * **plan** ([`lint_plan`]): frequency levels exist on the target
//!   [`Platform`], points precede their blocks in monotone order, no-op
//!   transitions, oracle cross-checks;
//! * **dataflow** ([`lint_dataflow`]): worklist fixpoint facts (reachability,
//!   liveness, output-size intervals, energy envelopes) cross-checked
//!   against the plan, the platform's frequency tables, and the view;
//! * **ingest** ([`lint_import`]): external model manifests flowing through
//!   the `powerlens-ingest` importer — unsupported schema versions, unknown
//!   operators, out-of-range sparsity, shape-inference failures, dangling
//!   or cyclic skip edges (`PL7xx`).
//!
//! CI-grade infrastructure on top of the packs: per-rule metadata
//! (category, since-version, help URIs — [`RuleInfo`]), stable diagnostic
//! fingerprints, SARIF baseline ratcheting ([`baseline_fingerprints`] /
//! [`new_findings`]), and lint-report caching content-addressed through
//! `powerlens-store`.
//!
//! The catalog lives in `docs/LINTS.md`; gates run in the `lint` CLI
//! subcommand, in debug builds of `core::pipeline` / `sim::engine`, and in
//! `scripts/check.sh` over every zoo model.
//!
//! # Example
//!
//! ```
//! use powerlens_lint::{lint_graph, LintConfig};
//! use powerlens_dnn::zoo;
//!
//! let report = lint_graph(&zoo::resnet34(), &LintConfig::default());
//! assert!(!report.has_errors());
//! ```

#![forbid(unsafe_code)]

mod baseline;
pub mod dataflow;
mod dataflow_rules;
mod diag;
mod fault_rules;
mod graph_rules;
mod ingest_rules;
mod output;
mod plan_rules;
mod rules;
mod store_rules;
mod view_rules;

use powerlens_cluster::{DistanceCache, PowerView};
use powerlens_dnn::Graph;
use powerlens_faults::FaultPlan;
use powerlens_obs as obs;
use powerlens_platform::{FreqLevel, InstrumentationPlan, Platform};

pub use baseline::{baseline_fingerprints, new_findings, NewFinding, FINGERPRINT_KEY};
pub use dataflow_rules::{DataflowContext, ACTIVITY_MARGIN, BOOT_ENERGY_FRACTION};
pub use diag::{fingerprint, Diagnostic, LintReport, Location, Severity};
pub use fault_rules::MAX_REASONABLE_SIGMA;
pub use ingest_rules::ImportIssue;
pub use output::{
    dedupe_for_render, render, report_from_value, report_to_value, to_json, to_sarif, Format,
};
pub use plan_rules::{PlanContext, ORACLE_TOLERANCE};
pub use rules::{all_rules, rule_by_code, Pack, RuleInfo, RULES_VERSION};
pub use store_rules::{platform_signature, CachedPlanContext};
pub use view_rules::MIN_BLOCK_LEN;

/// The analyzer's one setting: the `PL107` block budget, which mirrors the
/// planner's own `PowerLensConfig::max_blocks`. Every other threshold is a
/// constant beside the rule that reads it ([`MIN_BLOCK_LEN`],
/// [`ORACLE_TOLERANCE`], [`BOOT_ENERGY_FRACTION`], [`ACTIVITY_MARGIN`]),
/// and every rule always runs. Each entry point takes a config, so callers
/// need not know which packs read it.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Views with more blocks than this trigger `PL107` (info).
    pub max_blocks: usize,
}

impl Default for LintConfig {
    /// At most 8 blocks, the pipeline default (`PowerLensConfig`).
    fn default() -> Self {
        LintConfig { max_blocks: 8 }
    }
}

/// Runs the **graph pack** over a graph.
pub fn lint_graph(graph: &Graph, _config: &LintConfig) -> LintReport {
    let _span = obs::span("lint.graph");
    let mut report = LintReport::new(graph.name());
    graph_rules::check(graph, &mut report);
    report
}

/// Runs the **view pack** over a power view; pass the source graph to also
/// check coverage (`PL104`).
pub fn lint_view(view: &PowerView, graph: Option<&Graph>, config: &LintConfig) -> LintReport {
    let _span = obs::span("lint.view");
    let subject = graph.map_or_else(|| "power-view".to_string(), |g| g.name().to_string());
    let mut report = LintReport::new(subject);
    view_rules::check(view, graph, config, &mut report);
    report
}

/// Runs the distance-cache shape rule (`PL108`, view pack) over a
/// [`DistanceCache`]; pass the source graph to also check that the cache
/// covers its layers.
///
/// Caches built by `DistanceCache::build` satisfy the rule by construction
/// (debug builds also assert it on every re-threshold); this entry point is
/// the release-mode gate for caches assembled from outside sources —
/// deserialized, transferred, or built with `from_parts_unchecked`.
pub fn lint_distance_cache(
    cache: &DistanceCache,
    graph: Option<&Graph>,
    _config: &LintConfig,
) -> LintReport {
    let _span = obs::span("lint.distance_cache");
    let subject = graph.map_or_else(|| "distance-cache".to_string(), |g| g.name().to_string());
    let mut report = LintReport::new(subject);
    view_rules::check_distance_cache(cache, graph, &mut report);
    report
}

/// Runs the **plan pack** over a DVFS plan in its deployment context (target
/// platform, and optionally the source view/graph and an oracle callback).
pub fn lint_plan(ctx: &PlanContext<'_>, _config: &LintConfig) -> LintReport {
    let _span = obs::span("lint.plan");
    let subject = ctx
        .graph
        .map_or_else(|| "dvfs-plan".to_string(), |g| g.name().to_string());
    let mut report = LintReport::new(subject);
    plan_rules::check(ctx, &mut report);
    report
}

/// Runs the **store pack** plus the plan pack over a plan deserialized from
/// the content-addressed plan cache. This is the load-time gate: a plan that
/// was valid when written may no longer be deployable — the entry may have
/// been written for a different platform (`PL301`), under an older schema
/// (`PL302`), or corrupted into levels the current frequency tables do not
/// expose (plan pack).
pub fn lint_cached_plan(ctx: &CachedPlanContext<'_>, config: &LintConfig) -> LintReport {
    let _span = obs::span("lint.store");
    let mut report = LintReport::new("cached-plan");
    store_rules::check(ctx, &mut report);
    report.merge(lint_plan(
        &PlanContext {
            plan: ctx.plan,
            platform: ctx.platform,
            view: None,
            graph: None,
            oracle: None,
        },
        config,
    ));
    report
}

/// Runs the **faults pack** over a fault-injection plan. Pass the target
/// platform to also validate the GPU level cap against its frequency table
/// (`PL405`). This is the entry gate of the `faultsim` subcommand and the
/// `--faults` flag: a plan with error-severity findings never injects.
pub fn lint_fault_plan(
    plan: &FaultPlan,
    platform: Option<&Platform>,
    _config: &LintConfig,
) -> LintReport {
    let _span = obs::span("lint.faults");
    let mut report = LintReport::new("fault-plan");
    fault_rules::check(plan, platform, &mut report);
    report
}

/// Runs the **dataflow pack**: fixpoint facts over the graph cross-checked
/// against whatever companion artifacts the [`DataflowContext`] supplies.
pub fn lint_dataflow(ctx: &DataflowContext<'_>, _config: &LintConfig) -> LintReport {
    let _span = obs::span("lint.dataflow");
    dataflow_rules::check(ctx)
}

/// Runs the **ingest pack** (`PL7xx`) over the issues an importer raised
/// against an external model manifest. `subject` is the manifest's model
/// name (or file path when the name is unparseable).
pub fn lint_import(subject: &str, issues: &[ImportIssue], _config: &LintConfig) -> LintReport {
    let _span = obs::span("lint.ingest");
    let mut report = LintReport::new(subject);
    ingest_rules::check(issues, &mut report);
    report
}

/// Runs every artifact pack (graph, view, plan, dataflow) over a full
/// pipeline output at the given batch size and merges the findings.
pub fn lint_pipeline(
    graph: &Graph,
    view: &PowerView,
    plan: &InstrumentationPlan,
    platform: &Platform,
    batch: usize,
    oracle: Option<&dyn Fn(usize, usize) -> FreqLevel>,
    config: &LintConfig,
) -> LintReport {
    let mut report = lint_graph(graph, config);
    report.merge(lint_view(view, Some(graph), config));
    report.merge(lint_plan(
        &PlanContext {
            plan,
            platform,
            view: Some(view),
            graph: Some(graph),
            oracle,
        },
        config,
    ));
    report.merge(lint_dataflow(
        &DataflowContext {
            graph,
            platform: Some(platform),
            view: Some(view),
            plan: Some(plan),
            batch,
            claim_images_per_joule: None,
            sweep_limit: dataflow::DEFAULT_SWEEP_LIMIT,
        },
        config,
    ));
    report
}

/// Surfaces a report's counts through the observability layer as the
/// `lint.errors` / `lint.warnings` counters (no-op when tracing is off).
pub fn record_to_obs(report: &LintReport) {
    if !obs::enabled() {
        return;
    }
    obs::counter("lint.errors", report.num_errors() as u64);
    obs::counter("lint.warnings", report.num_warnings() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlens_dnn::zoo;

    #[test]
    fn cached_plan_gate_catches_drift_and_schema() {
        use powerlens_platform::{InstrumentationPoint, Platform};

        let agx = Platform::agx();
        let plan = InstrumentationPlan::new(
            vec![InstrumentationPoint {
                layer: 0,
                gpu_level: 3,
            }],
            agx.cpu_table().max_level(),
        );
        let sig = platform_signature(&agx);
        let config = LintConfig::default();

        let clean = lint_cached_plan(
            &CachedPlanContext {
                plan: &plan,
                platform: &agx,
                entry_platform: &sig,
                entry_schema: 7,
                expected_schema: 7,
            },
            &config,
        );
        assert!(!clean.has_errors(), "{:?}", clean.diagnostics);

        let drifted = lint_cached_plan(
            &CachedPlanContext {
                plan: &plan,
                platform: &agx,
                entry_platform: &platform_signature(&Platform::tx2()),
                entry_schema: 7,
                expected_schema: 7,
            },
            &config,
        );
        assert!(drifted.fired("PL301") && drifted.has_errors());

        let outdated = lint_cached_plan(
            &CachedPlanContext {
                plan: &plan,
                platform: &agx,
                entry_platform: &sig,
                entry_schema: 6,
                expected_schema: 7,
            },
            &config,
        );
        assert!(outdated.fired("PL302") && outdated.has_errors());
    }

    #[test]
    fn cached_plan_gate_runs_the_plan_pack() {
        use powerlens_platform::{InstrumentationPoint, Platform};

        let agx = Platform::agx();
        let sig = platform_signature(&agx);
        // A level beyond the AGX table: corrupt or hand-edited entry.
        let plan = InstrumentationPlan::from_points_unchecked(
            vec![InstrumentationPoint {
                layer: 0,
                gpu_level: 999,
            }],
            agx.cpu_table().max_level(),
        );
        let report = lint_cached_plan(
            &CachedPlanContext {
                plan: &plan,
                platform: &agx,
                entry_platform: &sig,
                entry_schema: 7,
                expected_schema: 7,
            },
            &LintConfig::default(),
        );
        assert!(report.fired("PL203") && report.has_errors());
    }

    #[test]
    fn zoo_models_are_error_free() {
        for (name, build) in zoo::all_models() {
            let g = build();
            let r = lint_graph(&g, &LintConfig::default());
            assert!(!r.has_errors(), "{name}: {:?}", r.diagnostics);
            let df = lint_dataflow(&DataflowContext::new(&g), &LintConfig::default());
            assert!(!df.has_errors(), "{name} dataflow: {:?}", df.diagnostics);
        }
    }
}
