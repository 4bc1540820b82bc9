//! Callable command logic, shared by the CLI and the daemon.
//!
//! Historically the plan/compare/lint flows lived inside
//! `powerlens-cli`'s subcommand functions, interleaved with `println!`.
//! This module is the library split: each operation takes plain inputs and
//! returns plain data, so the CLI renders tables, the daemon renders JSON,
//! and both execute the exact same logic.

use std::path::Path;

use powerlens::{
    PlanController, PlanOutcome, PowerLens, PowerLensConfig, TrainedModels, WorkflowTimings,
};
use powerlens_cluster::{cluster_graph, ClusterParams, PowerBlock, PowerView};
use powerlens_dnn::{zoo, Graph};
use powerlens_faults::FaultPlan;
use powerlens_governors::{oracle, Bim, FpgCg, FpgG, HybridGovernor, HybridStats};
use powerlens_lint::LintReport;
use powerlens_platform::{InstrumentationPlan, InstrumentationPoint, Platform};
use powerlens_sim::{run_taskflow, Controller, Degraded, Engine, TaskSpec};
use powerlens_store::{lint_cache_key, LintCache};

/// Resolves a platform name (`agx`, `tx2`, `cloud`).
pub fn platform_by_name(name: &str) -> Option<Platform> {
    match name {
        "agx" => Some(Platform::agx()),
        "tx2" => Some(Platform::tx2()),
        "cloud" => Some(Platform::cloud_v100()),
        _ => None,
    }
}

/// Resolves a zoo model by name, with the same error text the CLI always
/// printed.
pub fn graph_by_name(name: &str) -> Result<Graph, String> {
    zoo::by_name(name).ok_or_else(|| {
        format!("unknown model {name:?}; run `powerlens zoo` for the available names")
    })
}

/// Loads trained models from disk.
pub fn load_models(path: &Path) -> Result<TrainedModels, String> {
    TrainedModels::load(path)
        .map_err(|e| format!("cannot load models from {}: {e}", path.display()))
}

/// Builds a planner for `platform`: model-driven when `models` is given,
/// exhaustive oracle search otherwise.
pub fn make_planner<'p>(
    platform: &'p Platform,
    batch: usize,
    models: Option<TrainedModels>,
) -> PowerLens<'p> {
    let config = PowerLensConfig {
        batch,
        ..PowerLensConfig::default()
    };
    match models {
        Some(m) => PowerLens::with_models(platform, config, m),
        None => PowerLens::untrained(platform, config),
    }
}

/// One controller's result in a comparison run.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Controller name as reported by the task flow.
    pub method: String,
    /// Total energy over the flow (joules).
    pub energy_j: f64,
    /// Total simulated time (seconds).
    pub time_s: f64,
    /// Energy efficiency (images per joule).
    pub energy_efficiency: f64,
    /// DVFS switches issued.
    pub switches: usize,
}

/// Races the PowerLens plan against the baseline governors (BiM, FPG-G,
/// FPG-CG) over `tasks` repetitions of `images` images each, returning one
/// row per controller in a stable order: PowerLens, then the hybrid (when
/// requested), then the baselines, then `degraded` (when faulted) — the
/// line-up `powerlens-cli compare` prints.
///
/// With `faults`, the engine injects the given fault plan and the
/// comparison additionally includes the `Degraded` wrapper (plan → BiM
/// fallback). With `hybrid`, a [`HybridGovernor`] row (no re-plan hook)
/// joins after PowerLens, and the returned [`HybridStats`] describe what
/// its ladder did — `None` when `hybrid` is false.
#[allow(clippy::too_many_arguments)]
pub fn compare_controllers(
    platform: &Platform,
    graph: &Graph,
    plan: &InstrumentationPlan,
    batch: usize,
    images: usize,
    tasks: usize,
    faults: Option<&FaultPlan>,
    hybrid: bool,
) -> (Vec<CompareRow>, Option<HybridStats>) {
    let mut engine = Engine::new(platform).with_batch(batch);
    if let Some(f) = faults {
        engine = engine.with_faults(f.clone());
    }
    let specs: Vec<TaskSpec<'_>> = (0..tasks.max(1))
        .map(|_| TaskSpec { graph, images })
        .collect();

    let mut plan_ctl = PlanController::new(plan.clone());
    let mut hybrid_ctl = hybrid.then(|| HybridGovernor::new(platform, plan.clone(), batch));
    let mut degraded = Degraded::new(PlanController::new(plan.clone()), Bim::new(platform));
    let mut bim = Bim::new(platform);
    let mut fpg_g = FpgG::new(platform);
    let mut fpg_cg = FpgCg::new(platform);
    let mut controllers: Vec<&mut dyn Controller> = vec![&mut plan_ctl];
    if let Some(h) = hybrid_ctl.as_mut() {
        controllers.push(h);
    }
    controllers.extend([&mut fpg_cg as &mut dyn Controller, &mut fpg_g, &mut bim]);
    if faults.is_some() {
        controllers.push(&mut degraded);
    }

    let rows = controllers
        .into_iter()
        .map(|ctl| {
            let r = run_taskflow(&engine, &specs, ctl);
            CompareRow {
                method: r.controller,
                energy_j: r.total_energy,
                time_s: r.total_time,
                energy_efficiency: r.energy_efficiency,
                switches: r.num_switches,
            }
        })
        .collect();
    let stats = hybrid_ctl.map(|h| {
        let s = h.stats();
        // Surface the run's ladder counters as gauges too: the counters
        // accumulate across runs, the gauges snapshot the latest one.
        powerlens_obs::gauge("hybrid.last_run.drift_detected", s.drift_detected as f64);
        powerlens_obs::gauge("hybrid.last_run.replans", s.replans as f64);
        s
    });
    (rows, stats)
}

/// Lints one model end to end: graph pack, the view produced by
/// clustering, an oracle-derived instrumentation plan with the `PL209`
/// cross-check enabled, and the `PL5xx` dataflow pack — the logic behind
/// `powerlens-cli lint`.
///
/// # Errors
///
/// Returns an error when clustering itself fails; lint findings (including
/// error-severity ones) are reported in the `LintReport`, not as `Err`.
pub fn lint_model(platform: &Platform, graph: &Graph, batch: usize) -> Result<LintReport, String> {
    let config = powerlens_lint::LintConfig::default();
    let view = cluster_graph(graph, &ClusterParams::default())
        .map_err(|e| format!("clustering {} failed: {e}", graph.name()))?;
    let table = oracle::CostTable::new(platform, graph, batch);
    let oracle_fn = |lo: usize, hi: usize| table.best_level(lo, hi, oracle::DEFAULT_SLACK);
    let points = view
        .blocks()
        .iter()
        .map(|b| InstrumentationPoint {
            layer: b.start,
            gpu_level: oracle_fn(b.start, b.end),
        })
        .collect();
    let plan = InstrumentationPlan::new(points, platform.cpu_table().max_level());
    let report = powerlens_lint::lint_pipeline(
        graph,
        &view,
        &plan,
        platform,
        batch,
        Some(&oracle_fn),
        &config,
    );
    powerlens_lint::record_to_obs(&report);
    Ok(report)
}

/// [`lint_model`] behind a [`LintCache`]: the reports for an unchanged
/// (graph, rule catalog, platform, batch) quadruple are served without
/// re-clustering or re-running the oracle. Shared by `powerlens-cli lint
/// --cache` and the daemon's `/lint` endpoint.
///
/// # Errors
///
/// Same as [`lint_model`]; errors are never cached.
pub fn lint_model_cached(
    platform: &Platform,
    graph: &Graph,
    batch: usize,
    cache: &LintCache,
) -> Result<Vec<LintReport>, String> {
    let key = lint_cache_key(graph, platform, batch);
    if let Some(reports) = cache.get(key) {
        return Ok(reports);
    }
    let reports = vec![lint_model(platform, graph, batch)?];
    cache.put(key, &reports);
    Ok(reports)
}

/// The bottom rung of the serving degradation ladder: a plan answering the
/// way a fully fallen-back [`Degraded`] controller would run.
///
/// Under sustained load `Degraded` hands control to BiM, and BiM's race
/// rule drives a saturated DNN workload to the maximum operating point.
/// This mirrors that steady state as a static plan — one power block
/// covering the whole graph, pinned at the top GPU and CPU levels — which
/// costs nothing to produce and is always safe to execute. Callers must
/// flag the response `degraded: true` so clients know to re-request a real
/// plan once the fleet calms down.
pub fn bim_heuristic_outcome(platform: &Platform, graph: &Graph) -> PlanOutcome {
    let n = graph.num_layers();
    PlanOutcome {
        view: PowerView::new(vec![PowerBlock { start: 0, end: n }]),
        plan: InstrumentationPlan::new(
            vec![InstrumentationPoint {
                layer: 0,
                gpu_level: platform.gpu_table().max_level(),
            }],
            platform.cpu_table().max_level(),
        ),
        scheme_index: 0,
        timings: WorkflowTimings::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlens_store::CacheMode;

    #[test]
    fn platform_and_graph_resolution() {
        assert!(platform_by_name("agx").is_some());
        assert!(platform_by_name("tx2").is_some());
        assert!(platform_by_name("cloud").is_some());
        assert!(platform_by_name("orin").is_none());
        assert!(graph_by_name("alexnet").is_ok());
        assert!(graph_by_name("nope").unwrap_err().contains("unknown model"));
    }

    #[test]
    fn heuristic_outcome_covers_the_graph_at_max_levels() {
        let agx = Platform::agx();
        let g = zoo::alexnet();
        let o = bim_heuristic_outcome(&agx, &g);
        assert_eq!(o.view.num_layers(), g.num_layers());
        assert_eq!(o.plan.num_blocks(), 1);
        assert_eq!(o.plan.points()[0].gpu_level, agx.gpu_table().max_level());
        // The heuristic plan must actually run.
        let engine = Engine::new(&agx).with_batch(4);
        let mut ctl = PlanController::new(o.plan);
        let r = engine.run(&g, &mut ctl, 8);
        assert!(r.energy_efficiency > 0.0);
    }

    #[test]
    fn compare_produces_a_row_per_controller() {
        let agx = Platform::agx();
        let g = zoo::alexnet();
        let pl = make_planner(&agx, 4, None);
        let outcome = pl.plan_oracle(&g).unwrap();
        let (rows, stats) = compare_controllers(&agx, &g, &outcome.plan, 4, 8, 2, None, false);
        assert!(stats.is_none(), "no hybrid row, no ladder stats");
        assert_eq!(rows.len(), 4);
        assert!(
            rows[0].method.starts_with("powerlens("),
            "{}",
            rows[0].method
        );
        for r in &rows {
            assert!(
                r.energy_efficiency > 0.0,
                "{}: EE must be positive",
                r.method
            );
            assert!(r.energy_j > 0.0 && r.time_s > 0.0);
        }
        // Under faults the degraded wrapper joins the line-up.
        let fp = FaultPlan::parse("switch_fail=0.2").unwrap();
        let (rows, _) = compare_controllers(&agx, &g, &outcome.plan, 4, 8, 2, Some(&fp), false);
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn hybrid_row_is_opt_in_and_slots_in_after_powerlens() {
        let agx = Platform::agx();
        let g = zoo::alexnet();
        let pl = make_planner(&agx, 4, None);
        let outcome = pl.plan_oracle(&g).unwrap();
        let (rows, stats) = compare_controllers(&agx, &g, &outcome.plan, 4, 8, 2, None, true);
        assert_eq!(rows.len(), 5);
        assert!(rows[0].method.starts_with("powerlens("));
        assert!(rows[1].method.starts_with("hybrid("), "{}", rows[1].method);
        let stats = stats.expect("hybrid stats reported when requested");
        assert_eq!(stats.drift_detected, 0, "clean run must not drift");
        // Clean run: the hybrid row replays the plan bit-for-bit.
        assert_eq!(rows[0].energy_j.to_bits(), rows[1].energy_j.to_bits());
        assert_eq!(rows[0].time_s.to_bits(), rows[1].time_s.to_bits());

        // Faulted + hybrid: degraded joins too (6 rows), stats still come
        // back.
        let fp = FaultPlan::parse("switch_fail=0.2,seed=7").unwrap();
        let (rows, stats) = compare_controllers(&agx, &g, &outcome.plan, 4, 8, 2, Some(&fp), true);
        assert_eq!(rows.len(), 6);
        assert!(stats.is_some());
    }

    #[test]
    fn lint_model_is_clean_on_zoo_graphs() {
        let agx = Platform::agx();
        let g = zoo::alexnet();
        let report = lint_model(&agx, &g, 4).unwrap();
        assert!(!report.has_errors());
    }

    #[test]
    fn cached_lint_serves_warm_lookups_with_identical_reports() {
        let agx = Platform::agx();
        let g = zoo::alexnet();
        let cache = LintCache::open(CacheMode::Mem, 16, None).unwrap().unwrap();
        let cold = lint_model_cached(&agx, &g, 4, &cache).unwrap();
        let warm = lint_model_cached(&agx, &g, 4, &cache).unwrap();
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cold.len(), warm.len());
        assert_eq!(cold[0].subject, warm[0].subject);
        assert_eq!(cold[0].codes(), warm[0].codes());
        // A different batch is a different content address.
        let _ = lint_model_cached(&agx, &g, 8, &cache).unwrap();
        assert_eq!(cache.misses(), 2);
    }
}
