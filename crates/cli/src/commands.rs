//! Subcommand implementations.
//!
//! The CLI is a thin frontend: the actual plan/compare/lint logic lives in
//! [`powerlens_serve::ops`], shared with the serving daemon, and the
//! functions here only parse options, call into `ops`, and render tables.

use std::error::Error;
use std::path::{Path, PathBuf};

use powerlens::dataset::{self, DatasetConfig};
use powerlens::training::{train_models, TrainingConfig};
use powerlens::{PlanController, PowerLens, PowerLensConfig, TrainedModels};
use powerlens_dnn::{zoo, Graph};
use powerlens_faults::FaultPlan;
use powerlens_governors::{Bim, HybridGovernor};
use powerlens_obs as obs;
use powerlens_obs::TraceMode;
use powerlens_platform::Platform;
use powerlens_serve::{ops, ServeConfig, Server};
use powerlens_sim::{run_taskflow, Degraded, Engine, TaskFlowReport, TaskSpec};
use powerlens_store::{CacheMode, LintCache, PlanStore};

use crate::args::{Command, Options};

type CliResult = Result<(), Box<dyn Error>>;

/// Typed failure for the `lint --baseline` ratchet, so `main` can answer
/// with its own exit code (3) — distinct from error-severity findings (1)
/// and argument errors (2). CI distinguishes "the code got worse" from
/// "the code was already bad".
#[derive(Debug)]
pub struct BaselineViolation {
    /// Findings whose fingerprints are absent from the baseline.
    pub new_findings: usize,
}

impl std::fmt::Display for BaselineViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lint found {} finding(s) not present in the baseline \
             (regenerate it with `lint --all --format sarif` to ratchet)",
            self.new_findings
        )
    }
}

impl Error for BaselineViolation {}

/// Dispatches a parsed command.
///
/// Initializes the observability layer from the command's `--trace` option
/// before running it, and prints the collected stats summary (plus the JSON
/// report path in `json` mode) afterwards.
pub fn run(cmd: Command) -> CliResult {
    let trace = match &cmd {
        Command::Zoo | Command::Inspect { .. } | Command::Stats { .. } => TraceMode::Off,
        Command::Import { opts, .. }
        | Command::Sweep { opts, .. }
        | Command::Plan { opts, .. }
        | Command::PlanBatch { opts, .. }
        | Command::Compare { opts, .. }
        | Command::Train { opts }
        | Command::Trace { opts, .. }
        | Command::FaultSim { opts, .. }
        | Command::HybridSim { opts, .. }
        | Command::Lint { opts, .. }
        | Command::Serve { opts } => opts.trace,
    };
    obs::init(trace);
    let result = match cmd {
        Command::Zoo => zoo_cmd(),
        Command::Inspect { model } => inspect(&model),
        Command::Import { path, opts } => import_cmd(&path, &opts),
        Command::Sweep { model, opts } => sweep(&model, &opts),
        Command::Plan { model, opts } => plan(&model, &opts),
        Command::PlanBatch { models, opts } => plan_batch_cmd(&models, &opts),
        Command::Compare { model, opts } => compare(&model, &opts),
        Command::Train { opts } => train(&opts),
        Command::Trace { model, opts } => trace_cmd(&model, &opts),
        Command::FaultSim { model, opts } => faultsim(&model, &opts),
        Command::HybridSim { model, opts } => hybridsim(&model, &opts),
        Command::Lint { model, opts } => lint_cmd(model.as_deref(), &opts),
        Command::Stats { path } => return stats(path.as_deref()),
        Command::Serve { opts } => serve_cmd(&opts),
    };
    report_stats(trace);
    result
}

/// Prints the end-of-command observability summary.
fn report_stats(trace: TraceMode) {
    if trace == TraceMode::Off {
        return;
    }
    println!("--- obs stats ---");
    print!("{}", obs::snapshot().render_table());
    match obs::flush() {
        Ok(Some(path)) => println!("obs: wrote trace report to {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("obs: failed to write trace report: {e}"),
    }
}

fn platform_for(opts: &Options) -> Platform {
    // The parser already validated the name; default to AGX defensively.
    ops::platform_by_name(&opts.platform).unwrap_or_else(Platform::agx)
}

fn model_for(name: &str) -> Result<Graph, Box<dyn Error>> {
    Ok(ops::graph_by_name(name)?)
}

/// Imports an external manifest through the ingest lint gate (`PL7xx`):
/// warnings print to stderr, error findings abort before the graph reaches
/// the planner.
fn import_gated(path: &str) -> Result<Graph, Box<dyn Error>> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read manifest {path}: {e}"))?;
    let (result, report) =
        powerlens_ingest::import_and_lint(path, &text, &powerlens_lint::LintConfig::default());
    for d in &report.diagnostics {
        if d.rule.severity != powerlens_lint::Severity::Error {
            eprintln!("warning[{}]: {}", d.rule.code, d.message);
        }
    }
    match result {
        Ok(import) => Ok(import.graph),
        Err(e) => Err(format!("cannot import {path}: {e}").into()),
    }
}

/// Resolves the graph a subcommand runs on: `--model PATH` imports an
/// external manifest, otherwise `name` is a zoo model.
fn graph_for(name: &str, opts: &Options) -> Result<Graph, Box<dyn Error>> {
    match &opts.model {
        Some(path) => import_gated(path),
        None => model_for(name),
    }
}

fn trained_models_for(opts: &Options) -> Result<Option<TrainedModels>, Box<dyn Error>> {
    match &opts.models {
        Some(path) => Ok(Some(ops::load_models(Path::new(path))?)),
        None => Ok(None),
    }
}

fn planner<'p>(platform: &'p Platform, opts: &Options) -> Result<PowerLens<'p>, Box<dyn Error>> {
    Ok(ops::make_planner(
        platform,
        opts.batch,
        trained_models_for(opts)?,
    ))
}

/// Builds the fault plan described by `--faults` / `--fault-seed`, gated
/// through the lint faults pack (PL4xx): error findings abort before a
/// single fault is injected, warnings print to stderr. `None` when the
/// command runs clean.
fn fault_plan_for(
    opts: &Options,
    platform: &Platform,
) -> Result<Option<FaultPlan>, Box<dyn Error>> {
    let Some(spec) = &opts.faults else {
        return Ok(None);
    };
    let mut plan = FaultPlan::parse(spec)?;
    if let Some(seed) = opts.fault_seed {
        plan = plan.with_seed(seed);
    }
    let report = powerlens_lint::lint_fault_plan(
        &plan,
        Some(platform),
        &powerlens_lint::LintConfig::default(),
    );
    for d in &report.diagnostics {
        if d.rule.severity != powerlens_lint::Severity::Error {
            eprintln!("warning[{}]: {}", d.rule.code, d.message);
        }
    }
    if report.has_errors() {
        let msgs: Vec<String> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule.severity == powerlens_lint::Severity::Error)
            .map(|d| format!("{}: {}", d.rule.code, d.message))
            .collect();
        return Err(format!("invalid fault plan: {}", msgs.join("; ")).into());
    }
    Ok(Some(plan))
}

/// Memory-tier capacity of the CLI's plan store and lint cache.
const STORE_CAPACITY: usize = 128;

/// The cache mode `--cache` names.
fn cache_mode(opts: &Options) -> Result<CacheMode, Box<dyn Error>> {
    CacheMode::parse(&opts.cache)
        .ok_or_else(|| format!("unknown cache mode {:?}", opts.cache).into())
}

/// Builds the plan store described by `--cache` / `--cache-dir`.
fn store_for(opts: &Options) -> Result<PlanStore, Box<dyn Error>> {
    let mode = cache_mode(opts)?;
    let dir = Path::new(&opts.cache_dir);
    Ok(PlanStore::new(mode, STORE_CAPACITY, Some(dir))?)
}

/// Plans `graph` through the configured cache (model-driven when models are
/// loaded, exhaustive oracle search otherwise).
fn plan_cached(
    pl: &PowerLens<'_>,
    graph: &Graph,
    opts: &Options,
) -> Result<powerlens::PlanOutcome, Box<dyn Error>> {
    Ok(store_for(opts)?.get_or_plan(pl, graph)?)
}

fn zoo_cmd() -> CliResult {
    println!(
        "{:<16} {:>7} {:>10} {:>10} {:>8}",
        "model", "layers", "GFLOPs", "Mparams", "skips"
    );
    for (name, build) in zoo::all_models() {
        let g = build();
        let s = g.stats();
        println!(
            "{:<16} {:>7} {:>10.2} {:>10.1} {:>8}",
            name,
            g.num_layers(),
            s.total_flops / 1e9,
            s.total_params / 1e6,
            s.num_skip_edges
        );
    }
    Ok(())
}

fn inspect(model: &str) -> CliResult {
    let g = model_for(model)?;
    println!("{g}");
    let s = g.stats();
    println!(
        "total: {:.2} GFLOPs, {:.1} M params, {:.1} MB traffic/sample, mean AI {:.1} FLOP/B",
        s.total_flops / 1e9,
        s.total_params / 1e6,
        s.total_memory_bytes / 1e6,
        s.mean_arithmetic_intensity
    );
    Ok(())
}

/// Imports a manifest, prints the full `PL7xx` report in the `--format` of
/// choice, and — when the gate passes — the lowered layer table plus the
/// content fingerprint the plan cache will key on.
fn import_cmd(path: &str, opts: &Options) -> CliResult {
    let format = powerlens_lint::Format::parse(&opts.format)
        .ok_or_else(|| format!("unknown lint format {:?}", opts.format))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read manifest {path}: {e}"))?;
    let (result, report) =
        powerlens_ingest::import_and_lint(path, &text, &powerlens_lint::LintConfig::default());
    print!(
        "{}",
        powerlens_lint::render(std::slice::from_ref(&report), format)
    );
    let import = result.map_err(|e| format!("cannot import {path}: {e}"))?;
    let g = &import.graph;
    println!("{g}");
    let s = g.stats();
    println!(
        "total: {:.2} GFLOPs, {:.1} M params, {:.1} MB traffic/sample, mean AI {:.1} FLOP/B",
        s.total_flops / 1e9,
        s.total_params / 1e6,
        s.total_memory_bytes / 1e6,
        s.mean_arithmetic_intensity
    );
    println!(
        "imported {:?} from {path}: {} layer(s), fingerprint {:016x}",
        g.name(),
        g.num_layers(),
        g.fingerprint()
    );
    Ok(())
}

fn sweep(model: &str, opts: &Options) -> CliResult {
    let platform = platform_for(opts);
    let g = graph_for(model, opts)?;
    let model = if model.is_empty() {
        g.name().to_string()
    } else {
        model.to_string()
    };
    let engine = Engine::new(&platform).with_batch(opts.batch);
    let reports = engine.sweep_gpu_levels(&g, opts.images);
    println!(
        "{model} on {} (batch {}, {} images)",
        platform.name(),
        opts.batch,
        opts.images
    );
    println!(
        "{:>5} {:>9} {:>9} {:>9} {:>11}",
        "level", "MHz", "FPS", "watts", "img/J"
    );
    let best = reports
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.energy_efficiency.total_cmp(&b.1.energy_efficiency))
        .map(|(i, _)| i)
        .unwrap_or(0);
    for (level, r) in reports.iter().enumerate() {
        println!(
            "{:>5} {:>9.0} {:>9.2} {:>9.2} {:>11.3}{}",
            level,
            platform.gpu_table().freq_mhz(level),
            r.fps,
            r.avg_power,
            r.energy_efficiency,
            if level == best { "  <- best EE" } else { "" }
        );
    }
    Ok(())
}

fn plan(model: &str, opts: &Options) -> CliResult {
    let platform = platform_for(opts);
    let g = graph_for(model, opts)?;
    let model = if model.is_empty() {
        g.name().to_string()
    } else {
        model.to_string()
    };
    let pl = planner(&platform, opts)?;
    let outcome = plan_cached(&pl, &g, opts)?;
    println!(
        "{model} on {}: {} power block(s), scheme #{}",
        platform.name(),
        outcome.plan.num_blocks(),
        outcome.scheme_index
    );
    for (block, point) in outcome.view.blocks().iter().zip(outcome.plan.points()) {
        let feats = powerlens_features::GlobalFeatures::of_range(&g, block.start, block.end);
        println!(
            "  layers {:>4}..{:<4} {:>5.0} MHz (level {:>2})  {:>8.2} GFLOPs, AI {:>6.1}",
            block.start,
            block.end,
            platform.gpu_table().freq_mhz(point.gpu_level),
            point.gpu_level,
            feats.statistics[0].exp_m1() / 1e9,
            feats.statistics[3]
        );
    }
    // Validate the plan with a short simulated run so the printed numbers
    // (and, under --trace, the sim.* metrics) reflect actual execution.
    let engine = Engine::new(&platform).with_batch(opts.batch);
    let mut ctl = PlanController::new(outcome.plan);
    let report = engine.run(&g, &mut ctl, opts.images);
    println!(
        "predicted ({} images): {:.2} FPS, {:.2} W, {:.3} img/J",
        opts.images, report.fps, report.avg_power, report.energy_efficiency
    );
    Ok(())
}

/// Plans a list of models (default: the whole zoo) through one shared plan
/// store, fanning the work out over worker threads. Repeated graphs are
/// planned once and served from cache afterwards.
fn plan_batch_cmd(models: &[String], opts: &Options) -> CliResult {
    let platform = platform_for(opts);
    let (mut names, mut graphs): (Vec<String>, Vec<Graph>) =
        if models.is_empty() && opts.model.is_none() {
            zoo::all_models()
                .iter()
                .map(|(name, build)| ((*name).to_string(), build()))
                .unzip()
        } else {
            let mut names = Vec::with_capacity(models.len());
            let mut graphs = Vec::with_capacity(models.len());
            for name in models {
                names.push(name.clone());
                graphs.push(model_for(name)?);
            }
            (names, graphs)
        };
    if let Some(path) = &opts.model {
        let g = import_gated(path)?;
        names.push(g.name().to_string());
        graphs.push(g);
    }

    let pl = planner(&platform, opts)?;
    let store = store_for(opts)?;
    let started = std::time::Instant::now();
    let results = powerlens_store::plan_batch(&store, &pl, &graphs, opts.threads);
    let elapsed = started.elapsed();

    println!(
        "planning {} model(s) on {} (cache {}, batch {})",
        names.len(),
        platform.name(),
        store.mode(),
        opts.batch
    );
    println!("{:<16} {:>7} {:>7}  outcome", "model", "blocks", "scheme");
    let mut failures = 0usize;
    for (name, result) in names.iter().zip(&results) {
        match result {
            Ok(outcome) => println!(
                "{:<16} {:>7} {:>7}  ok",
                name,
                outcome.plan.num_blocks(),
                outcome.scheme_index
            ),
            Err(e) => {
                failures += 1;
                println!("{name:<16} {:>7} {:>7}  error: {e}", "-", "-");
            }
        }
    }
    println!(
        "planned {} model(s) in {:.3} s ({} resident in memory tier)",
        names.len() - failures,
        elapsed.as_secs_f64(),
        store.resident()
    );
    if failures > 0 {
        return Err(format!("{failures} of {} plan(s) failed", names.len()).into());
    }
    Ok(())
}

/// Tasks per comparison flow (the paper's Figure 5 uses 10-task queues).
const COMPARE_TASKS: usize = 10;

fn compare(model: &str, opts: &Options) -> CliResult {
    let platform = platform_for(opts);
    let g = graph_for(model, opts)?;
    let model = if model.is_empty() {
        g.name().to_string()
    } else {
        model.to_string()
    };
    let pl = planner(&platform, opts)?;
    let outcome = plan_cached(&pl, &g, opts)?;
    let fault_plan = fault_plan_for(opts, &platform)?;

    println!(
        "{model} on {} ({COMPARE_TASKS} x {} images, batch {}):",
        platform.name(),
        opts.images,
        opts.batch
    );
    if let Some(plan) = &fault_plan {
        println!("faults: {plan}");
    }
    println!(
        "{:<22} {:>11} {:>9} {:>11} {:>9}",
        "method", "energy (J)", "time (s)", "EE (img/J)", "switches"
    );
    let (rows, hybrid_stats) = ops::compare_controllers(
        &platform,
        &g,
        &outcome.plan,
        opts.batch,
        opts.images,
        COMPARE_TASKS,
        fault_plan.as_ref(),
        opts.hybrid,
    );
    let mut base = None;
    for r in rows {
        let note = match base {
            None => {
                base = Some(r.energy_efficiency);
                String::new()
            }
            Some(b) => format!(
                "  ({:+.1}% vs PowerLens)",
                (b / r.energy_efficiency - 1.0) * 100.0
            ),
        };
        println!(
            "{:<22} {:>11.1} {:>9.2} {:>11.4} {:>9}{}",
            r.method, r.energy_j, r.time_s, r.energy_efficiency, r.switches, note
        );
    }
    if let Some(s) = hybrid_stats {
        println!(
            "hybrid ladder: drift={} nudges={} replans={} throttled={}",
            s.drift_detected, s.nudges, s.replans, s.replan_throttled
        );
    }
    Ok(())
}

fn trace_cmd(model: &str, opts: &Options) -> CliResult {
    let platform = platform_for(opts);
    let g = graph_for(model, opts)?;
    let model = if model.is_empty() {
        g.name().to_string()
    } else {
        model.to_string()
    };
    let pl = planner(&platform, opts)?;
    let outcome = plan_cached(&pl, &g, opts)?;
    let mut engine = Engine::new(&platform).with_batch(opts.batch);
    if let Some(plan) = fault_plan_for(opts, &platform)? {
        println!("faults: {plan}");
        engine = engine.with_faults(plan);
    }
    let mut ctl = PlanController::new(outcome.plan);
    let report = engine.run(&g, &mut ctl, opts.images);
    let path = if opts.out == "powerlens_models.json" {
        format!("{model}_{}.trace.csv", platform.name())
    } else {
        opts.out.clone()
    };
    let file = std::fs::File::create(&path)?;
    powerlens_sim::write_trace_csv(&report, std::io::BufWriter::new(file))?;
    println!(
        "wrote {} telemetry samples to {path} (EE {:.3} img/J)",
        report.telemetry.samples().len(),
        report.energy_efficiency
    );
    Ok(())
}

/// Fault spec `faultsim` sweeps when `--faults` is not given: a 20%
/// switch-failure storm with sensor dropout and measurement noise.
const DEFAULT_FAULTSIM_SPEC: &str = "switch_fail=0.2,retries=1,drop=0.05,noise=0.05";

/// Tasks per faultsim leg: enough repeated plan executions that the
/// per-switch fault streams are actually exercised.
const FAULTSIM_TASKS: usize = 8;

/// Robustness report: runs the PowerLens plan, its degraded wrapper
/// (falling back to BiM), and BiM itself — each through an 8-task flow,
/// once clean and once under the seeded fault plan — and reports how much
/// energy efficiency each controller retains. The
/// `ee_retention <controller> <value>` lines are stable output consumed by
/// `scripts/bench.sh`.
fn faultsim(model: &str, opts: &Options) -> CliResult {
    let platform = platform_for(opts);
    let g = graph_for(model, opts)?;
    let model = if model.is_empty() {
        g.name().to_string()
    } else {
        model.to_string()
    };
    let pl = planner(&platform, opts)?;
    let outcome = plan_cached(&pl, &g, opts)?;

    let mut spec_opts = opts.clone();
    if spec_opts.faults.is_none() {
        spec_opts.faults = Some(DEFAULT_FAULTSIM_SPEC.to_string());
    }
    let fault_plan =
        fault_plan_for(&spec_opts, &platform)?.expect("faultsim always has a fault spec");

    let clean = Engine::new(&platform).with_batch(opts.batch);
    let faulted = Engine::new(&platform)
        .with_batch(opts.batch)
        .with_faults(fault_plan.clone());
    let tasks: Vec<TaskSpec<'_>> = (0..FAULTSIM_TASKS)
        .map(|_| TaskSpec {
            graph: &g,
            images: opts.images,
        })
        .collect();

    // Each row runs fresh controllers so no state leaks between legs; the
    // degraded row additionally reports how often the fallback tripped.
    type Row = (&'static str, TaskFlowReport, TaskFlowReport, Option<usize>);
    let plan_for_row = outcome.plan;
    let plan_for_row_hybrid = plan_for_row.clone();
    let mut rows: Vec<Row> = Vec::new();
    {
        let mut leg = PlanController::new(plan_for_row.clone());
        let c = run_taskflow(&clean, &tasks, &mut leg);
        let mut leg = PlanController::new(plan_for_row.clone());
        let f = run_taskflow(&faulted, &tasks, &mut leg);
        rows.push(("powerlens", c, f, None));
    }
    {
        let mut leg = Degraded::new(
            PlanController::new(plan_for_row.clone()),
            Bim::new(&platform),
        );
        let c = run_taskflow(&clean, &tasks, &mut leg);
        let mut leg = Degraded::new(PlanController::new(plan_for_row), Bim::new(&platform));
        let f = run_taskflow(&faulted, &tasks, &mut leg);
        rows.push(("degraded", c, f, Some(leg.num_fallbacks())));
    }
    if opts.hybrid {
        let mut leg = HybridGovernor::new(&platform, plan_for_row_hybrid.clone(), opts.batch);
        let c = run_taskflow(&clean, &tasks, &mut leg);
        let mut leg = HybridGovernor::new(&platform, plan_for_row_hybrid, opts.batch);
        let f = run_taskflow(&faulted, &tasks, &mut leg);
        rows.push(("hybrid", c, f, None));
    }
    {
        let mut leg = Bim::new(&platform);
        let c = run_taskflow(&clean, &tasks, &mut leg);
        let mut leg = Bim::new(&platform);
        let f = run_taskflow(&faulted, &tasks, &mut leg);
        rows.push(("bim", c, f, None));
    }

    println!(
        "{model} on {} ({FAULTSIM_TASKS} x {} images, batch {})",
        platform.name(),
        opts.images,
        opts.batch
    );
    println!("faults: {fault_plan}");
    println!(
        "{:<22} {:>11} {:>11} {:>10} {:>9} {:>7} {:>9} {:>9}",
        "controller",
        "clean img/J",
        "fault img/J",
        "retention",
        "switches",
        "failed",
        "injected",
        "fallbacks"
    );

    let mut retentions: Vec<(String, f64)> = Vec::new();
    for (which, c, f, fallbacks) in rows {
        let retention = if c.energy_efficiency > 0.0 {
            f.energy_efficiency / c.energy_efficiency
        } else {
            0.0
        };
        println!(
            "{:<22} {:>11.4} {:>11.4} {:>9.1}% {:>9} {:>7} {:>9} {:>9}",
            which,
            c.energy_efficiency,
            f.energy_efficiency,
            retention * 100.0,
            f.num_switches,
            f.num_failed_switches,
            f.faults_injected,
            fallbacks.map_or_else(|| "-".to_string(), |n| n.to_string()),
        );
        retentions.push((which.to_string(), retention));
    }

    // Greppable summary lines (consumed by scripts/bench.sh).
    for (name, retention) in &retentions {
        println!("ee_retention {name} {retention:.4}");
    }
    let retention_of = |name: &str| {
        retentions
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, r)| *r)
    };
    let verdict = robustness_verdict(retention_of("degraded"), retention_of("bim"));
    println!("{}", verdict.as_ref().unwrap_or_else(|breach| breach));
    verdict.map(drop).map_err(Into::into)
}

/// faultsim's floor: the degraded controller must retain at least 90% of
/// the energy efficiency BiM retains. Returns the report's closing line,
/// as `Err` on a breach so the command exits non-zero.
fn robustness_verdict(degraded: f64, bim: f64) -> Result<String, String> {
    if degraded + 1e-9 >= bim * 0.9 {
        Ok("robustness: degraded controller holds the BiM floor".to_string())
    } else {
        Err(format!(
            "robustness: WARNING degraded retention {degraded:.3} fell below \
             90% of the BiM floor {bim:.3}"
        ))
    }
}

/// Storm `hybridsim` injects when `--faults` is not given: the acceptance
/// scenario from the robustness docs — a seeded 20% switch-failure storm
/// with one retry per switch.
const DEFAULT_HYBRIDSIM_SPEC: &str = "switch_fail=0.2,retries=1";

/// Tasks per hybridsim leg (matches faultsim).
const HYBRIDSIM_TASKS: usize = 8;

/// Workload phase change hybridsim injects mid-trace when the spec does not
/// carry its own `phase=`: +30% sustained power drift.
const HYBRIDSIM_PHASE_DRIFT: f64 = 0.3;

/// Online-adaptation report: the static PowerLens plan, the hybrid governor
/// (plan + drift detection + bounded re-planning through the plan store),
/// and BiM each run an 8-task flow once clean and once under a seeded fault
/// storm with a mid-trace workload phase change. Reports per-controller
/// energy-efficiency *recovery* — faulted EE normalized by the clean static
/// plan's EE, one shared denominator so rows compare directly. The
/// `ee_recovery <controller> <value>` lines are stable output consumed by
/// `scripts/bench.sh` and `scripts/check.sh`.
fn hybridsim(model: &str, opts: &Options) -> CliResult {
    let platform = platform_for(opts);
    let g = graph_for(model, opts)?;
    let model = if model.is_empty() {
        g.name().to_string()
    } else {
        model.to_string()
    };
    let pl = planner(&platform, opts)?;
    let store = store_for(opts)?;
    let outcome = store.get_or_plan(&pl, &g)?;

    let tasks: Vec<TaskSpec<'_>> = (0..HYBRIDSIM_TASKS)
        .map(|_| TaskSpec {
            graph: &g,
            images: opts.images,
        })
        .collect();
    let clean = Engine::new(&platform).with_batch(opts.batch);

    // Clean static-plan leg first: its EE is the recovery denominator, and
    // its midpoint anchors the phase change in simulated time.
    let mut leg = PlanController::new(outcome.plan.clone());
    let plan_clean = run_taskflow(&clean, &tasks, &mut leg);

    let mut spec_opts = opts.clone();
    if spec_opts.faults.is_none() {
        spec_opts.faults = Some(DEFAULT_HYBRIDSIM_SPEC.to_string());
    }
    let mut fault_plan =
        fault_plan_for(&spec_opts, &platform)?.expect("hybridsim always has a fault spec");
    if fault_plan.phase_power_drift == 0.0 {
        fault_plan.phase_power_drift = HYBRIDSIM_PHASE_DRIFT;
        fault_plan.phase_at_s = plan_clean.total_time / 2.0;
    }
    let faulted = Engine::new(&platform)
        .with_batch(opts.batch)
        .with_faults(fault_plan.clone());

    let mut leg = PlanController::new(outcome.plan.clone());
    let plan_faulted = run_taskflow(&faulted, &tasks, &mut leg);

    // The hybrid legs re-plan through the store under drift epochs; the
    // planner is deterministic, so a granted re-plan restores the original
    // operating points (dropping accumulated nudges) rather than inventing
    // new ones.
    let run_hybrid = |engine: &Engine<'_>| {
        let mut hook_err = None;
        let report;
        let stats;
        {
            let mut leg = HybridGovernor::new(&platform, outcome.plan.clone(), opts.batch)
                .with_replan_hook(Box::new(|graph, epoch| {
                    match store.lookup_or_plan_epoch(&pl, graph, None, epoch) {
                        Ok((o, _)) => Some(o.plan),
                        Err(e) => {
                            hook_err = Some(e.to_string());
                            None
                        }
                    }
                }));
            report = run_taskflow(engine, &tasks, &mut leg);
            stats = leg.stats();
        }
        if let Some(e) = hook_err {
            eprintln!("warning: re-plan hook failed, ladder fell back to reset: {e}");
        }
        (report, stats)
    };
    let (hybrid_clean, _) = run_hybrid(&clean);
    let (hybrid_faulted, stats) = run_hybrid(&faulted);

    let mut leg = Bim::new(&platform);
    let bim_clean = run_taskflow(&clean, &tasks, &mut leg);
    let mut leg = Bim::new(&platform);
    let bim_faulted = run_taskflow(&faulted, &tasks, &mut leg);

    println!(
        "{model} on {} ({HYBRIDSIM_TASKS} x {} images, batch {})",
        platform.name(),
        opts.images,
        opts.batch
    );
    println!("faults: {fault_plan}");
    println!(
        "{:<22} {:>11} {:>11} {:>9} {:>9} {:>7} {:>9}",
        "controller", "clean img/J", "fault img/J", "recovery", "switches", "failed", "injected"
    );
    let denom = plan_clean.energy_efficiency.max(f64::MIN_POSITIVE);
    let rows = [
        ("powerlens", &plan_clean, &plan_faulted),
        ("hybrid", &hybrid_clean, &hybrid_faulted),
        ("bim", &bim_clean, &bim_faulted),
    ];
    for (name, c, f) in rows {
        println!(
            "{:<22} {:>11.4} {:>11.4} {:>8.1}% {:>9} {:>7} {:>9}",
            name,
            c.energy_efficiency,
            f.energy_efficiency,
            f.energy_efficiency / denom * 100.0,
            f.num_switches,
            f.num_failed_switches,
            f.faults_injected,
        );
    }
    println!(
        "hybrid ladder: drift={} nudges={} replans={} throttled={}",
        stats.drift_detected, stats.nudges, stats.replans, stats.replan_throttled
    );

    // Greppable summary lines (consumed by scripts/bench.sh).
    for (name, _, f) in rows {
        println!("ee_recovery {name} {:.4}", f.energy_efficiency / denom);
    }
    let verdict = adaptation_verdict(
        hybrid_faulted.energy_efficiency,
        plan_faulted.energy_efficiency,
        bim_faulted.energy_efficiency,
    );
    println!("{}", verdict.as_ref().unwrap_or_else(|breach| breach));
    verdict.map(drop).map_err(Into::into)
}

/// hybridsim's floors: under faults the hybrid governor's energy
/// efficiency must reach the static plan's and 90% of BiM's. Returns the
/// report's closing line, as `Err` on a breach so the command exits
/// non-zero.
fn adaptation_verdict(hybrid: f64, plan: f64, bim: f64) -> Result<String, String> {
    if hybrid + 1e-9 >= plan && hybrid + 1e-9 >= 0.9 * bim {
        Ok("adaptation: hybrid holds the static-plan and BiM floors".to_string())
    } else {
        Err(format!(
            "adaptation: WARNING hybrid EE {hybrid:.4} under faults fell below \
             the static plan ({plan:.4}) or 90% of BiM ({bim:.4})"
        ))
    }
}

/// Lints one model (or the whole zoo) end to end: graph pack, the view
/// produced by clustering, an oracle-derived instrumentation plan with the
/// `PL209` cross-check enabled, and the `PL5xx` dataflow pack.
///
/// Exit behaviour (documented in the usage text): error-severity findings
/// fail with code 1. With `--baseline FILE`, findings of *any* severity
/// whose fingerprints are absent from the SARIF baseline additionally fail
/// with code 3 — the ratchet gate `scripts/check.sh` runs in CI. With
/// `--cache mem|disk`, reports for unchanged graphs are served from the
/// [`LintCache`] (the disk tier lives under `<cache-dir>/lint`).
fn lint_cmd(model: Option<&str>, opts: &Options) -> CliResult {
    let platform = platform_for(opts);
    let format = powerlens_lint::Format::parse(&opts.format)
        .ok_or_else(|| format!("unknown lint format {:?}", opts.format))?;
    let targets: Vec<Graph> = match (model, &opts.model) {
        (Some(name), _) => vec![model_for(name)?],
        (None, Some(path)) => vec![import_gated(path)?],
        (None, None) => zoo::all_models().iter().map(|(_, build)| build()).collect(),
    };
    let mode = cache_mode(opts)?;
    let cache = LintCache::open(mode, STORE_CAPACITY, Some(Path::new(&opts.cache_dir)))?;

    let mut reports = Vec::new();
    for g in &targets {
        match &cache {
            Some(c) => reports.extend(ops::lint_model_cached(&platform, g, opts.batch, c)?),
            None => reports.push(ops::lint_model(&platform, g, opts.batch)?),
        }
    }
    if let Some(c) = &cache {
        eprintln!("lint cache: hits={} misses={}", c.hits(), c.misses());
    }

    print!("{}", powerlens_lint::render(&reports, format));
    let errors: usize = reports.iter().map(|r| r.num_errors()).sum();
    if errors > 0 {
        let failed = reports.iter().filter(|r| r.has_errors()).count();
        return Err(format!(
            "lint found {errors} error(s) in {failed} of {} subject(s)",
            reports.len()
        )
        .into());
    }
    if let Some(path) = opts.baseline.as_deref() {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        let baseline = powerlens_lint::baseline_fingerprints(&text)
            .map_err(|e| format!("baseline {path}: {e}"))?;
        let fresh = powerlens_lint::new_findings(&reports, &baseline);
        if !fresh.is_empty() {
            for f in &fresh {
                eprintln!("new vs baseline: {}: {}", f.subject, f.line);
            }
            return Err(Box::new(BaselineViolation {
                new_findings: fresh.len(),
            }));
        }
        println!(
            "baseline: no new findings ({} grandfathered fingerprint(s))",
            baseline.len()
        );
    }
    Ok(())
}

/// Reads a `--trace json` report back from disk and re-renders its stats
/// table (default path matches what `--trace json` writes).
fn stats(path: Option<&str>) -> CliResult {
    use powerlens_obs::{HistogramStats, Snapshot, SpanStats, TRACE_SCHEMA_VERSION};
    use serde::Value;

    fn num(v: &Value) -> Result<f64, Box<dyn Error>> {
        match v {
            Value::Num(n) => Ok(*n),
            // non-finite floats are exported as `null`
            Value::Null => Ok(f64::NAN),
            other => Err(format!("expected number, found {}", other.kind()).into()),
        }
    }
    fn entries(v: &Value) -> Result<&[(String, Value)], Box<dyn Error>> {
        match v {
            Value::Object(fields) => Ok(fields),
            other => Err(format!("expected object, found {}", other.kind()).into()),
        }
    }

    let path = path.unwrap_or("results/trace.json");
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read trace report {path}: {e}"))?;
    let root: Value = serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse trace report {path}: {e}"))?;

    let version = num(root.field("powerlens_trace_version")?)?;
    if version != f64::from(TRACE_SCHEMA_VERSION) {
        return Err(format!(
            "trace report {path} has schema version {version}, this build reads version {TRACE_SCHEMA_VERSION}"
        )
        .into());
    }

    let mut snap = Snapshot::default();
    for (name, v) in entries(root.field("spans")?)? {
        snap.spans.insert(
            name.clone(),
            SpanStats {
                count: num(v.field("count")?)? as u64,
                total_ns: num(v.field("total_ns")?)? as u128,
                min_ns: num(v.field("min_ns")?)? as u128,
                max_ns: num(v.field("max_ns")?)? as u128,
            },
        );
    }
    for (name, v) in entries(root.field("counters")?)? {
        snap.counters.insert(name.clone(), num(v)? as u64);
    }
    for (name, v) in entries(root.field("gauges")?)? {
        snap.gauges.insert(name.clone(), num(v)?);
    }
    for (name, v) in entries(root.field("histograms")?)? {
        snap.histograms.insert(
            name.clone(),
            HistogramStats {
                count: num(v.field("count")?)? as u64,
                sum: num(v.field("sum")?)?,
                min: num(v.field("min")?)?,
                max: num(v.field("max")?)?,
            },
        );
    }
    println!("{path} (schema v{TRACE_SCHEMA_VERSION}):");
    print!("{}", snap.render_table());
    Ok(())
}

/// Runs the planning-as-a-service daemon until `POST /shutdown`.
///
/// Thin frontend over [`powerlens_serve::Server`]: maps the CLI options
/// onto a [`ServeConfig`], prints the bound address (`--port 0` picks an
/// ephemeral port, so scripts parse this line), and reports the final
/// tallies after a graceful shutdown.
fn serve_cmd(opts: &Options) -> CliResult {
    let cache = CacheMode::parse(&opts.cache)
        .ok_or_else(|| format!("unknown cache mode {:?}", opts.cache))?;
    let cfg = ServeConfig {
        addr: opts.addr.clone(),
        port: opts.port,
        workers: opts.threads,
        queue_depth: opts.queue_depth,
        cache,
        cache_dir: (cache == CacheMode::Disk).then(|| PathBuf::from(&opts.cache_dir)),
        platform: opts.platform.clone(),
        batch: opts.batch,
        images: opts.images,
        models: trained_models_for(opts)?,
    };
    let queue_depth = cfg.queue_depth;
    let server = Server::bind(cfg)?;
    println!("listening on {}", server.local_addr());
    println!(
        "endpoints: POST /plan /compare /lint /shutdown, GET /metrics /healthz \
         (queue depth {queue_depth}; POST /shutdown to stop)"
    );
    let report = server.run()?;
    println!(
        "served {} request(s), shed {}, degraded {}",
        report.requests, report.rejected, report.degraded
    );
    Ok(())
}

fn train(opts: &Options) -> CliResult {
    let platform = platform_for(opts);
    let config = PowerLensConfig::default();
    println!(
        "generating datasets on {} ({} random networks)...",
        platform.name(),
        opts.nets
    );
    let ds = dataset::generate(
        &platform,
        &config,
        &DatasetConfig {
            num_networks: opts.nets,
            ..DatasetConfig::default()
        },
    );
    println!(
        "dataset A: {} networks, dataset B: {} blocks; training...",
        ds.hyper.len(),
        ds.decision.len()
    );
    let models = train_models(
        &ds,
        config.schemes.len(),
        platform.gpu_levels(),
        &TrainingConfig::default(),
    );
    println!(
        "hyperparameter model: {:.1}% test accuracy",
        models.report.hyper_test_accuracy * 100.0
    );
    println!(
        "decision model:       {:.1}% test accuracy ({:.1}% within one level)",
        models.report.decision_test_accuracy * 100.0,
        models.report.decision_within_one_level * 100.0
    );
    models.save(Path::new(&opts.out))?;
    println!("saved to {}", opts.out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Command;

    fn opts() -> Options {
        Options {
            platform: "tx2".into(),
            batch: 4,
            images: 8,
            models: None,
            model: None,
            nets: 4,
            out: std::env::temp_dir()
                .join("powerlens_cli_test.json")
                .to_string_lossy()
                .into_owned(),
            format: "human".into(),
            baseline: None,
            trace: TraceMode::Off,
            cache: "off".into(),
            cache_dir: std::env::temp_dir()
                .join("powerlens_cli_test_cache")
                .to_string_lossy()
                .into_owned(),
            threads: 2,
            faults: None,
            fault_seed: None,
            addr: "127.0.0.1".into(),
            port: 0,
            queue_depth: 8,
            hybrid: false,
        }
    }

    #[test]
    fn zoo_and_inspect_succeed() {
        run(Command::Zoo).unwrap();
        run(Command::Inspect {
            model: "alexnet".into(),
        })
        .unwrap();
    }

    #[test]
    fn unknown_model_is_reported() {
        let err = run(Command::Inspect {
            model: "nope".into(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown model"));
    }

    #[test]
    fn sweep_plan_compare_run_on_small_model() {
        run(Command::Sweep {
            model: "alexnet".into(),
            opts: opts(),
        })
        .unwrap();
        run(Command::Plan {
            model: "alexnet".into(),
            opts: opts(),
        })
        .unwrap();
        run(Command::Compare {
            model: "alexnet".into(),
            opts: opts(),
        })
        .unwrap();
    }

    #[test]
    fn trace_writes_csv() {
        let mut o = opts();
        let path = std::env::temp_dir().join("powerlens_cli_trace.csv");
        o.out = path.to_string_lossy().into_owned();
        run(Command::Trace {
            model: "alexnet".into(),
            opts: o,
        })
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("t_start,"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn faultsim_runs_with_default_and_custom_specs() {
        run(Command::FaultSim {
            model: "alexnet".into(),
            opts: opts(),
        })
        .unwrap();
        let mut o = opts();
        o.faults = Some("switch_fail=0.5,retries=0".into());
        o.fault_seed = Some(7);
        run(Command::FaultSim {
            model: "alexnet".into(),
            opts: o,
        })
        .unwrap();
    }

    #[test]
    fn hybridsim_runs_with_default_and_custom_storms() {
        run(Command::HybridSim {
            model: "alexnet".into(),
            opts: opts(),
        })
        .unwrap();
        // A spec carrying its own phase change is honored as-is.
        let mut o = opts();
        o.faults = Some("switch_fail=0.3,retries=1,phase=0.2,phase_at=0.5".into());
        o.fault_seed = Some(11);
        run(Command::HybridSim {
            model: "alexnet".into(),
            opts: o,
        })
        .unwrap();
    }

    #[test]
    fn robustness_verdict_fails_below_the_bim_floor() {
        assert!(robustness_verdict(0.95, 1.0).is_ok());
        assert!(robustness_verdict(0.9, 1.0).is_ok());
        let breach = robustness_verdict(0.899, 1.0).unwrap_err();
        assert!(breach.contains("WARNING"), "{breach}");
        assert!(robustness_verdict(0.5, 0.0).is_ok());
    }

    #[test]
    fn adaptation_verdict_fails_below_either_floor() {
        assert!(adaptation_verdict(10.6359, 10.6359, 8.6485).is_ok());
        assert!(adaptation_verdict(10.7, 10.6359, 8.6485).is_ok());
        // The mobilenet_v3 storm on tx2: the hybrid lands just under the
        // static plan, so the command must fail.
        let breach = adaptation_verdict(10.6343, 10.6359, 8.6485).unwrap_err();
        assert!(
            breach.contains("10.6343") && breach.contains("10.6359"),
            "{breach}"
        );
        // Above the static plan but under 90% of BiM.
        assert!(adaptation_verdict(5.0, 4.0, 6.0).is_err());
        assert!(adaptation_verdict(5.4, 4.0, 6.0).is_ok());
    }

    #[test]
    fn faultsim_and_compare_accept_the_hybrid_flag() {
        let mut o = opts();
        o.hybrid = true;
        run(Command::FaultSim {
            model: "alexnet".into(),
            opts: o.clone(),
        })
        .unwrap();
        run(Command::Compare {
            model: "alexnet".into(),
            opts: o,
        })
        .unwrap();
    }

    #[test]
    fn invalid_fault_spec_is_rejected_by_the_lint_gate() {
        let mut o = opts();
        o.faults = Some("switch_fail=1.5".into());
        let err = run(Command::FaultSim {
            model: "alexnet".into(),
            opts: o,
        })
        .unwrap_err();
        assert!(err.to_string().contains("invalid fault plan"));
        assert!(err.to_string().contains("PL401"));

        let mut o = opts();
        o.faults = Some("frobnicate=1".into());
        let err = run(Command::Compare {
            model: "alexnet".into(),
            opts: o,
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown fault spec key"));
    }

    #[test]
    fn compare_and_trace_accept_fault_flags() {
        let mut o = opts();
        o.faults = Some("switch_fail=0.2".into());
        run(Command::Compare {
            model: "alexnet".into(),
            opts: o,
        })
        .unwrap();
        let mut o = opts();
        o.faults = Some("drop=0.2,noise=0.1".into());
        let path = std::env::temp_dir().join("powerlens_cli_fault_trace.csv");
        o.out = path.to_string_lossy().into_owned();
        run(Command::Trace {
            model: "alexnet".into(),
            opts: o,
        })
        .unwrap();
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .starts_with("t_start,"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lint_passes_on_zoo_model_and_rejects_bad_format() {
        run(Command::Lint {
            model: Some("alexnet".into()),
            opts: opts(),
        })
        .unwrap();
        let mut o = opts();
        o.format = "sarif".into();
        run(Command::Lint {
            model: Some("alexnet".into()),
            opts: o,
        })
        .unwrap();
        let mut o = opts();
        o.format = "xml".into();
        let err = run(Command::Lint {
            model: Some("alexnet".into()),
            opts: o,
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown lint format"));
    }

    #[test]
    fn lint_baseline_grandfathers_old_findings_and_fails_on_new() {
        // googlenet's dead branch4.pool side chains guarantee findings on
        // any platform, so the ratchet has something to grandfather.
        let o = opts();
        let platform = ops::platform_by_name(&o.platform).unwrap();
        let g = zoo::by_name("googlenet").unwrap();
        let reports = vec![ops::lint_model(&platform, &g, o.batch).unwrap()];
        assert!(!reports[0].diagnostics.is_empty());

        let dir = std::env::temp_dir();
        let full = dir.join(format!(
            "powerlens_cli_baseline_full_{}.sarif",
            std::process::id()
        ));
        std::fs::write(
            &full,
            serde_json::to_string(&powerlens_lint::to_sarif(&reports)).unwrap(),
        )
        .unwrap();
        let empty = dir.join(format!(
            "powerlens_cli_baseline_empty_{}.sarif",
            std::process::id()
        ));
        std::fs::write(&empty, "{\"runs\": []}").unwrap();

        // A baseline covering every current finding: the ratchet passes.
        let mut o = opts();
        o.baseline = Some(full.to_string_lossy().into_owned());
        run(Command::Lint {
            model: Some("googlenet".into()),
            opts: o,
        })
        .unwrap();

        // An empty baseline: every finding is new, the typed error fires.
        let mut o = opts();
        o.baseline = Some(empty.to_string_lossy().into_owned());
        let err = run(Command::Lint {
            model: Some("googlenet".into()),
            opts: o,
        })
        .unwrap_err();
        let violation = err
            .downcast_ref::<BaselineViolation>()
            .expect("must be the typed ratchet error, not a plain string");
        assert!(violation.new_findings > 0);

        // A missing baseline file is an ordinary (exit 1) error.
        let mut o = opts();
        o.baseline = Some("/nonexistent/baseline.sarif".into());
        let err = run(Command::Lint {
            model: Some("googlenet".into()),
            opts: o,
        })
        .unwrap_err();
        assert!(err.downcast_ref::<BaselineViolation>().is_none());

        std::fs::remove_file(&full).ok();
        std::fs::remove_file(&empty).ok();
    }

    #[test]
    fn lint_disk_cache_serves_the_second_invocation() {
        let dir =
            std::env::temp_dir().join(format!("powerlens_cli_lint_cache_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut o = opts();
        o.cache = "disk".into();
        o.cache_dir = dir.to_string_lossy().into_owned();
        for _ in 0..2 {
            run(Command::Lint {
                model: Some("alexnet".into()),
                opts: o.clone(),
            })
            .unwrap();
        }
        // The disk tier now holds the entry the second run was served from.
        let entries: Vec<_> = std::fs::read_dir(dir.join("lint"))
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .collect();
        assert_eq!(entries.len(), 1, "one lint entry for one (graph, batch)");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_produces_loadable_models() {
        let o = opts();
        run(Command::Train { opts: o.clone() }).unwrap();
        let models = TrainedModels::load(Path::new(&o.out)).unwrap();
        assert!(models.report.num_hyper_samples >= 4);
        std::fs::remove_file(&o.out).ok();
    }

    #[test]
    fn plan_batch_runs_named_models_through_the_mem_cache() {
        let mut o = opts();
        o.cache = "mem".into();
        // A duplicate guarantees at least one cache hit inside the run.
        run(Command::PlanBatch {
            models: vec!["alexnet".into(), "mobilenet_v3".into(), "alexnet".into()],
            opts: o,
        })
        .unwrap();
    }

    #[test]
    fn plan_batch_reports_unknown_models() {
        let err = run(Command::PlanBatch {
            models: vec!["nope".into()],
            opts: opts(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown model"));
    }

    #[test]
    fn plan_with_disk_cache_populates_the_cache_dir() {
        let dir = std::env::temp_dir().join(format!("powerlens_cli_disk_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut o = opts();
        o.cache = "disk".into();
        o.cache_dir = dir.to_string_lossy().into_owned();
        // Twice: the second run must hit the entry the first one persisted.
        for _ in 0..2 {
            run(Command::Plan {
                model: "alexnet".into(),
                opts: o.clone(),
            })
            .unwrap();
        }
        let entries = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .count();
        assert_eq!(entries, 1, "one cached plan on disk");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_cache_mode_is_reported() {
        let mut o = opts();
        o.cache = "ram".into();
        let err = run(Command::Plan {
            model: "alexnet".into(),
            opts: o,
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown cache mode"));
    }

    #[test]
    fn missing_models_file_is_reported() {
        let mut o = opts();
        o.models = Some("/nonexistent/models.json".into());
        let err = run(Command::Plan {
            model: "alexnet".into(),
            opts: o,
        })
        .unwrap_err();
        assert!(err.to_string().contains("cannot load models"));
    }

    /// Exports a zoo model to a temp manifest and returns the path.
    fn exported_manifest(model: &str, tag: &str) -> std::path::PathBuf {
        let g = zoo::by_name(model).unwrap();
        let path = std::env::temp_dir().join(format!(
            "powerlens_cli_manifest_{tag}_{}.json",
            std::process::id()
        ));
        std::fs::write(&path, powerlens_ingest::export(&g)).unwrap();
        path
    }

    #[test]
    fn import_round_trips_an_exported_zoo_model() {
        let path = exported_manifest("alexnet", "import");
        run(Command::Import {
            path: path.to_string_lossy().into_owned(),
            opts: opts(),
        })
        .unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn import_rejects_a_malformed_manifest() {
        let path = std::env::temp_dir().join(format!(
            "powerlens_cli_manifest_bad_{}.json",
            std::process::id()
        ));
        std::fs::write(&path, "{\"schema_version\":1,").unwrap();
        let err = run(Command::Import {
            path: path.to_string_lossy().into_owned(),
            opts: opts(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("cannot import"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn plan_compare_and_lint_accept_a_manifest_via_the_model_flag() {
        let path = exported_manifest("alexnet", "flag");
        let mut o = opts();
        o.model = Some(path.to_string_lossy().into_owned());
        run(Command::Plan {
            model: String::new(),
            opts: o.clone(),
        })
        .unwrap();
        run(Command::Compare {
            model: String::new(),
            opts: o.clone(),
        })
        .unwrap();
        run(Command::Lint {
            model: None,
            opts: o,
        })
        .unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn plan_batch_appends_the_imported_manifest() {
        let path = exported_manifest("mobilenet_v3", "batch");
        let mut o = opts();
        o.model = Some(path.to_string_lossy().into_owned());
        // Mixes a zoo name with an imported manifest in one batch; any
        // failed plan (including the imported one) turns into an Err.
        run(Command::PlanBatch {
            models: vec!["alexnet".into()],
            opts: o,
        })
        .unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_manifest_path_is_reported() {
        let mut o = opts();
        o.model = Some("/nonexistent/model.json".into());
        let err = run(Command::Plan {
            model: String::new(),
            opts: o,
        })
        .unwrap_err();
        assert!(err.to_string().contains("cannot read manifest"));
    }
}
