//! train: the paper's offline training phase.
//!
//! Set-up runs `dataset::generate` plus `train_models` in-process on the
//! workload seed, so `setup_s` is the training wall time. The timed
//! operations are the labelling step that dominates dataset generation:
//! `PowerLens::plan_oracle` over a pool of seeded random networks — many
//! small graphs, the opposite shape to serve_cold's few deep ones.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use powerlens::dataset::{self, DatasetConfig};
use powerlens::training::{train_models, TrainingConfig};
use powerlens::{PowerLens, TrainedModels};
use powerlens_dnn::random::{self, RandomDnnConfig};
use powerlens_dnn::Graph;
use powerlens_obs as obs;
use powerlens_platform::Platform;

use crate::reference::{self, staged_plan_oracle, PlanShape, Reference};
use crate::stats::{self, ms};
use crate::trace::Tracer;
use crate::workload;
use crate::{Report, Run};

/// Random networks labelled per training run.
const NETS: usize = 48;

/// Random networks in the timed labelling pool. Each run plans every one
/// many times, so the pool's cost distribution, not the draw of a few
/// graphs, sets the figures; the pool is drawn afresh for every seed, and
/// a larger pool keeps its mean cost closer from seed to seed.
const POOL: usize = 1024;

/// Worker threads for dataset generation (the reference box has two
/// cores).
const THREADS: usize = 2;

struct Trained {
    models: TrainedModels,
    dataset_s: f64,
    train_s: f64,
}

/// Generates the datasets and trains both models; `None` on a panic or a
/// non-finite accuracy.
fn train(platform: &Platform, seed: u64, t: &mut Tracer) -> Option<Trained> {
    let cfg = reference::config();
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        let started = Instant::now();
        let ds = t.span("core.dataset", 0, |_| {
            dataset::generate(
                platform,
                &cfg,
                &DatasetConfig {
                    num_networks: NETS,
                    seed: workload::derive(seed, 3),
                    threads: THREADS,
                    ..DatasetConfig::default()
                },
            )
        });
        let dataset_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let models = t.span("core.train_models", 0, |_| {
            train_models(
                &ds,
                cfg.schemes.len(),
                platform.gpu_levels(),
                &TrainingConfig {
                    seed: workload::derive(seed, 4),
                    ..TrainingConfig::default()
                },
            )
        });
        Trained {
            models,
            dataset_s,
            train_s: started.elapsed().as_secs_f64(),
        }
    }));
    let trained = result.ok()?;
    let r = &trained.models.report;
    [r.hyper_test_accuracy, r.decision_test_accuracy]
        .iter()
        .all(|a| a.is_finite() && (0.0..=1.0).contains(a))
        .then_some(trained)
}

/// Runs the train workload.
pub fn run(run: &Run) -> Result<Report, String> {
    let platform = Platform::agx();
    let mut report = Report::default();
    let mut t = Tracer::new(Instant::now());
    if run.trace {
        // Counters from mlp, numeric and the dataset workers, for the one
        // traced training run.
        obs::init(obs::TraceMode::Json);
        obs::set_subscriber(Arc::new(obs::NullSubscriber));
    }
    let mut setups = Vec::new();
    let mut current = None;
    // Training takes seconds, so the minimum count already meets the set-up
    // budget; a traced run trains once, for its counters.
    for _ in 0..(if run.trace { 1 } else { crate::MIN_SETUPS }) {
        let started = Instant::now();
        report.attempted += 1;
        let Some(trained) = train(&platform, run.seed, &mut t) else {
            report.failed += 1;
            continue;
        };
        let graphs = random::generate_batch(
            &RandomDnnConfig::default(),
            workload::derive(run.seed, 5),
            POOL,
        );
        let refs = crate::par_map(&graphs, |g| Reference::oracle(&platform, g));
        setups.push(started.elapsed().as_secs_f64());
        current = Some((trained, graphs, refs));
    }
    let (trained, graphs, refs) = current.ok_or("every training run failed")?;
    report.setup_s = stats::median(&setups);
    if run.trace {
        let snap = obs::snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n.as_str() == name)
                .map_or(0.0, |(_, v)| *v as f64)
        };
        let layers = &mut report.layers;
        layers.insert("mlp.epochs", counter("mlp.epochs"));
        layers.insert("numeric.matmul_flops", counter("numeric.matmul.flops"));
        layers.insert("par.workers", counter("dataset.workers_spawned"));
        layers.insert("core.dataset_s", trained.dataset_s);
        layers.insert("core.train_models_s", trained.train_s);
        layers.insert("core.label_graphs_per_s", NETS as f64 / trained.dataset_s);
        layers.insert(
            "mlp.decision_acc",
            trained.models.report.decision_test_accuracy,
        );
        obs::init(obs::TraceMode::Off);
    }

    let pl = PowerLens::untrained(&platform, reference::config());
    let order = workload::round_order(run.seed, POOL, 200);
    let window = Duration::from_secs_f64(if run.trace {
        run.seconds * 0.5
    } else {
        run.seconds
    });
    let (done, elapsed) = crate::closed_loop(window, order.len(), |n| {
        panic::catch_unwind(AssertUnwindSafe(|| pl.plan_oracle(&graphs[order[n]])))
            .map_err(|_| "panicked".to_string())
            .and_then(|r| r.map(|o| PlanShape::of(&o)).map_err(|e| e.to_string()))
    });
    let mut gain_sum = 0.0;
    let mut ok = 0u64;
    for d in &done {
        let g = order[d.index];
        report.attempted += 1;
        if d.out.as_ref().is_ok_and(|shape| *shape == refs[g].shape) {
            gain_sum += refs[g].ee_gain;
            ok += 1;
        } else {
            report.failed += 1;
        }
    }
    let latencies: Vec<f64> = done.iter().map(|d| ms(d.latency)).collect();
    if run.trace {
        replay(
            run,
            &pl,
            &graphs,
            &refs,
            &order,
            stats::mean(&latencies).unwrap_or(0.0),
            &mut t,
            &mut report,
        );
    } else {
        let finished: Vec<f64> = done.iter().map(|d| d.at.as_secs_f64()).collect();
        report.throughput(&finished, elapsed);
        report.latencies(&latencies);
        report.peak_rss_mb = stats::vm_hwm_mb(None);
        report.ee_gain = (ok > 0).then(|| gain_sum / ok as f64);
    }
    Ok(report)
}

/// Replays the labelling plans stage by stage and checks each against the
/// reference.
#[allow(clippy::too_many_arguments)]
fn replay(
    run: &Run,
    pl: &PowerLens<'_>,
    graphs: &[Graph],
    refs: &[Reference],
    order: &[usize],
    untraced_mean: f64,
    t: &mut Tracer,
    report: &mut Report,
) {
    let budget = Duration::from_secs_f64(run.seconds * 0.25);
    let started = Instant::now();
    let mut ops = 0usize;
    let mut mismatches = 0usize;
    for (n, &g) in order.iter().enumerate() {
        if started.elapsed() >= budget {
            break;
        }
        let id = n as u64 + 1;
        let shape = t.span("core.label", id, |t| {
            staged_plan_oracle(t, id, pl, &graphs[g])
        });
        if shape.map(|o| PlanShape::of(&o)).as_ref() != Ok(&refs[g].shape) {
            mismatches += 1;
        }
        ops += 1;
    }
    if mismatches > 0 {
        report.problem(format!(
            "{mismatches} replayed labelling plans differ from plan_oracle"
        ));
    }
    let own = t.self_times();
    let n = ops.max(1) as f64;
    let per = |name: &str, scale: f64| own.get(name).map_or(0.0, |d| d.as_secs_f64() * scale / n);
    let op_ms = t.durations().get("core.label").map_or(0.0, |d| ms(*d) / n);
    // The same plans again, direct and untraced, one at a time like the
    // replay: the difference is what the spans and staging cost.
    let direct = Instant::now();
    for &g in &order[..ops] {
        std::hint::black_box(pl.plan_oracle(&graphs[g]).is_ok());
    }
    let direct_ms = ms(direct.elapsed()) / n;
    let layers = &mut report.layers;
    layers.insert("core.plan_oracle_ms", direct_ms);
    layers.insert("features.global_us", per("features.global", 1e6));
    layers.insert(
        "cluster.distance_build_ms",
        per("cluster.distance_build", 1e3),
    );
    layers.insert("cluster.rethreshold_ms", per("cluster.rethreshold", 1e3));
    layers.insert("governors.oracle_ms", per("governors.oracle", 1e3));
    layers.insert("core.evaluate_ms", per("core.evaluate", 1e3));
    layers.insert("replay.glue_us", per("core.label", 1e6));
    layers.insert("replay.ops", ops as f64);
    layers.insert("trace.overhead_ms", op_ms - direct_ms);
    report.check_accounting(op_ms, untraced_mean);
    let _ = t.write_csv(&run.dir.join("replay_spans.csv"));
}
