//! cli_plan_cold and cli_plan_warm: two closed-loop client threads of one
//! process each run the release `powerlens-cli plan` with `--cache disk`,
//! one process at a time, through a launcher (see `launch.rs`).
//!
//! The items are the twelve zoo models, the example manifests under
//! `examples/models`, and one exported zoo manifest (fifteen in all), run
//! in a fresh seeded
//! order each round. A cold invocation gets an empty cache directory, so it
//! plans; a warm one gets the directory its item filled during setup, so it
//! loads, lint-gates and validates the stored plan without clustering.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use powerlens::PlanController;
use powerlens_dnn::{zoo, Graph};
use powerlens_features::GlobalFeatures;
use powerlens_lint::{
    lint_cached_plan, lint_view, platform_signature, CachedPlanContext, LintConfig,
};
use powerlens_platform::Platform;
use powerlens_sim::Engine;
use powerlens_store::{cache_key_for, DiskTier, StoredEntry, SCHEMA_VERSION};

use crate::launch::Launchers;
use crate::reference::{self, parse_cli_table, staged_plan_oracle, Reference};
use crate::stats::{self, ms};
use crate::trace::Tracer;
use crate::workload;
use crate::{Report, Run};

/// Images in the CLI's post-planning validation run (its default).
const VALIDATE_IMAGES: usize = 48;

/// The zoo model exported to a manifest file during setup.
const EXPORTED: &str = "resnet34";

/// What one plan invocation plans.
enum Target {
    /// A zoo model, by name.
    Zoo(&'static str),
    /// A manifest file, passed with `--model`.
    Manifest(PathBuf),
}

/// One plan invocation target and its reference plan.
struct Item {
    target: Target,
    reference: Reference,
}

impl Item {
    fn args(&self, cache_dir: &Path) -> Vec<String> {
        let mut args = vec!["plan".to_string()];
        match &self.target {
            Target::Zoo(name) => args.push(name.to_string()),
            Target::Manifest(path) => {
                args.push("--model".to_string());
                args.push(path.display().to_string());
            }
        }
        args.extend(["--cache", "disk", "--cache-dir"].map(String::from));
        args.push(cache_dir.display().to_string());
        args
    }
}

fn items(run: &Run, platform: &Platform) -> Result<Vec<Item>, String> {
    // Fifteen items: each holds 1/15 of the runs, so the median and the
    // p90 fall inside one item's latency cluster, not on a gap between two.
    let mut targets: Vec<(Target, Graph)> = zoo::all_models()
        .into_iter()
        .map(|(name, build)| (Target::Zoo(name), build()))
        .collect();
    let exported = run.dir.join(format!("{EXPORTED}.json"));
    let g = zoo::by_name(EXPORTED).ok_or("zoo lacks the exported model")?;
    std::fs::write(&exported, powerlens_ingest::export(&g)).map_err(|e| e.to_string())?;
    let mut manifests: Vec<PathBuf> = std::fs::read_dir("examples/models")
        .map_err(|e| format!("examples/models: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| std::env::current_dir().map(|d| d.join(p)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    manifests.sort();
    manifests.push(exported);
    for path in manifests {
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let graph = powerlens_ingest::import_str(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .graph;
        targets.push((Target::Manifest(path), graph));
    }
    // Deepest first, so the two set-up threads finish together rather than
    // one of them drawing both of the slowest graphs last.
    targets.sort_by_key(|(_, g)| std::cmp::Reverse(g.num_layers()));
    let refs = crate::par_map(&targets, |(_, g)| Reference::oracle(platform, g));
    Ok(targets
        .into_iter()
        .zip(refs)
        .map(|((target, _), reference)| Item { target, reference })
        .collect())
}

/// The entry files in a cache directory, with their modification times.
fn entries(dir: &Path) -> Vec<(PathBuf, Option<SystemTime>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .map(|e| (e.path(), e.metadata().ok().and_then(|m| m.modified().ok())))
        .filter(|(p, _)| p.is_file())
        .collect();
    out.sort();
    out
}

/// One set-up: references for every item, a clean cache root and, for the
/// warm workload, one filled cache directory per item.
fn setup(
    run: &Run,
    launchers: &Launchers,
    platform: &Platform,
    warm: bool,
) -> Result<Vec<Item>, String> {
    clear_caches(run);
    let items = items(run, platform)?;
    std::fs::create_dir_all(run.dir.join("cold")).map_err(|e| e.to_string())?;
    if warm {
        let indices: Vec<usize> = (0..items.len()).collect();
        let fills = crate::par_map(&indices, |&i| {
            launchers.invoke(&items[i].args(&warm_dir(run, i)))
        });
        for (i, fill) in fills.into_iter().enumerate() {
            let code = fill?.exit_code;
            if code != 0 {
                return Err(format!("filling the cache for item {i} exited {code}"));
            }
        }
    }
    Ok(items)
}

/// Removes every cache directory a run made; thousands of cold entries
/// would otherwise pile up in the checkout, run after run.
fn clear_caches(run: &Run) {
    for sub in ["cold", "warm", "replay"] {
        let _ = std::fs::remove_dir_all(run.dir.join(sub));
    }
}

fn warm_dir(run: &Run, item: usize) -> PathBuf {
    run.dir.join("warm").join(item.to_string())
}

/// Runs cli_plan_warm (`warm`) or cli_plan_cold.
pub fn run(run: &Run, warm: bool) -> Result<Report, String> {
    let platform = Platform::agx();
    let mut report = Report::default();
    let launchers = Launchers::start(&run.cli, &run.dir)?;
    let (items, setup_s) =
        crate::timed_setups(|| setup(run, &launchers, &platform, warm), |_| Ok(()))?;
    report.setup_s = Some(setup_s);
    let before: Vec<_> = (0..items.len())
        .map(|i| entries(&warm_dir(run, i)))
        .collect();

    let order = workload::round_order(run.seed, items.len(), 100_000);
    let window = Duration::from_secs_f64(if run.trace {
        run.seconds * 0.5
    } else {
        run.seconds
    });
    let dir_for = |n: usize| {
        if warm {
            warm_dir(run, order[n])
        } else {
            run.dir.join("cold").join(n.to_string())
        }
    };
    let (done, elapsed) = crate::closed_loop(window, order.len(), |n| {
        launchers.invoke(&items[order[n]].args(&dir_for(n)))
    });

    // Verification, off the clock.
    let mut gain_sum = 0.0;
    for d in &done {
        report.attempted += 1;
        let i = order[d.index];
        let r = &items[i].reference;
        let ok = match &d.out {
            Ok(inv) => {
                inv.exit_code == 0
                    && parse_cli_table(&inv.stdout, r.shape.cpu_level).is_ok_and(|s| s == r.shape)
            }
            Err(_) => false,
        };
        if !ok {
            report.failed += 1;
            if report.failed <= 3 {
                eprintln!(
                    "perfbench: item {i} failed: {:.300?}",
                    d.out.as_ref().map(|inv| &inv.stdout)
                );
            }
            continue;
        }
        gain_sum += r.ee_gain;
        if !warm && entries(&dir_for(d.index)).len() != 1 {
            report.problem(format!(
                "cold run of item {i} did not persist exactly one entry"
            ));
        }
    }
    if warm {
        for (i, listing) in before.iter().enumerate() {
            if listing.len() != 1 || entries(&warm_dir(run, i)) != *listing {
                report.problem(format!(
                    "warm cache of item {i} was rewritten: not every run hit"
                ));
            }
        }
    }
    let ok = report.attempted - report.failed;
    // Spawn to reap as the launcher timed it; the client's own clock adds
    // the hop to the launcher.
    let walls: Vec<f64> = done
        .iter()
        .map(|d| ms(d.out.as_ref().map_or(d.latency, |inv| inv.wall)))
        .collect();
    if run.trace {
        replay(
            run,
            &platform,
            &items,
            &order,
            warm,
            stats::mean(&walls).unwrap_or(0.0),
            &mut report,
        )?;
    } else {
        let finished: Vec<f64> = done.iter().map(|d| d.at.as_secs_f64()).collect();
        report.throughput(&finished, elapsed);
        report.latencies(&walls);
        let rss: Vec<f64> = done
            .iter()
            .filter_map(|d| d.out.as_ref().ok().map(|inv| inv.maxrss_mb))
            .collect();
        report.peak_rss_mb = stats::median(&rss);
        report.ee_gain = (ok > 0).then(|| gain_sum / ok as f64);
    }
    clear_caches(run);
    Ok(report)
}

/// Replays `powerlens-cli plan --cache disk` in-process, one span per layer
/// call: graph resolution (zoo or `import_str`), fingerprint, key, disk
/// load, then either the lint gate on a hit or staged planning plus the
/// disk write on a miss, the per-block feature table, and the validation
/// run.
#[allow(clippy::too_many_arguments)]
fn replay(
    run: &Run,
    platform: &Platform,
    items: &[Item],
    order: &[usize],
    warm: bool,
    untraced_mean: f64,
    report: &mut Report,
) -> Result<(), String> {
    let pl = powerlens_serve::ops::make_planner(platform, reference::BATCH, None);
    let budget = Duration::from_secs_f64(run.seconds * 0.3);
    let mut t = Tracer::new(Instant::now());
    let (mut ops, mut hits, mut mismatches) = (0usize, 0usize, 0usize);
    let started = Instant::now();
    for (n, &i) in order.iter().enumerate() {
        if started.elapsed() >= budget {
            break;
        }
        let item = &items[i];
        let dir = if warm {
            warm_dir(run, i)
        } else {
            run.dir.join("replay").join(n.to_string())
        };
        let id = n as u64;
        let (shape, hit) = t.span("cli.op", id, |t| {
            replay_one(t, id, platform, &pl, item, &dir)
        })?;
        if shape != item.reference.shape {
            mismatches += 1;
        }
        hits += usize::from(hit);
        ops += 1;
        if !warm {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    if mismatches > 0 {
        report.problem(format!(
            "{mismatches} replayed plans differ from the reference"
        ));
    }
    let own = t.self_times();
    let n = ops.max(1) as f64;
    let per = |name: &str, scale: f64| own.get(name).map_or(0.0, |d| d.as_secs_f64() * scale / n);
    let op_ms = t.durations().get("cli.op").map_or(0.0, |d| ms(*d) / n);
    let layers = &mut report.layers;
    layers.insert("dnn.graph_build_us", per("dnn.graph_build", 1e6));
    layers.insert("ingest.import_str_us", per("ingest.import_str", 1e6));
    layers.insert("dnn.fingerprint_us", per("dnn.fingerprint", 1e6));
    layers.insert("store.key_us", per("store.key", 1e6));
    layers.insert("store.disk_load_us", per("store.disk_load", 1e6));
    layers.insert(
        "lint.cached_plan_gate_us",
        per("lint.cached_plan_gate", 1e6),
    );
    layers.insert("store.disk_store_us", per("store.disk_store", 1e6));
    layers.insert("features.global_us", per("features.global", 1e6));
    layers.insert(
        "cluster.distance_build_ms",
        per("cluster.distance_build", 1e3),
    );
    layers.insert("cluster.rethreshold_ms", per("cluster.rethreshold", 1e3));
    layers.insert("governors.oracle_ms", per("governors.oracle", 1e3));
    layers.insert("core.evaluate_ms", per("core.evaluate", 1e3));
    layers.insert("sim.validate_us", per("sim.validate", 1e6));
    layers.insert("cli.output_us", per("cli.output", 1e6));
    layers.insert("replay.glue_us", per("cli.op", 1e6));
    layers.insert("store.hit_ratio", hits as f64 / n);
    layers.insert("cli.process_ms", untraced_mean - op_ms);
    layers.insert("replay.ops", ops as f64);
    report.check_accounting(op_ms, untraced_mean);
    let _ = t.write_csv(&run.dir.join("replay_spans.csv"));
    Ok(())
}

fn replay_one(
    t: &mut Tracer,
    id: u64,
    platform: &Platform,
    pl: &powerlens::PowerLens<'_>,
    item: &Item,
    dir: &Path,
) -> Result<(crate::reference::PlanShape, bool), String> {
    let graph = match &item.target {
        Target::Zoo(name) => t.span("dnn.graph_build", id, |_| {
            powerlens_serve::ops::graph_by_name(name)
        })?,
        Target::Manifest(path) => {
            t.span("ingest.import_str", id, |_| -> Result<Graph, String> {
                let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                let (result, _report) =
                    powerlens_ingest::import_and_lint("manifest", &text, &LintConfig::default());
                result.map(|i| i.graph).map_err(|e| e.to_string())
            })?
        }
    };
    t.span("dnn.fingerprint", id, |_| graph.fingerprint());
    let key = t.span("store.key", id, |_| cache_key_for(pl, &graph, None));
    let (disk, loaded) = t.span("store.disk_load", id, |_| -> Result<_, String> {
        let disk = DiskTier::new(dir).map_err(|e| e.to_string())?;
        let loaded = disk.load(key);
        Ok((disk, loaded))
    })?;
    let gated = loaded.and_then(|entry| {
        t.span("lint.cached_plan_gate", id, |_| {
            if entry.graph_fingerprint != format!("{:016x}", graph.fingerprint()) {
                return None;
            }
            let outcome = entry.to_outcome();
            let config = LintConfig {
                max_blocks: pl.config().max_blocks,
                ..LintConfig::default()
            };
            let mut report = lint_cached_plan(
                &CachedPlanContext {
                    plan: &outcome.plan,
                    platform,
                    entry_platform: &entry.platform,
                    entry_schema: entry.schema_version,
                    expected_schema: SCHEMA_VERSION,
                },
                &config,
            );
            report.merge(lint_view(&outcome.view, Some(&graph), &config));
            (!report.has_errors()).then_some(outcome)
        })
    });
    let hit = gated.is_some();
    let outcome = match gated {
        Some(o) => o,
        None => {
            let o = staged_plan_oracle(t, id, pl, &graph)?;
            t.span("store.disk_store", id, |_| {
                let entry = StoredEntry::from_outcome(
                    key,
                    &platform_signature(platform),
                    graph.name(),
                    graph.fingerprint(),
                    &o,
                );
                disk.store(key, &entry)
            })
            .map_err(|e| e.to_string())?;
            o
        }
    };
    let table: Vec<(usize, usize, f64, f64)> = t.span("features.global", id, |_| {
        outcome
            .view
            .blocks()
            .iter()
            .map(|b| {
                let f = GlobalFeatures::of_range(&graph, b.start, b.end);
                (b.start, b.end, f.statistics[0], f.statistics[3])
            })
            .collect()
    });
    let shape = crate::reference::PlanShape::of(&outcome);
    let engine = Engine::new(platform).with_batch(reference::BATCH);
    let sim = t.span("sim.validate", id, |_| {
        engine.run(
            &graph,
            &mut PlanController::new(outcome.plan),
            VALIDATE_IMAGES,
        )
    });
    t.span("cli.output", id, |_| {
        std::hint::black_box(format!("{table:?} {} {}", sim.fps, sim.energy_efficiency))
    });
    Ok((shape, hit))
}
