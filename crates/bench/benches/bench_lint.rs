//! Criterion micro-benchmarks: the static analyzer, sized against the
//! pipeline stages its debug gates ride on. `scripts/bench.sh` divides
//! `lint_gate/*` by `lint_reference/*` to report the gate overhead
//! (`lint_overhead` in the summary JSON) — the budget is <2%.

use criterion::{criterion_group, criterion_main, Criterion};
use powerlens_cluster::{cluster_graph, ClusterParams};
use powerlens_dnn::zoo;
use powerlens_governors::oracle;
use powerlens_lint::{
    lint_dataflow, lint_graph, lint_pipeline, lint_plan, lint_view, DataflowContext, LintConfig,
    PlanContext,
};
use powerlens_platform::{InstrumentationPlan, InstrumentationPoint, Platform};
use powerlens_sim::{Engine, StaticController};
use powerlens_store::{lint_cache_key, CacheMode, LintCache};
use std::hint::black_box;

/// The three packs in isolation, on the largest zoo model.
fn bench_packs(c: &mut Criterion) {
    let config = LintConfig::default();
    let agx = Platform::agx();
    let g = zoo::resnet152();
    let view = cluster_graph(&g, &ClusterParams::default()).unwrap();
    let points = view
        .blocks()
        .iter()
        .map(|b| InstrumentationPoint {
            layer: b.start,
            gpu_level: 7,
        })
        .collect();
    let plan = InstrumentationPlan::new(points, 0);

    let mut group = c.benchmark_group("lint_gate");
    group.bench_function("graph_pack_resnet152", |b| {
        b.iter(|| lint_graph(black_box(&g), &config))
    });
    group.bench_function("view_plan_packs_resnet152", |b| {
        b.iter(|| {
            let mut r = lint_view(black_box(&view), Some(&g), &config);
            r.merge(lint_plan(
                &PlanContext {
                    plan: &plan,
                    platform: &agx,
                    view: Some(&view),
                    graph: Some(&g),
                    oracle: None,
                },
                &config,
            ));
            r
        })
    });
    group.bench_function("dataflow_pack_resnet152", |b| {
        b.iter(|| {
            let mut ctx = DataflowContext::new(black_box(&g));
            ctx.platform = Some(&agx);
            ctx.view = Some(&view);
            ctx.plan = Some(&plan);
            ctx.batch = 8;
            lint_dataflow(&ctx, &config)
        })
    });
    group.finish();
}

/// The lint cache's payoff: a full un-cached lint run (all four packs on
/// the largest zoo model) vs a warm memory-tier lookup of the same
/// reports. `scripts/bench.sh` reports the ratio as `lint_cache_speedup`
/// (floor: >= 10x).
fn bench_cache(c: &mut Criterion) {
    let config = LintConfig::default();
    let agx = Platform::agx();
    let g = zoo::resnet152();
    let view = cluster_graph(&g, &ClusterParams::default()).unwrap();
    let points = view
        .blocks()
        .iter()
        .map(|b| InstrumentationPoint {
            layer: b.start,
            gpu_level: 7,
        })
        .collect();
    let plan = InstrumentationPlan::new(points, 0);
    let full_lint = || lint_pipeline(&g, &view, &plan, &agx, 8, None, &config);

    let mut group = c.benchmark_group("lint_cache");
    group.sample_size(10);
    group.bench_function("cold_resnet152", |b| b.iter(full_lint));
    let cache = LintCache::open(CacheMode::Mem, 1, None)
        .unwrap()
        .expect("mem mode opens a cache");
    let key = lint_cache_key(&g, &agx, 8);
    cache.put(key, &[full_lint()]);
    group.bench_function("warm_resnet152", |b| {
        b.iter(|| cache.get(black_box(key)).unwrap())
    });
    group.finish();
}

/// The pipeline stages the gates attach to, for the overhead ratio:
/// `sim::engine` lints the graph before a run, `core::pipeline` lints the
/// view + plan (and cross-checks PL209) after clustering and deciding.
fn bench_references(c: &mut Criterion) {
    let agx = Platform::agx();
    let g = zoo::resnet152();
    let engine = Engine::new(&agx).with_batch(8);
    let mut group = c.benchmark_group("lint_reference");
    group.sample_size(20);
    group.bench_function("engine_run_resnet152", |b| {
        b.iter(|| {
            let mut ctl = StaticController::new(7, 7);
            engine.run(black_box(&g), &mut ctl, 8)
        })
    });
    group.bench_function("cluster_and_decide_resnet152", |b| {
        b.iter(|| {
            let view = cluster_graph(black_box(&g), &ClusterParams::default()).unwrap();
            let points: Vec<_> = view
                .blocks()
                .iter()
                .map(|blk| InstrumentationPoint {
                    layer: blk.start,
                    gpu_level: oracle::best_level_for_range(
                        &agx,
                        &g,
                        blk.start,
                        blk.end,
                        8,
                        oracle::DEFAULT_SLACK,
                    ),
                })
                .collect();
            InstrumentationPlan::new(points, 0)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_packs, bench_cache, bench_references);
criterion_main!(benches);
