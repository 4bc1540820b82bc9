//! Criterion micro-benchmarks: power-behaviour similarity clustering
//! (Algorithm 1) — the dominant offline workflow cost (Table 3's 60 s row).

use criterion::{criterion_group, criterion_main, Criterion};
use powerlens_cluster::{
    cluster_graph, dbscan, power_distance_matrix, power_distance_matrix_reference, ClusterParams,
    DistanceCache,
};
use powerlens_dnn::zoo;
use powerlens_features::depthwise_features;
use std::hint::black_box;

fn bench_distance_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("power_distance_matrix");
    group.sample_size(20);
    for name in ["resnet34", "resnet152"] {
        let g = zoo::by_name(name).unwrap();
        let x = depthwise_features(&g);
        group.bench_function(name, |b| {
            b.iter(|| power_distance_matrix(black_box(&x), 0.7, 0.08).unwrap())
        });
        // The seed's per-pair Mahalanobis path, kept as the before-side of
        // the whitening comparison (identical output within 1e-9).
        group.bench_function(format_args!("reference_{name}"), |b| {
            b.iter(|| power_distance_matrix_reference(black_box(&x), 0.7, 0.08).unwrap())
        });
    }
    group.finish();
}

fn bench_dbscan(c: &mut Criterion) {
    let g = zoo::resnet152();
    let x = depthwise_features(&g);
    let d = power_distance_matrix(&x, 0.7, 0.08).unwrap();
    c.bench_function("dbscan_resnet152", |b| {
        b.iter(|| dbscan(black_box(&d), 0.15, 4))
    });
}

fn bench_full_algorithm1(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_graph");
    group.sample_size(10);
    for name in ["resnet152", "densenet201"] {
        let g = zoo::by_name(name).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| cluster_graph(black_box(&g), &ClusterParams::default()).unwrap())
        });
    }
    group.finish();
}

fn bench_sweep_incremental(c: &mut Criterion) {
    // The re-threshold cost of one cold plan: the 14-scheme production
    // grid (7 ε × minPts 3 and 6) through one DistanceCache, against a
    // single from-scratch `cluster_graph` call. On resnet152 the sweep
    // measured 1.2× the single call (medians of five runs on a 2-vCPU VM;
    // single runs read 0.8–2.0× on that noisy host). Before the neighbour
    // index, whose queries read a region instead of a row, it read 2.3×.
    let g = zoo::resnet152();
    let shape = ClusterParams::default();
    let mut group = c.benchmark_group("cluster_sweep");
    group.sample_size(10);
    group.bench_function("from_scratch_single", |b| {
        b.iter(|| cluster_graph(black_box(&g), &shape).unwrap())
    });
    group.bench_function("cached_14_scheme_sweep", |b| {
        b.iter(|| {
            let cache = DistanceCache::build(black_box(&g), &shape).unwrap();
            let mut blocks = 0usize;
            for eps in [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40] {
                for min_pts in [3usize, 6] {
                    let params = ClusterParams {
                        epsilon: eps,
                        min_pts,
                        ..shape
                    };
                    blocks += cache.cluster(&params).num_blocks();
                }
            }
            blocks
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_distance_matrix,
    bench_dbscan,
    bench_full_algorithm1,
    bench_sweep_incremental
);
criterion_main!(benches);
