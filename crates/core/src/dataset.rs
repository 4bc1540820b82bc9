//! Dataset generation (paper §2.2, "dataset generator").
//!
//! Produces the two labelled datasets of Figure 2:
//!
//! * **Dataset A** — per random network: global features → index of the
//!   clustering-hyperparameter scheme whose resulting plan achieves the best
//!   energy efficiency (each scheme's blocks are "deployed at all
//!   frequencies" through the analytic oracle);
//! * **Dataset B** — per power block of the winning scheme: block global
//!   features → the block's optimal frequency level.
//!
//! The paper generates 8000 networks yielding 31,242 block samples; the
//! count here is configurable (generation is CPU-cheap because the
//! frequency oracle is analytic rather than hardware-in-the-loop).

use powerlens_dnn::random::{self, RandomDnnConfig};
use powerlens_dnn::Graph;
use powerlens_features::GlobalFeatures;
use powerlens_mlp::{Sample, TwoStageSample};
use powerlens_obs as obs;
use powerlens_par as par;
use powerlens_platform::Platform;

use crate::{PowerLens, PowerLensConfig};

/// Configuration of the dataset generator.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Number of random networks to generate (paper: 8000).
    pub num_networks: usize,
    /// RNG seed for network generation.
    pub seed: u64,
    /// Random-network generator bounds.
    pub random: RandomDnnConfig,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            num_networks: 600,
            seed: 2024,
            random: RandomDnnConfig::default(),
            threads: 0,
        }
    }
}

/// The two generated datasets (unscaled features; scaling is fitted during
/// training).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Datasets {
    /// Dataset A: network global features → best scheme index.
    pub hyper: Vec<TwoStageSample>,
    /// Dataset B: block global features → optimal frequency level.
    pub decision: Vec<Sample>,
    /// Networks processed.
    pub num_networks: usize,
}

/// Labels one network: scores every scheme with the oracle planner, emits
/// one Dataset A sample (best scheme), and one Dataset B sample per distinct
/// block across *all* schemes' power views (the paper subjects each network
/// to "clustering algorithms with varying hyperparameters" and labels every
/// resulting block — 8000 networks yield 31,242 blocks, ~4 per network).
/// Every block label reads the cost table `plan_oracle` priced the network
/// with, and the scheme walk reads the power views its sweep clustered, so
/// each layer is priced and the distance matrix built once per network.
fn label_network(pl: &PowerLens<'_>, graph: &Graph) -> (TwoStageSample, Vec<Sample>) {
    let (outcome, table, raw_views) = pl
        .plan_oracle_priced(graph)
        .expect("random networks produce finite features");
    let global = GlobalFeatures::of_graph(graph);
    let hyper_sample = TwoStageSample {
        structural: global.structural.clone(),
        statistics: global.statistics.clone(),
        label: outcome.scheme_index,
    };

    let mut seen = std::collections::HashSet::new();
    let mut block_samples = Vec::new();
    let raw_blocks = raw_views.iter().flat_map(|v| v.blocks());
    for b in outcome.view.blocks().iter().chain(raw_blocks) {
        if seen.insert((b.start, b.end)) {
            block_samples.push(Sample {
                input: GlobalFeatures::of_range(graph, b.start, b.end).concat(),
                label: table.best_level(b.start, b.end, pl.config().slack),
            });
        }
    }
    (hyper_sample, block_samples)
}

/// Generates both datasets for `platform`, distributing networks over the
/// scoped thread pool ([`powerlens_par`]).
///
/// Each graph is an independent work unit and results are returned in
/// generation order, so the output is bit-identical for a fixed seed
/// regardless of `ds_config.threads`.
pub fn generate(
    platform: &Platform,
    pl_config: &PowerLensConfig,
    ds_config: &DatasetConfig,
) -> Datasets {
    let _span = obs::span("dataset_generate");
    let start = std::time::Instant::now();
    let graphs = random::generate_batch(&ds_config.random, ds_config.seed, ds_config.num_networks);
    let (workers, _) = par::plan(graphs.len(), ds_config.threads);
    obs::counter("dataset.workers_spawned", workers as u64);

    let pl = PowerLens::untrained(platform, pl_config.clone());
    let labeled: Vec<(TwoStageSample, Vec<Sample>)> =
        par::map_slice(&graphs, ds_config.threads, |_, g| {
            let graph_started = std::time::Instant::now();
            let labels = label_network(&pl, g);
            if obs::enabled() {
                obs::counter("dataset.graphs_labeled", 1);
                obs::histogram(
                    "dataset.graph_label_ms",
                    graph_started.elapsed().as_secs_f64() * 1e3,
                );
            }
            labels
        });

    let mut out = Datasets {
        num_networks: graphs.len(),
        ..Datasets::default()
    };
    for (h, mut d) in labeled {
        out.hyper.push(h);
        out.decision.append(&mut d);
    }
    if obs::enabled() {
        obs::counter("dataset.hyper_samples", out.hyper.len() as u64);
        obs::counter("dataset.decision_samples", out.decision.len() as u64);
        let secs = start.elapsed().as_secs_f64();
        if secs > 0.0 {
            obs::gauge("dataset.graphs_per_sec", out.num_networks as f64 / secs);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> DatasetConfig {
        DatasetConfig {
            num_networks: 12,
            seed: 7,
            random: RandomDnnConfig::default(),
            threads: 2,
        }
    }

    #[test]
    fn generates_one_hyper_sample_per_network() {
        let p = Platform::agx();
        let ds = generate(&p, &PowerLensConfig::default(), &small_config());
        assert_eq!(ds.hyper.len(), 12);
        assert_eq!(ds.num_networks, 12);
        assert!(ds.decision.len() >= 12, "at least one block per network");
    }

    #[test]
    fn labels_are_in_range() {
        let p = Platform::tx2();
        let plc = PowerLensConfig::default();
        let ds = generate(&p, &plc, &small_config());
        for s in &ds.hyper {
            assert!(s.label < plc.schemes.len());
            assert_eq!(s.structural.len(), GlobalFeatures::STRUCTURAL_DIM);
            assert_eq!(s.statistics.len(), GlobalFeatures::STATISTICS_DIM);
        }
        for s in &ds.decision {
            assert!(s.label < p.gpu_levels());
            assert_eq!(
                s.input.len(),
                GlobalFeatures::STRUCTURAL_DIM + GlobalFeatures::STATISTICS_DIM
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = Platform::agx();
        let plc = PowerLensConfig::default();
        let a = generate(&p, &plc, &small_config());
        let b = generate(&p, &plc, &small_config());
        assert_eq!(a, b);
    }

    #[test]
    fn generation_is_identical_for_any_thread_count() {
        // The acceptance bar for the scoped thread pool: a fixed seed must
        // produce bit-identical datasets on 1, 2, or 8 workers.
        let p = Platform::agx();
        let plc = PowerLensConfig::default();
        let run = |threads: usize| {
            generate(
                &p,
                &plc,
                &DatasetConfig {
                    threads,
                    ..small_config()
                },
            )
        };
        let sequential = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(sequential, run(threads), "threads={threads}");
        }
    }

    #[test]
    fn single_network_many_threads_generates_correctly() {
        // Regression: the end-to-end path with num_networks < threads must
        // not spawn idle workers (powerlens_par clamps the fan-out).
        let p = Platform::agx();
        let cfg = DatasetConfig {
            num_networks: 1,
            threads: 8,
            ..small_config()
        };
        let ds = generate(&p, &PowerLensConfig::default(), &cfg);
        assert_eq!(ds.hyper.len(), 1);
        assert_eq!(ds.num_networks, 1);
        assert!(!ds.decision.is_empty());
    }

    /// FNV-1a over every label and every input bit of a generated dataset.
    fn dataset_hash(ds: &Datasets) -> u64 {
        fn floats(words: &mut Vec<u64>, xs: &[f64]) {
            words.push(xs.len() as u64);
            words.extend(xs.iter().map(|x| x.to_bits()));
        }
        let mut words = vec![ds.num_networks as u64, ds.hyper.len() as u64];
        for s in &ds.hyper {
            words.push(s.label as u64);
            floats(&mut words, &s.structural);
            floats(&mut words, &s.statistics);
        }
        words.push(ds.decision.len() as u64);
        for s in &ds.decision {
            words.push(s.label as u64);
            floats(&mut words, &s.input);
        }
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn oracle_labels_are_pinned() {
        // Every hyper label, decision label and input bit of a 24-network
        // pool, hashed. The constants were recorded before the per-layer
        // cost table replaced the per-range oracle sweep; any change to an
        // oracle decision, a scheme choice or a feature moves them.
        let cfg = DatasetConfig {
            num_networks: 24,
            seed: 19,
            random: RandomDnnConfig::default(),
            threads: 2,
        };
        for (platform, want) in [
            (Platform::agx(), 0xb6c4_dd6b_1e95_967c_u64),
            (Platform::tx2(), 0x562b_8057_a3ea_6142_u64),
        ] {
            let ds = generate(&platform, &PowerLensConfig::default(), &cfg);
            let got = dataset_hash(&ds);
            assert_eq!(got, want, "{}: {got:#018x}", platform.name());
        }
    }

    #[test]
    fn labels_cover_multiple_classes() {
        // A healthy dataset must not collapse to one scheme or one level.
        let p = Platform::agx();
        let cfg = DatasetConfig {
            num_networks: 40,
            ..small_config()
        };
        let ds = generate(&p, &PowerLensConfig::default(), &cfg);
        let hyper_classes: std::collections::HashSet<_> =
            ds.hyper.iter().map(|s| s.label).collect();
        let level_classes: std::collections::HashSet<_> =
            ds.decision.iter().map(|s| s.label).collect();
        assert!(hyper_classes.len() >= 2, "hyper labels: {hyper_classes:?}");
        assert!(level_classes.len() >= 3, "level labels: {level_classes:?}");
    }
}
