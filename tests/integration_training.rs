//! Integration tests for the model-training phase (§2.2): dataset
//! generation -> training -> model-driven planning on unseen networks.

use std::sync::OnceLock;

use powerlens::dataset::{generate, DatasetConfig};
use powerlens::training::{train_models, TrainedModels, TrainingConfig};
use powerlens::{PowerLens, PowerLensConfig};
use powerlens_dnn::zoo;
use powerlens_platform::Platform;

/// Models trained on an 80-network dataset for `platform`, trained once per
/// platform and shared by every test here: training dominates this file's
/// run time, and the tests only read the models.
fn small_models(platform: &Platform) -> &'static TrainedModels {
    static AGX: OnceLock<TrainedModels> = OnceLock::new();
    static TX2: OnceLock<TrainedModels> = OnceLock::new();
    let slot = match platform.name() {
        "agx" => &AGX,
        "tx2" => &TX2,
        other => panic!("no shared fixture for platform {other}"),
    };
    slot.get_or_init(|| train_small_models(platform))
}

fn train_small_models(platform: &Platform) -> TrainedModels {
    let config = PowerLensConfig::default();
    let ds = generate(
        platform,
        &config,
        &DatasetConfig {
            num_networks: 80,
            seed: 5,
            ..DatasetConfig::default()
        },
    );
    train_models(
        &ds,
        config.schemes.len(),
        platform.gpu_levels(),
        &TrainingConfig::default(),
    )
}

#[test]
fn trained_planner_plans_every_zoo_model() {
    let platform = Platform::agx();
    let models = small_models(&platform).clone();
    let pl = PowerLens::with_models(&platform, PowerLensConfig::default(), models);
    for (name, build) in zoo::all_models() {
        let g = build();
        let outcome = pl.plan(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(outcome.plan.num_blocks() >= 1, "{name}");
        for p in outcome.plan.points() {
            assert!(p.gpu_level < platform.gpu_levels(), "{name}");
        }
        // Workflow timings must be recorded for Table 3.
        assert!(outcome.timings.clustering.as_nanos() > 0, "{name}");
    }
}

#[test]
fn decision_model_beats_chance_comfortably() {
    let platform = Platform::tx2();
    let models = small_models(&platform);
    let r = &models.report;
    let chance = 1.0 / platform.gpu_levels() as f64;
    assert!(
        r.decision_test_accuracy > 3.0 * chance,
        "decision accuracy {} vs chance {chance}",
        r.decision_test_accuracy
    );
    assert!(
        r.decision_within_one_level >= r.decision_test_accuracy,
        "within-one must include exact hits"
    );
    assert!(r.num_decision_samples > r.num_hyper_samples);
}

#[test]
fn model_roundtrip_preserves_predictions() {
    let platform = Platform::agx();
    let models = small_models(&platform);
    let path = std::env::temp_dir().join("powerlens_it_models.json");
    models.save(&path).unwrap();
    let reloaded = TrainedModels::load(&path).unwrap();
    let g = zoo::resnet152();
    let gf = powerlens_features::GlobalFeatures::of_graph(&g);
    assert_eq!(reloaded.predict_scheme(&gf), models.predict_scheme(&gf));
    let bf = powerlens_features::GlobalFeatures::of_range(&g, 0, 40);
    assert_eq!(
        reloaded.predict_block_level(&bf),
        models.predict_block_level(&bf)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn model_predictions_are_close_to_oracle_choices() {
    // The learned per-block frequency should land within two levels of the
    // exhaustive oracle most of the time (the paper: "one or two levels").
    let platform = Platform::agx();
    let models = small_models(&platform).clone();
    let pl = PowerLens::with_models(&platform, PowerLensConfig::default(), models);
    let oracle_pl = PowerLens::untrained(&platform, PowerLensConfig::default());
    let mut close = 0;
    let mut total = 0;
    for name in ["resnet34", "vgg19", "densenet201", "vit_base_32"] {
        let g = zoo::by_name(name).unwrap();
        let outcome = pl.plan(&g).unwrap();
        for b in outcome.view.blocks() {
            let predicted = pl.model_block_level(&g, b.start, b.end).unwrap();
            let oracle = oracle_pl.oracle_block_level(&g, b.start, b.end);
            if (predicted as isize - oracle as isize).abs() <= 2 {
                close += 1;
            }
            total += 1;
        }
    }
    assert!(
        close as f64 / total as f64 > 0.6,
        "only {close}/{total} block decisions within two levels of the oracle"
    );
}
