//! Integration tests spanning the whole stack: DNN IR -> features ->
//! clustering -> planning -> simulation, without trained models.

use powerlens::{evaluate_plan, PlanController, PowerLens, PowerLensConfig};
use powerlens_dnn::zoo;
use powerlens_platform::{InstrumentationPlan, InstrumentationPoint, Platform};
use powerlens_sim::{Engine, StaticController};

#[test]
fn oracle_plans_cover_every_zoo_model_on_both_platforms() {
    for platform in [Platform::agx(), Platform::tx2()] {
        let pl = PowerLens::untrained(&platform, PowerLensConfig::default());
        for (name, build) in zoo::all_models() {
            let g = build();
            let outcome = pl.plan_oracle(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(outcome.view.num_layers(), g.num_layers(), "{name}");
            assert_eq!(
                outcome.plan.num_blocks(),
                outcome.view.num_blocks(),
                "{name}"
            );
            assert!(
                outcome.plan.num_blocks() <= pl.config().max_blocks,
                "{name}: {} blocks exceed cap",
                outcome.plan.num_blocks()
            );
            for p in outcome.plan.points() {
                assert!(p.gpu_level < platform.gpu_levels(), "{name}");
                assert!(p.layer < g.num_layers(), "{name}");
            }
        }
    }
}

#[test]
fn powerlens_beats_max_frequency_on_every_model() {
    let platform = Platform::agx();
    let pl = PowerLens::untrained(&platform, PowerLensConfig::default());
    for (name, build) in zoo::all_models() {
        let g = build();
        let outcome = pl.plan_oracle(&g).unwrap();
        let ours = evaluate_plan(&platform, &g, &outcome.plan, 8, 48);
        let max_plan = InstrumentationPlan::new(
            vec![InstrumentationPoint {
                layer: 0,
                gpu_level: platform.gpu_table().max_level(),
            }],
            platform.cpu_table().max_level(),
        );
        let max = evaluate_plan(&platform, &g, &max_plan, 8, 48);
        assert!(
            ours.energy_efficiency > max.energy_efficiency * 1.05,
            "{name}: {:.3} vs max-freq {:.3}",
            ours.energy_efficiency,
            max.energy_efficiency
        );
    }
}

#[test]
fn analytic_evaluation_tracks_simulator_for_oracle_plans() {
    let platform = Platform::tx2();
    let pl = PowerLens::untrained(&platform, PowerLensConfig::default());
    for name in ["alexnet", "resnet34", "vit_base_32"] {
        let g = zoo::by_name(name).unwrap();
        let outcome = pl.plan_oracle(&g).unwrap();
        let analytic = evaluate_plan(&platform, &g, &outcome.plan, 8, 16);
        let engine = Engine::new(&platform).with_batch(8);
        let mut ctl = PlanController::new(outcome.plan);
        let sim = engine.run(&g, &mut ctl, 16);
        let rel_e = (analytic.energy - sim.total_energy).abs() / sim.total_energy;
        assert!(rel_e < 0.02, "{name}: energy mismatch {rel_e}");
        let rel_t = (analytic.time - sim.total_time).abs() / sim.total_time;
        assert!(rel_t < 0.02, "{name}: time mismatch {rel_t}");
    }
}

#[test]
fn agx_gains_exceed_tx2_gains() {
    // Paper shape: PowerLens' improvement over max-frequency operation is
    // larger on the AGX than on the TX2 (Table 1 averages).
    let mut gains = Vec::new();
    for platform in [Platform::agx(), Platform::tx2()] {
        let pl = PowerLens::untrained(&platform, PowerLensConfig::default());
        let g = zoo::resnet152();
        let outcome = pl.plan_oracle(&g).unwrap();
        let ours = evaluate_plan(&platform, &g, &outcome.plan, 8, 48);
        let max_plan = InstrumentationPlan::new(
            vec![InstrumentationPoint {
                layer: 0,
                gpu_level: platform.gpu_table().max_level(),
            }],
            platform.cpu_table().max_level(),
        );
        let max = evaluate_plan(&platform, &g, &max_plan, 8, 48);
        gains.push(ours.energy_efficiency / max.energy_efficiency);
    }
    assert!(gains[0] > gains[1], "AGX {} <= TX2 {}", gains[0], gains[1]);
}

#[test]
fn frequency_sweep_is_unimodal_enough_for_hill_climbing() {
    // The EE-vs-level curve should rise then fall (a single interior
    // optimum) — the property both FPG's hill climb and the oracle rely on.
    let platform = Platform::agx();
    let engine = Engine::new(&platform).with_batch(8);
    let g = zoo::resnet152();
    let ee: Vec<f64> = engine
        .sweep_gpu_levels(&g, 16)
        .into_iter()
        .map(|r| r.energy_efficiency)
        .collect();
    let best = ee
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    assert!(
        best > 0 && best < ee.len() - 1,
        "optimum at boundary: {best}"
    );
    for i in 1..=best {
        assert!(
            ee[i] > ee[i - 1] * 0.98,
            "non-increasing before optimum at {i}"
        );
    }
    for i in (best + 1)..ee.len() {
        assert!(
            ee[i] < ee[i - 1] * 1.02,
            "non-decreasing after optimum at {i}"
        );
    }
}

#[test]
fn static_controller_runs_all_models_without_panic() {
    let platform = Platform::tx2();
    let engine = Engine::new(&platform).with_batch(4);
    for (name, build) in zoo::all_models() {
        let g = build();
        let mut ctl = StaticController::new(5, 3);
        let r = engine.run(&g, &mut ctl, 8);
        assert!(r.total_time > 0.0, "{name}");
        assert!(r.total_energy.is_finite(), "{name}");
    }
}
