//! Zero-fault differential: an engine carrying an *inert* `FaultPlan`
//! (all probabilities zero) must be **bit-identical** to a clean engine.
//!
//! This pins the inertness-at-zero contract: the fault layer may not draw
//! from its RNG streams, reorder floating-point operations, or perturb any
//! value unless a fault parameter is actually nonzero. CI runs this test
//! (see `scripts/check.sh`); if it starts failing, a fault-path refactor
//! leaked into the clean path.

use powerlens_dnn::zoo;
use powerlens_faults::FaultPlan;
use powerlens_platform::{InstrumentationPlan, InstrumentationPoint, Platform};
use powerlens_sim::{
    run_taskflow, Degraded, Engine, PlanController, RunReport, StaticController, TaskSpec,
};

/// Strict comparison: every float must match to the bit (asserted at 0.0
/// absolute difference, reported against a 1e-12 gate for diagnostics).
fn assert_reports_identical(clean: &RunReport, zero: &RunReport) {
    let pairs = [
        ("total_time", clean.total_time, zero.total_time),
        ("total_energy", clean.total_energy, zero.total_energy),
        ("avg_power", clean.avg_power, zero.avg_power),
        ("fps", clean.fps, zero.fps),
        (
            "energy_efficiency",
            clean.energy_efficiency,
            zero.energy_efficiency,
        ),
        (
            "dvfs_overhead_time",
            clean.dvfs_overhead_time,
            zero.dvfs_overhead_time,
        ),
    ];
    for (field, c, z) in pairs {
        assert!(
            (c - z).abs() <= 1e-12 && c.to_bits() == z.to_bits(),
            "{field}: clean {c:?} != zero-fault {z:?}"
        );
    }
    assert_eq!(clean.num_gpu_switches, zero.num_gpu_switches);
    assert_eq!(clean.num_cpu_switches, zero.num_cpu_switches);
    assert_eq!(zero.num_failed_switches, 0);
    assert_eq!(zero.num_dvfs_retries, 0);
    assert_eq!(zero.faults_injected, 0);
    assert_eq!(
        clean.telemetry.samples().len(),
        zero.telemetry.samples().len()
    );
    for (c, z) in clean
        .telemetry
        .samples()
        .iter()
        .zip(zero.telemetry.samples())
    {
        assert_eq!(c, z, "telemetry sample drifted under a zero plan");
    }
}

fn plan_for(p: &Platform, layers: usize) -> InstrumentationPlan {
    InstrumentationPlan::new(
        vec![
            InstrumentationPoint {
                layer: 0,
                gpu_level: p.gpu_levels() - 2,
            },
            InstrumentationPoint {
                layer: layers / 2,
                gpu_level: 4,
            },
        ],
        p.cpu_table().max_level(),
    )
}

#[test]
fn zero_probability_plan_is_bit_identical_to_clean_run() {
    let inert = FaultPlan::default();
    assert!(inert.is_inert(), "default plan must be inert");
    for platform in [Platform::agx(), Platform::tx2()] {
        for graph in [zoo::alexnet(), zoo::resnet34()] {
            let clean_engine = Engine::new(&platform).with_batch(4);
            let faulty_engine = Engine::new(&platform)
                .with_batch(4)
                .with_faults(inert.clone());

            let mut c1 = PlanController::new(plan_for(&platform, graph.num_layers()));
            let mut c2 = PlanController::new(plan_for(&platform, graph.num_layers()));
            let clean = clean_engine.run(&graph, &mut c1, 12);
            let zero = faulty_engine.run(&graph, &mut c2, 12);
            assert_reports_identical(&clean, &zero);
        }
    }
}

#[test]
fn zero_plan_with_measurement_noise_stays_identical() {
    // Latency noise uses its own seeded RNG; the fault layer must not
    // consume from or reseed it.
    let p = Platform::agx();
    let g = zoo::vgg19();
    let clean = {
        let e = Engine::new(&p).with_batch(2).with_noise(7, 0.05);
        let mut c = StaticController::new(6, 3);
        e.run(&g, &mut c, 8)
    };
    let zero = {
        let e = Engine::new(&p)
            .with_batch(2)
            .with_noise(7, 0.05)
            .with_faults(FaultPlan::default());
        let mut c = StaticController::new(6, 3);
        e.run(&g, &mut c, 8)
    };
    assert_reports_identical(&clean, &zero);
}

#[test]
fn zero_plan_taskflow_is_bit_identical_and_fallback_never_fires() {
    let p = Platform::tx2();
    let a = zoo::alexnet();
    let r = zoo::resnet34();
    let tasks = [
        TaskSpec {
            graph: &a,
            images: 10,
        },
        TaskSpec {
            graph: &r,
            images: 6,
        },
        TaskSpec {
            graph: &a,
            images: 4,
        },
    ];

    let clean_engine = Engine::new(&p).with_batch(2);
    let zero_engine = Engine::new(&p)
        .with_batch(2)
        .with_faults(FaultPlan::default());

    let mut c1 = Degraded::new(
        PlanController::new(plan_for(&p, a.num_layers())),
        StaticController::new(p.gpu_levels() - 1, p.cpu_levels() - 1),
    );
    let mut c2 = Degraded::new(
        PlanController::new(plan_for(&p, a.num_layers())),
        StaticController::new(p.gpu_levels() - 1, p.cpu_levels() - 1),
    );
    let clean = run_taskflow(&clean_engine, &tasks, &mut c1);
    let zero = run_taskflow(&zero_engine, &tasks, &mut c2);

    assert_eq!(clean.total_time.to_bits(), zero.total_time.to_bits());
    assert_eq!(clean.total_energy.to_bits(), zero.total_energy.to_bits());
    assert_eq!(
        clean.energy_efficiency.to_bits(),
        zero.energy_efficiency.to_bits()
    );
    assert_eq!(clean.num_switches, zero.num_switches);
    assert_eq!(zero.num_failed_switches, 0);
    assert_eq!(zero.faults_injected, 0);
    assert!(!c1.fell_back() && !c2.fell_back());
    assert_eq!(c1.num_fallbacks(), 0);
    assert_eq!(c2.num_fallbacks(), 0, "fallback must never fire at zero");
}

#[test]
fn faulted_runs_replay_deterministically() {
    // Not a zero-plan property, but the other half of the contract: the
    // same seed must replay the exact same faulted trajectory.
    let p = Platform::agx();
    let g = zoo::alexnet();
    let plan = FaultPlan::parse("switch_fail=0.3,drop=0.2,noise=0.05,jitter=0.01")
        .unwrap()
        .with_seed(99);
    let run = || {
        let e = Engine::new(&p).with_batch(2).with_faults(plan.clone());
        let mut c = StaticController::new(5, 3);
        e.run(&g, &mut c, 10)
    };
    let (r1, r2) = (run(), run());
    assert_eq!(r1.total_time.to_bits(), r2.total_time.to_bits());
    assert_eq!(r1.total_energy.to_bits(), r2.total_energy.to_bits());
    assert_eq!(r1.faults_injected, r2.faults_injected);
    assert_eq!(r1.num_failed_switches, r2.num_failed_switches);
    assert!(r1.faults_injected > 0, "a hot plan must actually inject");

    let other_seed = {
        let e = Engine::new(&p)
            .with_batch(2)
            .with_faults(plan.clone().with_seed(100));
        let mut c = StaticController::new(5, 3);
        e.run(&g, &mut c, 10)
    };
    assert_ne!(
        r1.total_time.to_bits(),
        other_seed.total_time.to_bits(),
        "different seed, different fault trace"
    );
}
