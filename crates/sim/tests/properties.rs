//! Property-based tests for the inference engine and task-flow runner.

use powerlens_dnn::random::{generate, RandomDnnConfig};
use powerlens_platform::{InstrumentationPlan, InstrumentationPoint, Platform};
use powerlens_sim::{run_taskflow, Engine, PlanController, StaticController, TaskSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_graph(seed: u64) -> powerlens_dnn::Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generate(&RandomDnnConfig::default(), &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Equation 1 holds for every run: EE = FPS / avg power = images / E.
    #[test]
    fn ee_identity(seed in 0u64..2000, lvl in 0usize..13, images in 1usize..20) {
        let p = Platform::agx();
        let e = Engine::new(&p).with_batch(4);
        let g = random_graph(seed);
        let mut ctl = StaticController::new(lvl.min(p.gpu_levels() - 1), 3);
        let r = e.run(&g, &mut ctl, images);
        prop_assert!((r.energy_efficiency - r.fps / r.avg_power).abs()
            < 1e-9 * r.energy_efficiency.max(1e-9));
        prop_assert!((r.total_energy - r.avg_power * r.total_time).abs()
            < 1e-9 * r.total_energy.max(1e-9));
        prop_assert_eq!(r.images, images);
    }

    /// Doubling the image count at fixed control (beyond the initial switch)
    /// scales time and energy close to linearly.
    #[test]
    fn work_scales_linearly(seed in 0u64..2000) {
        let p = Platform::tx2();
        let e = Engine::new(&p).with_batch(4);
        let g = random_graph(seed);
        let mut c1 = StaticController::new(6, 3);
        let r1 = e.run(&g, &mut c1, 8);
        let mut c2 = StaticController::new(6, 3);
        let r2 = e.run(&g, &mut c2, 16);
        // Subtract the constant boot-switch stall from both.
        let stall = r1.dvfs_overhead_time;
        let ratio = (r2.total_time - stall) / (r1.total_time - stall);
        prop_assert!((ratio - 2.0).abs() < 1e-6, "time ratio {ratio}");
    }

    /// A task flow over identical tasks matches back-to-back single runs.
    #[test]
    fn taskflow_consistency(seed in 0u64..2000, tasks in 1usize..5) {
        let p = Platform::agx();
        let e = Engine::new(&p).with_batch(4);
        let g = random_graph(seed);
        let specs: Vec<TaskSpec<'_>> = (0..tasks).map(|_| TaskSpec { graph: &g, images: 8 }).collect();
        let mut ctl = StaticController::new(5, 3);
        let flow = run_taskflow(&e, &specs, &mut ctl);
        prop_assert_eq!(flow.total_images, 8 * tasks);
        prop_assert!(flow.total_time > 0.0);
        prop_assert!((flow.avg_power - flow.total_energy / flow.total_time).abs() < 1e-9);
    }

    /// A plan controller issues exactly the per-batch switch pattern its
    /// plan implies (no spurious level changes).
    #[test]
    fn plan_switch_count_is_exact(seed in 0u64..2000, lvl_a in 0usize..13, lvl_b in 0usize..13) {
        let p = Platform::agx();
        let g = random_graph(seed);
        let n = g.num_layers();
        if n < 4 { return Ok(()); }
        let a = lvl_a.min(p.gpu_levels() - 1);
        let b = lvl_b.min(p.gpu_levels() - 1);
        let plan = InstrumentationPlan::new(
            vec![
                InstrumentationPoint { layer: 0, gpu_level: a },
                InstrumentationPoint { layer: n / 2, gpu_level: b },
            ],
            p.cpu_table().max_level(),
        );
        let e = Engine::new(&p).with_batch(8);
        let mut ctl = PlanController::new(plan);
        // One batch of 8 images.
        let r = e.run(&g, &mut ctl, 8);
        let boot = p.gpu_table().max_level();
        let mut expect = 0;
        let mut cur = boot;
        for lvl in [a, b] {
            if lvl != cur { expect += 1; cur = lvl; }
        }
        prop_assert_eq!(r.num_gpu_switches, expect);
    }

    /// Noise perturbs time but not the switch pattern, and stays bounded.
    #[test]
    fn noise_is_bounded(seed in 0u64..2000, nseed in 0u64..100) {
        let p = Platform::tx2();
        let g = random_graph(seed);
        let clean = {
            let mut ctl = StaticController::new(6, 3);
            Engine::new(&p).with_batch(4).run(&g, &mut ctl, 8)
        };
        let noisy = {
            let mut ctl = StaticController::new(6, 3);
            Engine::new(&p).with_batch(4).with_noise(nseed, 0.05).run(&g, &mut ctl, 8)
        };
        prop_assert_eq!(noisy.num_gpu_switches, clean.num_gpu_switches);
        let ratio = noisy.total_time / clean.total_time;
        prop_assert!(ratio > 0.8 && ratio < 1.2, "ratio {ratio}");
    }
}
