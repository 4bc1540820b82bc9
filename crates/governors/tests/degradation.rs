//! Graceful-degradation sweep: under a seeded 20 % DVFS switch-failure
//! rate, `Degraded(plan -> BiM)` must complete every zoo model without
//! panicking, actually trip its fallback somewhere in the sweep, and keep
//! energy efficiency within a floor of BiM running under the *same*
//! faults (falling back must not be worse than having run the reactive
//! governor from the start, modulo the pre-trip transient).

use powerlens_dnn::zoo;
use powerlens_faults::FaultPlan;
use powerlens_governors::{oracle, Bim};
use powerlens_platform::{InstrumentationPlan, InstrumentationPoint, Platform};
use powerlens_sim::{Degraded, Engine, PlanController};

/// EE floor relative to BiM under identical faults. The wrapper spends its
/// pre-trip phase open-loop at the (possibly wrong) planned levels, so a
/// small deficit is expected; a large one means degradation is broken.
const EE_FLOOR: f64 = 0.9;

fn plan_for(p: &Platform, g: &powerlens_dnn::Graph) -> InstrumentationPlan {
    let n = g.num_layers();
    let best = oracle::best_level_for_range(p, g, 0, n, 4, f64::INFINITY);
    InstrumentationPlan::new(
        vec![InstrumentationPoint {
            layer: 0,
            gpu_level: best,
        }],
        p.cpu_table().max_level(),
    )
}

/// Switch points per plan in the zoo sweep, and images per run. A failed
/// request leaves the board where it was, so the next point switches
/// again; sixteen points over eight batches of four give the 20% failure
/// rate enough requests to build `DEFAULT_FAILURE_THRESHOLD` consecutive
/// failures somewhere in the zoo.
const POINTS: usize = 16;
const IMAGES: usize = 32;

/// `plan_for`'s level alternating with its lower neighbour at `POINTS`
/// evenly spaced layers.
fn alternating_plan_for(p: &Platform, g: &powerlens_dnn::Graph) -> InstrumentationPlan {
    let n = g.num_layers();
    let best = oracle::best_level_for_range(p, g, 0, n, 4, f64::INFINITY);
    let other = if best > 0 { best - 1 } else { best + 1 };
    let points = (0..POINTS)
        .map(|i| InstrumentationPoint {
            layer: i * n / POINTS,
            gpu_level: if i % 2 == 0 { best } else { other },
        })
        .collect();
    InstrumentationPlan::new(points, p.cpu_table().max_level())
}

#[test]
fn degraded_survives_twenty_percent_switch_failures_across_the_zoo() {
    let p = Platform::agx();
    let base = FaultPlan::parse("switch_fail=0.2,retries=0").unwrap();

    let mut total_fallbacks = 0;
    let mut total_injected = 0;
    for (i, (name, build)) in zoo::all_models().into_iter().enumerate() {
        let g = build();
        // Distinct seed per model: a fresh session replays the same trace,
        // so reusing one seed would give every model the same first draw.
        let engine = Engine::new(&p)
            .with_batch(4)
            .with_faults(base.clone().with_seed(2000 + i as u64));
        let mut ctl = Degraded::new(
            PlanController::new(alternating_plan_for(&p, &g)),
            Bim::new(&p),
        );
        let r = engine.run(&g, &mut ctl, IMAGES);
        assert!(r.total_time > 0.0, "{name}: run must complete");
        assert!(r.energy_efficiency > 0.0, "{name}: EE must be positive");
        // A model whose plan matches the boot levels issues no switch
        // requests at all, so injection is asserted over the whole sweep.
        total_injected += r.faults_injected;
        total_fallbacks += ctl.num_fallbacks();

        let mut bim = Bim::new(&p);
        let r_bim = engine.run(&g, &mut bim, 8);
        assert!(
            r.energy_efficiency >= EE_FLOOR * r_bim.energy_efficiency,
            "{name}: degraded EE {:.4} fell below {EE_FLOOR} x BiM EE {:.4}",
            r.energy_efficiency,
            r_bim.energy_efficiency
        );
    }
    assert!(total_injected > 0, "the sweep must inject faults");
    assert!(
        total_fallbacks > 0,
        "a 20% failure rate must trip the fallback somewhere in the zoo"
    );
}

#[test]
fn degraded_trips_under_total_switch_blackout() {
    // With every switch failing, the plan can never land its preset and
    // the wrapper must hand over to BiM almost immediately.
    let p = Platform::tx2();
    let faults = FaultPlan::parse("switch_fail=1,retries=0")
        .unwrap()
        .with_seed(7);
    let engine = Engine::new(&p).with_batch(2).with_faults(faults);
    let g = zoo::alexnet();
    let mut ctl = Degraded::new(PlanController::new(plan_for(&p, &g)), Bim::new(&p));
    let r = engine.run(&g, &mut ctl, 6);
    assert!(ctl.fell_back(), "blackout must trip the fallback");
    assert!(r.num_failed_switches > 0);
    assert!(r.total_time > 0.0);
}

#[test]
fn sensor_dropout_alone_trips_the_staleness_detector() {
    let p = Platform::agx();
    // Heavy dropout, no switch failures: only the staleness path can trip.
    let faults = FaultPlan::parse("drop=0.95").unwrap().with_seed(11);
    let engine = Engine::new(&p).with_batch(8).with_faults(faults);
    let g = zoo::vgg19();
    let mut ctl = Degraded::new(PlanController::new(plan_for(&p, &g)), Bim::new(&p));
    let r = engine.run(&g, &mut ctl, 24);
    assert!(ctl.fell_back(), "near-total dropout must look stale");
    assert_eq!(r.num_failed_switches, 0, "no switch faults were configured");
    assert!(r.telemetry.dropped_samples() > 0);
}
