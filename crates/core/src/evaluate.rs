use powerlens_dnn::Graph;
use powerlens_governors::oracle::{self, CostTable};
use powerlens_platform::{FreqLevel, InstrumentationPlan, InstrumentationPoint, Platform};

/// Analytic quality estimate of an instrumentation plan.
///
/// Mirrors the simulator's accounting *exactly* — same per-layer roofline
/// queries, same boot state (both domains at max), same cross-batch wrap
/// (the GPU stays at the last block's level between batches), same partial
/// final batch, same transition stalls — without paying the per-layer event
/// loop over every batch. This is the inner metric of dataset labelling,
/// evaluated once per (network, scheme) pair, so any drift against
/// `sim::Engine` poisons the training labels; the differential property
/// test in this module pins the two together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEval {
    /// Wall-clock seconds for all images (including transition stalls).
    pub time: f64,
    /// Joules for all images.
    pub energy: f64,
    /// Images per joule.
    pub energy_efficiency: f64,
    /// Actual GPU DVFS level changes performed (equals the simulator's
    /// `num_gpu_switches`; the single CPU retarget is charged to time and
    /// energy but not counted here).
    pub num_switches: usize,
}

/// Time and energy for one whole batch of size `size`: the prefix before
/// the first instrumentation point runs at `prefix_gpu` (the boot level in
/// batch one, the wrapped-around last-block level afterwards), every block
/// at its preset level. `segment(start, end, size, gpu)` prices layers
/// `[start, end)` at the plan's CPU level.
fn batch_cost(
    segment: &impl Fn(usize, usize, usize, FreqLevel) -> (f64, f64),
    n: usize,
    points: &[InstrumentationPoint],
    size: usize,
    prefix_gpu: FreqLevel,
) -> (f64, f64) {
    let first = points.first().map_or(n, |p| p.layer);
    let (mut time, mut energy) = segment(0, first, size, prefix_gpu);
    for (i, p) in points.iter().enumerate() {
        let end = points.get(i + 1).map_or(n, |q| q.layer);
        let (t, e) = segment(p.layer, end, size, p.gpu_level);
        time += t;
        energy += e;
    }
    (time, energy)
}

/// Number of actual GPU level changes one batch performs when it starts
/// with the GPU at `from` (the actuator only pays for real changes).
fn switches_per_batch(points: &[InstrumentationPoint], from: FreqLevel) -> usize {
    let mut current = from;
    let mut switches = 0;
    for p in points {
        if p.gpu_level != current {
            current = p.gpu_level;
            switches += 1;
        }
    }
    switches
}

/// Evaluates `plan` for `images` inferences of `graph` on `platform` with
/// the given batch size.
///
/// Switch counts are bit-identical to a `sim::Engine` run of the same plan;
/// time and energy agree up to floating-point summation order (relative
/// error well below 1e-9).
///
/// # Panics
///
/// Panics if `batch` or `images` is zero, or the plan's points do not fall
/// inside the graph.
pub fn evaluate_plan(
    platform: &Platform,
    graph: &Graph,
    plan: &InstrumentationPlan,
    batch: usize,
    images: usize,
) -> PlanEval {
    evaluate_plan_priced(platform, graph, plan, batch, images, None)
}

/// [`evaluate_plan`] that reads every segment it can from `table`: those
/// at the table's batch size with the CPU at max, which is every segment
/// of an oracle plan's full batches. Other segments (a partial final batch,
/// a lowered CPU level) are priced layer by layer. The result is
/// bit-identical to [`evaluate_plan`] either way.
pub(crate) fn evaluate_plan_priced(
    platform: &Platform,
    graph: &Graph,
    plan: &InstrumentationPlan,
    batch: usize,
    images: usize,
    table: Option<&CostTable>,
) -> PlanEval {
    assert!(batch > 0 && images > 0, "batch and images must be positive");
    let n = graph.num_layers();
    let points = plan.points();
    assert!(
        points.iter().all(|p| p.layer < n),
        "instrumentation point outside graph"
    );

    // MAXN boots both domains at their maximum level (sim::Engine::fresh_state).
    let gpu_boot = platform.gpu_table().max_level();
    let cpu_boot = platform.cpu_table().max_level();
    let cpu = plan.cpu_level();
    // Between batches the GPU keeps the last block's level — the wrap. A
    // plan with no points never moves it off the boot level.
    let gpu_wrap = points.last().map_or(gpu_boot, |p| p.gpu_level);

    let full_batches = images / batch;
    let remainder = images % batch;
    let num_batches = full_batches + usize::from(remainder > 0);

    let segment = |start: usize, end: usize, size: usize, gpu: FreqLevel| match table {
        Some(t) if t.batch() == size && cpu == cpu_boot => t.range(start, end, gpu),
        _ => oracle::range_cost(platform, graph, start, end, size, gpu, cpu),
    };
    // Batch one pays the boot-level prefix; later batches the wrapped
    // prefix; the simulator shrinks the final batch to the remainder.
    let first_size = if full_batches > 0 { batch } else { remainder };
    let first_cost = batch_cost(&segment, n, points, first_size, gpu_boot);
    let (mut time, mut energy) = first_cost;
    if full_batches > 1 {
        // A wrapped batch differs from batch one only in its prefix's level,
        // so when the prefix is empty (the first point sits at layer 0, as
        // in every planner-emitted plan) or runs at the boot level anyway,
        // it costs exactly what batch one did.
        let prefix_moves = gpu_wrap != gpu_boot && points.first().is_some_and(|p| p.layer > 0);
        let (t, e) = if prefix_moves {
            batch_cost(&segment, n, points, batch, gpu_wrap)
        } else {
            first_cost
        };
        let reps = (full_batches - 1) as f64;
        time += t * reps;
        energy += e * reps;
    }
    if remainder > 0 && full_batches > 0 {
        let (t, e) = batch_cost(&segment, n, points, remainder, gpu_wrap);
        time += t;
        energy += e;
    }

    // Transition stalls: batch one walks the points from the boot level,
    // every later batch from the wrapped level; the CPU is retargeted once
    // at the first layer iff the plan's level differs from boot.
    let gpu_switches = switches_per_batch(points, gpu_boot)
        + (num_batches - 1) * switches_per_batch(points, gpu_wrap);
    let cpu_switches = usize::from(cpu != cpu_boot);
    let stall = platform.dvfs_transition_cost();
    // The board sits near idle while the pipeline drains; `idle_power` is
    // level-independent, so charging every stall at one operating point
    // matches the simulator's per-transition records.
    let idle = platform.idle_power(gpu_boot, cpu_boot);
    let total_stall = (gpu_switches + cpu_switches) as f64 * stall;
    time += total_stall;
    energy += total_stall * idle;

    PlanEval {
        time,
        energy,
        energy_efficiency: if energy > 0.0 {
            images as f64 / energy
        } else {
            0.0
        },
        num_switches: gpu_switches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlens_dnn::zoo;
    use powerlens_sim::{Engine, PlanController};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn two_block_plan(n: usize, max: usize) -> InstrumentationPlan {
        InstrumentationPlan::new(
            vec![
                InstrumentationPoint {
                    layer: 0,
                    gpu_level: max,
                },
                InstrumentationPoint {
                    layer: n / 2,
                    gpu_level: 3,
                },
            ],
            0,
        )
    }

    /// Runs the same plan through the simulator and returns its report.
    fn simulate(
        platform: &Platform,
        graph: &Graph,
        plan: &InstrumentationPlan,
        batch: usize,
        images: usize,
    ) -> powerlens_sim::RunReport {
        let engine = Engine::new(platform).with_batch(batch);
        let mut ctl = PlanController::new(plan.clone());
        engine.run(graph, &mut ctl, images)
    }

    fn assert_matches_sim(
        platform: &Platform,
        graph: &Graph,
        plan: &InstrumentationPlan,
        batch: usize,
        images: usize,
    ) {
        let analytic = evaluate_plan(platform, graph, plan, batch, images);
        let sim = simulate(platform, graph, plan, batch, images);
        assert_eq!(
            analytic.num_switches,
            sim.num_gpu_switches,
            "switch count drift ({} b{batch} i{images})",
            graph.name()
        );
        let rel_t = (analytic.time - sim.total_time).abs() / sim.total_time;
        let rel_e = (analytic.energy - sim.total_energy).abs() / sim.total_energy;
        assert!(rel_t < 1e-9, "time mismatch {rel_t}");
        assert!(rel_e < 1e-9, "energy mismatch {rel_e}");
    }

    #[test]
    fn analytic_matches_simulator_closely() {
        let p = Platform::agx();
        let g = zoo::resnet34();
        let plan = two_block_plan(g.num_layers(), p.gpu_table().max_level());
        assert_matches_sim(&p, &g, &plan, 8, 16);
    }

    #[test]
    fn partial_final_batch_matches_simulator() {
        // 19 images at batch 8: two full batches plus a 3-image tail, which
        // the simulator runs at the smaller (cheaper) batch size.
        let p = Platform::agx();
        let g = zoo::alexnet();
        let plan = two_block_plan(g.num_layers(), 9);
        assert_matches_sim(&p, &g, &plan, 8, 19);
    }

    #[test]
    fn prefix_before_first_point_matches_simulator() {
        // First point deep in the graph: the prefix runs at boot max in
        // batch one and at the *last* block's level after the wrap.
        let p = Platform::tx2();
        let g = zoo::alexnet();
        let plan = InstrumentationPlan::new(
            vec![
                InstrumentationPoint {
                    layer: 4,
                    gpu_level: 6,
                },
                InstrumentationPoint {
                    layer: 9,
                    gpu_level: 2,
                },
            ],
            p.cpu_table().max_level(),
        );
        assert_matches_sim(&p, &g, &plan, 4, 12);
    }

    #[test]
    fn non_max_cpu_level_matches_simulator() {
        let p = Platform::agx();
        let g = zoo::alexnet();
        let n = g.num_layers();
        let plan = InstrumentationPlan::new(
            vec![
                InstrumentationPoint {
                    layer: 0,
                    gpu_level: 11,
                },
                InstrumentationPoint {
                    layer: n / 3,
                    gpu_level: 4,
                },
            ],
            1,
        );
        assert_matches_sim(&p, &g, &plan, 8, 16);
    }

    #[test]
    fn switch_count_wraps_across_batches() {
        let p = Platform::agx();
        let g = zoo::alexnet();
        let max = p.gpu_table().max_level();
        let plan = two_block_plan(g.num_layers(), max);
        // 2 batches: boot at max -> (max: free) -> 3 -> (wrap) max -> 3.
        let eval = evaluate_plan(&p, &g, &plan, 8, 16);
        assert_eq!(eval.num_switches, 3);
    }

    #[test]
    fn single_level_plan_has_minimal_switches() {
        let p = Platform::tx2();
        let g = zoo::alexnet();
        let plan = InstrumentationPlan::new(
            vec![InstrumentationPoint {
                layer: 0,
                gpu_level: 5,
            }],
            0,
        );
        let eval = evaluate_plan(&p, &g, &plan, 4, 40);
        assert_eq!(eval.num_switches, 1); // one drop from boot level
    }

    #[test]
    #[should_panic(expected = "outside graph")]
    fn point_outside_graph_rejected() {
        let p = Platform::agx();
        let g = zoo::alexnet();
        let plan = InstrumentationPlan::new(
            vec![InstrumentationPoint {
                layer: 10_000,
                gpu_level: 0,
            }],
            0,
        );
        evaluate_plan(&p, &g, &plan, 1, 1);
    }

    /// Draws a valid random plan: 1–5 strictly ascending points at random
    /// layers/levels, random CPU level.
    fn random_plan(graph: &Graph, platform: &Platform, seed: u64) -> InstrumentationPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = graph.num_layers();
        let num_points = rng.gen_range(1..=5.min(n));
        let mut layers: Vec<usize> = Vec::new();
        while layers.len() < num_points {
            let l = rng.gen_range(0..n);
            if !layers.contains(&l) {
                layers.push(l);
            }
        }
        layers.sort_unstable();
        let points = layers
            .into_iter()
            .map(|layer| InstrumentationPoint {
                layer,
                gpu_level: rng.gen_range(0..platform.gpu_levels()),
            })
            .collect();
        InstrumentationPlan::new(points, rng.gen_range(0..platform.cpu_levels()))
    }

    /// `evaluate_plan` with the boot batch, the wrapped batch and the
    /// remainder batch each priced separately, layer by layer: the two-call
    /// form the reuse of batch one's price must reproduce bit for bit.
    fn two_call_reference(
        platform: &Platform,
        graph: &Graph,
        plan: &InstrumentationPlan,
        batch: usize,
        images: usize,
    ) -> PlanEval {
        let n = graph.num_layers();
        let points = plan.points();
        let cpu = plan.cpu_level();
        let batch_cost = |size: usize, prefix_gpu: FreqLevel| {
            let segment = |lo, hi, gpu| oracle::range_cost(platform, graph, lo, hi, size, gpu, cpu);
            let first = points.first().map_or(n, |p| p.layer);
            let (mut time, mut energy) = segment(0, first, prefix_gpu);
            for (i, p) in points.iter().enumerate() {
                let end = points.get(i + 1).map_or(n, |q| q.layer);
                let (t, e) = segment(p.layer, end, p.gpu_level);
                time += t;
                energy += e;
            }
            (time, energy)
        };
        let gpu_boot = platform.gpu_table().max_level();
        let cpu_boot = platform.cpu_table().max_level();
        let gpu_wrap = points.last().map_or(gpu_boot, |p| p.gpu_level);
        let full_batches = images / batch;
        let remainder = images % batch;
        let num_batches = full_batches + usize::from(remainder > 0);
        let first_size = if full_batches > 0 { batch } else { remainder };
        let (mut time, mut energy) = batch_cost(first_size, gpu_boot);
        if full_batches > 1 {
            let (t, e) = batch_cost(batch, gpu_wrap);
            let reps = (full_batches - 1) as f64;
            time += t * reps;
            energy += e * reps;
        }
        if remainder > 0 && full_batches > 0 {
            let (t, e) = batch_cost(remainder, gpu_wrap);
            time += t;
            energy += e;
        }
        let gpu_switches = switches_per_batch(points, gpu_boot)
            + (num_batches - 1) * switches_per_batch(points, gpu_wrap);
        let total_stall =
            (gpu_switches + usize::from(cpu != cpu_boot)) as f64 * platform.dvfs_transition_cost();
        time += total_stall;
        energy += total_stall * platform.idle_power(gpu_boot, cpu_boot);
        PlanEval {
            time,
            energy,
            energy_efficiency: if energy > 0.0 {
                images as f64 / energy
            } else {
                0.0
            },
            num_switches: gpu_switches,
        }
    }

    fn assert_same_bits(got: PlanEval, want: PlanEval, what: &str) {
        assert_eq!(got.time.to_bits(), want.time.to_bits(), "{what}: time");
        assert_eq!(
            got.energy.to_bits(),
            want.energy.to_bits(),
            "{what}: energy"
        );
        assert_eq!(
            got.energy_efficiency.to_bits(),
            want.energy_efficiency.to_bits(),
            "{what}: efficiency"
        );
        assert_eq!(got.num_switches, want.num_switches, "{what}: switches");
    }

    #[test]
    fn reused_and_table_priced_batches_are_bit_identical_to_two_calls() {
        let mut graphs: Vec<Graph> = zoo::all_models().into_iter().map(|(_, b)| b()).collect();
        graphs.extend(powerlens_dnn::random::generate_batch(
            &powerlens_dnn::random::RandomDnnConfig::default(),
            41,
            8,
        ));
        for platform in [Platform::agx(), Platform::tx2()] {
            let max = platform.gpu_table().max_level();
            let cpu_max = platform.cpu_table().max_level();
            for (k, g) in graphs.iter().enumerate() {
                let n = g.num_layers();
                // Planner-shaped plans (first point at layer 0, CPU at max),
                // one at a lowered CPU level, and a random plan whose first
                // point may sit deeper.
                let plans = [
                    InstrumentationPlan::new(
                        vec![InstrumentationPoint {
                            layer: 0,
                            gpu_level: 5,
                        }],
                        cpu_max,
                    ),
                    two_block_plan(n, max),
                    InstrumentationPlan::new(two_block_plan(n, 2).points().to_vec(), cpu_max),
                    random_plan(g, &platform, k as u64),
                ];
                for (batch, images) in [(8, 48), (1, 1), (4, 19), (8, 8), (3, 25)] {
                    let table = CostTable::new(&platform, g, batch);
                    for (i, plan) in plans.iter().enumerate() {
                        let what = format!(
                            "{} {} plan {i} b{batch} i{images}",
                            platform.name(),
                            g.name()
                        );
                        let want = two_call_reference(&platform, g, plan, batch, images);
                        assert_same_bits(
                            evaluate_plan(&platform, g, plan, batch, images),
                            want,
                            &what,
                        );
                        let priced =
                            evaluate_plan_priced(&platform, g, plan, batch, images, Some(&table));
                        assert_same_bits(priced, want, &what);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Differential test: for random plans, batch sizes and image
        /// counts, the analytic evaluator reproduces the simulator's switch
        /// counts exactly and its time/energy to < 1e-9 relative error.
        #[test]
        fn random_plans_match_simulator(
            seed in 0u64..5000,
            pi in 0usize..2,
            batch in 1usize..9,
            images in 1usize..25,
        ) {
            let platform = if pi == 0 { Platform::agx() } else { Platform::tx2() };
            let graph = if seed % 2 == 0 { zoo::alexnet() } else { zoo::mobilenet_v3() };
            let plan = random_plan(&graph, &platform, seed);
            let analytic = evaluate_plan(&platform, &graph, &plan, batch, images);
            let sim = simulate(&platform, &graph, &plan, batch, images);
            prop_assert_eq!(analytic.num_switches, sim.num_gpu_switches);
            let rel_t = (analytic.time - sim.total_time).abs() / sim.total_time;
            let rel_e = (analytic.energy - sim.total_energy).abs() / sim.total_energy;
            prop_assert!(rel_t < 1e-9, "time mismatch {}", rel_t);
            prop_assert!(rel_e < 1e-9, "energy mismatch {}", rel_e);
        }
    }
}
