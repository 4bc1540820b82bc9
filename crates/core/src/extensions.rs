//! Extensions beyond the paper's evaluated system, implementing its §5
//! future-work directions:
//!
//! * **CPU DVFS** (`plan_with_cpu`) — PowerLens only configures the GPU in
//!   the paper; this extension additionally presets the CPU cluster level,
//!   chosen by an exhaustive sweep of the plan's energy at every CPU level.
//! * **Batch-size co-optimization** (`co_optimize_batch`) — jointly picks
//!   the inference batch size and the DVFS plan (the direction of
//!   Nabavinejad et al., the paper's reference \[15\]).
//!
//! Both compose with any planner mode (oracle or trained models) and are
//! exercised by `cargo run -p powerlens-bench --bin extensions`.

use powerlens_dnn::Graph;
use powerlens_platform::{FreqLevel, InstrumentationPlan, InstrumentationPoint};

use crate::{evaluate_plan, PlanEval, PlanOutcome, PowerLens, PowerLensError};

/// Result of the CPU-DVFS extension: the GPU plan plus the chosen CPU level.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuPlanOutcome {
    /// The underlying GPU planning outcome.
    pub base: PlanOutcome,
    /// The plan re-targeted at the selected CPU level.
    pub plan: InstrumentationPlan,
    /// Selected CPU level.
    pub cpu_level: FreqLevel,
    /// Analytic evaluation at the selected operating point.
    pub eval: PlanEval,
}

/// Plans a network and then sweeps every CPU level, keeping the one with
/// the best plan energy efficiency ("PowerLens-C+G").
///
/// Lower CPU levels save host power but stretch kernel launches; the sweep
/// finds the board-specific balance instead of assuming the MAXN default.
///
/// # Errors
///
/// Propagates planning errors; uses the oracle planner when no models are
/// loaded.
pub fn plan_with_cpu(pl: &PowerLens<'_>, graph: &Graph) -> Result<CpuPlanOutcome, PowerLensError> {
    let base = match pl.plan(graph) {
        Ok(o) => o,
        Err(PowerLensError::Untrained) => pl.plan_oracle(graph)?,
        Err(e) => return Err(e),
    };
    let platform = pl.platform();
    let batch = pl.config().batch;
    let images = pl.config().label_images;

    let mut best: Option<(f64, FreqLevel, InstrumentationPlan, PlanEval)> = None;
    for cpu in 0..platform.cpu_levels() {
        let candidate = InstrumentationPlan::new(base.plan.points().to_vec(), cpu);
        let eval = evaluate_plan_cpu(pl, graph, &candidate, batch, images, cpu);
        if best
            .as_ref()
            .is_none_or(|(ee, ..)| eval.energy_efficiency > *ee)
        {
            best = Some((eval.energy_efficiency, cpu, candidate, eval));
        }
    }
    let (_, cpu_level, plan, eval) = best.expect("at least one CPU level");
    Ok(CpuPlanOutcome {
        base,
        plan,
        cpu_level,
        eval,
    })
}

/// Like [`evaluate_plan`] but at an explicit CPU level.
fn evaluate_plan_cpu(
    pl: &PowerLens<'_>,
    graph: &Graph,
    plan: &InstrumentationPlan,
    batch: usize,
    images: usize,
    cpu: FreqLevel,
) -> PlanEval {
    // The analytic evaluator pins the CPU at max; simulate instead for
    // other levels via the per-layer cost queries.
    let platform = pl.platform();
    if cpu == platform.cpu_table().max_level() {
        return evaluate_plan(platform, graph, plan, batch, images);
    }
    let n = graph.num_layers();
    let points = plan.points();
    let mut per_batch_time = 0.0;
    let mut per_batch_energy = 0.0;
    let mut levels_seq = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let end = points.get(i + 1).map_or(n, |q| q.layer);
        for layer in &graph.layers()[p.layer..end] {
            let t = platform.layer_timing(layer, batch, p.gpu_level, cpu);
            per_batch_time += t.total;
            per_batch_energy += platform.layer_power(&t, p.gpu_level, cpu) * t.total;
        }
        levels_seq.push(p.gpu_level);
    }
    let num_batches = images.div_ceil(batch);
    let mut time = per_batch_time * num_batches as f64;
    let mut energy = per_batch_energy * num_batches as f64;
    let mut current = platform.gpu_table().max_level();
    let mut switches = 0;
    for _ in 0..num_batches {
        for &l in &levels_seq {
            if l != current {
                current = l;
                switches += 1;
            }
        }
    }
    let stall = platform.dvfs_transition_cost();
    time += switches as f64 * stall;
    energy += switches as f64 * stall * platform.idle_power(current, cpu);
    PlanEval {
        time,
        energy,
        energy_efficiency: if energy > 0.0 {
            images as f64 / energy
        } else {
            0.0
        },
        num_switches: switches,
    }
}

/// Result of batch co-optimization: the chosen batch and its plan.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPlanOutcome {
    /// Selected batch size.
    pub batch: usize,
    /// The plan produced at that batch size.
    pub plan: InstrumentationPlan,
    /// Analytic evaluation (per `images` of the planner config).
    pub eval: PlanEval,
}

/// Jointly optimizes the inference batch size and the DVFS plan: for each
/// candidate batch, re-plans the network (block optima shift with batch —
/// launch overheads amortize, weight traffic per image shrinks) and keeps
/// the most energy-efficient combination.
///
/// # Errors
///
/// Propagates planning errors.
///
/// # Panics
///
/// Panics if `batches` is empty or contains zero.
pub fn co_optimize_batch(
    pl: &PowerLens<'_>,
    graph: &Graph,
    batches: &[usize],
) -> Result<BatchPlanOutcome, PowerLensError> {
    assert!(!batches.is_empty(), "need at least one candidate batch");
    assert!(
        batches.iter().all(|&b| b > 0),
        "batch sizes must be positive"
    );
    let mut best: Option<BatchPlanOutcome> = None;
    for &batch in batches {
        let mut config = pl.config().clone();
        config.batch = batch;
        let scoped = match pl.models() {
            Some(m) => PowerLens::with_models(pl.platform(), config, m.clone()),
            None => PowerLens::untrained(pl.platform(), config),
        };
        let outcome = match scoped.plan(graph) {
            Ok(o) => o,
            Err(PowerLensError::Untrained) => scoped.plan_oracle(graph)?,
            Err(e) => return Err(e),
        };
        let eval = evaluate_plan(
            pl.platform(),
            graph,
            &outcome.plan,
            batch,
            pl.config().label_images.max(batch),
        );
        if best
            .as_ref()
            .is_none_or(|b| eval.energy_efficiency > b.eval.energy_efficiency)
        {
            best = Some(BatchPlanOutcome {
                batch,
                plan: outcome.plan,
                eval,
            });
        }
    }
    Ok(best.expect("non-empty batches"))
}

/// Builds the trivial max-frequency plan — the comparison point the
/// extensions report against.
pub fn max_frequency_plan(pl: &PowerLens<'_>) -> InstrumentationPlan {
    InstrumentationPlan::new(
        vec![InstrumentationPoint {
            layer: 0,
            gpu_level: pl.platform().gpu_table().max_level(),
        }],
        pl.platform().cpu_table().max_level(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PowerLensConfig;
    use powerlens_dnn::zoo;
    use powerlens_platform::Platform;

    #[test]
    fn cpu_extension_never_hurts() {
        let p = Platform::agx();
        let pl = PowerLens::untrained(&p, PowerLensConfig::default());
        let g = zoo::resnet34();
        let base = pl.plan_oracle(&g).unwrap();
        let base_eval = evaluate_plan(&p, &g, &base.plan, 8, 48);
        let ext = plan_with_cpu(&pl, &g).unwrap();
        assert!(
            ext.eval.energy_efficiency >= base_eval.energy_efficiency * 0.999,
            "CPU sweep regressed: {} vs {}",
            ext.eval.energy_efficiency,
            base_eval.energy_efficiency
        );
        assert!(ext.cpu_level < p.cpu_levels());
        assert_eq!(ext.plan.cpu_level(), ext.cpu_level);
    }

    #[test]
    fn cpu_extension_picks_below_max_when_host_power_matters() {
        // On the AGX (high CPU idle + meaningful c_eff) the best CPU level
        // for a GPU-bound CNN sits below MAXN.
        let p = Platform::agx();
        let pl = PowerLens::untrained(&p, PowerLensConfig::default());
        let ext = plan_with_cpu(&pl, &zoo::resnet152()).unwrap();
        assert!(
            ext.cpu_level < p.cpu_table().max_level(),
            "expected a CPU downclock, got level {}",
            ext.cpu_level
        );
    }

    #[test]
    fn batch_co_optimization_prefers_larger_batches() {
        // Launch overhead amortizes with batch, so among {1, 8} the larger
        // batch should win EE on a launch-sensitive model.
        let p = Platform::tx2();
        let pl = PowerLens::untrained(&p, PowerLensConfig::default());
        let out = co_optimize_batch(&pl, &zoo::densenet201(), &[1, 8]).unwrap();
        assert_eq!(out.batch, 8);
        assert!(out.eval.energy_efficiency > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one candidate batch")]
    fn batch_co_optimization_rejects_empty() {
        let p = Platform::agx();
        let pl = PowerLens::untrained(&p, PowerLensConfig::default());
        let _ = co_optimize_batch(&pl, &zoo::alexnet(), &[]);
    }

    #[test]
    fn extensions_work_on_cloud_platform() {
        // §5 future work: PowerLens on a cloud server. The pipeline must
        // run unmodified on the V100-class platform.
        let p = Platform::cloud_v100();
        let pl = PowerLens::untrained(&p, PowerLensConfig::default());
        let g = zoo::resnet152();
        let ext = plan_with_cpu(&pl, &g).unwrap();
        assert!(ext.eval.energy_efficiency > 0.0);
        let max_plan = max_frequency_plan(&pl);
        let max_eval = evaluate_plan(&p, &g, &max_plan, 8, 48);
        assert!(
            ext.eval.energy_efficiency > max_eval.energy_efficiency,
            "cloud plan {} should beat max-frequency {}",
            ext.eval.energy_efficiency,
            max_eval.energy_efficiency
        );
    }
}
