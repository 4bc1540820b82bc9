use std::collections::HashMap;

use powerlens_dnn::{Graph, LayerId};
use powerlens_platform::{FreqLevel, InstrumentationPlan, Telemetry};
use powerlens_sim::{Controller, FreqRequest, PlanController};

/// Executes per-model instrumentation plans across a task flow (§3.2.2):
/// when a new task starts, the controller switches to the plan prepared
/// offline for that model.
///
/// # Example
///
/// ```
/// use powerlens::{MultiPlanController, PowerLens, PowerLensConfig};
/// use powerlens_platform::Platform;
/// use powerlens_sim::{run_taskflow, Engine, TaskSpec};
/// use powerlens_dnn::zoo;
///
/// let agx = Platform::agx();
/// let pl = PowerLens::untrained(&agx, PowerLensConfig::default());
/// let a = zoo::alexnet();
/// let mut ctl = MultiPlanController::new();
/// ctl.insert(a.name(), pl.plan_oracle(&a).unwrap().plan);
/// let engine = Engine::new(&agx).with_batch(8);
/// let tasks = [TaskSpec { graph: &a, images: 16 }];
/// let report = run_taskflow(&engine, &tasks, &mut ctl);
/// assert!(report.energy_efficiency > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MultiPlanController {
    plans: HashMap<String, InstrumentationPlan>,
    active: Option<PlanController>,
}

impl MultiPlanController {
    /// Creates an empty controller.
    pub fn new() -> Self {
        MultiPlanController::default()
    }

    /// Registers the plan for a model name (replacing any previous one).
    pub fn insert(&mut self, model: impl Into<String>, plan: InstrumentationPlan) {
        self.plans.insert(model.into(), plan);
    }

    /// Number of registered plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// `true` if no plans are registered.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

impl Controller for MultiPlanController {
    fn name(&self) -> &str {
        "PowerLens"
    }

    fn on_task_start(&mut self, graph: &Graph) {
        self.active = self
            .plans
            .get(graph.name())
            .cloned()
            .map(PlanController::new);
        assert!(
            self.active.is_some(),
            "no instrumentation plan registered for model {:?}",
            graph.name()
        );
    }

    fn before_layer(
        &mut self,
        graph: &Graph,
        layer: LayerId,
        telemetry: &Telemetry,
        gpu_level: FreqLevel,
        cpu_level: FreqLevel,
    ) -> FreqRequest {
        match self.active.as_mut() {
            Some(p) => p.before_layer(graph, layer, telemetry, gpu_level, cpu_level),
            None => FreqRequest::none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PowerLens, PowerLensConfig};
    use powerlens_dnn::zoo;
    use powerlens_platform::Platform;
    use powerlens_sim::{run_taskflow, Engine, TaskSpec};

    #[test]
    fn switches_plans_between_tasks() {
        let p = Platform::tx2();
        let pl = PowerLens::untrained(&p, PowerLensConfig::default());
        let a = zoo::alexnet();
        let v = zoo::vgg19();
        let mut ctl = MultiPlanController::new();
        ctl.insert(a.name(), pl.plan_oracle(&a).unwrap().plan);
        ctl.insert(v.name(), pl.plan_oracle(&v).unwrap().plan);
        assert_eq!(ctl.len(), 2);

        let engine = Engine::new(&p).with_batch(8);
        let tasks = [
            TaskSpec {
                graph: &a,
                images: 16,
            },
            TaskSpec {
                graph: &v,
                images: 8,
            },
            TaskSpec {
                graph: &a,
                images: 16,
            },
        ];
        let report = run_taskflow(&engine, &tasks, &mut ctl);
        assert_eq!(report.total_images, 40);
        assert!(report.energy_efficiency > 0.0);
        assert_eq!(report.controller, "PowerLens");
    }

    #[test]
    #[should_panic(expected = "no instrumentation plan registered")]
    fn missing_plan_panics_at_task_start() {
        let mut ctl = MultiPlanController::new();
        let g = zoo::alexnet();
        ctl.on_task_start(&g);
    }
}
