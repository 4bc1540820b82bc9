use powerlens_dnn::{Graph, LayerId};
use powerlens_platform::{Domain, FreqLevel, InstrumentationPlan, SwitchOutcome, Telemetry};

/// A frequency-change request issued by a controller before a layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FreqRequest {
    /// Requested GPU level, if any.
    pub gpu: Option<FreqLevel>,
    /// Requested CPU level, if any.
    pub cpu: Option<FreqLevel>,
}

impl FreqRequest {
    /// A request that changes nothing.
    pub fn none() -> Self {
        FreqRequest::default()
    }

    /// A GPU-only request.
    pub fn gpu(level: FreqLevel) -> Self {
        FreqRequest {
            gpu: Some(level),
            cpu: None,
        }
    }
}

/// Anything that can steer DVFS during a run: reactive governors (BiM, FPG)
/// and proactive instrumentation plans (PowerLens) both implement this.
///
/// The engine calls [`Controller::before_layer`] ahead of every layer
/// execution. Reactive implementations typically keep an internal decision
/// clock and only act when enough simulated time has passed (mirroring their
/// real sampling window); proactive implementations act exactly at their
/// preset instrumentation points.
pub trait Controller {
    /// Controller name for reports.
    fn name(&self) -> &str;

    /// Called when a new task (graph) starts; resets per-task state.
    fn on_task_start(&mut self, _graph: &Graph) {}

    /// Called before executing `layer`; returns the frequency changes to
    /// apply. `telemetry` exposes the past (never the current layer),
    /// `gpu_level`/`cpu_level` are the active levels.
    fn before_layer(
        &mut self,
        graph: &Graph,
        layer: LayerId,
        telemetry: &Telemetry,
        gpu_level: FreqLevel,
        cpu_level: FreqLevel,
    ) -> FreqRequest;

    /// Called after every frequency-change request with what the actuator
    /// actually did (never-trust readback). The default ignores it —
    /// open-loop controllers assume success, exactly the failure mode the
    /// [`crate::Degraded`] wrapper exists to catch.
    fn on_switch_outcome(
        &mut self,
        _domain: Domain,
        _requested: FreqLevel,
        _outcome: &SwitchOutcome,
    ) {
    }
}

/// Pins both domains to fixed levels — used for exhaustive frequency sweeps
/// (dataset labelling oracle) and as a building block in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticController {
    gpu: FreqLevel,
    cpu: FreqLevel,
    name: String,
}

impl StaticController {
    /// Creates a controller pinned to the given levels.
    pub fn new(gpu: FreqLevel, cpu: FreqLevel) -> Self {
        StaticController {
            gpu,
            cpu,
            name: format!("static(g{gpu},c{cpu})"),
        }
    }
}

impl Controller for StaticController {
    fn name(&self) -> &str {
        &self.name
    }

    fn before_layer(
        &mut self,
        _graph: &Graph,
        _layer: LayerId,
        _telemetry: &Telemetry,
        gpu_level: FreqLevel,
        cpu_level: FreqLevel,
    ) -> FreqRequest {
        FreqRequest {
            gpu: (gpu_level != self.gpu).then_some(self.gpu),
            cpu: (cpu_level != self.cpu).then_some(self.cpu),
        }
    }
}

/// Executes an [`InstrumentationPlan`]: issues the preset GPU level at each
/// instrumentation point and pins the CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanController {
    plan: InstrumentationPlan,
    name: String,
}

impl PlanController {
    /// Wraps a plan for execution.
    pub fn new(plan: InstrumentationPlan) -> Self {
        PlanController {
            name: format!("powerlens({} blocks)", plan.num_blocks()),
            plan,
        }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &InstrumentationPlan {
        &self.plan
    }
}

impl Controller for PlanController {
    fn name(&self) -> &str {
        &self.name
    }

    fn before_layer(
        &mut self,
        _graph: &Graph,
        layer: LayerId,
        _telemetry: &Telemetry,
        gpu_level: FreqLevel,
        cpu_level: FreqLevel,
    ) -> FreqRequest {
        let mut req = FreqRequest::none();
        if cpu_level != self.plan.cpu_level() {
            req.cpu = Some(self.plan.cpu_level());
        }
        if let Some(p) = self.plan.points().iter().find(|p| p.layer == layer) {
            if p.gpu_level != gpu_level {
                req.gpu = Some(p.gpu_level);
            }
        }
        req
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlens_platform::InstrumentationPoint;

    fn plan() -> InstrumentationPlan {
        InstrumentationPlan::new(
            vec![
                InstrumentationPoint {
                    layer: 0,
                    gpu_level: 10,
                },
                InstrumentationPoint {
                    layer: 5,
                    gpu_level: 3,
                },
            ],
            7,
        )
    }

    #[test]
    fn static_controller_requests_once() {
        let mut c = StaticController::new(4, 2);
        let g = powerlens_dnn::zoo::alexnet();
        let t = Telemetry::new();
        let r = c.before_layer(&g, 0, &t, 0, 0);
        assert_eq!(r.gpu, Some(4));
        assert_eq!(r.cpu, Some(2));
        let r2 = c.before_layer(&g, 1, &t, 4, 2);
        assert_eq!(r2, FreqRequest::none());
    }

    #[test]
    fn plan_controller_fires_at_points_only() {
        let mut c = PlanController::new(plan());
        let g = powerlens_dnn::zoo::alexnet();
        let t = Telemetry::new();
        let r0 = c.before_layer(&g, 0, &t, 0, 7);
        assert_eq!(r0.gpu, Some(10));
        let r1 = c.before_layer(&g, 1, &t, 10, 7);
        assert_eq!(r1, FreqRequest::none());
        let r5 = c.before_layer(&g, 5, &t, 10, 7);
        assert_eq!(r5.gpu, Some(3));
    }
}
