//! Graceful degradation: wrap a primary controller with a fallback that
//! takes over when the platform misbehaves.
//!
//! PowerLens is *open-loop*: an instrumentation plan presets frequencies and
//! assumes the actuator lands them. Under injected faults that assumption
//! breaks two ways —
//!
//! 1. **switch failures**: repeated failed DVFS requests leave the board at
//!    the wrong operating point while the plan keeps assuming its presets, and
//! 2. **stale telemetry**: sensor dropout starves any telemetry-driven logic
//!    (and the operator watching the trace) of recent samples.
//!
//! [`Degraded`] detects both and hands control to a fallback — typically a
//! reactive governor like BiM, which closes the loop through whatever
//! telemetry still arrives. The detector re-arms at every task boundary, so
//! a transient fault burst only degrades the task it hit.

use powerlens_dnn::{Graph, LayerId};
use powerlens_obs as obs;
use powerlens_platform::{Domain, FreqLevel, SwitchOutcome, Telemetry};

use crate::{Controller, FreqRequest};

/// Consecutive totally-failed DVFS requests within one task that trip the
/// fallback.
pub const DEFAULT_FAILURE_THRESHOLD: usize = 3;

/// Trailing window (seconds) that must contain at least one telemetry
/// sample; an all-dropped window trips the fallback.
pub const DEFAULT_STALE_WINDOW: f64 = 0.5;

/// A controller wrapper that runs `primary` until the platform shows signs
/// of distress, then falls back to `fallback` for the rest of the task.
///
/// Trip conditions (checked before every layer and on every switch
/// readback):
///
/// * [`DEFAULT_FAILURE_THRESHOLD`] *consecutive* totally-failed DVFS
///   requests (a successful switch resets the streak), or
/// * the trailing [`DEFAULT_STALE_WINDOW`] seconds of telemetry contain no
///   samples at all (sensor dropout) once the run is older than the window.
///
/// Each trip increments the `controller.fallbacks` obs counter. The wrapper
/// re-arms on [`Controller::on_task_start`], restoring the primary for the
/// next task.
#[derive(Debug, Clone)]
pub struct Degraded<P, F> {
    primary: P,
    fallback: F,
    consecutive_failures: usize,
    fallen_back: bool,
    fallbacks: usize,
    name: String,
}

impl<P: Controller, F: Controller> Degraded<P, F> {
    /// Wraps `primary` with `fallback`.
    pub fn new(primary: P, fallback: F) -> Self {
        let name = format!("degraded({}->{})", primary.name(), fallback.name());
        Degraded {
            primary,
            fallback,
            consecutive_failures: 0,
            fallen_back: false,
            fallbacks: 0,
            name,
        }
    }

    /// Whether the wrapper is currently running the fallback.
    pub fn fell_back(&self) -> bool {
        self.fallen_back
    }

    /// Total number of times the fallback was tripped (across tasks).
    pub fn num_fallbacks(&self) -> usize {
        self.fallbacks
    }

    /// The wrapped primary controller.
    pub fn primary(&self) -> &P {
        &self.primary
    }

    /// The wrapped fallback controller.
    pub fn fallback(&self) -> &F {
        &self.fallback
    }

    fn trip(&mut self) {
        self.fallen_back = true;
        self.fallbacks += 1;
        obs::counter("controller.fallbacks", 1);
    }
}

impl<P: Controller, F: Controller> Controller for Degraded<P, F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_task_start(&mut self, graph: &Graph) {
        // Re-arm: a new task gets the primary back unless faults recur.
        self.fallen_back = false;
        self.consecutive_failures = 0;
        self.primary.on_task_start(graph);
        self.fallback.on_task_start(graph);
    }

    fn before_layer(
        &mut self,
        graph: &Graph,
        layer: LayerId,
        telemetry: &Telemetry,
        gpu_level: FreqLevel,
        cpu_level: FreqLevel,
    ) -> FreqRequest {
        // `>=`: a run exactly one window old whose entire history was
        // dropped is already a full stale window of silence. `>` missed
        // that boundary (PR 9 audit) — the trip fired one sample late.
        if !self.fallen_back
            && telemetry.now() >= DEFAULT_STALE_WINDOW
            && telemetry.window_stats(DEFAULT_STALE_WINDOW).is_none()
        {
            self.trip();
        }
        if self.fallen_back {
            self.fallback
                .before_layer(graph, layer, telemetry, gpu_level, cpu_level)
        } else {
            self.primary
                .before_layer(graph, layer, telemetry, gpu_level, cpu_level)
        }
    }

    fn on_switch_outcome(&mut self, domain: Domain, requested: FreqLevel, outcome: &SwitchOutcome) {
        if outcome.failed {
            self.consecutive_failures += 1;
            if !self.fallen_back && self.consecutive_failures >= DEFAULT_FAILURE_THRESHOLD {
                self.trip();
            }
        } else if outcome.switched {
            self.consecutive_failures = 0;
        }
        if self.fallen_back {
            self.fallback.on_switch_outcome(domain, requested, outcome);
        } else {
            self.primary.on_switch_outcome(domain, requested, outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StaticController;
    use powerlens_dnn::zoo;

    fn failed_outcome() -> SwitchOutcome {
        SwitchOutcome {
            level: 0,
            stall: 0.05,
            retries: 2,
            clamped: false,
            failed: true,
            switched: false,
        }
    }

    fn ok_outcome() -> SwitchOutcome {
        SwitchOutcome {
            level: 5,
            stall: 0.05,
            retries: 0,
            clamped: false,
            failed: false,
            switched: true,
        }
    }

    #[test]
    fn name_exposes_both_controllers() {
        let d = Degraded::new(StaticController::new(5, 3), StaticController::new(0, 0));
        assert_eq!(d.name(), "degraded(static(g5,c3)->static(g0,c0))");
    }

    #[test]
    fn consecutive_failures_trip_the_fallback() {
        let mut d = Degraded::new(StaticController::new(5, 3), StaticController::new(0, 0));
        for _ in 0..DEFAULT_FAILURE_THRESHOLD {
            assert!(!d.fell_back());
            d.on_switch_outcome(Domain::Gpu, 5, &failed_outcome());
        }
        assert!(d.fell_back());
        assert_eq!(d.num_fallbacks(), 1);
    }

    #[test]
    fn a_success_resets_the_failure_streak() {
        let mut d = Degraded::new(StaticController::new(5, 3), StaticController::new(0, 0));
        d.on_switch_outcome(Domain::Gpu, 5, &failed_outcome());
        d.on_switch_outcome(Domain::Gpu, 5, &failed_outcome());
        d.on_switch_outcome(Domain::Gpu, 5, &ok_outcome());
        d.on_switch_outcome(Domain::Gpu, 5, &failed_outcome());
        assert!(!d.fell_back(), "streak was broken by a success");
    }

    #[test]
    fn stale_telemetry_trips_the_fallback() {
        let mut d = Degraded::new(StaticController::new(5, 3), StaticController::new(0, 0));
        let g = zoo::alexnet();
        let mut t = Telemetry::new();
        t.record(0.1, 10.0, 0.5, 0.5, 0.1, 5);
        d.before_layer(&g, 0, &t, 5, 3);
        assert!(!d.fell_back(), "young run cannot be stale yet");
        t.record_gap(1.0);
        d.before_layer(&g, 1, &t, 5, 3);
        assert!(d.fell_back(), "all-dropped trailing window is stale");
    }

    #[test]
    fn gap_at_exactly_the_stale_window_boundary_trips() {
        // A history that is exactly one stale window of dropped samples is
        // a full window of silence and must trip immediately, not one
        // sample later (the `>` vs `>=` off-by-one pinned by PR 9).
        let mut d = Degraded::new(StaticController::new(5, 3), StaticController::new(0, 0));
        let g = zoo::alexnet();
        let mut t = Telemetry::new();
        t.record_gap(0.5);
        assert!((t.now() - 0.5).abs() < 1e-15);
        d.before_layer(&g, 0, &t, 5, 3);
        assert!(d.fell_back(), "exact-boundary all-dropped window is stale");
    }

    #[test]
    fn run_younger_than_the_window_never_trips_on_staleness() {
        let mut d = Degraded::new(StaticController::new(5, 3), StaticController::new(0, 0));
        let g = zoo::alexnet();
        let mut t = Telemetry::new();
        t.record_gap(0.25);
        d.before_layer(&g, 0, &t, 5, 3);
        assert!(!d.fell_back(), "not yet a full window of silence");
    }

    #[test]
    fn task_start_rearms_the_primary() {
        let mut d = Degraded::new(StaticController::new(5, 3), StaticController::new(0, 0));
        for _ in 0..DEFAULT_FAILURE_THRESHOLD {
            d.on_switch_outcome(Domain::Cpu, 3, &failed_outcome());
        }
        assert!(d.fell_back());
        d.on_task_start(&zoo::alexnet());
        assert!(!d.fell_back());
        assert_eq!(d.num_fallbacks(), 1, "trip count persists across tasks");
    }

    #[test]
    fn partial_failure_streak_does_not_leak_across_tasks() {
        // Two failures in task N (below threshold) plus one in task N+1
        // must not add up to a trip: the streak re-arms at the boundary.
        let mut d = Degraded::new(StaticController::new(5, 3), StaticController::new(0, 0));
        d.on_switch_outcome(Domain::Gpu, 5, &failed_outcome());
        d.on_switch_outcome(Domain::Gpu, 5, &failed_outcome());
        d.on_task_start(&zoo::alexnet());
        d.on_switch_outcome(Domain::Gpu, 5, &failed_outcome());
        d.on_switch_outcome(Domain::Gpu, 5, &failed_outcome());
        assert!(!d.fell_back(), "streak must reset at the task boundary");
        d.on_switch_outcome(Domain::Gpu, 5, &failed_outcome());
        assert!(d.fell_back(), "a full in-task streak still trips");
    }

    #[test]
    fn staleness_trip_rearms_and_does_not_retrip_on_fresh_samples() {
        let mut d = Degraded::new(StaticController::new(9, 3), StaticController::new(1, 1));
        let g = zoo::alexnet();
        let mut t = Telemetry::new();
        t.record_gap(1.0);
        assert_eq!(d.before_layer(&g, 0, &t, 0, 0).gpu, Some(1));
        assert!(d.fell_back());
        // Task N+1: sensor recovered. The primary must drive again — the
        // task-N trip cannot leak forward.
        d.on_task_start(&g);
        t.record(0.5, 10.0, 0.5, 0.5, 0.1, 9);
        assert_eq!(d.before_layer(&g, 0, &t, 0, 0).gpu, Some(9));
        assert!(!d.fell_back());
        assert_eq!(d.num_fallbacks(), 1);
    }

    #[test]
    fn delegates_to_fallback_after_trip() {
        let mut d = Degraded::new(StaticController::new(9, 3), StaticController::new(1, 1));
        let g = zoo::alexnet();
        let t = Telemetry::new();
        let before = d.before_layer(&g, 0, &t, 0, 0);
        assert_eq!(before.gpu, Some(9), "primary drives before the trip");
        for _ in 0..DEFAULT_FAILURE_THRESHOLD {
            d.on_switch_outcome(Domain::Gpu, 9, &failed_outcome());
        }
        let after = d.before_layer(&g, 0, &t, 0, 0);
        assert_eq!(after.gpu, Some(1), "fallback drives after the trip");
    }
}
