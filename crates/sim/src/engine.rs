use powerlens_dnn::Graph;
use powerlens_faults::{FaultPlan, FaultSession};
use powerlens_obs as obs;
use powerlens_platform::{Domain, DvfsActuator, Platform, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Controller;

/// Result of simulating one inference run (or one task of a task flow).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Controller that steered the run.
    pub controller: String,
    /// Model name.
    pub model: String,
    /// Number of images processed.
    pub images: usize,
    /// Wall-clock time in seconds (including DVFS transition stalls).
    pub total_time: f64,
    /// Energy in joules.
    pub total_energy: f64,
    /// Time-weighted average board power in watts.
    pub avg_power: f64,
    /// Throughput in frames per second.
    pub fps: f64,
    /// Energy efficiency in images per joule — the paper's Equation 1:
    /// `EE = FPS / P̄ = images / E`.
    pub energy_efficiency: f64,
    /// Actual GPU DVFS level changes performed.
    pub num_gpu_switches: usize,
    /// Actual CPU DVFS level changes performed.
    pub num_cpu_switches: usize,
    /// Wall-clock time lost to DVFS transitions (seconds).
    pub dvfs_overhead_time: f64,
    /// DVFS requests whose every attempt failed (level unchanged).
    pub num_failed_switches: usize,
    /// Failed switch attempts that were retried.
    pub num_dvfs_retries: usize,
    /// Total faults injected by the run's [`FaultPlan`] (0 for clean runs).
    pub faults_injected: usize,
    /// Full telemetry stream (frequency/power trace over time).
    pub telemetry: Telemetry,
}

/// Internal mutable run state threaded across tasks of a task flow.
pub(crate) struct RunState {
    pub telemetry: Telemetry,
    pub gpu: DvfsActuator,
    pub cpu: DvfsActuator,
    pub rng: Option<(StdRng, f64)>,
    pub faults: Option<FaultSession>,
    /// Physical energy in joules, accumulated span by span. Equals the
    /// telemetry stream's energy on clean runs (same fold order, so the two
    /// are bit-identical); under sensor faults it keeps the ground truth
    /// while the telemetry stream only holds what the sensor observed.
    pub true_energy: f64,
}

impl RunState {
    /// Records one executed span: physical energy always accrues; the
    /// telemetry sample passes through the sensor-fault stage (dropout
    /// turns it into a gap, noise scales the observed power).
    fn record_span(
        &mut self,
        duration: f64,
        power: f64,
        gpu_util: f64,
        busy_util: f64,
        cpu_util: f64,
    ) {
        let level = self.gpu.level();
        self.true_energy += power * duration;
        match self.faults.as_mut() {
            Some(f) => {
                if f.sensor.drops_sample() {
                    self.telemetry.record_gap(duration);
                } else {
                    let observed = power * f.sensor.noise_factor();
                    self.telemetry
                        .record(duration, observed, gpu_util, busy_util, cpu_util, level);
                }
            }
            None => self
                .telemetry
                .record(duration, power, gpu_util, busy_util, cpu_util, level),
        }
    }
}

/// The inference simulator: executes graphs on a platform under a
/// controller. See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct Engine<'p> {
    platform: &'p Platform,
    batch: usize,
    noise: Option<(u64, f64)>,
    faults: Option<FaultPlan>,
}

impl<'p> Engine<'p> {
    /// Creates an engine with batch size 1 and no measurement noise.
    pub fn new(platform: &'p Platform) -> Self {
        Engine {
            platform,
            batch: 1,
            noise: None,
            faults: None,
        }
    }

    /// Sets the inference batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        self.batch = batch;
        self
    }

    /// Enables multiplicative measurement noise on layer latency (the paper
    /// averages 50 randomized runs to de-noise hardware measurements; this
    /// reproduces the need for that averaging).
    pub fn with_noise(mut self, seed: u64, sigma: f64) -> Self {
        self.noise = Some((seed, sigma));
        self
    }

    /// Runs all subsequent simulations under a seeded [`FaultPlan`]. Every
    /// `run` / task flow builds a fresh [`FaultSession`] from the plan, so
    /// repeated runs replay the exact same fault trace. An inert plan (all
    /// probabilities zero) builds no session at all, so it is bit-identical
    /// to a clean run by construction — pinned by the zero-fault
    /// differential test in `tests/faults_differential.rs`.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The configured fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The platform being simulated.
    pub fn platform(&self) -> &Platform {
        self.platform
    }

    /// The configured batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    pub(crate) fn fresh_state(&self) -> RunState {
        RunState {
            telemetry: Telemetry::new(),
            // MAXN boots with both domains at their maximum level.
            gpu: DvfsActuator::new(
                self.platform.gpu_table().max_level(),
                self.platform.dvfs_transition_cost(),
                self.platform.gpu_levels(),
            ),
            cpu: DvfsActuator::new(
                self.platform.cpu_table().max_level(),
                self.platform.dvfs_transition_cost(),
                self.platform.cpu_levels(),
            ),
            rng: self
                .noise
                .map(|(seed, sigma)| (StdRng::seed_from_u64(seed), sigma)),
            faults: self
                .faults
                .as_ref()
                .filter(|plan| !plan.is_inert())
                .map(FaultSession::new),
            true_energy: 0.0,
        }
    }

    /// Runs `images` inferences of `graph` under `controller` from a fresh
    /// board state.
    pub fn run(&self, graph: &Graph, controller: &mut dyn Controller, images: usize) -> RunReport {
        // The span measures wall time; the report records simulated time,
        // so a trace shows both side by side.
        let _span = obs::span("sim_run");
        let mut state = self.fresh_state();
        controller.on_task_start(graph);
        self.run_into(&mut state, graph, controller, images);
        self.report(state, graph, controller, images)
    }

    /// Debug-build gate: runs the lint graph pack before executing, surfaces
    /// counts through the `lint.errors` / `lint.warnings` obs counters, and
    /// refuses to simulate a graph with error-severity findings. Compiled
    /// out of release builds (see `docs/ARCHITECTURE.md`, "Lint gates").
    #[cfg(debug_assertions)]
    fn debug_lint_gate(&self, graph: &Graph) {
        let report = powerlens_lint::lint_graph(graph, &powerlens_lint::LintConfig::default());
        powerlens_lint::record_to_obs(&report);
        assert!(
            !report.has_errors(),
            "graph `{}` failed lint: {:?}",
            graph.name(),
            report.diagnostics
        );
    }

    pub(crate) fn run_into(
        &self,
        state: &mut RunState,
        graph: &Graph,
        controller: &mut dyn Controller,
        images: usize,
    ) {
        #[cfg(debug_assertions)]
        self.debug_lint_gate(graph);
        let mut remaining = images;
        while remaining > 0 {
            let batch = remaining.min(self.batch);
            for layer in graph.layers() {
                let req = controller.before_layer(
                    graph,
                    layer.id,
                    &state.telemetry,
                    state.gpu.level(),
                    state.cpu.level(),
                );
                let mut stall = 0.0;
                if let Some(g) = req.gpu {
                    let out = state
                        .gpu
                        .try_set_level(g, state.faults.as_mut().map(|f| &mut f.gpu));
                    stall += out.stall;
                    controller.on_switch_outcome(Domain::Gpu, g, &out);
                }
                if let Some(c) = req.cpu {
                    let out = state
                        .cpu
                        .try_set_level(c, state.faults.as_mut().map(|f| &mut f.cpu));
                    stall += out.stall;
                    controller.on_switch_outcome(Domain::Cpu, c, &out);
                }
                if stall > 0.0 {
                    // During a transition the pipeline drains; the board sits
                    // near idle at the new operating point.
                    let p_idle = self
                        .platform
                        .idle_power(state.gpu.level(), state.cpu.level());
                    state.record_span(stall, p_idle, 0.0, 0.0, 0.05);
                }
                let timing =
                    self.platform
                        .layer_timing(layer, batch, state.gpu.level(), state.cpu.level());
                let mut power =
                    self.platform
                        .layer_power(&timing, state.gpu.level(), state.cpu.level());
                if let Some(f) = state.faults.as_mut() {
                    // Transient interference perturbs the physical power draw
                    // itself, not just the sensor reading.
                    power *= f.power.factor();
                    // A workload phase change shifts the draw for the rest
                    // of the run once the simulated clock crosses its start.
                    power *= f.phase.factor(state.telemetry.now());
                }
                let mut t = timing.total;
                if let Some((rng, sigma)) = state.rng.as_mut() {
                    let factor = 1.0 + *sigma * rng.gen_range(-1.0..1.0);
                    t *= factor.clamp(0.8, 1.2);
                }
                state.record_span(t, power, timing.gpu_util, timing.busy_util, timing.cpu_util);
            }
            remaining -= batch;
        }
    }

    pub(crate) fn report(
        &self,
        state: RunState,
        graph: &Graph,
        controller: &dyn Controller,
        images: usize,
    ) -> RunReport {
        let total_time = state.telemetry.now();
        // Physical energy: bit-identical to the telemetry fold on clean runs,
        // ground truth under sensor faults (see `RunState::true_energy`).
        let total_energy = state.true_energy;
        let num_failed = state.gpu.num_failed() + state.cpu.num_failed();
        let num_retries = state.gpu.num_retries() + state.cpu.num_retries();
        let faults_injected = state.faults.as_ref().map_or(0, |f| f.injected_total());
        if obs::enabled() {
            obs::counter("sim.images", images as u64);
            obs::counter("sim.dvfs.gpu_switches", state.gpu.num_switches() as u64);
            obs::counter("sim.dvfs.cpu_switches", state.cpu.num_switches() as u64);
            obs::histogram("sim.simulated_time_s", total_time);
            obs::histogram(
                "sim.dvfs.overhead_s",
                state.gpu.total_overhead() + state.cpu.total_overhead(),
            );
            if num_retries > 0 {
                obs::counter("dvfs.retries", num_retries as u64);
            }
            if num_failed > 0 {
                obs::counter("dvfs.failed_switches", num_failed as u64);
            }
            if state.telemetry.dropped_samples() > 0 {
                obs::counter(
                    "telemetry.dropped",
                    state.telemetry.dropped_samples() as u64,
                );
            }
            if faults_injected > 0 {
                obs::counter("faults.injected", faults_injected as u64);
            }
        }
        RunReport {
            controller: controller.name().to_string(),
            model: graph.name().to_string(),
            images,
            total_time,
            total_energy,
            avg_power: if total_time > 0.0 {
                total_energy / total_time
            } else {
                0.0
            },
            fps: if total_time > 0.0 {
                images as f64 / total_time
            } else {
                0.0
            },
            energy_efficiency: if total_energy > 0.0 {
                images as f64 / total_energy
            } else {
                0.0
            },
            num_gpu_switches: state.gpu.num_switches(),
            num_cpu_switches: state.cpu.num_switches(),
            dvfs_overhead_time: state.gpu.total_overhead() + state.cpu.total_overhead(),
            num_failed_switches: num_failed,
            num_dvfs_retries: num_retries,
            faults_injected,
            telemetry: state.telemetry,
        }
    }

    /// Runs `graph` pinned at every GPU level (CPU at max) and returns one
    /// report per level — the exhaustive sweep used by the paper's dataset
    /// generator ("each block ... is deployed at all frequencies").
    pub fn sweep_gpu_levels(&self, graph: &Graph, images: usize) -> Vec<RunReport> {
        let cpu_max = self.platform.cpu_table().max_level();
        (0..self.platform.gpu_levels())
            .map(|g| {
                let mut ctl = crate::StaticController::new(g, cpu_max);
                self.run(graph, &mut ctl, images)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlanController, StaticController};
    use powerlens_dnn::zoo;
    use powerlens_platform::{InstrumentationPlan, InstrumentationPoint};

    fn agx() -> Platform {
        Platform::agx()
    }

    #[test]
    fn ee_identity_holds() {
        // EE = FPS / avg_power must equal images / energy (Equation 1).
        let p = agx();
        let e = Engine::new(&p).with_batch(4);
        let g = zoo::alexnet();
        let mut ctl = StaticController::new(7, p.cpu_table().max_level());
        let r = e.run(&g, &mut ctl, 20);
        assert!((r.energy_efficiency - r.fps / r.avg_power).abs() < 1e-9 * r.energy_efficiency);
    }

    #[test]
    fn static_run_has_at_most_initial_switches() {
        let p = agx();
        let e = Engine::new(&p);
        let g = zoo::alexnet();
        let mut ctl = StaticController::new(0, 0);
        let r = e.run(&g, &mut ctl, 5);
        // One GPU + one CPU change from the MAXN boot level, then stable.
        assert_eq!(r.num_gpu_switches, 1);
        assert_eq!(r.num_cpu_switches, 1);
    }

    #[test]
    fn lower_frequency_is_slower_but_can_be_more_efficient() {
        let p = agx();
        let e = Engine::new(&p).with_batch(8);
        let g = zoo::resnet34();
        let reports = e.sweep_gpu_levels(&g, 16);
        let max_level = &reports[reports.len() - 1];
        let min_level = &reports[0];
        assert!(min_level.total_time > max_level.total_time);
        let best_ee = reports
            .iter()
            .map(|r| r.energy_efficiency)
            .fold(0.0, f64::max);
        assert!(
            best_ee > max_level.energy_efficiency,
            "peak EE should not be at max frequency"
        );
    }

    #[test]
    fn plan_switches_once_per_block_per_batch() {
        let p = agx();
        let e = Engine::new(&p).with_batch(50);
        let g = zoo::resnet34();
        let n = g.num_layers();
        let plan = InstrumentationPlan::new(
            vec![
                InstrumentationPoint {
                    layer: 0,
                    gpu_level: 12,
                },
                InstrumentationPoint {
                    layer: n / 2,
                    gpu_level: 5,
                },
            ],
            p.cpu_table().max_level(),
        );
        let mut ctl = PlanController::new(plan);
        let r = e.run(&g, &mut ctl, 50);
        // Single batch: level 13(boot) -> 12 -> 5. Two switches.
        assert_eq!(r.num_gpu_switches, 2);
        assert!((r.dvfs_overhead_time - 2.0 * p.dvfs_transition_cost()).abs() < 1e-12);
    }

    #[test]
    fn noise_changes_runs_but_seed_reproduces() {
        let p = agx();
        let g = zoo::alexnet();
        let e1 = Engine::new(&p).with_noise(1, 0.05);
        let e2 = Engine::new(&p).with_noise(1, 0.05);
        let e3 = Engine::new(&p).with_noise(2, 0.05);
        let mut c = StaticController::new(5, 3);
        let r1 = e1.run(&g, &mut c, 10);
        let r2 = e2.run(&g, &mut c, 10);
        let r3 = e3.run(&g, &mut c, 10);
        assert_eq!(r1.total_time, r2.total_time);
        assert_ne!(r1.total_time, r3.total_time);
    }

    #[test]
    fn phase_drift_scales_power_after_the_boundary_and_replays_bit_exact() {
        let p = agx();
        let g = zoo::alexnet();
        let mut c = StaticController::new(5, 3);
        let clean = Engine::new(&p).with_batch(4).run(&g, &mut c, 8);
        let fp = FaultPlan {
            phase_power_drift: 0.5,
            phase_at_s: clean.total_time / 2.0,
            ..FaultPlan::default()
        };
        let run = |fp: &FaultPlan| {
            let mut c = StaticController::new(5, 3);
            Engine::new(&p)
                .with_batch(4)
                .with_faults(fp.clone())
                .run(&g, &mut c, 8)
        };
        let (r1, r2) = (run(&fp), run(&fp));
        assert_eq!(r1.total_energy.to_bits(), r2.total_energy.to_bits());
        assert_eq!(r1.total_time.to_bits(), r2.total_time.to_bits());
        // Only the tail of the run draws 1.5x, so total energy sits
        // strictly between the clean total and a uniformly scaled one.
        assert!(r1.total_energy > clean.total_energy);
        assert!(r1.total_energy < 1.5 * clean.total_energy);
        assert_eq!(r1.total_time.to_bits(), clean.total_time.to_bits());
        assert_eq!(r1.faults_injected, 1, "activation counts one fault");
    }

    #[test]
    fn batch_amortizes_launch_overhead() {
        let p = agx();
        let g = zoo::alexnet();
        let mut c = StaticController::new(13, p.cpu_table().max_level());
        let r1 = Engine::new(&p).with_batch(1).run(&g, &mut c, 32);
        let r32 = Engine::new(&p).with_batch(32).run(&g, &mut c, 32);
        assert!(r32.fps > r1.fps);
    }

    #[test]
    fn telemetry_time_matches_total() {
        let p = agx();
        let e = Engine::new(&p);
        let g = zoo::alexnet();
        let mut c = StaticController::new(4, 4);
        let r = e.run(&g, &mut c, 3);
        assert!((r.telemetry.now() - r.total_time).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_rejected() {
        let p = agx();
        let _ = Engine::new(&p).with_batch(0);
    }
}
