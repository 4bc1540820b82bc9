use powerlens_dnn::{Graph, LayerId};
use powerlens_platform::{FreqLevel, Platform, Telemetry};
use powerlens_sim::{Controller, FreqRequest};

/// BiM's sampling window (seconds).
const WINDOW: f64 = 0.1;

/// The built-in method (BiM): an `ondemand`-style reactive GPU governor.
///
/// Once per sampling window it inspects the trailing GPU load (busy
/// fraction):
///
/// * load above the up-threshold → jump straight to the maximum level
///   (the classic ondemand "race" rule);
/// * otherwise → pick the lowest level that would keep the load just under
///   the up-threshold, i.e. `f_target = f_cur * load / target_load`.
///
/// Because the decision is based on the *previous* window, the frequency
/// always trails the workload (lag), and workloads whose load hovers around
/// the threshold make it oscillate (ping-pong) — the two failure modes
/// Figure 1(A) of the paper illustrates.
#[derive(Debug, Clone)]
pub struct Bim {
    up_threshold: f64,
    target_load: f64,
    next_decision: f64,
    decisions: usize,
    max_level: FreqLevel,
    freqs_hz: Vec<f64>,
}

impl Bim {
    /// Creates the governor for `platform` with the 100 ms sampling window
    /// and an 80 % up-threshold.
    pub fn new(platform: &Platform) -> Self {
        let t = platform.gpu_table();
        Bim {
            up_threshold: 0.80,
            target_load: 0.63,
            next_decision: 0.0,
            decisions: 0,
            max_level: t.max_level(),
            freqs_hz: (0..t.num_levels()).map(|l| t.freq_hz(l)).collect(),
        }
    }

    /// Number of decisions taken so far (windows actually evaluated).
    pub fn num_decisions(&self) -> usize {
        self.decisions
    }

    fn level_for_freq(&self, hz: f64) -> FreqLevel {
        // Lowest level whose frequency satisfies the target.
        for (i, &f) in self.freqs_hz.iter().enumerate() {
            if f >= hz {
                return i;
            }
        }
        self.max_level
    }
}

impl Controller for Bim {
    fn name(&self) -> &str {
        "BiM"
    }

    fn on_task_start(&mut self, _graph: &Graph) {
        // ondemand is oblivious to task boundaries; nothing to reset except
        // letting the decision clock continue.
    }

    fn before_layer(
        &mut self,
        _graph: &Graph,
        _layer: LayerId,
        telemetry: &Telemetry,
        gpu_level: FreqLevel,
        _cpu_level: FreqLevel,
    ) -> FreqRequest {
        let now = telemetry.now();
        if now < self.next_decision {
            return FreqRequest::none();
        }
        // Re-anchor on the fixed window grid rather than `now + window`:
        // a long layer that overshoots the deadline must not phase-shift
        // every subsequent decision (the drift let sustained overshoot
        // stretch the effective sampling period well past the window).
        // Skip whole windows the run slept through, then arm the next
        // grid point strictly after `now`.
        let behind = ((now - self.next_decision) / WINDOW).floor().max(0.0);
        self.next_decision += (1.0 + behind) * WINDOW;
        if self.next_decision <= now {
            // Guard against `now` sitting exactly on a grid point.
            self.next_decision += WINDOW;
        }
        self.decisions += 1;
        let Some(w) = telemetry.window_stats(WINDOW) else {
            return FreqRequest::none();
        };
        if w.busy_util >= self.up_threshold {
            if gpu_level != self.max_level {
                return FreqRequest::gpu(self.max_level);
            }
            return FreqRequest::none();
        }
        let f_cur = self.freqs_hz[gpu_level];
        let f_target = f_cur * w.busy_util / self.target_load;
        let level = self.level_for_freq(f_target);
        if level != gpu_level {
            FreqRequest::gpu(level)
        } else {
            FreqRequest::none()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlens_dnn::zoo;
    use powerlens_sim::{Engine, StaticController};

    #[test]
    fn bim_runs_and_reports() {
        let p = Platform::agx();
        let e = Engine::new(&p).with_batch(8);
        let mut bim = Bim::new(&p);
        let r = e.run(&zoo::resnet34(), &mut bim, 16);
        assert!(r.total_time > 0.0);
        assert!(r.energy_efficiency > 0.0);
    }

    #[test]
    fn bim_stays_high_under_sustained_compute_load() {
        // A heavy compute-bound model keeps busy-util ~1, so ondemand should
        // sit at (or race back to) the maximum level for most of the run.
        let p = Platform::agx();
        let e = Engine::new(&p).with_batch(16);
        let mut bim = Bim::new(&p);
        let r = e.run(&zoo::vgg19(), &mut bim, 32);
        let max = p.gpu_table().max_level();
        let time_at_max: f64 = r
            .telemetry
            .samples()
            .iter()
            .filter(|s| s.gpu_level == max)
            .map(|s| s.duration)
            .sum();
        assert!(
            time_at_max / r.total_time > 0.8,
            "ondemand spent only {:.0}% at max",
            100.0 * time_at_max / r.total_time
        );
    }

    #[test]
    fn bim_less_efficient_than_best_static_level() {
        // The headline gap the paper exploits: reactive max-racing wastes
        // energy relative to a well-chosen static frequency.
        let p = Platform::agx();
        let e = Engine::new(&p).with_batch(8);
        let g = zoo::resnet152();
        let mut bim = Bim::new(&p);
        let r_bim = e.run(&g, &mut bim, 16);
        let best = e
            .sweep_gpu_levels(&g, 16)
            .into_iter()
            .map(|r| r.energy_efficiency)
            .fold(0.0, f64::max);
        assert!(best > r_bim.energy_efficiency);
    }

    #[test]
    fn bim_decisions_respect_window() {
        let p = Platform::tx2();
        let e = Engine::new(&p).with_batch(4);
        let mut bim = Bim::new(&p);
        let r = e.run(&zoo::alexnet(), &mut bim, 64);
        // With a 100 ms window and a multi-second run, the number of actual
        // switches must stay far below the layer count.
        let layers = zoo::alexnet().num_layers() * 64 / 4;
        assert!(r.num_gpu_switches < layers / 4);
        // The decision clock is phase-locked to the window grid: the number
        // of decisions tracks duration / window, not the (drifting)
        // overshoot-stretched period the old `now + window` re-arm produced.
        let expected = r.total_time / WINDOW;
        let decisions = bim.num_decisions() as f64;
        assert!(
            decisions <= expected + 2.0,
            "{decisions} decisions for {expected:.1} windows"
        );
        assert!(
            decisions >= expected * 0.5,
            "{decisions} decisions for {expected:.1} windows"
        );
    }

    #[test]
    fn decision_clock_reanchors_after_overshoot() {
        let p = Platform::tx2();
        let mut bim = Bim::new(&p);
        let g = zoo::alexnet();
        let mut t = Telemetry::new();
        // First decision at t = 0 arms the 100 ms grid.
        bim.before_layer(&g, 0, &t, 5, 0);
        assert_eq!(bim.num_decisions(), 1);
        // A long layer overshoots past two grid points (now = 0.24).
        t.record(2.4 * WINDOW, 10.0, 1.0, 1.0, 0.1, 5);
        bim.before_layer(&g, 1, &t, 5, 0);
        assert_eq!(bim.num_decisions(), 2);
        // The next deadline is the 0.30 grid point — not 0.34 (= now +
        // window), which is what the pre-fix drifting clock armed.
        t.record(0.4 * WINDOW, 10.0, 1.0, 1.0, 0.1, 5); // now = 0.28
        bim.before_layer(&g, 2, &t, 5, 0);
        assert_eq!(bim.num_decisions(), 2, "0.28 < 0.30: deadline not reached");
        t.record(0.21 * WINDOW, 10.0, 1.0, 1.0, 0.1, 5); // now = 0.301
        bim.before_layer(&g, 3, &t, 5, 0);
        assert_eq!(bim.num_decisions(), 3, "fires at the 0.30 grid point");
    }

    #[test]
    fn level_for_freq_picks_lowest_satisfying() {
        let p = Platform::tx2();
        let bim = Bim::new(&p);
        assert_eq!(bim.level_for_freq(0.0), 0);
        assert_eq!(bim.level_for_freq(f64::INFINITY), p.gpu_table().max_level());
        let mid = p.gpu_table().freq_hz(5);
        assert_eq!(bim.level_for_freq(mid), 5);
        assert_eq!(bim.level_for_freq(mid + 1.0), 6);
    }

    #[test]
    fn static_comparison_sanity() {
        // BiM should never beat pinning at max on raw speed by construction.
        let p = Platform::agx();
        let e = Engine::new(&p).with_batch(8);
        let g = zoo::resnet34();
        let mut bim = Bim::new(&p);
        let r_bim = e.run(&g, &mut bim, 8);
        let mut maxc = StaticController::new(p.gpu_table().max_level(), p.cpu_table().max_level());
        let r_max = e.run(&g, &mut maxc, 8);
        assert!(r_bim.total_time >= r_max.total_time * 0.999);
    }
}
