use powerlens_dnn::{Layer, OpKind};

use crate::{FreqLevel, FrequencyTable, PowerDomainModel};

/// Timing breakdown for one layer execution at a given operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTiming {
    /// Time the GPU compute pipeline needs (seconds).
    pub compute: f64,
    /// Time the memory system needs (seconds).
    pub memory: f64,
    /// CPU-side kernel launch overhead (seconds).
    pub launch: f64,
    /// Wall-clock time: `max(compute, memory) + launch`.
    pub total: f64,
    /// GPU useful-compute fraction during the layer (`compute / total`).
    pub gpu_util: f64,
    /// GPU busy fraction (kernel resident incl. memory stalls) — what an
    /// ondemand-style governor observes as "load".
    pub busy_util: f64,
    /// CPU busy fraction (kernel launches + framework host code).
    pub cpu_util: f64,
}

/// An analytical model of one embedded GPU board (see crate docs).
///
/// Construct with [`Platform::agx`] or [`Platform::tx2`]; all simulation,
/// labelling and governor logic goes through the three queries
/// [`Platform::layer_timing`], [`Platform::layer_power`] and
/// [`Platform::layer_energy`].
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    name: &'static str,
    gpu: FrequencyTable,
    cpu: FrequencyTable,
    gpu_power: PowerDomainModel,
    cpu_power: PowerDomainModel,
    /// Memory subsystem power at full bandwidth utilization (W).
    mem_max_w: f64,
    /// Memory subsystem idle power (W).
    mem_idle_w: f64,
    /// Always-on board power (regulators, carrier, W).
    board_static_w: f64,
    /// Peak GPU FLOPs per clock cycle (cores x 2 for FMA).
    flops_per_cycle: f64,
    /// Effective off-chip memory bandwidth (bytes/second).
    mem_bw: f64,
    /// Kernel launch overhead at maximum CPU frequency (seconds per layer).
    launch_base: f64,
    /// GPU-side fixed time per kernel (scheduling, tail effect) — does not
    /// scale with the core clock. Small kernels are therefore frequency
    /// *inelastic*: lowering the clock barely slows them, which is why
    /// blocks dominated by small kernels prefer lower frequencies than
    /// GEMM-heavy blocks. This per-kernel overhead is what gives different
    /// power blocks genuinely different optimal frequencies.
    kernel_overhead: f64,
    /// Fraction of full dynamic power the GPU burns while a resident kernel
    /// is stalled on memory (SMs keep clocking). This is what makes running
    /// memory-bound code at high frequency wasteful — the headroom PowerLens
    /// exploits.
    stall_activity: f64,
    /// Clock-tree activity floor: fraction of full dynamic power the GPU
    /// burns whenever its clocks run, even with no kernel resident (launch
    /// gaps). Running launch-bound code at a high clock therefore wastes
    /// `floor * C * V^2 * f` — the reason launch-bound blocks prefer the
    /// lowest levels.
    clock_floor: f64,
    /// Execution stall per DVFS level change (seconds): pipeline drain +
    /// PLL relock. The paper's measured "50 ms average overhead" (§3.3) is
    /// the *end-to-end userspace latency* — mostly an asynchronous ramp
    /// during which execution continues — reproduced separately as
    /// [`Platform::dvfs_settle_latency`].
    dvfs_transition: f64,
    /// End-to-end latency of a userspace DVFS command until the new
    /// frequency is fully in effect (seconds).
    dvfs_settle: f64,
}

impl Platform {
    /// NVIDIA Jetson AGX Xavier under MAXN: 512-core Volta GPU
    /// (~1.4 fp32 TFLOPS), ~100 GB/s effective LPDDR4x bandwidth,
    /// ~30 W board envelope.
    pub fn agx() -> Self {
        Platform {
            name: "agx",
            gpu: FrequencyTable::jetson_agx_gpu(),
            cpu: FrequencyTable::jetson_agx_cpu(),
            gpu_power: PowerDomainModel::new(2.0, 1.25e-8),
            cpu_power: PowerDomainModel::new(0.8, 2.6e-9),
            mem_max_w: 5.0,
            mem_idle_w: 0.8,
            board_static_w: 3.5,
            flops_per_cycle: 1024.0,
            mem_bw: 45.0e9,
            launch_base: 80e-6,
            kernel_overhead: 25e-6,
            stall_activity: 0.50,
            clock_floor: 0.08,
            dvfs_transition: 0.0005,
            dvfs_settle: 0.050,
        }
    }

    /// NVIDIA Jetson TX2 under MAXN: 256-core Pascal GPU (~0.67 fp32 TFLOPS),
    /// ~40 GB/s effective LPDDR4 bandwidth, ~15 W board envelope.
    pub fn tx2() -> Self {
        Platform {
            name: "tx2",
            gpu: FrequencyTable::jetson_tx2_gpu(),
            cpu: FrequencyTable::jetson_tx2_cpu(),
            gpu_power: PowerDomainModel::new(0.8, 7.5e-9),
            cpu_power: PowerDomainModel::new(0.5, 2.0e-9),
            mem_max_w: 2.5,
            mem_idle_w: 0.5,
            board_static_w: 1.6,
            flops_per_cycle: 512.0,
            mem_bw: 22.0e9,
            launch_base: 120e-6,
            kernel_overhead: 30e-6,
            stall_activity: 0.38,
            clock_floor: 0.06,
            dvfs_transition: 0.0005,
            dvfs_settle: 0.050,
        }
    }

    /// A datacenter-class board in the V100 power envelope — the paper's
    /// §5 future-work target ("we plan to apply PowerLens in cloud
    /// servers"). Seven application clocks, ~250 W TDP, HBM2 bandwidth.
    pub fn cloud_v100() -> Self {
        let gpu = FrequencyTable::new(
            [405.0, 592.5, 705.0, 810.0, 945.0, 1147.5, 1380.0]
                .iter()
                .map(|m| m * 1e6)
                .collect(),
            0.75,
            1.05,
        )
        .with_voltage_exponent(2.0);
        let cpu = FrequencyTable::new([1.2e9, 1.8e9, 2.4e9, 3.0e9].to_vec(), 0.7, 1.1);
        Platform {
            name: "cloud_v100",
            gpu,
            cpu,
            gpu_power: PowerDomainModel::new(25.0, 1.5e-7),
            cpu_power: PowerDomainModel::new(10.0, 8.0e-9),
            mem_max_w: 40.0,
            mem_idle_w: 5.0,
            board_static_w: 15.0,
            flops_per_cycle: 10240.0,
            mem_bw: 700.0e9,
            launch_base: 8e-6,
            kernel_overhead: 6e-6,
            stall_activity: 0.50,
            clock_floor: 0.08,
            dvfs_transition: 0.0005,
            dvfs_settle: 0.025,
        }
    }

    /// Board name (`"agx"` or `"tx2"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// GPU frequency table.
    pub fn gpu_table(&self) -> &FrequencyTable {
        &self.gpu
    }

    /// CPU frequency table.
    pub fn cpu_table(&self) -> &FrequencyTable {
        &self.cpu
    }

    /// Number of GPU DVFS levels (14 on AGX, 13 on TX2 — Table 1 setup).
    pub fn gpu_levels(&self) -> usize {
        self.gpu.num_levels()
    }

    /// Number of CPU DVFS levels.
    pub fn cpu_levels(&self) -> usize {
        self.cpu.num_levels()
    }

    /// Execution stall per DVFS level change (seconds).
    pub fn dvfs_transition_cost(&self) -> f64 {
        self.dvfs_transition
    }

    /// End-to-end latency of one userspace DVFS command (seconds) — the
    /// quantity the paper's §3.3 experiment measures at ~50 ms.
    pub fn dvfs_settle_latency(&self) -> f64 {
        self.dvfs_settle
    }

    /// Returns a copy with a different DVFS transition cost — used by the
    /// sensitivity ablation.
    pub fn with_dvfs_transition_cost(mut self, seconds: f64) -> Self {
        self.dvfs_transition = seconds;
        self
    }

    /// Fraction of peak GPU throughput a kernel of this operator kind
    /// achieves (kernel efficiency).
    pub fn kernel_efficiency(op: &OpKind) -> f64 {
        match *op {
            OpKind::Conv2d { groups, in_ch, .. } if groups == in_ch && in_ch > 1 => 0.12,
            OpKind::Conv2d { kernel: 1, .. } => 0.45,
            OpKind::Conv2d { groups, .. } if groups > 1 => 0.35,
            OpKind::Conv2d { .. } => 0.55,
            OpKind::Linear { .. } => 0.40,
            OpKind::Attention { .. } => 0.35,
            OpKind::PatchEmbed { .. } => 0.45,
            OpKind::Pool { .. } => 0.10,
            OpKind::BatchNorm | OpKind::LayerNorm => 0.15,
            OpKind::Activation(_) => 0.20,
            OpKind::Add => 0.20,
            // Table gathers hit scattered rows; throughput is latency-bound
            // like the other data-movement ops.
            OpKind::Concat { .. } | OpKind::Flatten | OpKind::Embedding { .. } => 0.10,
        }
    }

    /// Roofline timing of `layer` for a batch of `batch` samples at the given
    /// GPU/CPU levels.
    ///
    /// # Panics
    ///
    /// Panics if a level is out of range for its table.
    pub fn layer_timing(
        &self,
        layer: &Layer,
        batch: usize,
        gpu_level: FreqLevel,
        cpu_level: FreqLevel,
    ) -> LayerTiming {
        let eff = Self::kernel_efficiency(&layer.op);
        // Sparsity-scaled activity: zero operands skip their
        // multiply-accumulates, so only the surviving density of the FLOP
        // volume exercises the pipelines. Dense layers (sparsity 0) multiply
        // by exactly 1.0 — bit-identical to the sparsity-blind model.
        let density = (1.0 - layer.sparsity()).clamp(0.0, 1.0);
        let flops = layer.flops() * batch as f64 * density;
        // Activations scale with batch; weights stream once per kernel.
        let bytes = layer.activation_bytes() * batch as f64 + layer.weight_bytes();
        self.timing_from(flops, bytes, eff, gpu_level, cpu_level)
    }

    /// [`layer_timing`](Self::layer_timing) with the layer-derived
    /// quantities already extracted, so per-level sweeps
    /// ([`layer_envelope`](Self::layer_envelope)) hoist them out of the
    /// loop instead of re-walking the operator every iteration.
    fn timing_from(
        &self,
        flops: f64,
        bytes: f64,
        eff: f64,
        gpu_level: FreqLevel,
        cpu_level: FreqLevel,
    ) -> LayerTiming {
        let f_gpu = self.gpu.freq_hz(gpu_level);
        let f_cpu = self.cpu.freq_hz(cpu_level);

        let compute = if flops > 0.0 {
            self.kernel_overhead + flops / (self.flops_per_cycle * f_gpu * eff)
        } else {
            0.0
        };
        let memory = bytes / self.mem_bw;
        // Launch latency = fixed driver/DMA part + CPU-clock-scaled part.
        let cpu_scale = self.cpu.freq_hz(self.cpu.max_level()) / f_cpu;
        let launch = self.launch_base * (0.4 + 0.6 * cpu_scale);
        let total = compute.max(memory) + launch;
        let gpu_util = if total > 0.0 { compute / total } else { 0.0 };
        let busy_util = if total > 0.0 {
            compute.max(memory) / total
        } else {
            0.0
        };
        // Framework host code (data staging, Python dispatch) keeps the CPU
        // partially busy throughout inference, on top of kernel launches.
        let cpu_util = if total > 0.0 {
            (launch / total + 0.10).min(1.0)
        } else {
            0.10
        };
        LayerTiming {
            compute,
            memory,
            launch,
            total,
            gpu_util,
            busy_util,
            cpu_util,
        }
    }

    /// Average board power (watts) while executing a layer with the given
    /// timing at the given operating point.
    pub fn layer_power(
        &self,
        timing: &LayerTiming,
        gpu_level: FreqLevel,
        cpu_level: FreqLevel,
    ) -> f64 {
        // While a kernel is resident (max(compute, memory) span) the SMs are
        // either doing useful work or clocking through memory stalls; stalls
        // burn `stall_activity` of full dynamic power.
        let gpu_act = if timing.total > 0.0 {
            let resident = timing.compute.max(timing.memory);
            let stalled = resident - timing.compute;
            let act = (timing.compute + self.stall_activity * stalled) / timing.total;
            act.max(self.clock_floor)
        } else {
            self.clock_floor
        };
        let mem_act = if timing.total > 0.0 {
            (timing.memory / timing.total).min(1.0)
        } else {
            0.0
        };
        // CPU is busy during launches plus a small background load
        // (framework host code).
        let cpu_act = timing.cpu_util;
        self.idle_power(gpu_level, cpu_level)
            + self.gpu_power.c_eff
                * self.gpu.voltage(gpu_level).powi(2)
                * self.gpu.freq_hz(gpu_level)
                * gpu_act
            + self.mem_max_w * mem_act
            + self.cpu_power.c_eff
                * self.cpu.voltage(cpu_level).powi(2)
                * self.cpu.freq_hz(cpu_level)
                * cpu_act
    }

    /// Board power with all domains idle at the given operating point.
    pub fn idle_power(&self, _gpu_level: FreqLevel, _cpu_level: FreqLevel) -> f64 {
        self.board_static_w + self.gpu_power.idle_w + self.cpu_power.idle_w + self.mem_idle_w
    }

    /// Energy (joules) to execute `layer` for `batch` samples at the given
    /// operating point.
    pub fn layer_energy(
        &self,
        layer: &Layer,
        batch: usize,
        gpu_level: FreqLevel,
        cpu_level: FreqLevel,
    ) -> f64 {
        let t = self.layer_timing(layer, batch, gpu_level, cpu_level);
        self.layer_power(&t, gpu_level, cpu_level) * t.total
    }

    /// Static envelope of `layer` over *every* GPU level at a fixed CPU
    /// level: the tightest `[lo, hi]` bounds any DVFS plan on this platform
    /// can achieve for energy, runtime, and busy utilization. This is the
    /// abstract-domain seed of the lint crate's dataflow analysis — a plan
    /// claiming numbers outside these bounds is statically impossible.
    /// Returns `None` only if the envelope sweep produced nothing for the
    /// layer — impossible for well-formed layers, but imported graphs reach
    /// this through the lint dataflow pass, which must report a finding
    /// rather than abort.
    pub fn layer_envelope(
        &self,
        layer: &Layer,
        batch: usize,
        cpu_level: FreqLevel,
    ) -> Option<LayerEnvelope> {
        self.graph_envelopes(std::slice::from_ref(layer), batch, cpu_level)
            .pop()
    }

    /// [`layer_envelope`](Self::layer_envelope) for a whole layer sequence
    /// at once. The per-GPU-level coefficients (frequency reciprocal,
    /// dynamic-power coefficient) are hoisted across all layers, and the
    /// per-level energy is evaluated in an expanded division-free form, so
    /// the layers x levels sweep is a short dependency-free arithmetic
    /// kernel. Bounds are rounded *outward* by a relative [`ENVELOPE_SLOP`]
    /// so they remain a sound over-approximation of the exact
    /// [`layer_energy`](Self::layer_energy) / [`layer_timing`](Self::layer_timing)
    /// values despite the re-associated arithmetic.
    pub fn graph_envelopes(
        &self,
        layers: &[Layer],
        batch: usize,
        cpu_level: FreqLevel,
    ) -> Vec<LayerEnvelope> {
        let f_cpu = self.cpu.freq_hz(cpu_level);
        let cpu_scale = self.cpu.freq_hz(self.cpu.max_level()) / f_cpu;
        let launch = self.launch_base * (0.4 + 0.6 * cpu_scale);
        let idle = self.idle_power(0, cpu_level);
        let cpu_dyn = self.cpu_power.c_eff * self.cpu.voltage(cpu_level).powi(2) * f_cpu;
        // Per-level invariants: 1/(flops_per_cycle * f_gpu) for the compute
        // roofline, and the GPU dynamic-power coefficient c_eff * V^2 * f.
        let levels: Vec<(f64, f64)> = (0..self.gpu_levels())
            .map(|g| {
                let f = self.gpu.freq_hz(g);
                (
                    1.0 / (self.flops_per_cycle * f),
                    self.gpu_power.c_eff * self.gpu.voltage(g).powi(2) * f,
                )
            })
            .collect();

        layers
            .iter()
            .map(|layer| {
                let eff = Self::kernel_efficiency(&layer.op);
                // Same sparsity density as `layer_timing` — the envelope must
                // bound exactly the quantities the simulator produces.
                let density = (1.0 - layer.sparsity()).clamp(0.0, 1.0);
                let flops = layer.flops() * batch as f64 * density;
                let bytes = layer.activation_bytes() * batch as f64 + layer.weight_bytes();
                let memory = bytes / self.mem_bw;
                let flops_eff = flops / eff;
                let (mut e_lo, mut e_hi) = (f64::INFINITY, f64::NEG_INFINITY);
                let (mut r_lo, mut r_hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &(inv_fpc_f, gpu_dyn) in &levels {
                    let compute = if flops > 0.0 {
                        self.kernel_overhead + flops_eff * inv_fpc_f
                    } else {
                        0.0
                    };
                    // The kernel-resident span: compute or memory stalls.
                    let resident = compute.max(memory);
                    let total = resident + launch;
                    // layer_power * total with `total` distributed through:
                    // every activity-fraction division by `total` cancels,
                    // leaving the clamps as min/max against `total` itself.
                    let e = if total > 0.0 {
                        let gpu_act_t = (compute + self.stall_activity * (resident - compute))
                            .max(self.clock_floor * total);
                        let mem_act_t = memory.min(total);
                        let cpu_act_t = (launch + 0.10 * total).min(total);
                        idle * total
                            + gpu_dyn * gpu_act_t
                            + self.mem_max_w * mem_act_t
                            + cpu_dyn * cpu_act_t
                    } else {
                        0.0
                    };
                    (e_lo, e_hi) = (e_lo.min(e), e_hi.max(e));
                    (r_lo, r_hi) = (r_lo.min(resident), r_hi.max(resident));
                }
                // Runtime and busy utilization are monotone in the resident
                // span (launch is level-independent), so their extremes are
                // the extremes of `resident` pushed through the formulas.
                let busy = |r: f64| {
                    let t = r + launch;
                    if t > 0.0 {
                        r / t
                    } else {
                        0.0
                    }
                };
                let out = |lo: f64, hi: f64| {
                    (lo - lo.abs() * ENVELOPE_SLOP, hi + hi.abs() * ENVELOPE_SLOP)
                };
                LayerEnvelope {
                    energy: out(e_lo, e_hi),
                    runtime: out(r_lo + launch, r_hi + launch),
                    busy_util: {
                        let (lo, hi) = out(busy(r_lo), busy(r_hi));
                        (lo.max(0.0), hi.min(1.0))
                    },
                }
            })
            .collect()
    }
}

/// Relative outward rounding applied to [`Platform::graph_envelopes`]
/// bounds. The fast kernel re-associates the exact per-level arithmetic,
/// which drifts results by a few ULPs (~1e-15 relative); widening by 1e-9
/// keeps the envelope a strict superset of every exact per-level value
/// while staying 6+ orders of magnitude below any threshold the lint rules
/// compare against.
pub const ENVELOPE_SLOP: f64 = 1e-9;

/// `[lo, hi]` bounds of one layer's behaviour across the whole GPU
/// frequency table (see [`Platform::layer_envelope`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerEnvelope {
    /// Energy bounds in joules.
    pub energy: (f64, f64),
    /// Runtime bounds in seconds.
    pub runtime: (f64, f64),
    /// Busy-utilization bounds (fraction of the layer's span the board is
    /// doing compute or memory work, as opposed to launch overhead).
    pub busy_util: (f64, f64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlens_dnn::{zoo, ActKind, TensorShape};

    fn conv_layer() -> Layer {
        Layer::new(
            0,
            "conv",
            OpKind::Conv2d {
                in_ch: 256,
                out_ch: 256,
                kernel: 3,
                stride: 1,
                padding: 1,
                groups: 1,
            },
            TensorShape::chw(256, 28, 28),
        )
    }

    fn relu_layer() -> Layer {
        Layer::new(
            0,
            "relu",
            OpKind::Activation(ActKind::Relu),
            TensorShape::chw(256, 56, 56),
        )
    }

    #[test]
    fn compute_time_scales_inverse_with_frequency() {
        let p = Platform::agx();
        let l = conv_layer();
        // Use a large batch so the fixed per-kernel overhead is negligible
        // next to the clock-scaled portion.
        let hi = p.layer_timing(&l, 64, p.gpu_table().max_level(), p.cpu_table().max_level());
        let lo = p.layer_timing(&l, 64, 0, p.cpu_table().max_level());
        let f_ratio = p.gpu_table().freq_hz(p.gpu_table().max_level()) / p.gpu_table().freq_hz(0);
        let measured = lo.compute / hi.compute;
        assert!(
            measured > 0.95 * f_ratio && measured <= f_ratio,
            "compute ratio {measured} vs frequency ratio {f_ratio}"
        );
    }

    #[test]
    fn memory_time_independent_of_gpu_frequency() {
        let p = Platform::agx();
        let l = relu_layer();
        let hi = p.layer_timing(&l, 1, p.gpu_table().max_level(), 0);
        let lo = p.layer_timing(&l, 1, 0, 0);
        assert_eq!(hi.memory, lo.memory);
    }

    #[test]
    fn conv_is_compute_bound_relu_memory_bound_at_max() {
        let p = Platform::agx();
        let max = p.gpu_table().max_level();
        let cmax = p.cpu_table().max_level();
        let conv = p.layer_timing(&conv_layer(), 8, max, cmax);
        assert!(
            conv.compute > conv.memory,
            "3x3 conv should be compute-bound"
        );
        let relu = p.layer_timing(&relu_layer(), 8, max, cmax);
        assert!(relu.memory > relu.compute, "relu should be memory-bound");
    }

    #[test]
    fn power_increases_with_frequency() {
        let p = Platform::agx();
        let l = conv_layer();
        let cmax = p.cpu_table().max_level();
        let t_hi = p.layer_timing(&l, 1, 13, cmax);
        let t_lo = p.layer_timing(&l, 1, 0, cmax);
        let p_hi = p.layer_power(&t_hi, 13, cmax);
        let p_lo = p.layer_power(&t_lo, 0, cmax);
        assert!(p_hi > 2.0 * p_lo, "power at max should dwarf power at min");
    }

    #[test]
    fn power_within_board_envelope() {
        // Full-tilt AGX should be in the 20-40 W class, TX2 in the 7-18 W class.
        for (p, lo, hi) in [(Platform::agx(), 15.0, 40.0), (Platform::tx2(), 6.0, 18.0)] {
            let l = conv_layer();
            let g = p.gpu_table().max_level();
            let c = p.cpu_table().max_level();
            let t = p.layer_timing(&l, 32, g, c);
            let watts = p.layer_power(&t, g, c);
            assert!(
                watts > lo && watts < hi,
                "{}: {watts:.1} W outside [{lo}, {hi}]",
                p.name()
            );
        }
    }

    #[test]
    fn energy_efficiency_peaks_below_max_for_memory_bound() {
        // For a memory-bound layer, energy at max frequency must exceed
        // energy at some lower level (the headroom PowerLens exploits).
        let p = Platform::agx();
        let l = relu_layer();
        let cmax = p.cpu_table().max_level();
        let e_max = p.layer_energy(&l, 8, p.gpu_table().max_level(), cmax);
        let e_best = (0..p.gpu_levels())
            .map(|g| p.layer_energy(&l, 8, g, cmax))
            .fold(f64::INFINITY, f64::min);
        assert!(
            e_best < e_max * 0.95,
            "no downclock headroom: {e_best} vs {e_max}"
        );
    }

    #[test]
    fn compute_bound_layer_prefers_higher_frequency_than_memory_bound() {
        let p = Platform::agx();
        let cmax = p.cpu_table().max_level();
        let best = |l: &Layer| -> usize {
            (0..p.gpu_levels())
                .min_by(|&a, &b| {
                    p.layer_energy(l, 8, a, cmax)
                        .partial_cmp(&p.layer_energy(l, 8, b, cmax))
                        .unwrap()
                })
                .unwrap()
        };
        assert!(best(&conv_layer()) > best(&relu_layer()));
    }

    #[test]
    fn launch_overhead_scales_with_cpu_frequency() {
        let p = Platform::tx2();
        let l = conv_layer();
        let fast = p.layer_timing(&l, 1, 5, p.cpu_table().max_level());
        let slow = p.layer_timing(&l, 1, 5, 0);
        assert!(slow.launch > 3.0 * fast.launch);
    }

    #[test]
    fn agx_faster_than_tx2() {
        let agx = Platform::agx();
        let tx2 = Platform::tx2();
        let g = zoo::resnet34();
        let time = |p: &Platform| -> f64 {
            let gl = p.gpu_table().max_level();
            let cl = p.cpu_table().max_level();
            g.layers()
                .iter()
                .map(|l| p.layer_timing(l, 8, gl, cl).total)
                .sum()
        };
        assert!(time(&agx) < time(&tx2));
    }

    #[test]
    fn util_in_unit_range() {
        let p = Platform::agx();
        for l in zoo::alexnet().layers() {
            let t = p.layer_timing(l, 4, 7, 3);
            assert!(
                (0.0..=1.0).contains(&t.gpu_util),
                "{}: {}",
                l.name,
                t.gpu_util
            );
        }
    }

    #[test]
    fn with_transition_cost_override() {
        let p = Platform::agx().with_dvfs_transition_cost(0.01);
        assert_eq!(p.dvfs_transition_cost(), 0.01);
    }

    #[test]
    fn sparsity_shrinks_compute_time_and_energy() {
        let p = Platform::agx();
        let cmax = p.cpu_table().max_level();
        let gmax = p.gpu_table().max_level();
        let dense = conv_layer();
        let sparse = dense.clone().with_sparsity(0.9);
        let t_dense = p.layer_timing(&dense, 8, gmax, cmax);
        let t_sparse = p.layer_timing(&sparse, 8, gmax, cmax);
        assert!(t_sparse.compute < t_dense.compute * 0.2);
        assert_eq!(t_sparse.memory, t_dense.memory);
        assert!(
            p.layer_energy(&sparse, 8, gmax, cmax) < p.layer_energy(&dense, 8, gmax, cmax),
            "skipped MACs must save energy"
        );
        // The envelope applies the same density, so it still bounds the
        // exact per-level values.
        let env = p.layer_envelope(&sparse, 8, cmax).unwrap();
        for g in 0..p.gpu_levels() {
            let e = p.layer_energy(&sparse, 8, g, cmax);
            assert!(env.energy.0 <= e && e <= env.energy.1);
        }
    }

    #[test]
    fn zero_sparsity_is_bit_identical_to_dense_model() {
        let p = Platform::agx();
        let cmax = p.cpu_table().max_level();
        let dense = conv_layer();
        let annotated = dense.clone().with_sparsity(0.0);
        for g in 0..p.gpu_levels() {
            assert_eq!(
                p.layer_timing(&dense, 8, g, cmax),
                p.layer_timing(&annotated, 8, g, cmax)
            );
            assert_eq!(
                p.layer_energy(&dense, 8, g, cmax).to_bits(),
                p.layer_energy(&annotated, 8, g, cmax).to_bits()
            );
        }
        assert_eq!(
            p.layer_envelope(&dense, 8, cmax),
            p.layer_envelope(&annotated, 8, cmax)
        );
    }

    #[test]
    fn layer_envelope_bounds_every_level() {
        let p = Platform::agx();
        let cl = p.cpu_table().max_level();
        for l in zoo::alexnet().layers() {
            let env = p.layer_envelope(l, 8, cl).unwrap();
            assert!(env.energy.0 <= env.energy.1, "{}", l.name);
            assert!(env.runtime.0 <= env.runtime.1);
            assert!(env.busy_util.0 <= env.busy_util.1);
            assert!((0.0..=1.0).contains(&env.busy_util.0));
            assert!((0.0..=1.0).contains(&env.busy_util.1));
            for g in 0..p.gpu_levels() {
                let e = p.layer_energy(l, 8, g, cl);
                let t = p.layer_timing(l, 8, g, cl).total;
                assert!(env.energy.0 <= e && e <= env.energy.1);
                assert!(env.runtime.0 <= t && t <= env.runtime.1);
            }
        }
    }
}
