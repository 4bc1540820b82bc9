//! Baseline DVFS governors for the PowerLens evaluation (§3.1):
//!
//! * [`Bim`] — the **built-in method**: the `ondemand`-style reactive
//!   governor shipped with the Jetson boards. Jumps to the maximum frequency
//!   when the observed GPU load exceeds a threshold and scales down
//!   proportionally otherwise, once per sampling window. Exhibits exactly
//!   the lag and frequency ping-pong of Figure 1(A).
//! * [`FpgG`] — the **FPG** heuristic (Karzhaubayeva et al. \[5\]) restricted
//!   to the GPU: stepwise frequency adaptation driven by utilization, power
//!   and an energy-delay-product signal, with hysteresis.
//! * [`FpgCg`] — the full **FPG-C+G** variant that additionally scales the
//!   CPU cluster based on CPU utilization.
//! * [`oracle`] — exhaustive-search helpers: the best static frequency for a
//!   graph or layer range. This is the labelling oracle of the paper's
//!   dataset generator ("each block ... is deployed at all frequencies to
//!   select ... the optimal energy efficiency").
//! * [`HybridGovernor`] — the online adaptive hybrid: replays the cached
//!   PowerLens plan while a windowed drift detector (EWMA of observed vs
//!   predicted power, platform busy-utilization envelopes) watches the
//!   telemetry stream, escalating plan → nudge → bounded-rate re-plan (the
//!   `sim::Degraded` wrapper supplies the final BiM rung). The ladder's
//!   thresholds and budgets are constants in [`hybrid`].
//!
//! # Example
//!
//! ```
//! use powerlens_governors::Bim;
//! use powerlens_sim::Engine;
//! use powerlens_platform::Platform;
//! use powerlens_dnn::zoo;
//!
//! let tx2 = Platform::tx2();
//! let engine = Engine::new(&tx2).with_batch(8);
//! let mut bim = Bim::new(&tx2);
//! let report = engine.run(&zoo::resnet34(), &mut bim, 16);
//! assert!(report.energy_efficiency > 0.0);
//! ```

#![forbid(unsafe_code)]

mod bim;
mod fpg;
pub mod hybrid;
pub mod oracle;

pub use bim::Bim;
pub use fpg::{FpgCg, FpgG};
pub use hybrid::{HybridGovernor, HybridStats, ReplanHook};
