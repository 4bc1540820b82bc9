//! Simulated embedded GPU platforms (NVIDIA Jetson AGX Xavier and TX2).
//!
//! The paper evaluates PowerLens on physical Jetson boards; this crate is the
//! substitution described in `DESIGN.md`: an analytical board model exposing
//! the same decision structure —
//!
//! * a discrete **GPU frequency table** (AGX: 14 levels, 114–1377 MHz;
//!   TX2: 13 levels, 114–1300 MHz — the paper's exact ranges),
//! * a **roofline latency model** per operator (compute time scales with GPU
//!   frequency, memory time is bound by the EMC bandwidth, which on Jetson is
//!   an independent clock domain),
//! * a **CMOS power model** (`P = P_static + C·V²·f·activity`) with a
//!   voltage/frequency curve, plus CPU and memory power domains,
//! * a **DVFS actuator** with the 50 ms transition cost the paper measures
//!   (§3.3), and
//! * a **tegrastats-like telemetry stream** for reactive governors.
//!
//! # Example
//!
//! ```
//! use powerlens_platform::Platform;
//! use powerlens_dnn::zoo;
//!
//! let agx = Platform::agx();
//! let g = zoo::alexnet();
//! let max = agx.gpu_levels() - 1;
//! let t_fast: f64 = g.layers().iter()
//!     .map(|l| agx.layer_timing(l, 1, max, agx.cpu_levels() - 1).total)
//!     .sum();
//! let t_slow: f64 = g.layers().iter()
//!     .map(|l| agx.layer_timing(l, 1, 0, agx.cpu_levels() - 1).total)
//!     .sum();
//! assert!(t_slow > t_fast);
//! ```

#![forbid(unsafe_code)]

mod board;
mod dvfs;
mod freq;
mod plan;
mod power;
mod sensor;

pub use board::{LayerEnvelope, LayerTiming, Platform, ENVELOPE_SLOP};
pub use dvfs::{Domain, DvfsActuator, SwitchOutcome};
pub use freq::{FreqLevel, FrequencyTable};
pub use plan::{InstrumentationPlan, InstrumentationPoint};
pub use power::PowerDomainModel;
pub use sensor::{PowerSample, Telemetry, WindowStats};
