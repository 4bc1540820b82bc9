//! Inference execution engine for PowerLens.
//!
//! Runs a [`powerlens_dnn::Graph`] on a [`powerlens_platform::Platform`]
//! layer by layer, under the control of a [`Controller`] — either a
//! *reactive governor* (BiM / FPG, which observe trailing telemetry and
//! adjust frequencies with lag) or a *proactive*
//! [`InstrumentationPlan`](powerlens_platform::InstrumentationPlan)
//! (PowerLens, which presets a target frequency
//! before each power block). The engine charges the platform's DVFS
//! transition cost for every actual frequency change, records a
//! tegrastats-like telemetry stream, and reports latency / energy /
//! energy-efficiency ([`RunReport`]).
//!
//! # Example
//!
//! ```
//! use powerlens_sim::{Engine, StaticController};
//! use powerlens_platform::Platform;
//! use powerlens_dnn::zoo;
//!
//! let agx = Platform::agx();
//! let engine = Engine::new(&agx).with_batch(8);
//! let g = zoo::alexnet();
//! let max = agx.gpu_levels() - 1;
//! let mut ctl = StaticController::new(max, agx.cpu_levels() - 1);
//! let report = engine.run(&g, &mut ctl, 50);
//! assert!(report.energy_efficiency > 0.0);
//! ```

#![forbid(unsafe_code)]

mod controller;
mod degraded;
mod engine;
mod export;
mod taskflow;

pub use controller::{Controller, FreqRequest, PlanController, StaticController};
pub use degraded::{Degraded, DEFAULT_FAILURE_THRESHOLD, DEFAULT_STALE_WINDOW};
pub use engine::{Engine, RunReport};
pub use export::{write_summary_csv, write_trace_csv};
pub use taskflow::{run_taskflow, TaskFlowReport, TaskSpec};
