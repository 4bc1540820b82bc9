//! # PowerLens — adaptive DVFS for deep neural networks
//!
//! A reproduction of *"PowerLens: An Adaptive DVFS Framework for Optimizing
//! Energy Efficiency in Deep Neural Networks"* (Geng et al., DAC 2024), built
//! on a simulated Jetson platform (see `DESIGN.md` at the repository root for
//! the substitution rationale).
//!
//! The framework is **offline**: given a DNN it
//!
//! 1. extracts power-sensitive features
//!    ([`powerlens_features`]),
//! 2. predicts clustering hyperparameters with a learned two-stage model
//!    (Figure 3),
//! 3. clusters operators into **power blocks** by power-behaviour similarity
//!    ([`powerlens_cluster`], Algorithm 1),
//! 4. predicts each block's **target frequency** with a learned decision
//!    model (Figure 4), and
//! 5. emits an [`InstrumentationPlan`] that presets the GPU frequency before
//!    every block — proactive DVFS with no runtime lag or ping-pong.
//!
//! The [`dataset`] and [`training`] modules implement the paper's §2.2 model
//! training phase (random-network generation, exhaustive frequency
//! labelling, 80/10/10 split); [`ablation`] implements the P-R / P-N
//! variants of Table 2.
//!
//! # Example
//!
//! ```
//! use powerlens::{PowerLens, PowerLensConfig};
//! use powerlens_platform::Platform;
//! use powerlens_sim::{Engine, PlanController};
//! use powerlens_dnn::zoo;
//!
//! let agx = Platform::agx();
//! // The oracle-backed planner works without trained models.
//! let pl = PowerLens::untrained(&agx, PowerLensConfig::default());
//! let g = zoo::resnet34();
//! let outcome = pl.plan_oracle(&g).unwrap();
//! assert!(outcome.plan.num_blocks() >= 1);
//!
//! let engine = Engine::new(&agx).with_batch(8);
//! let mut ctl = PlanController::new(outcome.plan);
//! let report = engine.run(&g, &mut ctl, 16);
//! assert!(report.energy_efficiency > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod ablation;
pub mod dataset;
mod evaluate;
pub mod extensions;
mod multi_plan;
mod pipeline;
mod schemes;
pub mod training;

pub use evaluate::{evaluate_plan, PlanEval};
pub use multi_plan::MultiPlanController;
pub use pipeline::{PlanOutcome, PowerLens, PowerLensConfig, PowerLensError, WorkflowTimings};
pub use schemes::{default_schemes, SchemeSpace};
pub use training::TrainedModels;

// Re-export the pieces users compose with, so `powerlens` works as a
// one-stop dependency.
pub use powerlens_cluster::{ClusterParams, PowerBlock, PowerView};
pub use powerlens_platform::{InstrumentationPlan, InstrumentationPoint};
pub use powerlens_sim::PlanController;
