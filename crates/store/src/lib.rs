//! Content-addressed plan cache and concurrent batch-planning front end.
//!
//! Planning a network is the expensive half of PowerLens: the oracle
//! planner clusters and scores every hyperparameter scheme, and even the
//! model-driven planner re-extracts features and re-clusters on every call.
//! Yet the outcome is a pure function of four inputs — the graph structure,
//! the framework configuration, the trained model version, and the target
//! platform. This crate memoizes that function:
//!
//! * **[`cache_key`]** combines [`Graph::fingerprint`] (a stable structural
//!   64-bit hash) with hashes of the [`PowerLensConfig`], the loaded
//!   [`TrainedModels`] (or an `oracle` tag), and the platform signature into
//!   one content-addressed [`CacheKey`]. Any structural edit to any input
//!   produces a new key — invalidation is automatic, never manual.
//! * **[`MemTier`]** is an in-memory LRU over [`powerlens_par::Sharded`]
//!   locks, sized by a configurable capacity, so concurrent `plan-batch`
//!   workers hit it without serializing on one mutex.
//! * **[`DiskTier`]** persists one JSON file per key (atomic tmp+rename
//!   writes). Corrupt or stale files are *quarantined* — renamed aside and
//!   treated as misses — never trusted and never a panic.
//! * **[`PlanStore::get_or_plan`]** is the front end: memory, then disk
//!   (gated by `powerlens_lint::lint_cached_plan` — rules `PL301`/`PL302`
//!   plus the plan pack against the *current* platform), then a real
//!   planning run whose result back-fills both tiers. [`plan_batch`] maps
//!   it over a whole model list with `powerlens_par` workers.
//! * **[`LintCache`]** memoizes whole lint runs on the same two tiers:
//!   keyed by graph fingerprint × rule-catalog version × platform
//!   signature × batch ([`lint_cache_key`]), a [`MemTier`] of reports over
//!   an optional [`DiskTier`], so `powerlens lint`, `check.sh`, and the
//!   serve daemon's `/lint` endpoint skip re-analysis of unchanged graphs.
//!
//! Cache activity is observable: the `store.hits` / `store.misses` /
//! `store.evictions` counters and the `store.load_ms` histogram feed the
//! standard stats table (see `docs/CACHING.md`).
//!
//! [`Graph::fingerprint`]: powerlens_dnn::Graph::fingerprint
//! [`PowerLensConfig`]: powerlens::PowerLensConfig
//! [`TrainedModels`]: powerlens::TrainedModels
//!
//! # Example
//!
//! ```
//! use powerlens::{PowerLens, PowerLensConfig};
//! use powerlens_dnn::zoo;
//! use powerlens_platform::Platform;
//! use powerlens_store::{CacheMode, PlanStore};
//!
//! let platform = Platform::agx();
//! let pl = PowerLens::untrained(&platform, PowerLensConfig::default());
//! let store = PlanStore::new(CacheMode::Mem, 64, None).unwrap();
//!
//! let graph = zoo::alexnet();
//! let cold = store.get_or_plan(&pl, &graph).unwrap();
//! let warm = store.get_or_plan(&pl, &graph).unwrap();
//! assert_eq!(cold.plan, warm.plan); // second call served from memory
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod disk;
mod entry;
mod key;
mod lintcache;
mod mem;
mod service;

pub use disk::DiskTier;
pub use entry::{StoredEntry, SCHEMA_VERSION};
pub use key::{
    cache_key, cache_key_epoch, cache_key_for, config_hash, context_hash, models_hash, tenant_hash,
    CacheKey,
};
pub use lintcache::{lint_cache_key, LintCache, LINT_SCHEMA_VERSION};
pub use mem::MemTier;
pub use service::{plan_batch, CacheMode, PlanStore, TenantStats, MAX_TENANT_ROWS};
