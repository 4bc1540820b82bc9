//! Store pack: rules over cached plan-store entries.
//!
//! The plan store (`powerlens-store`) content-addresses `PlanOutcome`s by
//! graph fingerprint + configuration + model version, but an on-disk entry
//! outlives the process that wrote it: the platform tables, the entry
//! schema, or the file bytes themselves may have drifted by the time it is
//! read back. These rules are the load-time gate — a cached plan that fails
//! them must be re-planned, never deployed.

use powerlens_platform::{InstrumentationPlan, Platform};

use crate::diag::{LintReport, Location};
use crate::rules;

/// Compact identity of a platform's frequency contract: the board name plus
/// both table sizes. Two platforms with equal signatures interpret every
/// frequency level in a plan identically, which is exactly what a cached
/// plan needs to stay valid (`PL301`).
pub fn platform_signature(platform: &Platform) -> String {
    format!(
        "{}:g{}:c{}",
        platform.name(),
        platform.gpu_levels(),
        platform.cpu_levels()
    )
}

/// A cached plan in its load context: the deserialized plan, the platform it
/// is about to be deployed on, and the provenance recorded in the entry.
pub struct CachedPlanContext<'a> {
    /// The deserialized plan.
    pub plan: &'a InstrumentationPlan,
    /// The platform the plan is about to run on.
    pub platform: &'a Platform,
    /// Platform signature recorded in the cache entry at write time.
    pub entry_platform: &'a str,
    /// Schema version recorded in the cache entry.
    pub entry_schema: u32,
    /// Schema version this build writes.
    pub expected_schema: u32,
}

/// Runs every store rule, appending findings to `report`.
pub fn check(ctx: &CachedPlanContext<'_>, report: &mut LintReport) {
    let current = platform_signature(ctx.platform);
    if ctx.entry_platform != current {
        report.push(
            &rules::STORE_PLATFORM_DRIFT,
            Location::Model,
            format!(
                "entry was planned for platform {:?} but is being loaded on {current:?}",
                ctx.entry_platform
            ),
        );
    }
    if ctx.entry_schema != ctx.expected_schema {
        report.push(
            &rules::STORE_SCHEMA_OUTDATED,
            Location::Model,
            format!(
                "entry has schema version {}, this build writes version {}",
                ctx.entry_schema, ctx.expected_schema
            ),
        );
    }
}
