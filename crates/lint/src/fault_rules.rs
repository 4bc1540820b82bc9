//! Faults pack: sanity rules over fault-injection plans.
//!
//! A `FaultPlan` is configuration, usually typed on a CLI — exactly the kind
//! of input that silently does the wrong thing: a probability of `1.5`, a
//! negative jitter, a retry budget that turns one flaky switch into an
//! unbounded stall, a "cap" that caps nothing because it sits above the
//! frequency table. The `faultsim` / `--faults` entry points gate on these
//! rules before a single fault is injected.

use powerlens_faults::{FaultPlan, MAX_RETRY_BUDGET};
use powerlens_platform::Platform;

use crate::diag::{LintReport, Location};
use crate::rules;

/// Sigma above which the multiplicative-noise clamp (`[0.5, 1.5]`)
/// saturates often enough to distort the configured distribution (`PL404`).
pub const MAX_REASONABLE_SIGMA: f64 = 0.5;

/// Runs every fault rule over `plan`, appending findings to `report`. Pass
/// the target platform to also check the level cap against its frequency
/// table (`PL405`); without one, the cap check is skipped.
pub fn check(plan: &FaultPlan, platform: Option<&Platform>, report: &mut LintReport) {
    let probabilities = [
        ("gpu switch-failure", plan.gpu_switch_fail_p),
        ("cpu switch-failure", plan.cpu_switch_fail_p),
        ("sensor dropout", plan.sensor_drop_p),
        ("power perturbation", plan.power_perturb_p),
    ];
    for (what, p) in probabilities {
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            report.push(
                &rules::FAULT_PROBABILITY_RANGE,
                Location::Model,
                format!("{what} probability {p} is outside [0, 1]"),
            );
        }
    }

    let magnitudes = [
        ("switch jitter", plan.switch_jitter_s),
        ("retry backoff", plan.retry_backoff_s),
        ("sensor noise sigma", plan.sensor_noise_sigma),
        ("power perturbation sigma", plan.power_perturb_sigma),
    ];
    for (what, m) in magnitudes {
        if !m.is_finite() || m < 0.0 {
            report.push(
                &rules::FAULT_MAGNITUDE_INVALID,
                Location::Model,
                format!("{what} {m} must be finite and non-negative"),
            );
        }
    }

    if plan.max_retries > MAX_RETRY_BUDGET {
        report.push(
            &rules::FAULT_RETRY_UNBOUNDED,
            Location::Model,
            format!(
                "retry budget {} exceeds the ceiling of {MAX_RETRY_BUDGET}",
                plan.max_retries
            ),
        );
    }

    for (what, sigma) in [
        ("sensor noise sigma", plan.sensor_noise_sigma),
        ("power perturbation sigma", plan.power_perturb_sigma),
    ] {
        if sigma.is_finite() && sigma > MAX_REASONABLE_SIGMA {
            report.push(
                &rules::FAULT_SIGMA_EXCESSIVE,
                Location::Model,
                format!(
                    "{what} {sigma} saturates the [0.5, 1.5] clamp \
                     (keep it at or below {MAX_REASONABLE_SIGMA})"
                ),
            );
        }
    }

    // drift == -1 zeroes power for the rest of the run and anything below
    // it makes energy negative; both break every EE metric downstream.
    if !plan.phase_power_drift.is_finite() || plan.phase_power_drift <= -1.0 {
        report.push(
            &rules::FAULT_PHASE_INVALID,
            Location::Model,
            format!(
                "phase power drift {} must be finite and above -1 \
                 (power stays positive)",
                plan.phase_power_drift
            ),
        );
    }
    if !plan.phase_at_s.is_finite() || plan.phase_at_s < 0.0 {
        report.push(
            &rules::FAULT_PHASE_INVALID,
            Location::Model,
            format!(
                "phase start time {} s must be finite and non-negative",
                plan.phase_at_s
            ),
        );
    }

    if let (Some(cap), Some(p)) = (plan.gpu_level_cap, platform) {
        if cap >= p.gpu_levels() - 1 {
            report.push(
                &rules::FAULT_CAP_ABOVE_TABLE,
                Location::Model,
                format!(
                    "GPU level cap {cap} is at or above {}'s top level {}; it clamps nothing",
                    p.name(),
                    p.gpu_levels() - 1
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_fault_plan;

    fn lint(plan: &FaultPlan, platform: Option<&Platform>) -> LintReport {
        lint_fault_plan(plan, platform, &crate::LintConfig::default())
    }

    #[test]
    fn inert_and_sensible_plans_are_clean() {
        assert!(lint(&FaultPlan::default(), None).diagnostics.is_empty());
        let plan = FaultPlan::parse("switch_fail=0.2,jitter=0.01,drop=0.1,noise=0.05").unwrap();
        let agx = Platform::agx();
        let r = lint(&plan, Some(&agx));
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn out_of_range_probability_is_an_error() {
        let plan = FaultPlan {
            gpu_switch_fail_p: 1.5,
            sensor_drop_p: -0.1,
            ..FaultPlan::default()
        };
        let r = lint(&plan, None);
        assert!(r.fired("PL401") && r.has_errors());
        assert_eq!(r.num_errors(), 2, "one finding per bad probability");
    }

    #[test]
    fn negative_or_nan_magnitudes_are_errors() {
        let plan = FaultPlan {
            switch_jitter_s: -0.01,
            power_perturb_sigma: f64::NAN,
            ..FaultPlan::default()
        };
        let r = lint(&plan, None);
        assert!(r.fired("PL402") && r.has_errors());
    }

    #[test]
    fn unbounded_retry_budget_is_an_error() {
        let mut plan = FaultPlan {
            max_retries: MAX_RETRY_BUDGET + 1,
            ..FaultPlan::default()
        };
        let r = lint(&plan, None);
        assert!(r.fired("PL403") && r.has_errors());
        plan.max_retries = MAX_RETRY_BUDGET;
        assert!(!lint(&plan, None).fired("PL403"), "ceiling itself is fine");
    }

    #[test]
    fn excessive_sigma_is_a_warning_not_an_error() {
        let plan = FaultPlan::parse("noise=0.8").unwrap();
        let r = lint(&plan, None);
        assert!(r.fired("PL404") && !r.has_errors());
    }

    #[test]
    fn degenerate_phase_changes_are_errors() {
        let sensible = FaultPlan::parse("phase=0.3,phase_at=1.5").unwrap();
        assert!(!lint(&sensible, None).fired("PL406"));
        // Power-killing drift and a negative start are two findings.
        let plan = FaultPlan {
            phase_power_drift: -1.0,
            phase_at_s: -0.5,
            ..FaultPlan::default()
        };
        let r = lint(&plan, None);
        assert!(r.fired("PL406") && r.has_errors());
        assert_eq!(r.num_errors(), 2);
        let nan = FaultPlan {
            phase_power_drift: f64::NAN,
            ..FaultPlan::default()
        };
        assert!(lint(&nan, None).fired("PL406"));
    }

    #[test]
    fn cap_above_table_warns_only_with_a_platform() {
        let plan = FaultPlan::parse("cap=13").unwrap();
        let agx = Platform::agx(); // 14 levels: top is 13.
        assert!(lint(&plan, Some(&agx)).fired("PL405"));
        assert!(!lint(&plan, None).fired("PL405"), "no platform, no check");
        let biting = FaultPlan::parse("cap=6").unwrap();
        assert!(!lint(&biting, Some(&agx)).fired("PL405"));
    }
}
