//! Structured diagnostics: severities, locations, findings, and reports.

use std::fmt;

use crate::rules::RuleInfo;

/// How serious a finding is. Error-severity findings indicate artifacts the
/// pipeline must not consume; warnings are suspicious but executable; info
/// findings are observations (e.g. zero-FLOP layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Observation, never fails a gate.
    Info,
    /// Suspicious but executable.
    Warning,
    /// Invariant violation; gates fail.
    Error,
}

impl Severity {
    /// Lower-case label used in human and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }

    /// SARIF 2.1.0 `level` value for this severity.
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where in the analyzed artifact a finding is anchored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// The artifact as a whole (e.g. an empty graph).
    Model,
    /// A graph layer, by execution-order index.
    Layer(usize),
    /// A power-view block, by block index.
    Block(usize),
    /// A plan instrumentation point, by step index.
    PlanStep(usize),
    /// A skip edge, by `(from, to)` layer ids.
    Edge(usize, usize),
}

impl Location {
    /// Parses the `Display` form back into a location (`"model"`,
    /// `"layer 3"`, `"block 2"`, `"plan step 1"`, `"edge 4->9"`). This is
    /// the inverse used when rehydrating cached reports and SARIF baselines.
    pub fn parse(s: &str) -> Option<Location> {
        if s == "model" {
            return Some(Location::Model);
        }
        if let Some(i) = s.strip_prefix("layer ") {
            return i.parse().ok().map(Location::Layer);
        }
        if let Some(i) = s.strip_prefix("block ") {
            return i.parse().ok().map(Location::Block);
        }
        if let Some(i) = s.strip_prefix("plan step ") {
            return i.parse().ok().map(Location::PlanStep);
        }
        if let Some(rest) = s.strip_prefix("edge ") {
            let (a, b) = rest.split_once("->")?;
            return Some(Location::Edge(a.parse().ok()?, b.parse().ok()?));
        }
        None
    }

    /// SARIF `logicalLocation.kind` for this location.
    pub fn kind(&self) -> &'static str {
        match self {
            Location::Model => "module",
            Location::Layer(_) => "function",
            Location::Block(_) => "namespace",
            Location::PlanStep(_) => "resource",
            Location::Edge(_, _) => "resource",
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Location::Model => write!(f, "model"),
            Location::Layer(i) => write!(f, "layer {i}"),
            Location::Block(i) => write!(f, "block {i}"),
            Location::PlanStep(i) => write!(f, "plan step {i}"),
            Location::Edge(a, b) => write!(f, "edge {a}->{b}"),
        }
    }
}

/// One finding: a rule, a location, and a message describing the violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: &'static RuleInfo,
    /// Where it fired.
    pub location: Location,
    /// Human-readable description with concrete values.
    pub message: String,
}

/// Stable fingerprint of a finding: FNV-1a over the rule code and the
/// fully-qualified logical location (`"{subject}/{location}"`). The same
/// finding on the same subject always hashes identically across runs and
/// builds, which is what SARIF baseline ratcheting diffs on. Messages are
/// deliberately excluded — rewording a message must not un-baseline a
/// finding.
pub fn fingerprint(code: &str, subject: &str, location: &Location) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in code.bytes().chain(format!("{subject}/{location}").bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

impl Diagnostic {
    /// This finding's stable [`fingerprint`] under the given subject.
    pub fn fingerprint(&self, subject: &str) -> u64 {
        fingerprint(self.rule.code, subject, &self.location)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.rule.severity, self.rule.code, self.location, self.message
        )
    }
}

/// All findings for one analyzed subject (a graph, a view, a plan, or a
/// model's full pipeline output).
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Name of the analyzed subject (e.g. the model name).
    pub subject: String,
    /// Findings in rule-evaluation order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report for `subject`.
    pub fn new(subject: impl Into<String>) -> Self {
        LintReport {
            subject: subject.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Appends a finding.
    pub fn push(&mut self, rule: &'static RuleInfo, location: Location, message: String) {
        self.diagnostics.push(Diagnostic {
            rule,
            location,
            message,
        });
    }

    /// Absorbs another report's findings (subject is kept).
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of findings with the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.rule.severity == severity)
            .count()
    }

    /// Number of error-severity findings.
    pub fn num_errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn num_warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// `true` if any error-severity finding is present (gates fail).
    pub fn has_errors(&self) -> bool {
        self.num_errors() > 0
    }

    /// `true` if the rule with `code` fired at least once.
    pub fn fired(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.rule.code == code)
    }

    /// Distinct rule codes that fired, in first-seen order.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for d in &self.diagnostics {
            if !out.contains(&d.rule.code) {
                out.push(d.rule.code);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules;

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn report_counts_by_severity() {
        let mut r = LintReport::new("t");
        r.push(&rules::GRAPH_EMPTY, Location::Model, "m".into());
        r.push(&rules::ZERO_FLOP_LAYER, Location::Layer(1), "m".into());
        assert_eq!(r.num_errors(), 1);
        assert_eq!(r.count(Severity::Info), 1);
        assert!(r.has_errors());
        assert!(r.fired("PL001"));
        assert!(!r.fired("PL104"));
        assert_eq!(r.codes().len(), 2);
    }

    #[test]
    fn location_parse_roundtrips_every_variant() {
        for loc in [
            Location::Model,
            Location::Layer(7),
            Location::Block(0),
            Location::PlanStep(12),
            Location::Edge(4, 9),
        ] {
            assert_eq!(Location::parse(&loc.to_string()), Some(loc));
        }
        assert_eq!(Location::parse("nonsense"), None);
        assert_eq!(Location::parse("layer x"), None);
    }

    #[test]
    fn fingerprints_are_stable_and_ignore_messages() {
        let a = Diagnostic {
            rule: &rules::GRAPH_EMPTY,
            location: Location::Layer(3),
            message: "one wording".into(),
        };
        let b = Diagnostic {
            rule: &rules::GRAPH_EMPTY,
            location: Location::Layer(3),
            message: "another wording".into(),
        };
        assert_eq!(a.fingerprint("m"), b.fingerprint("m"));
        assert_ne!(a.fingerprint("m"), a.fingerprint("other-model"));
        let c = Diagnostic {
            rule: &rules::GRAPH_EMPTY,
            location: Location::Layer(4),
            message: "one wording".into(),
        };
        assert_ne!(a.fingerprint("m"), c.fingerprint("m"));
        // Reconstructible from SARIF fields alone (ruleId + fqn).
        assert_eq!(
            a.fingerprint("m"),
            fingerprint("PL001", "m", &Location::Layer(3))
        );
    }

    #[test]
    fn display_includes_code_and_location() {
        let d = Diagnostic {
            rule: &rules::GRAPH_EMPTY,
            location: Location::Layer(3),
            message: "boom".into(),
        };
        let s = d.to_string();
        assert!(s.contains("PL001") && s.contains("layer 3") && s.contains("boom"));
    }
}
