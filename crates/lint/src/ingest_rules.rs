//! Ingest pack (`PL7xx`): findings over external model manifests.
//!
//! The `powerlens-ingest` importer validates untrusted manifests and
//! describes everything it objects to as [`ImportIssue`]s — a neutral
//! vocabulary defined here so the importer does not need to know about
//! diagnostics and this crate does not need to parse manifests. The
//! [`check`] pass maps each issue onto its stable rule code; it runs on
//! every import (the CLI `import`/`--model` paths and the serve inline
//! manifest body), so a malformed manifest surfaces as a gated lint report
//! rather than a panic deep inside the planner.

use crate::diag::{LintReport, Location};
use crate::rules;

/// One objection the importer raised against a manifest. Fatal variants
/// (everything except [`ImportIssue::InertSparsity`]) correspond to
/// error-severity rules; the importer refuses to produce a graph when any
/// of them is present.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportIssue {
    /// The manifest declares a schema version this build does not read.
    UnsupportedSchemaVersion {
        /// Version the manifest declared.
        found: u64,
        /// Version this build writes and reads.
        supported: u64,
    },
    /// A node names an operator outside the cost model's vocabulary.
    UnknownOp {
        /// Node index in the manifest's node list.
        node: usize,
        /// The unrecognized operator string.
        op: String,
    },
    /// A per-layer sparsity annotation is not a finite fraction in `[0, 1]`.
    SparsityOutOfRange {
        /// Node index in the manifest's node list.
        node: usize,
        /// The offending value.
        value: f64,
    },
    /// A node cannot consume the activation shape its predecessor produces.
    ShapeInference {
        /// Node index in the manifest's node list.
        node: usize,
        /// Operator name of the failing node.
        op: String,
        /// Display form of the shape it was offered.
        input: String,
    },
    /// A skip edge is dangling (beyond the node list) or cyclic (backward
    /// or self-referential).
    SkipEdge {
        /// Source node index.
        from: usize,
        /// Target node index.
        to: usize,
        /// Why the edge is invalid.
        detail: String,
    },
    /// A sparsity annotation sits on a zero-FLOP operator, where it scales
    /// nothing (warning).
    InertSparsity {
        /// Node index in the manifest's node list.
        node: usize,
        /// Operator name of the annotated node.
        op: String,
    },
}

impl ImportIssue {
    /// `true` for issues that must abort the import (error severity).
    pub fn is_fatal(&self) -> bool {
        !matches!(self, ImportIssue::InertSparsity { .. })
    }
}

impl std::fmt::Display for ImportIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportIssue::UnsupportedSchemaVersion { found, supported } => {
                write!(
                    f,
                    "schema version {found} unsupported (this build reads {supported})"
                )
            }
            ImportIssue::UnknownOp { node, op } => {
                write!(f, "node {node}: unknown operator {op:?}")
            }
            ImportIssue::SparsityOutOfRange { node, value } => {
                write!(f, "node {node}: sparsity {value} is outside [0, 1]")
            }
            ImportIssue::ShapeInference { node, op, input } => {
                write!(f, "node {node}: operator {op} cannot consume shape {input}")
            }
            ImportIssue::SkipEdge { from, to, detail } => {
                write!(f, "skip edge {from} -> {to}: {detail}")
            }
            ImportIssue::InertSparsity { node, op } => {
                write!(
                    f,
                    "node {node}: sparsity on zero-FLOP operator {op} has no effect"
                )
            }
        }
    }
}

pub(crate) fn check(issues: &[ImportIssue], report: &mut LintReport) {
    for issue in issues {
        match issue {
            ImportIssue::UnsupportedSchemaVersion { found, supported } => report.push(
                &rules::INGEST_SCHEMA_VERSION,
                Location::Model,
                format!(
                    "manifest declares schema version {found}; this build reads \
                     version {supported}"
                ),
            ),
            ImportIssue::UnknownOp { node, op } => report.push(
                &rules::INGEST_UNKNOWN_OP,
                Location::Layer(*node),
                format!("unknown operator {op:?}"),
            ),
            ImportIssue::SparsityOutOfRange { node, value } => report.push(
                &rules::INGEST_SPARSITY_RANGE,
                Location::Layer(*node),
                format!("sparsity {value} is outside [0, 1]"),
            ),
            ImportIssue::ShapeInference { node, op, input } => report.push(
                &rules::INGEST_SHAPE_INFERENCE,
                Location::Layer(*node),
                format!("operator {op} cannot consume shape {input}"),
            ),
            ImportIssue::SkipEdge { from, to, detail } => report.push(
                &rules::INGEST_SKIP_EDGE,
                Location::Edge(*from, *to),
                format!("invalid skip edge: {detail}"),
            ),
            ImportIssue::InertSparsity { node, op } => report.push(
                &rules::INGEST_INERT_SPARSITY,
                Location::Layer(*node),
                format!("sparsity annotation on zero-FLOP operator {op} has no effect"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_import, LintConfig};

    #[test]
    fn every_issue_maps_to_its_rule() {
        let issues = vec![
            ImportIssue::UnsupportedSchemaVersion {
                found: 9,
                supported: 1,
            },
            ImportIssue::UnknownOp {
                node: 0,
                op: "softplus".into(),
            },
            ImportIssue::SparsityOutOfRange {
                node: 1,
                value: 1.5,
            },
            ImportIssue::ShapeInference {
                node: 2,
                op: "conv2d".into(),
                input: "197t x768".into(),
            },
            ImportIssue::SkipEdge {
                from: 5,
                to: 2,
                detail: "edge points backward".into(),
            },
            ImportIssue::InertSparsity {
                node: 3,
                op: "flatten".into(),
            },
        ];
        let r = lint_import("m", &issues, &LintConfig::default());
        for code in ["PL701", "PL702", "PL703", "PL704", "PL705", "PL706"] {
            assert!(r.fired(code), "{code} should fire");
        }
        assert_eq!(r.num_errors(), 5);
        assert_eq!(r.num_warnings(), 1);
    }

    #[test]
    fn fatality_matches_severity() {
        assert!(ImportIssue::UnknownOp {
            node: 0,
            op: "x".into()
        }
        .is_fatal());
        assert!(!ImportIssue::InertSparsity {
            node: 0,
            op: "flatten".into()
        }
        .is_fatal());
    }

    #[test]
    fn clean_import_lints_clean() {
        let r = lint_import("m", &[], &LintConfig::default());
        assert!(r.diagnostics.is_empty());
    }
}
