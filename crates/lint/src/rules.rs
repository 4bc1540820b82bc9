//! The rule registry: stable codes, severities, categories, invariants,
//! paper references.
//!
//! Codes are permanent once shipped: `PL0xx` graph rules, `PL1xx` view rules,
//! `PL2xx` plan rules, `PL3xx` store rules, `PL4xx` fault-plan rules, `PL5xx`
//! dataflow rules, `PL7xx` ingest rules. New rules append; retired rules
//! leave a hole: the hybrid-governor pack was retired in version 5, and
//! its codes `PL601`–`PL603` stay unused.

use crate::diag::Severity;

/// Version of the rule registry. Bumped whenever a rule is added, removed,
/// or its logic changes in a way that can alter findings — cached lint
/// reports are keyed by this, so a bump invalidates every warm report.
pub const RULES_VERSION: u32 = 5;

/// Which artifact a rule inspects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pack {
    /// Operator graphs (`powerlens_dnn::Graph`).
    Graph,
    /// Power views (`powerlens_cluster::PowerView`).
    View,
    /// DVFS plans (`powerlens_platform::InstrumentationPlan`).
    Plan,
    /// Cached plan-store entries (deserialized `PlanOutcome`s).
    Store,
    /// Fault-injection plans (`powerlens_faults::FaultPlan`).
    Faults,
    /// Cross-artifact dataflow facts (`lint::dataflow`).
    Dataflow,
    /// External model manifests flowing through the `powerlens-ingest`
    /// importer (issues surfaced as [`crate::ImportIssue`]s).
    Ingest,
}

impl Pack {
    /// Lower-case pack name for output.
    pub fn label(self) -> &'static str {
        match self {
            Pack::Graph => "graph",
            Pack::View => "view",
            Pack::Plan => "plan",
            Pack::Store => "store",
            Pack::Faults => "faults",
            Pack::Dataflow => "dataflow",
            Pack::Ingest => "ingest",
        }
    }
}

/// Static metadata of one lint rule.
#[derive(Debug)]
pub struct RuleInfo {
    /// Stable code, e.g. `"PL103"`.
    pub code: &'static str,
    /// Short kebab-case rule name, e.g. `"view-not-contiguous"`.
    pub name: &'static str,
    /// Severity of every finding this rule emits.
    pub severity: Severity,
    /// The pack the rule belongs to.
    pub pack: Pack,
    /// Semantic category (e.g. `"shapes"`, `"partition"`, `"energy"`),
    /// orthogonal to the pack — SARIF consumers group and filter on it.
    pub category: &'static str,
    /// Registry version ([`RULES_VERSION`]) the rule first shipped in.
    pub since: u32,
    /// The invariant the rule enforces, in one sentence.
    pub invariant: &'static str,
    /// Where the paper states or implies the invariant.
    pub paper_ref: &'static str,
}

impl RuleInfo {
    /// Stable documentation URI for this rule (the SARIF `helpUri`).
    pub fn help_uri(&self) -> String {
        format!(
            "https://example.com/powerlens/docs/LINTS.md#{}",
            self.code.to_ascii_lowercase()
        )
    }
}

macro_rules! rules {
    ($($ident:ident = $code:literal, $name:literal, $sev:ident, $pack:ident,
        $category:literal, $since:literal,
        $invariant:literal, $paper:literal;)*) => {
        $(
            #[doc = concat!("`", $code, "` (", $name, ")")]
            pub static $ident: RuleInfo = RuleInfo {
                code: $code,
                name: $name,
                severity: Severity::$sev,
                pack: Pack::$pack,
                category: $category,
                since: $since,
                invariant: $invariant,
                paper_ref: $paper,
            };
        )*

        /// Every registered rule, ordered by code.
        pub fn all_rules() -> &'static [&'static RuleInfo] {
            static ALL: &[&RuleInfo] = &[$(&$ident,)*];
            ALL
        }
    };
}

rules! {
    // ---- graph pack -----------------------------------------------------
    GRAPH_EMPTY = "PL001", "graph-empty", Error, Graph, "structure", 1,
        "a graph must contain at least one layer",
        "§2.1.1 (models are non-empty operator sequences)";
    LAYER_ID_ORDER = "PL002", "layer-id-order", Error, Graph, "structure", 1,
        "layer ids must equal their execution-order index",
        "§2.1.3 (spacing term |i-j| assumes positional ids)";
    OP_SHAPE_INCOMPATIBLE = "PL003", "op-shape-incompatible", Error, Graph, "shapes", 1,
        "every operator must be able to consume its input shape \
         (category and channel/feature arity)",
        "§2.1.2 (depthwise features require resolvable shapes)";
    SHAPE_CACHE_MISMATCH = "PL004", "shape-cache-mismatch", Error, Graph, "shapes", 1,
        "a layer's stored output shape must equal the shape its operator \
         infers from the input shape",
        "§2.1.2 (shape-derived features feed the predictors)";
    SHAPE_CHAIN_BROKEN = "PL005", "shape-chain-broken", Error, Graph, "shapes", 1,
        "each layer's input shape must be the graph input or an earlier \
         layer's output (flattened token embeddings allowed)",
        "§2.1.1 (execution order is the layer order)";
    SKIP_EDGE_INVALID = "PL006", "skip-edge-invalid", Error, Graph, "structure", 1,
        "skip edges must point forward to an existing layer (no dangling \
         or cyclic edges)",
        "§2.1.2 (residual counts come from well-formed edges)";
    OP_DEGENERATE_PARAMS = "PL007", "op-degenerate-params", Error, Graph, "params", 1,
        "operator hyperparameters must be non-degenerate (no zero strides, \
         kernels, channels, heads, or indivisible groupings)",
        "§2.1.2 (analytical cost model divides by these)";
    ZERO_ELEMENT_ACTIVATION = "PL008", "zero-element-activation", Warning, Graph, "shapes", 1,
        "no activation tensor should have zero elements",
        "§2.1.2 (zero-size tensors break per-layer cost accounting)";
    COST_CACHE_STALE = "PL009", "cost-cache-stale", Warning, Graph, "cache", 1,
        "cached layer costs (FLOPs, params, memory) must match a recompute \
         from the operator and input shape, and be finite",
        "§2.1.2 (depthwise features are read from these caches)";
    SKIP_TARGET_NOT_MERGE = "PL010", "skip-target-not-merge", Warning, Graph, "structure", 1,
        "skip edges should terminate at a merge operator (add or concat)",
        "§2.1.2 (macro features count residual/branch constructs)";
    ZERO_FLOP_LAYER = "PL011", "zero-flop-layer", Info, Graph, "signal", 1,
        "layers with zero FLOPs (reshapes, concats) contribute no compute \
         signal to clustering",
        "§2.1.3 (power behaviour is compute/memory driven)";

    // ---- view pack ------------------------------------------------------
    VIEW_EMPTY = "PL101", "view-empty", Error, View, "partition", 1,
        "a power view must contain at least one block",
        "Algorithm 1 (processClusters returns a partition)";
    BLOCK_EMPTY = "PL102", "block-empty", Error, View, "partition", 1,
        "every power block must span at least one layer",
        "Algorithm 1 (blocks are non-empty layer ranges)";
    VIEW_NOT_CONTIGUOUS = "PL103", "view-not-contiguous", Error, View, "partition", 1,
        "blocks must tile the layer range contiguously, starting at layer 0, \
         without gaps or overlaps",
        "§2.1.3 (blocks are contiguous and non-overlapping)";
    VIEW_COVERAGE = "PL104", "view-coverage", Error, View, "partition", 1,
        "the view must cover exactly the source graph's layers",
        "§2.1.3 (the power view spans the whole network)";
    VIEW_COUNT_MISMATCH = "PL105", "view-count-mismatch", Error, View, "partition", 1,
        "the view's recorded layer count must equal the sum of its block \
         lengths",
        "§2.1.3 (internal consistency of the intermediate representation)";
    BLOCK_TOO_SHORT = "PL106", "block-too-short", Warning, View, "efficiency", 1,
        "blocks shorter than the configured minimum amortize DVFS switching \
         poorly",
        "§3.3 (50 ms transition cost motivates long blocks)";
    VIEW_MANY_BLOCKS = "PL107", "view-many-blocks", Info, View, "efficiency", 1,
        "views with more blocks than the configured maximum incur frequent \
         transitions",
        "Table 1 (real models cluster into a handful of blocks)";
    DISTANCE_CACHE_SHAPE = "PL108", "distance-cache-shape", Error, View, "cache", 1,
        "a distance cache's matrix must be square over its recorded layer \
         count, its feature dimension must match the depthwise extractor, \
         and (when the source graph is known) its layer count must match \
         the graph",
        "§2.1.2-2.1.3 (the distance matrix is pairwise over per-layer \
         depthwise feature rows)";

    // ---- plan pack ------------------------------------------------------
    PLAN_EMPTY = "PL201", "plan-empty", Error, Plan, "deployment", 1,
        "a plan must contain at least one instrumentation point",
        "§2.1.4 (every block gets a preset point)";
    PLAN_NOT_ASCENDING = "PL202", "plan-not-ascending", Error, Plan, "deployment", 1,
        "instrumentation points must be strictly ascending by layer id",
        "§2.1.4 (points are preset before each block, in block order)";
    PLAN_GPU_LEVEL_INVALID = "PL203", "plan-gpu-level-invalid", Error, Plan, "frequency", 1,
        "every requested GPU level must exist in the target platform's \
         frequency table",
        "§3.1 (AGX exposes 14 GPU levels, TX2 exposes 13)";
    PLAN_CPU_LEVEL_INVALID = "PL204", "plan-cpu-level-invalid", Error, Plan, "frequency", 1,
        "the fixed CPU level must exist in the target platform's frequency \
         table",
        "§3.2.1 (the CPU stays on a valid default level)";
    PLAN_POINT_BEYOND_GRAPH = "PL205", "plan-point-beyond-graph", Error, Plan, "deployment", 1,
        "instrumentation points must reference layers inside the graph",
        "§2.1.4 (points are preset before existing layers)";
    PLAN_VIEW_MISALIGNED = "PL206", "plan-view-misaligned", Error, Plan, "deployment", 1,
        "each instrumentation point must precede its power block: one point \
         per block, at the block's first layer",
        "§2.1.4 (points are preset *before* each power block)";
    PLAN_NOOP_TRANSITION = "PL207", "plan-noop-transition", Warning, Plan, "efficiency", 1,
        "consecutive points with identical GPU levels schedule a transition \
         that changes nothing yet still costs the DVFS latency check",
        "§3.3 (transitions cost 50 ms; avoid gratuitous ones)";
    PLAN_UNCONTROLLED_PREFIX = "PL208", "plan-uncontrolled-prefix", Warning, Plan, "deployment", 1,
        "the first instrumentation point should be at layer 0, otherwise the \
         leading layers run at an inherited, unplanned frequency",
        "§2.1.4 (the plan governs the whole inference pass)";
    PLAN_ORACLE_DIVERGENCE = "PL209", "plan-oracle-divergence", Info, Plan, "oracle", 1,
        "per-block levels should stay close to the exhaustive-search oracle's \
         choice for the same block",
        "§3.2.2 (PowerLens tracks the oracle within a few levels)";

    // ---- store pack -----------------------------------------------------
    STORE_PLATFORM_DRIFT = "PL301", "store-platform-drift", Error, Store, "provenance", 1,
        "a cached plan may only be deployed on a platform whose signature \
         (name and frequency-table sizes) matches the one it was planned for",
        "§3.1 (frequency levels are only meaningful per platform table)";
    STORE_SCHEMA_OUTDATED = "PL302", "store-schema-outdated", Error, Store, "schema", 1,
        "a cached entry's schema version must match the version this build \
         writes; older or newer entries must be re-planned, not trusted",
        "§2.1.4 (plans are an interface contract, not an opaque blob)";

    // ---- faults pack ----------------------------------------------------
    FAULT_PROBABILITY_RANGE = "PL401", "fault-probability-out-of-range", Error, Faults,
        "robustness", 1,
        "every fault probability (switch failure, sensor dropout, power \
         perturbation) must be a finite value in [0, 1]",
        "§3.3 (fault rates parameterize the robustness sweep)";
    FAULT_MAGNITUDE_INVALID = "PL402", "fault-magnitude-invalid", Error, Faults,
        "robustness", 1,
        "fault magnitudes (switch jitter, retry backoff, noise and \
         perturbation sigmas) must be finite and non-negative",
        "§3.3 (transition overheads are measured, non-negative durations)";
    FAULT_RETRY_UNBOUNDED = "PL403", "fault-retry-unbounded", Error, Faults,
        "robustness", 1,
        "the per-switch retry budget must not exceed the hard ceiling; an \
         unbounded retry loop turns one flaky switch into an unbounded stall",
        "§3.3 (the 50 ms switch cost bounds tolerable retry stalls)";
    FAULT_SIGMA_EXCESSIVE = "PL404", "fault-sigma-excessive", Warning, Faults,
        "robustness", 1,
        "noise and perturbation sigmas above 0.5 saturate the [0.5, 1.5] \
         clamp and stop behaving like the configured distribution",
        "§2.2 (measurement noise is a small relative perturbation)";
    FAULT_CAP_ABOVE_TABLE = "PL405", "fault-cap-above-table", Warning, Faults,
        "robustness", 1,
        "a GPU level cap at or above the platform's table top clamps \
         nothing; the fault plan does not do what it appears to",
        "§3.1 (AGX exposes 14 GPU levels, TX2 exposes 13)";
    FAULT_PHASE_INVALID = "PL406", "fault-phase-invalid", Error, Faults,
        "robustness", 3,
        "a workload phase change must be finite, keep power positive \
         (drift > -1), and start at a finite non-negative simulated time",
        "§2.2 (power draw stays positive through workload phases)";

    // ---- dataflow pack --------------------------------------------------
    DF_LAYER_UNREACHABLE = "PL501", "dataflow-layer-unreachable", Error, Dataflow,
        "dataflow", 2,
        "every layer must be reachable: its declared input shape must be fed \
         by the graph input or by a reachable earlier layer's output",
        "§2.1.1 (execution order threads activations through every layer)";
    DF_LAYER_DEAD = "PL502", "dataflow-layer-dead", Warning, Dataflow,
        "dataflow", 2,
        "every non-terminal layer's output should be consumed by a live \
         later layer; a dead layer burns energy in every plan for nothing",
        "§2.1.2 (per-layer costs assume outputs feed the network)";
    DF_SHAPE_INTERVAL = "PL503", "dataflow-shape-interval", Error, Dataflow,
        "dataflow", 2,
        "a layer's declared output size must fall inside the size interval \
         the fixpoint analysis derives from its operator's transfer function",
        "§2.1.2 (shape-derived features feed the predictors)";
    DF_POINT_UNREACHABLE = "PL504", "dataflow-point-unreachable", Error, Dataflow,
        "cross-artifact", 2,
        "plan instrumentation points must target reachable layers; a switch \
         point on an unreachable block schedules a transition that never \
         amortizes",
        "§2.1.4 (points are preset before blocks that execute)";
    DF_EE_CLAIM_IMPOSSIBLE = "PL505", "dataflow-ee-claim-impossible", Error, Dataflow,
        "energy", 2,
        "a recorded energy-efficiency claim must fall inside the interval \
         statically derivable from the platform's frequency tables",
        "§3.2 (EE gains are bounded by the frequency-sweep envelope)";
    DF_BOOT_BUDGET = "PL506", "dataflow-boot-budget", Warning, Dataflow,
        "energy", 2,
        "energy spent before the first instrumentation point (at boot \
         frequencies) must stay within the configured fraction of the \
         best-case total",
        "§2.1.4 (the plan governs the whole inference pass)";
    DF_ACTIVITY_INCONSISTENT = "PL507", "dataflow-activity-inconsistent", Warning, Dataflow,
        "cross-artifact", 2,
        "layers grouped into one power block should have overlapping \
         busy-utilization envelopes on the target platform; disjoint \
         envelopes mean the view contradicts the platform's activity model",
        "§2.1.3 (blocks group layers with similar power behaviour)";
    DF_DIVERGED = "PL508", "dataflow-diverged", Error, Dataflow,
        "dataflow", 2,
        "the fixpoint analysis must converge within its sweep budget; on \
         divergence every fact (and every rule built on one) is untrustworthy",
        "— (analyzer self-check)";

    // ---- ingest pack ----------------------------------------------------
    INGEST_SCHEMA_VERSION = "PL701", "ingest-schema-version", Error, Ingest,
        "schema", 4,
        "an imported manifest's schema version must be one this build \
         understands; newer or older manifests must be converted, not \
         guessed at",
        "§5 (external workloads enter through a versioned interface)";
    INGEST_UNKNOWN_OP = "PL702", "ingest-unknown-op", Error, Ingest,
        "schema", 4,
        "every manifest node must name an operator this build's cost model \
         covers; an unknown operator has no FLOPs/bytes accounting and \
         cannot be planned",
        "§2.1.2 (per-layer costs drive clustering and planning)";
    INGEST_SPARSITY_RANGE = "PL703", "ingest-sparsity-range", Error, Ingest,
        "sparsity", 4,
        "a per-layer sparsity annotation must be a finite fraction in \
         [0, 1] — it scales the layer's effective compute",
        "§2.1.2 (activity factors are fractions of peak)";
    INGEST_SHAPE_INFERENCE = "PL704", "ingest-shape-inference", Error, Ingest,
        "shapes", 4,
        "every manifest node must be able to consume the activation shape \
         produced by its predecessor; shape inference over untrusted input \
         must fail as a finding, never a panic",
        "§2.1.2 (shape-derived features feed the predictors)";
    INGEST_SKIP_EDGE = "PL705", "ingest-skip-edge", Error, Ingest,
        "structure", 4,
        "manifest skip edges must point forward to declared nodes (no \
         dangling or cyclic edges)",
        "§2.1.2 (residual counts come from well-formed edges)";
    INGEST_INERT_SPARSITY = "PL706", "ingest-inert-sparsity", Warning, Ingest,
        "sparsity", 4,
        "a sparsity annotation on a zero-FLOP operator has no effect on \
         the power model; the manifest does not do what it appears to",
        "§2.1.2 (sparsity scales compute, and these ops have none)";
}

/// Looks up a rule by its stable code.
pub fn rule_by_code(code: &str) -> Option<&'static RuleInfo> {
    all_rules().iter().copied().find(|r| r.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_sorted_by_pack() {
        let rules = all_rules();
        assert!(rules.len() >= 12, "need at least 12 rules");
        for w in rules.windows(2) {
            assert!(w[0].code < w[1].code, "{} !< {}", w[0].code, w[1].code);
        }
        for r in rules {
            let prefix = match r.pack {
                Pack::Graph => "PL0",
                Pack::View => "PL1",
                Pack::Plan => "PL2",
                Pack::Store => "PL3",
                Pack::Faults => "PL4",
                Pack::Dataflow => "PL5",
                Pack::Ingest => "PL7",
            };
            assert!(r.code.starts_with(prefix), "{} in wrong band", r.code);
            assert!(!r.invariant.is_empty() && !r.paper_ref.is_empty());
        }
    }

    #[test]
    fn every_pack_has_error_rules() {
        for pack in [
            Pack::Graph,
            Pack::View,
            Pack::Plan,
            Pack::Store,
            Pack::Faults,
            Pack::Dataflow,
            Pack::Ingest,
        ] {
            assert!(all_rules()
                .iter()
                .any(|r| r.pack == pack && r.severity == Severity::Error));
        }
    }

    #[test]
    fn metadata_is_complete_and_versioned() {
        for r in all_rules() {
            assert!(!r.category.is_empty(), "{} missing category", r.code);
            assert!(
                r.since >= 1 && r.since <= RULES_VERSION,
                "{} has since={} outside 1..={RULES_VERSION}",
                r.code,
                r.since
            );
            let uri = r.help_uri();
            assert!(
                uri.ends_with(&r.code.to_ascii_lowercase()),
                "{uri} must anchor on the code"
            );
        }
        // The dataflow pack is the version-2 addition; version 3 added the
        // PL406 phase rule in the faults pack (and the hybrid pack, retired
        // in version 5); version 4 added the ingest pack.
        assert!(all_rules()
            .iter()
            .all(|r| (r.since == 2) == (r.pack == Pack::Dataflow)));
        assert!(all_rules()
            .iter()
            .all(|r| (r.since == 3) == (r.code == "PL406")));
        assert!(all_rules()
            .iter()
            .all(|r| (r.since == 4) == (r.pack == Pack::Ingest)));
    }

    #[test]
    fn lookup_by_code() {
        assert_eq!(rule_by_code("PL103").unwrap().name, "view-not-contiguous");
        assert_eq!(rule_by_code("PL501").unwrap().pack, Pack::Dataflow);
        assert!(rule_by_code("PL601").is_none(), "retired codes stay unused");
        assert_eq!(rule_by_code("PL704").unwrap().pack, Pack::Ingest);
        assert!(rule_by_code("PL999").is_none());
    }
}
