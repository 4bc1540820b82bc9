#!/usr/bin/env sh
# Runs the criterion bench suites and writes a machine-readable summary:
# bench name -> median ns (plus baseline delta when a baseline file exists).
#
# Usage: scripts/bench.sh [-o OUTPUT] [-b BASELINE] [BENCH...]
#   -o OUTPUT    output JSON path            (default: BENCH_PR10.json)
#   -b BASELINE  prior summary to diff against (default: BENCH_PR9.json)
#   BENCH...     bench targets to run         (default: all [[bench]] targets)
#
# The JSON shape is {"<bench name>": {"median_ns": N[, "ratio_vs_ref": R]
# [, "baseline_ns": M, "speedup": S, "speedup_normalized": SN]}}.
#
# Raw medians from different machines (or the same machine under
# different load) are not comparable, so every run re-measures one
# pinned REFERENCE workload — lint_reference/cluster_and_decide_resnet152,
# the planning pipeline's clustering + per-block decision stage — and
# reports each bench as "ratio_vs_ref": median / reference-median, a
# dimensionless number stable across hosts. "speedup" stays the raw
# baseline_ns / median_ns; "speedup_normalized" divides out machine
# drift via the two reference measurements:
#   (baseline_ns / baseline_ref_ns) / (median_ns / ref_ns)
# Trust speedup_normalized when comparing summaries recorded on
# different days; a normalized value near 1.0 with a raw value far
# from it means the machine moved, not the code.
#
# When the bench_lint suite ran, a trailing
# "lint_overhead" entry reports each debug lint gate's cost (including the
# PL5xx dataflow pack) as a fraction of the pipeline stage it rides on
# (budget: <0.02), and a "lint_cache_speedup" entry reports warm cached
# re-lints vs a cold full lint run (floor: >= 10x). When the bench_store
# suite ran, a "store_speedup" entry reports warm-cache plan lookups vs
# cold planning (floor: >= 20x). When the bench_faults suite ran, a
# "faults_overhead" entry reports what carrying an inert fault plan costs
# relative to a clean engine run (budget: <= 1.05x), and an "ee_retention"
# entry records the faultsim robustness report (energy efficiency retained
# under the default fault sweep, per controller). When the bench_hybrid
# suite ran, a "hybrid_overhead" entry reports what threading the hybrid
# drift detector through a clean engine run costs over plain plan replay,
# in absolute nanoseconds per engine step (budget: <= 10 ns/step — see
# the awk block for why the budget is absolute), and an "ee_recovery"
# entry records the
# hybridsim online-adaptation report (faulted EE over the clean static
# plan's EE, per controller). When the bench_ingest suite ran, an
# "ingest_overhead" entry reports what importing a zoo-sized manifest
# costs as a fraction of cold-planning the same graph (budget: <= 0.02 —
# ingest sits on the serve request path, so it must stay invisible next
# to the planning work that follows it). The perf trajectory across PRs
# compares these files; end-to-end serving throughput is measured by
# perfbench/ instead.
set -eu

cd "$(dirname "$0")/.."

out="BENCH_PR10.json"
baseline="BENCH_PR9.json"
while getopts "o:b:" opt; do
    case "$opt" in
        o) out="$OPTARG" ;;
        b) baseline="$OPTARG" ;;
        *) echo "usage: scripts/bench.sh [-o OUTPUT] [-b BASELINE] [BENCH...]" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))

raw=$(mktemp)
ret=$(mktemp)
rec=$(mktemp)
trap 'rm -f "$raw" "$ret" "$rec"' EXIT

if [ "$#" -gt 0 ]; then
    for b in "$@"; do
        echo "==> cargo bench --bench $b"
        cargo bench --bench "$b" | tee -a "$raw"
    done
else
    echo "==> cargo bench (all suites)"
    cargo bench | tee "$raw"
fi

# Robustness sweep: the faultsim report prints greppable
# "ee_retention <controller> <value>" lines for the JSON summary.
echo "==> faultsim robustness sweep (alexnet, default fault spec)"
cargo build -q --release -p powerlens-cli
./target/release/powerlens-cli faultsim alexnet --batch 8 --images 16 \
    | tee /dev/stderr | grep '^ee_retention ' > "$ret" || true

# Online-adaptation sweep: the hybridsim report prints greppable
# "ee_recovery <controller> <value>" lines for the JSON summary.
echo "==> hybridsim online-adaptation sweep (alexnet, default storm)"
./target/release/powerlens-cli hybridsim alexnet --batch 8 --images 16 \
    | tee /dev/stderr | grep '^ee_recovery ' > "$rec" || true

# Criterion-shim lines look like:
#   name/case    time: [1.234 µs 1.456 µs 1.789 µs]  (20 samples x 7 iters)
# Field layout after splitting on '[' / ']': "v1 u1 v2 u2 v3 u3" — the
# median is the second value/unit pair.
awk -v out="$out" -v baseline="$baseline" -v retfile="$ret" -v recfile="$rec" '
function to_ns(v, u) {
    if (u == "s")  return v * 1e9
    if (u == "ms") return v * 1e6
    if (u == "ns") return v
    return v * 1e3   # µs (the µ survives as an opaque byte sequence)
}
/time: \[/ {
    name = $1
    split($0, parts, /[][]/)
    n = split(parts[2], f, /[ \t]+/)
    if (n >= 4) {
        ns[name] = to_ns(f[3], f[4])
        order[++count] = name
    }
}
END {
    # Load baseline medians (same JSON shape) if present.
    has_base = 0
    while ((getline line < baseline) > 0) {
        if (match(line, /"[^"]+": *\{ *"median_ns": *[0-9.]+/)) {
            entry = substr(line, RSTART, RLENGTH)
            match(entry, /"[^"]+"/)
            bname = substr(entry, RSTART + 1, RLENGTH - 2)
            match(entry, /[0-9.]+$/)
            base[bname] = substr(entry, RSTART, RLENGTH)
            has_base = 1
        }
    }
    # Pinned reference workload, re-measured every run: ratios against it
    # are comparable across machines; raw medians are not.
    refname = "lint_reference/cluster_and_decide_resnet152"
    ref = (refname in ns) ? ns[refname] : 0
    base_ref = (refname in base) ? base[refname] + 0 : 0
    if (ref > 0) {
        drift = (base_ref > 0) \
            ? sprintf(" (baseline %.1f ms, machine drift %.2fx)", \
                base_ref / 1e6, ref / base_ref) : ""
        printf "reference workload %s: %.1f ms this run%s\n", refname, \
            ref / 1e6, drift
    } else
        printf "warning: reference %s not in this run; ratios omitted\n", refname
    printf "{\n" > out
    for (i = 1; i <= count; i++) {
        name = order[i]
        printf "  \"%s\": {\"median_ns\": %.1f", name, ns[name] > out
        if (ref > 0)
            printf ", \"ratio_vs_ref\": %.6f", ns[name] / ref > out
        if (has_base && (name in base) && base[name] + 0 > 0) {
            printf ", \"baseline_ns\": %.1f, \"speedup\": %.2f", \
                base[name], base[name] / ns[name] > out
            if (ref > 0 && base_ref > 0)
                printf ", \"speedup_normalized\": %.2f", \
                    (base[name] / base_ref) / (ns[name] / ref) > out
        }
        printf "}%s\n", (i < count ? "," : "") > out
    }
    # Debug lint-gate overhead: each gate (sim::engine lints the graph,
    # core::pipeline lints the view + plan + dataflow fixpoint) as a
    # fraction of the planning pipeline stage (clustering + per-block
    # decisions). Budget: < 0.02.
    g_gate = "lint_gate/graph_pack_resnet152"
    v_gate = "lint_gate/view_plan_packs_resnet152"
    d_gate = "lint_gate/dataflow_pack_resnet152"
    pipe   = "lint_reference/cluster_and_decide_resnet152"
    if ((g_gate in ns) && (v_gate in ns) && (d_gate in ns) && (pipe in ns)) {
        printf ",\n  \"lint_overhead\": {\"engine_gate\": %.5f, \"pipeline_gate\": %.5f, \"dataflow_gate\": %.5f, \"total\": %.5f, \"budget\": 0.02}\n", \
            ns[g_gate] / ns[pipe], ns[v_gate] / ns[pipe], ns[d_gate] / ns[pipe], \
            (ns[g_gate] + ns[v_gate] + ns[d_gate]) / ns[pipe] > out
        printf "lint overhead vs pipeline: engine gate %.3f%%, pipeline gate %.3f%%, dataflow gate %.3f%%, total %.3f%% (budget 2%%)\n", \
            100 * ns[g_gate] / ns[pipe], 100 * ns[v_gate] / ns[pipe], \
            100 * ns[d_gate] / ns[pipe], \
            100 * (ns[g_gate] + ns[v_gate] + ns[d_gate]) / ns[pipe]
    }
    # Lint-cache payoff: a warm (memory-tier) report lookup vs a cold full
    # lint run of every pack. Floor: >= 10x.
    lcold = "lint_cache/cold_resnet152"
    lwarm = "lint_cache/warm_resnet152"
    if ((lcold in ns) && (lwarm in ns) && ns[lwarm] > 0) {
        printf ",\n  \"lint_cache_speedup\": {\"warm_vs_cold\": %.1f, \"floor\": 10}\n", \
            ns[lcold] / ns[lwarm] > out
        printf "lint cache: warm re-lint %.1fx faster than cold (floor 10x)\n", \
            ns[lcold] / ns[lwarm]
    }
    # Plan-store payoff: a warm (memory-tier) lookup vs a cold planning
    # run. Floor: >= 20x.
    cold = "store/plan_cold"
    warm = "store/plan_warm"
    if ((cold in ns) && (warm in ns) && ns[warm] > 0) {
        printf ",\n  \"store_speedup\": {\"warm_vs_cold\": %.1f, \"floor\": 20}\n", \
            ns[cold] / ns[warm] > out
        printf "plan store: warm lookup %.1fx faster than cold plan (floor 20x)\n", \
            ns[cold] / ns[warm]
    }
    # Fault-layer overhead: carrying an inert (zero-probability) fault plan
    # vs a clean engine run. Budget: <= 1.05x.
    fclean = "faults/engine_clean_alexnet"
    fzero  = "faults/engine_zero_plan_alexnet"
    ffault = "faults/engine_faulted_alexnet"
    if ((fclean in ns) && (fzero in ns) && ns[fclean] > 0) {
        printf ",\n  \"faults_overhead\": {\"zero_plan_vs_clean\": %.3f, \"budget\": 1.05", \
            ns[fzero] / ns[fclean] > out
        if (ffault in ns)
            printf ", \"storm_vs_clean\": %.3f", ns[ffault] / ns[fclean] > out
        printf "}\n" > out
        printf "fault layer: inert plan costs %+.1f%% vs clean (budget +5%%)\n", \
            100 * (ns[fzero] / ns[fclean] - 1)
    }
    # Hybrid-detector overhead: the clean engine run with the drift
    # detector threaded through it vs plain plan replay. With nothing
    # drifting the detector only reads telemetry windows, so the delta is
    # the pure cost of closing the loop. The budget is *absolute* — at
    # most 10 ns of detector per engine step: the simulated step is only
    # ~50 ns (an analytic model call), so a percentage there is dominated
    # by harness noise, while on hardware a layer step is >= milliseconds
    # and 10 ns meets the 2%-of-step deployment budget with five orders
    # of magnitude to spare. hsteps mirrors bench_hybrid.rs: 256 images /
    # batch 8 = 32 passes over the 19 alexnet layers.
    hplan = "hybrid/engine_plan_alexnet"
    hon   = "hybrid/engine_detector_on_alexnet"
    hsteps = (256 / 8) * 19
    if ((hplan in ns) && (hon in ns) && ns[hplan] > 0) {
        printf ",\n  \"hybrid_overhead\": {\"detector_ns_per_step\": %.2f, \"budget_ns_per_step\": 10", \
            (ns[hon] - ns[hplan]) / hsteps > out
        printf ", \"engine_step_ns\": %.2f, \"detector_on_vs_plan\": %.3f}\n", \
            ns[hplan] / hsteps, ns[hon] / ns[hplan] > out
        printf "hybrid detector: %.1f ns/step on a %.1f ns simulated engine step (budget 10 ns)\n", \
            (ns[hon] - ns[hplan]) / hsteps, ns[hplan] / hsteps
    }
    # Manifest-import overhead: lowering a zoo-sized manifest (resnet152,
    # the deepest zoo graph) vs cold-planning the graph it produces.
    # Budget: <= 0.02.
    iimp  = "ingest/import_resnet152"
    iexp  = "ingest/export_resnet152"
    iplan = "ingest/plan_resnet152"
    if ((iimp in ns) && (iplan in ns) && ns[iplan] > 0) {
        printf ",\n  \"ingest_overhead\": {\"import_vs_plan\": %.5f, \"budget\": 0.02", \
            ns[iimp] / ns[iplan] > out
        if (iexp in ns)
            printf ", \"export_vs_plan\": %.5f", ns[iexp] / ns[iplan] > out
        printf "}\n" > out
        printf "ingest: importing resnet152 costs %.2f%% of planning it (budget 2%%)\n", \
            100 * ns[iimp] / ns[iplan]
    }
    # Energy-efficiency recovery under the default hybridsim storm, from
    # the online-adaptation report. Floors: hybrid >= powerlens (static
    # plan) and hybrid >= 0.9 x bim.
    nrec = 0
    while ((getline line < recfile) > 0) {
        n = split(line, cf, /[ \t]+/)
        if (n >= 3 && cf[1] == "ee_recovery") {
            cname[++nrec] = cf[2]
            cval[nrec] = cf[3]
        }
    }
    if (nrec > 0) {
        printf ",\n  \"ee_recovery\": {" > out
        for (j = 1; j <= nrec; j++)
            printf "%s\"%s\": %s", (j > 1 ? ", " : ""), cname[j], cval[j] > out
        printf ", \"floor\": \"hybrid >= powerlens and hybrid >= 0.9 * bim\"}\n" > out
        printf "ee recovery under the hybrid storm:"
        for (j = 1; j <= nrec; j++) printf " %s %s", cname[j], cval[j]
        printf "\n"
    }
    # Energy-efficiency retention under the default fault sweep, from the
    # faultsim robustness report. Floor: degraded >= 0.9 x bim.
    nret = 0
    while ((getline line < retfile) > 0) {
        n = split(line, rf, /[ \t]+/)
        if (n >= 3 && rf[1] == "ee_retention") {
            rname[++nret] = rf[2]
            rval[nret] = rf[3]
        }
    }
    if (nret > 0) {
        printf ",\n  \"ee_retention\": {" > out
        for (j = 1; j <= nret; j++)
            printf "%s\"%s\": %s", (j > 1 ? ", " : ""), rname[j], rval[j] > out
        printf ", \"floor\": \"degraded >= 0.9 * bim\"}\n" > out
        printf "ee retention under faults:"
        for (j = 1; j <= nret; j++) printf " %s %s", rname[j], rval[j]
        printf "\n"
    }
    printf "}\n" > out
    printf "wrote %s (%d benches%s)\n", out, count, \
        has_base ? ", with baseline deltas" : ""
}' "$raw"
