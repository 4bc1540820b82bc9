#!/usr/bin/env sh
# Pre-PR gate: run everything CI would. Usage: scripts/check.sh [--fast]
#   --fast skips the test suite (format/lint/doc only).
set -eu

cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets -- -D warnings
if [ "$fast" -eq 0 ]; then
    run cargo test -q --workspace
fi
# Lane-kernel gate: every SIMD-shaped reduction kernel must stay inside its
# pinned tolerance of (or bit-identical to) the scalar reference, across
# every remainder width. Runs even with --fast — the lane kernels are the
# numerical foundation everything above sits on.
run cargo test -q -p powerlens-numeric --test kernel_tolerance
# Static-analysis gate: every zoo model must lint clean (error severity
# fails the command; rule catalog in docs/LINTS.md), and no finding may be
# new relative to the committed SARIF baseline — the ratchet: fixing old
# findings and regenerating the baseline only ever shrinks it.
run cargo build -q --release -p powerlens-cli
run ./target/release/powerlens-cli lint --all --baseline results/lint_baseline.sarif
# Lint-identity gate: the ratchet above fails only on findings absent from
# the baseline, so a change that silently drops findings passes it. The
# full `lint --all` output on agx and tx2 must match results/lint_golden/
# byte for byte (and exit 0). A change that means to move a finding
# re-records the goldens and says why.
echo "==> lint-identity gate (results/lint_golden)"
lint_dir=$(mktemp -d)
for platform in agx tx2; do
    golden="lint_all_$platform.txt"
    ./target/release/powerlens-cli lint --all --platform "$platform" > "$lint_dir/$golden"
    diff -u "results/lint_golden/$golden" "$lint_dir/$golden" \
        || { echo "lint-identity gate: $golden differs from its golden" >&2; \
             rm -rf "$lint_dir"; exit 1; }
done
rm -rf "$lint_dir"
echo "lint-identity gate: lint --all on agx and tx2 matches"
# Cached-lint warm path: the second run against the same disk cache must be
# served from it (hits > 0 on stderr).
lint_cache_dir=$(mktemp -d)
./target/release/powerlens-cli lint alexnet --cache disk \
    --cache-dir "$lint_cache_dir" > /dev/null 2>&1
warm_stats=$(./target/release/powerlens-cli lint alexnet --cache disk \
    --cache-dir "$lint_cache_dir" 2>&1 >/dev/null | grep '^lint cache:' || true)
rm -rf "$lint_cache_dir"
case "$warm_stats" in
    *'hits=0'*|'') echo "lint cache smoke: warm run missed ($warm_stats)" >&2; exit 1 ;;
    *) echo "lint cache smoke: $warm_stats" ;;
esac
# Plan-store smoke: the whole zoo through the in-memory cache.
run ./target/release/powerlens-cli plan-batch --cache mem
# Plan-identity gate: `plan` output must match the goldens in
# results/plan_golden/ byte for byte. The zoo oracle plans on agx and tx2
# are all one block, so the gate also trains tx2 models (60 networks, the
# same file every run) and plans three zoo models with them: 4, 4 and 2
# blocks, which exercise clustering. A change that means to move a plan
# re-records the goldens and says why.
echo "==> plan-identity gate (results/plan_golden)"
plan_dir=$(mktemp -d)
cli=./target/release/powerlens-cli
for platform in agx tx2; do
    for model in $("$cli" zoo | awk 'NR > 1 { print $1 }'); do
        "$cli" plan "$model" --platform "$platform"
    done
done > "$plan_dir/zoo.txt"
"$cli" train --platform tx2 --nets 60 --out "$plan_dir/models.json" > /dev/null
for model in mobilenet_v3 resnext101 regnet_x_32gf; do
    "$cli" plan "$model" --platform tx2 --models "$plan_dir/models.json"
done > "$plan_dir/models_tx2.txt"
for golden in zoo.txt models_tx2.txt; do
    diff -u "results/plan_golden/$golden" "$plan_dir/$golden" \
        || { echo "plan-identity gate: $golden differs from its golden" >&2; \
             rm -rf "$plan_dir"; exit 1; }
done
echo "plan-identity gate: 24 zoo plans and 3 model-driven plans match"
# Hybrid golden gate: on the 4-block mobilenet_v3 plan these models give
# on tx2 the hybrid ladder detects drift, nudges, re-plans and throttles
# re-plans, unlike the alexnet smoke below where it never moves. The
# stdout and exit code of hybridsim (1: the hybrid falls just below the
# static plan there) and of faultsim --hybrid must match
# results/hybrid_golden/ byte for byte.
echo "==> hybrid golden gate (results/hybrid_golden)"
for cmd in hybridsim faultsim; do
    flag=""
    [ "$cmd" = faultsim ] && flag="--hybrid"
    golden="${cmd}_mobilenet_v3_tx2.txt"
    {
        rc=0
        # $flag is empty or one word: leave it unquoted.
        # shellcheck disable=SC2086
        "$cli" "$cmd" mobilenet_v3 --platform tx2 --models "$plan_dir/models.json" \
            --batch 8 --images 16 $flag 2>/dev/null || rc=$?
        echo "exit $rc"
    } > "$plan_dir/$golden"
    diff -u "results/hybrid_golden/$golden" "$plan_dir/$golden" \
        || { echo "hybrid golden gate: $golden differs from its golden" >&2; \
             rm -rf "$plan_dir"; exit 1; }
done
rm -rf "$plan_dir"
echo "hybrid golden gate: hybridsim and faultsim --hybrid on mobilenet_v3/tx2 match"
# Ingest gate: every example manifest must pass the PL7xx import gate,
# lint clean, and plan end-to-end — the external-model path from JSON on
# disk to a DVFS plan.
for manifest in examples/models/*.json; do
    run ./target/release/powerlens-cli import "$manifest" > /dev/null
    run ./target/release/powerlens-cli lint --model "$manifest"
    run ./target/release/powerlens-cli plan --model "$manifest" > /dev/null
done
# Fault-injection smoke: the robustness report must complete under the
# default 20% switch-failure sweep, and zero-probability fault plans must
# stay bit-identical to clean runs (the differential suite).
run ./target/release/powerlens-cli faultsim alexnet --batch 4 --images 8
run cargo test -q -p powerlens-sim --test faults_differential
# Hybrid-governor smoke: the online-adaptation report must complete under
# the default storm and hold both floors (the report's closing line), and
# the zero-drift differential gate must hold — a hybrid run on a clean
# engine stays bit-identical to plan replay across the whole zoo.
hybrid_out=$(./target/release/powerlens-cli hybridsim alexnet --batch 4 --images 8) \
    || { echo "hybridsim smoke: command failed" >&2; exit 1; }
echo "$hybrid_out"
case "$hybrid_out" in
    *'adaptation: hybrid holds'*) ;;
    *) echo "hybridsim smoke: hybrid did not hold the EE floors" >&2; exit 1 ;;
esac
run cargo test -q -p powerlens-governors --test hybrid_differential
# Serving smoke: a live daemon on an ephemeral port must answer an HTTP
# plan, expose /metrics, survive a deeply nested body, and shut down
# cleanly on request.
echo "==> serve smoke (ephemeral port)"
serve_log=$(mktemp)
./target/release/powerlens-cli serve --port 0 --cache mem --threads 2 --batch 4 \
    > "$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$serve_log")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve smoke: daemon never reported an address" >&2; \
    cat "$serve_log" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
serve_fail() {
    echo "serve smoke: $1" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2>/dev/null
    exit 1
}
plan=$(curl -sf -X POST "http://$addr/plan" -d '{"model": "alexnet"}') \
    || serve_fail "POST /plan failed"
case "$plan" in
    *'"points"'*) ;;
    *) serve_fail "plan response missing points: $plan" ;;
esac
metrics=$(curl -sf "http://$addr/metrics") || serve_fail "GET /metrics failed"
case "$metrics" in
    *'serve.requests'*) ;;
    *) serve_fail "metrics missing serve.requests: $metrics" ;;
esac
# A body nested 20,000 levels deep must be refused with 400, and the
# daemon must still be up to answer the next request.
deep=$(head -c 20000 /dev/zero | tr '\0' '[')
status=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/plan" -d "$deep") \
    || serve_fail "POST of a deeply nested body failed (status ${status:-none})"
[ "$status" = 400 ] || serve_fail "deeply nested body got HTTP $status, expected 400"
curl -sf "http://$addr/healthz" > /dev/null \
    || serve_fail "GET /healthz failed after a deeply nested body"
curl -sf -X POST "http://$addr/shutdown" > /dev/null \
    || serve_fail "POST /shutdown failed"
# A missed accept wake would hang a bare `wait`: give the daemon 5 s.
for _ in $(seq 1 50); do
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$serve_pid" 2>/dev/null \
    && serve_fail "daemon still running 5 s after POST /shutdown"
wait "$serve_pid" || serve_fail "daemon exited non-zero"
rm -f "$serve_log"
echo "serve smoke: plan + metrics + nesting bound + shutdown ok on $addr"
run cargo bench --no-run
RUSTDOCFLAGS="-D warnings"
export RUSTDOCFLAGS
run cargo doc --no-deps --workspace

echo "==> all checks passed"
