#!/bin/sh
# Pre-merge verification: build, test, determinism at multiple thread
# counts, then the static-analysis gate. Each stage must pass before
# the next runs; any failure aborts with a non-zero exit.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace -q

# The executor honours ROS_EXEC_THREADS as the pool-size default; the
# determinism suite must hold whether the process defaults to one
# worker or several (it also pins 1/2/8 internally -- this exercises
# the env-override path on top). The suite runs the planned stage entry
# points (capture_batch_with + detect_with, decode_into under FFT and
# CZT plans), so plan/scratch reuse is re-proven bit-identical across
# thread counts on every verify pass.
echo "==> determinism suite at ROS_EXEC_THREADS=1"
ROS_EXEC_THREADS=1 cargo test -q -p ros-tests --test determinism

echo "==> determinism suite at ROS_EXEC_THREADS=4"
ROS_EXEC_THREADS=4 cargo test -q -p ros-tests --test determinism

# The benchmark (crates/bench/src/bin/rosbench) is a standalone
# package outside the workspace, so the stages above never compile it.
# Build and unit-test it here: a library API change that breaks the
# benchmark fails verify instead of surfacing at benchmark time.
echo "==> rosbench build + unit tests (standalone benchmark package)"
cargo build --release --offline --manifest-path crates/bench/src/bin/rosbench/Cargo.toml
cargo test --offline --manifest-path crates/bench/src/bin/rosbench/Cargo.toml

# Steady-state allocation budget: one full planned frame (capture ->
# detect -> spotlight -> decode) must allocate exactly zero bytes
# after warm-up. Release mode so the measured path is the shipped
# code, not debug scaffolding.
echo "==> allocation budget (tests/alloc_budget.rs, release)"
cargo test -q --release -p ros-tests --test alloc_budget

# Debt ratchet: per-rule baselined lint debt may only decrease
# through history (lint-ratchet.json pins a ceiling for every
# registered rule; all are 0 except dead-pub). Fails on regression
# AND on an unlocked improvement, forcing `xtask ratchet --tighten`
# commits.
echo "==> xtask ratchet (lint debt ceilings)"
cargo run -q -p xtask -- ratchet

# Static-analysis gate (ros-lint): token-level rules over every
# workspace source, judged against lint-baseline.json. The run also
# writes the machine-readable findings artifact, which lint-artifact
# re-parses (proving it is well-formed JSON) and summarizes per rule.
echo "==> xtask lint (ros-lint gate + findings artifact)"
cargo run -q -p xtask -- lint --json target/lint.json
echo "==> xtask lint-artifact (artifact parses; per-rule counts)"
cargo run -q -p xtask -- lint-artifact target/lint.json
# The semantic rules (DESIGN.md section 13) must be present in the
# artifact's rule catalog — a missing ID means the gate silently
# stopped checking a determinism/allocation contract.
for rule in nondet-iter no-wallclock alloc-in-hot-path; do
    grep -q "\"id\": \"$rule\"" target/lint.json || {
        echo "verify: lint artifact missing semantic rule '$rule'" >&2
        exit 1
    }
done
# Concurrency rules (DESIGN.md section 17): the lock/channel-graph
# pass and the suppression audit must stay in the catalog too — the
# deadlock and blocking-under-lock contracts are only as alive as
# their rule IDs in the artifact.
echo "==> lint lockgraph (concurrency rules present in artifact)"
for rule in lock-order blocking-under-lock guard-across-hot-call stale-suppression; do
    grep -q "\"id\": \"$rule\"" target/lint.json || {
        echo "verify: lint artifact missing concurrency rule '$rule'" >&2
        exit 1
    }
done

# Lint self-runtime budget: the artifact carries per-pass wall times;
# the whole gate (lex + scan + callgraph + lockgraph + rules) must
# finish inside a generous ceiling so an accidentally quadratic pass
# is caught before it makes verify unbearable. Observed total is
# ~0.6 s debug; the ceiling is 120 s.
echo "==> lint self-runtime (total_ns ceiling)"
TOTAL_NS=$(sed -n 's/.*"total_ns": \([0-9][0-9]*\).*/\1/p' target/lint.json)
if [ -z "$TOTAL_NS" ]; then
    echo "verify: lint artifact missing timings.total_ns" >&2
    exit 1
fi
if [ "$TOTAL_NS" -gt 120000000000 ]; then
    echo "verify: lint gate took ${TOTAL_NS} ns (> 120 s ceiling)" >&2
    exit 1
fi

# Registry drift: baseline and ratchet must agree with the compiled-in
# rule registry (no debt or ceiling for unknown rules, a ceiling for
# every registered rule).
echo "==> xtask lint-config (registry vs baseline/ratchet drift)"
cargo run -q -p xtask -- lint-config

# Telemetry smoke: a full-pipeline drive-by with ROS_OBS=1 must emit a
# parseable ndjson trace that covers every stage of the pipeline.
echo "==> telemetry smoke (ROS_OBS=1 drive-by trace)"
OBS_TRACE=target/obs_smoke.ndjson
rm -f "$OBS_TRACE"
ROS_OBS=1 ROS_OBS_FILE="$OBS_TRACE" cargo run -q --release -p bench -- smoke
for stage in radar.capture_batch reader.detect dsp.dbscan detector.score decode; do
    grep -q "\"stage\":\"$stage\"" "$OBS_TRACE" || {
        echo "verify: telemetry trace missing span for stage '$stage'" >&2
        exit 1
    }
done
grep -q '"ev":"metric"' "$OBS_TRACE" || {
    echo "verify: telemetry trace missing metric export" >&2
    exit 1
}

# Fault smoke: the reduced fault matrix must run clean (the command
# itself fails on any 1-vs-2-thread divergence or panic) and its
# telemetry must carry the fault counters.
echo "==> fault-injection smoke (bench faults --smoke)"
FAULT_TRACE=target/fault_smoke.ndjson
rm -f "$FAULT_TRACE"
ROS_OBS=1 ROS_OBS_FILE="$FAULT_TRACE" cargo run -q --release -p bench -- faults --smoke
grep -q '"name":"fault\.' "$FAULT_TRACE" || {
    echo "verify: fault trace missing fault.* counters" >&2
    exit 1
}
grep -q '"name":"reader.frames_degraded"' "$FAULT_TRACE" || {
    echo "verify: fault trace missing reader.frames_degraded" >&2
    exit 1
}

# Corridor service smoke: the reduced corridor must decode at least
# one pass, prove its read log identical at 1 vs 8 workers (the bench
# exits non-zero itself on divergence; the grep double-checks), and
# emit the serve.* metric family. The smoke artifact lands under
# target/, never touching the checked-in BENCH_serve.json.
echo "==> corridor serve smoke (bench serve --smoke)"
SERVE_TRACE=target/serve_smoke.ndjson
rm -f "$SERVE_TRACE"
SERVE_OUT=$(ROS_OBS=1 ROS_OBS_FILE="$SERVE_TRACE" cargo run -q --release -p bench -- serve --smoke)
echo "$SERVE_OUT"
echo "$SERVE_OUT" | grep -q "logs identical" || {
    echo "verify: serve smoke: worker-count invariance failed" >&2
    exit 1
}
echo "$SERVE_OUT" | grep -Eq "\([1-9][0-9]* decoded\)" || {
    echo "verify: serve smoke decoded no pass" >&2
    exit 1
}
grep -q '"name":"serve\.' "$SERVE_TRACE" || {
    echo "verify: serve trace missing serve.* metrics" >&2
    exit 1
}

# Geometry-cache stage: the serve smoke above already runs its
# corridor twice against one shared GeomCache in a single process (the
# cold/warm halves of the cache comparison), so the trace must carry
# nonzero cache.hit traffic, a per-kind miss breakdown, and the
# console must prove the cached/uncached read logs bit-identical.
echo "==> geometry cache smoke (cache.* counters from the serve run)"
grep -Eq '"name":"cache\.hit","kind":"counter","value":[1-9]' "$SERVE_TRACE" || {
    echo "verify: serve trace has no nonzero cache.hit counter" >&2
    exit 1
}
grep -Eq '"name":"cache\.(shaping|pattern)\.miss","kind":"counter","value":[1-9]' "$SERVE_TRACE" || {
    echo "verify: serve trace missing per-kind cache miss counters" >&2
    exit 1
}
echo "$SERVE_OUT" | grep -q "cache decodes/s:.*logs identical" || {
    echo "verify: serve smoke: cache-temperature invariance failed" >&2
    exit 1
}

# Benchmark-record hygiene: every BENCH_*.json checked in at the root
# is either "valid": true or explicitly waived (with a reason) in
# .bench-waivers. An invalid record can document a limitation, but
# never silently.
echo "==> benchmark record validity (BENCH_*.json vs .bench-waivers)"
for rec in BENCH_*.json; do
    [ -e "$rec" ] || continue
    grep -q '"valid": true' "$rec" && continue
    grep -qx "$rec" .bench-waivers || {
        echo "verify: $rec is not \"valid\": true and not waived in .bench-waivers" >&2
        exit 1
    }
done

echo "verify: all checks passed"
