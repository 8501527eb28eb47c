#!/bin/sh
# Pre-merge verification: build, test, determinism at multiple thread
# counts, then the static-analysis gates (rustfmt, clippy and
# ros-lint). Each stage must pass before the next runs; any failure
# aborts with a non-zero exit.
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

# Same-bits gate: one smoke operation of every rosbench workload (about
# 5 s) must print the recorded output digests, so a speed change that
# moves a bit fails here and not only at benchmark time. A change that
# moves bits on purpose (ROADMAP items 7 and 8) updates these digests
# together with the goldens.
echo "==> rosbench smoke digests (same bits)"
SMOKE_OUT=target/rosbench_smoke.txt
cargo run -q --release --offline --manifest-path crates/bench/src/bin/rosbench/Cargo.toml -- \
    --workload all --smoke >"$SMOKE_OUT" 2>&1
for digest in 4e671e3544162dc9 0da22a8c409fcacf dab8d98d121709e5; do
    grep -q "output_digest=$digest" "$SMOKE_OUT" || {
        echo "verify: rosbench smoke output lacks digest $digest (see $SMOKE_OUT)" >&2
        exit 1
    }
done

# Telemetry and worker pins are per run: these suites take no lock, so
# run their tests overlapped on purpose to catch any cross-talk.
# leaf_locks nests cache builds, telemetry and channel traffic under a
# bounded wait: a lock that stops being a leaf fails it, overlapped too.
echo "==> overlapping-run suites (release, --test-threads=8)"
cargo test -q --release -p ros-tests \
    --test cache_determinism --test determinism --test fault_determinism \
    --test fault_trace --test leaf_locks --test obs_trace --test serve_stream \
    -- --test-threads=8

# Steady-state allocation budget, the one enforcer of the zero-alloc
# frame: after warm-up, planned frames (capture with an impaired
# front-end -> detect -> spotlight -> decode under FFT and CZT plans)
# must allocate nothing, measured by a counting allocator. Release
# mode so the measured path is the shipped code, not debug
# scaffolding.
echo "==> allocation budget (tests/alloc_budget.rs, release)"
cargo test -q --release -p ros-tests --test alloc_budget

# Formatting gate: every workspace package (the members `crates/*`,
# `examples` and `tests`) must be rustfmt-clean. The vendored
# stand-ins under vendor/ keep their upstream layout, and the
# standalone rosbench package is not a workspace member.
echo "==> cargo fmt --check (workspace crates, tests, examples)"
for manifest in crates/*/Cargo.toml examples/Cargo.toml tests/Cargo.toml; do
    cargo fmt --check --manifest-path "$manifest"
done

# Compiler-side gate: [workspace.lints] in the root Cargo.toml (plus
# clippy.toml) denies unwrap/expect, the panic family, print output,
# bare `as` casts, float equality, undocumented pub items, hash
# collections, raw thread spawns or wall-clock reads outside ros-exec
# and the ros-obs clock, and `f64::to_radians`/`to_degrees` outside
# ros_em::units, and any `unsafe` block without a `// SAFETY:`
# comment naming why it holds. Lib and bin targets only, so
# #[cfg(test)] code stays exempt; a stale #[expect(...)] fails the
# build too. `-D warnings`
# turns every default-level clippy and rustc warning into a failure as
# well. The vendored stand-ins (rand, proptest) sit inside the
# workspace directory, so cargo makes them implicit members: they are
# excluded, and --no-deps keeps them out of the lint run as
# dependencies.
echo "==> cargo clippy (workspace crates, warnings denied)"
cargo clippy --workspace --exclude rand --exclude proptest --no-deps -- -D warnings

# Workspace-analysis gate (ros-lint): the rules clippy cannot express
# (dead-pub, the dB-formula half of typed-conversions, typed-db-params).
# Any finding fails.
echo "==> xtask lint (ros-lint gate)"
cargo run -q -p xtask -- lint

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

echo "verify: all checks passed"
