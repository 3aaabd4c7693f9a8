#!/usr/bin/env sh
# Offline multi-stage CI gate for the KGAG workspace.
#
# The workspace has zero external dependencies (see DESIGN.md §8), so
# every cargo invocation runs with --offline: if anyone reintroduces a
# crates.io dependency, the gate fails on the first stage instead of
# only on a network-less machine.
#
# The gate is a stage *manifest* plus a generic runner: each stage is a
# name in $STAGES with a description and a shell function, the runner
# prints generated "N/M" banners, times every stage, and writes the
# machine-readable run summary to results/ci_summary.json (via the
# kgag-bench ci_summary binary) whether the run passes or fails.
#
# Stages (./ci.sh --list prints this table):
#   fmt        — cargo fmt --check, for the workspace and for kgbench
#                (its own workspace, which the root check never sees)
#   build      — release build with RUSTFLAGS="-D warnings"
#   test       — full suite at KGAG_THREADS=1 and KGAG_THREADS=4; the
#                determinism suite additionally compares both thread
#                counts bit-for-bit inside one process (DESIGN.md §9).
#                The suite holds every serving oracle too: served,
#                sharded (real `kgag shard` processes, one SIGKILLed
#                mid-stream), registry, lifecycle, backend and
#                telemetry bit-identity against offline scoring
#   kgbench    — the repository benchmark (its own package under
#                kgbench/): builds it against the workspace's public
#                API and runs its unit tests plus its --smoke run
#   golden     — fixed-seed smoke training compared *bit-identically*
#                against results/golden_smoke.json; any numeric drift
#                fails. After an intentional numerics change:
#                  ./ci.sh --golden-baseline
#   bench      — only with --bench (or --stage bench): regenerate the
#                micro-benchmark JSON artifacts into a scratch dir,
#                move them into crates/bench/results atomically (an
#                interrupted run never leaves a partial artifact set),
#                and compare medians against the committed
#                results/bench_baseline.json; fails on regressions
#                beyond KGAG_BENCH_TOLERANCE (default 25%) and on any
#                baseline suite with no artifact at all. Regenerate the
#                baseline after intentional perf changes with:
#                  ./ci.sh --bench-baseline
#   tanh       — only with --stage tanh: the exhaustive tanh test in
#                release — both entry points of the in-house tanh
#                (kgag_tensor::tanh) against f32::tanh on all 2^32
#                inputs, bit for bit. It holds where the libm is
#                glibc 2.36's; about a minute on 2 cores
#
# Usage:
#   ./ci.sh                      # every stage except bench
#   ./ci.sh --list               # print the stage table and exit
#   ./ci.sh --stage golden       # run exactly one stage
#   ./ci.sh --stage fmt,test     # run a comma-separated subset
#   ./ci.sh --bench              # …default stages plus the bench gate
#   ./ci.sh --stage tanh         # the exhaustive tanh comparison
#   ./ci.sh --bench-baseline     # …instead rewrite results/bench_baseline.json
#   ./ci.sh --golden-baseline    # …instead rewrite results/golden_smoke.json
set -eu

cd "$(dirname "$0")"

# ----------------------------------------------------------------- manifest

STAGES="fmt build test kgbench golden bench tanh"
# bench and tanh are opt-in: excluded from a default run; bench is
# included by --bench / --bench-baseline, either by --stage
DEFAULT_STAGES="fmt build test kgbench golden"

stage_desc() {
    case "$1" in
    fmt) echo "cargo fmt --check (workspace and kgbench)" ;;
    build) echo "release build, deny warnings" ;;
    test) echo "full test suite at KGAG_THREADS=1 and 4" ;;
    kgbench) echo "benchmark package: builds against the API, tests + smoke" ;;
    golden) echo "golden-file gate: bit-identical smoke metrics" ;;
    bench) echo "bench regression gate (opt-in: --bench)" ;;
    tanh) echo "in-house tanh vs f32::tanh on all 2^32 inputs (opt-in)" ;;
    esac
}

run_fmt() {
    cargo fmt --check
    cargo fmt --check --manifest-path kgbench/Cargo.toml
}

run_build() {
    RUSTFLAGS="-D warnings" cargo build --release --offline --workspace
}

run_test() {
    KGAG_THREADS=1 cargo test -q --offline --workspace
    KGAG_THREADS=4 cargo test -q --offline --workspace
}

run_kgbench() {
    cargo test -q --release --offline --manifest-path kgbench/Cargo.toml
}

run_golden() {
    if [ "$GOLDEN_MODE" = "write" ]; then
        KGAG_THREADS=4 cargo run -q --release --offline -p kgag-bench --bin golden_check -- \
            --write-baseline
    else
        KGAG_THREADS=4 cargo run -q --release --offline -p kgag-bench --bin golden_check
    fi
}

# Bench settings shared by the gate and baseline generation — the 25%
# tolerance only means something when both sides use identical
# iteration counts.
BENCH_ENV="KGAG_BENCH_ITERS=5 KGAG_BENCH_WARMUP=1 KGAG_THREADS=4"

run_bench() {
    # regenerate into a scratch dir, then move finished artifacts into
    # place one by one: the committed artifact set is either the old
    # run or the new run, never a partially overwritten mix — and
    # bench_check hard-fails if a whole suite ends up missing anyway
    scratch="crates/bench/results/.regen.$$"
    rm -rf "$scratch"
    mkdir -p "$scratch"
    # KGAG_BENCH_DIR is resolved from the bench processes' cwd
    # (crates/bench), hence the shorter relative path
    env $BENCH_ENV KGAG_BENCH_DIR="results/.regen.$$" cargo bench --offline -p kgag-bench
    for f in "$scratch"/bench_*.json; do
        [ -e "$f" ] || continue
        mv -f "$f" "crates/bench/results/$(basename "$f")"
    done
    rmdir "$scratch"
    if [ "$BENCH_MODE" = "write" ]; then
        cargo run -q --release --offline -p kgag-bench --bin bench_check -- --write-baseline
    else
        cargo run -q --release --offline -p kgag-bench --bin bench_check
    fi
}

run_tanh() {
    cargo test -q --release --offline -p kgag-tensor --test tanh -- --ignored --nocapture
}

# ------------------------------------------------------------------- runner

GOLDEN_MODE=check
BENCH_MODE=check
SELECTED="$DEFAULT_STAGES"

usage() {
    echo "usage: ./ci.sh [--list] [--stage name[,name...]] [--bench |" >&2
    echo "               --bench-baseline | --golden-baseline]" >&2
}

list_stages() {
    echo "available stages:"
    for s in $STAGES; do
        printf '  %-10s %s\n' "$s" "$(stage_desc "$s")"
    done
}

known_stage() {
    # distinct loop variable: sh functions share the caller's scope, and
    # the validation loop below iterates with `s` too
    for ks in $STAGES; do
        [ "$ks" = "$1" ] && return 0
    done
    return 1
}

while [ $# -gt 0 ]; do
    case "$1" in
    --list)
        list_stages
        exit 0
        ;;
    --stage)
        [ $# -ge 2 ] || {
            echo "--stage needs a comma-separated stage list" >&2
            usage
            exit 2
        }
        SELECTED=$(echo "$2" | tr ',' ' ')
        for s in $SELECTED; do
            known_stage "$s" || {
                echo "unknown stage: $s" >&2
                list_stages >&2
                exit 2
            }
        done
        [ -n "$SELECTED" ] || {
            echo "--stage selected nothing" >&2
            exit 2
        }
        shift
        ;;
    --bench) SELECTED="$SELECTED bench" ;;
    --bench-baseline)
        BENCH_MODE=write
        SELECTED="$SELECTED bench"
        ;;
    --golden-baseline) GOLDEN_MODE=write ;;
    *)
        echo "unknown argument: $1" >&2
        usage
        exit 2
        ;;
    esac
    shift
done

# per-stage timing log consumed by the ci_summary binary; the EXIT trap
# turns it into results/ci_summary.json even when a stage fails
STAGE_LOG=$(mktemp)
write_summary() {
    if [ -s "$STAGE_LOG" ]; then
        cargo run -q --release --offline -p kgag-bench --bin ci_summary -- \
            --stages "$STAGE_LOG" ||
            echo "warning: could not write results/ci_summary.json" >&2
    fi
    rm -f "$STAGE_LOG"
}
trap write_summary EXIT

TOTAL=0
for s in $SELECTED; do
    TOTAL=$((TOTAL + 1))
done

N=0
for s in $SELECTED; do
    N=$((N + 1))
    echo "==> stage $N/$TOTAL: $s — $(stage_desc "$s")"
    T0=$(date +%s)
    if "run_$s"; then
        STATUS=pass
    else
        STATUS=fail
    fi
    echo "$s $STATUS $(($(date +%s) - T0))" >>"$STAGE_LOG"
    if [ "$STATUS" = "fail" ]; then
        echo "==> CI gate FAILED at stage $N/$TOTAL: $s" >&2
        exit 1
    fi
done

echo "==> CI gate passed ($TOTAL stage(s))"
