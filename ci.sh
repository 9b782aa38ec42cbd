#!/bin/sh
# Offline CI gate: formatting, lints, release build, full test suite.
# Run from the repository root. Everything here works without network
# access — the workspace has no external dependencies.
set -eu

# Per-step wall time: `step NAME` closes the running step (printing
# how long it took) and opens the next one; `step` with no name closes
# the last. The table and the total print once every step has passed.
ms() {
    t=$(date +%s%N)
    # A date(1) without %N (BSD, busybox) falls back to whole seconds.
    case $t in *N) t=$(($(date +%s) * 1000000000)) ;; esac
    echo $((t / 1000000))
}
secs() { echo "$(($1 / 1000)).$(($1 % 1000 / 100))"; }
CI_T0=$(ms)
STEP=""
STEP_T0=$CI_T0
TIMES=""
step() {
    now=$(ms)
    if [ -n "$STEP" ]; then
        took=$(secs $((now - STEP_T0)))
        echo "   ($took s)"
        TIMES="$TIMES$(printf '%8s s  %s' "$took" "$STEP")
"
    fi
    STEP=${1:-}
    STEP_T0=$now
    if [ -n "$STEP" ]; then echo "== $STEP =="; fi
}

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

step "tier-1 verify: release build + tests"
cargo build --release --offline
cargo test -q --offline

step "benchmark package: build + tests"
# perfbench is a cargo package of its own (empty [workspace]), so the
# workspace build above does not compile it. It copies CohEvent by value
# and implements CohContext: an API change that breaks it must fail
# here, not when the benchmark is next run.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

step "strict invariant checking"
cargo test -q --offline --workspace --features lease-release/strict-invariants

step "driver smoke: every scenario, 2 parallel jobs"
LR_NO_JSON=1 cargo run -q --release --offline -p lr-bench --bin lr-bench -- --smoke --jobs 2 > /dev/null

step "event-queue A/B: heap vs wheel must be byte-identical"
# Every deterministic (sim) scenario, run once per event-queue store:
# the emitted rows and every BENCH_*.json must not differ by one byte.
# Wall-clock scenarios (--kind host/wall) are exempt by nature.
AB_DIR=$(mktemp -d)
mkdir -p "$AB_DIR/json_heap" "$AB_DIR/json_wheel"
# The "JSON -> <path>" banner echoes the per-variant output directory;
# everything else must match exactly.
LR_EVENTQ=heap LR_JSON_DIR="$AB_DIR/json_heap" \
    cargo run -q --release --offline -p lr-bench --bin lr-bench -- \
    --smoke --jobs 2 --kind sim | grep -v "^JSON -> " > "$AB_DIR/rows_heap.txt"
LR_EVENTQ=wheel LR_JSON_DIR="$AB_DIR/json_wheel" \
    cargo run -q --release --offline -p lr-bench --bin lr-bench -- \
    --smoke --jobs 2 --kind sim | grep -v "^JSON -> " > "$AB_DIR/rows_wheel.txt"
diff -u "$AB_DIR/rows_heap.txt" "$AB_DIR/rows_wheel.txt"
diff -ru "$AB_DIR/json_heap" "$AB_DIR/json_wheel"
rm -rf "$AB_DIR"

step "engine throughput smoke (gates on completion, not numbers)"
LR_NO_JSON=1 cargo run -q --release --offline -p lr-bench --bin lr-bench -- --scenario engine_throughput --smoke > /dev/null

step "lock showdown smoke (asserts zero allocator msgs + combiner ledger)"
# Delegation locks (MCS/CLH/FC/CCSynch + lease hybrids) vs the paper's
# TTS/leased locks over the same delegated stack. The scenario asserts,
# in-cell, that steady state sends zero simulated allocator messages
# (node pools are pre-allocated), that every delegated op is combined
# exactly once, and that the stack's push/pop/empty ledger balances.
# As a ScenarioKind::Sim entry it also rides the --kind sim event-queue
# A/B gate above and the record/replay gate below.
LR_NO_JSON=1 cargo run -q --release --offline -p lr-bench --bin lr-bench -- --scenario lock_showdown --smoke > /dev/null

step "NUMA serving smoke (asserts op ledger + cross-socket traffic shape)"
# Zipfian KV serving over the multi-socket topology: plain MSI vs
# lease/release vs node replication at 1/2/4 sockets. The scenario
# asserts, in-cell, that every key lands exactly on the pre-generated
# op ledger under all three protocols, that app_ops matches the issued
# count, that single-socket cells send zero cross-socket messages (the
# sockets=1 degeneracy), and that multi-socket cells with workers on
# more than one socket actually cross the link. As a ScenarioKind::Sim
# entry it also rides the --kind sim event-queue A/B gate above and the
# record/replay gate below.
LR_NO_JSON=1 cargo run -q --release --offline -p lr-bench --bin lr-bench -- --scenario numa_serving --smoke > /dev/null
# The kilo-core cell: 1024 simulated cores across 4 sockets — the scale
# the NUMA tier exists for. The same in-cell ledger and cross-socket
# asserts gate it. It runs recorded, and its trace is replayed on the
# reference heap store: the only check of trace capture with 1024
# workers, and of the wheel's kilo-core event order against the heap.
KC_DIR=$(mktemp -d)
LR_NO_JSON=1 cargo run -q --release --offline -p lr-bench --bin lr-bench -- \
    --scenario numa_serving --threads 1024 --ops 8 --series .s4 \
    --record "$KC_DIR" > /dev/null
LR_EVENTQ=heap cargo run -q --release --offline -p lr-bench --bin lr-bench -- \
    --replay "$KC_DIR" > "$KC_DIR/replay.txt"
tail -n 1 "$KC_DIR/replay.txt"
rm -rf "$KC_DIR"

step "record/replay: every sim scenario must replay byte-identical"
# Record every deterministic simulation of a smoke sweep as a trace,
# then re-drive each trace engine-only: the replayed MachineStats must
# match the live run byte-for-byte (exit non-zero on any divergence).
TR_DIR=$(mktemp -d)
LR_NO_JSON=1 cargo run -q --release --offline -p lr-bench --bin lr-bench -- \
    --smoke --jobs 2 --kind sim --record "$TR_DIR" > /dev/null
# No pipe here: a pipeline would report tail's status, not the replay's.
cargo run -q --release --offline -p lr-bench --bin lr-bench -- \
    --replay "$TR_DIR" > "$TR_DIR/replay.txt"
tail -n 1 "$TR_DIR/replay.txt"
rm -rf "$TR_DIR"

step "fuzz farm: seeded differential campaign, twice, diffed"
# Replay-driven differential fuzzing over a fixed seed range: each seed
# records live under msi/mesi/lease-tight, replays every trace under
# both event-queue stores, and checks the workload's built-in FAA-ledger
# and app-ops invariants. The campaign runs twice and the outputs are
# diffed: the farm itself must be byte-deterministic. LR_FUZZ_SEEDS
# opts in to a longer run (default 64 seeds, sub-second).
FZ_DIR=$(mktemp -d)
cargo run -q --release --offline -p lr-fuzz --bin lr-fuzz -- \
    --seeds "${LR_FUZZ_SEEDS:-64}" --repro-dir "$FZ_DIR/repro" > "$FZ_DIR/run1.txt"
cargo run -q --release --offline -p lr-fuzz --bin lr-fuzz -- \
    --seeds "${LR_FUZZ_SEEDS:-64}" --repro-dir "$FZ_DIR/repro" > "$FZ_DIR/run2.txt"
diff -u "$FZ_DIR/run1.txt" "$FZ_DIR/run2.txt"
tail -n 1 "$FZ_DIR/run1.txt"

step "fuzz farm: injected-mutation detection drill"
# Flip one reply flag in a real recording: the farm must catch it at its
# exact coordinates, shrink the workload to a single op, and persist a
# reproducer that still fails verification after a disk round-trip.
cargo run -q --release --offline -p lr-fuzz --bin lr-fuzz -- \
    --self-test --repro-dir "$FZ_DIR/drill"
rm -rf "$FZ_DIR"

step "fuzz farm: checked-in regression corpus"
# Every committed trace must replay byte-identical under both event
# queues.
# Regenerate with: lr-fuzz --regen-corpus corpus --seeds 4
cargo run -q --release --offline -p lr-fuzz --bin lr-fuzz -- \
    --check-corpus corpus

step
printf '%s' "$TIMES"
echo "   total $(secs $(($(ms) - CI_T0))) s"
echo "CI OK"
