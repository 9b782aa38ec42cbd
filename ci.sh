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

step "library crates forbid unsafe"
# Every library crate, the façade included, carries the attribute, so
# the compiler keeps `unsafe` out of the library and a new crate cannot
# start without it. Test files (the counting allocators) are not
# library code.
for lib in src/lib.rs crates/*/src/lib.rs; do
    if ! grep -qx '#!\[forbid(unsafe_code)\]' "$lib"; then
        echo "$lib lacks #![forbid(unsafe_code)]"
        exit 1
    fi
done

step "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

step "cargo doc (deny warnings)"
# Broken or private intra-doc links fail here rather than rotting.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

step "tier-1 verify: release build + tests"
# `--locked` here and in the benchmark step: a manifest edit that would
# rewrite `Cargo.lock` or `perfbench/Cargo.lock` fails CI instead of
# leaving the checkout modified.
cargo build --release --offline --locked
# Test builds carry every debug check: the tile-ownership guard, the
# mid-flight single-writer sweeps, and the event queue's reference
# check (every wheel pop in the suite, which runs each scenario's smoke
# cells, the goldens and the corpus, must return the minimum of a
# key-only heap of everything pending).
cargo test -q --offline --locked

step "benchmark package: build + tests"
# perfbench is a cargo package of its own (empty [workspace]), so the
# workspace build above does not compile it. It copies CohEvent by value
# and implements CohContext: an API change that breaks it must fail
# here, not when the benchmark is next run.
cargo test -q --release --offline --locked --manifest-path perfbench/Cargo.toml

step "smoke sweep: every scenario recorded, 2 parallel jobs; every trace replayed"
# One sweep of every scenario at smoke size. Each scenario's in-cell
# asserts gate it here; recording only adds trace files, so rows and
# asserts are those of an unrecorded sweep (the tier-1 step runs that
# path in registry.rs). Among the asserts:
# - lock showdown (delegation locks MCS/CLH/FC/CCSynch + lease hybrids
#   vs the paper's TTS/leased locks over one delegated stack): steady
#   state sends zero simulated allocator messages (node pools are
#   pre-allocated), every delegated op is combined exactly once, and
#   the stack's push/pop/empty ledger balances;
# - NUMA serving (Zipfian KV serving over plain MSI, lease/release and
#   node replication at 1/2/4 sockets): every key lands exactly on the
#   pre-generated op ledger under all three protocols, app_ops equals
#   threads × ops, single-socket cells send zero cross-socket
#   messages (the sockets=1 degeneracy), and multi-socket cells with
#   workers on more than one socket actually cross the link.
# Then every recorded simulation is re-driven engine-only: the replayed
# MachineStats must match the live run byte-for-byte (exit non-zero on
# any divergence).
TR_DIR=$(mktemp -d)
cargo run -q --release --offline -p lr-bench --bin lr-bench -- \
    --smoke --jobs 2 --record "$TR_DIR" > /dev/null
# No pipe here: a pipeline would report tail's status, not the replay's.
cargo run -q --release --offline -p lr-replay --bin lr-replay -- \
    "$TR_DIR" > "$TR_DIR/replay.txt"
tail -n 1 "$TR_DIR/replay.txt"
rm -rf "$TR_DIR"

step "NUMA serving: the kilo-core cell, recorded and replayed"
# 1024 simulated cores across 4 sockets — the scale the NUMA tier exists
# for. The NUMA in-cell ledger and cross-socket asserts above gate it
# too. It runs recorded, and its trace is replayed: the only check of
# trace capture with 1024 workers.
KC_DIR=$(mktemp -d)
cargo run -q --release --offline -p lr-bench --bin lr-bench -- \
    --scenario numa_serving --threads 1024 --ops 8 --series .s4 \
    --record "$KC_DIR" > /dev/null
cargo run -q --release --offline -p lr-replay --bin lr-replay -- \
    "$KC_DIR" > "$KC_DIR/replay.txt"
tail -n 1 "$KC_DIR/replay.txt"
rm -rf "$KC_DIR"

step "fuzz farm: seeded differential campaign, twice, diffed"
# Replay-driven differential fuzzing over a fixed seed range: each seed
# records live under msi/mesi/lease-tight, replays every trace once,
# and checks the workload's built-in FAA-ledger and app-ops invariants.
# The campaign runs twice and the outputs are diffed: the farm itself
# must be byte-deterministic.
FZ_DIR=$(mktemp -d)
cargo run -q --release --offline -p lr-fuzz --bin lr-fuzz -- \
    --seeds 64 --repro-dir "$FZ_DIR/repro" > "$FZ_DIR/run1.txt"
cargo run -q --release --offline -p lr-fuzz --bin lr-fuzz -- \
    --seeds 64 --repro-dir "$FZ_DIR/repro" > "$FZ_DIR/run2.txt"
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
# Every committed trace must replay byte-identical.
# Regenerate with: lr-fuzz --regen-corpus corpus --seeds 4
cargo run -q --release --offline -p lr-replay --bin lr-replay -- corpus

step
printf '%s' "$TIMES"
echo "   total $(secs $(($(ms) - CI_T0))) s"
echo "CI OK"
