#!/usr/bin/env bash
# Tier-1 gate + lints. Run from anywhere; works fully offline (all
# third-party deps are vendored as path shims — see shims/README.md).
#
# Note: cargo only accepts CARGO_NET_OFFLINE=true/false, not 0/1.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

echo "== build (release) =="
cargo build --release

# The perf ledger (BENCHMARK.json) is its own workspace, so the build
# above never compiles it: check here that a crates/* API change has not
# broken it, rather than in the benchmark pipeline.
echo "== build (perf ledger, offline) =="
cargo build --release --offline --manifest-path ledger/Cargo.toml

echo "== tests (workspace, including ignored long sweeps) =="
cargo test --workspace -q -- --include-ignored

# Differential query oracle (tests/differential.rs). DIFF_SEED picks the
# seed of the default 200-statement run (decimal or 0x-hex); on a
# divergence the test's panic output prints the failing seed and the
# delta-debugged minimal SQL repro script.
echo "== differential oracle (DIFF_SEED=${DIFF_SEED:-0xD1FF}) =="
DIFF_SEED="${DIFF_SEED:-0xD1FF}" \
    cargo test -q --test differential -- --include-ignored --nocapture

echo "== fault matrix (statement atomicity at every cartridge crossing) =="
cargo test -q --test fault_matrix -- --include-ignored

# Observability layer: EXPLAIN ANALYZE instrumentation + V$ virtual
# tables + scan-lifecycle invariants, then the per-cartridge EXPLAIN
# ANALYZE smoke tests (all five indextypes annotate their domain scan).
echo "== observability (EXPLAIN ANALYZE + V\$ smoke) =="
cargo test -q --test observability --test scan_lifecycle
cargo test -q -p extidx-text -p extidx-spatial -p extidx-vir -p extidx-chem explain_analyze

# Cartridge sandbox: the quarantine state machine end to end, the panic
# fault matrix (FaultKind::Panic at every ODCI crossing and every
# cartridge-internal fault point), and the 3-seed qgen chaos sweep that
# flips indexes QUARANTINED<->VALID mid-workload demanding bag-equality.
echo "== cartridge sandbox (quarantine + panic containment) =="
cargo test -q --test quarantine
cargo test -q --test fault_matrix panic_at_every_crossing -- --include-ignored
cargo test -q --test differential quarantine_chaos_sweep -- --include-ignored
# The §2.5 callback-restriction suite shares one process-global MODE
# across parallel test threads (serialized by MODE_LOCK): loop it so a
# regression of that lock shows up here, not as a 1-in-10 flake.
for _ in $(seq 10); do
    cargo test -q -p extidx-sql --test callback_restrictions
done

# Batch executor (the only row path): batch-seam cases against
# closed-form answers (joins emitting > BATCH_TARGET rows, inner scans
# spanning batches, ragged LIMIT over a join, GROUP BY / DISTINCT /
# ORDER BY over several input batches), one ODCIIndexFetch for a
# cursor's first row (scan and domain join), zone-map widen-never-narrow,
# LIMIT early termination, and root-gets == cache-delta under pruning.
echo "== batch executor (batch seams + pipelining + zone maps) =="
cargo test -q --test vectorized -- --include-ignored

# Durability: WAL + checkpoints. The crash-point matrix (every wal.*
# fault point x {heap, IOT, LOB, each cartridge}, with an at-call sweep
# over every call site inside the crashing statement), checkpoint
# crash/truncate behaviour, the external-file quarantine contract, the
# lifecycle/rollback bugfix pins, and the 3-seed qgen crash-recover
# sweep (recovered state bag-equal to a committed-prefix twin).
echo "== crash recovery (WAL + checkpoints + qgen sweep) =="
cargo test -q --test recovery

# Bench smoke: the E15 repro must clear its speedup floors at a reduced
# N — part A is zone pruning on vs off over a cold filtered scan
# (E15_MIN_SCAN_SPEEDUP, default 5x), part B cost-ordered vs source-order
# conjuncts (E15_MIN_ORDER_SPEEDUP, default 2x) — and leave
# machine-readable BENCH_*.json records under target/bench-json.
echo "== bench smoke (e15-vectorized + BENCH_*.json) =="
mkdir -p target/bench-json
E15_N=20000 E15_RUNS=3 \
    BENCH_OUT=target/bench-json \
    GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    BENCH_DATE="$(date -u +%F)" \
    cargo run --release -q -p extidx-bench --bin repro -- e15-vectorized
ls target/bench-json/BENCH_e15_cold_scan.json target/bench-json/BENCH_e15_cost_ordered.json

# Durability tax: the E16 repro measures the same workload with the WAL
# off vs on (ceiling: 3x), plus checkpoint and recovery timings, and
# records the durable-run median as BENCH_e16_wal_overhead.json.
echo "== bench smoke (e16-wal + wal_overhead BENCH json) =="
E16_N=5000 E16_RUNS=3 \
    BENCH_OUT=target/bench-json \
    GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    BENCH_DATE="$(date -u +%F)" \
    cargo run --release -q -p extidx-bench --bin repro -- e16-wal
ls target/bench-json/BENCH_e16_wal_overhead.json

# MVCC: the concurrent differential oracle (N interleaved sessions vs a
# commit-order serial twin, incl. the 8-seed sweep and the 4-thread
# insert stress), the snapshot-visibility property tests (every scan
# shape, incl. the chem cartridge's shared-LOB fingerprint store), and
# the two-in-flight-transactions crash tests. MVCC_SEED pins the
# default oracle run's seed; panics print the diverging seed + report.
echo "== mvcc (concurrent oracle + visibility properties) =="
MVCC_SEED="${MVCC_SEED:-1}" \
    cargo test -q --test mvcc_differential -- --include-ignored
cargo test -q --test mvcc_visibility
cargo test -q --test recovery in_flight

# MVCC bench smoke: aggregate read throughput of 4 reader sessions while
# a writer transaction is in flight — snapshot readers vs a writer-fair
# big lock that excludes readers for the transaction's lifetime. Floor
# 2x; records the MVCC run as BENCH_e17_mvcc.json.
echo "== bench smoke (e17-mvcc + BENCH json) =="
E17_TXNS=15 \
    BENCH_OUT=target/bench-json \
    GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    BENCH_DATE="$(date -u +%F)" \
    cargo run --release -q -p extidx-bench --bin repro -- e17-mvcc
ls target/bench-json/BENCH_e17_mvcc.json

# Incremental vacuum + sub-LOB conflict granularity: the no-quiescence
# soak (chains bounded, drained after the last commit), the
# vacuum-never-removes-a-visible-version property across every scan
# shape, span-granular concurrent maintenance of one chem index, and
# chain-aware zone pruning. The concurrent oracle above already runs
# with a vacuum firing between scheduler steps.
echo "== vacuum (incremental GC + span conflicts + chained-zone pruning) =="
cargo test -q --test mvcc_vacuum

# Vacuum bench smoke: under a never-quiescent update stream the
# incremental pass must keep chain occupancy bounded (cap 16), and
# byte-range LOB spans must commit every disjoint-row writer pair.
# Records BENCH_e18_vacuum.json.
echo "== bench smoke (e18-vacuum + BENCH json) =="
E18_ROUNDS=200 E18_PAIRS=25 \
    BENCH_OUT=target/bench-json \
    GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    BENCH_DATE="$(date -u +%F)" \
    cargo run --release -q -p extidx-bench --bin repro -- e18-vacuum
ls target/bench-json/BENCH_e18_vacuum.json

# Server governor: statement timeouts striking mid-scan / mid-ODCI /
# mid-maintenance / mid-backpressure-wait with full statement rollback,
# the daemon panic/fault sweep (contained, restarted, lock never
# poisoned), cross-thread cancellation, the 4-session soak with bounded
# occupancy, drop-ordering regression, and V$SERVER counters. The
# conflict storm + random-cadence sweeps ride in the --include-ignored
# runs above.
echo "== governor (daemon + timeouts + backpressure + retry) =="
cargo test -q --test server_governor

# Governor bench smoke: foreground p99 statement latency with the
# maintenance daemon owning the vacuum cadence vs inline vacuum
# on every commit, under a pinned-horizon chain set the vacuum must scan
# but cannot reclaim. Floor 2x; records BENCH_e19_governor.json.
echo "== bench smoke (e19-governor + BENCH json) =="
E19_CHURN=800 E19_ROUNDS=120 \
    BENCH_OUT=target/bench-json \
    GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    BENCH_DATE="$(date -u +%F)" \
    cargo run --release -q -p extidx-bench --bin repro -- e19-governor
ls target/bench-json/BENCH_e19_governor.json

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# Structural guard (DESIGN.md §4d "The crossing"): the sandbox is entered
# at exactly one place, and only that function and the two TXN marker
# helpers (trace_conflict, trace_timeout) close a trace bracket.
echo "== one ODCI crossing (structural guard) =="
[ "$(grep -rn "sandboxed_call(" crates/sql/src | wc -l)" -eq 1 ]
[ "$(grep -rnE "trace\.finish\(|trace_finish\(" crates/sql/src | wc -l)" -eq 3 ]

echo "CI OK"
