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

# The ledger is the only perf instrument (wall-clock bounds are checked by
# the benchmark pipeline, not here). Its own tests run all four
# self-checking workloads at smoke size, both passes, plus the "a seed
# fixes every count metric" determinism check, so a crates/* change that
# breaks a workload's correctness check fails here.
echo "== perf ledger (smoke-size workloads, self-checks + determinism) =="
cargo test --release --offline --manifest-path ledger/Cargo.toml

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
# LIMIT early termination, root-gets == cache-delta under pruning, and
# cost-ordered conjuncts pinned as a functional-operator call count.
echo "== batch executor (batch seams + pipelining + zone maps) =="
cargo test -q --test vectorized -- --include-ignored

# Key-prefix access paths (DESIGN.md §4h "One table of sargable bounds"):
# plan shapes over a composite-key IOT, the strict-bound regression with
# its FULL twins, point-probe DML maintaining a secondary B-tree; one
# test per cartridge that a per-entry callback DELETE reads the same
# number of pages whether 1 000 or 10 000 entries share its leading key;
# and the 3-seed composite-key differential sweep (ignored tier) whose
# seeds catch the key-prefix candidate widened by one.
echo "== key-prefix access paths (plan shapes + size independence + qgen sweep) =="
cargo test -q --test key_prefix -- --include-ignored
cargo test -q -p extidx-text -p extidx-spatial -p extidx-vir delete_cost_does_not_grow

# Durability: WAL + checkpoints. The crash-point matrix (every wal.*
# fault point x {heap, IOT, LOB, each cartridge}, with an at-call sweep
# over every call site inside the crashing statement), checkpoint
# crash/truncate behaviour, the external-file quarantine contract, the
# lifecycle/rollback bugfix pins, and the 3-seed qgen crash-recover
# sweep (recovered state bag-equal to a committed-prefix twin).
echo "== crash recovery (WAL + checkpoints + qgen sweep) =="
cargo test -q --test recovery

# MVCC: the concurrent differential oracle (N interleaved sessions vs a
# commit-order serial twin, incl. the 8-seed sweep and the 4-thread
# insert stress), the snapshot-visibility property tests (every scan
# shape, incl. the chem cartridge's shared-LOB fingerprint store; index
# builds and ANALYZE reading under a snapshot, and a build refusing
# while another transaction has uncommitted versions), and the
# two-in-flight-transactions crash tests. MVCC_SEED pins the
# default oracle run's seed; panics print the diverging seed + report.
echo "== mvcc (concurrent oracle + visibility properties) =="
MVCC_SEED="${MVCC_SEED:-1}" \
    cargo test -q --test mvcc_differential -- --include-ignored
cargo test -q --test mvcc_visibility
cargo test -q --test recovery in_flight

# Incremental vacuum + sub-LOB conflict granularity: the no-quiescence
# soak (chains bounded, drained after the last commit), the
# vacuum-never-removes-a-visible-version property across every scan
# shape, span-granular concurrent maintenance of one chem index, and
# chain-aware zone pruning. The concurrent oracle above already runs
# with a vacuum firing between scheduler steps.
echo "== vacuum (incremental GC + span conflicts + chained-zone pruning) =="
cargo test -q --test mvcc_vacuum

# Server governor: statement timeouts striking mid-scan / mid-ODCI /
# mid-maintenance / mid-backpressure-wait with full statement rollback,
# the daemon panic/fault sweep (contained, restarted, lock never
# poisoned), cross-thread cancellation, the 4-session soak with bounded
# occupancy, drop-ordering regression, and V$SERVER counters. The
# conflict storm + random-cadence sweeps ride in the --include-ignored
# runs above.
echo "== governor (daemon + timeouts + backpressure + retry) =="
cargo test -q --test server_governor

# Paper claims as counts and plan shapes (never timings): the §2.4.2
# access-path flip with selectivity, LIMIT ending an Incremental scan
# after fewer ODCIIndexFetch crossings than a full drain (§2.2.3), and
# Fetch crossings falling with batch size (§2.5).
echo "== paper claims (repro e6-optimizer, e7-scan-modes, e8-batch) =="
for e in e6-optimizer e7-scan-modes e8-batch; do
    cargo run --release -q -p extidx-bench --bin repro -- "$e"
done

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# Structural guard (DESIGN.md §4d "The crossing"): the sandbox is entered
# at exactly one place, and only that function and the two TXN marker
# helpers (trace_conflict, trace_timeout) close a trace bracket.
echo "== one ODCI crossing (structural guard) =="
[ "$(grep -rn "sandboxed_call(" crates/sql/src | wc -l)" -eq 1 ]
[ "$(grep -rnE "trace\.finish\(|trace_finish\(" crates/sql/src | wc -l)" -eq 3 ]

# One read path (DESIGN.md §4j "Snapshots and visibility"): every heap/IOT
# read of StorageEngine takes a snapshot, so no `_visible` twin may come
# back, and nothing outside crates/storage walks or probes a segment
# itself — `heap()`/`iot()` hand out shape metadata only. (`-z` reads a
# file as one record, so a call chain split across lines is caught too.)
echo "== one read path (structural guard) =="
if grep -nE "pub fn [a-z_]+_visible\(" crates/storage/src/engine.rs; then
    exit 1
fi
if grep -rlPz "\.heap\([^)]*\)\??\s*\.(scan|slot|fetch)\(|\.iot\([^)]*\)\??\s*\.(scan|get|range|prefix_scan|batch_after)\(" \
    crates/sql/src crates/qgen/src; then
    exit 1
fi

# One statement scope (DESIGN.md §4d "Statement atomicity"): a
# transaction's undo lives with the transaction in crates/storage, so no
# mutator may take a log again, nothing outside that crate may name the
# type, the loose per-statement fields of `Database` may not come back
# beside `StatementScope`, and the WAL variants their placement-explicit
# forms superseded stay deleted (`\b` leaves `…At`/`…Ord` alone).
echo "== one statement scope (structural guard) =="
if grep -rn "Option<&mut UndoLog>" crates; then
    exit 1
fi
if grep -rn "UndoLog" crates/sql crates/qgen crates/bench tests ledger/src; then
    exit 1
fi
if grep -rnE "stmt_undo|txn_undo|stmt_created|stmt_maint|stmt_pending" crates/sql/src; then
    exit 1
fi
if grep -rnE "WalRecord::(CreateHeap|CreateIot|HeapInsert|IotInsert|IotUpsert|LobAllocate)\b" crates; then
    exit 1
fi

# One key-bound builder (DESIGN.md §4h): the leading-column special case
# (a candidate that could consume one conjunct only) stays gone, the
# sargable matchers are called from the bounds table's builder alone, and
# no cartridge grew a bypass — each still issues its per-entry callback
# DELETE, exactly once, and the server turns it into a point probe.
echo "== one key-bound builder (structural guard) =="
if grep -n "consumed: Option<usize>" crates/sql/src/optimizer.rs; then
    exit 1
fi
[ "$(grep -cE "match_col_relop\(|match_between\(" crates/sql/src/optimizer.rs)" -eq 4 ]
[ "$(grep -c "WHERE token = ? AND rid = ?" crates/text/src/cartridge.rs)" -eq 1 ]
[ "$(grep -c "WHERE tile = ? AND rid = ?" crates/spatial/src/cartridge.rs)" -eq 1 ]
[ "$(grep -c "WHERE q1 = ? AND rid = ?" crates/vir/src/cartridge.rs)" -eq 1 ]

# One perf instrument: no hand-set timing floor, bench-record writer or
# micro-bench harness may come back beside the ledger. (Bracketed so the
# pattern does not match this file.)
echo "== one perf instrument (structural guard) =="
if grep -rnE "_MI[N]_|_MAX_OVERHEA[D]|emit_bench_jso[n]|BENCH_OU[T]|criterio[n]" \
    crates scripts shims Cargo.toml .gitignore; then
    exit 1
fi

echo "CI OK"
