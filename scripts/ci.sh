#!/usr/bin/env bash
# Tier-1 gate + lints. Run from anywhere; works fully offline (all
# third-party deps are vendored as path shims — see shims/README.md).
#
# Note: cargo only accepts CARGO_NET_OFFLINE=true/false, not 0/1.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

# Run tests by name: `by_name <cargo test args> -- <names> [--include-ignored]`.
# Every name must match a test of the selection (as cargo's filter does, by
# substring), so a renamed test fails the gate instead of passing by
# running nothing.
by_name() {
    local args=() names=() flags=() listed name
    while [ "$1" != -- ]; do args+=("$1"); shift; done
    shift
    for name in "$@"; do
        case "$name" in --*) flags+=("$name") ;; *) names+=("$name") ;; esac
    done
    listed=$(cargo test "${args[@]}" -- --list | sed -n 's/: test$//p')
    for name in "${names[@]}"; do
        if ! grep -qF -- "$name" <<<"$listed"; then
            echo "no test matches '$name' in: cargo test ${args[*]}" >&2
            exit 1
        fi
    done
    cargo test "${args[@]}" -- "${names[@]}" "${flags[@]}"
}

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

# (The chaos sweep ran in the workspace run above; it runs once a pass.)
echo "== fault matrix (statement atomicity at every cartridge crossing) =="
cargo test -q --test fault_matrix -- --include-ignored \
    --skip chaos_faults_never_desynchronize_the_index

# Observability layer: EXPLAIN ANALYZE instrumentation + V$ virtual
# tables + scan-lifecycle invariants, the V$ list checked against what
# every view answers (row width, column types, row count), then the
# per-cartridge EXPLAIN ANALYZE smoke tests (all five indextypes annotate
# their domain scan).
echo "== observability (EXPLAIN ANALYZE + V\$ smoke) =="
cargo test -q --test observability --test scan_lifecycle
by_name -q -p extidx-sql --lib -- vtables::tests
by_name -q -p extidx-text -p extidx-spatial -p extidx-vir -p extidx-chem -- explain_analyze

# Cartridge sandbox: the quarantine state machine end to end, the panic
# fault matrix (FaultKind::Panic at every ODCI crossing and every
# cartridge-internal fault point), and the 3-seed qgen chaos sweep that
# flips indexes QUARANTINED<->VALID mid-workload demanding bag-equality.
echo "== cartridge sandbox (quarantine + panic containment) =="
cargo test -q --test quarantine
by_name -q --test fault_matrix -- panic_at_every_crossing --include-ignored
by_name -q --test differential -- quarantine_chaos_sweep --include-ignored
# The one callback surface: a scan routine is refused every mutating
# callback (same text, same tick charge, nothing changed, no handler
# registered), and every read callback answers the same on both lanes.
cargo test -q -p extidx-sql --test callback_surface
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
# cost-ordered conjuncts pinned as a functional-operator call count. Then
# compiled filter terms (DESIGN.md §4h): compiled ≡ eval over every value
# kind × relop × operand order × literal/bind, BETWEEN bounds, the hidden
# ROWID slot and missing binds; and EXPLAIN ANALYZE of a compiled term equal,
# line for line, to its generic twin's.
echo "== batch executor (batch seams + pipelining + zone maps + compiled terms) =="
cargo test -q --test vectorized -- --include-ignored
by_name -q -p extidx-sql --lib -- executor::tests
cargo test -q --test rows_copied_once
# One domain-index access path (DESIGN.md §4b "Domain join"): a domain join
# is a domain scan with an outer input. An outer row with a NULL argument
# gets an empty pass and no ODCIIndexStart; and NO_INDEX / FULL on the
# inner table plan the functional twin. The generated join form of the
# differential oracle (qgen) holds indexed ≡ mirror ≡ NO_INDEX and
# Start ≡ Close for every operator (the "one operator spec" stanza).
by_name -q --test consistency -- a_null_outer_argument_empties_its_domain_join_pass \
    no_index_and_full_hints_bind_a_domain_join
by_name -q --test scan_lifecycle -- domain_join_scans_balance_under_faults
# Set-at-a-time domain scans: one batched ODCIIndexStart per outer batch.
# The indexed column second keeps an asymmetric mask's direction (scan and
# join, both spatial indextypes, which declare either position), and text,
# VIR and chem, which declare the first only, are never planned with it
# there: a forced index is refused, an unhinted scan or join is functional;
# faults at a batch's Start and at fetches with later argument rows
# pending leave Start ≡ Close and the answers unchanged (a cartridge's own
# start_batch and the core default); a tick budget that fits row by row
# fits the batch; and the core default's per-row scans are tagged, closed
# and cleaned up on a failed row.
by_name -q --test consistency -- an_indexed_column_second_keeps_the_masks_direction_in_a_scan \
    an_indexed_column_second_keeps_the_masks_direction_in_a_join \
    text_vir_and_chem_refuse_an_indexed_column_second \
    an_unhinted_query_uses_an_index_only_at_a_declared_argument_position
by_name -q --test scan_lifecycle -- \
    faults_inside_a_batch_leave_the_join_balanced_and_its_answers_unchanged \
    the_default_batch_of_a_text_join_balances_under_faults \
    a_tiny_tick_budget_that_fits_row_by_row_fits_the_batched_join
by_name -q -p extidx-core --test mock_server -- the_default_

# Key-prefix access paths (DESIGN.md §4h "One table of sargable bounds"):
# plan shapes over a composite-key IOT, the strict-bound regression with
# its FULL twins, point-probe DML maintaining a secondary B-tree; one
# test per cartridge that a per-entry callback DELETE reads the same
# number of pages whether 1 000 or 10 000 entries share its leading key;
# and the 3-seed composite-key differential sweep (ignored tier) whose
# seeds catch the key-prefix candidate widened by one.
echo "== key-prefix access paths (plan shapes + size independence + qgen sweep) =="
cargo test -q --test key_prefix -- --include-ignored
by_name -q -p extidx-text -p extidx-spatial -p extidx-vir -- delete_cost_does_not_grow

# The statement cache (DESIGN.md §4m): the stale-plan tests — each
# changes one input of a cached plan's validity stamp (CREATE/DROP INDEX,
# quarantine and REBUILD, DROP + CREATE TABLE, ANALYZE, a table's growth,
# crash recovery) and demands the answer of a twin planned
# afresh — the bind cases (NULL key binds, a reversed BETWEEN, a stale
# ROWID, too few binds, every callback shape planned like its literal
# form), and the bind ≡ literal qgen sweep, whose warm-up binds catch a
# plan shaped by the values it was costed at.
echo "== statement cache (stale plans + bind semantics + bind = literal sweep) =="
cargo test -q --test plan_cache --test binds
by_name -q --test differential -- bind_literal_sweep --include-ignored

# Durability: WAL + checkpoints. The crash-point matrix (every wal.*
# fault point x {heap, IOT, LOB, each cartridge}, with an at-call sweep
# over every call site inside the crashing statement), checkpoint
# crash/truncate behaviour, fuzzy checkpoints (inside open transactions,
# crash points inside one with two sessions mid-transaction, the
# 4-session bounded-WAL soak), the two-media equivalence test (a medium
# that checkpoints recovers exactly what one that never does recovers),
# the dead-tail pins (a statement lost in a crash stays lost after a
# second one; a chem FILE quarantine survives it), the external-file
# quarantine contract, the lifecycle/rollback bugfix pins, the 3-seed
# qgen crash-recover sweep (recovered state bag-equal to a
# committed-prefix twin) and, ignored tier, its multi-crash
# recover-and-resume arm with seeded checkpoints between the crashes.
echo "== crash recovery (WAL + checkpoints + qgen sweeps) =="
cargo test -q --test recovery -- --include-ignored
# One before-image (DESIGN.md §4j): a ROLLBACK whose first compensation
# cannot reach the WAL leaves every version it had not taken back readable
# (each undo entry leaves the log only once its compensation is applied).
by_name -q --test recovery -- a_rollback_stopped_by_a_fault_leaves_every_version_readable
# Replay reproduces the live placement (DESIGN.md §4i "One apply"): a
# seeded heap / IOT / LOB history with statement and transaction
# rollbacks and checkpoints, recovered and compared slot for slot with the
# engine that wrote it — rows by rowid, where the next inserts land, IOT
# ordinals, LOB bytes — plus the six-insert / four-delete / one-insert
# probe whose free list once came back reordered.
cargo test -q -p extidx-storage --test replay_placement

# The WAL watermark (DESIGN.md §4i): with no client checkpoint, two
# sessions' transaction ends keep the WAL under WAL_FOLD_RECORDS plus the
# open transactions' records, and recovery equals the committed history; a
# crash inside a fold at a transaction end keeps the committed prefix;
# V$WAL has no row without durability. The fold has one placement
# (`maintenance_after_txn_end`, the one non-test use of the constant) and
# no thread of its own. (Bracketed so the patterns do not match this file.)
echo "== WAL watermark (bound + crash inside a fold + one fold placement) =="
by_name -q --test wal_bound -- \
    two_sessions_without_a_client_checkpoint_keep_the_wal_under_the_watermark \
    a_crash_inside_a_fold_at_transaction_end_keeps_the_committed_prefix
by_name -q -p extidx-sql --lib -- vtables::tests::the_wal_view_is_empty_without_durability
fold_uses=$(for f in crates/sql/src/*.rs; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ": " $0 }' "$f"
done | grep "WAL_FOLD_RECORD[S]" | grep -vE ": *//|const WAL_FOLD_RECORD[S]")
[ "$(echo "$fold_uses" | grep -c .)" -eq 1 ]
if grep -n "thread::spaw[n]" crates/sql/src/session.rs crates/sql/src/database.rs; then
    exit 1
fi

# MVCC: the concurrent differential oracle (N interleaved sessions vs a
# commit-order serial twin, incl. the 8-seed sweep and the 4-thread
# insert stress), the snapshot-visibility property tests (every scan
# shape, incl. the chem cartridge's shared-LOB fingerprint store; index
# builds and ANALYZE reading under a snapshot, and a build refusing
# while another transaction has uncommitted versions), and the
# two-in-flight-transactions crash tests. MVCC_SEED pins the
# default oracle run's seed; panics print the diverging seed + report.
# The concurrent oracle schedules a `Database`-lane client beside the
# sessions, and mvcc_visibility pins the one transaction rule: that
# client's autocommit loses to a session's open write, its open
# transaction stays invisible to sessions, and TRUNCATE / DROP TABLE
# refuse while a snapshot is pinned.
echo "== mvcc (concurrent oracle + visibility properties) =="
MVCC_SEED="${MVCC_SEED:-1}" \
    cargo test -q --test mvcc_differential -- --include-ignored
cargo test -q --test mvcc_visibility
by_name -q --test recovery -- in_flight
# First-writer-wins decided once, at write time, from the version chain
# (DESIGN.md §4j "Write conflicts"): the engine-level conflict tests (a
# second writer loses to an active or later-committed first one, checks
# off let it through, LOB spans conflict by byte range and by allocation,
# a committed conflict lasts exactly as long as its snapshot pins the
# horizon, a rolled-back write wins nothing), then the heap = IOT property
# against its reference model of the rule, at 512 cases.
by_name -q -p extidx-storage --lib -- second_writer_loses_at_write_time \
    lob_span_conflicts_are_range_granular a_lob_allocated_after_the_snapshot_loses \
    a_committed_conflict_lasts_while_its_snapshot_pins_the_horizon \
    a_rolled_back_write_wins_no_conflict
PROPTEST_CASES=512 by_name -q -p extidx-storage --test properties -- \
    heap_and_iot_share_one_row_version
# One before-image per write (DESIGN.md §4j): a displaced version names the
# undo entry holding its image, and the rollback pop matches that position,
# never row contents — A's statement rollback after an update that left the
# row equal keeps A's stamp, so B's update of the row still loses. The
# engine tests read an older snapshot's image out of the entry itself,
# keep a committed log exactly while a reader needs it, and hold an entry
# to one WAL record's 48 bytes.
by_name -q --test mvcc_visibility -- a_statement_rollback_keeps_an_earlier_write_of_the_same_image
by_name -q -p extidx-storage --lib -- an_older_snapshot_reads_the_undo_entry_itself \
    a_log_outlives_its_transaction_only_while_a_version_reads_it \
    an_undo_entry_is_one_wal_record_wide

# Incremental vacuum + sub-LOB conflict granularity: the no-quiescence
# soak (chains bounded, drained after the last commit), the
# vacuum-never-removes-a-visible-version property across every scan
# shape, span-granular concurrent maintenance of one chem index, and
# chain-aware zone pruning. The concurrent oracle above already runs
# with a vacuum firing between scheduler steps.
echo "== vacuum (incremental GC + span conflicts + chained-zone pruning) =="
cargo test -q --test mvcc_vacuum

# Server governor: statement timeouts striking mid-scan / mid-ODCI /
# mid-maintenance with full statement rollback, cross-thread
# cancellation, the 4-session soak that the transaction ends alone drain
# to zero occupancy, orphaned transactions aborted by the next write-lock
# holder (teardown included), and V$SERVER counters. The conflict storm +
# random-cadence sweeps ride in the --include-ignored runs above.
echo "== governor (timeouts + orphans + retry + maintenance at transaction end) =="
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

# One IOT read (DESIGN.md §4j "One read path"): `iot_range` is the only IOT
# read, one merge of the segment's rows with its version chains over the
# same key bounds. The whole-segment merge, the two-armed readers it backed
# and the ordinal side map stay deleted, and the chain map is read by key
# range in exactly one place.
echo "== one IOT read (structural guard) =="
if grep -rnE "iot_visible_merged|iot_scan_with_rids|iot_range_with_rids|iot_batch_after|scan_with_ordinals|fn batch_after|fn prefix_scan| ords:" \
    crates/storage/src; then
    exit 1
fi
[ "$(grep -cE "versions\.iot\b.*\.range\(" crates/storage/src/engine.rs)" -eq 1 ]

# One row version (DESIGN.md §4j "Overlay version store"): heap and IOT rows
# share one chain type, one visibility rule, one write check and one
# rollback pop in mvcc.rs, so the per-organisation twins stay deleted; and
# LOB reads take a snapshot like the heap/IOT reads, with no `_at` twin
# beside a snapshot-blind read.
echo "== one row version (structural guard) =="
if grep -rnE "HeapChain|IotChain|HeapVersion|IotVersion|IotCurrent|resolve_heap|resolve_iot|check_heap_write|check_iot_write|pop_iot_version" \
    crates; then
    exit 1
fi
if grep -nE "pub fn lob_(length|read|read_all)_at" crates/storage/src/engine.rs; then
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

# One conflict decision (DESIGN.md §4j "Write conflicts"): the version
# chain is the only per-write conflict record, so the per-transaction write
# sets, the committed-writes map and the commit-time replay stay deleted,
# and the transaction registry holds only ids, csns, statuses and snapshot
# highs.
echo "== one conflict decision (structural guard) =="
if grep -rnE "record_write|truncate_writes|committed_contender|committed_writer|check_committed" \
    crates/storage/src; then
    exit 1
fi
if awk '/^struct TxnInner/,/^}/' crates/storage/src/mvcc.rs | grep -nE "^ *(pub )?(writes|committed):"; then
    exit 1
fi

# One before-image (DESIGN.md §4j "One before-image"): a versioned write's
# displaced row or LOB bytes live only in its undo entry, which the version
# chain names by position. So no version type holds an image, the rollback
# pop never compares rows, the log is never drained ahead of its
# compensations, and the two tests that pin this stay defined, so the mvcc
# and recovery stanzas above cannot run an empty filter.
echo "== one before-image (structural guard) =="
if awk '/^pub struct (RowVersion|LobSpanVersion)/,/^}/' crates/storage/src/mvcc.rs |
    grep -nE ": *(Row|Vec<u8>|Option<Row>)\b|^ *pub (row|old|image|bytes):"; then
    exit 1
fi
if grep -n "v\.row ==" crates/storage/src/mvcc.rs; then
    exit 1
fi
if grep -rn "drain_reverse_from" crates; then
    exit 1
fi
grep -q "fn a_statement_rollback_keeps_an_earlier_write_of_the_same_image" tests/mvcc_visibility.rs
grep -q "fn a_rollback_stopped_by_a_fault_leaves_every_version_readable" tests/recovery.rs

# One physical apply (DESIGN.md §4i "One apply"): `Segments::apply` in
# wal.rs is the only non-test code that calls a heap, IOT or LOB mutator —
# live writes, rollback compensations, the vacuum's reclaim and redo all
# reach a segment through it (zone-map upkeep is metadata and not counted).
# The mutators it replaced stay deleted, and the replay-placement tests
# stay defined, so the recovery stanza above cannot run an empty filter.
echo "== one physical apply (structural guard) =="
mutators='\.(insert_at|insert_with_ordinal|allocate_at|pad_to|overwrite|restore|free|update|delete|truncate)\(|lobs\.write\(|(heaps|iots)\.(insert|remove)\('
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' \
    crates/storage/src/engine.rs | grep -E "$mutators"; then
    exit 1
fi
if awk '/^#\[cfg\(test\)\]/ { exit } /fn apply\(/ { inside = 1 }
    inside && /^    }$/ { inside = 0; next } !inside { print FILENAME ":" FNR ": " $0 }' \
    crates/storage/src/wal.rs | grep -E "$mutators"; then
    exit 1
fi
[ "$(grep -c "fn apply(" crates/storage/src/wal.rs)" -eq 1 ]
for f in heap iot lob; do
    if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' \
        "crates/storage/src/$f.rs" | grep -E "fn (insert|upsert|alloc_ord|allocate|append)\("; then
        exit 1
    fi
done
if grep -rnE "fn (alloc_segment|iot_mut)\(|IotIoCharge|LobIoCharge|EngineSnapshot" crates; then
    exit 1
fi
grep -q "fn replay_reproduces_live_placement" crates/storage/tests/replay_placement.rs
grep -q "fn the_free_list_comes_back_in_live_order" crates/storage/tests/replay_placement.rs
grep -q "fn recovered_inserts_land_where_the_live_run_would_have" tests/recovery.rs

# One key-bound builder (DESIGN.md §4h): the leading-column special case
# (a candidate that could consume one conjunct only) stays gone, the
# sargable matchers are called from the bounds table's builder alone, and
# no cartridge grew a bypass — each still issues its per-entry callback
# DELETE, exactly once, and the server turns it into a point probe.
echo "== one key-bound builder (structural guard) =="
if grep -n "consumed: Option<usize>" crates/sql/src/access.rs crates/sql/src/optimizer.rs; then
    exit 1
fi
[ "$(grep -cE "match_col_relop\(|match_between\(" crates/sql/src/access.rs)" -eq 4 ]
if grep -nE "match_col_relop\(|match_between\(" crates/sql/src/optimizer.rs; then
    exit 1
fi
[ "$(grep -c "WHERE token = ? AND rid = ?" crates/text/src/cartridge.rs)" -eq 1 ]
[ "$(grep -c "WHERE tile = ? AND rid = ?" crates/spatial/src/cartridge.rs)" -eq 1 ]
[ "$(grep -c "WHERE q1 = ? AND rid = ?" crates/vir/src/cartridge.rs)" -eq 1 ]

# One checkpoint fold (DESIGN.md §4i): a checkpoint folds the committed
# WAL suffix into the durable image, so it never refuses an open
# transaction and the engine-side replay routine stays deleted; the live
# engine is deep-copied in one place only (the first image of an empty
# medium); and one function groups the WAL per transaction, for the fold
# and recovery alike.
echo "== one checkpoint fold (structural guard) =="
if grep -rn "cannot checkpoint inside an open transaction" crates; then
    exit 1
fi
if grep -rn "fn apply_wal_record" crates; then
    exit 1
fi
[ "$(grep -rnE "storage(\(\))?\.snapshot\(\)" crates/sql/src | wc -l)" -eq 1 ]
[ "$(grep -rn "pending.remove(" crates | wc -l)" -eq 1 ]
[ "$(grep -c "^fn group<" crates/storage/src/wal.rs)" -eq 1 ]

# One statement cache (DESIGN.md §4m): outside the parser, only the cache
# and `Database::explain` (EXPLAIN plans afresh) turn SQL text into a
# statement; binds are evaluated, never spliced into the tree; and plans
# hold no data, so plan-time code never materializes a V$ view: a view's
# row builder is private to vtables.rs, and the executor's View node is
# the one caller of `vtable_rows` outside it.
echo "== one statement cache (structural guard) =="
parses=$(for f in crates/sql/src/*.rs; do
    [ "$f" = crates/sql/src/parser.rs ] && continue
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /(^|[^:A-Za-z_])parse(_counting_binds)?\(/ { print f }' "$f"
done)
[ "$(echo "$parses" | grep -c "stmt_cache.rs")" -eq 1 ]
[ "$(echo "$parses" | grep -c "database.rs")" -eq 1 ]
[ "$(echo "$parses" | wc -l)" -eq 2 ]
if grep -rnE "bind_statement|bind_expr" crates; then
    exit 1
fi
[ "$(grep -rln "vtable_rows(" crates/sql/src | grep -v "/vtables.rs$")" = crates/sql/src/executor.rs ]

# Rows copied once (DESIGN.md §4h "Rows copied once"): every stored-row
# read borrows — the rowid joins hand out `&Row` like the page walk and the
# key range — so nothing in the executor copies a whole stored row, and
# exactly one function builds an executor row out of a stored one (the
# columns the plan reads, NULL for the rest).
echo "== rows copied once (structural guard) =="
if grep -n -- "-> Result<Vec<Option<Row>>>" crates/storage/src/engine.rs; then
    exit 1
fi
if grep -rn "extend_from_slice(row)" crates/sql/src; then
    exit 1
fi
if grep -rlPz "(fetch_multi|fetch_visible|heap_page|iot_range)\([^;]*\.cloned\(\)" crates/sql/src; then
    exit 1
fi
[ "$(grep -rnE "fn [a-z_]+(<[^>]*>)?\(.*&Row\b.*\) -> ExecRow" crates/sql/src | wc -l)" -eq 1 ]

# One maintenance placement (DESIGN.md §4l): the vacuum pass runs where a
# session transaction ends, under the write lock it already holds. No
# daemon thread, backpressure gate, governor configuration or their fault
# points may come back beside it, and the SQL engine spawns no thread of
# its own. (Bracketed so the patterns do not match this file.)
echo "== one maintenance placement (structural guard) =="
if grep -rnE "GovernorConfi[g]|inline_vacuu[m]|with_confi[g]|daemon_pas[s]|backpressure_(gat[e]|drai[n])|wake_daemo[n]|thread::Builde[r]|Condva[r]|daemon\.vacuu[m]|governor\.backpressur[e]" \
    crates tests; then
    exit 1
fi
if grep -rnE "thread::(spaw[n]|scop[e])" crates/sql/src; then
    exit 1
fi

# One place per integration point (DESIGN.md §4d "The crossing", §4f):
# the callback surface is implemented once, for both lanes; every V$ view
# is named once, in the one list in vtables.rs; and `Database` and the
# optimizer stay folded, with DDL in ddl.rs and access paths in access.rs.
# (Bracketed so the patterns do not match this file.)
echo "== one place per integration point (structural guard) =="
[ "$(grep -rn "impl ServerContex[t] for" crates/sql/src | wc -l)" -eq 1 ]
views=$(grep -rhoE '"V[$][A-Z_]+"' crates/sql/src)
[ -n "$views" ] && [ -z "$(echo "$views" | sort | uniq -d)" ]
[ "$(grep -rlE '"V[$][A-Z_]+"' crates/sql/src)" = crates/sql/src/vtables.rs ]
[ "$(wc -l < crates/sql/src/database.rs)" -lt 1500 ]
[ "$(wc -l < crates/sql/src/optimizer.rs)" -lt 1200 ]

# One domain-index access path (DESIGN.md §4b "Domain join"): one matcher
# in access.rs decides whether a domain index can carry an operator
# conjunct, for a single-table scan and a domain join alike; a domain join
# is a DomainScan with an outer input, run by the one DomainScanExec. The
# join's own plan kind, executor node and matcher stay deleted, and the
# tests the batch-executor stanza names stay defined. (Bracketed so the
# patterns do not match this file.)
echo "== one domain-index access path (structural guard) =="
if grep -rnE "DomainJoinEx[e]c|DomainTarge[t]|PlanKind::DomainJoi[n]" crates/sql/src; then
    exit 1
fi
[ "$(grep -c "domain_matches(db" crates/sql/src/access.rs)" -eq 1 ]
[ "$(grep -c "domain_matches(db" crates/sql/src/optimizer.rs)" -eq 1 ]
if grep -n "match_op_predicat[e]" crates/sql/src/optimizer.rs; then
    exit 1
fi
for t in a_null_outer_argument_empties_its_domain_join_pass \
    no_index_and_full_hints_bind_a_domain_join \
    an_indexed_column_second_keeps_the_masks_direction_in_a_scan \
    an_indexed_column_second_keeps_the_masks_direction_in_a_join \
    text_vir_and_chem_refuse_an_indexed_column_second \
    an_unhinted_query_uses_an_index_only_at_a_declared_argument_position; do
    grep -q "fn $t" tests/consistency.rs
done
for t in faults_inside_a_batch_leave_the_join_balanced_and_its_answers_unchanged \
    the_default_batch_of_a_text_join_balances_under_faults \
    a_tiny_tick_budget_that_fits_row_by_row_fits_the_batched_join; do
    grep -q "fn $t" tests/scan_lifecycle.rs
done

# Set-at-a-time domain scans (DESIGN.md §4b "Domain join"): the executor
# starts a cartridge's scan in exactly one place, through start_batch (a
# single-table scan is a batch of one), and never calls a per-row start.
# (Bracketed so the patterns do not match this file.)
echo "== one batched ODCIIndexStart (structural guard) =="
[ "$(grep -rn "\.start_batc[h](" crates/sql/src | wc -l)" -eq 1 ]
if grep -rn "index\.star[t](" crates/sql/src; then
    exit 1
fi

# One perf instrument: no hand-set timing floor, bench-record writer or
# micro-bench harness may come back beside the ledger. (Bracketed so the
# pattern does not match this file.)
echo "== one perf instrument (structural guard) =="
if grep -rnE "_MI[N]_|_MAX_OVERHEA[D]|emit_bench_jso[n]|BENCH_OU[T]|criterio[n]" \
    crates scripts shims Cargo.toml .gitignore; then
    exit 1
fi

# One way back from quarantine (DESIGN.md §4g): an unusable domain index
# gets no maintenance crossing and REBUILD always re-reads the base
# table, so the pending-work log, its dirty flag and the two V$ columns
# that exposed them stay deleted; the session probe that pins REBUILD
# against another transaction's uncommitted rows stays defined.
echo "== one way back from quarantine (structural guard) =="
if grep -rnE "PendingOp|append_pending|pop_pending|take_pending|restore_pending|pending_len|force_rebuild_of_pending|needs_full_rebuild|mark_dirty|writes_index_storage" \
    crates; then
    exit 1
fi
if grep -nE "PENDING_OPS|NEEDS_FULL_REBUILD" crates/sql/src/vtables.rs; then
    exit 1
fi
grep -q "fn rebuild_never_indexes_another_sessions_uncommitted_rows" tests/quarantine.rs

# One transaction rule (DESIGN.md §4j "Who versions"): every client lane —
# a `Session` and the `Database` lane alike — begins, commits, aborts and
# autocommits through one set of functions in database.rs, and only an
# autocommit statement that no other transaction can observe runs
# unversioned as transaction 0. So the direct lane's private BEGIN and its
# unscoped event delivery stay deleted, commit and abort in the registry
# have no transaction-0 arm, and the probes that pin the rule stay defined
# so the mvcc stanza cannot run an empty filter. (Bracketed so the
# patterns do not match this file.)
echo "== one transaction rule (structural guard) =="
if grep -rnE "begin_direc[t]|fire_event_unscope[d]" crates; then
    exit 1
fi
if awk '/pub fn (commit|abort)\(/,/^    }$/' crates/storage/src/mvcc.rs | grep -nE "== 0"; then
    exit 1
fi
for t in database_lane_autocommit_loses_to_an_open_session_write \
    database_lane_transaction_is_invisible_to_sessions_until_it_commits \
    truncate_and_drop_table_refuse_while_a_snapshot_is_pinned; do
    grep -q "fn $t" tests/mvcc_visibility.rs
done
grep -q "Client::Admin" crates/qgen/src/concurrent.rs

# Lean candidate pipelines (DESIGN.md §4b): the VIR index stores the base
# value's signature text verbatim and never re-serializes it, text
# evaluates a query as one merge of rid-ordered posting runs with no
# per-rowid map, and chem has one substructure matcher, prepared once per
# scan. The VIR wrong-answer probes (full precision, refused weights,
# ranges on every weighted channel, the near-threshold differential), the
# phase-1 superset check, the early-exit distance property, the chem and
# text equivalence tests and the disabled-trace check run by name.
# (Bracketed so the patterns do not match this file.)
echo "== lean candidate pipelines (structural guard + equivalence tests) =="
if grep -nE "\bserializ[e]\(" crates/vir/src/cartridge.rs; then
    exit 1
fi
if grep -rn "BTreeMap<RowI[d]" crates/text/src; then
    exit 1
fi
[ "$(grep -rn "fn match_re[c]\b" crates/chem/src | wc -l)" -eq 1 ]
by_name -q -p extidx-vir --test vir_cartridge -- \
    the_index_compares_signatures_at_full_precision \
    negative_and_nan_weights_are_refused_on_both_paths \
    phase_one_ranges_every_weighted_channel indexed_equals_functional_near_the_threshold
by_name -q -p extidx-vir --lib -- phase1_ranges_hold_every_value_phase2_accepts
by_name -q -p extidx-vir --test properties -- distance_within_equals_distance
cargo test -q -p extidx-chem --test equivalence
cargo test -q -p extidx-text --test properties
by_name -q -p extidx-core --lib -- trace::tests::disabled_trace_records_nothing

# Spatial indexes store only their primary filter (DESIGN.md §4b): the
# exact filter reads the base column, so neither spatial indextype keeps a
# geometry table or a text codec for one, and every cartridge that builds
# by streaming the base table does so through the one
# `extidx_core::build::populate_from_base`. The one-storage-table, base-row
# selectivity and near-threshold-predicate probes run by name. (Bracketed
# so the patterns do not match this file.)
echo "== spatial primary filter only, one build loop (structural guard) =="
if grep -rnE "geom_tabl[e]|storage_table_name\(\"[G]\"\)|fn serializ[e]\b|fn deserializ[e]\b" \
    crates/spatial/src; then
    exit 1
fi
if grep -rn "scan_base_batche[s](" crates/text/src crates/vir/src crates/spatial/src; then
    exit 1
fi
by_name -q -p extidx-spatial --test spatial_cartridge -- \
    drop_index_removes_storage_tables selectivity_is_a_share_of_base_rows \
    legacy_join_matches_modern_query
by_name -q -p extidx-qgen --lib -- gen::tests::boundary_and_refused_vir_atoms_are_whole_predicates

# Index tables read in place (DESIGN.md §4d "The crossing"): the text,
# tile, VIR and R-tree scans read their index tables through
# `ServerContext::read_key_range`, the executor's own IOT cursor under the
# crossing's snapshot, so no such read issues SQL any more — only the
# legacy baselines (legacy.rs) and the ODCIStats routines (their count
# queries) still do. The IOT cursor stays the one IOT range loop. The
# candidates a scan verifies and the chem fingerprint LOB are lent the
# same way (§4d "Index tables read in place"): `fetch_base_rows` visits
# rows where they lie rather than returning copies, and chem walks its
# records in the lent LOB image, with no decoded copy of the store and no
# whole-LOB read into a vector. The contract, snapshot, deadline and
# tick-budget tests run by name.
# (Bracketed so the patterns do not match this file.)
echo "== index tables read in place (structural guard + contract tests) =="
if grep -rnE "decode_record[s]|lob_read_al[l]\([^,()]*\)|(lob_read_al[l]|read_lo[b])\(.*to_ve[c]" \
    crates/chem/src; then
    exit 1
fi
if grep -rn "Vec<Option<Ro[w]>>" crates/core/src/server.rs crates/sql/src/exec_ctx.rs; then
    exit 1
fi
scan_sql='SELECT [^"]*WHERE toke[n] = [?]|tile >= [?] AND tile <= [?]'
scan_sql="$scan_sql"'|nodeid >= [?] AND nodeid <= [?]|q(1|[{][}]) BETWEE[N]|SELECT payload FRO[M]'
for f in crates/text/src/*.rs crates/spatial/src/*.rs crates/vir/src/*.rs; do
    case "$f" in */legacy.rs) continue ;; esac
    awk -v f="$f" -v old="$scan_sql" '/^#\[cfg\(test\)\]/ { exit }
        match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
        fn != "query_selectivity" && fn != "phase1_count" && $0 ~ old {
            print f ":" FNR ": " $0; bad = 1
        }
        END { exit bad }' "$f"
done
[ "$(grep -rn "iot_range(" crates/sql/src | wc -l)" -eq 1 ]
cargo test -q -p extidx-sql --test key_range_read
by_name -q --test mvcc_visibility -- scans_read_their_index_tables_at_the_readers_snapshot \
    a_pinned_chem_reader_screens_its_own_lob_image_and_skips_rows_it_cannot_see
by_name -q --test server_governor -- \
    timeout_inside_a_multi_batch_key_range_read_keeps_start_close_balanced \
    a_tick_budget_below_the_read_batches_faults_the_start
by_name -q --test observability -- v_tables_answer_plain_sql

# One operator spec drives every oracle (DESIGN.md §4e): qgen's `spec`
# module describes each operator once; the generator, the mirror, the
# generated join form and the fault and crash matrices read it, and the
# `Checked` wrapper checks the plug-in boundary. No test hand-writes a
# cartridge rig again, and the engine keeps no test-only switch for them.
# The wrapper's own test, the whole-predicate draws and the FILE-store
# retry pin run by name; the rig-driven chaos sweep runs once, in the
# workspace run, the crash matrix over the same rigs in the crash-recovery
# stanza, the differential sweeps with the generated join form in the
# differential one.
# (Bracketed so the patterns do not match this file.)
echo "== one operator spec (structural guard + spec-driven sweeps) =="
if grep -rnE "fn (text|spatial|vir|chem)_ri[g]" tests; then
    exit 1
fi
if grep -rnE "chaos_drop_last_domain_batc[h]|zone_prunin[g]" crates/sql/src; then
    exit 1
fi
grep -q "fn domain_index_crash_matrix" tests/recovery.rs
by_name -q -p extidx-qgen --lib -- checked::tests gen::tests::boundary_and_refused
by_name -q --test fault_matrix -- transient_faults_are_absorbed_by_retry

# Heap or IOT is storage's decision (DESIGN.md §4j "One row surface"): the
# SQL layer inserts, updates, deletes, joins rowids to rows and sizes
# segments through `StorageEngine`'s organization-blind calls; the
# per-organization mutators and rowid joins are private to storage, so the
# SQL layer calls none of them, and neither its DML paths (database.rs) nor
# the statement cache name an organization. An update that moved a row (an
# IOT key change) reaches the indexes as a delete and an insert. The
# storage tests of a key-changing update and of IOT-table DML maintaining
# every index run by name. (Bracketed so the patterns do not match this
# file.)
echo "== one row surface (structural guard) =="
if grep -rnE "\b(heap_inser[t]|heap_updat[e]|heap_delet[e]|iot_upser[t])\(" crates/sql/src; then
    exit 1
fi
if grep -rnE "\b(heap_fetch_mult[i]|iot_fetch_mult[i])\(" crates/sql/src; then
    exit 1
fi
if grep -n "TableOr[g]::" crates/sql/src/database.rs crates/sql/src/stmt_cache.rs; then
    exit 1
fi
by_name -q -p extidx-storage --lib -- iot_logical_rowids_survive_update_and_rollback
by_name -q --test fault_matrix -- iot_base_table_dml_maintains_secondary_and_domain_indexes

# Index-table writes without wasted work (DESIGN.md §4c "The write path"):
# the buffer cache keeps exact LRU as a hash probe plus a list splice, no
# ordered map of stamps (the stamp-map LRU survives only as the test's
# reference model), and an IOT insert makes one descent of the row map, no
# remove before its insert. The list-vs-stamp model test, the IOT
# ordinal/byte invariants under random insert, upsert, delete and restore,
# and the parallel-build byte identity (the text build now inserts in key
# order) run by name. (Bracketed so the patterns do not match this file.)
echo "== the write path (structural guard + model tests) =="
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' \
    crates/storage/src/buffer.rs | grep "BTreeMa[p]"; then
    exit 1
fi
if awk '/fn insert_with_ordina[l]\(/ { inside = 1 } inside { print FILENAME ":" FNR ": " $0 }
    inside && /^    }$/ { exit }' crates/storage/src/iot.rs | grep -E "rows\.remov[e]\("; then
    exit 1
fi
by_name -q -p extidx-storage --lib -- buffer::tests::list_lru_matches_the_stamp_model \
    iot::tests::ordinal_map_and_byte_total_track_the_rows
by_name -q --test parallel_build -- text_parallel_build_is_deterministic \
    spatial_parallel_build_is_deterministic vir_parallel_build_is_deterministic \
    chem_parallel_build_is_deterministic rtree_parallel_build_is_deterministic

# One way back for a failed statement (DESIGN.md §4d): storage undo for
# everything in the database, and the file images the statement kept for
# the external files it changed, restored before the undo runs. The
# logical compensation log (inverse ODCIIndex calls) stays deleted. The
# no-events FILE matrix, the deliver-after-transaction handler and the
# pinned file counters run by name.
echo "== one way back (structural guard) =="
if grep -rnE "MaintRecord|compensate_maintenance|compensating" crates/sql/src; then
    exit 1
fi
by_name -q --test fault_matrix -- \
    fault_at_every_crossing_restores_an_external_file_without_events \
    a_handler_file_write_after_the_transaction_is_not_restored_by_a_later_failure \
    file_images_do_not_count_as_cartridge_file_io

echo "CI OK"
