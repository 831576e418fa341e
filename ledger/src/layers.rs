//! The traced pass: per-layer metrics, measured from outside the engine.
//!
//! Layers are timed by calling their public functions (`parser::parse`,
//! `Database::explain`, `BufferCache::read`, the cartridge kernels) and
//! by reading the counters the engine already exposes (`CallTrace`
//! aggregates, `CacheStats`, `WalStats`, `VacuumStats`, `V$SERVER`).
//! Spans inside the engine are a later change. The pass runs a fixed
//! number of operations of the same seeded stream as the end-to-end
//! run, once untraced and once traced, on fresh fixtures, so every count
//! repeats exactly on the single-client workloads.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use extidx_chem::{Fingerprint, Molecule};
use extidx_common::Result;
use extidx_spatial::{Mask, Tessellation};
use extidx_sql::Database;
use extidx_storage::{BufferCache, SegmentId};
use extidx_vir::{Signature, Weights};

use crate::fixtures::{self, Size, CHEM_FRAGMENTS, VIR_WEIGHTS};
use crate::ops::{micros, run_op, Op, SessionClient};
use crate::run::{pass, wal_commits, Metric, Recorder, Report, Stop};
use crate::speed::HostSpeed;
use crate::stats;
use crate::workloads::{self, Acks, Fixture, SetupOpts, Target, Workload};

/// One traced interval. `start_us` is relative to the start of the traced
/// pass; ODCI crossings carry a duration only (the engine's `CallTrace`
/// records elapsed time, not start time). `stmt` is the operation's
/// index in the pass; spans of one operation share it.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub stmt: u64,
    pub name: String,
    pub start_us: Option<f64>,
    pub dur_us: f64,
}

/// Per-layer metrics plus the spans they were derived from.
pub struct Layers {
    pub report: Report,
    pub spans: Vec<Span>,
}

const CARTRIDGES: [&str; 5] = ["text", "spatial", "rtree", "vir", "chem"];

fn cartridge_of(indextype: &str) -> Option<&'static str> {
    let it = indextype.to_ascii_uppercase();
    CARTRIDGES.into_iter().find(|c| it.starts_with(&c.to_ascii_uppercase()))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Routines {
    Scan,
    Maint,
    Stats,
    Ddl,
}

fn routines_of(routine: &str) -> Option<Routines> {
    match routine {
        "ODCIIndexStart" | "ODCIIndexFetch" | "ODCIIndexClose" => Some(Routines::Scan),
        "ODCIIndexInsert" | "ODCIIndexUpdate" | "ODCIIndexDelete" => Some(Routines::Maint),
        "ODCIIndexCreate" | "ODCIIndexAlter" | "ODCIIndexTruncate" | "ODCIIndexDrop" => Some(Routines::Ddl),
        r if r.starts_with("ODCIStats") => Some(Routines::Stats),
        _ => None,
    }
}

/// `(calls, micros)` per `(cartridge, routine group)`, folded from the
/// engine's `CallTrace` aggregates.
#[derive(Debug, Default, Clone)]
struct OdciTotals(BTreeMap<(&'static str, Routines), (u64, u64)>);

impl OdciTotals {
    fn absorb(&mut self, db: &Database) {
        for (indextype, routine, s) in db.trace().aggregates() {
            if let (Some(c), Some(r)) = (cartridge_of(&indextype), routines_of(routine)) {
                let e = self.0.entry((c, r)).or_default();
                e.0 += s.calls;
                e.1 += s.total_micros;
            }
        }
    }

    fn of(&self, cartridge: &'static str, r: Routines) -> (u64, u64) {
        self.0.get(&(cartridge, r)).copied().unwrap_or((0, 0))
    }

    fn all(&self, r: Routines) -> (u64, u64) {
        self.0.iter().filter(|((_, g), _)| *g == r).fold((0, 0), |a, (_, v)| (a.0 + v.0, a.1 + v.1))
    }
}

/// Time `extidx_sql::parser::parse` and, for a SELECT, `Database::explain`
/// on one statement text. Returns `(parse µs, plan µs)`; plan is explain
/// minus parse, zero for statements EXPLAIN does not take.
fn probe_statement(db: &mut Database, sql: &str) -> (f64, f64) {
    let t = Instant::now();
    let parsed = black_box(extidx_sql::parser::parse(black_box(sql)));
    let parse_us = micros(t.elapsed());
    drop(parsed);
    if !sql.starts_with("SELECT") {
        return (parse_us, 0.0);
    }
    let t = Instant::now();
    let plan = black_box(db.explain(sql));
    let explain_us = micros(t.elapsed());
    drop(plan);
    (parse_us, (explain_us - parse_us).max(0.0))
}

/// Sums over one fixed-count pass.
#[derive(Debug, Default, Clone)]
struct PassTotals {
    stmts: u64,
    rows: u64,
    wall_us: f64,
    parse_us: f64,
    plan_us: f64,
    odci: OdciTotals,
    held_versions_max: usize,
}

fn push_span(
    spans: &mut Vec<Span>,
    parent: Option<u64>,
    stmt: u64,
    name: String,
    start_us: Option<f64>,
    dur_us: f64,
) -> u64 {
    let id = spans.len() as u64;
    spans.push(Span { id, parent, stmt, name, start_us, dur_us });
    id
}

/// The traced pass on a single-client (`Database`) fixture. First every
/// operation runs exactly as in the untraced pass but with the engine's
/// `CallTrace` on; then, with the trace off again, each statement text
/// is probed for its parse and plan time, so the probes cannot warm a
/// cache for the statement they price.
fn traced_db_pass(fix: &mut Fixture, n: usize, spans: &mut Vec<Span>) -> Result<PassTotals> {
    let Fixture { target: Target::Db(db), streams, .. } = fix else {
        unreachable!("single-client workloads run on a Database")
    };
    let stream = &mut streams[0];
    db.trace().set_capacity(1 << 16);
    let mut totals = PassTotals::default();
    // Per operation: the op, its start, its wall time, its crossings.
    let mut ran = Vec::with_capacity(n);
    let pass_start = Instant::now();
    while ran.len() < n {
        let op = stream();
        if matches!(op, Op::ColdStart) {
            run_op(db.as_mut(), &op)?;
            continue;
        }
        db.trace().clear();
        db.trace().set_enabled(true);
        let start_us = micros(pass_start.elapsed());
        let outcome = run_op(db.as_mut(), &op);
        db.trace().set_enabled(false);
        // The untraced pass ran these very operations without a failure.
        let out = outcome?;
        let wall_us: f64 = out.samples.iter().map(|s| s.micros).sum();
        totals.stmts += out.samples.len() as u64;
        totals.rows += out.samples.iter().map(|s| s.rows).sum::<u64>();
        totals.wall_us += wall_us;
        totals.odci.absorb(db);
        totals.held_versions_max = totals.held_versions_max.max(db.governor().occupancy().0);
        ran.push((op, start_us, wall_us, db.trace().events()));
    }
    db.trace().clear();

    for (i, (op, start_us, wall_us, events)) in ran.into_iter().enumerate() {
        let (mut parse_us, mut plan_us) = (0.0, 0.0);
        for sql in op.sql_texts() {
            let (p, q) = probe_statement(db, sql);
            parse_us += p;
            plan_us += q;
        }
        totals.parse_us += parse_us;
        totals.plan_us += plan_us;
        let exec_us = (wall_us - parse_us - plan_us).max(0.0);
        let i = i as u64;
        let verb = op.sql_texts().first().map_or("checkpoint", |s| s.split(' ').next().unwrap_or("?"));
        let stmt = push_span(spans, None, i, format!("stmt.{}", verb.to_ascii_lowercase()), Some(start_us), wall_us);
        push_span(spans, Some(stmt), i, "parse".into(), Some(start_us), parse_us);
        let plan = push_span(spans, Some(stmt), i, "plan".into(), Some(start_us + parse_us), plan_us);
        let exec = push_span(spans, Some(stmt), i, "exec".into(), Some(start_us + parse_us + plan_us), exec_us);
        for e in events {
            if let (Some(c), Some(r)) = (cartridge_of(&e.indextype), routines_of(e.routine)) {
                let parent = if r == Routines::Stats { plan } else { exec };
                push_span(spans, Some(parent), i, format!("odci.{c}.{}", e.routine), None, e.elapsed_micros as f64);
            }
        }
    }
    Ok(totals)
}

/// Counter snapshot around a pass: buffer cache, WAL, vacuum.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    logical_reads: u64,
    physical_reads: u64,
    physical_writes: u64,
    wal_records: u64,
    wal_commits: u64,
    vacuum_runs: u64,
    versions_pruned: u64,
}

fn counters(fix: &mut Fixture) -> Counters {
    let wal = fix.medium.as_ref().map(|m| m.stats());
    fix.with_db(|db| {
        let c = db.cache_stats();
        let v = db.storage().vacuum_stats();
        Counters {
            logical_reads: c.logical_reads,
            physical_reads: c.physical_reads,
            physical_writes: c.physical_writes,
            wal_records: wal.map_or(0, |w| w.records_appended),
            wal_commits: wal.map_or(0, |w| w.commits),
            vacuum_runs: v.runs,
            versions_pruned: v.versions_pruned,
        }
    })
}

impl Counters {
    fn since(&self, before: &Counters) -> Counters {
        Counters {
            logical_reads: self.logical_reads - before.logical_reads,
            physical_reads: self.physical_reads - before.physical_reads,
            physical_writes: self.physical_writes - before.physical_writes,
            wal_records: self.wal_records - before.wal_records,
            wal_commits: self.wal_commits - before.wal_commits,
            vacuum_runs: self.vacuum_runs - before.vacuum_runs,
            versions_pruned: self.versions_pruned - before.versions_pruned,
        }
    }
}

/// An untraced fixed-count pass on a fresh fixture: warm up, then `n`
/// operations per client with the counters read around them.
struct Untraced {
    fix: Fixture,
    rec: Recorder,
    delta: Counters,
    acks: Acks,
    setup_odci: OdciTotals,
    /// Host slowdown around the measured pass (mean of before and after).
    slowdown: f64,
}

fn untraced_pass(
    workload: Workload,
    seed: u64,
    size: &Size,
    opts: SetupOpts,
    n: usize,
    host: &mut HostSpeed,
) -> Result<Untraced> {
    let mut fix = workloads::setup(workload, seed, size, opts)?;
    let mut setup_odci = OdciTotals::default();
    fix.with_db(|db| {
        setup_odci.absorb(db);
        db.trace().set_enabled(false);
        db.trace().clear();
    });
    pass(&mut fix, Stop::Ops(n / 4), 1, false)?;
    let before = counters(&mut fix);
    let wal_commits_before = wal_commits(&fix);
    let slowdown_before = host.slowdown();
    let rec = pass(&mut fix, Stop::Ops(n), 1, false)?;
    let slowdown = (slowdown_before + host.slowdown()) / 2.0;
    let delta = counters(&mut fix).since(&before);
    let acks = Acks { commits: rec.commits_acked, wal_commits_before };
    Ok(Untraced { fix, rec, delta, acks, setup_odci, slowdown })
}

fn f32s(v: &[f32]) -> Vec<f64> {
    v.iter().map(|&x| f64::from(x)).collect()
}

fn pct(v: &[f32], p: f64) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::percentile(&f32s(v), p)
    }
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// Run the traced pass of `workload` and derive every per-layer metric.
pub fn per_layer(workload: Workload, seed: u64, size: &Size) -> Result<Layers> {
    let n = size.traced_ops;
    let mut host = HostSpeed::new();
    let mut spans = Vec::new();
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, unit: &'static str, value: f64, samples: u64| {
        m.push(Metric::new(name, unit, value, samples));
    };

    // 1. Untraced, fresh fixture: latencies by class, exact counts.
    let mut u = untraced_pass(workload, seed, size, SetupOpts { durable: true, trace: true }, n, &mut host)?;
    let stmts = u.rec.statements().max(1);
    let per_stmt = |x: u64| x as f64 / stmts as f64;
    let untraced_wall = sum(&u.rec.all_micros());

    // 2. Traced, fresh fixture, same operations.
    let mut t_fix = workloads::setup(workload, seed, size, SetupOpts::default())?;
    pass(&mut t_fix, Stop::Ops(n / 4), 1, false)?;
    let mixed = matches!(t_fix.target, Target::Server(_));
    let slowdown_before = host.slowdown();
    let totals = if mixed { mixed_traced_pass(&mut t_fix, n)? } else { traced_db_pass(&mut t_fix, n, &mut spans)? };
    let traced_slowdown = (slowdown_before + host.slowdown()) / 2.0;
    let t_stmts = totals.stmts.max(1) as f64;

    // 3. Session layer (mixed only): the same stream of one session alone,
    // then Session::execute against Database::execute.
    let session = if mixed { Some(session_layer(workload, seed, size, n, &u.rec)?) } else { None };
    let (parse_us, plan_us, exec_wall_us, exec_stmts) = match &session {
        // With two sessions the traced walls include queueing; price the
        // statement on the lone session instead.
        Some(s) => (s.parse_us, s.plan_us, s.alone_wall_us, s.alone_stmts as f64),
        None => (totals.parse_us, totals.plan_us, totals.wall_us, t_stmts),
    };

    put("ledger.stmt_us", "us", exec_wall_us / exec_stmts, exec_stmts as u64);
    put("sql.parser.parse_us", "us", parse_us / exec_stmts, exec_stmts as u64);
    put("sql.optimizer.plan_us", "us", plan_us / exec_stmts, exec_stmts as u64);
    let (stats_calls, stats_us) = totals.odci.all(Routines::Stats);
    put("sql.optimizer.stats_calls", "count", stats_calls as f64, totals.stmts);
    put("sql.optimizer.stats_us", "us", stats_us as f64 / t_stmts, totals.stmts);
    let exec_us = ((exec_wall_us - parse_us - plan_us) / exec_stmts).max(0.0);
    let (scan_calls, scan_us) = totals.odci.all(Routines::Scan);
    let (maint_calls, maint_us) = totals.odci.all(Routines::Maint);
    put("sql.executor.exec_us", "us", exec_us, exec_stmts as u64);
    put("sql.executor.self_us", "us", (exec_us - (scan_us + maint_us) as f64 / t_stmts).max(0.0), exec_stmts as u64);
    put("sql.executor.rows_per_ms", "1/ms", totals.rows as f64 / (exec_us * t_stmts / 1e3).max(1e-9), totals.stmts);

    put("core.odci.scan_calls", "count", scan_calls as f64, totals.stmts);
    put("core.odci.scan_us", "us", scan_us as f64 / t_stmts, totals.stmts);
    put("core.odci.maint_calls", "count", maint_calls as f64, totals.stmts);
    put("core.odci.maint_us", "us", maint_us as f64 / t_stmts, totals.stmts);
    put("core.odci.ddl_us", "us", u.setup_odci.all(Routines::Ddl).1 as f64, 1);
    for c in CARTRIDGES {
        let (sc, su) = totals.odci.of(c, Routines::Scan);
        let (mc, mu) = totals.odci.of(c, Routines::Maint);
        put(&format!("{c}.scan_calls"), "count", sc as f64, totals.stmts);
        put(&format!("{c}.scan_us"), "us", su as f64 / t_stmts, totals.stmts);
        put(&format!("{c}.maint_calls"), "count", mc as f64, totals.stmts);
        put(&format!("{c}.maint_us"), "us", mu as f64 / t_stmts, totals.stmts);
    }

    let d = u.delta;
    put("storage.buffer.logical_reads_per_stmt", "1/stmt", per_stmt(d.logical_reads), stmts);
    put("storage.buffer.physical_reads_per_stmt", "1/stmt", per_stmt(d.physical_reads), stmts);
    put("storage.buffer.physical_writes_per_stmt", "1/stmt", per_stmt(d.physical_writes), stmts);
    let hit = if d.logical_reads == 0 { 1.0 } else { 1.0 - d.physical_reads as f64 / d.logical_reads as f64 };
    put("storage.buffer.hit_ratio", "ratio", hit, d.logical_reads);

    put("storage.wal.records_per_stmt", "1/stmt", per_stmt(d.wal_records), stmts);
    put("storage.wal.commits", "count", d.wal_commits as f64, stmts);

    // Untraced latencies by statement class (what a client of this
    // workload sees; the end-to-end run reports them pooled).
    put("ledger.read_p50_us", "us", pct(&u.rec.read_us, 50.0), u.rec.read_us.len() as u64);
    put("ledger.read_p99_us", "us", pct(&u.rec.read_us, 99.0), u.rec.read_us.len() as u64);
    put("ledger.write_p50_us", "us", pct(&u.rec.write_us, 50.0), u.rec.write_us.len() as u64);
    put("ledger.write_p99_us", "us", pct(&u.rec.write_us, 99.0), u.rec.write_us.len() as u64);
    put("ledger.first_row_p50_us", "us", pct(&u.rec.first_row_us, 50.0), u.rec.first_row_us.len() as u64);
    put("ledger.txn_conflict_retries", "count", u.rec.txn_retries as f64, u.rec.attempted);

    // MVCC: one explicit vacuum pass after the run, and the governor's
    // occupancy blackboard sampled during the traced pass.
    let vacuum_us = u.fix.with_db(|db| {
        let t = Instant::now();
        db.vacuum();
        micros(t.elapsed())
    });
    put("storage.mvcc.held_versions_max", "count", totals.held_versions_max as f64, totals.stmts);
    put("storage.mvcc.vacuum_runs", "count", d.vacuum_runs as f64, stmts);
    put("storage.mvcc.versions_pruned", "count", d.versions_pruned as f64, stmts);
    put("storage.mvcc.vacuum_us", "us", vacuum_us, 1);

    // Governor counters of the untraced pass (`V$SERVER`).
    let governor: BTreeMap<&str, i64> = u.fix.with_db(|db| db.governor().vserver_rows().into_iter().collect());
    let gov = |k: &str| governor.get(k).copied().unwrap_or(0) as f64;
    let s = session.unwrap_or_default();
    put("sql.session.overhead_us", "us", s.overhead_us, s.overhead_samples);
    put("sql.session.queue_us_p50", "us", s.queue_p50_us, stmts);
    put("sql.session.queue_us_p99", "us", s.queue_p99_us, stmts);
    put("sql.session.conflict_retries", "count", gov("CONFLICT_RETRIES"), stmts);
    put("sql.session.conflict_retry_exhausted", "count", gov("CONFLICT_RETRY_EXHAUSTED"), stmts);
    put("sql.session.backpressure_waits", "count", gov("BACKPRESSURE_WAITS"), stmts);
    put("sql.session.statement_timeouts", "count", gov("STATEMENT_TIMEOUTS"), stmts);
    put("sql.session.daemon_passes", "count", gov("DAEMON_PASSES"), stmts);

    // WAL price: the same operations with durability off (write workloads).
    let append_us = if u.fix.medium.is_some() {
        let off = untraced_pass(workload, seed, size, SetupOpts { durable: false, trace: false }, n, &mut host)?;
        let writes = u.rec.write_us.len().max(1) as f64;
        let append_us = (sum(&f32s(&u.rec.write_us)) - sum(&f32s(&off.rec.write_us))) / writes;
        workloads::finish(off.fix, seed, size, None)?;
        append_us
    } else {
        0.0
    };
    put("storage.wal.append_us_per_stmt", "us", append_us, stmts);

    // End-of-run verification of both fixtures; dml_durable's includes the
    // crash, the replay recovery, a checkpoint and a snapshot recovery.
    let (attempted, failed) = (2 * u.rec.attempted, u.rec.failed);
    let facts = u.fix.facts.clone();
    let finish = workloads::finish(u.fix, seed, size, Some(u.acks))?;
    workloads::finish(t_fix, seed, size, None)?;
    put("storage.wal.checkpoint_us", "us", finish.checkpoint_us.unwrap_or(0.0), 1);
    put("storage.wal.replay_us", "us", finish.recovery_s.unwrap_or(0.0) * 1e6, 1);
    put("storage.wal.restore_us", "us", finish.restore_us.unwrap_or(0.0), 1);
    put("storage.wal.len_at_crash", "count", finish.wal_len_at_crash.unwrap_or(0.0), 1);

    m.extend(kernel_metrics(seed));
    // Both walls at reference speed, or a slow phase of the host during
    // one pass would read as tracing cost.
    let overhead = (totals.wall_us / traced_slowdown) / (untraced_wall / u.slowdown).max(1e-9);
    m.push(Metric::new("ledger.trace_overhead_ratio", "ratio", overhead, stmts));
    m.push(Metric::new("ledger.host_slowdown", "ratio", (u.slowdown + traced_slowdown) / 2.0, 4));

    Ok(Layers { report: Report { workload, attempted, failed, metrics: m, facts }, spans })
}

/// The traced pass on the two-session fixture: the engine's trace is on
/// while both sessions run; crossings interleave, so only the aggregates
/// are kept (no per-statement spans). A sampler thread reads the
/// governor's occupancy blackboard.
fn mixed_traced_pass(fix: &mut Fixture, n: usize) -> Result<PassTotals> {
    let governor = fix.with_db(|db| {
        db.trace().set_capacity(1 << 16);
        db.trace().clear();
        db.trace().set_enabled(true);
        db.governor()
    });
    let done = AtomicBool::new(false);
    let (rec, held_max) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut max = 0;
            while !done.load(Ordering::SeqCst) {
                max = max.max(governor.occupancy().0);
                std::thread::sleep(Duration::from_millis(2));
            }
            max
        });
        let rec = pass(fix, Stop::Ops(n), 1, false);
        done.store(true, Ordering::SeqCst);
        (rec, sampler.join().expect("sampler thread panicked"))
    });
    let rec = rec?;
    let mut totals = PassTotals {
        stmts: rec.statements(),
        rows: rec.rows(),
        wall_us: sum(&rec.all_micros()),
        held_versions_max: held_max,
        ..PassTotals::default()
    };
    fix.with_db(|db| {
        db.trace().set_enabled(false);
        totals.odci.absorb(db);
        db.trace().clear();
    });
    Ok(totals)
}

/// What the session layer costs, measured on a third fixture.
#[derive(Debug, Default, Clone, Copy)]
struct SessionLayer {
    parse_us: f64,
    plan_us: f64,
    alone_wall_us: f64,
    alone_stmts: u64,
    queue_p50_us: f64,
    queue_p99_us: f64,
    overhead_us: f64,
    overhead_samples: u64,
}

/// Session 0's stream run by one session alone (no other client): the
/// difference to the two-session latencies is queueing. Then the same
/// reads through `Session::query` and `Database::query`, alternating.
fn session_layer(workload: Workload, seed: u64, size: &Size, n: usize, both: &Recorder) -> Result<SessionLayer> {
    let mut fix = workloads::setup(workload, seed, size, SetupOpts::default())?;
    let warm = n / 4;
    let ops: Vec<Op> = (0..warm + n).map(|_| (fix.streams[0])()).collect();
    fix.streams = vec![workloads::replay(ops.clone())];
    pass(&mut fix, Stop::Ops(warm), 1, false)?;
    let alone = pass(&mut fix, Stop::Ops(n), 1, false)?;
    let (both_us, alone_us) = (both.all_micros(), alone.all_micros());
    let queue = |p: f64| (stats::percentile(&both_us, p) - stats::percentile(&alone_us, p)).max(0.0);

    let Target::Server(server) = &fix.target else { unreachable!("mixed_sessions runs on a Server") };
    let (mut parse_us, mut plan_us) = (0.0, 0.0);
    for op in &ops[warm..] {
        for sql in op.sql_texts() {
            let (p, q) = server.admin(|db| probe_statement(db, sql));
            parse_us += p;
            plan_us += q;
        }
    }
    // Account lookups only: their answer does not move, both paths do
    // exactly the same work, and nothing else holds the lock.
    let mut client = SessionClient { server, session: server.session() };
    let mut diffs = Vec::new();
    for op in ops.iter().filter(|o| matches!(o, Op::Query { expect: Some(_), .. })).take(200) {
        let sql = op.sql_texts()[0];
        let t = Instant::now();
        black_box(server.admin(|db| db.query(sql))?);
        let direct = micros(t.elapsed());
        let t = Instant::now();
        black_box(client.session.query(sql)?);
        diffs.push(micros(t.elapsed()) - direct);
    }
    workloads::finish(fix, seed, size, None)?;
    Ok(SessionLayer {
        parse_us,
        plan_us,
        alone_wall_us: sum(&alone.all_micros()),
        alone_stmts: alone.statements().max(1),
        queue_p50_us: queue(50.0),
        queue_p99_us: queue(99.0),
        overhead_us: if diffs.is_empty() { 0.0 } else { stats::median(&diffs) },
        overhead_samples: diffs.len() as u64,
    })
}

/// Nanoseconds per call of `f` over `inputs`, repeated `reps` times.
fn ns_per_call<I, T>(inputs: &[I], reps: usize, mut f: impl FnMut(&I) -> T) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        for i in inputs {
            black_box(f(black_box(i)));
        }
    }
    t.elapsed().as_secs_f64() * 1e9 / (reps * inputs.len()).max(1) as f64
}

/// The cartridge kernels and the buffer cache, called directly on seeded
/// inputs. They do not depend on the workload: every traced run reports
/// them, so a kernel change shows next to the layer it feeds.
pub fn kernel_metrics(seed: u64) -> Vec<Metric> {
    let mut d = fixtures::generators(Size::full().read, fixtures::sub_seed(seed, 40));
    const N: usize = 256;
    let mut out = Vec::new();
    let mut put = |name: &str, ns: f64, calls: usize| out.push(Metric::new(name, "ns", ns, calls as u64));

    let docs: Vec<String> = (0..N).map(|_| d.doc()).collect();
    let stop = extidx_text::tokenizer::StopWords::none();
    put("text.tokenizer.tokenize_ns", ns_per_call(&docs, 8, |s| extidx_text::tokenizer::tokenize(s, &stop)), N * 8);
    let queries: Vec<String> = (0..N)
        .map(|i| format!("{} AND ({} OR {})", d.corpus.term(i), d.corpus.term(i + 7), d.corpus.term(i * 3)))
        .collect();
    put("text.query.parse_ns", ns_per_call(&queries, 8, |q| extidx_text::query::parse_query(q)), N * 8);

    let rects: Vec<_> = (0..N).map(|_| d.spatial.rect(5.0, 60.0)).collect();
    let tess = Tessellation::default();
    put("spatial.tiles.tiles_for_ns", ns_per_call(&rects, 32, |g| tess.tiles_for(g)), N * 32);
    let pairs: Vec<_> = rects.windows(2).map(|w| (w[0].clone(), w[1].clone())).collect();
    put("spatial.geometry.relate_ns", ns_per_call(&pairs, 64, |(a, b)| a.relate(b, Mask::Overlaps)), pairs.len() * 64);

    let sigs: Vec<Signature> = (0..N).map(|_| d.sigs.random()).collect();
    let w = Weights::parse(VIR_WEIGHTS).expect("constant weights parse");
    let q = d.vir_bases[0].clone();
    put("vir.signature.distance_ns", ns_per_call(&sigs, 64, |s| s.distance(&q, &w)), N * 64);
    let qc = q.coarse();
    let coarse: Vec<_> = sigs.iter().map(Signature::coarse).collect();
    put(
        "vir.signature.coarse_distance_ns",
        ns_per_call(&coarse, 64, |c| Signature::coarse_distance(c, &qc, &w)),
        N * 64,
    );

    let mols: Vec<Molecule> =
        (0..N).map(|_| Molecule::parse(&d.molecule()).expect("generated molecules parse")).collect();
    put("chem.fingerprint.of_ns", ns_per_call(&mols, 4, Fingerprint::of), N * 4);
    let frag = Molecule::parse(CHEM_FRAGMENTS[0]).expect("constant fragment parses");
    put("chem.molecule.contains_subgraph_ns", ns_per_call(&mols, 8, |m| m.contains_subgraph(&frag)), N * 8);

    // Buffer cache: hits re-touch a resident working set; misses stream
    // through four times the capacity, evicting on every touch.
    let cache = BufferCache::new(1024);
    let hits: Vec<u32> = (0..1024).collect();
    hits.iter().for_each(|&p| cache.read((SegmentId(1), p)));
    put("storage.buffer.read_hit_ns", ns_per_call(&hits, 32, |&p| cache.read((SegmentId(1), p))), 1024 * 32);
    let misses: Vec<u32> = (0..4096).collect();
    put("storage.buffer.read_miss_ns", ns_per_call(&misses, 8, |&p| cache.read((SegmentId(2), p))), 4096 * 8);
    out
}
