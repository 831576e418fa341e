//! Execution, comparison, replay, and shrinking.
//!
//! Every generated query runs through each reachable engine plan —
//! optimizer's choice, `/*+ FULL */`, `/*+ NO_INDEX */`, and one
//! `/*+ INDEX(t idx) */` per applicable index — plus the mirror
//! interpreter, and all answers must agree. `COUNT(*)` over the same
//! predicate (the NoREC construction) must match the row count too.
//!
//! The replay rule that makes shrinking sound: a DML/DDL statement is
//! applied to the mirror only if the *engine* accepted it, and engine
//! errors on DML/DDL are no-ops on both sides. Any subset of the
//! statement prefix is therefore a valid workload, so delta debugging
//! can bisect freely.

use extidx_common::Value;
use extidx_core::HealthState;
use extidx_sql::{Database, DurableMedium, WAL_FAULT_POINTS};

use crate::gen::{generate, Query, Stmt};
use crate::interp::{apply_cell, query_ids, Mirror};

/// Chaos switches for an oracle run. All are deterministic: batch
/// dropping is stateless, and quarantine flips are keyed on the
/// statement text (see [`quarantine_chaos`]) so delta-debugging subsets
/// replay identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosOpts {
    /// Drop the final batch of every domain-index scan (exercises the
    /// executor's partial-fetch handling).
    pub drop_last_batch: bool,
    /// Randomly quarantine a healthy domain index — or `ALTER INDEX …
    /// REBUILD` a quarantined one — before ~8% of statements, forcing
    /// queries through the functional fallback mid-stream.
    pub quarantine: bool,
    /// Seeded daemon-cadence chaos for the concurrent scheduler: `0`
    /// keeps the fixed every-3rd-step vacuum; any other value salts a
    /// dedicated rng so incremental vacuum fires at scheduler-random
    /// steps instead. Vacuum is semantics-preserving, so every cadence
    /// must leave the oracles green — this knob hunts for timings the
    /// fixed cadence never produces.
    pub random_vacuum: u64,
}

impl ChaosOpts {
    /// The pre-existing scan chaos mode.
    pub fn drop_last_batch() -> Self {
        Self { drop_last_batch: true, ..Self::default() }
    }

    /// Quarantine/rebuild chaos only.
    pub fn quarantine() -> Self {
        Self { quarantine: true, ..Self::default() }
    }

    /// Scheduler-random vacuum cadence (see [`ChaosOpts::random_vacuum`]).
    pub fn random_vacuum(salt: u64) -> Self {
        Self { random_vacuum: salt.max(1), ..Self::default() }
    }
}

/// A confirmed disagreement between execution paths, with a minimized
/// self-contained SQL reproduction script.
#[derive(Debug)]
pub struct Divergence {
    pub seed: u64,
    /// Index of the failing statement in the generated stream.
    pub step: usize,
    /// Human-readable description of the first disagreement.
    pub detail: String,
    /// Statements in the minimized repro (prefix + failing query).
    pub minimized: usize,
    /// Self-contained SQL script reproducing the divergence.
    pub script: String,
}

/// A fresh engine with all five cartridges installed.
pub fn fresh_db(chaos: ChaosOpts) -> Database {
    let mut db = Database::with_cache_pages(4096);
    extidx_text::install(&mut db).expect("text cartridge");
    extidx_spatial::install(&mut db).expect("spatial cartridge");
    extidx_vir::install(&mut db).expect("vir cartridge");
    extidx_chem::install(&mut db).expect("chem cartridge");
    db.set_chaos_drop_last_domain_batch(chaos.drop_last_batch);
    db
}

/// Indexes that can be *forced* for this query right now: the catalog
/// must hold the index, and a top-level conjunct must be consumable by
/// it (operator + arity supported, no NULL literal argument; `num`
/// comparisons for the B-tree). Computed against the live catalog so
/// replayed/shrunk workloads never emit an invalid hint.
pub(crate) fn forcible_indexes(db: &Database, q: &Query) -> Vec<String> {
    let atoms = q.pred.top_atoms();
    let mut out = Vec::new();
    for d in db.catalog().domain_indexes_on(q.table) {
        // A quarantined index cannot be forced (the optimizer rejects the
        // hint outright); the unhinted plan degrades to the fallback.
        if !db.catalog().health.is_usable(&d.name) {
            continue;
        }
        let Ok(it) = db.catalog().registry().indextype(&d.indextype) else { continue };
        let usable = atoms.iter().any(|a| {
            a.op_info().is_some_and(|(op, col, arity, has_null)| {
                !has_null && d.column.eq_ignore_ascii_case(col) && it.supports(op, arity)
            })
        });
        if usable {
            out.push(d.name.clone());
        }
    }
    for b in db.catalog().btree_indexes_on(q.table) {
        if b.column.eq_ignore_ascii_case("NUM") && atoms.iter().any(|a| a.btreeable_on_num()) {
            out.push(b.name.clone());
        }
    }
    out.sort();
    out
}

fn fmt_ids(ids: &[i64]) -> String {
    let shown: Vec<String> = ids.iter().take(24).map(|i| i.to_string()).collect();
    let ellipsis = if ids.len() > 24 { ", …" } else { "" };
    format!("[{}{ellipsis}] ({} rows)", shown.join(", "), ids.len())
}

/// Extract the id column (always column 0) from engine rows. Ancillary
/// SCORE columns are deliberately ignored: the functional and full-scan
/// paths have no index scan to produce a score, so only row membership
/// is comparable across paths.
fn ids_of(rows: &[Vec<Value>]) -> Result<Vec<i64>, String> {
    rows.iter()
        .map(|r| match r.first() {
            Some(Value::Integer(i)) => Ok(*i),
            other => Err(format!("expected integer id column, got {other:?}")),
        })
        .collect()
}

/// Run one query through every path and compare. `Some(detail)` on the
/// first disagreement.
fn check_query(db: &mut Database, mirror: &Mirror, q: &Query) -> Option<String> {
    let expected = query_ids(q, mirror);
    let expected_count = crate::interp::accepted_ids(q, mirror).len() as i64;

    let mut variants: Vec<(String, String)> = vec![
        ("plan".into(), q.sql(None)),
        ("full".into(), q.sql(Some(&format!("FULL({})", q.table)))),
        ("no_index".into(), q.sql(Some(&format!("NO_INDEX({})", q.table)))),
    ];
    for idx in forcible_indexes(db, q) {
        let hint = format!("INDEX({} {idx})", q.table);
        variants.push((format!("index:{idx}"), q.sql(Some(&hint))));
    }

    for (label, sql) in &variants {
        let got = match db.query(sql) {
            Err(e) => return Some(format!("variant [{label}] errored: {e}\n  sql: {sql}")),
            Ok(rows) => match ids_of(&rows) {
                Ok(ids) => ids,
                Err(e) => return Some(format!("variant [{label}] bad row shape: {e}\n  sql: {sql}")),
            },
        };
        // Ordered comparison under ORDER BY id LIMIT n; bag comparison
        // otherwise (ids are unique, so a sorted list is the bag).
        let got = if q.order_limit.is_some() {
            got
        } else {
            let mut g = got;
            g.sort_unstable();
            g
        };
        if got != expected {
            return Some(format!(
                "variant [{label}] diverges from interpreter\n  sql: {sql}\n  expected {}\n  got      {}",
                fmt_ids(&expected),
                fmt_ids(&got)
            ));
        }
    }

    // NoREC: the aggregated form of the same predicate must agree with
    // the row-retrieval count.
    let full_hint = format!("FULL({})", q.table);
    for (label, sql) in
        [("count", q.count_sql(None)), ("count_full", q.count_sql(Some(&full_hint)))]
    {
        match db.query(&sql) {
            Err(e) => return Some(format!("variant [{label}] errored: {e}\n  sql: {sql}")),
            Ok(rows) => {
                let got = rows.first().and_then(|r| r.first()).cloned();
                if got != Some(Value::Integer(expected_count)) {
                    return Some(format!(
                        "variant [{label}] count diverges\n  sql: {sql}\n  expected {expected_count}, got {got:?}"
                    ));
                }
            }
        }
    }
    None
}

/// Quarantine chaos: before ~8% of statements, flip one domain index's
/// health — quarantine it if usable, `ALTER INDEX … REBUILD` it if
/// already quarantined. Keyed on the statement *text*, not the stream
/// position, so a ddmin-shrunk subset makes exactly the same flips for
/// the statements it keeps; the differential oracle must see bag-equal
/// results regardless, because degraded queries answer through the
/// functional fallback.
fn quarantine_chaos(db: &mut Database, stmt: &Stmt) {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    stmt.sql().hash(&mut h);
    let roll = h.finish();
    if roll % 100 >= 8 {
        return;
    }
    let snap = db.catalog().health.snapshot();
    if snap.is_empty() {
        return;
    }
    let pick = &snap[(roll / 100) as usize % snap.len()];
    match pick.state {
        HealthState::Quarantined => {
            let sql = format!("ALTER INDEX {} REBUILD", pick.index);
            db.execute(&sql).expect("chaos rebuild of quarantined index");
        }
        HealthState::Valid | HealthState::Suspect => {
            let name = pick.index.clone();
            db.quarantine_index(&name).expect("chaos quarantine of live index");
        }
        HealthState::BuildFailed => {}
    }
}

/// Execute one statement against engine + mirror. `Some(detail)` when a
/// query statement exposes a divergence.
fn step(db: &mut Database, mirror: &mut Mirror, stmt: &Stmt, chaos: ChaosOpts) -> Option<String> {
    if chaos.quarantine {
        quarantine_chaos(db, stmt);
    }
    match stmt {
        Stmt::Sql(sql) => {
            let _ = db.execute(sql);
            None
        }
        Stmt::Truncate { table } => {
            if db.execute(&stmt.sql()).is_ok() {
                mirror.table_mut(table).clear();
            }
            None
        }
        Stmt::Insert { table, row } => {
            if db.execute(&stmt.sql()).is_ok() {
                mirror.table_mut(table).insert(row.id, row.clone());
            }
            None
        }
        Stmt::Update { table, pred, cell } => {
            if db.execute(&stmt.sql()).is_ok() {
                for row in mirror.table_mut(table).values_mut() {
                    if pred.matches(row.id) {
                        apply_cell(row, cell);
                    }
                }
            }
            None
        }
        Stmt::Delete { table, pred } => {
            if db.execute(&stmt.sql()).is_ok() {
                mirror.table_mut(table).retain(|id, _| !pred.matches(*id));
            }
            None
        }
        Stmt::Query(q) => check_query(db, mirror, q),
    }
}

/// Replay `preamble + stmts + final_stmt` from scratch; true if any
/// divergence shows (used as the delta-debugging failure predicate).
fn replay_fails(preamble: &[String], stmts: &[Stmt], final_stmt: &Stmt, chaos: ChaosOpts) -> bool {
    let mut db = fresh_db(chaos);
    for sql in preamble {
        if db.execute(sql).is_err() {
            return false;
        }
    }
    let mut mirror = Mirror::default();
    for s in stmts {
        if step(&mut db, &mut mirror, s, chaos).is_some() {
            return true;
        }
    }
    step(&mut db, &mut mirror, final_stmt, chaos).is_some()
}

/// Classic ddmin over the statement prefix: repeatedly drop chunks (then
/// single statements) while the failure persists. Deterministic replay
/// plus the errors-are-no-ops rule make every candidate subset valid.
fn ddmin(preamble: &[String], prefix: &[Stmt], final_stmt: &Stmt, chaos: ChaosOpts) -> Vec<Stmt> {
    let mut kept: Vec<Stmt> = prefix.to_vec();
    let mut chunk = kept.len().div_ceil(2).max(1);
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < kept.len() {
            let end = (i + chunk).min(kept.len());
            let mut cand = kept.clone();
            cand.drain(i..end);
            if replay_fails(preamble, &cand, final_stmt, chaos) {
                kept = cand;
                removed_any = true;
            } else {
                i = end;
            }
        }
        if chunk == 1 {
            if !removed_any {
                break;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }
    kept
}

/// Render a self-contained SQL repro script.
fn render_script(
    seed: u64,
    step_idx: usize,
    detail: &str,
    preamble: &[String],
    kept: &[Stmt],
    final_stmt: &Stmt,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("-- extidx differential oracle repro\n-- seed {seed}, divergence at statement {step_idx}\n"));
    for line in detail.lines() {
        out.push_str(&format!("-- {line}\n"));
    }
    out.push_str("-- schema preamble (cartridges installed via *::install):\n");
    for sql in preamble {
        out.push_str(sql);
        out.push_str(";\n");
    }
    out.push_str(&format!("-- minimized prefix ({} statements):\n", kept.len()));
    for s in kept {
        out.push_str(&s.sql());
        out.push_str(";\n");
    }
    out.push_str("-- failing statement — run each plan variant and compare:\n");
    if let Stmt::Query(q) = final_stmt {
        out.push_str(&q.sql(None));
        out.push_str(";\n");
        out.push_str(&q.sql(Some(&format!("FULL({})", q.table))));
        out.push_str(";\n");
        out.push_str(&q.sql(Some(&format!("NO_INDEX({})", q.table))));
        out.push_str(";\n");
    } else {
        out.push_str(&final_stmt.sql());
        out.push_str(";\n");
    }
    out
}

/// Run `n` seeded statements through the oracle. `None` means every
/// query agreed on every path; `Some(divergence)` carries the first
/// disagreement, already minimized by delta debugging.
pub fn run_seed(seed: u64, n: usize, chaos: ChaosOpts) -> Option<Divergence> {
    let workload = generate(seed, n);
    let mut db = fresh_db(chaos);
    for sql in &workload.preamble {
        db.execute(sql).unwrap_or_else(|e| panic!("preamble failed: {sql}: {e}"));
    }
    let mut mirror = Mirror::default();
    for (i, s) in workload.stmts.iter().enumerate() {
        if let Some(detail) = step(&mut db, &mut mirror, s, chaos) {
            let kept = ddmin(&workload.preamble, &workload.stmts[..i], s, chaos);
            let script = render_script(seed, i, &detail, &workload.preamble, &kept, s);
            return Some(Divergence { seed, step: i, detail, minimized: kept.len() + 1, script });
        }
    }
    None
}

// ---- crash-recover-compare mode --------------------------------------------

/// `SELECT *` bag of one table, as sorted display strings (rows have no
/// guaranteed order, and `Value` is not `Ord`).
fn table_bag(db: &mut Database, table: &str) -> Result<Vec<String>, String> {
    let rows = db
        .query(&format!("SELECT * FROM {table}"))
        .map_err(|e| format!("SELECT * FROM {table}: {e}"))?;
    let mut bag: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    bag.sort();
    Ok(bag)
}

/// `ALTER INDEX … REBUILD` every non-VALID domain index (recovery may
/// legitimately leave external-file indexes quarantined).
fn rebuild_degraded(db: &mut Database) -> Result<(), String> {
    let degraded: Vec<String> = db
        .catalog()
        .health
        .snapshot()
        .into_iter()
        .filter(|s| s.state != HealthState::Valid)
        .map(|s| s.index)
        .collect();
    for name in degraded {
        db.execute(&format!("ALTER INDEX {name} REBUILD"))
            .map_err(|e| format!("post-recovery REBUILD of {name}: {e}"))?;
    }
    Ok(())
}

/// Crash-recover-compare: run a seeded workload on a durable engine,
/// kill it at an injected WAL crash point mid-stream, recover a fresh
/// engine from the surviving medium, and demand the recovered state be
/// bag-equal (per table, plus index health after REBUILD of quarantined
/// indexes) to a twin engine that executed exactly the committed prefix.
///
/// Every `wal.*` crash point is exercised in turn, each against a crash
/// site derived from the seed. `None` means all points recovered
/// cleanly; `Some(detail)` describes the first mismatch.
pub fn run_crash_seed(seed: u64, n: usize) -> Option<String> {
    let workload = generate(seed, n);
    let mutations = mutation_idxs(&workload.stmts);
    if mutations.is_empty() {
        return None;
    }
    for (pi, point) in WAL_FAULT_POINTS.iter().enumerate() {
        let crash_at = mutations[(seed as usize + pi) % mutations.len()];
        let crashes = [(crash_at, *point)];
        if let Some(detail) = crash_and_resume(&workload.preamble, &workload.stmts, &crashes, &[]) {
            return Some(format!("seed {seed}: {detail}"));
        }
    }
    None
}

/// The recover-and-resume arm: one seeded workload crashed up to
/// `crashes` times at seeded `wal.*` points, with checkpoints at seeded
/// statements between the crashes. Every recovery is checked against the
/// committed-prefix twin and the victim resumes on the recovered engine,
/// so a statement lost in one crash must stay lost across every later
/// recovery.
pub fn run_multi_crash_seed(seed: u64, n: usize, crashes: usize) -> Option<String> {
    let workload = generate(seed, n);
    let mutations = mutation_idxs(&workload.stmts);
    if mutations.is_empty() {
        return None;
    }
    let mut x = seed;
    let mut draw = |m: usize| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) as usize % m
    };
    let mut sites: Vec<(usize, &str)> = (0..crashes)
        .map(|_| {
            (mutations[draw(mutations.len())], WAL_FAULT_POINTS[draw(WAL_FAULT_POINTS.len())])
        })
        .collect();
    sites.sort_by_key(|&(i, _)| i);
    sites.dedup_by_key(|&mut (i, _)| i);
    let checkpoints: Vec<usize> = (0..n).filter(|_| draw(6) == 0).collect();
    crash_and_resume(&workload.preamble, &workload.stmts, &sites, &checkpoints)
        .map(|detail| format!("seed {seed}: {detail}"))
}

/// Queries never touch the WAL, so a fault armed there would sit unfired
/// and the run would not crash: crash sites are mutation statements.
fn mutation_idxs(stmts: &[Stmt]) -> Vec<usize> {
    stmts.iter().enumerate().filter(|(_, s)| !matches!(s, Stmt::Query(_))).map(|(i, _)| i).collect()
}

/// Run `stmts` on a durable victim and a non-durable twin; take a
/// checkpoint before each statement listed in `checkpoints`; at each
/// `(statement, point)` of `crashes` arm the point and crash — inside a
/// checkpoint taken before the statement for the `wal.checkpoint*`
/// points, inside the statement for the others — then recover a fresh
/// victim from the medium, compare it with the twin, and resume. The
/// process finally dies with nothing in flight, and that recovery is
/// compared too.
fn crash_and_resume(
    preamble: &[String],
    stmts: &[Stmt],
    crashes: &[(usize, &str)],
    checkpoints: &[usize],
) -> Option<String> {
    let medium = DurableMedium::new();
    let chaos = ChaosOpts::default();
    let mut db = fresh_db(chaos);
    db.enable_durability(medium.clone()).expect("enable durability");
    let mut twin = fresh_db(chaos);
    for sql in preamble {
        db.execute(sql).unwrap_or_else(|e| panic!("preamble failed: {sql}: {e}"));
        twin.execute(sql).unwrap_or_else(|e| panic!("preamble failed: {sql}: {e}"));
    }
    let recover = |twin: &mut Database, what: String| -> Result<Database, String> {
        let mut db = fresh_db(chaos);
        db.enable_durability(medium.clone()).map_err(|e| format!("{what}: recovery failed: {e}"))?;
        match compare_recovered(&mut db, twin) {
            Some(detail) => Err(format!("{what}: {detail}")),
            None => Ok(db),
        }
    };
    for (i, s) in stmts.iter().enumerate() {
        if checkpoints.contains(&i) {
            if let Err(e) = db.checkpoint() {
                return Some(format!("checkpoint before statement {i}: {e}"));
            }
        }
        let Some(&(_, point)) = crashes.iter().find(|&&(at, _)| at == i) else {
            let _ = db.execute(&s.sql());
            let _ = twin.execute(&s.sql());
            continue;
        };
        db.fault_injector().arm_fail(point, None, 1);
        let in_checkpoint = point.starts_with("wal.checkpoint");
        let r = if in_checkpoint { db.checkpoint() } else { db.execute(&s.sql()).map(|_| ()) };
        let fired = db.fault_injector().fired() > 0;
        if fired {
            assert!(r.is_err(), "statement survived a WAL crash at {point}");
            // The victim is dead; only `medium` survives.
            db = match recover(&mut twin, format!("crash at {point}, statement {i}")) {
                Ok(db) => db,
                Err(detail) => return Some(detail),
            };
        } else {
            // The statement never reached the WAL (e.g. a DML matching
            // zero rows appends nothing): it ran like any other.
            db.fault_injector().disarm_all();
        }
        // A checkpoint crash struck before the statement ran; a statement
        // crash took the statement with it.
        if in_checkpoint {
            let _ = db.execute(&s.sql());
        }
        if in_checkpoint || !fired {
            let _ = twin.execute(&s.sql());
        }
    }
    drop(db);
    recover(&mut twin, "death after the last statement".into()).err()
}

/// Bag-equality of every table plus index health between a recovered
/// engine and its committed-prefix twin. External-file indexes may come
/// back QUARANTINED (their files do not wait for commit); REBUILD restores
/// them on both sides first, and nothing else may be degraded afterwards.
fn compare_recovered(recovered: &mut Database, twin: &mut Database) -> Option<String> {
    if let Err(e) = rebuild_degraded(recovered) {
        return Some(e);
    }
    if let Err(e) = rebuild_degraded(twin) {
        return Some(format!("twin: {e}"));
    }
    // Per-table bag equality.
    let mut tables = recovered.catalog().table_names();
    let mut twin_tables = twin.catalog().table_names();
    tables.sort();
    twin_tables.sort();
    if tables != twin_tables {
        return Some(format!(
            "recovered tables {tables:?} != committed-prefix tables {twin_tables:?}"
        ));
    }
    for t in &tables {
        let got = match table_bag(recovered, t) {
            Ok(b) => b,
            Err(e) => return Some(format!("recovered: {e}")),
        };
        let want = match table_bag(twin, t) {
            Ok(b) => b,
            Err(e) => return Some(format!("twin: {e}")),
        };
        if got != want {
            return Some(format!(
                "table {t}: recovered bag ({} rows) != committed-prefix bag ({} rows)",
                got.len(),
                want.len()
            ));
        }
    }
    // Health must agree too (all VALID after the rebuild pass).
    let mut rh: Vec<(String, HealthState)> =
        recovered.catalog().health.snapshot().into_iter().map(|s| (s.index, s.state)).collect();
    let mut th: Vec<(String, HealthState)> =
        twin.catalog().health.snapshot().into_iter().map(|s| (s.index, s.state)).collect();
    rh.sort_by(|a, b| a.0.cmp(&b.0));
    th.sort_by(|a, b| a.0.cmp(&b.0));
    if rh != th {
        return Some(format!("index health diverges: recovered {rh:?} != twin {th:?}"));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_seeded_run_is_clean() {
        if let Some(d) = run_seed(1, 40, ChaosOpts::default()) {
            panic!("unexpected divergence: {}\n{}", d.detail, d.script);
        }
    }

    #[test]
    fn short_seeded_run_survives_quarantine_chaos() {
        if let Some(d) = run_seed(1, 40, ChaosOpts::quarantine()) {
            panic!("unexpected divergence under quarantine chaos: {}\n{}", d.detail, d.script);
        }
    }
}
