//! Execution, comparison, replay, and shrinking.
//!
//! Every generated query runs through each reachable engine plan —
//! optimizer's choice, `/*+ FULL */`, `/*+ NO_INDEX */`, and one
//! `/*+ INDEX(t idx) */` per applicable index — plus the mirror
//! interpreter, and all answers must agree: each against the mirror in
//! the columns it models, and every value, ROWIDs included, against the
//! first plan's. `COUNT(*)` over the same predicate (the NoREC
//! construction) must match the accepted-row count too.
//!
//! With [`ChaosOpts::binds`] every variant also runs a second time, as the
//! same text with its literals lifted to `?` binds ([`lift_binds`]), under
//! a plan the statement cache made for other values: the answers must be
//! bag-equal.
//!
//! The replay rule that makes shrinking sound: a DML/DDL statement is
//! applied to the mirror only if the *engine* accepted it, and engine
//! errors on DML/DDL are no-ops on both sides. Any subset of the
//! statement prefix is therefore a valid workload, so delta debugging
//! can bisect freely.

use std::sync::Arc;

use extidx_common::Value;
use extidx_core::HealthState;
use extidx_sql::lexer::{lex, Token};
use extidx_sql::{Database, DurableMedium, WAL_FAULT_POINTS};

use crate::checked::{Checked, Crossings};
use crate::gen::{generate, other_table, Atom, Pred, Query, Stmt, HEAP, IOT};
use crate::interp::{accepted, answer_rows, join_rows, query_rows, Mirror};
use crate::spec::observe;

/// Chaos switches for an oracle run. All are deterministic: batch
/// dropping is stateless, and quarantine flips are keyed on the
/// statement text (see [`quarantine_chaos`]) so delta-debugging subsets
/// replay identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosOpts {
    /// Drop the final batch of every domain-index scan: the planted bug,
    /// at the plug-in boundary ([`Checked`]).
    pub drop_last_batch: bool,
    /// Randomly quarantine a healthy domain index — or `ALTER INDEX …
    /// REBUILD` a quarantined one — before ~8% of statements, forcing
    /// queries through the functional fallback mid-stream.
    pub quarantine: bool,
    /// Seeded vacuum-cadence chaos for the concurrent scheduler: `0`
    /// keeps the fixed every-3rd-step vacuum; any other value salts a
    /// dedicated rng so an extra incremental vacuum fires at
    /// scheduler-random steps instead (on top of the pass every
    /// transaction end runs). Vacuum is semantics-preserving, so every cadence
    /// must leave the oracles green — this knob hunts for timings the
    /// fixed cadence never produces.
    pub random_vacuum: u64,
    /// The bind ≡ literal arm: run every query variant a second time with
    /// its literals lifted to `?` binds.
    pub binds: bool,
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

    /// The bind ≡ literal arm only (see [`ChaosOpts::binds`]).
    pub fn binds() -> Self {
        Self { binds: true, ..Self::default() }
    }
}

/// A query text with its literals lifted to `?` binds.
#[derive(Debug, PartialEq)]
pub struct Lifted {
    pub sql: String,
    /// The lifted literals, in text order.
    pub binds: Vec<Value>,
    /// `binds` with every comparison operand outside a function call set to
    /// the first of them: binds to plan the text with first, so that a plan
    /// whose shape followed the values it was costed at — a range pinned
    /// because its two ends were equal, a bound kept because it was the
    /// tighter one — answers the real binds wrongly.
    pub warm: Vec<Value>,
}

/// `sql` with every literal lifted to a `?` bind — what a client sending
/// the same query with binds hands the engine. The text is re-rendered
/// from the engine's own lexer, so a bind holds exactly the value the
/// literal would parse to. Strings, numbers and a NULL that is not part of
/// `IS [NOT] NULL` are lifted; what the grammar wants literal stays:
/// `LIMIT n` and the label of `SCORE(n)`.
pub fn lift_binds(sql: &str) -> Lifted {
    const NOT_CALLS: [&str; 6] = ["WHERE", "AND", "OR", "NOT", "IN", "BY"];
    let tokens = lex(sql).expect("generated SQL lexes");
    let (mut text, mut binds, mut compared) = (Vec::new(), Vec::new(), Vec::new());
    // Open parentheses: `true` for a call's argument list.
    let mut parens: Vec<bool> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let back = |n: usize| i.checked_sub(n).map(|j| &tokens[j]);
        let word = |n: usize, w: &str| matches!(back(n), Some(Token::Ident(s)) if s == w);
        let label = word(1, "LIMIT") || (word(2, "SCORE") && back(1) == Some(&Token::LParen));
        let lifted = match t {
            Token::Str(s) => Some(Value::from(s.clone())),
            Token::Int(n) if !label => Some(Value::Integer(*n)),
            Token::Num(x) => Some(Value::Number(*x)),
            Token::Ident(w) if w == "NULL" && !word(1, "IS") && !word(1, "NOT") => Some(Value::Null),
            _ => None,
        };
        match t {
            Token::LParen => parens.push(matches!(back(1),
                Some(Token::Ident(w)) if !NOT_CALLS.contains(&w.as_str()))),
            Token::RParen => drop(parens.pop()),
            _ => {}
        }
        match lifted {
            Some(v) => {
                compared.push(matches!(t, Token::Int(_) | Token::Num(_)) && !parens.contains(&true));
                binds.push(v);
                text.push("?".to_string());
            }
            None => text.push(t.to_string()),
        }
    }
    let first = binds.iter().zip(&compared).find(|(_, &c)| c).map(|(v, _)| v.clone());
    let warm = binds
        .iter()
        .zip(&compared)
        .map(|(v, &c)| match (&first, c) {
            (Some(Value::Integer(n)), true) if matches!(v, Value::Number(_)) => Value::Number(*n as f64),
            (Some(Value::Number(x)), true) if matches!(v, Value::Integer(_)) => Value::Integer(*x as i64),
            (Some(f), true) => f.clone(),
            _ => v.clone(),
        })
        .collect();
    Lifted { sql: text.join(" "), binds, warm }
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
pub fn fresh_db() -> Database {
    let mut db = Database::with_cache_pages(4096);
    extidx_text::install(&mut db).expect("text cartridge");
    extidx_spatial::install(&mut db).expect("spatial cartridge");
    extidx_vir::install(&mut db).expect("vir cartridge");
    extidx_chem::install(&mut db).expect("chem cartridge");
    db
}

/// [`fresh_db`] with every indextype re-created over its implementation
/// wrapped in [`Checked`], and what the wrappers record.
pub fn checked_db(chaos: ChaosOpts) -> (Database, Arc<Crossings>) {
    let mut db = fresh_db();
    let crossings = Arc::new(Crossings::default());
    for name in db.catalog().registry().indextype_names() {
        let it = db.catalog().registry().indextype(&name).expect("a listed indextype");
        let using = format!("CHECKED_{name}");
        let checked = Checked {
            inner: it.implementation.clone(),
            crossings: crossings.clone(),
            drop_last_batch: chaos.drop_last_batch,
        };
        db.register_odci_implementation(&using, Arc::new(checked), it.stats.clone());
        let ops = it.operators.iter().map(|o| {
            let types: Vec<String> = o.arg_types.iter().map(ToString::to_string).collect();
            format!("{}({})", o.name, types.join(", "))
        });
        let ops = ops.collect::<Vec<_>>().join(", ");
        db.execute(&format!("DROP INDEXTYPE {name}")).expect("an indextype no index uses drops");
        db.execute(&format!("CREATE INDEXTYPE {name} FOR {ops} USING {using}")).expect("re-created");
    }
    (db, crossings)
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
        // An operator atom counts its column, its arguments and its label.
        let usable = atoms.iter().any(|a| match a {
            Atom::Op(a) => {
                let arity = 1 + a.args.len() + usize::from(a.label.is_some());
                let col = d.column.eq_ignore_ascii_case(a.spec.col.name());
                !a.has_null() && col && it.supports(a.spec.name, arity)
            }
            _ => false,
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

/// The first rows of an answer, one `(a|b|…)` each, and how many it has.
pub(crate) fn fmt_rows(rows: &[Vec<String>]) -> String {
    let shown: Vec<String> = rows.iter().take(24).map(|r| format!("({})", r.join("|"))).collect();
    let ellipsis = if rows.len() > 24 { ", …" } else { "" };
    format!("[{}{ellipsis}] ({} rows)", shown.join(", "), rows.len())
}

/// Each `(label, sql)` as itself, then — under [`ChaosOpts::binds`] — as
/// its [`lift_binds`] form.
pub(crate) fn with_bind_forms(variants: Vec<(String, String)>, chaos: ChaosOpts) -> Vec<(String, Lifted)> {
    let lifted: Vec<_> = if chaos.binds {
        variants.iter().map(|(l, sql)| (format!("{l}+binds"), lift_binds(sql))).collect()
    } else {
        Vec::new()
    };
    let plain = variants.into_iter().map(|(l, sql)| (l, Lifted { sql, binds: vec![], warm: vec![] }));
    plain.chain(lifted).collect()
}

/// Answer a variant. A lifted one runs twice under its warm-up binds
/// first (errors there are no verdict), so the statement cache keeps a
/// plan costed at other values than the ones it answers.
fn run_variant(db: &mut Database, v: &Lifted) -> extidx_common::Result<Vec<Vec<Value>>> {
    if !v.binds.is_empty() {
        for _ in 0..2 {
            let _ = db.query_with(&v.sql, &v.warm);
        }
    }
    db.query_with(&v.sql, &v.binds)
}

/// Hold a variant's engine answer against the mirror's expectation: an
/// expected refusal (`Err`) must be an error; an error is otherwise a
/// divergence, unless the query's operator refuses its arguments and the
/// mirror just reached no row that asks it. `Ok(None)` is an agreed
/// refusal.
fn settle<T, U>(
    label: &str,
    sql: &str,
    expected: &Result<T, String>,
    refusable: bool,
    got: extidx_common::Result<U>,
) -> Result<Option<U>, String> {
    match (expected, got) {
        (Err(_), Err(_)) => Ok(None),
        (Ok(_), Err(_)) if refusable => Ok(None),
        (Err(why), Ok(_)) => Err(format!("variant [{label}] answered, not refused ({why})\n  sql: {sql}")),
        (Ok(_), Err(e)) => Err(format!("variant [{label}] errored: {e}\n  sql: {sql}")),
        (Ok(_), Ok(v)) => Ok(Some(v)),
    }
}

/// Whether the query's operator refuses its arguments (a refused atom is
/// always its query's whole predicate).
fn refusable(q: &Query) -> bool {
    matches!(&q.pred, Pred::Atom(Atom::Op(a)) if a.refused())
}

/// The plan variants of `q`: the optimizer's choice, `FULL`, `NO_INDEX`
/// (with `no_index`), and one `INDEX(t idx)` per index that can be forced.
pub(crate) fn plan_variants(db: &Database, q: &Query, no_index: bool) -> Vec<(String, String)> {
    let mut variants: Vec<(String, String)> = vec![
        ("plan".into(), q.sql(None)),
        ("full".into(), q.sql(Some(&format!("FULL({})", q.table)))),
    ];
    if no_index {
        variants.push(("no_index".into(), q.sql(Some(&format!("NO_INDEX({})", q.table)))));
    }
    for idx in forcible_indexes(db, q) {
        let hint = format!("INDEX({} {idx})", q.table);
        variants.push((format!("index:{idx}"), q.sql(Some(&hint))));
    }
    variants
}

/// Hold each variant's answer against the mirror's rows and — geometries,
/// images and ROWIDs included — against the first variant's. `run` answers
/// a variant, or describes the breach of the scan contract it caused.
pub(crate) fn check_variants(
    q: &Query,
    expected: &Result<Vec<Vec<String>>, String>,
    variants: &[(String, Lifted)],
    mut run: impl FnMut(&Lifted) -> Result<extidx_common::Result<Vec<Vec<Value>>>, String>,
) -> Result<(), String> {
    let mut first: Option<(&str, Vec<Vec<String>>)> = None;
    for (label, v) in variants {
        let Lifted { sql, binds, .. } = v;
        let broke = |breach| format!("variant [{label}] broke the scan contract: {breach}\n  sql: {sql}");
        let got = run(v).map_err(broke)?;
        let settled = settle(label, sql, expected, refusable(q), got);
        let Some(rows) = settled.map_err(|detail| format!("{detail}\n  binds: {binds:?}"))? else { continue };
        let shape = |e| format!("variant [{label}] bad row shape: {e}\n  sql: {sql}");
        let [got, full] = answer_rows(q, &rows).map_err(shape)?;
        let expected = expected.as_ref().expect("an answer where the plans answer");
        if got != *expected {
            return Err(format!(
                "variant [{label}] diverges from interpreter\n  sql: {sql}\n  binds: {binds:?}\n  \
                 expected {}\n  got      {}",
                fmt_rows(expected),
                fmt_rows(&got)
            ));
        }
        match &first {
            None => first = Some((label, full)),
            Some((first_label, want)) if full != *want => {
                return Err(format!(
                    "variant [{label}] diverges from [{first_label}]\n  sql: {sql}\n  \
                     binds: {binds:?}\n  [{first_label}] {}\n  [{label}] {}",
                    fmt_rows(want),
                    fmt_rows(&full)
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Run one query through every path and compare. `Some(detail)` on the
/// first disagreement, or on the first variant after which the
/// [`Checked`] wrappers saw a breach of the scan contract.
fn check_query(
    db: &mut Database,
    crossings: &Crossings,
    mirror: &Mirror,
    q: &Query,
    chaos: ChaosOpts,
) -> Option<String> {
    let variants = with_bind_forms(plan_variants(db, q, true), chaos);
    let run = |v: &Lifted| {
        let got = run_variant(db, v);
        crossings.verdict().map_or(Ok(got), Err)
    };
    if let Err(detail) = check_variants(q, &query_rows(q, mirror), &variants, run) {
        return Some(detail);
    }

    // NoREC: the aggregated form of the same predicate must agree with
    // the row-retrieval count.
    let expected_count = accepted(q, mirror).map(|rows| Value::Integer(rows.len() as i64));
    let full_hint = format!("FULL({})", q.table);
    let counts = vec![
        ("count".to_string(), q.count_sql(None)),
        ("count_full".to_string(), q.count_sql(Some(&full_hint))),
    ];
    for (label, v) in with_bind_forms(counts, chaos) {
        let sql = &v.sql;
        let got = match settle(&label, sql, &expected_count, refusable(q), run_variant(db, &v)) {
            Err(detail) => return Some(detail),
            Ok(None) => continue,
            Ok(Some(rows)) => rows.first().and_then(|r| r.first()).cloned(),
        };
        if got.as_ref() != expected_count.as_ref().ok() {
            return Some(format!(
                "variant [{label}] count diverges\n  sql: {sql}\n  expected {expected_count:?}, got {got:?}"
            ));
        }
    }
    crossings.verdict().or_else(|| check_join(db, crossings, mirror, q))
}

/// The generated join form of a query's operator ([`Query::join_sql`]):
/// `o`, the other fuzz table, supplies the argument, and NULLs sit on both
/// sides. Unhinted, under `NO_INDEX(i)` and under `FULL(i)` the answer is
/// the mirror's pairs; the two hints start no scan of `i`'s indexes; and
/// `INDEX(i idx)`, which no single-table predicate of `i` can use, is
/// refused. Every domain join EXPLAIN shows (a scan of the inner table's
/// index per batch of outer rows) is given exactly the outer rows whose
/// argument is not NULL. `o`'s indexes take part unhinted: a domain join
/// over one passes the column second, which the optimizer plans only for
/// an indextype that declares that position.
fn check_join(db: &mut Database, crossings: &Crossings, mirror: &Mirror, q: &Query) -> Option<String> {
    let atom = q.join.as_ref()?;
    let expected = join_rows(q, atom, mirror);
    let mut variants: Vec<(String, bool)> =
        ["", "NO_INDEX(i)", "FULL(i)"].iter().map(|h| (h.to_string(), false)).collect();
    for d in db.catalog().domain_indexes_on(q.table) {
        if d.column.eq_ignore_ascii_case(atom.spec.col.name()) {
            variants.push((format!("INDEX(i {})", d.name), true));
        }
    }
    let args_of = |t: &str| mirror.table(t).values().filter(|r| !r.arg(atom.spec.col).is_null()).count();
    for (hint, refused) in variants {
        let sql = q.join_sql(Some(&hint)).expect("a join form");
        let plan = db.explain(&sql).map(|lines| lines.join("\n")).unwrap_or_default();
        let got = db.query(&sql);
        let seen = crossings.take();
        let label = format!("join {hint}");
        let mut breaches = seen.breaches;
        breaches.extend((seen.open > 0).then(|| format!("{} Start without Close", seen.open)));
        for t in [HEAP, IOT] {
            let joined = plan.contains(&format!("DOMAIN JOIN {t} "));
            let started = seen.started.get(t).copied().unwrap_or(0);
            if (hint.contains("(i)") || hint.contains("INDEX(i")) && t == q.table && started > 0 {
                breaches.push(format!("{started} argument rows started a scan of {t}'s indexes"));
            } else if started != if joined { args_of(other_table(t)) } else { 0 } {
                breaches.push(format!("Starts on {t} given {started} argument rows, plan:\n{plan}"));
            }
        }
        if !breaches.is_empty() {
            let breach = breaches.join("; ");
            return Some(format!("variant [{label}] broke the scan contract: {breach}\n  sql: {sql}"));
        }
        let want = if refused { &Err("no single-table predicate uses it".into()) } else { &expected };
        let rows = match settle(&label, &sql, want, false, got) {
            Err(detail) => return Some(detail),
            Ok(rows) => rows,
        };
        if let Some(rows) = rows {
            let mut got: Vec<Vec<String>> =
                rows.iter().map(|r| r.iter().map(ToString::to_string).collect()).collect();
            got.sort();
            let expected = expected.as_ref().expect("pairs where the plans answer");
            if got != *expected {
                return Some(format!(
                    "variant [{label}] diverges from interpreter\n  sql: {sql}\n  \
                     expected {}\n  got      {}",
                    fmt_rows(expected),
                    fmt_rows(&got)
                ));
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
fn step(
    db: &mut Database,
    crossings: &Crossings,
    mirror: &mut Mirror,
    stmt: &Stmt,
    chaos: ChaosOpts,
) -> Option<String> {
    if chaos.quarantine {
        quarantine_chaos(db, stmt);
    }
    match stmt {
        Stmt::Query(q) => check_query(db, crossings, mirror, q, chaos),
        _ => {
            if db.execute(&stmt.sql()).is_ok() {
                mirror.apply(stmt);
            }
            None
        }
    }
}

/// Replay `preamble + stmts + final_stmt` from scratch; true if any
/// divergence shows (used as the delta-debugging failure predicate).
fn replay_fails(preamble: &[String], stmts: &[Stmt], final_stmt: &Stmt, chaos: ChaosOpts) -> bool {
    let (mut db, crossings) = checked_db(chaos);
    for sql in preamble {
        if db.execute(sql).is_err() {
            return false;
        }
    }
    let mut mirror = Mirror::default();
    for s in stmts {
        if step(&mut db, &crossings, &mut mirror, s, chaos).is_some() {
            return true;
        }
    }
    step(&mut db, &crossings, &mut mirror, final_stmt, chaos).is_some()
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
    let (mut db, crossings) = checked_db(chaos);
    for sql in &workload.preamble {
        db.execute(sql).unwrap_or_else(|e| panic!("preamble failed: {sql}: {e}"));
    }
    let mut mirror = Mirror::default();
    for (i, s) in workload.stmts.iter().enumerate() {
        if let Some(detail) = step(&mut db, &crossings, &mut mirror, s, chaos) {
            let kept = ddmin(&workload.preamble, &workload.stmts[..i], s, chaos);
            let script = render_script(seed, i, &detail, &workload.preamble, &kept, s);
            return Some(Divergence { seed, step: i, detail, minimized: kept.len() + 1, script });
        }
    }
    None
}

// ---- crash-recover-compare mode --------------------------------------------

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
    let mut db = fresh_db();
    db.enable_durability(medium.clone()).expect("enable durability");
    let mut twin = fresh_db();
    for sql in preamble {
        db.execute(sql).unwrap_or_else(|e| panic!("preamble failed: {sql}: {e}"));
        twin.execute(sql).unwrap_or_else(|e| panic!("preamble failed: {sql}: {e}"));
    }
    let recover = |twin: &mut Database, what: String| -> Result<Database, String> {
        let mut db = fresh_db();
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
    // Every table, and every external file's length, must agree.
    let (got, want) = (observe(recovered, &[]), observe(twin, &[]));
    if got != want {
        let first = got.iter().zip(&want).find(|(g, w)| g != w);
        return Some(format!("recovered != committed prefix, first at {first:?}"));
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
    fn lifted_literals_become_binds_in_order() {
        let Lifted { sql, binds, warm } = lift_binds(
            "SELECT /*+ INDEX(F_IOT QI_NUM) */ id, SCORE(1) FROM F_IOT WHERE Contains(doc, 'it''s', 1) \
             AND num >= 12.5 AND grp = 3 AND doc IS NOT NULL AND mol IS NULL \
             AND Sdo_Relate(geom, SDO_GEOMETRY(3, VARRAY(1, 2.5e1)), NULL) ORDER BY id LIMIT 4",
        );
        assert_eq!(
            sql,
            "SELECT /*+INDEX(F_IOT QI_NUM)*/ ID , SCORE ( 1 ) FROM F_IOT WHERE CONTAINS ( DOC , ? , ? ) \
             AND NUM >= ? AND GRP = ? AND DOC IS NOT NULL AND MOL IS NULL \
             AND SDO_RELATE ( GEOM , SDO_GEOMETRY ( ? , VARRAY ( ? , ? ) ) , ? ) ORDER BY ID LIMIT 4"
        );
        assert_eq!(
            binds,
            vec![
                Value::from("it's"),
                Value::Integer(1),
                Value::Number(12.5),
                Value::Integer(3),
                Value::Integer(3),
                Value::Integer(1),
                Value::Number(25.0),
                Value::Null,
            ]
        );
        // Only the comparison operands outside calls (12.5 and 3) meet at
        // one value; call arguments keep theirs.
        let mut pinned = binds.clone();
        pinned[3] = Value::Integer(12);
        assert_eq!(warm, pinned);
    }

    #[test]
    fn short_seeded_run_is_clean() {
        if let Some(d) = run_seed(1, 40, ChaosOpts::default()) {
            panic!("unexpected divergence: {}\n{}", d.detail, d.script);
        }
    }

    #[test]
    fn short_seeded_run_answers_alike_with_binds() {
        if let Some(d) = run_seed(1, 40, ChaosOpts::binds()) {
            panic!("bind and literal forms diverge: {}\n{}", d.detail, d.script);
        }
    }

    #[test]
    fn short_seeded_run_survives_quarantine_chaos() {
        if let Some(d) = run_seed(1, 40, ChaosOpts::quarantine()) {
            panic!("unexpected divergence under quarantine chaos: {}\n{}", d.detail, d.script);
        }
    }
}
