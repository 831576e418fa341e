//! Single-table access paths: the half of §2.4.2 that picks how one
//! table is read.
//!
//! For each table reference the optimizer hands over the table's own
//! conjuncts and its resolved hints, and gets back one access node with
//! the residual conjuncts filtered on top. The candidates are the full
//! scan (with zone-map pruning bounds), a direct ROWID fetch, a B-tree
//! range, the IOT key prefix, and a domain-index scan for a user-defined
//! operator, costed through the cartridge's `ODCIStatsSelectivity` and
//! `ODCIStatsIndexCost`. Everything the relational candidates know about
//! `col relop literal` / `col BETWEEN` conjuncts comes from one table of
//! sargable bounds ([`sargable_bounds`]). Whether a domain index can carry
//! an operator conjunct is decided by one matcher, [`domain_matches`],
//! which the optimizer's join planning also asks for a domain join. A `V$`
//! view has one access path, [`view_access`]. Join, aggregate and filter
//! planning stay in [`crate::optimizer`].

use std::cmp::Ordering;

use extidx_common::{Error, Result, Value};
use extidx_core::meta::{OperatorCall, PredicateBound, RelOp};
use extidx_core::trace::Routine;

use crate::ast::{BinOp, Expr, Hint};
use crate::catalog::{DomainIndexDef, TableDef, TableOrg};
use crate::database::Database;
use crate::exec_ctx::{odci_call, Callee, Exec, Lane};
use crate::expr::{compile_expr, RExpr, Scope};
use crate::optimizer::{count_op_calls, expr_any, table_scope, wrap_filter, CostModel};
use crate::plan::{score_label, value_of, KeyBound, PlanKind, PlanNode, ReadSet, ZoneBound};
use crate::vtables::VTable;

// ---------------------------------------------------------------------------
// plan-forcing hints
// ---------------------------------------------------------------------------

/// Plan-forcing hints resolved for one table reference. Unlike Oracle's
/// advisory hints these are *hard* overrides of the cost decision — the
/// differential test harness uses them to pin each of §2.4.2's
/// semantically equivalent paths in turn.
#[derive(Debug, Clone, Default)]
pub(crate) struct TableHints {
    /// `INDEX(t idx)`: access must go through the named index.
    pub force_index: Option<String>,
    /// `NO_INDEX[(t)]`: no domain-index paths; operators fall back to
    /// functional evaluation. B-tree/IOT access stays available.
    pub no_index: bool,
    /// `FULL[(t)]`: full scan only.
    pub full: bool,
}

/// Resolve a SELECT's hint list against its FROM clause and the catalog.
/// Unknown tables, unknown index names, indexes on the wrong table, and
/// contradictory combinations are all errors — a hint that cannot bind
/// must not silently degrade to "optimizer's choice".
pub(crate) fn resolve_table_hints(
    db: &Database,
    hints: &[Hint],
    tdefs: &[TableDef],
    aliases: &[String],
) -> Result<Vec<TableHints>> {
    let mut out = vec![TableHints::default(); tdefs.len()];
    let find = |name: &str| -> Result<usize> {
        aliases
            .iter()
            .position(|a| a.eq_ignore_ascii_case(name))
            .or_else(|| tdefs.iter().position(|t| t.name.eq_ignore_ascii_case(name)))
            .ok_or_else(|| {
                Error::Semantic(format!("hint references table {name} not in FROM clause"))
            })
    };
    for h in hints {
        match h {
            Hint::Index { table, index } => {
                let i = find(table)?;
                let owner = db
                    .catalog()
                    .domain_index(index)
                    .map(|d| d.table.clone())
                    .or_else(|| db.catalog().btree_index(index).map(|b| b.table.clone()))
                    .ok_or_else(|| Error::not_found("index", index.clone()))?;
                if !owner.eq_ignore_ascii_case(&tdefs[i].name) {
                    return Err(Error::Semantic(format!(
                        "hint INDEX({table} {index}): index {index} is on table {owner}, not {}",
                        tdefs[i].name
                    )));
                }
                out[i].force_index = Some(index.to_ascii_uppercase());
            }
            Hint::NoIndex { table: Some(t) } => out[find(t)?].no_index = true,
            Hint::NoIndex { table: None } => out.iter_mut().for_each(|h| h.no_index = true),
            Hint::Full { table: Some(t) } => out[find(t)?].full = true,
            Hint::Full { table: None } => out.iter_mut().for_each(|h| h.full = true),
        }
    }
    for (i, h) in out.iter().enumerate() {
        if h.full && h.force_index.is_some() {
            return Err(Error::Semantic(format!(
                "conflicting hints FULL and INDEX on table {}",
                tdefs[i].name
            )));
        }
        if let (true, Some(idx)) = (h.no_index, &h.force_index) {
            if db.catalog().domain_index(idx).is_some() {
                return Err(Error::Semantic(format!(
                    "conflicting hints NO_INDEX and INDEX({}) on table {}",
                    idx, tdefs[i].name
                )));
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// single-table access-path selection
// ---------------------------------------------------------------------------

/// `(rows, pages)` the optimizer believes a table has.
fn table_shape(db: &Database, tdef: &TableDef) -> (f64, f64) {
    let storage = db.storage();
    match (storage.row_count(tdef.seg), storage.page_count(tdef.seg)) {
        (Ok(rows), Ok(pages)) => (rows as f64, pages.max(1) as f64),
        _ => (1.0, 1.0),
    }
}

/// The value side of a sargable conjunct: a literal, or a bind. A bind is
/// costed at the value of the execution that plans it (bind peeking) but
/// never compared with another operand here — that comparison belongs to
/// the scan, which resolves its range under each execution's own binds.
#[derive(Clone)]
enum Operand {
    Lit(Value),
    /// Placeholder index and the value peeked at plan time.
    Bind(usize, Value),
}

impl Operand {
    fn of(e: &Expr, binds: &[Value]) -> Option<Operand> {
        match e {
            Expr::Literal(v) => Some(Operand::Lit(v.clone())),
            Expr::Parameter(i) => Some(Operand::Bind(*i, binds.get(*i)?.clone())),
            _ => None,
        }
    }

    /// The value costing uses.
    fn peek(&self) -> &Value {
        match self {
            Operand::Lit(v) | Operand::Bind(_, v) => v,
        }
    }

    /// What the plan keeps.
    fn expr(&self) -> RExpr {
        match self {
            Operand::Lit(v) => RExpr::Const(v.clone()),
            Operand::Bind(i, _) => RExpr::Param(*i),
        }
    }

    /// Plan-time order of two literals; `None` once a bind is involved.
    fn lit_cmp(&self, other: &Operand) -> Option<Ordering> {
        match (self, other) {
            (Operand::Lit(a), Operand::Lit(b)) => Some(a.total_cmp(b)),
            _ => None,
        }
    }

    /// Do both name the same value under every bind set?
    fn same(&self, other: &Operand) -> bool {
        match (self, other) {
            (Operand::Bind(i, _), Operand::Bind(j, _)) => i == j,
            _ => self.lit_cmp(other).is_some_and(Ordering::is_eq),
        }
    }
}

/// The comparison a binary operator makes, if it makes one.
fn relop_of(op: BinOp) -> Option<RelOp> {
    match op {
        BinOp::Eq => Some(RelOp::Eq),
        BinOp::Lt => Some(RelOp::Lt),
        BinOp::Le => Some(RelOp::Le),
        BinOp::Gt => Some(RelOp::Gt),
        BinOp::Ge => Some(RelOp::Ge),
        BinOp::Like => Some(RelOp::Like),
        _ => None,
    }
}

/// `a relop b` restated as `b relop' a`.
fn flipped(relop: RelOp) -> RelOp {
    match relop {
        RelOp::Lt => RelOp::Gt,
        RelOp::Le => RelOp::Ge,
        RelOp::Gt => RelOp::Lt,
        RelOp::Ge => RelOp::Le,
        other => other,
    }
}

/// `col relop literal` (either orientation) over this table's scope.
/// `LIKE` bounds no key range, so it is not one of them.
fn match_col_relop(
    e: &Expr,
    scope: &Scope,
    tdef: &TableDef,
    binds: &[Value],
) -> Option<(String, RelOp, Operand)> {
    let col_of = |e: &Expr| -> Option<String> {
        if let Expr::Column { qualifier, name } = e {
            if scope.resolve(qualifier.as_deref(), name).is_ok() && tdef.column_index(name).is_ok() {
                return Some(name.to_ascii_uppercase());
            }
        }
        None
    };
    if let Expr::Binary(op, a, b) = e {
        let relop = relop_of(*op).filter(|r| *r != RelOp::Like)?;
        if let (Some(col), Some(v)) = (col_of(a), Operand::of(b, binds)) {
            return Some((col, relop, v));
        }
        if let (Some(v), Some(col)) = (Operand::of(a, binds), col_of(b)) {
            return Some((col, flipped(relop), v));
        }
    }
    None
}

/// `col BETWEEN lo AND hi` over this table.
fn match_between(
    e: &Expr,
    scope: &Scope,
    tdef: &TableDef,
    binds: &[Value],
) -> Option<(String, Operand, Operand)> {
    if let Expr::Between(a, lo, hi) = e {
        if let (Expr::Column { qualifier, name }, Some(l), Some(h)) =
            (a.as_ref(), Operand::of(lo, binds), Operand::of(hi, binds))
        {
            if scope.resolve(qualifier.as_deref(), name).is_ok() && tdef.column_index(name).is_ok() {
                return Some((name.to_ascii_uppercase(), l, h));
            }
        }
    }
    None
}

/// A user-defined-operator predicate in indexable form:
/// `Op(args…)` or `Op(args…) relop literal` (§2.4.2).
pub(crate) struct OpPredicate {
    pub(crate) name: String,
    pub(crate) args: Vec<Expr>,
    pub(crate) bound: PredicateBound,
}

pub(crate) fn match_op_predicate(e: &Expr, db: &Database) -> Option<OpPredicate> {
    let as_call = |e: &Expr| -> Option<(String, Vec<Expr>)> {
        if let Expr::Call { name, args } = e {
            if db.catalog().registry().has_operator(name) {
                return Some((name.to_ascii_uppercase(), args.clone()));
            }
        }
        None
    };
    // Bare call: Contains(...) ≡ Contains(...) = TRUE.
    if let Some((name, args)) = as_call(e) {
        return Some(OpPredicate { name, args, bound: PredicateBound::is_true() });
    }
    if let Expr::Binary(op, a, b) = e {
        let relop = relop_of(*op)?;
        if let (Some((name, args)), Expr::Literal(v)) = (as_call(a), b.as_ref()) {
            return Some(OpPredicate {
                name,
                args,
                bound: PredicateBound { relop, value: v.clone() },
            });
        }
        if let (Expr::Literal(v), Some((name, args))) = (a.as_ref(), as_call(b)) {
            return Some(OpPredicate {
                name,
                args,
                bound: PredicateBound { relop: flipped(relop), value: v.clone() },
            });
        }
    }
    None
}

/// A domain index that can carry one operator conjunct, and what its scan
/// is driven with: one answer of [`domain_matches`].
pub(crate) struct DomainMatch {
    def: DomainIndexDef,
    operator: String,
    bound: PredicateBound,
    /// The operator's non-column arguments as the plan keeps them.
    args: Vec<RExpr>,
    /// Where the indexed column stands among the operator's arguments.
    column_pos: usize,
    /// Their values now, when none of them reads an outer row: what
    /// ODCIStats costing is asked with.
    values: Option<Vec<Value>>,
    label: Option<i64>,
    /// An `INDEX` hint names this index.
    forced: bool,
}

impl DomainMatch {
    /// The domain scan this match plans: over `outer`, a domain join.
    pub(crate) fn plan(self, outer: Option<PlanNode>, forced: Option<String>) -> PlanKind {
        PlanKind::DomainScan {
            outer: outer.map(Box::new),
            table: self.def.table,
            index: self.def.name,
            indextype: self.def.indextype,
            operator: self.operator,
            args: self.args,
            column_pos: self.column_pos,
            bound: self.bound,
            label: self.label,
            forced,
            reads: ReadSet::default(),
        }
    }
}

/// The one domain-index matcher (§2.4.2): the domain indexes on `tdef`
/// (whose columns `scope` names) that can carry the operator conjunct `e`.
/// For a scan (`outer` is `None`) every other argument must be a constant
/// or a bind; for a domain join it may also read the outer scope's row.
/// An index qualifies when its indextype supports the operator, the
/// indexed column is a bare argument at a position the indextype declares
/// ([`extidx_core::OdciIndex::column_positions`]) and the hints allow it
/// (`FULL` and `NO_INDEX` forbid every index, `INDEX` all but the one it
/// names). An unusable (quarantined or build-failed) index is an error when
/// forced; otherwise it is returned by name, for EXPLAIN's degraded note.
pub(crate) fn domain_matches(
    db: &Exec<'_>,
    tdef: &TableDef,
    scope: &Scope,
    e: &Expr,
    outer: Option<&Scope>,
    score_labels: &[i64],
    hints: &TableHints,
) -> Result<(Vec<DomainMatch>, Vec<String>)> {
    let (mut found, mut degraded) = (Vec::new(), Vec::new());
    let Some(op) = match_op_predicate(e, db).filter(|_| !hints.full && !hints.no_index) else {
        return Ok((found, degraded));
    };
    for d in db.catalog().domain_indexes_on(&tdef.name) {
        let forced = match &hints.force_index {
            Some(f) if *f != d.name => continue,
            Some(_) => true,
            None => false,
        };
        let Ok(it) = db.catalog().registry().indextype(&d.indextype) else { continue };
        if !it.supports(&op.name, op.args.len()) {
            continue;
        }
        let at = |i| it.implementation.column_positions().contains(&i);
        let Some((column_pos, args, values)) =
            domain_args(db, &op.args, &d.column, at, scope, outer)
        else {
            continue;
        };
        // Health gate: an unusable index is invisible to costing (its
        // stats routines are never consulted) and the conjunct degrades
        // to the functional fallback. Forcing one is an error, not a
        // silent fall-through.
        if !db.catalog().health.is_usable(&d.name) {
            if forced {
                return Err(Error::Semantic(format!(
                    "cannot force index {} on {}: index is {}",
                    d.name,
                    tdef.name,
                    db.catalog().health.state(&d.name)
                )));
            }
            degraded.push(d.name.clone());
            continue;
        }
        // Ancillary label convention: a trailing integer argument (a
        // literal, or a bind the plan records in its `LabelBinds`)
        // matching a SCORE(n) reference in the query.
        let label = match args.last() {
            Some(RExpr::Const(v)) => score_label(score_labels, Some(v)),
            Some(RExpr::Param(i)) => score_label(score_labels, db.binds.get(*i)),
            _ => None,
        };
        found.push(DomainMatch {
            def: d.clone(),
            operator: op.name.clone(),
            bound: op.bound.clone(),
            args,
            column_pos,
            values,
            label,
            forced,
        });
    }
    Ok((found, degraded))
}

/// The position of the indexed column (a bare column of `scope`, taken
/// once, at a position `at` admits) among the operator's arguments, and
/// the other arguments as a domain scan keeps them, with their values when
/// all are known now. A column-free argument is folded: kept as its value,
/// or as the expression when it reads a bind (evaluated again when the
/// scan opens). Any other argument must compile against `outer`. `None`
/// when an argument fits neither or folds to NULL: a NULL operand makes the
/// operator NULL for every row, which the functional fallback answers
/// without asking the cartridge.
fn domain_args(
    db: &Exec<'_>,
    args: &[Expr],
    column: &str,
    at: impl Fn(usize) -> bool,
    scope: &Scope,
    outer: Option<&Scope>,
) -> Option<(usize, Vec<RExpr>, Option<Vec<Value>>)> {
    let (mut col_pos, mut kept, mut values) = (None, Vec::new(), Some(Vec::new()));
    for (i, a) in args.iter().enumerate() {
        if let Expr::Column { qualifier, name } = a {
            if col_pos.is_none()
                && at(i)
                && name.eq_ignore_ascii_case(column)
                && scope.resolve(qualifier.as_deref(), name).is_ok()
            {
                col_pos = Some(i);
                continue;
            }
        }
        let Ok(compiled) = compile_expr(a, &Scope::default(), db.catalog()) else {
            kept.push(compile_expr(a, outer?, db.catalog()).ok()?);
            values = None;
            continue;
        };
        let v = value_of(&compiled, &db.eval_ctx()).ok().filter(|v| !v.is_null())?;
        let binds = expr_any(a, &mut |x| matches!(x, Expr::Parameter(_)));
        kept.push(if binds { compiled } else { RExpr::Const(v.clone()) });
        if let Some(vs) = &mut values {
            vs.push(v);
        }
    }
    Some((col_pos?, kept, values))
}

/// A sargable conjunct: one column of this table compared with literals
/// or binds.
enum Sarg {
    Rel(RelOp, Operand),
    Between(Operand, Operand),
}

/// The one sargable matcher; everything access-path selection knows about
/// `col relop literal` / `col BETWEEN` conjuncts comes from this call.
/// Yields the column's index and name with the comparison.
fn match_sarg(
    e: &Expr,
    scope: &Scope,
    tdef: &TableDef,
    binds: &[Value],
) -> Option<(usize, String, Sarg)> {
    let (name, sarg) = match_col_relop(e, scope, tdef, binds)
        .map(|(col, relop, v)| (col, Sarg::Rel(relop, v)))
        .or_else(|| {
            match_between(e, scope, tdef, binds).map(|(col, l, h)| (col, Sarg::Between(l, h)))
        })?;
    Some((tdef.column_index(&name).ok()?, name, sarg))
}

/// Selectivity of a sargable conjunct from column statistics.
fn sarg_selectivity(cm: &CostModel, tdef: &TableDef, col: usize, sarg: &Sarg) -> f64 {
    let cs = tdef.stats.as_ref().and_then(|s| s.columns.get(col));
    let num = |v: Option<&Value>| v.map(|m| m.as_number());
    match sarg {
        Sarg::Rel(RelOp::Eq, _) => {
            cs.filter(|c| c.ndv > 0).map(|c| 1.0 / c.ndv as f64).unwrap_or(cm.default_eq_sel)
        }
        Sarg::Rel(relop, v) => {
            // Range fraction over [min, max] when numeric stats exist.
            if let (Some(c), Ok(x)) = (cs, v.peek().as_number()) {
                if let (Some(Ok(lo)), Some(Ok(hi))) = (num(c.min.as_ref()), num(c.max.as_ref())) {
                    if hi > lo {
                        let f = ((x - lo) / (hi - lo)).clamp(0.0, 1.0);
                        return match relop {
                            RelOp::Lt | RelOp::Le => f.max(1e-4),
                            RelOp::Gt | RelOp::Ge => (1.0 - f).max(1e-4),
                            _ => cm.default_range_sel,
                        };
                    }
                }
            }
            cm.default_range_sel
        }
        Sarg::Between(lo, hi) => {
            if let Some(c) = cs {
                if let (Ok(lo), Ok(hi), Some(Ok(mn)), Some(Ok(mx))) = (
                    lo.peek().as_number(),
                    hi.peek().as_number(),
                    num(c.min.as_ref()),
                    num(c.max.as_ref()),
                )
                {
                    if mx > mn {
                        return (((hi.min(mx) - lo.max(mn)) / (mx - mn)).clamp(0.0, 1.0)).max(1e-4);
                    }
                }
            }
            cm.default_range_sel
        }
    }
}

/// One side of a column's sargable range: the tightest operand the
/// conjuncts put there, whether the comparison excludes the operand
/// itself, and the conjuncts that say exactly this.
struct Side {
    v: Operand,
    strict: bool,
    from: Vec<usize>,
}

impl Side {
    /// Fold conjunct `ci`'s bound into `slot`, keeping the tightest.
    /// `narrows` is how a literal that narrows this side compares with the
    /// one already there (`Greater` for a lower bound, `Less` for an upper).
    /// A looser conjunct is not recorded and so stays in the residual — as
    /// does any second bound where a bind is involved, whose tightness is
    /// only known when the statement runs.
    fn fold(slot: &mut Option<Side>, v: &Operand, strict: bool, ci: usize, narrows: Ordering) {
        let tighter = match slot {
            None => true,
            Some(s) if strict == s.strict && v.same(&s.v) => return s.from.push(ci),
            Some(s) => match v.lit_cmp(&s.v) {
                None => false,
                Some(Ordering::Equal) => strict,
                Some(o) => o == narrows,
            },
        };
        if tighter {
            *slot = Some(Side { v: v.clone(), strict, from: vec![ci] });
        }
    }
}

/// What the table's conjuncts pin one column to. Both sides are carried
/// as *inclusive* key / zone bounds; `exact` says which conjuncts such a
/// bound expresses with nothing left over.
struct ColBounds {
    col: usize,
    name: String,
    lo: Option<Side>,
    hi: Option<Side>,
}

/// The distinct conjuncts behind some sides (an equality is behind two).
fn conjuncts_of<'a>(sides: impl Iterator<Item = &'a Side>) -> Vec<usize> {
    let mut ids: Vec<usize> = sides.flat_map(|s| s.from.iter().copied()).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

impl ColBounds {
    /// Every conjunct the bounds were read from.
    fn conjuncts(&self) -> Vec<usize> {
        conjuncts_of(self.lo.iter().chain(&self.hi))
    }

    /// The conjuncts an inclusive range over this column answers exactly,
    /// so they may leave the residual. A strict comparison never does (the
    /// range admits the boundary). Where NULL keys are stored (an IOT's
    /// primary key; B-trees skip them) they sort last, so a lower bound is
    /// exact only under an upper bound that cuts them off.
    fn exact(&self, nulls_stored: bool) -> Vec<usize> {
        let lo = self.lo.iter().filter(|_| !nulls_stored || self.hi.is_some());
        conjuncts_of(lo.chain(&self.hi).filter(|s| !s.strict))
    }

    /// Is the column pinned to one value (`=`, or two inclusive bounds
    /// that meet whatever the binds)?
    fn pinned(&self) -> bool {
        matches!((&self.lo, &self.hi), (Some(l), Some(h))
            if !l.strict && !h.strict && l.v.same(&h.v))
    }
}

/// The table of sargable bounds — per column the tightest lower / upper
/// operand (an equality is both) — plus every conjunct's selectivity.
/// B-tree candidates, the key-prefix candidate and zone-map pruning all
/// read this one table. `col relop NULL` is never true, so a NULL literal
/// bounds nothing (a bind that is NULL when the scan opens empties it).
fn sargable_bounds(
    cm: &CostModel,
    tdef: &TableDef,
    scope: &Scope,
    table_conjuncts: &[Expr],
    binds: &[Value],
) -> (Vec<ColBounds>, Vec<f64>) {
    let mut bounds: Vec<ColBounds> = Vec::new();
    let mut sels = Vec::with_capacity(table_conjuncts.len());
    for (ci, e) in table_conjuncts.iter().enumerate() {
        let Some((col, name, sarg)) = match_sarg(e, scope, tdef, binds) else {
            sels.push(cm.default_range_sel);
            continue;
        };
        sels.push(sarg_selectivity(cm, tdef, col, &sarg));
        let (lo, hi) = match &sarg {
            Sarg::Rel(RelOp::Eq, v) => (Some((v, false)), Some((v, false))),
            Sarg::Rel(RelOp::Ge, v) => (Some((v, false)), None),
            Sarg::Rel(RelOp::Gt, v) => (Some((v, true)), None),
            Sarg::Rel(RelOp::Le, v) => (None, Some((v, false))),
            Sarg::Rel(RelOp::Lt, v) => (None, Some((v, true))),
            Sarg::Rel(RelOp::Like, _) => (None, None),
            Sarg::Between(l, h) => (Some((l, false)), Some((h, false))),
        };
        if [lo, hi].iter().flatten().any(|(v, _)| matches!(v, Operand::Lit(Value::Null))) {
            continue;
        }
        let at = bounds.iter().position(|b| b.col == col).unwrap_or_else(|| {
            bounds.push(ColBounds { col, name, lo: None, hi: None });
            bounds.len() - 1
        });
        if let Some((v, strict)) = lo {
            Side::fold(&mut bounds[at].lo, v, strict, ci, Ordering::Greater);
        }
        if let Some((v, strict)) = hi {
            Side::fold(&mut bounds[at].hi, v, strict, ci, Ordering::Less);
        }
    }
    // Literal bounds that contradict each other select nothing. Collapse
    // them to the one-value range at `lo`, so no reversed range reaches
    // storage, and call both sides strict, so every conjunct stays in the
    // residual and rejects whatever that range reads. (A range over binds
    // is checked by the scan that opens it.)
    for b in &mut bounds {
        if let (Some(l), Some(h)) = (&mut b.lo, &mut b.hi) {
            if l.v.lit_cmp(&h.v).is_some_and(Ordering::is_gt) {
                (h.v, l.strict, h.strict) = (l.v.clone(), true, true);
            }
        }
    }
    (bounds, sels)
}

/// Build the best access plan for one table given its single-table
/// conjuncts. Consumed conjuncts are absorbed by the access path; the
/// rest become a Filter node on top.
pub(crate) fn best_table_access(
    db: &Exec<'_>,
    tdef: &TableDef,
    alias: &str,
    table_conjuncts: &[Expr],
    score_labels: &[i64],
    hints: &TableHints,
) -> Result<PlanNode> {
    let cm = db.cost;
    let scope = table_scope(tdef, Some(alias));
    let (rows, pages) = table_shape(db, tdef);

    let (bounds, conj_sel) = sargable_bounds(&cm, tdef, &scope, table_conjuncts, db.binds);

    // Candidate: full scan (always available).
    let full_sel: f64 = conj_sel.iter().product();
    let op_calls: usize = table_conjuncts.iter().map(|e| count_op_calls(e, db)).sum();
    let full_cost = pages
        + rows * cm.cpu_tuple
        + rows * table_conjuncts.len() as f64 * cm.cpu_pred
        + rows * op_calls as f64 * cm.func_eval;
    // Per-row cost of evaluating each conjunct (operator calls dominate).
    // An index candidate still pays `per_conjunct_cost` on each matched
    // row for every conjunct it does not consume — this is what makes
    // "B-tree + functional Contains" pay for its Contains.
    let per_conjunct_cost: Vec<f64> = table_conjuncts
        .iter()
        .map(|e| cm.cpu_pred + count_op_calls(e, db) as f64 * cm.func_eval)
        .collect();
    let total_conjunct_cost: f64 = per_conjunct_cost.iter().sum();
    let residual_row_cost = |consumed: &[usize]| -> f64 {
        total_conjunct_cost - consumed.iter().map(|&ci| per_conjunct_cost[ci]).sum::<f64>()
    };
    let sel_of = |used: &[usize]| -> f64 { used.iter().map(|&ci| conj_sel[ci]).product() };
    // `(height, leaf pages)` of the B-tree a segment holds.
    let tree_shape = |seg| match db.storage().iot(seg) {
        Ok(t) => (t.height() as f64, t.page_count() as f64),
        Err(_) => (1.0, 1.0),
    };

    /// `consumed` are the conjuncts the access path answers exactly; all
    /// others go to the residual Filter.
    struct Candidate {
        cost: f64,
        rows: f64,
        consumed: Vec<usize>,
        kind: CandKind,
    }
    enum CandKind {
        Full,
        RowIdEq { rid: RExpr },
        BTree { index: String, lo: Option<KeyBound>, hi: Option<KeyBound> },
        IotRange { lo: Option<KeyBound>, hi: Option<KeyBound> },
        Domain(Box<DomainMatch>),
    }

    let mut best = Candidate {
        cost: full_cost,
        rows: (rows * full_sel).max(1.0),
        consumed: Vec::new(),
        kind: CandKind::Full,
    };

    // `FULL` is a hard override: the default full-scan candidate stands
    // and no alternative is even considered (or costed — cartridge stats
    // routines are not consulted for a path that cannot be taken).
    let consider_alternatives = !hints.full;
    // Quarantined domain indexes that would otherwise have been
    // candidates for conjunct `ci` — if that conjunct ends up in the
    // residual filter, EXPLAIN annotates the degradation.
    let mut degraded: Vec<(usize, String)> = Vec::new();
    // B-tree range / equality: one candidate per index on a bounded column.
    // The entries skip NULL keys, so every inclusive bound is exact.
    for cb in bounds.iter().filter(|_| consider_alternatives) {
        let (used, consumed) = (cb.conjuncts(), cb.exact(false));
        let sel = sel_of(&used);
        for b in db.catalog().btree_indexes_on(&tdef.name) {
            if b.column != cb.name {
                continue;
            }
            // An INDEX hint excludes every other index, and makes
            // the named one win unconditionally.
            let forced = match &hints.force_index {
                Some(f) if *f != b.name => continue,
                Some(_) => true,
                None => false,
            };
            let (height, leaf_pages) = tree_shape(b.seg);
            let matched = (rows * sel).max(1.0);
            let cost = if forced {
                f64::MIN
            } else {
                height
                    + sel * leaf_pages
                    + matched * cm.rowid_fetch
                    + matched * cm.cpu_tuple
                    + matched * residual_row_cost(&consumed)
            };
            if cost < best.cost {
                best = Candidate {
                    cost,
                    rows: matched,
                    consumed: consumed.clone(),
                    kind: CandKind::BTree {
                        index: b.name.clone(),
                        lo: cb.lo.as_ref().map(|s| KeyBound(vec![s.v.expr()])),
                        hi: cb.hi.as_ref().map(|s| KeyBound(vec![s.v.expr()])),
                    },
                };
            }
        }
    }
    // IOT key prefix: walk the primary-key columns in order, appending
    // every pinned column to both bounds and closing with the first
    // range-bounded one. A fully pinned key is a unique probe.
    if let (TableOrg::Index { key_cols }, true) = (&tdef.org, consider_alternatives) {
        let (mut lo, mut hi, mut used, mut consumed) = (vec![], vec![], vec![], vec![]);
        let mut pinned = 0;
        for col in 0..*key_cols {
            let Some(cb) = bounds.iter().find(|b| b.col == col) else { break };
            lo.extend(cb.lo.as_ref().map(|s| s.v.expr()));
            hi.extend(cb.hi.as_ref().map(|s| s.v.expr()));
            used.extend(cb.conjuncts());
            consumed.extend(cb.exact(true));
            if !cb.pinned() {
                break;
            }
            pinned += 1;
        }
        if !used.is_empty() {
            let (height, leaf_pages) = tree_shape(tdef.seg);
            let sel = sel_of(&used);
            let (matched, leaves) = if pinned == *key_cols {
                (1.0, 1.0)
            } else {
                ((rows * sel).max(1.0), sel * leaf_pages)
            };
            let cost = height
                + leaves
                + matched * cm.cpu_tuple
                + matched * residual_row_cost(&consumed);
            if cost < best.cost {
                best = Candidate {
                    cost,
                    rows: matched,
                    consumed,
                    kind: CandKind::IotRange {
                        lo: (!lo.is_empty()).then_some(KeyBound(lo)),
                        hi: (!hi.is_empty()).then_some(KeyBound(hi)),
                    },
                };
            }
        }
    }
    for (ci, e) in table_conjuncts.iter().enumerate().filter(|_| consider_alternatives) {
        // Direct ROWID fetch: `t.ROWID = <rowid literal>` (the legacy
        // temp-table join pattern resolves through this) or `t.ROWID = ?`
        // (a cartridge's base-row fetch), whatever the bind holds.
        if let Expr::Binary(BinOp::Eq, a, b) = e {
            let rid_of = |x: &Expr, y: &Expr| -> Option<RExpr> {
                let Expr::Column { qualifier, name } = x else { return None };
                if !name.eq_ignore_ascii_case("ROWID")
                    || scope.resolve(qualifier.as_deref(), name).is_err()
                {
                    return None;
                }
                match y {
                    Expr::Literal(v @ Value::RowId(_)) => Some(RExpr::Const(v.clone())),
                    Expr::Parameter(i) => Some(RExpr::Param(*i)),
                    _ => None,
                }
            };
            if let Some(rid) = rid_of(a, b).or_else(|| rid_of(b, a)) {
                if 1.2 < best.cost {
                    best = Candidate {
                        cost: 1.2,
                        rows: 1.0,
                        consumed: vec![ci],
                        kind: CandKind::RowIdEq { rid },
                    };
                }
            }
        }

        // Domain-index scan (§2.4.2), costed through the cartridge's
        // ODCIStats at this execution's bind values.
        let (matches, unusable) = domain_matches(db, tdef, &scope, e, None, score_labels, hints)?;
        degraded.extend(unusable.into_iter().map(|name| (ci, name)));
        for m in matches {
            let Some(values) = &m.values else { continue };
            let call = OperatorCall {
                operator: m.operator.clone(),
                args: values.clone(),
                column_pos: m.column_pos,
                bound: m.bound.clone(),
                wants_ancillary: m.label.is_some(),
            };
            let (_, stats, info) = db.domain_index_runtime(&m.def)?;
            let sel = odci_call(
                Lane::Read(db),
                Routine::StatsSelectivity,
                Callee::Index(&info),
                || format!("{}({})", call.operator, m.def.name),
                |ctx| stats.selectivity(ctx, &info, &call),
            )?
            .clamp(0.0, 1.0);
            let icost = odci_call(
                Lane::Read(db),
                Routine::StatsIndexCost,
                Callee::Index(&info),
                || format!("sel={sel:.4}"),
                |ctx| stats.index_cost(ctx, &info, &call, sel),
            )?;
            let matched = (rows * sel).max(1.0);
            // Index scan + rowid fetches of matches. A query that
            // references the scan's ancillary data (SCORE) can only be
            // answered through the index — force the path then. An
            // INDEX hint forces it the same way.
            let cost = if m.forced || m.label.is_some() {
                f64::MIN
            } else {
                icost.total()
                    + matched * cm.rowid_fetch
                    + matched * cm.cpu_tuple
                    + matched * residual_row_cost(&[ci])
            };
            if cost < best.cost {
                best = Candidate {
                    cost,
                    rows: matched,
                    consumed: vec![ci],
                    kind: CandKind::Domain(Box::new(m)),
                };
            }
        }
    }

    // A forced index must actually carry the access: a hint naming a
    // valid index that no predicate on this table can use is an error,
    // never a silent fall-through to another path (the forcing contract
    // the differential harness relies on).
    if let Some(f) = &hints.force_index {
        let used = match &best.kind {
            CandKind::BTree { index, .. } => index == f,
            CandKind::Domain(m) => m.def.name == *f,
            _ => false,
        };
        if !used {
            return Err(Error::Semantic(format!(
                "cannot force index {f} on {}: no predicate can use it",
                tdef.name
            )));
        }
    }

    // Materialize the chosen access path. Hint-forced paths carry the
    // hint text so EXPLAIN shows the cost decision was overridden.
    let scan_forced = if hints.full {
        Some(format!("FULL({alias})"))
    } else if hints.no_index {
        Some(format!("NO_INDEX({alias})"))
    } else {
        None
    };
    let forced_note = |index: &str| {
        hints
            .force_index
            .as_deref()
            .filter(|f| *f == index)
            .map(|f| format!("INDEX({alias} {f})"))
    };
    // Zone-map pruning bounds for a heap full scan: every bounded column
    // restated over its physical column index. The conjuncts stay
    // in the residual filter — the bound only lets the scan skip pages
    // whose recorded min/max provably exclude every qualifying row.
    let zone_prune: Vec<ZoneBound> = if matches!(best.kind, CandKind::Full)
        && matches!(tdef.org, TableOrg::Heap)
    {
        bounds
            .into_iter()
            .map(|cb| ZoneBound {
                col: cb.col,
                col_name: cb.name,
                lo: cb.lo.map(|s| s.v.expr()),
                hi: cb.hi.map(|s| s.v.expr()),
            })
            .collect()
    } else {
        Vec::new()
    };
    // What the access reads is known once the plan above it is:
    // `PlannedQuery::new` marks it.
    let (table, reads) = (tdef.name.clone(), ReadSet::default());
    let access = match best.kind {
        CandKind::Full => PlanNode {
            kind: match tdef.org {
                TableOrg::Heap => {
                    PlanKind::FullScan { table, forced: scan_forced, prune: zone_prune, reads }
                }
                TableOrg::Index { .. } => {
                    PlanKind::IotFullScan { table, forced: scan_forced, reads }
                }
            },
            scope: scope.clone(),
            est_rows: rows.max(1.0),
            est_cost: pages + rows * cm.cpu_tuple,
        },
        CandKind::RowIdEq { rid } => PlanNode {
            kind: PlanKind::RowIdEq { table, rid, reads },
            scope: scope.clone(),
            est_rows: 1.0,
            est_cost: best.cost,
        },
        CandKind::BTree { index, lo, hi } => {
            let forced = forced_note(&index);
            PlanNode {
                kind: PlanKind::BTreeAccess { table, index, lo, hi, forced, reads },
                scope: scope.clone(),
                est_rows: best.rows,
                est_cost: best.cost,
            }
        }
        CandKind::IotRange { lo, hi } => PlanNode {
            kind: PlanKind::IotRange { table, lo, hi, reads },
            scope: scope.clone(),
            est_rows: best.rows,
            est_cost: best.cost,
        },
        CandKind::Domain(m) => {
            let forced = forced_note(&m.def.name);
            PlanNode {
                kind: (*m).plan(None, forced),
                scope: scope.clone(),
                est_rows: best.rows,
                est_cost: best.cost,
            }
        }
    };

    // Residual conjuncts → Filter. A conjunct whose quarantined index was
    // skipped degrades to the residual; surface the index names unless
    // another access path consumed the conjunct after all.
    let residual: Vec<&Expr> = table_conjuncts
        .iter()
        .enumerate()
        .filter(|(i, _)| !best.consumed.contains(i))
        .map(|(_, e)| e)
        .collect();
    let degraded_names: Vec<String> = degraded
        .into_iter()
        .filter(|(ci, _)| !best.consumed.contains(ci))
        .map(|(_, name)| name)
        .collect();
    wrap_filter(db, access, &residual, &scope, &degraded_names)
}

/// Access path for a `V$` view: a View node, whose rows are read from
/// engine state when it runs (a plan holds no data), table-local
/// conjuncts on top as an ordinary Filter. A view never qualifies as a
/// domain-join right side, so joins against V$ tables take hash/NLJ paths;
/// it is estimated at the rows it holds now.
pub(crate) fn view_access(
    db: &Exec<'_>,
    view: &VTable,
    tdef: &TableDef,
    alias: &str,
    table_conjuncts: &[Expr],
) -> Result<PlanNode> {
    let scope = table_scope(tdef, Some(alias));
    let access = PlanNode {
        kind: PlanKind::View { table: tdef.name.clone() },
        scope: scope.clone(),
        est_rows: view.row_count(db).max(1) as f64,
        est_cost: 0.0,
    };
    let residual: Vec<&Expr> = table_conjuncts.iter().collect();
    wrap_filter(db, access, &residual, &scope, &[])
}
