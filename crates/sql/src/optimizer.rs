//! The cost-based optimizer.
//!
//! Implements §2.4.2: operators in a WHERE clause default to functional
//! evaluation, but predicates of the form `op(...) relop value` over a
//! column with a domain index whose indextype supports the operator are
//! candidates for index-scan evaluation, and "the choice between the
//! indexed implementation and the functional evaluation of the operator is
//! made by the … cost based optimizer using selectivity and cost
//! functions" — the cartridge-supplied `ODCIStatsSelectivity` and
//! `ODCIStatsIndexCost`.
//!
//! Ordinary access paths (full scan, B-tree range, IOT key range) are
//! costed from catalog statistics; joins are ordered greedily left-deep,
//! with hash joins for equi-predicates and a *domain join* (nested loop
//! driving a parameterized domain-index scan) for user-defined operators
//! whose arguments span tables — the spatial `Sdo_Relate(r.geometry,
//! p.geometry, …)` pattern.
//!
//! A `?` bind is a constant known when the statement runs: it is sargable
//! wherever a literal is, costed at the value of the execution that plans
//! it (bind peeking), and stored in the plan as a placeholder the scan
//! resolves when it opens. One decision depends on a bind's value —
//! whether an operator's trailing `?` names a `SCORE(n)` label — and the
//! plan records it ([`LabelBinds`]); under every other bind set the
//! statement cache may run the same plan.

use std::cmp::Ordering;

use extidx_common::{Error, Result, SqlType, Value};
use extidx_core::meta::{OperatorCall, PredicateBound, RelOp};
use extidx_core::trace::Routine;

use crate::ast::{BinOp, Expr, Hint, OrderItem, Select, SelectItem, UnOp};
use crate::catalog::{Catalog, TableDef, TableOrg};
use crate::database::Database;
use crate::exec_ctx::{odci_call, Callee, Exec, Lane};
use crate::expr::{aggregate_kind, compile_expr, AggKind, ExecRow, RExpr, Scope, ScopeCol};
use crate::plan::{
    score_label, FilterTerm, KeyBound, LabelBinds, PlanKind, PlanNode, PlannedQuery, Projection,
    ReadSet, TermClass, ZoneBound,
};

/// Tunable cost constants (page-read units).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// CPU cost of producing one tuple.
    pub cpu_tuple: f64,
    /// CPU cost of one simple predicate evaluation.
    pub cpu_pred: f64,
    /// CPU cost of one *functional* user-defined operator evaluation —
    /// deliberately high: these re-parse documents, compare geometries,
    /// or diff image signatures per row.
    pub func_eval: f64,
    /// Default equality selectivity without statistics.
    pub default_eq_sel: f64,
    /// Default range/LIKE selectivity without statistics.
    pub default_range_sel: f64,
    /// Default join selectivity.
    pub default_join_sel: f64,
    /// Cost of fetching one base row by rowid from an index (discounted
    /// below one page read for buffer-cache locality, like a clustering
    /// factor).
    pub rowid_fetch: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cpu_tuple: 0.001,
            cpu_pred: 0.0005,
            func_eval: 0.1,
            default_eq_sel: 0.01,
            default_range_sel: 0.05,
            default_join_sel: 0.05,
            rowid_fetch: 0.2,
        }
    }
}

/// The scope a table contributes: its columns plus a hidden ROWID
/// pseudo-column, qualified by alias or table name. Heap tables expose
/// physical rowids; index-organized tables expose logical rowids (stable
/// key ordinals), so DML and index maintenance address both uniformly.
pub fn table_scope(tdef: &TableDef, alias: Option<&str>) -> Scope {
    let q = alias.unwrap_or(&tdef.name).to_ascii_uppercase();
    let mut cols: Vec<ScopeCol> = tdef
        .columns
        .iter()
        .map(|c| ScopeCol::visible(Some(q.clone()), c.name.clone(), Some(c.ty.clone())))
        .collect();
    cols.push(ScopeCol::hidden(Some(q), "ROWID", Some(SqlType::RowId)));
    Scope::new(cols)
}

/// Split an expression into AND-ed conjuncts.
fn conjuncts(expr: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Binary(BinOp::And, a, b) = expr {
        conjuncts(a, out);
        conjuncts(b, out);
    } else {
        out.push(expr.clone());
    }
}

/// Which of `scopes` an expression's column references touch (bitmask).
/// Errors on unresolvable or ambiguous references.
fn expr_table_mask(expr: &Expr, scopes: &[Scope]) -> Result<u64> {
    let mut mask = 0u64;
    collect_mask(expr, scopes, &mut mask)?;
    Ok(mask)
}

fn collect_mask(expr: &Expr, scopes: &[Scope], mask: &mut u64) -> Result<()> {
    match expr {
        Expr::Column { qualifier, name } => {
            let mut hits = Vec::new();
            for (i, s) in scopes.iter().enumerate() {
                if s.resolve(qualifier.as_deref(), name).is_ok() {
                    hits.push(i);
                }
            }
            match (hits.len(), qualifier) {
                (1, _) => *mask |= 1 << hits[0],
                (0, Some(q)) => {
                    // `q.name` may be object-attribute access on column q.
                    let mut attr_hits = Vec::new();
                    for (i, s) in scopes.iter().enumerate() {
                        if s.resolve(None, q).is_ok() {
                            attr_hits.push(i);
                        }
                    }
                    match attr_hits.len() {
                        1 => *mask |= 1 << attr_hits[0],
                        0 => return Err(Error::not_found("column", format!("{q}.{name}"))),
                        _ => {
                            return Err(Error::Semantic(format!("column {q} is ambiguous")));
                        }
                    }
                }
                (0, None) => return Err(Error::not_found("column", name.clone())),
                _ => return Err(Error::Semantic(format!("column {name} is ambiguous"))),
            }
        }
        Expr::Literal(_) | Expr::Parameter(_) | Expr::Star => {}
        Expr::Attribute(e, _) | Expr::Unary(_, e) | Expr::IsNull(e, _) => {
            collect_mask(e, scopes, mask)?
        }
        Expr::Binary(_, a, b) => {
            collect_mask(a, scopes, mask)?;
            collect_mask(b, scopes, mask)?;
        }
        Expr::Between(a, b, c) => {
            collect_mask(a, scopes, mask)?;
            collect_mask(b, scopes, mask)?;
            collect_mask(c, scopes, mask)?;
        }
        Expr::InList(a, list) => {
            collect_mask(a, scopes, mask)?;
            for e in list {
                collect_mask(e, scopes, mask)?;
            }
        }
        Expr::Call { args, .. } => {
            for e in args {
                collect_mask(e, scopes, mask)?;
            }
        }
    }
    Ok(())
}

/// Render an expression as SQL-ish text (output column naming).
pub fn display_expr(e: &Expr) -> String {
    match e {
        Expr::Literal(v) => v.to_string(),
        Expr::Column { qualifier: Some(q), name } => format!("{q}.{name}"),
        Expr::Column { qualifier: None, name } => name.clone(),
        Expr::Attribute(inner, a) => format!("{}.{a}", display_expr(inner)),
        Expr::Unary(UnOp::Not, e) => format!("NOT {}", display_expr(e)),
        Expr::Unary(UnOp::Neg, e) => format!("-{}", display_expr(e)),
        Expr::Binary(op, a, b) => {
            let sym = match op {
                BinOp::And => "AND",
                BinOp::Or => "OR",
                BinOp::Eq => "=",
                BinOp::Ne => "!=",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::Like => "LIKE",
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
            };
            format!("{} {sym} {}", display_expr(a), display_expr(b))
        }
        Expr::Between(a, lo, hi) => {
            format!("{} BETWEEN {} AND {}", display_expr(a), display_expr(lo), display_expr(hi))
        }
        Expr::InList(a, l) => format!(
            "{} IN ({})",
            display_expr(a),
            l.iter().map(display_expr).collect::<Vec<_>>().join(", ")
        ),
        Expr::IsNull(a, false) => format!("{} IS NULL", display_expr(a)),
        Expr::IsNull(a, true) => format!("{} IS NOT NULL", display_expr(a)),
        Expr::Call { name, args } => format!(
            "{name}({})",
            args.iter().map(display_expr).collect::<Vec<_>>().join(", ")
        ),
        Expr::Star => "*".into(),
        Expr::Parameter(i) => format!("?{i}"),
    }
}


/// Evaluate an expression that references no columns to a constant, if
/// possible (lets geometry/object constructors act as operator arguments
/// for index matching). Returns what the plan keeps — the value itself, or
/// for an expression over binds the compiled expression, evaluated again
/// when the scan opens — and the value the optimizer costs with.
fn try_const_eval(db: &Exec<'_>, e: &Expr) -> Option<(RExpr, Value)> {
    let compiled = compile_expr(e, &Scope::default(), db.catalog()).ok()?;
    let value = crate::expr::eval(&compiled, &ExecRow::default(), &db.eval_ctx()).ok()?;
    let kept = if expr_any(e, &|x| matches!(x, Expr::Parameter(_))) {
        compiled
    } else {
        RExpr::Const(value.clone())
    };
    Some((kept, value))
}

// ---------------------------------------------------------------------------
// plan-forcing hints
// ---------------------------------------------------------------------------

/// Plan-forcing hints resolved for one table reference. Unlike Oracle's
/// advisory hints these are *hard* overrides of the cost decision — the
/// differential test harness uses them to pin each of §2.4.2's
/// semantically equivalent paths in turn.
#[derive(Debug, Clone, Default)]
pub struct TableHints {
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
fn resolve_table_hints(
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

/// Collect the names of user-defined operators called inside `e` — these
/// evaluate through their functional implementations when they end up in
/// a Filter node.
fn collect_op_call_names(e: &Expr, db: &Database, out: &mut Vec<String>) {
    if let Expr::Call { name, args } = e {
        if db.catalog().registry().has_operator(name) {
            let upper = name.to_ascii_uppercase();
            if !out.contains(&upper) {
                out.push(upper);
            }
        }
        for a in args {
            collect_op_call_names(a, db, out);
        }
        return;
    }
    match e {
        Expr::Attribute(x, _) | Expr::Unary(_, x) | Expr::IsNull(x, _) => {
            collect_op_call_names(x, db, out)
        }
        Expr::Binary(_, a, b) => {
            collect_op_call_names(a, db, out);
            collect_op_call_names(b, db, out);
        }
        Expr::Between(a, b, c) => {
            collect_op_call_names(a, db, out);
            collect_op_call_names(b, db, out);
            collect_op_call_names(c, db, out);
        }
        Expr::InList(a, l) => {
            collect_op_call_names(a, db, out);
            for x in l {
                collect_op_call_names(x, db, out);
            }
        }
        _ => {}
    }
}

/// Does `hit` accept `e` or any expression inside it?
fn expr_any(e: &Expr, hit: &impl Fn(&Expr) -> bool) -> bool {
    hit(e)
        || match e {
            Expr::Column { .. } | Expr::Star | Expr::Literal(_) | Expr::Parameter(_) => false,
            Expr::Attribute(x, _) | Expr::Unary(_, x) | Expr::IsNull(x, _) => expr_any(x, hit),
            Expr::Binary(_, a, b) => expr_any(a, hit) || expr_any(b, hit),
            Expr::Between(a, b, c) => expr_any(a, hit) || expr_any(b, hit) || expr_any(c, hit),
            Expr::InList(a, l) => expr_any(a, hit) || l.iter().any(|x| expr_any(x, hit)),
            Expr::Call { args, .. } => args.iter().any(|x| expr_any(x, hit)),
        }
}

/// Does `e` reference any column (or `*`, which stands for whole rows)?
fn expr_has_column(e: &Expr) -> bool {
    expr_any(e, &|x| matches!(x, Expr::Column { .. } | Expr::Star))
}

/// Is `e` the `col relop literal` / `col BETWEEN lit AND lit` shape that
/// zone maps and B-trees cover (a bind counts as a literal)? Purely
/// structural — scope-independent, so join residuals classify identically
/// to single-table ones.
fn is_indexed_col_shape(e: &Expr) -> bool {
    let is_col = |x: &Expr| matches!(x, Expr::Column { .. });
    let is_lit = |x: &Expr| matches!(x, Expr::Literal(_) | Expr::Parameter(_));
    match e {
        Expr::Binary(op, a, b) => {
            matches!(op, BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
                && ((is_col(a) && is_lit(b)) || (is_lit(a) && is_col(b)))
        }
        Expr::Between(a, lo, hi) => is_col(a) && is_lit(lo) && is_lit(hi),
        _ => false,
    }
}

/// Rank one WHERE conjunct by evaluation cost (see [`TermClass`]).
fn classify_conjunct(db: &Database, e: &Expr) -> TermClass {
    if count_op_calls(e, db) > 0 {
        TermClass::DomainOp
    } else if !expr_has_column(e) {
        TermClass::Const
    } else if is_indexed_col_shape(e) {
        TermClass::IndexedCol
    } else {
        TermClass::PlainCol
    }
}

// ---------------------------------------------------------------------------
// single-table access-path selection
// ---------------------------------------------------------------------------

/// `(rows, pages)` the optimizer believes a table has.
fn table_shape(db: &Database, tdef: &TableDef) -> (f64, f64) {
    match tdef.org {
        TableOrg::Heap => match db.storage().heap(tdef.seg) {
            Ok(h) => (h.row_count() as f64, h.page_count().max(1) as f64),
            Err(_) => (1.0, 1.0),
        },
        TableOrg::Index { .. } => match db.storage().iot(tdef.seg) {
            Ok(t) => (t.row_count() as f64, t.page_count() as f64),
            Err(_) => (1.0, 1.0),
        },
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

/// `col relop literal` (either orientation) over this table's scope.
fn match_col_relop(
    e: &Expr,
    scope: &Scope,
    tdef: &TableDef,
    binds: &[Value],
) -> Option<(String, RelOp, Operand)> {
    let to_relop = |op: BinOp| match op {
        BinOp::Eq => Some(RelOp::Eq),
        BinOp::Lt => Some(RelOp::Lt),
        BinOp::Le => Some(RelOp::Le),
        BinOp::Gt => Some(RelOp::Gt),
        BinOp::Ge => Some(RelOp::Ge),
        _ => None,
    };
    let flip = |r: RelOp| match r {
        RelOp::Lt => RelOp::Gt,
        RelOp::Le => RelOp::Ge,
        RelOp::Gt => RelOp::Lt,
        RelOp::Ge => RelOp::Le,
        other => other,
    };
    let col_of = |e: &Expr| -> Option<String> {
        if let Expr::Column { qualifier, name } = e {
            if scope.resolve(qualifier.as_deref(), name).is_ok() && tdef.column_index(name).is_ok() {
                return Some(name.to_ascii_uppercase());
            }
        }
        None
    };
    if let Expr::Binary(op, a, b) = e {
        let relop = to_relop(*op)?;
        if let (Some(col), Some(v)) = (col_of(a), Operand::of(b, binds)) {
            return Some((col, relop, v));
        }
        if let (Some(v), Some(col)) = (Operand::of(a, binds), col_of(b)) {
            return Some((col, flip(relop), v));
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
struct OpPredicate {
    name: String,
    args: Vec<Expr>,
    bound: PredicateBound,
}

fn match_op_predicate(e: &Expr, db: &Database) -> Option<OpPredicate> {
    let as_call = |e: &Expr| -> Option<(String, Vec<Expr>)> {
        if let Expr::Call { name, args } = e {
            if db.catalog().registry().has_operator(name) {
                return Some((name.to_ascii_uppercase(), args.clone()));
            }
        }
        None
    };
    let to_relop = |op: BinOp| match op {
        BinOp::Eq => Some(RelOp::Eq),
        BinOp::Lt => Some(RelOp::Lt),
        BinOp::Le => Some(RelOp::Le),
        BinOp::Gt => Some(RelOp::Gt),
        BinOp::Ge => Some(RelOp::Ge),
        BinOp::Like => Some(RelOp::Like),
        _ => None,
    };
    // Bare call: Contains(...) ≡ Contains(...) = TRUE.
    if let Some((name, args)) = as_call(e) {
        return Some(OpPredicate { name, args, bound: PredicateBound::is_true() });
    }
    if let Expr::Binary(op, a, b) = e {
        let relop = to_relop(*op)?;
        if let (Some((name, args)), Expr::Literal(v)) = (as_call(a), b.as_ref()) {
            return Some(OpPredicate {
                name,
                args,
                bound: PredicateBound { relop, value: v.clone() },
            });
        }
        if let (Expr::Literal(v), Some((name, args))) = (a.as_ref(), as_call(b)) {
            let flipped = match relop {
                RelOp::Lt => RelOp::Gt,
                RelOp::Le => RelOp::Ge,
                RelOp::Gt => RelOp::Lt,
                RelOp::Ge => RelOp::Le,
                other => other,
            };
            return Some(OpPredicate {
                name,
                args,
                bound: PredicateBound { relop: flipped, value: v.clone() },
            });
        }
    }
    None
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

/// Count functional user-operator calls in an expression (they dominate
/// per-row filter cost).
fn count_op_calls(e: &Expr, db: &Database) -> usize {
    let mut n = 0;
    fn walk(e: &Expr, db: &Database, n: &mut usize) {
        if let Expr::Call { name, args } = e {
            if db.catalog().registry().has_operator(name) {
                *n += 1;
            }
            for a in args {
                walk(a, db, n);
            }
            return;
        }
        match e {
            Expr::Attribute(x, _) | Expr::Unary(_, x) | Expr::IsNull(x, _) => walk(x, db, n),
            Expr::Binary(_, a, b) => {
                walk(a, db, n);
                walk(b, db, n);
            }
            Expr::Between(a, b, c) => {
                walk(a, db, n);
                walk(b, db, n);
                walk(c, db, n);
            }
            Expr::InList(a, l) => {
                walk(a, db, n);
                for x in l {
                    walk(x, db, n);
                }
            }
            _ => {}
        }
    }
    walk(e, db, &mut n);
    n
}

/// Scores referenced by the query (labels of SCORE(n) calls), used to set
/// `wants_ancillary` on matching domain scans.
fn collect_score_labels(s: &Select) -> Vec<i64> {
    let mut labels = Vec::new();
    fn walk(e: &Expr, labels: &mut Vec<i64>) {
        if let Expr::Call { name, args } = e {
            if name.eq_ignore_ascii_case("SCORE") {
                match args.first() {
                    Some(Expr::Literal(Value::Integer(l))) => labels.push(*l),
                    None => labels.push(1),
                    _ => {}
                }
            }
            for a in args {
                walk(a, labels);
            }
            return;
        }
        match e {
            Expr::Attribute(x, _) | Expr::Unary(_, x) | Expr::IsNull(x, _) => walk(x, labels),
            Expr::Binary(_, a, b) => {
                walk(a, labels);
                walk(b, labels);
            }
            Expr::Between(a, b, c) => {
                walk(a, labels);
                walk(b, labels);
                walk(c, labels);
            }
            Expr::InList(a, l) => {
                walk(a, labels);
                for x in l {
                    walk(x, labels);
                }
            }
            _ => {}
        }
    }
    for item in &s.items {
        if let SelectItem::Expr { expr, .. } = item {
            walk(expr, &mut labels);
        }
    }
    for o in &s.order_by {
        walk(&o.expr, &mut labels);
    }
    labels
}

/// Build the best access plan for one table given its single-table
/// conjuncts. Consumed conjuncts are absorbed by the access path; the
/// rest become a Filter node on top.
fn best_table_access(
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
        Domain {
            index: String,
            indextype: String,
            call: OperatorCall,
            args: Vec<RExpr>,
            label: Option<i64>,
        },
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

        // Domain-index scan (§2.4.2). `NO_INDEX` forbids this path
        // entirely — the operator then evaluates functionally in the
        // residual filter.
        if let Some(op_pred) = match_op_predicate(e, db).filter(|_| !hints.no_index) {
            for d in db.catalog().domain_indexes_on(&tdef.name).into_iter().cloned().collect::<Vec<_>>() {
                let forced = match &hints.force_index {
                    Some(f) if *f != d.name => continue,
                    Some(_) => true,
                    None => false,
                };
                let Ok(it) = db.catalog().registry().indextype(&d.indextype) else { continue };
                if !it.supports(&op_pred.name, op_pred.args.len()) {
                    continue;
                }
                // The indexed column must appear as a bare argument; all
                // other args must fold to constants (literals, binds, or
                // column-free constructor expressions over them).
                let mut col_arg = None;
                let (mut args, mut values) = (Vec::new(), Vec::new());
                let mut ok = true;
                for a in &op_pred.args {
                    if let Expr::Column { qualifier, name } = a {
                        if name.eq_ignore_ascii_case(&d.column)
                            && scope.resolve(qualifier.as_deref(), name).is_ok()
                            && col_arg.is_none()
                        {
                            col_arg = Some(name.clone());
                            continue;
                        }
                    }
                    match try_const_eval(db, a) {
                        // A NULL operand makes the operator NULL for every
                        // row (three-valued logic), so the predicate can
                        // never accept — the index path would have to
                        // guess what the cartridge does with NULL. Leave
                        // it to the functional fallback, which
                        // short-circuits NULL args uniformly.
                        Some((_, Value::Null)) => {
                            ok = false;
                            break;
                        }
                        Some((kept, v)) => {
                            args.push(kept);
                            values.push(v);
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok || col_arg.is_none() {
                    continue;
                }
                // Health gate: a quarantined (or build-failed) index is
                // invisible to costing — its stats routines are never
                // consulted — and the conjunct degrades to the functional
                // fallback. Forcing an unusable index is an error, not a
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
                    degraded.push((ci, d.name.clone()));
                    continue;
                }
                // Ancillary label convention: a trailing integer argument
                // (a literal, or a bind the plan records in its
                // `LabelBinds`) matching a SCORE(n) reference in the query.
                let label = match args.last() {
                    Some(RExpr::Const(_) | RExpr::Param(_)) => {
                        score_label(score_labels, values.last())
                    }
                    _ => None,
                };
                // Ask the cartridge's ODCIStats for selectivity and cost,
                // at this execution's bind values.
                let call = OperatorCall {
                    operator: op_pred.name.clone(),
                    args: values,
                    bound: op_pred.bound.clone(),
                    wants_ancillary: label.is_some(),
                };
                let (_, stats, info) = db.domain_index_runtime(&d)?;
                let sel = odci_call(
                    Lane::Read(db),
                    Routine::StatsSelectivity,
                    Callee::Index(&info),
                    format!("{}({})", call.operator, d.name),
                    |ctx| stats.selectivity(ctx, &info, &call),
                )?
                .clamp(0.0, 1.0);
                let icost = odci_call(
                    Lane::Read(db),
                    Routine::StatsIndexCost,
                    Callee::Index(&info),
                    format!("sel={sel:.4}"),
                    |ctx| stats.index_cost(ctx, &info, &call, sel),
                )?;
                let matched = (rows * sel).max(1.0);
                // Index scan + rowid fetches of matches. A query that
                // references the scan's ancillary data (SCORE) can only be
                // answered through the index — force the path then. An
                // INDEX hint forces it the same way.
                let cost = if forced || label.is_some() {
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
                        kind: CandKind::Domain {
                            index: d.name.clone(),
                            indextype: d.indextype.clone(),
                            call: call.clone(),
                            args: args.clone(),
                            label,
                        },
                    };
                }
            }
        }
    }

    // A forced index must actually carry the access: a hint naming a
    // valid index that no predicate on this table can use is an error,
    // never a silent fall-through to another path (the forcing contract
    // the differential harness relies on).
    if let Some(f) = &hints.force_index {
        let used = match &best.kind {
            CandKind::BTree { index, .. } | CandKind::Domain { index, .. } => index == f,
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
    let zone_prune: Vec<ZoneBound> = if db.zone_pruning()
        && matches!(best.kind, CandKind::Full)
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
        CandKind::Domain { index, indextype, call, args, label } => {
            let forced = forced_note(&index);
            // The plan keeps the arguments as expressions; the scan
            // evaluates them when it opens.
            PlanNode {
                kind: PlanKind::DomainScan {
                    table,
                    index,
                    indextype,
                    operator: call.operator,
                    args,
                    bound: call.bound,
                    label,
                    forced,
                    reads,
                },
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

/// Synthetic catalog entry for a `V$` virtual table: a heap-shaped
/// definition with no backing segment, so generic scope/join machinery
/// treats it like any other table.
fn vtable_def(name: &str) -> Result<TableDef> {
    let upper = name.to_ascii_uppercase();
    let columns = Catalog::vtable_columns(&upper)
        .ok_or_else(|| Error::not_found("table", upper.clone()))?;
    Ok(TableDef {
        name: upper,
        columns,
        org: TableOrg::Heap,
        seg: extidx_storage::SegmentId(u32::MAX),
        stats: None,
    })
}

/// Access path for a `V$` virtual table: a View node, whose rows are read
/// from engine state when it runs (a plan holds no data), table-local
/// conjuncts on top as an ordinary Filter. A view never qualifies as a
/// domain-join right side, so joins against V$ tables take hash/NLJ paths;
/// it is estimated at the rows it holds now.
fn vtable_access(
    db: &Exec<'_>,
    tdef: &TableDef,
    alias: &str,
    table_conjuncts: &[Expr],
) -> Result<PlanNode> {
    let scope = table_scope(tdef, Some(alias));
    let access = PlanNode {
        kind: PlanKind::View { table: tdef.name.clone() },
        scope: scope.clone(),
        est_rows: db.vtable_len(&tdef.name)?.max(1) as f64,
        est_cost: 0.0,
    };
    let residual: Vec<&Expr> = table_conjuncts.iter().collect();
    wrap_filter(db, access, &residual, &scope, &[])
}

/// AND-combine conjuncts into a Filter node over `input`. `degraded`
/// names quarantined indexes whose conjuncts fell back to this filter.
fn wrap_filter(
    db: &Database,
    input: PlanNode,
    residual: &[&Expr],
    scope: &Scope,
    degraded: &[String],
) -> Result<PlanNode> {
    if residual.is_empty() {
        return Ok(input);
    }
    // Classify each conjunct by evaluation cost and stable-sort
    // cheapest-first (source order preserved within a class), so the
    // executor short-circuits into the expensive cartridge operators with
    // the fewest surviving rows. Reordering is sound under Kleene logic:
    // three-valued AND is commutative, and a row is rejected at the first
    // non-TRUE (FALSE *or* NULL) term either way.
    let mut classed: Vec<(TermClass, &Expr)> =
        residual.iter().map(|e| (classify_conjunct(db, e), *e)).collect();
    classed.sort_by_key(|(c, _)| *c);
    // User-defined operators left in the residual evaluate through their
    // functional implementation — name them so EXPLAIN exposes the
    // fallback path.
    let mut functional_ops = Vec::new();
    let mut terms = Vec::with_capacity(classed.len());
    for (class, e) in &classed {
        collect_op_call_names(e, db, &mut functional_ops);
        terms.push(FilterTerm { pred: compile_expr(e, scope, db.catalog())?, class: *class });
    }
    let est_rows = (input.est_rows * 0.5).max(1.0);
    let est_cost = input.est_cost + input.est_rows * db.cost.cpu_pred;
    Ok(PlanNode {
        scope: scope.clone(),
        est_rows,
        est_cost,
        kind: PlanKind::Filter {
            input: Box::new(input),
            terms,
            functional_ops,
            degraded: {
                let mut d = degraded.to_vec();
                d.sort();
                d.dedup();
                d
            },
        },
    })
}

/// Plan the table access for UPDATE/DELETE target collection. Its rows
/// are the targets, so every column of them is read: the new row images
/// and index maintenance start from the whole old row.
pub(crate) fn plan_dml_scan(
    db: &Exec<'_>,
    tdef: &TableDef,
    where_clause: Option<&Expr>,
) -> Result<PlannedQuery> {
    let mut cs = Vec::new();
    if let Some(w) = where_clause {
        conjuncts(w, &mut cs);
    }
    let root = best_table_access(db, tdef, &tdef.name.clone(), &cs, &[], &TableHints::default())?;
    Ok(PlannedQuery::new(root, Vec::new()))
}

// ---------------------------------------------------------------------------
// full SELECT planning
// ---------------------------------------------------------------------------

/// Plan a SELECT statement.
pub(crate) fn plan_select(db: &Exec<'_>, s: &Select) -> Result<PlannedQuery> {
    if s.from.is_empty() {
        return Err(Error::Semantic("SELECT requires a FROM clause".into()));
    }
    // Fast path: `SELECT COUNT(*) FROM t` with no predicates becomes a
    // RowCount node, answered from table metadata without scanning while
    // the segment's versions are settled — the single hottest callback
    // query cartridge stats routines issue. A hinted query must take a
    // real scan (the differential oracle's NoREC checks compare hinted
    // COUNT(*) results against actual row sets).
    if s.hints.is_empty() {
        if let Some(planned) = plan_bare_count(db, s)? {
            return Ok(planned);
        }
    }
    if s.from.len() > 63 {
        return Err(Error::Unsupported("too many tables in FROM".into()));
    }
    let score_labels = collect_score_labels(s);

    // Per-table definitions and scopes.
    let mut tdefs = Vec::new();
    let mut aliases = Vec::new();
    let mut scopes = Vec::new();
    for tref in &s.from {
        let tdef = if Catalog::is_vtable(&tref.table) {
            vtable_def(&tref.table)?
        } else {
            db.catalog.table(&tref.table)?.clone()
        };
        let alias = tref.alias.clone().unwrap_or_else(|| tdef.name.clone());
        scopes.push(table_scope(&tdef, Some(&alias)));
        tdefs.push(tdef);
        aliases.push(alias);
    }

    // Classify conjuncts.
    let mut all_conjuncts = Vec::new();
    if let Some(w) = &s.where_clause {
        conjuncts(w, &mut all_conjuncts);
    }
    let mut table_conjuncts: Vec<Vec<Expr>> = vec![Vec::new(); s.from.len()];
    let mut join_conjuncts: Vec<(u64, Expr)> = Vec::new();
    for e in all_conjuncts {
        let mask = expr_table_mask(&e, &scopes)?;
        if mask.count_ones() <= 1 {
            let idx = if mask == 0 { 0 } else { mask.trailing_zeros() as usize };
            table_conjuncts[idx].push(e);
        } else {
            join_conjuncts.push((mask, e));
        }
    }

    // Resolve plan-forcing hints against the FROM clause and catalog
    // before any costing; a malformed hint fails the statement.
    let table_hints = resolve_table_hints(db, &s.hints, &tdefs, &aliases)?;

    // Best single-table access per table.
    let mut accesses: Vec<Option<PlanNode>> = Vec::new();
    for i in 0..tdefs.len() {
        let node = if Catalog::is_vtable(&tdefs[i].name) {
            vtable_access(db, &tdefs[i], &aliases[i], &table_conjuncts[i])?
        } else {
            best_table_access(
                db,
                &tdefs[i],
                &aliases[i],
                &table_conjuncts[i],
                &score_labels,
                &table_hints[i],
            )?
        };
        accesses.push(Some(node));
    }

    // Greedy left-deep join ordering: start from the cheapest-cardinality
    // table, repeatedly add the table that joins (preferring connected
    // tables).
    let n = tdefs.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    remaining.sort_by(|&a, &b| {
        let ra = accesses[a].as_ref().map(|p| p.est_rows).unwrap_or(f64::MAX);
        let rb = accesses[b].as_ref().map(|p| p.est_rows).unwrap_or(f64::MAX);
        ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
    });
    let first = remaining.remove(0);
    let mut joined_mask = 1u64 << first;
    let mut current = accesses[first].take().expect("access plan present");
    let mut pending_joins = join_conjuncts;

    while !remaining.is_empty() {
        // Prefer a table connected to the current set by some conjunct.
        let pick_pos = remaining
            .iter()
            .position(|&t| {
                pending_joins.iter().any(|(m, _)| {
                    m & (1 << t) != 0 && (m & !(1 << t)) & !joined_mask == 0
                })
            })
            .unwrap_or(0);
        let t = remaining.remove(pick_pos);
        let right = accesses[t].take().expect("access plan present");
        // Conjuncts now fully covered by joined ∪ {t}.
        let mut applicable = Vec::new();
        let mut rest = Vec::new();
        for (m, e) in pending_joins {
            if m & !(joined_mask | (1 << t)) == 0 {
                applicable.push(e);
            } else {
                rest.push((m, e));
            }
        }
        pending_joins = rest;
        current = build_join(db, current, right, &tdefs[t], &aliases[t], applicable, &score_labels)?;
        joined_mask |= 1 << t;
    }
    if let Some((_, e)) = pending_joins.into_iter().next() {
        return Err(Error::Semantic(format!(
            "could not place join predicate {}",
            display_expr(&e)
        )));
    }

    let mut planned = finish_select(db, s, current)?;
    planned.label_binds = label_binds(db, s, score_labels);
    Ok(planned)
}

/// Every `?` that is an operator call's trailing argument in a query that
/// names `SCORE(n)`, with the label it names now (see [`LabelBinds`]).
fn label_binds(db: &Exec<'_>, s: &Select, labels: Vec<i64>) -> LabelBinds {
    let trailing = std::cell::RefCell::new(Vec::new());
    if let (false, Some(w)) = (labels.is_empty(), &s.where_clause) {
        expr_any(w, &|e| {
            if let Expr::Call { args, .. } = e {
                if let Some(Expr::Parameter(i)) = args.last() {
                    trailing.borrow_mut().push(*i);
                }
            }
            false
        });
    }
    let peeked = trailing.into_inner().into_iter();
    let peeked = peeked.map(|i| (i, score_label(&labels, db.binds.get(i)))).collect();
    LabelBinds { labels, peeked }
}

/// Join `right` (table `tdef` aliased `alias`) onto `left` under the given
/// join conjuncts. Chooses, in order of preference:
/// 1. a *domain join* — a user-defined-operator conjunct whose indexed
///    column belongs to `right` and whose other arguments come from
///    `left` (the spatial `Sdo_Relate` pattern);
/// 2. a hash join on an equality conjunct;
/// 3. a nested-loop join with the conjuncts as a residual filter.
fn build_join(
    db: &Exec<'_>,
    left: PlanNode,
    right: PlanNode,
    tdef: &TableDef,
    alias: &str,
    conjuncts: Vec<Expr>,
    score_labels: &[i64],
) -> Result<PlanNode> {
    let cm = db.cost;
    let joined_scope = left.scope.join(&right.scope);
    let right_scope = table_scope(tdef, Some(alias));

    // 1. Domain join.
    let mut degraded: Vec<(usize, String)> = Vec::new();
    if matches!(right.kind, PlanKind::FullScan { .. } | PlanKind::IotFullScan { .. }) {
        for (ci, e) in conjuncts.iter().enumerate() {
            let Some(op_pred) = match_op_predicate(e, db) else { continue };
            for d in db.catalog().domain_indexes_on(&tdef.name).into_iter().cloned().collect::<Vec<_>>() {
                let Ok(it) = db.catalog().registry().indextype(&d.indextype) else { continue };
                if !it.supports(&op_pred.name, op_pred.args.len()) {
                    continue;
                }
                // Health gate: quarantined indexes cannot carry a domain
                // join — the operator evaluates functionally in the join
                // residual instead.
                if !db.catalog().health.is_usable(&d.name) {
                    degraded.push((ci, d.name.clone()));
                    continue;
                }
                // Indexed column must be a bare arg resolving in `right`;
                // all other args must compile against `left`.
                let mut col_seen = false;
                let mut outer_args: Vec<RExpr> = Vec::new();
                let mut ok = true;
                for a in &op_pred.args {
                    if let Expr::Column { qualifier, name } = a {
                        if name.eq_ignore_ascii_case(&d.column)
                            && right_scope.resolve(qualifier.as_deref(), name).is_ok()
                            && !col_seen
                        {
                            col_seen = true;
                            continue;
                        }
                    }
                    match compile_expr(a, &left.scope, db.catalog()) {
                        Ok(r) => outer_args.push(r),
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok || !col_seen {
                    continue;
                }
                let label = match op_pred.args.last() {
                    Some(Expr::Literal(v)) => score_label(score_labels, Some(v)),
                    Some(Expr::Parameter(i)) => score_label(score_labels, db.binds.get(*i)),
                    _ => None,
                };
                // Residual conjuncts after this one.
                let residual: Vec<&Expr> =
                    conjuncts.iter().enumerate().filter(|(i, _)| *i != ci).map(|(_, e)| e).collect();
                let est_rows = (left.est_rows * right.est_rows * cm.default_join_sel).max(1.0);
                let est_cost = left.est_cost + left.est_rows * (10.0 + right.est_rows * 0.01);
                let node = PlanNode {
                    scope: joined_scope.clone(),
                    est_rows,
                    est_cost,
                    kind: PlanKind::DomainJoin {
                        left: Box::new(left),
                        right_table: tdef.name.clone(),
                        index: d.name.clone(),
                        indextype: d.indextype.clone(),
                        operator: op_pred.name.clone(),
                        arg_exprs: outer_args,
                        bound: op_pred.bound.clone(),
                        label,
                        reads: ReadSet::default(),
                    },
                };
                let degraded_names: Vec<String> = degraded
                    .into_iter()
                    .filter(|(i, _)| *i != ci)
                    .map(|(_, name)| name)
                    .collect();
                return wrap_filter(db, node, &residual, &joined_scope, &degraded_names);
            }
        }
    }
    let degraded_names: Vec<String> = degraded.into_iter().map(|(_, name)| name).collect();

    // 2. Hash join on an equality conjunct between the two sides.
    for (ci, e) in conjuncts.iter().enumerate() {
        if let Expr::Binary(BinOp::Eq, a, b) = e {
            let try_keys = |x: &Expr, y: &Expr| -> Option<(RExpr, RExpr)> {
                let lk = compile_expr(x, &left.scope, db.catalog()).ok()?;
                let rk = compile_expr(y, &right.scope, db.catalog()).ok()?;
                Some((lk, rk))
            };
            let keys = try_keys(a, b).or_else(|| try_keys(b, a));
            if let Some((left_key, right_key)) = keys {
                let residual: Vec<&Expr> =
                    conjuncts.iter().enumerate().filter(|(i, _)| *i != ci).map(|(_, e)| e).collect();
                let est_rows = (left.est_rows * right.est_rows * cm.default_join_sel).max(1.0);
                let est_cost = left.est_cost
                    + right.est_cost
                    + (left.est_rows + right.est_rows) * cm.cpu_tuple;
                let node = PlanNode {
                    scope: joined_scope.clone(),
                    est_rows,
                    est_cost,
                    kind: PlanKind::HashJoin {
                        left: Box::new(left),
                        right: Box::new(right),
                        left_key,
                        right_key,
                    },
                };
                return wrap_filter(db, node, &residual, &joined_scope, &degraded_names);
            }
        }
    }

    // 3. Nested loop with residual predicate.
    let residual: Vec<&Expr> = conjuncts.iter().collect();
    let est_rows = if residual.is_empty() {
        (left.est_rows * right.est_rows).max(1.0)
    } else {
        (left.est_rows * right.est_rows * cm.default_join_sel).max(1.0)
    };
    let est_cost = left.est_cost + left.est_rows.max(1.0) * right.est_cost;
    let node = PlanNode {
        scope: joined_scope.clone(),
        est_rows,
        est_cost,
        kind: PlanKind::NestedLoopJoin { left: Box::new(left), right: Box::new(right) },
    };
    wrap_filter(db, node, &residual, &joined_scope, &degraded_names)
}

/// Aggregation, projection, DISTINCT, ORDER BY, LIMIT on top of the join
/// tree; also computes output column names.
fn finish_select(db: &Exec<'_>, s: &Select, source: PlanNode) -> Result<PlannedQuery> {
    let cm = db.cost;
    // Detect aggregation.
    let has_aggs = s
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Expr { expr, .. } if contains_aggregate(expr)))
        || s.having.as_ref().is_some_and(contains_aggregate)
        || !s.group_by.is_empty();

    let (mut node, mut item_exprs, names, order_items): AggregatePlan = if has_aggs {
        plan_aggregate(db, s, source)?
    } else {
        // Expand wildcards into explicit column refs.
        let mut exprs = Vec::new();
        let mut names = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Wildcard => {
                    for c in source.scope.columns.iter().filter(|c| !c.hidden) {
                        exprs.push(Expr::Column {
                            qualifier: c.qualifier.clone(),
                            name: c.name.clone(),
                        });
                        names.push(c.name.clone());
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let qu = q.to_ascii_uppercase();
                    let mut any = false;
                    for c in source
                        .scope
                        .columns
                        .iter()
                        .filter(|c| !c.hidden && c.qualifier.as_deref() == Some(qu.as_str()))
                    {
                        exprs.push(Expr::Column {
                            qualifier: c.qualifier.clone(),
                            name: c.name.clone(),
                        });
                        names.push(c.name.clone());
                        any = true;
                    }
                    if !any {
                        return Err(Error::not_found("table alias", q.clone()));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    names.push(
                        alias.clone().unwrap_or_else(|| display_expr(expr).to_ascii_uppercase()),
                    );
                    exprs.push(expr.clone());
                }
            }
        }
        (source, exprs, names, s.order_by.clone())
    };

    // HAVING without aggregation context is handled in plan_aggregate;
    // here having on a non-aggregated query is an error.
    if !has_aggs && s.having.is_some() {
        return Err(Error::Semantic("HAVING requires GROUP BY or aggregates".into()));
    }

    // ORDER BY: try output scope (aliases), else input scope (sort below
    // projection).
    let out_scope = Scope::new(
        names
            .iter()
            .map(|n| ScopeCol::visible(None, n.clone(), None))
            .collect(),
    );

    let mut order_on_output: Option<Vec<(RExpr, bool)>> = None;
    let mut order_on_input: Option<Vec<(RExpr, bool)>> = None;
    if !order_items.is_empty() {
        let compile_keys = |scope: &Scope, db: &Database| -> Result<Vec<(RExpr, bool)>> {
            order_items
                .iter()
                .map(|OrderItem { expr, desc }| {
                    Ok((compile_expr(expr, scope, db.catalog())?, *desc))
                })
                .collect()
        };
        match compile_keys(&out_scope, db) {
            Ok(keys) => order_on_output = Some(keys),
            Err(_) => order_on_input = Some(compile_keys(&node.scope, db)?),
        }
    }

    if let Some(keys) = order_on_input {
        let est_rows = node.est_rows;
        let est_cost = node.est_cost + est_rows * cm.cpu_tuple * 2.0;
        node = PlanNode {
            scope: node.scope.clone(),
            est_rows,
            est_cost,
            kind: PlanKind::Sort { input: Box::new(node), keys },
        };
    }

    // Projection.
    let compiled_items: Vec<RExpr> = item_exprs
        .drain(..)
        .map(|e| compile_expr(&e, &node.scope, db.catalog()))
        .collect::<Result<_>>()?;
    let est_rows = node.est_rows;
    let est_cost = node.est_cost + est_rows * cm.cpu_tuple;
    let shape = Projection::of(&compiled_items);
    node = PlanNode {
        scope: out_scope.clone(),
        est_rows,
        est_cost,
        kind: PlanKind::Project { input: Box::new(node), exprs: compiled_items, shape },
    };

    if s.distinct {
        let est_rows = (node.est_rows * 0.9).max(1.0);
        let est_cost = node.est_cost + node.est_rows * cm.cpu_tuple;
        node = PlanNode {
            scope: out_scope.clone(),
            est_rows,
            est_cost,
            kind: PlanKind::Distinct { input: Box::new(node) },
        };
    }

    if let Some(keys) = order_on_output {
        let est_rows = node.est_rows;
        let est_cost = node.est_cost + est_rows * cm.cpu_tuple * 2.0;
        node = PlanNode {
            scope: out_scope.clone(),
            est_rows,
            est_cost,
            kind: PlanKind::Sort { input: Box::new(node), keys },
        };
    }

    if let Some(n) = s.limit {
        let est_rows = node.est_rows.min(n as f64);
        let est_cost = node.est_cost;
        node = PlanNode {
            scope: out_scope,
            est_rows,
            est_cost,
            kind: PlanKind::Limit { input: Box::new(node), n },
        };
    }

    Ok(PlannedQuery::new(node, names))
}

/// Recognize `SELECT COUNT(*) FROM <one table>` with no filtering and
/// plan it as a RowCount node: the storage layer's row count while the
/// segment's versions are settled, a counting scan while they are not.
fn plan_bare_count(db: &Database, s: &Select) -> Result<Option<PlannedQuery>> {
    if s.from.len() != 1
        || s.where_clause.is_some()
        || !s.group_by.is_empty()
        || s.having.is_some()
        || !s.order_by.is_empty()
        || s.distinct
        || s.limit == Some(0)
        || s.items.len() != 1
    {
        return Ok(None);
    }
    let SelectItem::Expr { expr, alias } = &s.items[0] else { return Ok(None) };
    let Expr::Call { name, args } = expr else { return Ok(None) };
    if !name.eq_ignore_ascii_case("COUNT") || !matches!(args.as_slice(), [] | [Expr::Star]) {
        return Ok(None);
    }
    // V$ tables have no storage-layer shape — count their materialized rows.
    if Catalog::is_vtable(&s.from[0].table) {
        return Ok(None);
    }
    let table = db.catalog.table(&s.from[0].table)?.name.clone();
    let name = alias.clone().unwrap_or_else(|| "COUNT(*)".to_string());
    let root = PlanNode {
        kind: PlanKind::RowCount { table },
        scope: Scope::new(vec![ScopeCol::visible(None, name.clone(), None)]),
        est_rows: 1.0,
        est_cost: 0.0,
    };
    Ok(Some(PlannedQuery::new(root, vec![name])))
}

fn contains_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Call { name, args } => {
            aggregate_kind(name).is_some() || args.iter().any(contains_aggregate)
        }
        Expr::Attribute(x, _) | Expr::Unary(_, x) | Expr::IsNull(x, _) => contains_aggregate(x),
        Expr::Binary(_, a, b) => contains_aggregate(a) || contains_aggregate(b),
        Expr::Between(a, b, c) => {
            contains_aggregate(a) || contains_aggregate(b) || contains_aggregate(c)
        }
        Expr::InList(a, l) => contains_aggregate(a) || l.iter().any(contains_aggregate),
        _ => false,
    }
}

/// Replace aggregate calls in `e` with references to `#AGG{i}` columns,
/// collecting the aggregate specs.
fn rewrite_aggregates(e: &Expr, aggs: &mut Vec<(AggKind, Option<Expr>)>) -> Expr {
    if let Expr::Call { name, args } = e {
        if let Some(kind) = aggregate_kind(name) {
            let arg = match args.as_slice() {
                [] | [Expr::Star] => None,
                [a] => Some(a.clone()),
                _ => Some(args[0].clone()),
            };
            // Reuse identical aggregates.
            let pos = aggs.iter().position(|(k, a)| *k == kind && *a == arg).unwrap_or_else(|| {
                aggs.push((kind, arg.clone()));
                aggs.len() - 1
            });
            return Expr::Column { qualifier: None, name: format!("#AGG{pos}") };
        }
        return Expr::Call {
            name: name.clone(),
            args: args.iter().map(|a| rewrite_aggregates(a, aggs)).collect(),
        };
    }
    match e {
        Expr::Attribute(x, a) => {
            Expr::Attribute(Box::new(rewrite_aggregates(x, aggs)), a.clone())
        }
        Expr::Unary(op, x) => Expr::Unary(*op, Box::new(rewrite_aggregates(x, aggs))),
        Expr::IsNull(x, n) => Expr::IsNull(Box::new(rewrite_aggregates(x, aggs)), *n),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(rewrite_aggregates(a, aggs)),
            Box::new(rewrite_aggregates(b, aggs)),
        ),
        Expr::Between(a, b, c) => Expr::Between(
            Box::new(rewrite_aggregates(a, aggs)),
            Box::new(rewrite_aggregates(b, aggs)),
            Box::new(rewrite_aggregates(c, aggs)),
        ),
        Expr::InList(a, l) => Expr::InList(
            Box::new(rewrite_aggregates(a, aggs)),
            l.iter().map(|x| rewrite_aggregates(x, aggs)).collect(),
        ),
        other => other.clone(),
    }
}

/// Replace any (sub)expression that syntactically equals a GROUP BY
/// expression with a reference to that group's output column — this is
/// what lets `SELECT f(x) … GROUP BY f(x)` compile, since `x` itself is
/// not visible above the aggregation.
fn replace_group_exprs(e: &Expr, group_by: &[Expr]) -> Expr {
    for (i, g) in group_by.iter().enumerate() {
        if e == g {
            return match g {
                Expr::Column { .. } => g.clone(),
                _ => Expr::Column { qualifier: None, name: format!("#GRP{i}") },
            };
        }
    }
    match e {
        Expr::Attribute(x, a) => {
            Expr::Attribute(Box::new(replace_group_exprs(x, group_by)), a.clone())
        }
        Expr::Unary(op, x) => Expr::Unary(*op, Box::new(replace_group_exprs(x, group_by))),
        Expr::IsNull(x, n) => Expr::IsNull(Box::new(replace_group_exprs(x, group_by)), *n),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(replace_group_exprs(a, group_by)),
            Box::new(replace_group_exprs(b, group_by)),
        ),
        Expr::Between(a, b, c) => Expr::Between(
            Box::new(replace_group_exprs(a, group_by)),
            Box::new(replace_group_exprs(b, group_by)),
            Box::new(replace_group_exprs(c, group_by)),
        ),
        Expr::InList(a, l) => Expr::InList(
            Box::new(replace_group_exprs(a, group_by)),
            l.iter().map(|x| replace_group_exprs(x, group_by)).collect(),
        ),
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(|x| replace_group_exprs(x, group_by)).collect(),
        },
        other => other.clone(),
    }
}

/// Build the aggregation subtree; returns (node, rewritten select exprs,
/// output names, rewritten ORDER BY items).
/// Output of [`plan_aggregate`]: the aggregation subtree, the rewritten
/// select expressions, their output names, and rewritten ORDER BY items.
type AggregatePlan = (PlanNode, Vec<Expr>, Vec<String>, Vec<OrderItem>);

fn plan_aggregate(db: &Exec<'_>, s: &Select, source: PlanNode) -> Result<AggregatePlan> {
    let cm = db.cost;
    let mut aggs: Vec<(AggKind, Option<Expr>)> = Vec::new();
    let mut rewritten_items = Vec::new();
    let mut names = Vec::new();
    for item in &s.items {
        match item {
            SelectItem::Expr { expr, alias } => {
                names.push(alias.clone().unwrap_or_else(|| display_expr(expr).to_ascii_uppercase()));
                let rewritten = rewrite_aggregates(expr, &mut aggs);
                rewritten_items.push(replace_group_exprs(&rewritten, &s.group_by));
            }
            _ => {
                return Err(Error::Semantic(
                    "wildcards are not allowed with GROUP BY / aggregates".into(),
                ))
            }
        }
    }
    let rewritten_having = s
        .having
        .as_ref()
        .map(|h| replace_group_exprs(&rewrite_aggregates(h, &mut aggs), &s.group_by));
    // ORDER BY items live above the aggregation too: aggregate calls in
    // them join the aggregate list, group expressions become group-column
    // references.
    let rewritten_order: Vec<OrderItem> = s
        .order_by
        .iter()
        .map(|oi| OrderItem {
            expr: replace_group_exprs(&rewrite_aggregates(&oi.expr, &mut aggs), &s.group_by),
            desc: oi.desc,
        })
        .collect();

    // Compile group exprs and aggregate args against the source scope.
    let group: Vec<RExpr> = s
        .group_by
        .iter()
        .map(|e| compile_expr(e, &source.scope, db.catalog()))
        .collect::<Result<_>>()?;
    let compiled_aggs: Vec<(AggKind, Option<RExpr>)> = aggs
        .iter()
        .map(|(k, a)| {
            Ok((
                *k,
                a.as_ref()
                    .map(|e| compile_expr(e, &source.scope, db.catalog()))
                    .transpose()?,
            ))
        })
        .collect::<Result<_>>()?;

    // Post-aggregate scope: group columns (named by their expression if a
    // simple column, else #GRP{i}) then #AGG{i} columns.
    let mut agg_scope_cols = Vec::new();
    for (i, e) in s.group_by.iter().enumerate() {
        match e {
            Expr::Column { qualifier, name } => {
                agg_scope_cols.push(ScopeCol::visible(qualifier.clone(), name.clone(), None));
            }
            _ => agg_scope_cols.push(ScopeCol::visible(None, format!("#GRP{i}"), None)),
        }
    }
    for i in 0..aggs.len() {
        agg_scope_cols.push(ScopeCol::visible(None, format!("#AGG{i}"), None));
    }
    let agg_scope = Scope::new(agg_scope_cols);

    let est_rows = (source.est_rows / 10.0).max(1.0);
    let est_cost = source.est_cost + source.est_rows * cm.cpu_tuple;
    let mut node = PlanNode {
        scope: agg_scope.clone(),
        est_rows,
        est_cost,
        kind: PlanKind::Aggregate { input: Box::new(source), group, aggs: compiled_aggs },
    };

    if let Some(h) = rewritten_having {
        // HAVING goes through the same cost-ordered term machinery as
        // WHERE residuals (split into conjuncts, cheapest first).
        let mut having_conjuncts = Vec::new();
        conjuncts(&h, &mut having_conjuncts);
        let mut classed: Vec<(TermClass, &Expr)> = having_conjuncts
            .iter()
            .map(|e| (classify_conjunct(db, e), e))
            .collect();
        classed.sort_by_key(|(c, _)| *c);
        let terms = classed
            .iter()
            .map(|(class, e)| {
                Ok(FilterTerm { pred: compile_expr(e, &agg_scope, db.catalog())?, class: *class })
            })
            .collect::<Result<Vec<_>>>()?;
        let est_rows = (node.est_rows * 0.5).max(1.0);
        let est_cost = node.est_cost + node.est_rows * cm.cpu_pred;
        node = PlanNode {
            scope: agg_scope,
            est_rows,
            est_cost,
            kind: PlanKind::Filter {
                input: Box::new(node),
                terms,
                functional_ops: Vec::new(),
                degraded: Vec::new(),
            },
        };
    }

    Ok((node, rewritten_items, names, rewritten_order))
}
