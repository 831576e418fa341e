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
//! costed from catalog statistics, beside the domain-index candidate, in
//! [`crate::access`]; this module plans what sits above them. Joins are
//! ordered greedily left-deep,
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

use extidx_common::{Error, Result, SqlType, Value};

use crate::access::{
    best_table_access, domain_matches, resolve_table_hints, view_access, TableHints,
};
use crate::ast::{BinOp, Expr, OrderItem, Select, SelectItem, UnOp};
use crate::catalog::{Catalog, TableDef};
use crate::database::Database;
use crate::exec_ctx::Exec;
use crate::expr::{aggregate_kind, compile_expr, AggKind, RExpr, Scope, ScopeCol};
use crate::plan::{
    score_label, FilterTerm, LabelBinds, PlanKind, PlanNode, PlannedQuery, Projection,
    TermClass,
};
use crate::vtables;

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
pub(crate) fn conjuncts(expr: &Expr, out: &mut Vec<Expr>) {
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

/// Call `f` with the name of every user-defined operator called inside
/// `e`, outermost first.
fn for_each_op_call(e: &Expr, db: &Database, f: &mut impl FnMut(&str)) {
    expr_any(e, &mut |x| {
        if let Expr::Call { name, .. } = x {
            if db.catalog().registry().has_operator(name) {
                f(name);
            }
        }
        false
    });
}

/// Collect the names of user-defined operators called inside `e` — these
/// evaluate through their functional implementations when they end up in
/// a Filter node.
fn collect_op_call_names(e: &Expr, db: &Database, out: &mut Vec<String>) {
    for_each_op_call(e, db, &mut |name| {
        let upper = name.to_ascii_uppercase();
        if !out.contains(&upper) {
            out.push(upper);
        }
    });
}

/// Does `hit` accept `e` or any expression inside it? Visits in pre-order
/// and stops at the first hit, so a `hit` that never accepts visits all.
pub(crate) fn expr_any(e: &Expr, hit: &mut impl FnMut(&Expr) -> bool) -> bool {
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
    expr_any(e, &mut |x| matches!(x, Expr::Column { .. } | Expr::Star))
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

/// Count functional user-operator calls in an expression (they dominate
/// per-row filter cost).
pub(crate) fn count_op_calls(e: &Expr, db: &Database) -> usize {
    let mut n = 0;
    for_each_op_call(e, db, &mut |_| n += 1);
    n
}

/// Scores referenced by the query (labels of SCORE(n) calls), used to set
/// `wants_ancillary` on matching domain scans.
fn collect_score_labels(s: &Select) -> Vec<i64> {
    let mut labels = Vec::new();
    let items = s.items.iter().filter_map(|item| match item {
        SelectItem::Expr { expr, .. } => Some(expr),
        _ => None,
    });
    for e in items.chain(s.order_by.iter().map(|o| &o.expr)) {
        expr_any(e, &mut |x| {
            if let Expr::Call { name, args } = x {
                if name.eq_ignore_ascii_case("SCORE") {
                    match args.first() {
                        Some(Expr::Literal(Value::Integer(l))) => labels.push(*l),
                        None => labels.push(1),
                        _ => {}
                    }
                }
            }
            false
        });
    }
    labels
}

/// AND-combine conjuncts into a Filter node over `input`. `degraded`
/// names quarantined indexes whose conjuncts fell back to this filter.
pub(crate) fn wrap_filter(
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
            let upper = tref.table.to_ascii_uppercase();
            vtables::vtable(&upper).ok_or_else(|| Error::not_found("table", upper))?.table_def()
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
        let node = if let Some(view) = vtables::vtable(&tdefs[i].name) {
            view_access(db, view, &tdefs[i], &aliases[i], &table_conjuncts[i])?
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
        current =
            build_join(db, current, right, &tdefs[t], applicable, &score_labels, &table_hints[t])?;
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
    let mut trailing = Vec::new();
    if let (false, Some(w)) = (labels.is_empty(), &s.where_clause) {
        expr_any(w, &mut |e| {
            if let Expr::Call { args, .. } = e {
                if let Some(Expr::Parameter(i)) = args.last() {
                    trailing.push(*i);
                }
            }
            false
        });
    }
    let peeked = trailing.into_iter();
    let peeked = peeked.map(|i| (i, score_label(&labels, db.binds.get(i)))).collect();
    LabelBinds { labels, peeked }
}

/// Join `right` (table `tdef`, under its resolved `hints`) onto `left`
/// under the given join conjuncts. Chooses, in order of preference:
/// 1. a *domain join* — a domain scan of `right`'s table over `left`, for
///    the first user-defined-operator conjunct the one domain-index matcher
///    ([`domain_matches`]) lets an index on `right` carry with its other
///    arguments read from `left`'s rows (the spatial `Sdo_Relate` pattern);
/// 2. a hash join on an equality conjunct;
/// 3. a nested-loop join with the conjuncts as a residual filter.
fn build_join(
    db: &Exec<'_>,
    left: PlanNode,
    right: PlanNode,
    tdef: &TableDef,
    conjuncts: Vec<Expr>,
    score_labels: &[i64],
    hints: &TableHints,
) -> Result<PlanNode> {
    let cm = db.cost;
    let joined_scope = left.scope.join(&right.scope);

    // 1. Domain join.
    let mut degraded: Vec<(usize, String)> = Vec::new();
    if matches!(right.kind, PlanKind::FullScan { .. } | PlanKind::IotFullScan { .. }) {
        for (ci, e) in conjuncts.iter().enumerate() {
            let (matches, unusable) =
                domain_matches(db, tdef, &right.scope, e, Some(&left.scope), score_labels, hints)?;
            degraded.extend(unusable.into_iter().map(|name| (ci, name)));
            let Some(m) = matches.into_iter().next() else { continue };
            // Residual conjuncts after this one.
            let residual: Vec<&Expr> =
                conjuncts.iter().enumerate().filter(|(i, _)| *i != ci).map(|(_, e)| e).collect();
            let est_rows = (left.est_rows * right.est_rows * cm.default_join_sel).max(1.0);
            let est_cost = left.est_cost + left.est_rows * (10.0 + right.est_rows * 0.01);
            let kind = m.plan(Some(left), None);
            let node = PlanNode { scope: joined_scope.clone(), est_rows, est_cost, kind };
            let degraded_names: Vec<String> =
                degraded.into_iter().filter(|(i, _)| *i != ci).map(|(_, name)| name).collect();
            return wrap_filter(db, node, &residual, &joined_scope, &degraded_names);
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
    expr_any(e, &mut |x| matches!(x, Expr::Call { name, .. } if aggregate_kind(name).is_some()))
}

/// Rebuild `e` top-down through `replace`: a node it maps to `Some` is
/// replaced whole, any other node is rebuilt from its rewritten children,
/// left to right.
fn rewrite_expr(e: &Expr, replace: &mut impl FnMut(&Expr) -> Option<Expr>) -> Expr {
    if let Some(r) = replace(e) {
        return r;
    }
    let mut sub = |x: &Expr| Box::new(rewrite_expr(x, replace));
    match e {
        Expr::Attribute(x, a) => Expr::Attribute(sub(x), a.clone()),
        Expr::Unary(op, x) => Expr::Unary(*op, sub(x)),
        Expr::IsNull(x, n) => Expr::IsNull(sub(x), *n),
        Expr::Binary(op, a, b) => Expr::Binary(*op, sub(a), sub(b)),
        Expr::Between(a, b, c) => Expr::Between(sub(a), sub(b), sub(c)),
        Expr::InList(a, l) => {
            let a = sub(a);
            Expr::InList(a, l.iter().map(|x| rewrite_expr(x, replace)).collect())
        }
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(|x| rewrite_expr(x, replace)).collect(),
        },
        other => other.clone(),
    }
}

/// Replace aggregate calls in `e` with references to `#AGG{i}` columns,
/// collecting the aggregate specs.
fn rewrite_aggregates(e: &Expr, aggs: &mut Vec<(AggKind, Option<Expr>)>) -> Expr {
    rewrite_expr(e, &mut |x| {
        let Expr::Call { name, args } = x else { return None };
        let kind = aggregate_kind(name)?;
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
        Some(Expr::Column { qualifier: None, name: format!("#AGG{pos}") })
    })
}

/// Replace any (sub)expression that syntactically equals a GROUP BY
/// expression with a reference to that group's output column — this is
/// what lets `SELECT f(x) … GROUP BY f(x)` compile, since `x` itself is
/// not visible above the aggregation.
fn replace_group_exprs(e: &Expr, group_by: &[Expr]) -> Expr {
    rewrite_expr(e, &mut |x| {
        let i = group_by.iter().position(|g| g == x)?;
        Some(match &group_by[i] {
            g @ Expr::Column { .. } => g.clone(),
            _ => Expr::Column { qualifier: None, name: format!("#GRP{i}") },
        })
    })
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
