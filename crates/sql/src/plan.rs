//! Physical query plans.
//!
//! A [`PlanNode`] tree is what the optimizer hands the executor. Access
//! paths mirror §2.4.2's choices: full table scan with functional operator
//! evaluation, B-tree index access, index-organized-table key access, and
//! the domain-index scan that drives the cartridge's
//! ODCIIndexStart/Fetch/Close routines.

use std::fmt;

use extidx_common::{Key, Result, Value};
use extidx_core::meta::PredicateBound;

use crate::ast::BinOp;
use crate::expr::{compare, eval, filter_accepts, AggKind, EvalCtx, ExecRow, RExpr, Scope, Slots};

/// Evaluation-cost class of one WHERE conjunct, cheapest first. The
/// optimizer sorts Filter terms by this rank (stably, preserving source
/// order within a class) so short-circuit evaluation runs the expensive
/// cartridge operators against the fewest surviving rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TermClass {
    /// References no columns — constant-foldable, evaluated once per row
    /// at register-compare cost.
    Const,
    /// Simple `col relop literal` / `col BETWEEN` shape — the same shape
    /// zone maps and B-trees cover, cheap single-column compare.
    IndexedCol,
    /// Any other column-referencing expression.
    PlainCol,
    /// Contains a user-defined (ODCI) operator call — a cartridge
    /// dispatch, possibly re-entering SQL; by far the most expensive.
    DomainOp,
}

impl std::fmt::Display for TermClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TermClass::Const => "const",
            TermClass::IndexedCol => "zone",
            TermClass::PlainCol => "col",
            TermClass::DomainOp => "op",
        })
    }
}

/// One ordered conjunct of a [`PlanKind::Filter`] node.
#[derive(Debug)]
pub struct FilterTerm {
    pub pred: RExpr,
    pub class: TermClass,
}

impl FilterTerm {
    /// Whether `row` passes this term: exactly what `filter_accepts` says
    /// of the predicate's value, errors included (DESIGN.md §4h "Compiled
    /// filter terms"). Where [`FilterTerm::decide`] cannot say, `eval` does.
    #[inline]
    pub(crate) fn accepts<R: Slots + ?Sized>(&self, row: &R, ctx: &EvalCtx<'_>) -> Result<bool> {
        match self.decide(row, ctx.binds) {
            Some(pass) => Ok(pass),
            None => Ok(filter_accepts(&eval(&self.pred, row, ctx)?)),
        }
    }

    /// Whether `row` passes a term of shape `Slot relop value` (either
    /// operand order) or `Slot BETWEEN value AND value`, a value being a
    /// literal or a bind: [`compare`] — what `eval` asks — on the borrowed
    /// column and value, nothing cloned. `None` for any other shape, a slot
    /// the row lacks or a bind past `binds`' end; in the last two `eval`
    /// fails, and its error is the one to report.
    #[inline]
    pub(crate) fn decide<R: Slots + ?Sized>(&self, row: &R, binds: &[Value]) -> Option<bool> {
        let flip = |op: BinOp| match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        };
        match &self.pred {
            RExpr::Binary(
                op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
                a,
                b,
            ) => {
                // `value op Slot` is `Slot op' value`, `op'` the flipped
                // operator: `compare` is antisymmetric.
                let (slot, op, value) = match (&**a, &**b) {
                    (RExpr::Slot(slot), v) => (*slot, *op, v),
                    (v, RExpr::Slot(slot)) => (*slot, flip(*op), v),
                    _ => return None,
                };
                let (v, value) = (row.slot(slot)?, operand(value, binds)?);
                Some(compare(op, v, value) == Some(true))
            }
            RExpr::Between(e, lo, hi) => {
                let RExpr::Slot(slot) = **e else { return None };
                let (v, lo, hi) = (row.slot(slot)?, operand(lo, binds)?, operand(hi, binds)?);
                let holds = |op, bound| compare(op, v, bound) == Some(true);
                Some(holds(BinOp::Ge, lo) && holds(BinOp::Le, hi))
            }
            _ => None,
        }
    }
}

/// A literal's value, or a bind's under `binds`; `None` for any other
/// expression and for a bind past `binds`' end.
#[inline]
fn operand<'a>(e: &'a RExpr, binds: &'a [Value]) -> Option<&'a Value> {
    match e {
        RExpr::Const(v) => Some(v),
        RExpr::Param(i) => binds.get(*i),
        _ => None,
    }
}

/// The value of a column-free plan expression under the statement's
/// binds. Wherever the optimizer compared a column with a value, the plan
/// keeps a literal or a bind (`RExpr::Const` / `RExpr::Param`) — for a
/// domain scan's arguments, also a constructor over them — so that one
/// plan serves every bind set; a scan computes the values when it opens.
pub(crate) fn value_of(e: &RExpr, ctx: &EvalCtx<'_>) -> Result<Value> {
    eval(e, &ExecRow::default(), ctx)
}

/// One inclusive side of an access path's key range: the key's leading
/// parts, each a literal or a bind.
#[derive(Clone)]
pub struct KeyBound(pub Vec<RExpr>);

impl KeyBound {
    /// The key this bound names under the statement's binds — `None` when
    /// a part is NULL: `col relop NULL` is never true, so the range holds
    /// no row.
    pub(crate) fn resolve(&self, ctx: &EvalCtx<'_>) -> Result<Option<Key>> {
        let mut parts = Vec::with_capacity(self.0.len());
        for e in &self.0 {
            match value_of(e, ctx)? {
                Value::Null => return Ok(None),
                v => parts.push(v),
            }
        }
        Ok(Some(Key(parts)))
    }
}

/// Renders like the `Key` a literal bound resolves to (`Key([Integer(5)])`),
/// with each bind as `Param(?i)`.
impl fmt::Debug for KeyBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Key([")?;
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match e {
                RExpr::Const(v) => write!(f, "{v:?}")?,
                other => write!(f, "{other:?}")?,
            }
        }
        f.write_str("])")
    }
}

/// The columns of a base access's rows that anything above the access
/// reads: one flag per slot of its scope — the table's columns, then the
/// hidden ROWID. The executor copies these out of storage and carries
/// every other column as NULL, so row width and slot numbers are the same
/// whatever the set. Filled by [`PlanNode::mark_reads`], which every
/// [`PlannedQuery`] runs once, so a cached plan carries its read sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadSet(Vec<bool>);

impl ReadSet {
    /// Whether slot `i` is read.
    pub(crate) fn reads(&self, i: usize) -> bool {
        self.0.get(i).copied().unwrap_or(false)
    }
}

/// How a Project makes its output row out of its input row, moving the
/// input's values rather than cloning them. Decided when the plan is made.
#[derive(Debug)]
pub enum Projection {
    /// Every expression is a distinct bare slot: the swaps that put each
    /// value in its output position in the input row's own `Vec`, which
    /// is then truncated — no allocation per row.
    Permute(Vec<(usize, usize)>),
    /// Otherwise a fresh row, per expression: `Some(slot)` moves the
    /// input's value of a bare slot no other expression reads, `None`
    /// evaluates the expression.
    Build(Vec<Option<usize>>),
}

impl Projection {
    pub(crate) fn of(exprs: &[RExpr]) -> Projection {
        let bare: Vec<Option<usize>> =
            exprs.iter().map(|e| if let RExpr::Slot(s) = e { Some(*s) } else { None }).collect();
        let mut uses: Vec<usize> = Vec::new();
        for e in exprs {
            e.visit_slots(&mut |s| {
                if uses.len() <= s {
                    uses.resize(s + 1, 0);
                }
                uses[s] += 1;
            });
        }
        if !bare.iter().all(|s| s.is_some_and(|s| uses[s] == 1)) {
            let moves = bare.into_iter().map(|s| s.filter(|&s| uses[s] == 1));
            return Projection::Build(moves.collect());
        }
        // Simulate the swaps: `at[p]` is the input slot now at position
        // `p`, `pos[s]` the position input slot `s` is now at.
        let mut at: Vec<usize> = (0..uses.len()).collect();
        let mut pos = at.clone();
        let mut swaps = Vec::new();
        for (k, s) in bare.into_iter().flatten().enumerate() {
            let p = pos[s];
            if p != k {
                swaps.push((k, p));
                let displaced = at[k];
                at.swap(k, p);
                (pos[s], pos[displaced]) = (k, p);
            }
        }
        Projection::Permute(swaps)
    }
}

/// A zone-map pruning bound a full scan applies before reading a page:
/// the residual conjunct restated as `col ∈ [lo, hi]` over the table's
/// physical column index (`None` = unbounded on that side).
#[derive(Debug, Clone)]
pub struct ZoneBound {
    pub col: usize,
    pub col_name: String,
    pub lo: Option<RExpr>,
    pub hi: Option<RExpr>,
}

/// A physical plan node plus its output scope and optimizer estimates.
#[derive(Debug)]
pub struct PlanNode {
    pub kind: PlanKind,
    /// Columns this node outputs.
    pub scope: Scope,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated cumulative cost (page-read equivalents).
    pub est_cost: f64,
}

/// The physical operator. Every base access — each kind that reads a
/// table's rows, a domain join included — carries the [`ReadSet`] of the
/// columns of that table read above it.
#[derive(Debug)]
pub enum PlanKind {
    /// Sequential scan of a heap table; exposes columns plus ROWID.
    /// `forced` names the hint that mandated this path, if any.
    /// `prune` lists zone-map bounds the scan checks per page so it can
    /// skip pages whose min/max provably exclude every bound.
    FullScan { table: String, forced: Option<String>, prune: Vec<ZoneBound>, reads: ReadSet },
    /// Full scan of an index-organized table (key order).
    IotFullScan { table: String, forced: Option<String>, reads: ReadSet },
    /// Key range access on an index-organized table's primary key.
    IotRange { table: String, lo: Option<KeyBound>, hi: Option<KeyBound>, reads: ReadSet },
    /// B-tree index range access: scan index entries, fetch base rows.
    BTreeAccess {
        table: String,
        index: String,
        lo: Option<KeyBound>,
        hi: Option<KeyBound>,
        forced: Option<String>,
        reads: ReadSet,
    },
    /// Direct fetch of one row by ROWID (`WHERE t.ROWID = <literal or ?>`).
    RowIdEq { table: String, rid: RExpr, reads: ReadSet },
    /// `SELECT COUNT(*) FROM table`: the physical row count while every
    /// version chain of the segment is settled, else a count of the rows
    /// the statement's snapshot sees — decided when it runs.
    RowCount { table: String },
    /// A `V$` view: its rows are read from engine state when it runs.
    View { table: String },
    /// Domain-index scan: drives ODCIIndexStart/Fetch/Close on the
    /// indextype, fetches base rows by the returned rowids. Over an `outer`
    /// input it is a *domain join*, how a user-defined operator acting as
    /// a join condition (`Sdo_Relate(r.geometry, p.geometry, …)`) is
    /// evaluated through the index: one batched scan per outer batch (the
    /// rows whose arguments are all non-NULL), each fetched row joined
    /// after the outer row it answers. Without one it makes one scan of a
    /// batch of one empty row.
    DomainScan {
        outer: Option<Box<PlanNode>>,
        table: String,
        index: String,
        indextype: String,
        operator: String,
        /// The operator's non-column arguments, evaluated against each
        /// outer row (constructors, binds and outer columns included).
        args: Vec<RExpr>,
        /// Where the indexed column stands among the operator's arguments.
        column_pos: usize,
        bound: PredicateBound,
        /// Ancillary label bridging to `SCORE(label)` (§2.4.2 ancillary
        /// operators).
        label: Option<i64>,
        forced: Option<String>,
        /// What is read of `table`'s rows.
        reads: ReadSet,
    },
    /// Row filter over cost-ordered conjuncts (see [`TermClass`]), each
    /// evaluated under Kleene logic and short-circuited at the first
    /// non-TRUE term. `functional_ops` names the user-defined operators
    /// this filter evaluates through their functional implementations —
    /// the §2.4.2 fallback path, surfaced in EXPLAIN so tests can pin it.
    /// `degraded` names quarantined domain indexes that would have served
    /// a conjunct now evaluated here instead — the health machinery's
    /// silent degradation, made visible to EXPLAIN.
    Filter {
        input: Box<PlanNode>,
        terms: Vec<FilterTerm>,
        functional_ops: Vec<String>,
        degraded: Vec<String>,
    },
    /// Projection.
    Project { input: Box<PlanNode>, exprs: Vec<RExpr>, shape: Projection },
    /// Nested-loop (cross) join; any residual predicate is a `Filter`
    /// above it.
    NestedLoopJoin { left: Box<PlanNode>, right: Box<PlanNode> },
    /// Hash join on one equi-key pair (keys compiled against each side's
    /// scope); residual conjuncts are a `Filter` above it.
    HashJoin {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        left_key: RExpr,
        right_key: RExpr,
    },
    /// Sort by keys (`true` = descending).
    Sort { input: Box<PlanNode>, keys: Vec<(RExpr, bool)> },
    /// Row-count limit.
    Limit { input: Box<PlanNode>, n: u64 },
    /// Duplicate elimination over the full row.
    Distinct { input: Box<PlanNode> },
    /// Hash aggregation: output = group columns then aggregate results.
    Aggregate {
        input: Box<PlanNode>,
        group: Vec<RExpr>,
        aggs: Vec<(AggKind, Option<RExpr>)>,
    },
}

impl PlanKind {
    /// The read set of a base access; `None` for every other operator.
    pub(crate) fn read_set(&self) -> Option<&ReadSet> {
        match self {
            PlanKind::FullScan { reads, .. }
            | PlanKind::IotFullScan { reads, .. }
            | PlanKind::IotRange { reads, .. }
            | PlanKind::BTreeAccess { reads, .. }
            | PlanKind::RowIdEq { reads, .. }
            | PlanKind::DomainScan { reads, .. } => Some(reads),
            _ => None,
        }
    }
}

impl PlanNode {
    /// Indented one-line-per-node rendering for EXPLAIN.
    pub fn explain(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut Vec<String>) {
        let pad = "  ".repeat(depth);
        // `[FORCED BY /*+ hint */]` marks paths mandated by a hint rather
        // than chosen by cost.
        let forced_suffix = |forced: &Option<String>| match forced {
            Some(h) => format!("  [FORCED BY /*+ {h} */]"),
            None => String::new(),
        };
        let line = match &self.kind {
            PlanKind::FullScan { table, forced, prune, .. } => {
                let prune_suffix = if prune.is_empty() {
                    String::new()
                } else {
                    let cols: Vec<&str> =
                        prune.iter().map(|b| b.col_name.as_str()).collect();
                    format!("  zone-prune[{}]", cols.join(", "))
                };
                format!("{pad}FULL SCAN {table}{prune_suffix}{}", forced_suffix(forced))
            }
            PlanKind::IotFullScan { table, forced, .. } => {
                format!("{pad}IOT FULL SCAN {table}{}", forced_suffix(forced))
            }
            PlanKind::IotRange { table, lo, hi, .. } => {
                format!("{pad}IOT RANGE {table} lo={lo:?} hi={hi:?}")
            }
            PlanKind::BTreeAccess { table, index, lo, hi, forced, .. } => {
                format!(
                    "{pad}BTREE ACCESS {table} VIA {index} lo={lo:?} hi={hi:?}{}",
                    forced_suffix(forced)
                )
            }
            PlanKind::RowIdEq { table, rid: RExpr::Const(rid), .. } => {
                format!("{pad}ROWID FETCH {table} {rid}")
            }
            PlanKind::RowIdEq { table, rid, .. } => format!("{pad}ROWID FETCH {table} {rid:?}"),
            PlanKind::RowCount { table } => format!("{pad}ROW COUNT {table}"),
            PlanKind::View { table } => format!("{pad}VIEW {table}"),
            PlanKind::DomainScan { outer: Some(_), table, index, indextype, operator, .. } => {
                format!("{pad}DOMAIN JOIN {table} VIA {index} ({indextype}) OP {operator}")
            }
            PlanKind::DomainScan { table, index, indextype, operator, args, forced, .. } => {
                format!(
                    "{pad}DOMAIN INDEX SCAN {table} VIA {index} ({indextype}) OP {operator}({} args){}",
                    args.len(),
                    forced_suffix(forced)
                )
            }
            PlanKind::Filter { terms, functional_ops, degraded, .. } => {
                let degraded_suffix = if degraded.is_empty() {
                    String::new()
                } else {
                    format!("  [DEGRADED: index quarantined: {}]", degraded.join(", "))
                };
                // Terms print in evaluation order, each tagged with its
                // cost class, so tests can pin the chosen ordering.
                let pred = terms
                    .iter()
                    .map(|t| format!("{}:{:?}", t.class, t.pred))
                    .collect::<Vec<_>>()
                    .join(" AND ");
                if functional_ops.is_empty() {
                    format!("{pad}FILTER {pred}{degraded_suffix}")
                } else {
                    format!(
                        "{pad}FILTER [FUNCTIONAL FALLBACK {}] {pred}{degraded_suffix}",
                        functional_ops.join(", ")
                    )
                }
            }
            PlanKind::Project { exprs, .. } => format!("{pad}PROJECT {} cols", exprs.len()),
            PlanKind::NestedLoopJoin { .. } => format!("{pad}NESTED LOOP JOIN"),
            PlanKind::HashJoin { left_key, right_key, .. } => {
                format!("{pad}HASH JOIN {left_key:?} = {right_key:?}")
            }
            PlanKind::Sort { keys, .. } => format!("{pad}SORT {} keys", keys.len()),
            PlanKind::Limit { n, .. } => format!("{pad}LIMIT {n}"),
            PlanKind::Distinct { .. } => format!("{pad}DISTINCT"),
            PlanKind::Aggregate { group, aggs, .. } => {
                format!("{pad}AGGREGATE groups={} aggs={}", group.len(), aggs.len())
            }
        };
        // A cost of f64::MIN means the path was mandated (hint or SCORE
        // reference), not costed — print that instead of a 300-digit number.
        if self.est_cost == f64::MIN {
            out.push(format!("{line}  (rows={:.0} cost=forced)", self.est_rows));
        } else {
            out.push(format!("{line}  (rows={:.0} cost={:.1})", self.est_rows, self.est_cost));
        }
        match &self.kind {
            PlanKind::Filter { input, .. }
            | PlanKind::Project { input, .. }
            | PlanKind::Sort { input, .. }
            | PlanKind::Limit { input, .. }
            | PlanKind::Distinct { input }
            | PlanKind::Aggregate { input, .. }
            | PlanKind::DomainScan { outer: Some(input), .. } => input.explain_into(depth + 1, out),
            PlanKind::NestedLoopJoin { left, right, .. }
            | PlanKind::HashJoin { left, right, .. } => {
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            _ => {}
        }
    }

    /// The access-path names appearing in this plan, in pre-order — used
    /// by tests asserting which path the optimizer chose.
    pub fn access_paths(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_paths(&mut out);
        out
    }

    fn collect_paths(&self, out: &mut Vec<String>) {
        match &self.kind {
            PlanKind::FullScan { table, .. } => out.push(format!("FULL({table})")),
            PlanKind::IotFullScan { table, .. } => out.push(format!("IOTFULL({table})")),
            PlanKind::IotRange { table, .. } => out.push(format!("IOTRANGE({table})")),
            PlanKind::BTreeAccess { table, index, .. } => {
                out.push(format!("BTREE({table},{index})"))
            }
            PlanKind::RowIdEq { table, .. } => out.push(format!("ROWIDEQ({table})")),
            PlanKind::RowCount { table } => out.push(format!("COUNT({table})")),
            PlanKind::View { table } => out.push(format!("VIEW({table})")),
            PlanKind::DomainScan { outer: None, table, index, .. } => {
                out.push(format!("DOMAIN({table},{index})"))
            }
            PlanKind::DomainScan { outer: Some(outer), table, index, .. } => {
                outer.collect_paths(out);
                out.push(format!("DOMAINJOIN({table},{index})"));
            }
            PlanKind::Filter { input, .. }
            | PlanKind::Project { input, .. }
            | PlanKind::Sort { input, .. }
            | PlanKind::Limit { input, .. }
            | PlanKind::Distinct { input }
            | PlanKind::Aggregate { input, .. } => input.collect_paths(out),
            PlanKind::NestedLoopJoin { left, right, .. }
            | PlanKind::HashJoin { left, right, .. } => {
                left.collect_paths(out);
                right.collect_paths(out);
            }
        }
    }
}

impl PlanNode {
    /// The stored tables this plan reads, once each (`V$` views are engine
    /// state, not tables).
    pub(crate) fn tables(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables<'p>(&'p self, out: &mut Vec<&'p str>) {
        let own = match &self.kind {
            PlanKind::FullScan { table, .. }
            | PlanKind::IotFullScan { table, .. }
            | PlanKind::IotRange { table, .. }
            | PlanKind::BTreeAccess { table, .. }
            | PlanKind::RowIdEq { table, .. }
            | PlanKind::RowCount { table }
            | PlanKind::DomainScan { table, .. } => Some(table.as_str()),
            _ => None,
        };
        match &self.kind {
            PlanKind::Filter { input, .. }
            | PlanKind::Project { input, .. }
            | PlanKind::Sort { input, .. }
            | PlanKind::Limit { input, .. }
            | PlanKind::Distinct { input }
            | PlanKind::Aggregate { input, .. }
            | PlanKind::DomainScan { outer: Some(input), .. } => input.collect_tables(out),
            PlanKind::NestedLoopJoin { left, right, .. }
            | PlanKind::HashJoin { left, right, .. } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
            _ => {}
        }
        if let Some(t) = own.filter(|t| !out.contains(t)) {
            out.push(t);
        }
    }

    /// Record on every base access below this node the columns anything
    /// above the access reads, given `need`: which of this node's output
    /// slots are read above it. Readers are Filter terms, Project, Sort
    /// and Aggregate expressions, hash-join keys and domain-join
    /// arguments; Distinct reads every column it is handed.
    pub(crate) fn mark_reads(&mut self, mut need: Vec<bool>) {
        match &mut self.kind {
            PlanKind::FullScan { reads, .. }
            | PlanKind::IotFullScan { reads, .. }
            | PlanKind::IotRange { reads, .. }
            | PlanKind::BTreeAccess { reads, .. }
            | PlanKind::RowIdEq { reads, .. } => *reads = ReadSet(need),
            PlanKind::RowCount { .. } | PlanKind::View { .. } => {}
            PlanKind::Filter { input, terms, .. } => {
                read_by(terms.iter().map(|t| &t.pred), &mut need);
                input.mark_reads(need);
            }
            PlanKind::Sort { input, keys } => {
                read_by(keys.iter().map(|(e, _)| e), &mut need);
                input.mark_reads(need);
            }
            PlanKind::Limit { input, .. } => input.mark_reads(need),
            PlanKind::Distinct { input } => input.mark_reads(vec![true; input.width()]),
            // Every expression is evaluated whether or not its output is
            // read above, so each one reads its input.
            PlanKind::Project { input, exprs, .. } => {
                let mut below = vec![false; input.width()];
                read_by(exprs.iter(), &mut below);
                input.mark_reads(below);
            }
            PlanKind::Aggregate { input, group, aggs } => {
                let mut below = vec![false; input.width()];
                let args = aggs.iter().filter_map(|(_, a)| a.as_ref());
                read_by(group.iter().chain(args), &mut below);
                input.mark_reads(below);
            }
            PlanKind::NestedLoopJoin { left, right } => {
                let right_need = need.split_off(left.width());
                left.mark_reads(need);
                right.mark_reads(right_need);
            }
            PlanKind::HashJoin { left, right, left_key, right_key } => {
                let mut right_need = need.split_off(left.width());
                read_by([&*left_key], &mut need);
                read_by([&*right_key], &mut right_need);
                left.mark_reads(need);
                right.mark_reads(right_need);
            }
            // A domain join's own columns follow its outer input's, which
            // its arguments read.
            PlanKind::DomainScan { outer, args, reads, .. } => {
                *reads = ReadSet(need.split_off(outer.as_ref().map_or(0, |o| o.width())));
                if let Some(outer) = outer {
                    read_by(args.iter(), &mut need);
                    outer.mark_reads(need);
                }
            }
        }
    }

    /// Slots in this node's output rows.
    fn width(&self) -> usize {
        self.scope.columns.len()
    }
}

/// Mark in `need` every slot the expressions read.
fn read_by<'e>(exprs: impl IntoIterator<Item = &'e RExpr>, need: &mut [bool]) {
    for e in exprs {
        e.visit_slots(&mut |s| {
            if let Some(read) = need.get_mut(s) {
                *read = true;
            }
        });
    }
}

/// A fully planned query: the root node plus output column names.
#[derive(Debug)]
pub struct PlannedQuery {
    pub root: PlanNode,
    pub column_names: Vec<String>,
    pub(crate) label_binds: LabelBinds,
}

impl PlannedQuery {
    /// The finished plan, its read sets marked: the root's rows are the
    /// statement's answer (or a DML statement's targets), so every column
    /// of them is read.
    pub(crate) fn new(mut root: PlanNode, column_names: Vec<String>) -> PlannedQuery {
        root.mark_reads(vec![true; root.width()]);
        PlannedQuery { root, column_names, label_binds: LabelBinds::default() }
    }
}

/// The label an operator's trailing argument names: an integer that one
/// of the query's `SCORE(n)` calls names (§2.4.2 ancillary operators).
pub(crate) fn score_label(labels: &[i64], v: Option<&Value>) -> Option<i64> {
    match v {
        Some(Value::Integer(l)) if labels.contains(l) => Some(*l),
        _ => None,
    }
}

/// The one plan decision a bind's value makes. A trailing operator
/// argument that names a `SCORE(n)` label forces the domain path and
/// carries that label; any other value is an ordinary argument. When that
/// argument is a `?`, the plan records the label it named, and holds only
/// while the bind names the same one.
#[derive(Debug, Default)]
pub(crate) struct LabelBinds {
    /// The labels the query's `SCORE(n)` calls name.
    pub(crate) labels: Vec<i64>,
    /// Each trailing `?` and the label it named when the plan was made.
    pub(crate) peeked: Vec<(usize, Option<i64>)>,
}

impl LabelBinds {
    pub(crate) fn hold(&self, binds: &[Value]) -> bool {
        self.peeked.iter().all(|&(i, l)| score_label(&self.labels, binds.get(i)) == l)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::RefCell;
    use std::sync::Arc;

    use extidx_common::{RowId, Value};
    use extidx_core::meta::{IndexInfo, OperatorCall};
    use extidx_core::operator::{FnContext, ScalarFunction};
    use extidx_core::params::ParamString;
    use extidx_core::scan::{FetchResult, ScanContext};
    use extidx_core::server::ServerContext as Srv;
    use extidx_core::stats::{IndexCost, OdciStats};
    use extidx_core::OdciIndex;

    use super::*;
    use crate::ast::Statement;
    use crate::database::Database;
    use crate::exec_ctx::{Exec, SessionScratch};
    use crate::optimizer;
    use crate::parser::parse;

    /// An indextype that stores nothing and matches nothing: planning
    /// needs only the domain index to exist.
    struct Inert;

    impl OdciIndex for Inert {
        fn create(&self, _: &mut dyn Srv, _: &IndexInfo) -> Result<()> {
            Ok(())
        }
        fn alter(&self, _: &mut dyn Srv, _: &IndexInfo, _: &ParamString) -> Result<()> {
            Ok(())
        }
        fn truncate(&self, _: &mut dyn Srv, _: &IndexInfo) -> Result<()> {
            Ok(())
        }
        fn drop_index(&self, _: &mut dyn Srv, _: &IndexInfo) -> Result<()> {
            Ok(())
        }
        /// Either position, as the spatial indextype it stands in for.
        fn column_positions(&self) -> &'static [usize] {
            &[0, 1]
        }
        fn insert(&self, _: &mut dyn Srv, _: &IndexInfo, _: RowId, _: &Value) -> Result<()> {
            Ok(())
        }
        fn update(
            &self,
            _: &mut dyn Srv,
            _: &IndexInfo,
            _: RowId,
            _: &Value,
            _: &Value,
        ) -> Result<()> {
            Ok(())
        }
        fn delete(&self, _: &mut dyn Srv, _: &IndexInfo, _: RowId, _: &Value) -> Result<()> {
            Ok(())
        }
        fn start(&self, _: &mut dyn Srv, _: &IndexInfo, _: &OperatorCall) -> Result<ScanContext> {
            Ok(ScanContext::State(Box::new(())))
        }
        fn fetch(
            &self,
            _: &mut dyn Srv,
            _: &IndexInfo,
            _: &mut ScanContext,
            _: usize,
        ) -> Result<FetchResult> {
            Ok(FetchResult { rows: Vec::new(), done: true })
        }
        fn close(&self, _: &mut dyn Srv, _: &IndexInfo, _: ScanContext) -> Result<()> {
            Ok(())
        }
    }

    impl OdciStats for Inert {
        fn collect(&self, _: &mut dyn Srv, _: &IndexInfo) -> Result<()> {
            Ok(())
        }
        fn selectivity(&self, _: &mut dyn Srv, _: &IndexInfo, _: &OperatorCall) -> Result<f64> {
            Ok(0.01)
        }
        fn index_cost(
            &self,
            _: &mut dyn Srv,
            _: &IndexInfo,
            _: &OperatorCall,
            _: f64,
        ) -> Result<IndexCost> {
            Ok(IndexCost { io_cost: 0.0, cpu_cost: 0.0 })
        }
    }

    /// The ledger's shapes in miniature: `docs` under a text index, the
    /// `roads × parks` layers under a spatial one, a heap `events` table,
    /// and a text index's posting IOT with enough rows to be probed by key.
    pub(crate) fn fixture() -> Database {
        let mut db = Database::new();
        db.register_odci_implementation("Inert", Arc::new(Inert), Arc::new(Inert));
        fn never(_: &dyn FnContext, _: &[Value]) -> Result<Value> {
            Ok(Value::Integer(0))
        }
        db.register_function(ScalarFunction::new("ContainsFn", never)).unwrap();
        db.register_function(ScalarFunction::new("RelateFn", never)).unwrap();
        for ddl in [
            "CREATE OPERATOR Contains BINDING (VARCHAR2, VARCHAR2) RETURN NUMBER USING ContainsFn",
            "CREATE OPERATOR Sdo_Relate BINDING (VARCHAR2, VARCHAR2, VARCHAR2) RETURN NUMBER \
             USING RelateFn",
            "CREATE INDEXTYPE TextIndexType FOR Contains(VARCHAR2, VARCHAR2) USING Inert",
            "CREATE INDEXTYPE SpatialIndexType FOR Sdo_Relate(VARCHAR2, VARCHAR2, VARCHAR2) \
             USING Inert",
            "CREATE TABLE docs (id INTEGER, body VARCHAR2(400))",
            "CREATE INDEX dt ON docs(body) INDEXTYPE IS TextIndexType",
            "CREATE TABLE roads (gid INTEGER, geometry VARCHAR2(64))",
            "CREATE TABLE parks (gid INTEGER, geometry VARCHAR2(64))",
            "CREATE INDEX parks_sidx ON parks(geometry) INDEXTYPE IS SpatialIndexType",
            "CREATE TABLE events (id INTEGER, val INTEGER, note VARCHAR2(64))",
            "CREATE TABLE DR$DT$I (token VARCHAR2(128), rid ROWID, freq INTEGER, \
             PRIMARY KEY (token, rid)) ORGANIZATION INDEX",
        ] {
            db.execute(ddl).unwrap();
        }
        for i in 0..2000u16 {
            let posting =
                [format!("t{}", i % 50).into(), Value::RowId(RowId::new(1, 0, i)), 1i64.into()];
            db.execute_with("INSERT INTO DR$DT$I VALUES (?, ?, ?)", &posting).unwrap();
        }
        db
    }

    /// Plan `sql` under `binds` as a statement would: a SELECT through the
    /// optimizer, an UPDATE or DELETE through its target scan.
    fn plan(db: &Database, sql: &str, binds: &[Value]) -> PlannedQuery {
        let scratch = RefCell::new(SessionScratch::default());
        let ecx = Exec::new(db, &scratch, db.storage().current_snapshot(), binds);
        match parse(sql).unwrap() {
            Statement::Select(s) => optimizer::plan_select(&ecx, &s).unwrap(),
            Statement::Update { table, where_clause, .. }
            | Statement::Delete { table, where_clause } => {
                let tdef = db.catalog().table(&table).unwrap();
                optimizer::plan_dml_scan(&ecx, tdef, where_clause.as_ref()).unwrap()
            }
            other => panic!("not a query or a DML target scan: {other:?}"),
        }
    }

    /// Each base access of `plan`, in [`PlanNode::access_paths`] order, as
    /// its path and the names of the columns it reads.
    fn read_sets(plan: &PlanNode) -> Vec<(String, Vec<String>)> {
        fn walk(node: &PlanNode, out: &mut Vec<(String, Vec<String>)>) {
            let children: Vec<&PlanNode> = match &node.kind {
                PlanKind::Filter { input, .. }
                | PlanKind::Project { input, .. }
                | PlanKind::Sort { input, .. }
                | PlanKind::Limit { input, .. }
                | PlanKind::Distinct { input }
                | PlanKind::Aggregate { input, .. }
                | PlanKind::DomainScan { outer: Some(input), .. } => vec![input],
                PlanKind::NestedLoopJoin { left, right }
                | PlanKind::HashJoin { left, right, .. } => vec![left, right],
                _ => Vec::new(),
            };
            children.into_iter().for_each(|c| walk(c, out));
            let Some(reads) = node.kind.read_set() else { return };
            // A domain join's own columns follow its outer side's.
            let first = match &node.kind {
                PlanKind::DomainScan { outer: Some(outer), .. } => outer.width(),
                _ => 0,
            };
            let cols = node.scope.columns[first..].iter().enumerate();
            let read = cols.filter(|(i, _)| reads.reads(*i));
            let names = read.map(|(_, c)| c.name.clone()).collect();
            out.push((node.access_paths().pop().unwrap(), names));
        }
        let mut out = Vec::new();
        walk(plan, &mut out);
        out
    }

    fn sets(plan: &PlannedQuery) -> Vec<(String, Vec<String>)> {
        read_sets(&plan.root)
    }

    fn set(path: &str, cols: &[&str]) -> (String, Vec<String>) {
        (path.to_string(), cols.iter().map(|c| c.to_string()).collect())
    }

    #[test]
    fn a_domain_scan_reads_only_the_projected_column() {
        let db = fixture();
        let q = plan(&db, "SELECT id FROM docs WHERE Contains(body, 'oracle')", &[]);
        assert_eq!(sets(&q), [set("DOMAIN(DOCS,DT)", &["ID"])]);
    }

    #[test]
    fn a_counted_filter_reads_only_its_column() {
        let db = fixture();
        let q = plan(&db, "SELECT COUNT(*) FROM events WHERE val < 100", &[]);
        assert_eq!(sets(&q), [set("FULL(EVENTS)", &["VAL"])]);
    }

    #[test]
    fn distinct_reads_every_column_it_is_handed() {
        let db = fixture();
        let q = plan(&db, "SELECT DISTINCT * FROM events", &[]);
        assert_eq!(sets(&q), [set("FULL(EVENTS)", &["ID", "VAL", "NOTE"])]);
        let q = plan(&db, "SELECT DISTINCT note FROM events WHERE id > 3", &[]);
        assert_eq!(sets(&q), [set("FULL(EVENTS)", &["ID", "NOTE"])]);
    }

    #[test]
    fn a_domain_join_reads_its_arguments_outside_and_its_projection_inside() {
        let db = fixture();
        let sql = "SELECT r.gid, p.gid FROM roads r, parks p \
                   WHERE Sdo_Relate(r.geometry, p.geometry, 'mask=OVERLAPS') AND r.gid < 150";
        let q = plan(&db, sql, &[]);
        assert_eq!(
            sets(&q),
            [
                set("FULL(ROADS)", &["GID", "GEOMETRY"]),
                set("DOMAINJOIN(PARKS,PARKS_SIDX)", &["GID"]),
            ]
        );
    }

    #[test]
    fn a_dml_target_scan_reads_the_whole_row() {
        let db = fixture();
        let q = plan(&db, "UPDATE events SET note = 'x' WHERE val = 7", &[]);
        assert_eq!(sets(&q), [set("FULL(EVENTS)", &["ID", "VAL", "NOTE", "ROWID"])]);
    }

    #[test]
    fn a_posting_list_callback_reads_rid_and_freq() {
        let db = fixture();
        let q = plan(&db, "SELECT rid, freq FROM DR$DT$I WHERE token = ?", &["t7".into()]);
        assert_eq!(sets(&q), [set("IOTRANGE(DR$DT$I)", &["RID", "FREQ"])]);
    }

    #[test]
    fn rowid_and_sort_keys_are_read_where_they_are_used() {
        let db = fixture();
        let q = plan(&db, "SELECT id FROM events WHERE ROWID IS NOT NULL ORDER BY note", &[]);
        assert_eq!(sets(&q), [set("FULL(EVENTS)", &["ID", "NOTE", "ROWID"])]);
        let q = plan(&db, "SELECT e.id FROM events e, docs d WHERE e.val = d.id", &[]);
        assert_eq!(sets(&q), [set("FULL(EVENTS)", &["ID", "VAL"]), set("FULL(DOCS)", &["ID"])]);
    }
}
