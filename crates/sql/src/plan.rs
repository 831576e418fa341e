//! Physical query plans.
//!
//! A [`PlanNode`] tree is what the optimizer hands the executor. Access
//! paths mirror §2.4.2's choices: full table scan with functional operator
//! evaluation, B-tree index access, index-organized-table key access, and
//! the domain-index scan that drives the cartridge's
//! ODCIIndexStart/Fetch/Close routines.

use extidx_common::{Key, Value};
use extidx_core::meta::{OperatorCall, PredicateBound};

use crate::expr::{AggKind, RExpr, Scope};

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

/// A zone-map pruning bound a full scan applies before reading a page:
/// the residual conjunct restated as `col ∈ [lo, hi]` over the table's
/// physical column index (`None` = unbounded on that side).
#[derive(Debug, Clone)]
pub struct ZoneBound {
    pub col: usize,
    pub col_name: String,
    pub lo: Option<Value>,
    pub hi: Option<Value>,
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

/// The physical operator.
#[derive(Debug)]
pub enum PlanKind {
    /// Sequential scan of a heap table; exposes columns plus ROWID.
    /// `forced` names the hint that mandated this path, if any.
    /// `prune` lists zone-map bounds the scan checks per page so it can
    /// skip pages whose min/max provably exclude every bound.
    FullScan { table: String, forced: Option<String>, prune: Vec<ZoneBound> },
    /// Full scan of an index-organized table (key order).
    IotFullScan { table: String, forced: Option<String> },
    /// Key range access on an index-organized table's primary key.
    IotRange { table: String, lo: Option<Key>, hi: Option<Key> },
    /// B-tree index range access: scan index entries, fetch base rows.
    BTreeAccess {
        table: String,
        index: String,
        lo: Option<Key>,
        hi: Option<Key>,
        forced: Option<String>,
    },
    /// Direct fetch of one row by ROWID (`WHERE t.ROWID = <literal>`).
    RowIdEq { table: String, rid: extidx_common::RowId },
    /// Constant result rows computed at plan time (e.g. the COUNT(*)
    /// fast path answered from table metadata).
    ConstRows { rows: Vec<Vec<extidx_common::Value>> },
    /// Domain-index scan: drives ODCIIndexStart/Fetch/Close on the
    /// indextype, fetches base rows by the returned rowids.
    DomainScan {
        table: String,
        index: String,
        indextype: String,
        call: OperatorCall,
        /// Ancillary label bridging to `SCORE(label)` (§2.4.2 ancillary
        /// operators).
        label: Option<i64>,
        forced: Option<String>,
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
    Project { input: Box<PlanNode>, exprs: Vec<RExpr> },
    /// Nested-loop (cross) join; any residual predicate is a `Filter`
    /// above it.
    NestedLoopJoin { left: Box<PlanNode>, right: Box<PlanNode> },
    /// Domain join: for each outer (left) row, evaluate `arg_exprs`
    /// against it and drive a domain-index scan of `right_table` with the
    /// resulting argument values — how a user-defined operator acting as
    /// a *join* condition (`Sdo_Relate(r.geometry, p.geometry, …)`) is
    /// evaluated through the index.
    DomainJoin {
        left: Box<PlanNode>,
        right_table: String,
        index: String,
        indextype: String,
        operator: String,
        /// Non-indexed operator arguments, compiled against the left
        /// scope, evaluated per outer row.
        arg_exprs: Vec<RExpr>,
        bound: PredicateBound,
        label: Option<i64>,
    },
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
            PlanKind::FullScan { table, forced, prune } => {
                let prune_suffix = if prune.is_empty() {
                    String::new()
                } else {
                    let cols: Vec<&str> =
                        prune.iter().map(|b| b.col_name.as_str()).collect();
                    format!("  zone-prune[{}]", cols.join(", "))
                };
                format!("{pad}FULL SCAN {table}{prune_suffix}{}", forced_suffix(forced))
            }
            PlanKind::IotFullScan { table, forced } => {
                format!("{pad}IOT FULL SCAN {table}{}", forced_suffix(forced))
            }
            PlanKind::IotRange { table, lo, hi } => {
                format!("{pad}IOT RANGE {table} lo={lo:?} hi={hi:?}")
            }
            PlanKind::BTreeAccess { table, index, lo, hi, forced } => {
                format!(
                    "{pad}BTREE ACCESS {table} VIA {index} lo={lo:?} hi={hi:?}{}",
                    forced_suffix(forced)
                )
            }
            PlanKind::RowIdEq { table, rid } => format!("{pad}ROWID FETCH {table} {rid}"),
            PlanKind::ConstRows { rows } => format!("{pad}CONSTANT ({} rows)", rows.len()),
            PlanKind::DomainScan { table, index, indextype, call, forced, .. } => format!(
                "{pad}DOMAIN INDEX SCAN {table} VIA {index} ({indextype}) OP {}({} args){}",
                call.operator,
                call.args.len(),
                forced_suffix(forced)
            ),
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
            PlanKind::DomainJoin { right_table, index, indextype, operator, .. } => format!(
                "{pad}DOMAIN JOIN {right_table} VIA {index} ({indextype}) OP {operator}"
            ),
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
            | PlanKind::Aggregate { input, .. } => input.explain_into(depth + 1, out),
            PlanKind::NestedLoopJoin { left, right, .. }
            | PlanKind::HashJoin { left, right, .. } => {
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            PlanKind::DomainJoin { left, .. } => left.explain_into(depth + 1, out),
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
            PlanKind::ConstRows { .. } => out.push("CONST".to_string()),
            PlanKind::DomainScan { table, index, .. } => {
                out.push(format!("DOMAIN({table},{index})"))
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
            PlanKind::DomainJoin { left, right_table, index, .. } => {
                left.collect_paths(out);
                out.push(format!("DOMAINJOIN({right_table},{index})"));
            }
        }
    }
}

/// A fully planned query: the root node plus output column names.
#[derive(Debug)]
pub struct PlannedQuery {
    pub root: PlanNode,
    pub column_names: Vec<String>,
}
