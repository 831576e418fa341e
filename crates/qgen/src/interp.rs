//! The brute-force mirror interpreter.
//!
//! A [`Mirror`] is a `BTreeMap` copy of each fuzz table, maintained from
//! the *structured* statements (never by parsing SQL). Queries are
//! answered by evaluating the predicate tree over every row with SQL
//! three-valued logic, calling only the cartridges' pure domain
//! functions — the tokenizer, geometry algebra, signature distance, and
//! subgraph matcher. None of the engine layers under test (parser,
//! optimizer, executor, ODCI scan machinery, storage) are involved, so
//! agreement is meaningful evidence.

use std::collections::BTreeMap;

use extidx_common::Value;
use extidx_spatial::geometry_sql;

use crate::gen::{other_table, Atom, Col, GenCell, GenRow, Item, Pred, Query, Stmt, HEAP, IOT};
use crate::spec::{Answer, OpAtom};

/// In-memory copies of both fuzz tables, keyed by the unique `id`.
#[derive(Debug, Default, Clone)]
pub struct Mirror {
    pub heap: BTreeMap<i64, GenRow>,
    pub iot: BTreeMap<i64, GenRow>,
}

impl Mirror {
    pub fn table(&self, t: &str) -> &BTreeMap<i64, GenRow> {
        match t {
            HEAP => &self.heap,
            IOT => &self.iot,
            other => panic!("unknown fuzz table {other}"),
        }
    }

    pub fn table_mut(&mut self, t: &str) -> &mut BTreeMap<i64, GenRow> {
        match t {
            HEAP => &mut self.heap,
            IOT => &mut self.iot,
            other => panic!("unknown fuzz table {other}"),
        }
    }

    /// Apply a statement the engine accepted; queries and index DDL change
    /// no row.
    pub fn apply(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Truncate { table } => self.table_mut(table).clear(),
            Stmt::Insert { table, row } => drop(self.table_mut(table).insert(row.id, row.clone())),
            Stmt::Update { table, pred, cell } => {
                let rows = self.table_mut(table).values_mut().filter(|row| pred.matches(row.id));
                rows.for_each(|row| apply_cell(row, cell));
            }
            Stmt::Delete { table, pred } => self.table_mut(table).retain(|id, _| !pred.matches(*id)),
            Stmt::Sql(_) | Stmt::Query(_) => {}
        }
    }
}

/// Apply an UPDATE cell to one row.
pub fn apply_cell(row: &mut GenRow, cell: &GenCell) {
    match cell {
        GenCell::Doc(v) => row.doc = v.clone(),
        GenCell::Geom(v) => row.geom = v.clone(),
        GenCell::Img(v) => row.img = v.clone(),
        GenCell::Mol(v) => row.mol = v.clone(),
        GenCell::Num(v) => row.num = *v,
    }
}

/// `a op b` for the generator's comparison operators ([`crate::gen::CMP_OPS`]).
fn cmp_holds<T: PartialOrd>(op: &str, a: &T, b: &T) -> bool {
    match op {
        "<" => a < b,
        "<=" => a <= b,
        ">" => a > b,
        ">=" => a >= b,
        "=" => a == b,
        other => panic!("unknown comparison operator {other}"),
    }
}

/// Evaluate one atom under three-valued logic: `None` is SQL's UNKNOWN,
/// `Err` the operator's refusal of its arguments. Any NULL operand —
/// stored or literal — makes an operator atom UNKNOWN, matching both the
/// engine's functional short-circuit and the domain-index path (which
/// never returns rows for NULL arguments).
pub fn eval_atom(a: &Atom, row: &GenRow) -> Answer {
    Ok(match a {
        Atom::Op(op) => return op.holds(row),
        Atom::NumCmp { op, value } => row.num.map(|n| cmp_holds(op, &n, value)),
        Atom::KeyCmp { col, op, value } => col.of(row.id).map(|k| cmp_holds(op, &k, value)),
        Atom::KeyBetween { col, lo, hi } => col.of(row.id).map(|k| (*lo..=*hi).contains(&k)),
        Atom::IsNull { col: Col::Num, negated } => Some(row.num.is_none() != *negated),
        Atom::IsNull { col, negated } => Some(row.arg(*col).is_null() != *negated),
    })
}

/// Kleene AND/OR over the predicate tree.
pub fn eval_pred(p: &Pred, row: &GenRow) -> Answer {
    let (cs, and) = match p {
        Pred::Atom(a) => return eval_atom(a, row),
        Pred::And(cs) => (cs, true),
        Pred::Or(cs) => (cs, false),
    };
    // AND stops at a FALSE, OR at a TRUE; otherwise UNKNOWN wins.
    let mut unknown = false;
    for c in cs {
        match eval_pred(c, row)? {
            Some(v) if v != and => return Ok(Some(v)),
            None => unknown = true,
            Some(_) => {}
        }
    }
    Ok((!unknown).then_some(and))
}

/// The rows of the query's table its WHERE clause accepts (TRUE; UNKNOWN
/// rejects), in id order — before LIMIT — or the refusal the first row
/// that reaches a refused operator meets.
pub fn accepted<'m>(q: &Query, mirror: &'m Mirror) -> Result<Vec<&'m GenRow>, String> {
    let mut out = Vec::new();
    for row in mirror.table(q.table).values() {
        if eval_pred(&q.pred, row)? == Some(true) {
            out.push(row);
        }
    }
    Ok(out)
}

/// The join form's expected `(o.id, i.id)` pairs ([`Query::join_sql`]),
/// sorted, as the engine's rows display.
pub fn join_rows(q: &Query, atom: &OpAtom, mirror: &Mirror) -> Result<Vec<Vec<String>>, String> {
    let mut rows = Vec::new();
    for o in mirror.table(other_table(q.table)).values() {
        for i in mirror.table(q.table).values() {
            if atom.holds_joined(o, i)? == Some(true) {
                rows.push(vec![o.id.to_string(), i.id.to_string()]);
            }
        }
    }
    rows.sort();
    Ok(rows)
}

/// Whether the mirror models an item's values. A geometry, an image or a
/// ROWID it only tells apart from NULL and from one another; their values
/// are compared between the engine's plans instead.
fn modelled(item: Item) -> bool {
    !matches!(item, Item::Cell(Col::Geom | Col::Img) | Item::RowId)
}

/// One answer cell as the oracles compare it with the mirror: the value's
/// display form if the mirror models the item, else `NULL` or `*`.
fn shown(item: Item, v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        v if modelled(item) => v.to_string(),
        _ => "*".into(),
    }
}

/// A mirror row's value of `item` as `(shown, identity)`: what
/// [`shown`] makes of the engine's cell, and what tells the row's value
/// apart from others' for DISTINCT.
fn mirror_cell(item: Item, row: &GenRow) -> (String, String) {
    let v = match item {
        Item::Key(c) => c.of(row.id).map_or(Value::Null, Value::Integer),
        Item::Cell(Col::Doc) => row.doc.clone().map_or(Value::Null, Value::from),
        Item::Cell(Col::Mol) => row.mol.clone().map_or(Value::Null, Value::from),
        Item::Cell(Col::Num) => row.num.map_or(Value::Null, Value::Number),
        Item::Cell(Col::Geom) => row.geom.as_ref().map_or(Value::Null, |g| geometry_sql(g).into()),
        Item::Cell(Col::Img) => row.img.clone().map_or(Value::Null, Value::from),
        // Rowids are unique, like ids.
        Item::RowId => Value::Integer(row.id),
    };
    (shown(item, &v), v.to_string())
}

/// The query's expected answer as [`answer_rows`] renders the engine's:
/// ascending by id and truncated by LIMIT under `ORDER BY id LIMIT n`,
/// else deduplicated under DISTINCT and sorted.
pub fn query_rows(q: &Query, mirror: &Mirror) -> Result<Vec<Vec<String>>, String> {
    let cells = accepted(q, mirror)?.into_iter().map(|row| -> (Vec<String>, Vec<String>) {
        q.items.iter().map(|&i| mirror_cell(i, row)).unzip()
    });
    let mut rows: Vec<Vec<String>> = match q.order_limit {
        Some(n) => return Ok(cells.take(n as usize).map(|(shown, _)| shown).collect()),
        None if q.distinct => {
            let mut seen = BTreeMap::new();
            for (shown, identity) in cells {
                seen.entry(identity).or_insert(shown);
            }
            seen.into_values().collect()
        }
        None => cells.map(|(shown, _)| shown).collect(),
    };
    rows.sort();
    Ok(rows)
}

/// An engine answer to `q` in the two forms the oracles compare: as
/// [`query_rows`] renders the mirror's, and every cell's display form, for
/// comparing the engine's plans with one another. Ordered under `ORDER BY
/// id LIMIT n`, sorted otherwise. A SCORE column is dropped: only an index
/// scan produces one.
pub fn answer_rows(q: &Query, rows: &[Vec<Value>]) -> Result<[Vec<Vec<String>>; 2], String> {
    let width = q.items.len() + usize::from(q.select_score.is_some());
    let mut forms = [Vec::with_capacity(rows.len()), Vec::with_capacity(rows.len())];
    for r in rows {
        if r.len() != width {
            return Err(format!("expected {width} columns, got {r:?}"));
        }
        let cells = q.items.iter().zip(r);
        forms[0].push(cells.clone().map(|(&i, v)| shown(i, v)).collect());
        forms[1].push(cells.map(|(_, v)| v.to_string()).collect());
    }
    if q.order_limit.is_none() {
        forms.iter_mut().for_each(|f| f.sort());
    }
    Ok(forms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Arg, SPECS};

    fn row(id: i64, doc: Option<&str>, num: Option<f64>) -> GenRow {
        GenRow { id, doc: doc.map(String::from), geom: None, img: None, mol: None, num }
    }

    fn contains(query: Option<&str>) -> Atom {
        let args = vec![Arg::Str(query.map(String::from))];
        Atom::Op(OpAtom::new(&SPECS[0], args))
    }

    #[test]
    fn null_operands_are_unknown_not_false_positive() {
        let r = row(1, None, None);
        assert_eq!(eval_atom(&contains(Some("alpha")), &r), Ok(None), "NULL doc is UNKNOWN");
        let r2 = row(2, Some("alpha beta"), None);
        assert_eq!(eval_atom(&contains(None), &r2), Ok(None), "NULL literal is UNKNOWN");
        let isnull = Atom::IsNull { col: Col::Doc, negated: false };
        assert_eq!(eval_atom(&isnull, &r), Ok(Some(true)), "IS NULL is two-valued");
    }

    #[test]
    fn kleene_or_rescues_unknown_and_rejects_it() {
        let r = row(1, None, Some(5.0));
        let unknown = Pred::Atom(contains(Some("x")));
        let yes = Pred::Atom(Atom::NumCmp { op: ">", value: 1.0 });
        let no = Pred::Atom(Atom::NumCmp { op: "<", value: 1.0 });
        assert_eq!(eval_pred(&Pred::Or(vec![unknown.clone(), yes]), &r), Ok(Some(true)));
        assert_eq!(eval_pred(&Pred::Or(vec![unknown.clone(), no.clone()]), &r), Ok(None));
        assert_eq!(eval_pred(&Pred::And(vec![unknown, no]), &r), Ok(Some(false)));
    }
}
