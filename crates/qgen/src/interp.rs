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

use extidx_chem::{Fingerprint, Molecule};
use extidx_spatial::Mask;
use extidx_text::{query::parse_query, tokenizer};
use extidx_vir::{Signature, Weights};

use crate::gen::{Atom, Col, GenCell, GenRow, Pred, Query, HEAP, IOT};

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

fn mol(s: &str) -> Molecule {
    Molecule::parse(s).expect("generated molecule parses")
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

/// Evaluate one atom under three-valued logic: `None` is SQL's UNKNOWN.
/// Any NULL operand — stored or literal — makes an operator atom
/// UNKNOWN, matching both the engine's functional short-circuit and the
/// domain-index path (which never returns rows for NULL arguments).
pub fn eval_atom(a: &Atom, row: &GenRow) -> Option<bool> {
    match a {
        Atom::Contains { query, .. } => {
            let q = query.as_deref()?;
            let doc = row.doc.as_deref()?;
            let parsed = parse_query(q).expect("generated text query parses");
            let tokens = tokenizer::tokenize(doc, &tokenizer::StopWords::none());
            Some(parsed.matches(&tokens))
        }
        Atom::SdoRelate { window, mask } => {
            let w = window.as_ref()?;
            let g = row.geom.as_ref()?;
            let m = Mask::parse(mask).expect("generated mask parses");
            Some(g.relate(w, m))
        }
        Atom::VirSimilar { sig, weights, threshold } => {
            let q = Signature::deserialize(sig.as_deref()?).expect("query signature parses");
            let s = Signature::deserialize(row.img.as_deref()?).expect("stored signature parses");
            let w = Weights::parse(weights).expect("generated weights parse");
            Some(s.distance(&q, &w) <= *threshold)
        }
        Atom::MolContains { frag } => {
            let f = mol(frag.as_deref()?);
            let m = mol(row.mol.as_deref()?);
            Some(m.contains_subgraph(&f))
        }
        Atom::MolSimilar { query, threshold } => {
            let a = Fingerprint::of(&mol(row.mol.as_deref()?));
            let b = Fingerprint::of(&mol(query));
            Some(a.tanimoto(&b) >= *threshold)
        }
        Atom::NumCmp { op, value } => Some(cmp_holds(op, &row.num?, value)),
        Atom::KeyCmp { col, op, value } => Some(cmp_holds(op, &col.of(row.id)?, value)),
        Atom::KeyBetween { col, lo, hi } => Some((*lo..=*hi).contains(&col.of(row.id)?)),
        Atom::IsNull { col, negated } => {
            let is_null = match col {
                Col::Doc => row.doc.is_none(),
                Col::Geom => row.geom.is_none(),
                Col::Img => row.img.is_none(),
                Col::Mol => row.mol.is_none(),
                Col::Num => row.num.is_none(),
            };
            Some(is_null != *negated)
        }
    }
}

/// Kleene AND/OR over the predicate tree.
pub fn eval_pred(p: &Pred, row: &GenRow) -> Option<bool> {
    match p {
        Pred::Atom(a) => eval_atom(a, row),
        Pred::And(cs) => {
            let mut unknown = false;
            for c in cs {
                match eval_pred(c, row) {
                    Some(false) => return Some(false),
                    None => unknown = true,
                    Some(true) => {}
                }
            }
            if unknown {
                None
            } else {
                Some(true)
            }
        }
        Pred::Or(cs) => {
            let mut unknown = false;
            for c in cs {
                match eval_pred(c, row) {
                    Some(true) => return Some(true),
                    None => unknown = true,
                    Some(false) => {}
                }
            }
            if unknown {
                None
            } else {
                Some(false)
            }
        }
    }
}

/// All ids the query's WHERE clause accepts, ascending — before LIMIT.
/// A WHERE clause accepts a row only when it evaluates to TRUE (UNKNOWN
/// rejects).
pub fn accepted_ids(q: &Query, mirror: &Mirror) -> Vec<i64> {
    mirror
        .table(q.table)
        .values()
        .filter(|row| eval_pred(&q.pred, row) == Some(true))
        .map(|row| row.id)
        .collect()
}

/// The query's expected id list: ascending, truncated by LIMIT.
pub fn query_ids(q: &Query, mirror: &Mirror) -> Vec<i64> {
    let mut ids = accepted_ids(q, mirror);
    if let Some(n) = q.order_limit {
        ids.truncate(n as usize);
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Atom;

    fn row(id: i64, doc: Option<&str>, num: Option<f64>) -> GenRow {
        GenRow { id, doc: doc.map(String::from), geom: None, img: None, mol: None, num }
    }

    #[test]
    fn null_operands_are_unknown_not_false_positive() {
        let r = row(1, None, None);
        let contains = Atom::Contains { query: Some("alpha".into()), label: None };
        assert_eq!(eval_atom(&contains, &r), None, "NULL doc is UNKNOWN");
        let null_query = Atom::Contains { query: None, label: None };
        let r2 = row(2, Some("alpha beta"), None);
        assert_eq!(eval_atom(&null_query, &r2), None, "NULL literal is UNKNOWN");
        let isnull = Atom::IsNull { col: Col::Doc, negated: false };
        assert_eq!(eval_atom(&isnull, &r), Some(true), "IS NULL is two-valued");
    }

    #[test]
    fn kleene_or_rescues_unknown_and_rejects_it() {
        let r = row(1, None, Some(5.0));
        let unknown = Pred::Atom(Atom::Contains { query: Some("x".into()), label: None });
        let yes = Pred::Atom(Atom::NumCmp { op: ">", value: 1.0 });
        let no = Pred::Atom(Atom::NumCmp { op: "<", value: 1.0 });
        assert_eq!(eval_pred(&Pred::Or(vec![unknown.clone(), yes]), &r), Some(true));
        assert_eq!(eval_pred(&Pred::Or(vec![unknown.clone(), no.clone()]), &r), None);
        assert_eq!(eval_pred(&Pred::And(vec![unknown, no]), &r), Some(false));
    }
}
