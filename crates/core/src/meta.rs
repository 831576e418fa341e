//! Metadata passed to ODCI routines.
//!
//! The paper (§2.2.3): "The domain index metadata information such as the
//! index name, table name, and names of the indexed columns and their data
//! types, are passed in as arguments to all the ODCIIndex routines."
//! [`IndexInfo`] is that argument. [`OperatorCall`] describes the operator
//! predicate a scan must evaluate, including the `op(...) relop value`
//! bound the optimizer matched (§2.4.2).

use extidx_common::{SqlType, Value};

use crate::params::ParamString;

/// Metadata describing one domain index instance; handed to every
/// ODCIIndex routine.
#[derive(Debug, Clone)]
pub struct IndexInfo {
    /// The domain index's name (upper-cased schema identifier).
    pub index_name: String,
    /// The indextype implementing it.
    pub indextype_name: String,
    /// The base table the index is on.
    pub table_name: String,
    /// The indexed column's name.
    pub column_name: String,
    /// The indexed column's declared type.
    pub column_type: SqlType,
    /// Current effective parameters (CREATE merged with any ALTERs).
    pub parameters: ParamString,
}

impl IndexInfo {
    /// Conventional name for a cartridge's index-data table, following the
    /// Oracle Text `DR$<index>$<suffix>` pattern. Cartridges use this so
    /// their storage tables are discoverable and per-index unique.
    pub fn storage_table_name(&self, suffix: &str) -> String {
        format!("DR${}${}", self.index_name, suffix.to_ascii_uppercase())
    }
}

/// Comparison operator in a predicate bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelOp {
    Lt,
    Le,
    Eq,
    Ge,
    Gt,
    /// SQL `LIKE` (paper §2.4.2 lists `op(...) LIKE <value>` as indexable).
    Like,
}

impl RelOp {
    /// Evaluate `left relop right` over SQL values; `None` when unknown
    /// (NULL involved or incomparable).
    pub fn eval(self, left: &Value, right: &Value) -> Option<bool> {
        use std::cmp::Ordering::*;
        if let RelOp::Like = self {
            // LIKE with % wildcards over strings.
            let (l, r) = (left.as_str().ok()?, right.as_str().ok()?);
            return Some(like_match(l, r));
        }
        let ord = left.sql_cmp(right)?;
        Some(match self {
            RelOp::Lt => ord == Less,
            RelOp::Le => ord != Greater,
            RelOp::Eq => ord == Equal,
            RelOp::Ge => ord != Less,
            RelOp::Gt => ord == Greater,
            RelOp::Like => unreachable!(),
        })
    }
}

impl std::fmt::Display for RelOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RelOp::Lt => "<",
            RelOp::Le => "<=",
            RelOp::Eq => "=",
            RelOp::Ge => ">=",
            RelOp::Gt => ">",
            RelOp::Like => "LIKE",
        };
        write!(f, "{s}")
    }
}

/// SQL `LIKE` pattern match (`%` any run, `_` any single char).
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => (0..=t.len()).any(|i| rec(&t[i..], rest)),
            Some(('_', rest)) => !t.is_empty() && rec(&t[1..], rest),
            Some((c, rest)) => t.first() == Some(c) && rec(&t[1..], rest),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

/// The `op(...) relop value` bound under which an operator appears in a
/// WHERE clause (§2.4.2). `Contains(resume,'x')` alone is sugar for
/// `Contains(resume,'x') = TRUE`/`= 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateBound {
    pub relop: RelOp,
    pub value: Value,
}

impl PredicateBound {
    /// The common truth bound: `op(...) = TRUE`.
    pub fn is_true() -> Self {
        PredicateBound { relop: RelOp::Eq, value: Value::Boolean(true) }
    }

    /// Does an operator return value satisfy this bound?
    pub fn accepts(&self, op_result: &Value) -> bool {
        // Normalize boolean/number idioms on either side so `= 1` accepts
        // Boolean(true) and `= TRUE` accepts Integer(1) (see paper fn 1:
        // "Oracle8i SQL syntax requires specifying Contains(…) = 1").
        if self.relop == RelOp::Eq {
            if let (Ok(a), Ok(b)) = (op_result.as_bool(), self.value.as_bool()) {
                return a == b;
            }
        }
        self.relop.eval(op_result, &self.value).unwrap_or(false)
    }
}

/// An operator invocation a domain-index scan must evaluate.
///
/// For `Contains(resume, 'Oracle AND UNIX')` on an index over
/// `EMPLOYEES.RESUME`, the scan sees the operator name, the non-column
/// arguments (`['Oracle AND UNIX']`), where the indexed column stood
/// among the operator's arguments (`0`), and the predicate bound.
#[derive(Debug, Clone)]
pub struct OperatorCall {
    /// Operator name (upper-cased).
    pub operator: String,
    /// Arguments other than the indexed column, in call order. Empty in
    /// the call [`crate::OdciIndex::start_batch`] receives, whose argument
    /// rows travel beside it.
    pub args: Vec<Value>,
    /// Position of the indexed column among the operator's arguments
    /// (`1` for `Sdo_Relate(:window, geometry, …)`): always one the
    /// indextype declares ([`crate::OdciIndex::column_positions`]). An
    /// asymmetric operator answers in that order.
    pub column_pos: usize,
    /// The bound the returned value must satisfy.
    pub bound: PredicateBound,
    /// Whether the query also wants ancillary data (e.g. `Score(1)` in
    /// the select list), so scans can attach it to fetched rows.
    pub wants_ancillary: bool,
}

impl OperatorCall {
    /// Convenience constructor for the usual truth-bound call.
    pub fn simple(operator: impl Into<String>, args: Vec<Value>) -> Self {
        OperatorCall {
            operator: operator.into().to_ascii_uppercase(),
            args,
            column_pos: 0,
            bound: PredicateBound::is_true(),
            wants_ancillary: false,
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_table_name_convention() {
        let info = IndexInfo {
            index_name: "RESUMETEXTINDEX".into(),
            indextype_name: "TEXTINDEXTYPE".into(),
            table_name: "EMPLOYEES".into(),
            column_name: "RESUME".into(),
            column_type: SqlType::Varchar(1024),
            parameters: ParamString::empty(),
        };
        assert_eq!(info.storage_table_name("i"), "DR$RESUMETEXTINDEX$I");
    }

    #[test]
    fn relop_eval() {
        assert_eq!(RelOp::Lt.eval(&Value::Integer(1), &Value::Integer(2)), Some(true));
        assert_eq!(RelOp::Ge.eval(&Value::Number(2.0), &Value::Integer(2)), Some(true));
        assert_eq!(RelOp::Eq.eval(&Value::Null, &Value::Integer(2)), None);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%o"));
        assert!(like_match("hello", "_ello"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "h_o"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b")); // literal chars still match themselves
    }

    #[test]
    fn relop_like_via_eval() {
        assert_eq!(
            RelOp::Like.eval(&Value::from("oracle8i"), &Value::from("oracle%")),
            Some(true)
        );
        assert_eq!(RelOp::Like.eval(&Value::Integer(1), &Value::from("%")), None);
    }

    #[test]
    fn truth_bound_accepts_both_idioms() {
        let b = PredicateBound::is_true();
        assert!(b.accepts(&Value::Boolean(true)));
        assert!(b.accepts(&Value::Integer(1)));
        assert!(!b.accepts(&Value::Integer(0)));
        assert!(!b.accepts(&Value::Boolean(false)));
        let one = PredicateBound { relop: RelOp::Eq, value: Value::Integer(1) };
        assert!(one.accepts(&Value::Boolean(true)));
    }

    #[test]
    fn range_bound_on_distance_operator() {
        // VIRSimilar(...) <= 10 — a distance threshold bound.
        let b = PredicateBound { relop: RelOp::Le, value: Value::Number(10.0) };
        assert!(b.accepts(&Value::Number(3.5)));
        assert!(!b.accepts(&Value::Number(11.0)));
    }

    #[test]
    fn operator_call_simple_uppercases() {
        let c = OperatorCall::simple("Contains", vec![Value::from("Oracle")]);
        assert_eq!(c.operator, "CONTAINS");
        assert!(!c.wants_ancillary);
    }
}
