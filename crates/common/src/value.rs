//! Runtime SQL values.
//!
//! [`Value`] is the single value representation flowing through the
//! executor, the framework interfaces, and cartridge code: ODCI routines
//! receive old/new column values as `Value`s (paper §2.2.3: maintenance
//! routines "are passed in the new and/or old value for the indexed
//! column"), and operator bindings evaluate over `Value` argument lists.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{Error, Result};
use crate::rowid::RowId;
use crate::types::SqlType;

/// A table row: one value per column, in column-declaration order.
pub type Row = Vec<Value>;

/// Approximate on-page size of a value in bytes.
///
/// The storage layer does not serialize rows to bytes; instead it models
/// page occupancy with this estimate so that page counts (and therefore
/// buffer-cache I/O statistics) scale realistically with data volume.
pub fn approx_value_size(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Integer(_) => 8,
        Value::Number(_) => 8,
        Value::Varchar(s) => 4 + s.len(),
        Value::Boolean(_) => 1,
        Value::Lob(_) => 16,
        Value::RowId(_) => 10,
        Value::Object(name, attrs) => {
            4 + name.len() + attrs.iter().map(approx_value_size).sum::<usize>()
        }
        Value::Array(elems) => 4 + elems.iter().map(approx_value_size).sum::<usize>(),
    }
}

/// Approximate on-page size of a whole row (values plus a slot header).
pub fn approx_row_size(row: &[Value]) -> usize {
    4 + row.iter().map(approx_value_size).sum::<usize>()
}

/// Reference ("locator") to a large object stored out-of-line.
///
/// The LOB bytes live in the storage layer's LOB segment; a `LobRef` is a
/// small copyable handle, mirroring Oracle LOB locators. Cartridges that
/// store their index in LOBs (the Daylight chemistry case study, §3.2.4)
/// read and write through the server-callback LOB interface using these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LobRef(pub u64);

impl fmt::Display for LobRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LOB#{}", self.0)
    }
}

/// A runtime SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL. Compares as unknown; sorts last.
    Null,
    /// `INTEGER` value.
    Integer(i64),
    /// `NUMBER` value.
    Number(f64),
    /// `VARCHAR2` value.
    Varchar(String),
    /// `BOOLEAN` value.
    Boolean(bool),
    /// LOB locator.
    Lob(LobRef),
    /// Physical row address.
    RowId(RowId),
    /// Instance of an object type: the type name plus attribute values in
    /// declaration order.
    Object(String, Vec<Value>),
    /// VARRAY instance.
    Array(Vec<Value>),
}

impl Value {
    /// The runtime type of this value, or `None` for NULL (whose type is
    /// context-dependent). Object values report their type by name with no
    /// attribute list (enough for error messages and dispatch).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Integer(_) => "INTEGER",
            Value::Number(_) => "NUMBER",
            Value::Varchar(_) => "VARCHAR2",
            Value::Boolean(_) => "BOOLEAN",
            Value::Lob(_) => "LOB",
            Value::RowId(_) => "ROWID",
            Value::Object(..) => "OBJECT",
            Value::Array(_) => "VARRAY",
        }
    }

    /// `true` when the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this value can be stored in a column of type `ty`
    /// (NULL stores anywhere).
    pub fn conforms_to(&self, ty: &SqlType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Integer(_), SqlType::Integer | SqlType::Number) => true,
            (Value::Number(_), SqlType::Number) => true,
            (Value::Varchar(_), SqlType::Varchar(_) | SqlType::Lob) => true,
            (Value::Boolean(_), SqlType::Boolean) => true,
            (Value::Lob(_), SqlType::Lob) => true,
            (Value::RowId(_), SqlType::RowId) => true,
            (Value::Object(name, _), SqlType::Object(def)) => *name == def.name,
            (Value::Array(_), SqlType::VArray(_)) => true,
            _ => false,
        }
    }

    /// Extract an `i64`, widening/narrowing from NUMBER when lossless.
    pub fn as_integer(&self) -> Result<i64> {
        match self {
            Value::Integer(i) => Ok(*i),
            Value::Number(n) if n.fract() == 0.0 && n.abs() < 9e15 => Ok(*n as i64),
            other => Err(Error::type_mismatch("INTEGER", other.type_name())),
        }
    }

    /// Extract an `f64` from INTEGER or NUMBER.
    pub fn as_number(&self) -> Result<f64> {
        match self {
            Value::Integer(i) => Ok(*i as f64),
            Value::Number(n) => Ok(*n),
            other => Err(Error::type_mismatch("NUMBER", other.type_name())),
        }
    }

    /// Extract a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Varchar(s) => Ok(s),
            other => Err(Error::type_mismatch("VARCHAR2", other.type_name())),
        }
    }

    /// Extract a boolean. Accepts the Oracle8i idiom of NUMBER 0/1 since
    /// the paper's own example is `Contains(...) = 1`.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Boolean(b) => Ok(*b),
            Value::Integer(0) => Ok(false),
            Value::Integer(1) => Ok(true),
            Value::Number(n) if *n == 0.0 => Ok(false),
            Value::Number(n) if *n == 1.0 => Ok(true),
            other => Err(Error::type_mismatch("BOOLEAN", other.type_name())),
        }
    }

    /// Extract a rowid.
    pub fn as_rowid(&self) -> Result<RowId> {
        match self {
            Value::RowId(r) => Ok(*r),
            other => Err(Error::type_mismatch("ROWID", other.type_name())),
        }
    }

    /// Extract a LOB locator.
    pub fn as_lob(&self) -> Result<LobRef> {
        match self {
            Value::Lob(l) => Ok(*l),
            other => Err(Error::type_mismatch("LOB", other.type_name())),
        }
    }

    /// Extract the attribute list of an object value.
    pub fn as_object(&self) -> Result<(&str, &[Value])> {
        match self {
            Value::Object(name, attrs) => Ok((name, attrs)),
            other => Err(Error::type_mismatch("OBJECT", other.type_name())),
        }
    }

    /// Extract the elements of a VARRAY value.
    pub fn as_array(&self) -> Result<&[Value]> {
        match self {
            Value::Array(elems) => Ok(elems),
            other => Err(Error::type_mismatch("VARRAY", other.type_name())),
        }
    }

    /// Three-valued SQL comparison. Returns `None` when either side is
    /// NULL (unknown) or the values are not mutually comparable.
    /// Integer/Number compare numerically across the two variants.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Integer(a), Integer(b)) => Some(a.cmp(b)),
            (Number(a), Number(b)) => a.partial_cmp(b),
            (Integer(a), Number(b)) => (*a as f64).partial_cmp(b),
            (Number(a), Integer(b)) => a.partial_cmp(&(*b as f64)),
            (Varchar(a), Varchar(b)) => Some(a.cmp(b)),
            (Boolean(a), Boolean(b)) => Some(a.cmp(b)),
            (RowId(a), RowId(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering used for sorting (ORDER BY, B-tree keys) and for
    /// telling values apart (DISTINCT, GROUP BY): NULLs sort last (Oracle
    /// default); objects and VARRAYs order by their parts and LOBs by
    /// locator, so only equal values compare equal; other incomparable
    /// pairs order by type name so the sort is still total.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        // The pairs an index key compares on every step of a B-tree
        // descent, first: what `sql_cmp` answers for them, without its
        // NULL checks and `Option`.
        match (self, other) {
            (Value::Varchar(a), Value::Varchar(b)) => return a.cmp(b),
            (Value::RowId(a), Value::RowId(b)) => return a.cmp(b),
            (Value::Integer(a), Value::Integer(b)) => return a.cmp(b),
            _ => {}
        }
        match (self.is_null(), other.is_null()) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Greater,
            (false, true) => return Ordering::Less,
            _ => {}
        }
        let parts = |a: &[Value], b: &[Value]| {
            let unequal = a.iter().zip(b).map(|(x, y)| x.total_cmp(y)).find(|o| o.is_ne());
            unequal.unwrap_or_else(|| a.len().cmp(&b.len()))
        };
        self.sql_cmp(other).unwrap_or_else(|| match (self, other) {
            (Value::Object(a, xs), Value::Object(b, ys)) => a.cmp(b).then_with(|| parts(xs, ys)),
            (Value::Array(xs), Value::Array(ys)) => parts(xs, ys),
            (Value::Lob(a), Value::Lob(b)) => a.cmp(b),
            _ => self.type_name().cmp(other.type_name()),
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Integer(i) => write!(f, "{i}"),
            Value::Number(n) => write!(f, "{n}"),
            Value::Varchar(s) => write!(f, "{s}"),
            Value::Boolean(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Lob(l) => write!(f, "{l}"),
            Value::RowId(r) => write!(f, "{r}"),
            Value::Object(name, attrs) => {
                write!(f, "{name}(")?;
                for (i, a) in attrs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Value::Array(elems) => {
                write!(f, "VARRAY(")?;
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Number(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Varchar(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Varchar(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}
impl From<RowId> for Value {
    fn from(v: RowId) -> Self {
        Value::RowId(v)
    }
}
impl From<LobRef> for Value {
    fn from(v: LobRef) -> Self {
        Value::Lob(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Integer(1)), None);
        assert_eq!(Value::Integer(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(
            Value::Integer(2).sql_cmp(&Value::Number(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Number(1.5).sql_cmp(&Value::Integer(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn total_cmp_nulls_last() {
        let mut vals = vec![Value::Null, Value::Integer(2), Value::Integer(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals, vec![Value::Integer(1), Value::Integer(2), Value::Null]);
    }

    #[test]
    fn total_cmp_tells_objects_apart_by_their_parts() {
        let geom = |x: i64| {
            let coords = Value::Array(vec![Value::Integer(x), Value::Integer(1)]);
            Value::Object("SDO_GEOMETRY".into(), vec![Value::Integer(2), coords])
        };
        assert_eq!(geom(1).total_cmp(&geom(1)), std::cmp::Ordering::Equal);
        assert_eq!(geom(1).total_cmp(&geom(3)), std::cmp::Ordering::Less);
        let other = Value::Object("PT".into(), vec![]);
        assert_eq!(geom(3).total_cmp(&other), std::cmp::Ordering::Greater, "by type name first");
        let lob = |id| Value::Lob(LobRef(id));
        assert_eq!(lob(2).total_cmp(&lob(1)), std::cmp::Ordering::Greater);
    }

    #[test]
    fn as_bool_accepts_numeric_idiom() {
        assert!(Value::Integer(1).as_bool().unwrap());
        assert!(!Value::Number(0.0).as_bool().unwrap());
        assert!(Value::Integer(7).as_bool().is_err());
    }

    #[test]
    fn as_integer_from_number_lossless_only() {
        assert_eq!(Value::Number(42.0).as_integer().unwrap(), 42);
        assert!(Value::Number(42.5).as_integer().is_err());
    }

    #[test]
    fn conforms_to_object_by_name() {
        use crate::types::ObjectTypeDef;
        let def = ObjectTypeDef::new("pt", vec![("x".into(), SqlType::Number)]);
        let v = Value::Object("PT".into(), vec![Value::Number(1.0)]);
        assert!(v.conforms_to(&SqlType::Object(def.clone())));
        let w = Value::Object("OTHER".into(), vec![]);
        assert!(!w.conforms_to(&SqlType::Object(def)));
    }

    #[test]
    fn display_object_and_array() {
        let v = Value::Object("PT".into(), vec![Value::Number(1.0), Value::Null]);
        assert_eq!(v.to_string(), "PT(1, NULL)");
        let a = Value::Array(vec![Value::from("Skiing"), Value::from("Chess")]);
        assert_eq!(a.to_string(), "VARRAY(Skiing, Chess)");
    }

    #[test]
    fn string_total_order() {
        let mut v = [Value::from("b"), Value::from("a")];
        v.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(v[0], Value::from("a"));
    }
}
