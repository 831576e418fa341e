//! Total-ordered composite keys.
//!
//! B-tree indexes and index-organized tables need their key values to form
//! a total order, but [`Value`] only offers a partial SQL
//! comparison (`NULL` is unknown, `NUMBER` is a float). [`Key`] wraps a
//! tuple of values and imposes the engine's sort order
//! ([`Value::total_cmp`]): NULLs last, numerics unified, strings binary.

use std::cmp::Ordering;
use std::fmt;

use crate::value::Value;

/// A composite key: an ordered tuple of values with a total order.
#[derive(Debug, Clone, PartialEq)]
pub struct Key(pub Vec<Value>);

impl Key {
    /// Single-column key.
    pub fn single(v: Value) -> Self {
        Key(vec![v])
    }

    /// Borrow the component values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            match a.total_cmp(b) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Key {
    fn from(v: Vec<Value>) -> Self {
        Key(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_ordering_is_lexicographic() {
        let a = Key(vec![Value::from("alpha"), Value::Integer(2)]);
        let b = Key(vec![Value::from("alpha"), Value::Integer(3)]);
        let c = Key(vec![Value::from("beta"), Value::Integer(0)]);
        assert!(a < b && b < c);
    }

    #[test]
    fn prefix_sorts_before_longer() {
        let a = Key(vec![Value::Integer(1)]);
        let b = Key(vec![Value::Integer(1), Value::Integer(0)]);
        assert!(a < b);
    }

    #[test]
    fn nulls_sort_last() {
        let a = Key::single(Value::Integer(99));
        let b = Key::single(Value::Null);
        assert!(a < b);
    }

    #[test]
    fn equal_keys() {
        let a = Key(vec![Value::Number(2.0)]);
        let b = Key(vec![Value::Integer(2)]);
        assert_eq!(a.cmp(&b), Ordering::Equal);
    }
}
