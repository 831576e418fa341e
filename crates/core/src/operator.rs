//! User-defined operators and their functional implementations.
//!
//! The paper (§1): "User-defined operators, identified by names (e.g.
//! `Contains`), are similar to built-in operators, except that their
//! implementation is provided by the user. After a user has defined a new
//! operator, it can be used in SQL statements like any other built-in
//! operator."
//!
//! An [`Operator`] is a schema object carrying one or more
//! [`OperatorBinding`]s (§2.2.2: "An operator binding identifies the
//! operator with a unique signature (via argument data types), and allows
//! associating a function that provides an implementation"). The bound
//! [`ScalarFunction`] is the *functional implementation* — the fallback
//! the engine evaluates row-by-row whenever the optimizer does not pick a
//! domain-index scan (§2.2.1).

use std::sync::Arc;

use extidx_common::{Error, LobRef, Result, SqlType, Value};

use crate::server::LobVisitor;

/// The minimal server surface a functional implementation may touch while
/// evaluating one row: LOB dereferencing. (Functional implementations are
/// row-local by design; anything bigger belongs in an index scan.)
pub trait FnContext {
    /// Read a whole LOB: `visit` is called once with its bytes, lent for
    /// the call, as [`crate::ServerContext::lob_read_all`] lends them.
    fn lob_read_all(&self, lob: LobRef, visit: &mut LobVisitor) -> Result<()>;
}

/// A no-op context for functions that never touch LOBs (tests, pure
/// value-level functions).
pub struct NoLobContext;

impl FnContext for NoLobContext {
    fn lob_read_all(&self, lob: LobRef, _: &mut LobVisitor) -> Result<()> {
        Err(Error::Storage(format!("{lob}: no LOB access in this context")))
    }
}

/// The Rust shape of a functional implementation.
pub type ScalarFnImpl = Arc<dyn Fn(&dyn FnContext, &[Value]) -> Result<Value> + Send + Sync>;

/// A named, registered function (the `CREATE FUNCTION` of §2.2.1 — here
/// the body is Rust rather than PL/SQL, which the paper's
/// language-independence point explicitly allows).
#[derive(Clone)]
pub struct ScalarFunction {
    /// Function name, upper-cased.
    pub name: String,
    /// The callable body.
    pub body: ScalarFnImpl,
}

impl ScalarFunction {
    /// Define a function.
    pub fn new(
        name: impl Into<String>,
        body: impl Fn(&dyn FnContext, &[Value]) -> Result<Value> + Send + Sync + 'static,
    ) -> Self {
        ScalarFunction { name: name.into().to_ascii_uppercase(), body: Arc::new(body) }
    }

    /// Invoke the function.
    pub fn call(&self, ctx: &dyn FnContext, args: &[Value]) -> Result<Value> {
        (self.body)(ctx, args)
    }
}

impl std::fmt::Debug for ScalarFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ScalarFunction({})", self.name)
    }
}

/// One binding of an operator: a signature plus the implementing function.
#[derive(Debug, Clone)]
pub struct OperatorBinding {
    /// Declared argument types.
    pub arg_types: Vec<SqlType>,
    /// Declared return type.
    pub return_type: SqlType,
    /// Name of the registered [`ScalarFunction`] implementing this
    /// binding.
    pub function_name: String,
}

impl OperatorBinding {
    /// Whether a concrete argument list is accepted by this binding.
    /// NULLs match any parameter type, mirroring SQL.
    pub fn matches(&self, args: &[Value]) -> bool {
        args.len() == self.arg_types.len()
            && args.iter().zip(&self.arg_types).all(|(v, t)| v.conforms_to(t))
    }
}

/// A user-defined operator schema object.
#[derive(Debug, Clone)]
pub struct Operator {
    /// Operator name, upper-cased (e.g. `CONTAINS`).
    pub name: String,
    /// Bindings in declaration order; resolution picks the first match.
    pub bindings: Vec<OperatorBinding>,
}

impl Operator {
    /// Create an operator with a single binding.
    pub fn with_binding(
        name: impl Into<String>,
        arg_types: Vec<SqlType>,
        return_type: SqlType,
        function_name: impl Into<String>,
    ) -> Self {
        Operator {
            name: name.into().to_ascii_uppercase(),
            bindings: vec![OperatorBinding {
                arg_types,
                return_type,
                function_name: function_name.into().to_ascii_uppercase(),
            }],
        }
    }

    /// Add another binding (operators may have several, §2.2.2).
    pub fn add_binding(
        &mut self,
        arg_types: Vec<SqlType>,
        return_type: SqlType,
        function_name: impl Into<String>,
    ) {
        self.bindings.push(OperatorBinding {
            arg_types,
            return_type,
            function_name: function_name.into().to_ascii_uppercase(),
        });
    }

    /// Resolve the binding for a concrete argument list.
    pub fn resolve(&self, args: &[Value]) -> Result<&OperatorBinding> {
        self.bindings.iter().find(|b| b.matches(args)).ok_or_else(|| {
            Error::Semantic(format!(
                "no binding of operator {} matches argument types ({})",
                self.name,
                args.iter().map(|v| v.type_name()).collect::<Vec<_>>().join(", ")
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contains_op() -> Operator {
        Operator::with_binding(
            "Contains",
            vec![SqlType::Varchar(4000), SqlType::Varchar(4000)],
            SqlType::Boolean,
            "TextContains",
        )
    }

    #[test]
    fn names_are_uppercased() {
        let op = contains_op();
        assert_eq!(op.name, "CONTAINS");
        assert_eq!(op.bindings[0].function_name, "TEXTCONTAINS");
    }

    #[test]
    fn binding_resolution_by_types() {
        let op = contains_op();
        let args = vec![Value::from("resume text"), Value::from("Oracle")];
        assert!(op.resolve(&args).is_ok());
        let bad = vec![Value::Integer(1), Value::from("Oracle")];
        assert!(op.resolve(&bad).is_err());
        let wrong_arity = vec![Value::from("x")];
        assert!(op.resolve(&wrong_arity).is_err());
    }

    #[test]
    fn null_matches_any_parameter() {
        let op = contains_op();
        let args = vec![Value::Null, Value::from("Oracle")];
        assert!(op.resolve(&args).is_ok());
    }

    #[test]
    fn multiple_bindings_first_match_wins() {
        let mut op = contains_op();
        op.add_binding(
            vec![SqlType::VArray(Box::new(SqlType::Varchar(64))), SqlType::Varchar(64)],
            SqlType::Boolean,
            "VArrayContains",
        );
        let arr = Value::Array(vec![Value::from("Skiing")]);
        let b = op.resolve(&[arr, Value::from("Skiing")]).unwrap();
        assert_eq!(b.function_name, "VARRAYCONTAINS");
    }

    #[test]
    fn scalar_function_calls_through() {
        let f = ScalarFunction::new("upper", |_ctx, args| {
            Ok(Value::from(args[0].as_str()?.to_ascii_uppercase()))
        });
        let out = f.call(&NoLobContext, &[Value::from("abc")]).unwrap();
        assert_eq!(out, Value::from("ABC"));
    }

    #[test]
    fn no_lob_context_rejects() {
        assert!(NoLobContext.lob_read_all(LobRef(1), &mut |_| Ok(())).is_err());
    }
}
