//! Expression compilation and evaluation.
//!
//! AST expressions are compiled against a [`Scope`] (the ordered output
//! columns of the plan node below) into [`RExpr`]s with slot references,
//! resolved operator/function bindings, and object-type constructors.
//! Evaluation follows SQL three-valued logic; user-defined operators fall
//! back to their *functional implementation* here — exactly what happens
//! when the optimizer does not choose a domain-index scan (§2.2.1).

use extidx_common::{Error, Result, SqlType, Value};
use extidx_core::meta::like_match;
use extidx_core::operator::{FnContext, Operator, ScalarFunction};
use extidx_core::server::LobVisitor;

use crate::ast::{BinOp, Expr, UnOp};
use crate::catalog::Catalog;

/// One column visible to expressions.
#[derive(Debug, Clone)]
pub struct ScopeCol {
    /// Table alias (or table name) the column came from; `None` for
    /// computed columns.
    pub qualifier: Option<String>,
    /// Column (or output alias) name.
    pub name: String,
    /// Declared type when known.
    pub ty: Option<SqlType>,
    /// Hidden columns (the ROWID pseudo-column) resolve by name but are
    /// not expanded by `SELECT *`.
    pub hidden: bool,
}

impl ScopeCol {
    /// A visible column.
    pub fn visible(qualifier: Option<String>, name: impl Into<String>, ty: Option<SqlType>) -> Self {
        ScopeCol { qualifier, name: name.into().to_ascii_uppercase(), ty, hidden: false }
    }

    /// A hidden pseudo-column.
    pub fn hidden(qualifier: Option<String>, name: impl Into<String>, ty: Option<SqlType>) -> Self {
        ScopeCol { qualifier, name: name.into().to_ascii_uppercase(), ty, hidden: true }
    }
}

/// The ordered set of columns a plan node exposes to expressions above it.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    pub columns: Vec<ScopeCol>,
}

impl Scope {
    /// Scope with the given columns.
    pub fn new(columns: Vec<ScopeCol>) -> Self {
        Scope { columns }
    }

    /// Resolve a (possibly qualified) column reference to a slot.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let name = name.to_ascii_uppercase();
        let qualifier = qualifier.map(|q| q.to_ascii_uppercase());
        let matches: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.name == name
                    && match (&qualifier, &c.qualifier) {
                        (Some(q), Some(cq)) => q == cq,
                        (Some(_), None) => false,
                        (None, _) => true,
                    }
            })
            .map(|(i, _)| i)
            .collect();
        match matches.as_slice() {
            [i] => Ok(*i),
            [] => Err(Error::not_found(
                "column",
                match &qualifier {
                    Some(q) => format!("{q}.{name}"),
                    None => name.clone(),
                },
            )),
            _ => Err(Error::Semantic(format!("column reference {name} is ambiguous"))),
        }
    }

    /// Concatenate two scopes (join output).
    pub fn join(&self, other: &Scope) -> Scope {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Scope { columns }
    }
}

/// A row flowing through the executor: scope-aligned values plus any
/// ancillary data attached by domain-index scans (label → value).
#[derive(Debug, Clone, Default)]
pub struct ExecRow {
    pub values: Vec<Value>,
    pub ancillary: Vec<(i64, Value)>,
}

impl ExecRow {
    /// Row from plain values.
    pub fn new(values: Vec<Value>) -> Self {
        ExecRow { values, ancillary: Vec::new() }
    }
}

/// What an expression reads a row through: its slots, and the ancillary
/// data a domain scan attached. An [`ExecRow`] is one; so is a storage row
/// the executor tests in place, before (and instead of) copying it.
pub trait Slots {
    /// The value in slot `i`, if the row has that many.
    fn slot(&self, i: usize) -> Option<&Value>;

    /// Look up ancillary data by label.
    fn ancillary_for(&self, label: i64) -> Option<&Value>;
}

impl Slots for ExecRow {
    fn slot(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    fn ancillary_for(&self, label: i64) -> Option<&Value> {
        self.ancillary.iter().find(|(l, _)| *l == label).map(|(_, v)| v)
    }
}

/// Scalar builtins evaluable without registry involvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    Upper,
    Lower,
    Length,
    Abs,
    Substr,
    Instr,
    Round,
    Floor,
    Ceil,
    Mod,
    Nvl,
    Concat,
}

/// A compiled expression.
#[derive(Clone)]
pub enum RExpr {
    Const(Value),
    /// A `?` placeholder, read from the statement's bind slice
    /// ([`EvalCtx::binds`]) each time it is evaluated.
    Param(usize),
    Slot(usize),
    Attr(Box<RExpr>, String),
    Unary(UnOp, Box<RExpr>),
    Binary(BinOp, Box<RExpr>, Box<RExpr>),
    Between(Box<RExpr>, Box<RExpr>, Box<RExpr>),
    InList(Box<RExpr>, Vec<RExpr>),
    IsNull(Box<RExpr>, bool),
    /// User-defined operator evaluated through its functional binding.
    OperatorCall { op: Operator, args: Vec<RExpr> },
    /// Registered function call.
    FuncCall { func: ScalarFunction, args: Vec<RExpr> },
    /// Built-in scalar.
    BuiltinCall { builtin: Builtin, args: Vec<RExpr> },
    /// Object-type constructor.
    ObjectCtor { type_name: String, args: Vec<RExpr> },
    /// VARRAY constructor.
    VArrayCtor { args: Vec<RExpr> },
    /// Ancillary-operator access (`SCORE(label)`), fed by a domain scan.
    Score { label: i64 },
}

impl std::fmt::Debug for RExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RExpr::Const(v) => write!(f, "Const({v})"),
            RExpr::Param(i) => write!(f, "Param(?{i})"),
            RExpr::Slot(i) => write!(f, "Slot({i})"),
            RExpr::Attr(e, a) => write!(f, "Attr({e:?}, {a})"),
            RExpr::Unary(op, e) => write!(f, "Unary({op:?}, {e:?})"),
            RExpr::Binary(op, a, b) => write!(f, "Binary({op:?}, {a:?}, {b:?})"),
            RExpr::Between(a, b, c) => write!(f, "Between({a:?}, {b:?}, {c:?})"),
            RExpr::InList(a, l) => write!(f, "InList({a:?}, {l:?})"),
            RExpr::IsNull(a, n) => write!(f, "IsNull({a:?}, {n})"),
            RExpr::OperatorCall { op, args } => write!(f, "Op({}, {args:?})", op.name),
            RExpr::FuncCall { func, args } => write!(f, "Fn({}, {args:?})", func.name),
            RExpr::BuiltinCall { builtin, args } => write!(f, "Builtin({builtin:?}, {args:?})"),
            RExpr::ObjectCtor { type_name, args } => write!(f, "New({type_name}, {args:?})"),
            RExpr::VArrayCtor { args } => write!(f, "VArray({args:?})"),
            RExpr::Score { label } => write!(f, "Score({label})"),
        }
    }
}

impl RExpr {
    /// Call `f` with every slot this expression reads.
    pub(crate) fn visit_slots(&self, f: &mut dyn FnMut(usize)) {
        match self {
            RExpr::Slot(i) => f(*i),
            RExpr::Const(_) | RExpr::Param(_) | RExpr::Score { .. } => {}
            RExpr::Attr(e, _) | RExpr::Unary(_, e) | RExpr::IsNull(e, _) => e.visit_slots(f),
            RExpr::Binary(_, a, b) => {
                a.visit_slots(f);
                b.visit_slots(f);
            }
            RExpr::Between(a, b, c) => {
                a.visit_slots(f);
                b.visit_slots(f);
                c.visit_slots(f);
            }
            RExpr::InList(a, list) => {
                a.visit_slots(f);
                list.iter().for_each(|e| e.visit_slots(f));
            }
            RExpr::OperatorCall { args, .. }
            | RExpr::FuncCall { args, .. }
            | RExpr::BuiltinCall { args, .. }
            | RExpr::ObjectCtor { args, .. }
            | RExpr::VArrayCtor { args } => args.iter().for_each(|e| e.visit_slots(f)),
        }
    }
}

/// Aggregate function kinds (recognized during planning, not evaluated
/// here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// Recognize an aggregate call name.
pub fn aggregate_kind(name: &str) -> Option<AggKind> {
    match name.to_ascii_uppercase().as_str() {
        "COUNT" => Some(AggKind::Count),
        "SUM" => Some(AggKind::Sum),
        "AVG" => Some(AggKind::Avg),
        "MIN" => Some(AggKind::Min),
        "MAX" => Some(AggKind::Max),
        _ => None,
    }
}

/// Compile an AST expression against a scope.
pub fn compile_expr(expr: &Expr, scope: &Scope, catalog: &Catalog) -> Result<RExpr> {
    Ok(match expr {
        Expr::Literal(v) => RExpr::Const(v.clone()),
        Expr::Parameter(i) => RExpr::Param(*i),
        Expr::Star => return Err(Error::Semantic("* is only valid in COUNT(*)".into())),
        Expr::Column { qualifier, name } => {
            match scope.resolve(qualifier.as_deref(), name) {
                Ok(slot) => RExpr::Slot(slot),
                Err(e) => {
                    // `a.b` where `a` is an object column, not a qualifier.
                    if let Some(q) = qualifier {
                        if let Ok(slot) = scope.resolve(None, q) {
                            return Ok(RExpr::Attr(Box::new(RExpr::Slot(slot)), name.clone()));
                        }
                    }
                    return Err(e);
                }
            }
        }
        Expr::Attribute(inner, attr) => {
            RExpr::Attr(Box::new(compile_expr(inner, scope, catalog)?), attr.clone())
        }
        Expr::Unary(op, e) => RExpr::Unary(*op, Box::new(compile_expr(e, scope, catalog)?)),
        Expr::Binary(op, a, b) => RExpr::Binary(
            *op,
            Box::new(compile_expr(a, scope, catalog)?),
            Box::new(compile_expr(b, scope, catalog)?),
        ),
        Expr::Between(a, lo, hi) => RExpr::Between(
            Box::new(compile_expr(a, scope, catalog)?),
            Box::new(compile_expr(lo, scope, catalog)?),
            Box::new(compile_expr(hi, scope, catalog)?),
        ),
        Expr::InList(a, list) => RExpr::InList(
            Box::new(compile_expr(a, scope, catalog)?),
            list.iter().map(|e| compile_expr(e, scope, catalog)).collect::<Result<_>>()?,
        ),
        Expr::IsNull(a, negated) => {
            RExpr::IsNull(Box::new(compile_expr(a, scope, catalog)?), *negated)
        }
        Expr::Call { name, args } => compile_call(name, args, scope, catalog)?,
    })
}

fn compile_call(name: &str, args: &[Expr], scope: &Scope, catalog: &Catalog) -> Result<RExpr> {
    let upper = name.to_ascii_uppercase();
    if aggregate_kind(&upper).is_some() {
        return Err(Error::Semantic(format!(
            "aggregate {upper} is not allowed in this context"
        )));
    }
    if upper == "SCORE" {
        let label = match args {
            [Expr::Literal(Value::Integer(l))] => *l,
            [] => 1,
            _ => return Err(Error::Semantic("SCORE takes a single integer label".into())),
        };
        return Ok(RExpr::Score { label });
    }
    let compiled: Vec<RExpr> =
        args.iter().map(|e| compile_expr(e, scope, catalog)).collect::<Result<_>>()?;
    if upper == "VARRAY" {
        return Ok(RExpr::VArrayCtor { args: compiled });
    }
    if catalog.object_type(&upper).is_some() {
        return Ok(RExpr::ObjectCtor { type_name: upper, args: compiled });
    }
    if catalog.registry().has_operator(&upper) {
        let op = catalog.registry().operator(&upper)?.clone();
        return Ok(RExpr::OperatorCall { op, args: compiled });
    }
    if let Ok(func) = catalog.registry().function(&upper) {
        return Ok(RExpr::FuncCall { func: func.clone(), args: compiled });
    }
    let builtin = match upper.as_str() {
        "UPPER" => Builtin::Upper,
        "LOWER" => Builtin::Lower,
        "LENGTH" => Builtin::Length,
        "ABS" => Builtin::Abs,
        "SUBSTR" => Builtin::Substr,
        "INSTR" => Builtin::Instr,
        "ROUND" => Builtin::Round,
        "FLOOR" => Builtin::Floor,
        "CEIL" => Builtin::Ceil,
        "MOD" => Builtin::Mod,
        "NVL" | "COALESCE" => Builtin::Nvl,
        "CONCAT" => Builtin::Concat,
        _ => return Err(Error::not_found("function or operator", upper)),
    };
    Ok(RExpr::BuiltinCall { builtin, args: compiled })
}

/// Evaluate a compiled expression over a row.
///
/// `ctx` supplies LOB access for functional operator implementations and
/// object-type metadata for attribute resolution.
pub fn eval<R: Slots + ?Sized>(expr: &RExpr, row: &R, ctx: &EvalCtx<'_>) -> Result<Value> {
    Ok(match expr {
        RExpr::Const(v) => v.clone(),
        RExpr::Param(i) => match ctx.binds.get(*i) {
            Some(v) => v.clone(),
            None => return Err(missing_bind(*i, ctx.binds.len())),
        },
        RExpr::Slot(i) => row
            .slot(*i)
            .cloned()
            .ok_or_else(|| Error::Semantic(format!("row has no slot {i}")))?,
        RExpr::Attr(inner, attr) => {
            let v = eval(inner, row, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let (type_name, attrs) = v.as_object()?;
            let def = ctx
                .catalog
                .object_type(type_name)
                .ok_or_else(|| Error::not_found("type", type_name.to_string()))?;
            let idx = def.attr_index(attr)?;
            attrs
                .get(idx)
                .cloned()
                .ok_or_else(|| Error::Semantic(format!("object missing attribute {attr}")))?
        }
        RExpr::Unary(UnOp::Neg, e) => {
            let v = eval(e, row, ctx)?;
            match v {
                Value::Null => Value::Null,
                Value::Integer(i) => Value::Integer(-i),
                Value::Number(n) => Value::Number(-n),
                other => return Err(Error::type_mismatch("NUMBER", other.type_name())),
            }
        }
        RExpr::Unary(UnOp::Not, e) => {
            let v = eval(e, row, ctx)?;
            match truthiness(&v) {
                Some(b) => Value::Boolean(!b),
                None => Value::Null,
            }
        }
        RExpr::Binary(op, a, b) => eval_binary(*op, a, b, row, ctx)?,
        RExpr::Between(e, lo, hi) => {
            let v = eval(e, row, ctx)?;
            let lo = eval(lo, row, ctx)?;
            let hi = eval(hi, row, ctx)?;
            let ge = compare(BinOp::Ge, &v, &lo);
            let le = compare(BinOp::Le, &v, &hi);
            and3(ge, le)
        }
        RExpr::InList(e, list) => {
            let v = eval(e, row, ctx)?;
            let mut saw_null = false;
            for item in list {
                let w = eval(item, row, ctx)?;
                match compare(BinOp::Eq, &v, &w) {
                    Some(true) => return Ok(Value::Boolean(true)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Value::Null
            } else {
                Value::Boolean(false)
            }
        }
        RExpr::IsNull(e, negated) => {
            let v = eval(e, row, ctx)?;
            Value::Boolean(v.is_null() != *negated)
        }
        RExpr::OperatorCall { op, args } => {
            let vals: Vec<Value> =
                args.iter().map(|a| eval(a, row, ctx)).collect::<Result<_>>()?;
            // SQL three-valued logic: any NULL operand makes a
            // user-defined operator NULL, uniformly across cartridges and
            // before binding resolution (a NULL arg cannot select a
            // binding by type). Keeps the functional fallback aligned
            // with the index path, which never returns rows for NULL
            // operator arguments.
            if vals.iter().any(|v| v.is_null()) {
                Value::Null
            } else {
                let binding = op.resolve(&vals)?;
                let func = ctx.catalog.registry().function(&binding.function_name)?;
                func.call(ctx, &vals)?
            }
        }
        RExpr::FuncCall { func, args } => {
            let vals: Vec<Value> =
                args.iter().map(|a| eval(a, row, ctx)).collect::<Result<_>>()?;
            func.call(ctx, &vals)?
        }
        RExpr::BuiltinCall { builtin, args } => {
            let vals: Vec<Value> =
                args.iter().map(|a| eval(a, row, ctx)).collect::<Result<_>>()?;
            eval_builtin(*builtin, &vals)?
        }
        RExpr::ObjectCtor { type_name, args } => {
            let vals: Vec<Value> =
                args.iter().map(|a| eval(a, row, ctx)).collect::<Result<_>>()?;
            let def = ctx
                .catalog
                .object_type(type_name)
                .ok_or_else(|| Error::not_found("type", type_name.clone()))?;
            if vals.len() != def.attrs.len() {
                return Err(Error::Semantic(format!(
                    "constructor {type_name} expects {} attributes, got {}",
                    def.attrs.len(),
                    vals.len()
                )));
            }
            Value::Object(type_name.clone(), vals)
        }
        RExpr::VArrayCtor { args } => {
            let vals: Vec<Value> =
                args.iter().map(|a| eval(a, row, ctx)).collect::<Result<_>>()?;
            Value::Array(vals)
        }
        RExpr::Score { label } => row.ancillary_for(*label).cloned().unwrap_or(Value::Number(0.0)),
    })
}

#[cold]
fn missing_bind(index: usize, supplied: usize) -> Error {
    Error::Semantic(format!("bind placeholder {index} has no value ({supplied} supplied)"))
}

fn eval_binary<R: Slots + ?Sized>(
    op: BinOp,
    a: &RExpr,
    b: &RExpr,
    row: &R,
    ctx: &EvalCtx<'_>,
) -> Result<Value> {
    match op {
        BinOp::And => {
            let l = truthiness(&eval(a, row, ctx)?);
            if l == Some(false) {
                return Ok(Value::Boolean(false));
            }
            let r = truthiness(&eval(b, row, ctx)?);
            Ok(match (l, r) {
                (_, Some(false)) => Value::Boolean(false),
                (Some(true), Some(true)) => Value::Boolean(true),
                _ => Value::Null,
            })
        }
        BinOp::Or => {
            let l = truthiness(&eval(a, row, ctx)?);
            if l == Some(true) {
                return Ok(Value::Boolean(true));
            }
            let r = truthiness(&eval(b, row, ctx)?);
            Ok(match (l, r) {
                (_, Some(true)) => Value::Boolean(true),
                (Some(false), Some(false)) => Value::Boolean(false),
                _ => Value::Null,
            })
        }
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let l = eval(a, row, ctx)?;
            let r = eval(b, row, ctx)?;
            Ok(match compare(op, &l, &r) {
                Some(b) => Value::Boolean(b),
                None => Value::Null,
            })
        }
        BinOp::Like => {
            let l = eval(a, row, ctx)?;
            let r = eval(b, row, ctx)?;
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Boolean(like_match(l.as_str()?, r.as_str()?)))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            let l = eval(a, row, ctx)?;
            let r = eval(b, row, ctx)?;
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            arith(op, &l, &r)
        }
    }
}

/// SQL comparison producing three-valued output. Handles the boolean/0-1
/// equivalence the paper's `Contains(...) = 1` footnote requires.
pub fn compare(op: BinOp, l: &Value, r: &Value) -> Option<bool> {
    if l.is_null() || r.is_null() {
        return None;
    }
    // Two INTEGERs order as `i64`s; where both also read as booleans (0
    // and 1) that order gives the boolean answer.
    if let (Value::Integer(a), Value::Integer(b)) = (l, r) {
        return Some(match op {
            BinOp::Eq => a == b,
            BinOp::Ne => a != b,
            BinOp::Lt => a < b,
            BinOp::Le => a <= b,
            BinOp::Gt => a > b,
            BinOp::Ge => a >= b,
            _ => return None,
        });
    }
    if matches!(op, BinOp::Eq | BinOp::Ne) {
        if let (Ok(a), Ok(b)) = (l.as_bool(), r.as_bool()) {
            return Some(if op == BinOp::Eq { a == b } else { a != b });
        }
    }
    let ord = l.sql_cmp(r)?;
    use std::cmp::Ordering::*;
    Some(match op {
        BinOp::Eq => ord == Equal,
        BinOp::Ne => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        _ => return None,
    })
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    // Integer arithmetic stays integral except division.
    if let (Value::Integer(a), Value::Integer(b)) = (l, r) {
        return Ok(match op {
            BinOp::Add => Value::Integer(a.wrapping_add(*b)),
            BinOp::Sub => Value::Integer(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Integer(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    return Err(Error::Eval("division by zero".into()));
                }
                if a % b == 0 {
                    Value::Integer(a / b)
                } else {
                    Value::Number(*a as f64 / *b as f64)
                }
            }
            _ => unreachable!(),
        });
    }
    let a = l.as_number()?;
    let b = r.as_number()?;
    Ok(match op {
        BinOp::Add => Value::Number(a + b),
        BinOp::Sub => Value::Number(a - b),
        BinOp::Mul => Value::Number(a * b),
        BinOp::Div => {
            if b == 0.0 {
                return Err(Error::Eval("division by zero".into()));
            }
            Value::Number(a / b)
        }
        _ => unreachable!(),
    })
}

fn eval_builtin(b: Builtin, args: &[Value]) -> Result<Value> {
    let one = || -> Result<&Value> {
        args.first().ok_or_else(|| Error::Semantic("builtin requires an argument".into()))
    };
    Ok(match b {
        Builtin::Upper => {
            let v = one()?;
            if v.is_null() {
                Value::Null
            } else {
                Value::from(v.as_str()?.to_ascii_uppercase())
            }
        }
        Builtin::Lower => {
            let v = one()?;
            if v.is_null() {
                Value::Null
            } else {
                Value::from(v.as_str()?.to_ascii_lowercase())
            }
        }
        Builtin::Length => {
            let v = one()?;
            if v.is_null() {
                Value::Null
            } else {
                Value::Integer(v.as_str()?.chars().count() as i64)
            }
        }
        Builtin::Abs => {
            let v = one()?;
            match v {
                Value::Null => Value::Null,
                Value::Integer(i) => Value::Integer(i.abs()),
                Value::Number(n) => Value::Number(n.abs()),
                other => return Err(Error::type_mismatch("NUMBER", other.type_name())),
            }
        }
        Builtin::Substr => {
            // SUBSTR(s, start [, len]) — 1-based like Oracle; negative
            // start counts from the end.
            let s = one()?;
            if s.is_null() {
                return Ok(Value::Null);
            }
            let text: Vec<char> = s.as_str()?.chars().collect();
            let start = args
                .get(1)
                .ok_or_else(|| Error::Semantic("SUBSTR needs a start position".into()))?
                .as_integer()?;
            let from = if start > 0 {
                (start - 1) as usize
            } else if start < 0 {
                text.len().saturating_sub((-start) as usize)
            } else {
                0
            };
            let from = from.min(text.len());
            let len = match args.get(2) {
                Some(v) => (v.as_integer()?.max(0)) as usize,
                None => text.len() - from,
            };
            Value::from(text[from..(from + len).min(text.len())].iter().collect::<String>())
        }
        Builtin::Instr => {
            // INSTR(s, needle) — 1-based position, 0 when absent.
            let s = one()?;
            if s.is_null() {
                return Ok(Value::Null);
            }
            let needle = args
                .get(1)
                .ok_or_else(|| Error::Semantic("INSTR needs a search string".into()))?;
            if needle.is_null() {
                return Ok(Value::Null);
            }
            match s.as_str()?.find(needle.as_str()?) {
                // Byte position works because the workloads are ASCII; a
                // production engine would count characters.
                Some(p) => Value::Integer(p as i64 + 1),
                None => Value::Integer(0),
            }
        }
        Builtin::Round => {
            let v = one()?;
            match v {
                Value::Null => Value::Null,
                Value::Integer(i) => Value::Integer(*i),
                Value::Number(n) => {
                    let digits =
                        args.get(1).map(|d| d.as_integer()).transpose()?.unwrap_or(0);
                    let m = 10f64.powi(digits as i32);
                    Value::Number((n * m).round() / m)
                }
                other => return Err(Error::type_mismatch("NUMBER", other.type_name())),
            }
        }
        Builtin::Floor => {
            let v = one()?;
            match v {
                Value::Null => Value::Null,
                Value::Integer(i) => Value::Integer(*i),
                Value::Number(n) => Value::Integer(n.floor() as i64),
                other => return Err(Error::type_mismatch("NUMBER", other.type_name())),
            }
        }
        Builtin::Ceil => {
            let v = one()?;
            match v {
                Value::Null => Value::Null,
                Value::Integer(i) => Value::Integer(*i),
                Value::Number(n) => Value::Integer(n.ceil() as i64),
                other => return Err(Error::type_mismatch("NUMBER", other.type_name())),
            }
        }
        Builtin::Mod => {
            let a = one()?;
            let b = args.get(1).ok_or_else(|| Error::Semantic("MOD needs two arguments".into()))?;
            if a.is_null() || b.is_null() {
                return Ok(Value::Null);
            }
            match (a, b) {
                (Value::Integer(x), Value::Integer(y)) => {
                    if *y == 0 {
                        return Err(Error::Eval("MOD by zero".into()));
                    }
                    Value::Integer(x % y)
                }
                _ => {
                    let (x, y) = (a.as_number()?, b.as_number()?);
                    if y == 0.0 {
                        return Err(Error::Eval("MOD by zero".into()));
                    }
                    Value::Number(x % y)
                }
            }
        }
        Builtin::Nvl => {
            // First non-null argument (COALESCE semantics).
            args.iter().find(|v| !v.is_null()).cloned().unwrap_or(Value::Null)
        }
        Builtin::Concat => {
            let mut out = String::new();
            for v in args {
                if !v.is_null() {
                    out.push_str(&v.to_string());
                }
            }
            Value::from(out)
        }
    })
}

/// SQL truthiness: TRUE/FALSE/unknown, accepting the 0/1 NUMBER idiom.
pub fn truthiness(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        other => other.as_bool().ok(),
    }
}

fn and3(a: Option<bool>, b: Option<bool>) -> Value {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Value::Boolean(false),
        (Some(true), Some(true)) => Value::Boolean(true),
        _ => Value::Null,
    }
}

/// Evaluation context: catalog access for types/registry plus LOB reads
/// for functional operator implementations. Carries the statement's
/// snapshot so LOB-column reads are as version-consistent as row reads,
/// and its binds, which every [`RExpr::Param`] reads.
pub struct EvalCtx<'a> {
    pub catalog: &'a Catalog,
    pub storage: &'a extidx_storage::StorageEngine,
    pub snap: extidx_storage::Snapshot,
    pub binds: &'a [Value],
}

impl FnContext for EvalCtx<'_> {
    fn lob_read_all(&self, lob: extidx_common::LobRef, visit: &mut LobVisitor) -> Result<()> {
        self.storage.lob_read_all(lob, &self.snap, visit)?
    }
}

/// `true` when a filter predicate accepts the row (NULL = reject).
pub fn filter_accepts(v: &Value) -> bool {
    truthiness(v) == Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::ast::Statement;

    fn scope() -> Scope {
        Scope::new(vec![
            ScopeCol::visible(Some("T".into()), "ID", Some(SqlType::Integer)),
            ScopeCol::visible(Some("T".into()), "NAME", Some(SqlType::Varchar(10))),
        ])
    }

    fn where_expr(sql: &str) -> Expr {
        match parse(sql).unwrap() {
            Statement::Select(s) => s.where_clause.unwrap(),
            _ => unreachable!(),
        }
    }

    fn eval_where(sql: &str, values: Vec<Value>) -> Value {
        let catalog = Catalog::new();
        let storage = extidx_storage::StorageEngine::new(4);
        let e = where_expr(sql);
        let compiled = compile_expr(&e, &scope(), &catalog).unwrap();
        let ctx = EvalCtx { catalog: &catalog, storage: &storage, snap: extidx_storage::Snapshot::latest(), binds: &[] };
        eval(&compiled, &ExecRow::new(values), &ctx).unwrap()
    }

    #[test]
    fn slot_resolution_and_comparison() {
        let v = eval_where("SELECT * FROM t WHERE id > 5", vec![Value::Integer(6), Value::Null]);
        assert_eq!(v, Value::Boolean(true));
    }

    #[test]
    fn qualified_resolution() {
        let v = eval_where("SELECT * FROM t WHERE t.id = 5", vec![Value::Integer(5), Value::Null]);
        assert_eq!(v, Value::Boolean(true));
    }

    #[test]
    fn unknown_column_fails_compile() {
        let catalog = Catalog::new();
        let e = where_expr("SELECT * FROM t WHERE missing = 1");
        assert!(compile_expr(&e, &scope(), &catalog).is_err());
    }

    #[test]
    fn three_valued_and_or() {
        // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; NULL AND TRUE = NULL.
        let v = eval_where(
            "SELECT * FROM t WHERE name = 'x' AND id < 0",
            vec![Value::Integer(1), Value::Null],
        );
        assert_eq!(v, Value::Boolean(false));
        let v = eval_where(
            "SELECT * FROM t WHERE name = 'x' OR id > 0",
            vec![Value::Integer(1), Value::Null],
        );
        assert_eq!(v, Value::Boolean(true));
        let v = eval_where(
            "SELECT * FROM t WHERE name = 'x' AND id > 0",
            vec![Value::Integer(1), Value::Null],
        );
        assert_eq!(v, Value::Null);
    }

    #[test]
    fn between_and_in() {
        let v =
            eval_where("SELECT * FROM t WHERE id BETWEEN 1 AND 10", vec![Value::Integer(5), Value::Null]);
        assert_eq!(v, Value::Boolean(true));
        let v = eval_where(
            "SELECT * FROM t WHERE id IN (1, 2, 3)",
            vec![Value::Integer(4), Value::Null],
        );
        assert_eq!(v, Value::Boolean(false));
    }

    #[test]
    fn is_null_forms() {
        let v = eval_where("SELECT * FROM t WHERE name IS NULL", vec![Value::Integer(1), Value::Null]);
        assert_eq!(v, Value::Boolean(true));
        let v = eval_where(
            "SELECT * FROM t WHERE name IS NOT NULL",
            vec![Value::Integer(1), Value::Null],
        );
        assert_eq!(v, Value::Boolean(false));
    }

    #[test]
    fn arithmetic() {
        let v = eval_where("SELECT * FROM t WHERE id + 1 = 3", vec![Value::Integer(2), Value::Null]);
        assert_eq!(v, Value::Boolean(true));
        let v = eval_where("SELECT * FROM t WHERE id / 2 = 2.5", vec![Value::Integer(5), Value::Null]);
        assert_eq!(v, Value::Boolean(true));
    }

    #[test]
    fn division_by_zero_errors() {
        let catalog = Catalog::new();
        let storage = extidx_storage::StorageEngine::new(4);
        let e = where_expr("SELECT * FROM t WHERE id / 0 = 1");
        let c = compile_expr(&e, &scope(), &catalog).unwrap();
        let ctx = EvalCtx { catalog: &catalog, storage: &storage, snap: extidx_storage::Snapshot::latest(), binds: &[] };
        assert!(eval(&c, &ExecRow::new(vec![Value::Integer(1), Value::Null]), &ctx).is_err());
    }

    #[test]
    fn like_predicate() {
        let v = eval_where(
            "SELECT * FROM t WHERE name LIKE 'or%'",
            vec![Value::Integer(1), Value::from("oracle")],
        );
        assert_eq!(v, Value::Boolean(true));
    }

    #[test]
    fn operator_functional_fallback() {
        let mut catalog = Catalog::new();
        catalog
            .registry_mut()
            .create_function(ScalarFunction::new("TEXTCONTAINS", |_, args| {
                let text = args[0].as_str()?;
                let kw = args[1].as_str()?;
                Ok(Value::Boolean(text.contains(kw)))
            }))
            .unwrap();
        catalog
            .registry_mut()
            .create_operator(Operator::with_binding(
                "CONTAINS",
                vec![SqlType::Varchar(4000), SqlType::Varchar(4000)],
                SqlType::Boolean,
                "TEXTCONTAINS",
            ))
            .unwrap();
        let storage = extidx_storage::StorageEngine::new(4);
        let e = where_expr("SELECT * FROM t WHERE Contains(name, 'acl')");
        let c = compile_expr(&e, &scope(), &catalog).unwrap();
        let ctx = EvalCtx { catalog: &catalog, storage: &storage, snap: extidx_storage::Snapshot::latest(), binds: &[] };
        let v = eval(&c, &ExecRow::new(vec![Value::Integer(1), Value::from("oracle")]), &ctx).unwrap();
        assert_eq!(v, Value::Boolean(true));
    }

    #[test]
    fn score_reads_ancillary() {
        let catalog = Catalog::new();
        let storage = extidx_storage::StorageEngine::new(4);
        let c = compile_expr(
            &Expr::Call { name: "SCORE".into(), args: vec![Expr::Literal(Value::Integer(1))] },
            &scope(),
            &catalog,
        )
        .unwrap();
        let mut row = ExecRow::new(vec![Value::Null, Value::Null]);
        row.ancillary.push((1, Value::Number(0.75)));
        let ctx = EvalCtx { catalog: &catalog, storage: &storage, snap: extidx_storage::Snapshot::latest(), binds: &[] };
        assert_eq!(eval(&c, &row, &ctx).unwrap(), Value::Number(0.75));
        // Missing label → 0.
        let empty = ExecRow::new(vec![Value::Null, Value::Null]);
        assert_eq!(eval(&c, &empty, &ctx).unwrap(), Value::Number(0.0));
    }

    #[test]
    fn object_ctor_and_attr() {
        let mut catalog = Catalog::new();
        catalog
            .create_object_type(extidx_common::ObjectTypeDef::new(
                "PT",
                vec![("X".into(), SqlType::Number), ("Y".into(), SqlType::Number)],
            ))
            .unwrap();
        let storage = extidx_storage::StorageEngine::new(4);
        let ctor = compile_expr(
            &Expr::Call {
                name: "PT".into(),
                args: vec![
                    Expr::Literal(Value::Number(1.0)),
                    Expr::Literal(Value::Number(2.0)),
                ],
            },
            &scope(),
            &catalog,
        )
        .unwrap();
        let attr = RExpr::Attr(Box::new(ctor), "Y".into());
        let ctx = EvalCtx { catalog: &catalog, storage: &storage, snap: extidx_storage::Snapshot::latest(), binds: &[] };
        let v = eval(&attr, &ExecRow::new(vec![Value::Null, Value::Null]), &ctx).unwrap();
        assert_eq!(v, Value::Number(2.0));
    }

    #[test]
    fn builtins() {
        let catalog = Catalog::new();
        let storage = extidx_storage::StorageEngine::new(4);
        let ctx = EvalCtx { catalog: &catalog, storage: &storage, snap: extidx_storage::Snapshot::latest(), binds: &[] };
        let c = compile_expr(
            &Expr::Call {
                name: "UPPER".into(),
                args: vec![Expr::Literal(Value::from("abc"))],
            },
            &scope(),
            &catalog,
        )
        .unwrap();
        assert_eq!(eval(&c, &ExecRow::default(), &ctx).unwrap(), Value::from("ABC"));
    }

    #[test]
    fn compare_boolean_number_idiom() {
        assert_eq!(compare(BinOp::Eq, &Value::Boolean(true), &Value::Integer(1)), Some(true));
        assert_eq!(compare(BinOp::Eq, &Value::Boolean(false), &Value::Integer(1)), Some(false));
    }

    /// Two INTEGERs compare as the same values do with one of them a
    /// NUMBER, boolean idiom included; past 2^53 only the `i64`s tell apart.
    #[test]
    fn compare_integers_as_numbers() {
        let ints = [-2i64, -1, 0, 1, 2, 100];
        for op in [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge] {
            for (a, b) in ints.iter().flat_map(|a| ints.iter().map(move |b| (*a, *b))) {
                let as_number = compare(op, &Value::Number(a as f64), &Value::Integer(b));
                assert_eq!(compare(op, &Value::Integer(a), &Value::Integer(b)), as_number);
            }
        }
        let (big, next) = (Value::Integer(1 << 60), Value::Integer((1 << 60) + 1));
        assert_eq!(compare(BinOp::Lt, &big, &next), Some(true));
        assert_eq!(compare(BinOp::Ne, &big, &next), Some(true));
        assert_eq!(compare(BinOp::Like, &big, &next), None);
    }

    #[test]
    fn ambiguous_column_rejected() {
        let s = Scope::new(vec![
            ScopeCol::visible(Some("A".into()), "ID", None),
            ScopeCol::visible(Some("B".into()), "ID", None),
        ]);
        assert!(s.resolve(None, "id").is_err());
        assert!(s.resolve(Some("a"), "id").is_ok());
    }
}
