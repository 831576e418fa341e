//! Abstract syntax for the engine's SQL dialect.
//!
//! The dialect covers everything the paper's examples use: the
//! extensibility DDL (`CREATE OPERATOR`, `CREATE INDEXTYPE`, `CREATE INDEX
//! … INDEXTYPE IS … PARAMETERS`), ordinary DDL/DML, and queries with
//! joins, grouping, ordering, and user-defined operator predicates.

use extidx_common::Value;

/// Binary operators in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    And,
    Or,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Like,
    Add,
    Sub,
    Mul,
    Div,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Not,
    Neg,
}

/// A SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference: optional qualifier (table or alias) plus name.
    /// `name` may be the ROWID pseudo-column.
    Column { qualifier: Option<String>, name: String },
    /// Attribute access on an object-typed expression (`t.img.signature`).
    Attribute(Box<Expr>, String),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `a BETWEEN lo AND hi`.
    Between(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `a IN (v1, v2, …)`.
    InList(Box<Expr>, Vec<Expr>),
    /// `a IS NULL` / `a IS NOT NULL` (`negated` for NOT).
    IsNull(Box<Expr>, bool),
    /// Function, user-defined operator, aggregate, or object-type
    /// constructor call — disambiguated during planning.
    Call { name: String, args: Vec<Expr> },
    /// `*` inside `COUNT(*)`.
    Star,
    /// `?` bind placeholder (position assigned left-to-right). It stays a
    /// placeholder through planning and is read from the statement's bind
    /// slice when it runs, so one parsed text serves every bind set.
    Parameter(usize),
}

/// An item in a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// Expression with optional output alias.
    Expr { expr: Expr, alias: Option<String> },
}

/// A table in the FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

/// ORDER BY element.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

/// An optimizer hint from a `/*+ … */` block after SELECT. Hints are
/// *hard* overrides of the cost-based access-path decision (unlike
/// Oracle's advisory hints): the differential test harness uses them to
/// pin which of the semantically equivalent paths actually runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Hint {
    /// `INDEX(t idx)` — force access through the named (domain or B-tree)
    /// index. The index name is validated against the catalog; naming a
    /// dropped or never-created index is an error.
    Index { table: String, index: String },
    /// `NO_INDEX` / `NO_INDEX(t)` — forbid *domain* index access paths, so
    /// user-defined operators fall back to functional evaluation. B-tree
    /// and IOT key access for ordinary predicates stay available.
    NoIndex { table: Option<String> },
    /// `FULL` / `FULL(t)` — force a full table scan; every predicate is
    /// evaluated as a filter.
    Full { table: Option<String> },
}

impl Hint {
    /// Render the hint as it would appear inside `/*+ … */`.
    pub fn display(&self) -> String {
        match self {
            Hint::Index { table, index } => format!("INDEX({table} {index})"),
            Hint::NoIndex { table: Some(t) } => format!("NO_INDEX({t})"),
            Hint::NoIndex { table: None } => "NO_INDEX".into(),
            Hint::Full { table: Some(t) } => format!("FULL({t})"),
            Hint::Full { table: None } => "FULL".into(),
        }
    }
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Plan-forcing hints (`SELECT /*+ INDEX(t idx) */ …`).
    pub hints: Vec<Hint>,
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
}

/// Column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    pub name: String,
    /// Type name as written; resolved against built-ins and object types
    /// in the catalog.
    pub type_name: TypeSpec,
}

/// A type as written in DDL.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeSpec {
    Integer,
    Number,
    Varchar(u32),
    Boolean,
    Lob,
    RowId,
    /// `VARRAY OF <elem>`
    VArray(Box<TypeSpec>),
    /// A named object type (resolved via the catalog).
    Named(String),
}

impl TypeSpec {
    /// Render for error messages.
    pub fn describe(&self) -> String {
        match self {
            TypeSpec::Integer => "INTEGER".into(),
            TypeSpec::Number => "NUMBER".into(),
            TypeSpec::Varchar(n) => format!("VARCHAR2({n})"),
            TypeSpec::Boolean => "BOOLEAN".into(),
            TypeSpec::Lob => "LOB".into(),
            TypeSpec::RowId => "ROWID".into(),
            TypeSpec::VArray(e) => format!("VARRAY OF {}", e.describe()),
            TypeSpec::Named(n) => n.clone(),
        }
    }
}

/// One operator binding in CREATE OPERATOR.
#[derive(Debug, Clone, PartialEq)]
pub struct BindingSpec {
    pub arg_types: Vec<TypeSpec>,
    pub return_type: TypeSpec,
    pub function_name: String,
}

/// One supported operator in CREATE INDEXTYPE.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexTypeOpSpec {
    pub name: String,
    pub arg_types: Vec<TypeSpec>,
}

/// What an ALTER INDEX statement does.
#[derive(Debug, Clone, PartialEq)]
pub enum AlterIndexAction {
    /// `ALTER INDEX … PARAMETERS ('…')` — merge a parameter delta.
    Parameters(String),
    /// `ALTER INDEX … REBUILD` — recover a quarantined or build-failed
    /// domain index by re-creating it from the base table.
    Rebuild,
}

/// Any statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    // ---- queries ----
    Select(Select),
    Explain(Box<Statement>),
    /// `EXPLAIN ANALYZE <select>` — execute the plan with every node
    /// instrumented, render the tree annotated with actual row counts,
    /// buffer gets, and wall time.
    ExplainAnalyze(Box<Statement>),

    // ---- DML ----
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        source: InsertSource,
    },
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        where_clause: Option<Expr>,
    },
    Delete {
        table: String,
        where_clause: Option<Expr>,
    },

    // ---- transactions ----
    Begin,
    Commit,
    Rollback,
    /// Run an incremental MVCC vacuum pass keyed to the oldest active
    /// snapshot (an explicit trigger for what commit/rollback already do).
    Vacuum,

    // ---- DDL ----
    CreateTable {
        name: String,
        columns: Vec<ColumnSpec>,
        /// PRIMARY KEY column names, if declared.
        primary_key: Vec<String>,
        /// `ORGANIZATION INDEX` — store as an IOT on the primary key.
        organization_index: bool,
    },
    DropTable {
        name: String,
    },
    TruncateTable {
        name: String,
    },
    CreateType {
        name: String,
        attrs: Vec<ColumnSpec>,
    },
    CreateIndex {
        name: String,
        table: String,
        column: String,
        /// `INDEXTYPE IS <name>` for domain indexes; `None` → B-tree.
        indextype: Option<String>,
        /// `PARAMETERS ('…')`.
        parameters: Option<String>,
    },
    AlterIndex {
        name: String,
        action: AlterIndexAction,
    },
    DropIndex {
        name: String,
    },
    CreateOperator {
        name: String,
        bindings: Vec<BindingSpec>,
    },
    CreateIndexType {
        name: String,
        operators: Vec<IndexTypeOpSpec>,
        /// `USING <implementation>` — resolved against the registered
        /// ODCI implementations.
        using: String,
    },
    DropOperator {
        name: String,
    },
    DropIndexType {
        name: String,
    },
    /// `ANALYZE TABLE <t>` — compute optimizer statistics (and invoke
    /// ODCIStatsCollect on the table's domain indexes).
    AnalyzeTable {
        name: String,
    },

    // ---- session parameters ----
    /// `SET <name> = <value>` — a session-scoped knob
    /// (`STATEMENT_TIMEOUT`, `STATEMENT_POLL_LIMIT`, `CONFLICT_RETRIES`,
    /// …). Handled by [`crate::Session`]; the bare `Database` lane has no
    /// session to scope them to and rejects the statement.
    Set {
        name: String,
        value: i64,
    },
    /// `SHOW <name>` — read a session parameter back as a one-row result.
    Show {
        name: String,
    },
}

/// Rows for INSERT: literal VALUES or a sub-select.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Query(Box<Select>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::expr::{compile_expr, eval, EvalCtx, ExecRow, Scope};

    /// A `?` stays a placeholder in the AST and is read from the bind
    /// slice when the compiled expression is evaluated.
    fn eval_param(index: usize, binds: &[Value]) -> extidx_common::Result<Value> {
        let (catalog, storage) = (Catalog::new(), extidx_storage::StorageEngine::new(4));
        let compiled = compile_expr(&Expr::Parameter(index), &Scope::default(), &catalog)?;
        let snap = extidx_storage::Snapshot::latest();
        let ctx = EvalCtx { catalog: &catalog, storage: &storage, snap, binds };
        eval(&compiled, &ExecRow::default(), &ctx)
    }

    #[test]
    fn bind_substitution() {
        assert_eq!(eval_param(0, &[Value::Integer(42)]).unwrap(), Value::Integer(42));
        assert_eq!(eval_param(1, &[Value::Null, Value::from("x")]).unwrap(), Value::from("x"));
    }

    #[test]
    fn missing_bind_errors() {
        let err = eval_param(3, &[Value::Null]).unwrap_err();
        assert!(matches!(err, extidx_common::Error::Semantic(_)), "{err}");
    }

    #[test]
    fn typespec_describe() {
        assert_eq!(
            TypeSpec::VArray(Box::new(TypeSpec::Varchar(8))).describe(),
            "VARRAY OF VARCHAR2(8)"
        );
    }
}
