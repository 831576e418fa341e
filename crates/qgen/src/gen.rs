//! Seeded generation of schemas, rows, and statement streams.
//!
//! Everything here is *structured*: a statement is a value that renders
//! to SQL but also carries enough typed payload for the mirror
//! interpreter to evaluate it independently of the engine. Generation is
//! a pure function of the seed — the same seed always yields the same
//! statement list, which is what makes replay and shrinking sound.

use extidx_chem::MoleculeWorkload;
use extidx_spatial::{geometry_sql, Geometry, SpatialWorkload};
use extidx_text::CorpusGenerator;
use extidx_vir::SignatureWorkload;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::interp::apply_cell;
use crate::spec::{column_spec, Arg, OpAtom, SPECS};

/// The heap-organized fuzz table.
pub const HEAP: &str = "F_HEAP";
/// The index-organized fuzz table (primary key `(grp, id)`).
pub const IOT: &str = "F_IOT";

/// The fuzz table that is not `table`.
pub fn other_table(table: &str) -> &'static str {
    if table == HEAP {
        IOT
    } else {
        HEAP
    }
}

/// Distinct non-NULL `grp` values.
const GROUPS: i64 = 4;

/// A row's `grp` — the leading key column of [`IOT`] — as a function of its
/// id, so neither [`GenRow`] nor [`IdPred`] has to carry it. Every 11th id
/// gets a NULL `grp`: key columns may hold NULL here, and NULL sorts last
/// in a key range, which is exactly where a one-sided bound goes wrong.
pub fn grp_of(id: i64) -> Option<i64> {
    (id % 11 != 0).then_some(id % GROUPS)
}

/// Probability that a generated cell is NULL — the workload is
/// deliberately NULL-heavy so three-valued logic divergences surface.
pub(crate) const NULL_P: f64 = 0.18;

/// One generated row. `id` values are unique across the whole workload
/// (a monotone counter), so result sets are identified by their id bags.
#[derive(Debug, Clone)]
pub struct GenRow {
    pub id: i64,
    pub doc: Option<String>,
    pub geom: Option<Geometry>,
    /// Serialized [`extidx_vir::Signature`]; both the engine (via the
    /// `VIR_IMAGE` literal) and the interpreter parse this same string.
    pub img: Option<String>,
    pub mol: Option<String>,
    pub num: Option<f64>,
}

pub(crate) fn quote(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

impl GenRow {
    pub fn insert_sql(&self, table: &str) -> String {
        let grp = grp_of(self.id).map_or("NULL".into(), |g| g.to_string());
        let (doc, mol) = (GenCell::Doc(self.doc.clone()), GenCell::Mol(self.mol.clone()));
        let (geom, img) = (GenCell::Geom(self.geom.clone()), GenCell::Img(self.img.clone()));
        let cells = [doc, geom, img, mol, GenCell::Num(self.num)].map(|c| c.sql()).join(", ");
        format!("INSERT INTO {table} VALUES ({grp}, {}, {cells})", self.id)
    }

    /// The column's value as an operator argument.
    pub fn arg(&self, col: Col) -> Arg {
        match col {
            Col::Doc => Arg::Str(self.doc.clone()),
            Col::Geom => Arg::Geom(self.geom.clone()),
            Col::Img => Arg::Str(self.img.clone()),
            Col::Mol => Arg::Str(self.mol.clone()),
            Col::Num => unreachable!("num is no operator's column"),
        }
    }
}

/// The updatable columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Col {
    Doc,
    Geom,
    Img,
    Mol,
    Num,
}

impl Col {
    pub fn name(self) -> &'static str {
        match self {
            Col::Doc => "doc",
            Col::Geom => "geom",
            Col::Img => "img",
            Col::Mol => "mol",
            Col::Num => "num",
        }
    }
}

/// A new cell value for UPDATE, typed per column.
#[derive(Debug, Clone)]
pub enum GenCell {
    Doc(Option<String>),
    Geom(Option<Geometry>),
    Img(Option<String>),
    Mol(Option<String>),
    Num(Option<f64>),
}

impl GenCell {
    pub fn col(&self) -> Col {
        match self {
            GenCell::Doc(_) => Col::Doc,
            GenCell::Geom(_) => Col::Geom,
            GenCell::Img(_) => Col::Img,
            GenCell::Mol(_) => Col::Mol,
            GenCell::Num(_) => Col::Num,
        }
    }

    /// A NULL of `col`.
    pub(crate) fn null(col: Col) -> GenCell {
        match col {
            Col::Doc => GenCell::Doc(None),
            Col::Geom => GenCell::Geom(None),
            Col::Img => GenCell::Img(None),
            Col::Mol => GenCell::Mol(None),
            Col::Num => GenCell::Num(None),
        }
    }

    pub(crate) fn sql(&self) -> String {
        match self {
            GenCell::Doc(Some(s)) | GenCell::Mol(Some(s)) => quote(s),
            GenCell::Geom(Some(g)) => geometry_sql(g),
            GenCell::Img(Some(s)) => format!("VIR_IMAGE({})", quote(s)),
            GenCell::Num(Some(n)) => format!("{n:.1}"),
            _ => "NULL".into(),
        }
    }
}

/// DML row selection — restricted to the unique `id` column so the
/// mirror's notion of "which rows changed" is trivially identical to the
/// engine's. An equality also pins `grp` when the row has one (it adds
/// nothing logically), so single-row DML on [`IOT`] runs as a probe of the
/// full `(grp, id)` key.
#[derive(Debug, Clone)]
pub enum IdPred {
    Eq(i64),
    Between(i64, i64),
}

impl IdPred {
    pub fn sql(&self) -> String {
        match self {
            IdPred::Eq(k) => match grp_of(*k) {
                Some(g) => format!("grp = {g} AND id = {k}"),
                None => format!("id = {k}"),
            },
            IdPred::Between(lo, hi) => format!("id BETWEEN {lo} AND {hi}"),
        }
    }

    pub fn matches(&self, id: i64) -> bool {
        match self {
            IdPred::Eq(k) => id == *k,
            IdPred::Between(lo, hi) => (*lo..=*hi).contains(&id),
        }
    }
}

/// A column of [`IOT`]'s primary key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyCol {
    Grp,
    Id,
}

impl KeyCol {
    pub fn name(self) -> &'static str {
        match self {
            KeyCol::Grp => "grp",
            KeyCol::Id => "id",
        }
    }

    /// The column's value in the row with this id (`None` = NULL).
    pub fn of(self, id: i64) -> Option<i64> {
        match self {
            KeyCol::Grp => grp_of(id),
            KeyCol::Id => Some(id),
        }
    }
}

/// One item of a generated query's select list: a key column, an
/// updatable column, or the ROWID pseudo-column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    Key(KeyCol),
    Cell(Col),
    RowId,
}

/// Every column of a fuzz table, then ROWID.
const ITEMS: [Item; 8] = [
    Item::Key(KeyCol::Grp),
    Item::Key(KeyCol::Id),
    Item::Cell(Col::Doc),
    Item::Cell(Col::Geom),
    Item::Cell(Col::Img),
    Item::Cell(Col::Mol),
    Item::Cell(Col::Num),
    Item::RowId,
];

impl Item {
    pub fn sql(self) -> &'static str {
        match self {
            Item::Key(c) => c.name(),
            Item::Cell(c) => c.name(),
            Item::RowId => "ROWID",
        }
    }
}

/// One atomic predicate: a user-defined operator as its spec draws it
/// (NULL literal arguments included: a NULL operand makes the whole
/// operator NULL under three-valued logic), or a relational comparison.
#[derive(Debug, Clone)]
pub enum Atom {
    Op(OpAtom),
    NumCmp { op: &'static str, value: f64 },
    KeyCmp { col: KeyCol, op: &'static str, value: i64 },
    KeyBetween { col: KeyCol, lo: i64, hi: i64 },
    IsNull { col: Col, negated: bool },
}

impl Atom {
    pub fn sql(&self) -> String {
        match self {
            Atom::Op(a) => a.sql(),
            Atom::NumCmp { op, value } => {
                cmp_sql("num", op, &format!("{value:.1}"), (value * 10.0).round() as i64)
            }
            Atom::KeyCmp { col, op, value } => cmp_sql(col.name(), op, &value.to_string(), *value),
            Atom::KeyBetween { col, lo, hi } => format!("{} BETWEEN {lo} AND {hi}", col.name()),
            Atom::IsNull { col, negated } => {
                format!("{} IS {}NULL", col.name(), if *negated { "NOT " } else { "" })
            }
        }
    }

    /// Can a B-tree on `num` consume this atom?
    pub fn btreeable_on_num(&self) -> bool {
        matches!(self, Atom::NumCmp { .. })
    }
}

/// `col op value`, or — when `draw` is odd, so for about every other atom —
/// the same comparison written the other way round, `value op' col` with
/// `op'` the flipped operator. The parity comes from the atom's own value,
/// so the rendering takes no draw of its own.
fn cmp_sql(col: &str, op: &str, value: &str, draw: i64) -> String {
    if draw % 2 == 0 {
        return format!("{col} {op} {value}");
    }
    let flipped = match op {
        "<" => ">",
        "<=" => ">=",
        ">" => "<",
        ">=" => "<=",
        other => other,
    };
    format!("{value} {flipped} {col}")
}

/// A two-level predicate tree: AND of atoms and 2-way OR groups.
#[derive(Debug, Clone)]
pub enum Pred {
    Atom(Atom),
    And(Vec<Pred>),
    Or(Vec<Pred>),
}

impl Pred {
    pub fn sql(&self) -> String {
        match self {
            Pred::Atom(a) => a.sql(),
            Pred::And(cs) => cs.iter().map(Pred::sql).collect::<Vec<_>>().join(" AND "),
            Pred::Or(cs) => {
                format!("({})", cs.iter().map(Pred::sql).collect::<Vec<_>>().join(" OR "))
            }
        }
    }

    /// Atoms that are top-level AND conjuncts — the only atoms an access
    /// path can consume, hence the only ones hint forcing may target.
    pub fn top_atoms(&self) -> Vec<&Atom> {
        match self {
            Pred::Atom(a) => vec![a],
            Pred::And(cs) => cs
                .iter()
                .filter_map(|c| match c {
                    Pred::Atom(a) => Some(a),
                    _ => None,
                })
                .collect(),
            Pred::Or(_) => Vec::new(),
        }
    }
}

/// A generated query: `SELECT [DISTINCT] items[, SCORE(label)] FROM table
/// WHERE pred [ORDER BY id LIMIT n]`.
#[derive(Debug, Clone)]
pub struct Query {
    pub table: &'static str,
    pub pred: Pred,
    /// The select list: a non-empty list of distinct [`Item`]s — `id`
    /// alone, or a random subset in random order, so the ORDER BY column
    /// is often not selected.
    pub items: Vec<Item>,
    /// `SELECT DISTINCT`; never with `order_limit` or `select_score`,
    /// whose rows it would make plan-dependent.
    pub distinct: bool,
    /// Ancillary `SCORE(label)` select item; paired with a labeled atom.
    pub select_score: Option<i64>,
    /// `ORDER BY id LIMIT n` — id is unique, so the prefix is
    /// deterministic and comparable as an ordered list.
    pub order_limit: Option<u64>,
    /// A top-level operator atom of `pred` to check in the join form too:
    /// `SELECT o.id, i.id FROM <other table> o, <table> i` over the atom
    /// with its first argument read from `o`'s row ([`Query::join_sql`]).
    pub join: Option<OpAtom>,
}

impl Query {
    /// Render, optionally with a plan-forcing hint after SELECT.
    pub fn sql(&self, hint: Option<&str>) -> String {
        let hint = hint.map(|h| format!("/*+ {h} */ ")).unwrap_or_default();
        let distinct = if self.distinct { "DISTINCT " } else { "" };
        let mut items: Vec<String> = self.items.iter().map(|i| i.sql().to_string()).collect();
        items.extend(self.select_score.map(|l| format!("SCORE({l})")));
        let tail = match self.order_limit {
            Some(n) => format!(" ORDER BY id LIMIT {n}"),
            None => String::new(),
        };
        format!(
            "SELECT {hint}{distinct}{} FROM {} WHERE {}{tail}",
            items.join(", "),
            self.table,
            self.pred.sql()
        )
    }

    /// The join form of [`Query::join`]: `i` is this query's table and
    /// `o` the other fuzz table.
    pub fn join_sql(&self, hint: Option<&str>) -> Option<String> {
        let atom = self.join.as_ref()?;
        let hint = hint.filter(|h| !h.is_empty()).map(|h| format!("/*+ {h} */ ")).unwrap_or_default();
        let (outer, pred) = (other_table(self.table), atom.join_sql("i", "o"));
        Some(format!("SELECT {hint}o.id, i.id FROM {outer} o, {} i WHERE {pred}", self.table))
    }

    /// The NoREC companion: same predicate, aggregated server-side.
    pub fn count_sql(&self, hint: Option<&str>) -> String {
        let hint = hint.map(|h| format!("/*+ {h} */ ")).unwrap_or_default();
        format!("SELECT {hint}COUNT(*) FROM {} WHERE {}", self.table, self.pred.sql())
    }
}

/// One workload statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// Raw DDL (index create/drop) — no mirror effect.
    Sql(String),
    Truncate { table: &'static str },
    Insert { table: &'static str, row: GenRow },
    Update { table: &'static str, pred: IdPred, cell: GenCell },
    Delete { table: &'static str, pred: IdPred },
    Query(Query),
}

impl Stmt {
    /// The SQL this statement executes (queries render unhinted).
    pub fn sql(&self) -> String {
        match self {
            Stmt::Sql(s) => s.clone(),
            Stmt::Truncate { table } => format!("TRUNCATE TABLE {table}"),
            Stmt::Insert { table, row } => row.insert_sql(table),
            Stmt::Update { table, pred, cell } => {
                format!("UPDATE {table} SET {} = {} WHERE {}", cell.col().name(), cell.sql(), pred.sql())
            }
            Stmt::Delete { table, pred } => format!("DELETE FROM {table} WHERE {}", pred.sql()),
            Stmt::Query(q) => q.sql(None),
        }
    }
}

/// A complete generated workload: fixed schema preamble plus the random
/// statement stream.
#[derive(Debug, Clone)]
pub struct Workload {
    pub preamble: Vec<String>,
    pub stmts: Vec<Stmt>,
}

/// Comparison operators of [`Atom::NumCmp`] and [`Atom::KeyCmp`].
pub const CMP_OPS: [&str; 5] = ["<", "<=", ">", ">=", "="];

/// Domain/B-tree index slots the stream can drop and recreate: one per
/// indexed column of each table, the `num` slot a B-tree. Names are fixed;
/// the column's spec draws the indexing scheme behind each recreation (the
/// geometry slot flips between the tile and R-tree cartridges, §3.2.2's
/// algorithm-swap claim, fuzzed).
struct IndexSlot {
    name: &'static str,
    table: &'static str,
    col: Col,
}

const SLOTS: [IndexSlot; 10] = [
    IndexSlot { name: "QH_TXT", table: HEAP, col: Col::Doc },
    IndexSlot { name: "QH_GEO", table: HEAP, col: Col::Geom },
    IndexSlot { name: "QH_IMG", table: HEAP, col: Col::Img },
    IndexSlot { name: "QH_MOL", table: HEAP, col: Col::Mol },
    IndexSlot { name: "QH_NUM", table: HEAP, col: Col::Num },
    IndexSlot { name: "QI_TXT", table: IOT, col: Col::Doc },
    IndexSlot { name: "QI_GEO", table: IOT, col: Col::Geom },
    IndexSlot { name: "QI_IMG", table: IOT, col: Col::Img },
    IndexSlot { name: "QI_MOL", table: IOT, col: Col::Mol },
    IndexSlot { name: "QI_NUM", table: IOT, col: Col::Num },
];

/// The columns an operator indexes, in the order a row draws them.
const OP_COLS: [Col; 4] = [Col::Doc, Col::Geom, Col::Img, Col::Mol];

/// Generator state. The operator specs draw from it
/// ([`crate::spec::OperatorSpec`]).
pub(crate) struct WorkloadGen {
    pub(crate) rng: StdRng,
    /// Draws every query's select list, so a seed's statements and
    /// predicates are the same whatever its select lists are.
    select_rng: StdRng,
    next_id: i64,
    pub(crate) corpus: CorpusGenerator,
    pub(crate) spatial: SpatialWorkload,
    pub(crate) sigs: SignatureWorkload,
    /// Draws the VIR-only choices (full-precision signature text, inexact
    /// weights, near-threshold queries) apart from `rng`, so they shift no
    /// other draw of a seed's stream.
    pub(crate) vir_rng: StdRng,
    /// Draws the specs' edge values (edge weights, thresholds at a stored
    /// value, the indexed column second), the chem store, and which
    /// queries also run as a join, apart from the draws above.
    pub(crate) edge_rng: StdRng,
    /// The first atom drawn for the query being generated that must be its
    /// whole predicate: [`WorkloadGen::query`] makes it so.
    pub(crate) whole_atom: Option<OpAtom>,
    pub(crate) mols: MoleculeWorkload,
    /// Substructure fragments reused between stored molecules and
    /// MolContains queries so matches actually occur.
    pub(crate) frags: Vec<String>,
    /// Serialized signatures of inserted images; query signatures are
    /// sometimes drawn from here so VirSimilar thresholds bite.
    pub(crate) sig_pool: Vec<String>,
    /// Inserted molecules, for MolSimilar thresholds at a stored value.
    pub(crate) mol_pool: Vec<String>,
    /// `num` values that were stored at some point; half of all `num`
    /// comparison literals are drawn from here, because `<` and `<=` only
    /// differ on a row that holds the literal itself.
    num_pool: Vec<f64>,
    /// Whether chem indexes may keep their data in external files.
    pub(crate) file_store: bool,
    /// Which index slots the *generator* believes exist — only steers
    /// which DDL gets emitted; the harness derives truth from the
    /// catalog, so a stale belief just yields a no-op statement.
    slot_alive: [bool; SLOTS.len()],
}

impl WorkloadGen {
    pub(crate) fn new(seed: u64, file_store: bool) -> Self {
        let mut mols = MoleculeWorkload::new(seed ^ 0x6d6f6c);
        let frags = vec![mols.molecule(3), mols.molecule(4), mols.molecule(3)];
        WorkloadGen {
            rng: StdRng::seed_from_u64(seed),
            select_rng: StdRng::seed_from_u64(seed ^ 0x73656c),
            next_id: 1,
            corpus: CorpusGenerator::new(50, 1.1, seed ^ 0x747874),
            spatial: SpatialWorkload::new(100.0, seed ^ 0x67656f),
            sigs: SignatureWorkload::new(seed ^ 0x696d67),
            vir_rng: StdRng::seed_from_u64(seed ^ 0x766972),
            edge_rng: StdRng::seed_from_u64(seed ^ 0x65646765),
            whole_atom: None,
            mols,
            frags,
            sig_pool: Vec::new(),
            mol_pool: Vec::new(),
            num_pool: Vec::new(),
            file_store,
            slot_alive: [true; SLOTS.len()],
        }
    }

    fn create_sql(&mut self, slot: &IndexSlot) -> String {
        let tail = match slot.col {
            Col::Num => "(num)".to_string(),
            col => (column_spec(col).create)(self),
        };
        format!("CREATE INDEX {} ON {}{tail}", slot.name, slot.table)
    }

    pub(crate) fn preamble(&mut self) -> Vec<String> {
        let cols = "doc VARCHAR2(4000), geom SDO_GEOMETRY, img VIR_IMAGE, \
                    mol VARCHAR2(400), num NUMBER";
        let mut out = vec![
            format!("CREATE TABLE {HEAP} (grp INTEGER, id INTEGER, {cols})"),
            format!(
                "CREATE TABLE {IOT} (grp INTEGER, id INTEGER, {cols}, PRIMARY KEY (grp, id)) \
                 ORGANIZATION INDEX"
            ),
        ];
        for slot in &SLOTS {
            let sql = self.create_sql(slot);
            out.push(sql);
        }
        out
    }

    pub(crate) fn table(&mut self) -> &'static str {
        if self.rng.gen_bool(0.5) {
            HEAP
        } else {
            IOT
        }
    }

    fn row(&mut self) -> GenRow {
        let id = self.next_id;
        self.next_id += 1;
        let mut row = GenRow { id, doc: None, geom: None, img: None, mol: None, num: None };
        for col in OP_COLS {
            if !self.rng.gen_bool(NULL_P) {
                let cell = (column_spec(col).value)(self, true);
                self.remember(&cell);
                apply_cell(&mut row, &cell);
            }
        }
        row.num = (!self.rng.gen_bool(NULL_P)).then(|| self.stored_num());
        row
    }

    /// Pool an inserted image or molecule for later query arguments.
    pub(crate) fn remember(&mut self, cell: &GenCell) {
        let (v, pool) = match cell {
            GenCell::Img(Some(v)) => (v, &mut self.sig_pool),
            GenCell::Mol(Some(v)) => (v, &mut self.mol_pool),
            _ => return,
        };
        if pool.len() < 24 {
            pool.push(v.clone());
        }
    }

    /// A fresh `num` cell value, remembered for later comparison literals.
    fn stored_num(&mut self) -> f64 {
        let n = self.rng.gen_range(0..1000i64) as f64 / 10.0;
        self.num_pool.push(n);
        n
    }

    /// A comparison or BETWEEN over one key column. Literals come from the
    /// range of values ever stored (ids are dense, groups few), so they
    /// usually equal a stored value.
    fn key_atom(&mut self, col: KeyCol) -> Atom {
        let (lo, hi, span) = match col {
            KeyCol::Grp => (0, GROUPS, 3i64),
            KeyCol::Id => (1, self.next_id.max(2), 8),
        };
        let value = self.rng.gen_range(lo..hi);
        if self.rng.gen_bool(0.25) {
            Atom::KeyBetween { col, lo: value, hi: value + self.rng.gen_range(0..span) }
        } else {
            Atom::KeyCmp { col, op: CMP_OPS[self.rng.gen_range(0..CMP_OPS.len())], value }
        }
    }

    fn cell(&mut self) -> GenCell {
        let null = self.rng.gen_bool(0.25);
        match OP_COLS.get(self.rng.gen_range(0..5u32) as usize) {
            Some(&col) if null => GenCell::null(col),
            Some(&col) => (column_spec(col).value)(self, false),
            None => GenCell::Num((!null).then(|| self.stored_num())),
        }
    }

    fn id_pred(&mut self) -> IdPred {
        let hi = self.next_id.max(2);
        if self.rng.gen_bool(0.6) {
            IdPred::Eq(self.rng.gen_range(1..hi))
        } else {
            let lo = self.rng.gen_range(1..hi);
            IdPred::Between(lo, lo + self.rng.gen_range(0..6i64))
        }
    }

    fn atom(&mut self) -> Atom {
        // NULL literal injection rate for operator arguments.
        let null_lit = self.rng.gen_bool(0.08);
        let mut draw = self.rng.gen_range(0..100u32);
        for spec in &SPECS {
            if draw < spec.share {
                return Atom::Op((spec.draw)(self, null_lit));
            }
            draw -= spec.share;
        }
        match draw {
            0..=9 => Atom::NumCmp {
                op: CMP_OPS[self.rng.gen_range(0..CMP_OPS.len())],
                value: if !self.num_pool.is_empty() && self.rng.gen_bool(0.5) {
                    self.num_pool[self.rng.gen_range(0..self.num_pool.len())]
                } else {
                    self.rng.gen_range(0..1000i64) as f64 / 10.0
                },
            },
            10..=15 => {
                let col = if self.rng.gen_bool(0.3) { KeyCol::Grp } else { KeyCol::Id };
                self.key_atom(col)
            }
            _ => Atom::IsNull {
                col: [Col::Doc, Col::Geom, Col::Img, Col::Mol, Col::Num]
                    [self.rng.gen_range(0..5usize)],
                negated: self.rng.gen_bool(0.4),
            },
        }
    }

    pub(crate) fn query(&mut self) -> Query {
        let table = self.table();
        let n = self.rng.gen_range(1..=3u32);
        let mut children = Vec::new();
        for _ in 0..n {
            if self.rng.gen_bool(0.3) {
                children.push(Pred::Or(vec![Pred::Atom(self.atom()), Pred::Atom(self.atom())]));
            } else {
                children.push(Pred::Atom(self.atom()));
            }
        }
        // A key clause on a third of the queries: one or both key columns,
        // in either order, ANDed on — the shapes a key-prefix range serves.
        if self.rng.gen_bool(0.35) {
            let mut cols = [KeyCol::Grp, KeyCol::Id];
            if self.rng.gen_bool(0.5) {
                cols.reverse();
            }
            let take = self.rng.gen_range(1..=2usize);
            for col in &cols[..take] {
                children.push(Pred::Atom(self.key_atom(*col)));
            }
        }
        let mut pred = if children.len() == 1 {
            children.pop().expect("one child")
        } else {
            Pred::And(children)
        };
        // Attach an ancillary-score label to the first eligible Contains
        // conjunct, paired with a SCORE(label) select item.
        let mut select_score = None;
        if self.rng.gen_bool(0.3) {
            let slots: &mut [Pred] = match &mut pred {
                Pred::And(cs) => cs,
                one => std::slice::from_mut(one),
            };
            for c in slots.iter_mut() {
                if let Pred::Atom(Atom::Op(a)) = c {
                    if a.spec.ancillary && !a.has_null() {
                        a.label = Some(1);
                        select_score = Some(1);
                        break;
                    }
                }
            }
        }
        let order_limit = self.rng.gen_bool(0.3).then(|| self.rng.gen_range(1..=8u64));
        let (items, distinct) = self.select_list(select_score.is_none() && order_limit.is_none());
        // An atom that must be the whole predicate becomes it. Every draw
        // above still happened, so no later draw of the seed's stream moves.
        if let Some(atom) = self.whole_atom.take() {
            pred = Pred::Atom(Atom::Op(atom));
            select_score = None;
        }
        let first_op = pred.top_atoms().into_iter().find_map(|a| match a {
            Atom::Op(a) if !a.refused() => Some(OpAtom { label: None, ..a.clone() }),
            _ => None,
        });
        // A share of those queries checks its operator in the join form too.
        let join = first_op.filter(|_| self.edge_rng.gen_bool(0.15));
        Query { table, pred, items, distinct, select_score, order_limit, join }
    }

    /// A select list: `id` alone for a third of the queries, else one to
    /// four items of [`ITEMS`] in random order; DISTINCT on a quarter of
    /// those that may have it.
    fn select_list(&mut self, may_distinct: bool) -> (Vec<Item>, bool) {
        let r = &mut self.select_rng;
        if r.gen_bool(1.0 / 3.0) {
            return (vec![Item::Key(KeyCol::Id)], false);
        }
        let mut items = ITEMS.to_vec();
        for i in (1..items.len()).rev() {
            items.swap(i, r.gen_range(0..=i));
        }
        items.truncate(r.gen_range(1..=4));
        (items, may_distinct && r.gen_bool(0.25))
    }

    fn statement(&mut self) -> Stmt {
        match self.rng.gen_range(0..100u32) {
            0..=29 => {
                let table = self.table();
                let row = self.row();
                Stmt::Insert { table, row }
            }
            30..=39 => Stmt::Update { table: self.table(), pred: self.id_pred(), cell: self.cell() },
            40..=46 => Stmt::Delete { table: self.table(), pred: self.id_pred() },
            47..=50 => {
                let i = self.rng.gen_range(0..SLOTS.len());
                if self.slot_alive[i] {
                    self.slot_alive[i] = false;
                    Stmt::Sql(format!("DROP INDEX {}", SLOTS[i].name))
                } else {
                    self.slot_alive[i] = true;
                    let sql = self.create_sql(&SLOTS[i]);
                    Stmt::Sql(sql)
                }
            }
            51..=52 => Stmt::Truncate { table: self.table() },
            _ => Stmt::Query(self.query()),
        }
    }
}

/// The concurrent scheduler's statement source (`crate::concurrent`): the
/// same seeded vocabulary as [`generate`], handed out one statement at a
/// time, restricted to the forms whose serial commit-order replay is sound
/// under snapshot isolation — inserts of globally fresh ids and
/// UPDATE/DELETE keyed by `id =` equality. (Range predicates could
/// straddle a concurrent insert, and the resulting phantom behavior under
/// SI legitimately differs from a serial replay, so they stay out of the
/// concurrent stream.)
impl WorkloadGen {
    /// An INSERT of a globally fresh id.
    pub(crate) fn insert(&mut self, table: &'static str) -> Stmt {
        Stmt::Insert { table, row: self.row() }
    }

    /// An UPDATE of exactly the row `id` (one random cell).
    pub(crate) fn update_eq(&mut self, table: &'static str, id: i64) -> Stmt {
        Stmt::Update { table, pred: IdPred::Eq(id), cell: self.cell() }
    }
}

/// Generate the workload for `seed`: the fixed schema preamble plus `n`
/// random statements. Pure — identical inputs yield identical output.
pub fn generate(seed: u64, n: usize) -> Workload {
    let mut g = WorkloadGen::new(seed, true);
    let preamble = g.preamble();
    let stmts = (0..n).map(|_| g.statement()).collect();
    Workload { preamble, stmts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extidx_vir::Signature;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(42, 120);
        let b = generate(42, 120);
        assert_eq!(a.preamble, b.preamble);
        let asql: Vec<String> = a.stmts.iter().map(Stmt::sql).collect();
        let bsql: Vec<String> = b.stmts.iter().map(Stmt::sql).collect();
        assert_eq!(asql, bsql);
        let c = generate(43, 120);
        let csql: Vec<String> = c.stmts.iter().map(Stmt::sql).collect();
        assert_ne!(asql, csql, "different seeds must differ");
    }

    /// A VirSimilar atom within 0.0001 of its threshold from a pooled
    /// image, or one whose weights the operator refuses, is its query's
    /// whole predicate; every other VirSimilar atom stays where it was drawn.
    #[test]
    fn boundary_and_refused_vir_atoms_are_whole_predicates() {
        fn vir_atoms<'a>(p: &'a Pred, out: &mut Vec<&'a OpAtom>) {
            match p {
                Pred::Atom(Atom::Op(a)) if a.spec.name == "VirSimilar" && !a.has_null() => out.push(a),
                Pred::Atom(_) => {}
                Pred::And(cs) | Pred::Or(cs) => cs.iter().for_each(|c| vir_atoms(c, out)),
            }
        }
        let (mut boundary, mut refused) = (0, 0);
        for seed in 0..4u64 {
            let mut g = WorkloadGen::new(seed, true);
            g.preamble();
            for _ in 0..200 {
                let Stmt::Query(q) = g.statement() else { continue };
                let whole = matches!(q.pred, Pred::Atom(_)) && q.select_score.is_none();
                let mut atoms = Vec::new();
                vir_atoms(&q.pred, &mut atoms);
                for a in atoms {
                    let [Arg::Str(Some(sig)), Arg::Str(Some(w)), Arg::Num(t, _)] = &a.args[..] else {
                        unreachable!()
                    };
                    let query = Signature::deserialize(sig).unwrap();
                    let at = |w| g.sig_pool.iter().any(|image| {
                        let d = Signature::deserialize(image).unwrap().distance(&query, &w);
                        (d - t).abs() < 0.0001
                    });
                    match extidx_vir::Weights::parse(w) {
                        Err(_) => refused += 1,
                        Ok(w) if at(w) => boundary += 1,
                        Ok(_) => continue,
                    }
                    assert!(whole, "seed {seed}: {}", q.pred.sql());
                }
            }
        }
        assert!(boundary > 0 && refused > 0, "{boundary} boundary, {refused} refused atoms");
    }

    #[test]
    fn workload_covers_every_statement_kind() {
        let w = generate(7, 400);
        let mut kinds = [false; 6];
        for s in &w.stmts {
            let k = match s {
                Stmt::Sql(_) => 0,
                Stmt::Truncate { .. } => 1,
                Stmt::Insert { .. } => 2,
                Stmt::Update { .. } => 3,
                Stmt::Delete { .. } => 4,
                Stmt::Query(_) => 5,
            };
            kinds[k] = true;
        }
        assert!(kinds.iter().all(|&k| k), "missing statement kind: {kinds:?}");
        // Both tables and all five operator families appear in queries.
        let all: String = w.stmts.iter().map(Stmt::sql).collect::<Vec<_>>().join("\n");
        for needle in
            ["Contains(doc", "Sdo_Relate(geom", "VirSimilar(img", "MolContains(mol", "MolSimilar(mol", HEAP, IOT]
        {
            assert!(all.contains(needle), "workload never exercises {needle}");
        }
        // Every comparison shape reaches both key columns, either way round,
        // and some query bounds both at once, in each order. Comparisons
        // are written the other way round with every operator, and on
        // every compared column.
        for col in ["grp", "id"] {
            for op in CMP_OPS.iter().copied().chain(["BETWEEN"]) {
                let either = [format!("{col} {op} "), cmp_sql(col, op, "", 1)];
                assert!(either.iter().any(|s| all.contains(s)), "no `{col} {op}` atom");
            }
        }
        for op in CMP_OPS {
            let flipped = cmp_sql("", op, "", 1);
            assert!(all.contains(&flipped), "no `…{flipped}…` atom");
        }
        for col in ["grp", "id", "num"] {
            assert!(CMP_OPS.iter().any(|op| all.contains(&cmp_sql(col, op, "", 1))), "{col}");
        }
        let both = |a: &str, b: &str| {
            w.stmts.iter().any(|s| match s {
                Stmt::Query(q) => {
                    let sql = q.pred.sql();
                    sql.find(a).zip(sql.find(b)).is_some_and(|(x, y)| x < y)
                }
                _ => false,
            })
        };
        assert!(both("grp ", "id ") && both("id ", "grp "), "key columns never bounded together");
        // Select lists: every column and ROWID is selected somewhere,
        // DISTINCT occurs, and some query orders by an id it does not select.
        let queries: Vec<&Query> = w
            .stmts
            .iter()
            .filter_map(|s| if let Stmt::Query(q) = s { Some(q) } else { None })
            .collect();
        let any = |f: &dyn Fn(&Query) -> bool| queries.iter().any(|q| f(q));
        for item in ITEMS {
            assert!(any(&|q| q.items.contains(&item)), "{item:?} never selected");
        }
        assert!(any(&|q| q.distinct && q.items.len() > 1), "no multi-column DISTINCT");
        let unselected_order = |q: &Query| !q.items.contains(&Item::Key(KeyCol::Id));
        assert!(
            any(&|q| q.order_limit.is_some() && unselected_order(q)),
            "no ORDER BY a column outside the select list"
        );
    }
}
