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
use extidx_vir::{Signature, SignatureWorkload};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The heap-organized fuzz table.
pub const HEAP: &str = "F_HEAP";
/// The index-organized fuzz table (primary key `(grp, id)`).
pub const IOT: &str = "F_IOT";

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
const NULL_P: f64 = 0.18;

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

fn quote(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

fn opt_str(v: &Option<String>) -> String {
    match v {
        Some(s) => quote(s),
        None => "NULL".into(),
    }
}

impl GenRow {
    pub fn insert_sql(&self, table: &str) -> String {
        let geom = match &self.geom {
            Some(g) => geometry_sql(g),
            None => "NULL".into(),
        };
        let img = match &self.img {
            Some(s) => format!("VIR_IMAGE({})", quote(s)),
            None => "NULL".into(),
        };
        let num = match self.num {
            Some(n) => format!("{n:.1}"),
            None => "NULL".into(),
        };
        let grp = grp_of(self.id).map_or("NULL".into(), |g| g.to_string());
        format!(
            "INSERT INTO {table} VALUES ({grp}, {}, {}, {geom}, {img}, {}, {num})",
            self.id,
            opt_str(&self.doc),
            opt_str(&self.mol),
        )
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

    fn sql(&self) -> String {
        match self {
            GenCell::Doc(v) | GenCell::Mol(v) => opt_str(v),
            GenCell::Geom(Some(g)) => geometry_sql(g),
            GenCell::Img(Some(s)) => format!("VIR_IMAGE({})", quote(s)),
            GenCell::Num(Some(n)) => format!("{n:.1}"),
            GenCell::Geom(None) | GenCell::Img(None) | GenCell::Num(None) => "NULL".into(),
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

/// One atomic predicate. Operator literal arguments are `Option` so the
/// generator can inject NULL literals (a NULL operand makes the whole
/// operator NULL under three-valued logic).
#[derive(Debug, Clone)]
pub enum Atom {
    Contains { query: Option<String>, label: Option<i64> },
    SdoRelate { window: Option<Geometry>, mask: String },
    VirSimilar { sig: Option<String>, weights: String, threshold: f64 },
    MolContains { frag: Option<String> },
    MolSimilar { query: String, threshold: f64 },
    NumCmp { op: &'static str, value: f64 },
    KeyCmp { col: KeyCol, op: &'static str, value: i64 },
    KeyBetween { col: KeyCol, lo: i64, hi: i64 },
    IsNull { col: Col, negated: bool },
}

impl Atom {
    pub fn sql(&self) -> String {
        match self {
            Atom::Contains { query, label } => match label {
                Some(l) => format!("Contains(doc, {}, {l})", opt_str(query)),
                None => format!("Contains(doc, {})", opt_str(query)),
            },
            Atom::SdoRelate { window, mask } => {
                let w = match window {
                    Some(g) => geometry_sql(g),
                    None => "NULL".into(),
                };
                format!("Sdo_Relate(geom, {w}, 'mask={mask}')")
            }
            Atom::VirSimilar { sig, weights, threshold } => {
                format!(
                    "VirSimilar(img, {}, {}, {threshold:.1})",
                    opt_str(sig),
                    quote(weights)
                )
            }
            Atom::MolContains { frag } => format!("MolContains(mol, {})", opt_str(frag)),
            Atom::MolSimilar { query, threshold } => {
                format!("MolSimilar(mol, {}, {threshold:.2})", quote(query))
            }
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

    /// `(operator, column, arity, has_null_literal)` for atoms backed by
    /// a user-defined operator — what hint forcing needs to decide
    /// whether a domain index is applicable.
    pub fn op_info(&self) -> Option<(&'static str, &'static str, usize, bool)> {
        match self {
            Atom::Contains { query, label } => {
                Some(("CONTAINS", "DOC", 2 + usize::from(label.is_some()), query.is_none()))
            }
            Atom::SdoRelate { window, .. } => Some(("SDO_RELATE", "GEOM", 3, window.is_none())),
            Atom::VirSimilar { sig, .. } => Some(("VIRSIMILAR", "IMG", 4, sig.is_none())),
            Atom::MolContains { frag } => Some(("MOLCONTAINS", "MOL", 2, frag.is_none())),
            Atom::MolSimilar { .. } => Some(("MOLSIMILAR", "MOL", 3, false)),
            _ => None,
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

const MASKS: [&str; 6] = ["ANYINTERACT", "OVERLAPS", "INSIDE", "CONTAINS", "EQUAL", "TOUCH"];
const WEIGHTS: [&str; 3] = ["", "globalcolor=1.0", "globalcolor=0.5, texture=0.5"];
/// A weight list whose ratios are inexact in binary (`threshold / w`
/// rounds), drawn in place of a [`WEIGHTS`] entry a quarter of the time.
const INEXACT_WEIGHTS: &str = "globalcolor=0.3, localcolor=0.3, texture=0.4";

/// Signature text with every value at full precision.
fn full_precision(vals: impl Iterator<Item = f64>) -> String {
    vals.map(|v| v.to_string()).collect::<Vec<_>>().join(",")
}

/// Comparison operators of [`Atom::NumCmp`] and [`Atom::KeyCmp`].
pub const CMP_OPS: [&str; 5] = ["<", "<=", ">", ">=", "="];

/// Domain/B-tree index slots the stream can drop and recreate. Names are
/// fixed; the indexing *scheme* behind the geometry slot can flip between
/// the tile and R-tree cartridges across recreations (§3.2.2's
/// algorithm-swap claim, fuzzed).
#[derive(Debug, Clone, Copy)]
enum SlotKind {
    Text,
    Geo,
    Img,
    Mol,
    Num,
}

struct IndexSlot {
    name: &'static str,
    table: &'static str,
    kind: SlotKind,
}

const SLOTS: [IndexSlot; 10] = [
    IndexSlot { name: "QH_TXT", table: HEAP, kind: SlotKind::Text },
    IndexSlot { name: "QH_GEO", table: HEAP, kind: SlotKind::Geo },
    IndexSlot { name: "QH_IMG", table: HEAP, kind: SlotKind::Img },
    IndexSlot { name: "QH_MOL", table: HEAP, kind: SlotKind::Mol },
    IndexSlot { name: "QH_NUM", table: HEAP, kind: SlotKind::Num },
    IndexSlot { name: "QI_TXT", table: IOT, kind: SlotKind::Text },
    IndexSlot { name: "QI_GEO", table: IOT, kind: SlotKind::Geo },
    IndexSlot { name: "QI_IMG", table: IOT, kind: SlotKind::Img },
    IndexSlot { name: "QI_MOL", table: IOT, kind: SlotKind::Mol },
    IndexSlot { name: "QI_NUM", table: IOT, kind: SlotKind::Num },
];

struct WorkloadGen {
    rng: StdRng,
    /// Draws every query's select list, so a seed's statements and
    /// predicates are the same whatever its select lists are.
    select_rng: StdRng,
    next_id: i64,
    corpus: CorpusGenerator,
    spatial: SpatialWorkload,
    sigs: SignatureWorkload,
    /// Draws the VIR-only choices (full-precision signature text, inexact
    /// weights, near-threshold queries) apart from `rng`, so they shift no
    /// other draw of a seed's stream.
    vir_rng: StdRng,
    /// The first near-threshold VirSimilar atom drawn for the query being
    /// generated: [`WorkloadGen::query`] makes it the whole predicate.
    near_atom: Option<Atom>,
    mols: MoleculeWorkload,
    /// Substructure fragments reused between stored molecules and
    /// MolContains queries so matches actually occur.
    frags: Vec<String>,
    /// Serialized signatures of inserted images; query signatures are
    /// sometimes drawn from here so VirSimilar thresholds bite.
    sig_pool: Vec<String>,
    /// `num` values that were stored at some point; half of all `num`
    /// comparison literals are drawn from here, because `<` and `<=` only
    /// differ on a row that holds the literal itself.
    num_pool: Vec<f64>,
    /// Which index slots the *generator* believes exist — only steers
    /// which DDL gets emitted; the harness derives truth from the
    /// catalog, so a stale belief just yields a no-op statement.
    slot_alive: [bool; SLOTS.len()],
}

impl WorkloadGen {
    fn new(seed: u64) -> Self {
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
            near_atom: None,
            mols,
            frags,
            sig_pool: Vec::new(),
            num_pool: Vec::new(),
            slot_alive: [true; SLOTS.len()],
        }
    }

    fn create_sql(&mut self, slot: &IndexSlot) -> String {
        let on = format!("CREATE INDEX {} ON {}", slot.name, slot.table);
        match slot.kind {
            SlotKind::Text => {
                let params = match self.rng.gen_range(0..3u32) {
                    0 => "",
                    1 => " PARAMETERS (':ScanMode PRECOMPUTE')",
                    _ => " PARAMETERS (':ScanMode INCREMENTAL')",
                };
                format!("{on}(doc) INDEXTYPE IS TextIndexType{params}")
            }
            SlotKind::Geo => {
                let it = if self.rng.gen_bool(0.5) { "SpatialIndexType" } else { "RtreeIndexType" };
                format!("{on}(geom) INDEXTYPE IS {it}")
            }
            SlotKind::Img => format!("{on}(img) INDEXTYPE IS VirIndexType"),
            SlotKind::Mol => format!("{on}(mol) INDEXTYPE IS ChemIndexType"),
            SlotKind::Num => format!("{on}(num)"),
        }
    }

    fn preamble(&mut self) -> Vec<String> {
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

    fn table(&mut self) -> &'static str {
        if self.rng.gen_bool(0.5) {
            HEAP
        } else {
            IOT
        }
    }

    fn row(&mut self) -> GenRow {
        let id = self.next_id;
        self.next_id += 1;
        let doc = (!self.rng.gen_bool(NULL_P)).then(|| self.corpus.document(8));
        let geom = (!self.rng.gen_bool(NULL_P)).then(|| self.spatial.rect(2.0, 25.0));
        let img = (!self.rng.gen_bool(NULL_P)).then(|| self.signature());
        let mol = (!self.rng.gen_bool(NULL_P)).then(|| {
            if self.rng.gen_bool(0.5) {
                let f = self.frags[self.rng.gen_range(0..self.frags.len())].clone();
                self.mols.molecule_containing(&f, 4)
            } else {
                self.mols.molecule(8)
            }
        });
        let num = (!self.rng.gen_bool(NULL_P)).then(|| self.stored_num());
        if let Some(s) = &img {
            if self.sig_pool.len() < 24 {
                self.sig_pool.push(s.clone());
            }
        }
        GenRow { id, doc, geom, img, mol, num }
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
        match self.rng.gen_range(0..5u32) {
            0 => GenCell::Doc((!null).then(|| self.corpus.document(8))),
            1 => GenCell::Geom((!null).then(|| self.spatial.rect(2.0, 25.0))),
            2 => GenCell::Img((!null).then(|| self.signature())),
            3 => GenCell::Mol((!null).then(|| self.mols.molecule(8))),
            _ => GenCell::Num((!null).then(|| self.stored_num())),
        }
    }

    /// A random signature's text: the generators' 3-decimal form, or half
    /// the time every value at full precision (a copy rounded to 3
    /// decimals compares differently near a threshold).
    fn signature(&mut self) -> String {
        let sig = self.sigs.random();
        if self.vir_rng.gen_bool(0.5) {
            sig.serialize()
        } else {
            full_precision(sig.channels.iter().flatten().copied())
        }
    }

    /// `image` with every value moved by `threshold` ± 0.00005. Every weight
    /// list the stream draws sums to 1, so the query's distance from
    /// `image` is that shift.
    fn near_threshold(&mut self, image: &str, threshold: f64) -> String {
        let sig = Signature::deserialize(image).expect("pooled signatures parse");
        let shift = threshold + self.vir_rng.gen_range(-0.00005..0.00005);
        full_precision(sig.channels.iter().flatten().map(|v| v + shift))
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

    fn text_query(&mut self) -> String {
        let term = |g: &mut Self| {
            let rank = g.rng.gen_range(0..g.corpus.vocab_size());
            g.corpus.term(rank).to_string()
        };
        let a = term(self);
        match self.rng.gen_range(0..4u32) {
            0 => a,
            1 => format!("{a} AND {}", term(self)),
            2 => format!("{a} OR {}", term(self)),
            _ => format!("{a} AND NOT {}", term(self)),
        }
    }

    fn atom(&mut self) -> Atom {
        // NULL literal injection rate for operator arguments.
        let null_lit = self.rng.gen_bool(0.08);
        match self.rng.gen_range(0..100u32) {
            0..=21 => Atom::Contains {
                query: (!null_lit).then(|| self.text_query()),
                label: None,
            },
            22..=39 => Atom::SdoRelate {
                window: (!null_lit).then(|| self.spatial.rect(5.0, 45.0)),
                mask: MASKS[self.rng.gen_range(0..MASKS.len())].to_string(),
            },
            40..=53 => {
                let pooled = !null_lit && !self.sig_pool.is_empty() && self.rng.gen_bool(0.5);
                let sig = if null_lit {
                    None
                } else if pooled {
                    Some(self.sig_pool[self.rng.gen_range(0..self.sig_pool.len())].clone())
                } else {
                    Some(self.signature())
                };
                let mut weights = WEIGHTS[self.rng.gen_range(0..WEIGHTS.len())];
                if self.vir_rng.gen_bool(0.25) {
                    weights = INEXACT_WEIGHTS;
                }
                let threshold = self.rng.gen_range(50..800i64) as f64 / 10.0;
                // Half the pooled queries sit within 0.00005 of the
                // threshold from their image, where a copy of the image
                // rounded to 3 decimals answers differently.
                let near = pooled && self.vir_rng.gen_bool(0.5);
                let sig = match sig {
                    Some(image) if near => Some(self.near_threshold(&image, threshold)),
                    sig => sig,
                };
                let atom = Atom::VirSimilar { sig, weights: weights.to_string(), threshold };
                if near && self.near_atom.is_none() {
                    self.near_atom = Some(atom.clone());
                }
                atom
            }
            54..=67 => Atom::MolContains {
                frag: (!null_lit).then(|| self.frags[self.rng.gen_range(0..self.frags.len())].clone()),
            },
            68..=77 => Atom::MolSimilar {
                query: self.mols.molecule(6),
                threshold: self.rng.gen_range(10..80i64) as f64 / 100.0,
            },
            78..=87 => Atom::NumCmp {
                op: CMP_OPS[self.rng.gen_range(0..CMP_OPS.len())],
                value: if !self.num_pool.is_empty() && self.rng.gen_bool(0.5) {
                    self.num_pool[self.rng.gen_range(0..self.num_pool.len())]
                } else {
                    self.rng.gen_range(0..1000i64) as f64 / 10.0
                },
            },
            88..=93 => {
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

    fn query(&mut self) -> Query {
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
                if let Pred::Atom(Atom::Contains { query: Some(_), label }) = c {
                    *label = Some(1);
                    select_score = Some(1);
                    break;
                }
            }
        }
        let order_limit = self.rng.gen_bool(0.3).then(|| self.rng.gen_range(1..=8u64));
        let (items, distinct) = self.select_list(select_score.is_none() && order_limit.is_none());
        // A near-threshold VirSimilar atom is the whole predicate: ANDed
        // with other atoms, the one row whose answer it flips rarely
        // survives them. Every draw above still happened, so no later draw
        // of the seed's stream moves.
        if let Some(atom) = self.near_atom.take() {
            pred = Pred::Atom(atom);
            select_score = None;
        }
        Query { table, pred, items, distinct, select_score, order_limit }
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

/// Structured statement source for the concurrent scheduler
/// (`crate::concurrent`): the same seeded vocabulary as [`generate`],
/// handed out one statement at a time, restricted to the forms whose
/// serial commit-order replay is sound under snapshot isolation —
/// inserts of globally fresh ids and UPDATE/DELETE keyed by `id =`
/// equality. (Range predicates could straddle a concurrent insert, and
/// the resulting phantom behavior under SI legitimately differs from a
/// serial replay, so they stay out of the concurrent stream.)
pub struct ConcurrentGen {
    inner: WorkloadGen,
}

impl ConcurrentGen {
    pub fn new(seed: u64) -> Self {
        ConcurrentGen { inner: WorkloadGen::new(seed) }
    }

    /// The fixed schema preamble (both fuzz tables + all index slots).
    pub fn preamble(&mut self) -> Vec<String> {
        self.inner.preamble()
    }

    /// Pick one of the two fuzz tables.
    pub fn table(&mut self) -> &'static str {
        self.inner.table()
    }

    /// An INSERT of a globally fresh id.
    pub fn insert(&mut self, table: &'static str) -> Stmt {
        let row = self.inner.row();
        Stmt::Insert { table, row }
    }

    /// An UPDATE of exactly the row `id` (one random cell).
    pub fn update_eq(&mut self, table: &'static str, id: i64) -> Stmt {
        let cell = self.inner.cell();
        Stmt::Update { table, pred: IdPred::Eq(id), cell }
    }

    /// A DELETE of exactly the row `id`.
    pub fn delete_eq(&mut self, table: &'static str, id: i64) -> Stmt {
        Stmt::Delete { table, pred: IdPred::Eq(id) }
    }

    /// A domain-operator query (same shape as the serial stream's).
    pub fn query(&mut self) -> Query {
        self.inner.query()
    }
}

/// Generate the workload for `seed`: the fixed schema preamble plus `n`
/// random statements. Pure — identical inputs yield identical output.
pub fn generate(seed: u64, n: usize) -> Workload {
    let mut g = WorkloadGen::new(seed);
    let preamble = g.preamble();
    let stmts = (0..n).map(|_| g.statement()).collect();
    Workload { preamble, stmts }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A VirSimilar atom whose query lies within 0.00005 of its threshold
    /// from a pooled image is its query's whole predicate; every other
    /// VirSimilar atom stays where it was drawn.
    #[test]
    fn near_threshold_vir_atoms_are_whole_predicates() {
        fn vir_atoms<'a>(p: &'a Pred, out: &mut Vec<&'a Atom>) {
            match p {
                Pred::Atom(a @ Atom::VirSimilar { sig: Some(_), .. }) => out.push(a),
                Pred::Atom(_) => {}
                Pred::And(cs) | Pred::Or(cs) => cs.iter().for_each(|c| vir_atoms(c, out)),
            }
        }
        let mut near_queries = 0;
        for seed in 0..4u64 {
            let mut g = WorkloadGen::new(seed);
            g.preamble();
            for _ in 0..200 {
                let Stmt::Query(q) = g.statement() else { continue };
                let mut atoms = Vec::new();
                vir_atoms(&q.pred, &mut atoms);
                for atom in atoms {
                    let Atom::VirSimilar { sig: Some(sig), weights, threshold } = atom else {
                        unreachable!()
                    };
                    let query = Signature::deserialize(sig).unwrap();
                    let w = extidx_vir::Weights::parse(weights).unwrap();
                    let near = g.sig_pool.iter().any(|image| {
                        let d = Signature::deserialize(image).unwrap().distance(&query, &w);
                        (d - threshold).abs() < 0.0001
                    });
                    if near {
                        near_queries += 1;
                        assert!(matches!(q.pred, Pred::Atom(_)), "seed {seed}: {}", q.pred.sql());
                        assert_eq!(q.select_score, None);
                    }
                }
            }
        }
        assert!(near_queries > 0, "no near-threshold VirSimilar query drawn");
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
