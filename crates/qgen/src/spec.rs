//! One description per user-defined operator, read by every oracle.
//!
//! An [`OperatorSpec`] says what the framework's contract (§2.2) asks of
//! one operator: the indextypes that evaluate it and how an index of each
//! is created, how its column's values and its other arguments are drawn
//! (edge values included), which argument positions the indexed column
//! may take, what the operator answers (the mirror predicate the
//! interpreter evaluates, §2.4.2's functional twin). The generator
//! ([`crate::gen`]), the mirror ([`crate::interp`]) and the differential
//! and concurrent oracles read [`SPECS`] and nothing else about an
//! operator. The fault and crash matrices (`tests/fault_matrix.rs`,
//! `tests/recovery.rs`) drive one fixture per indextype ([`rigs`]), whose
//! random stream ([`RigStream`]) draws values and probes through the same
//! specs.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use extidx_chem::{Fingerprint, Molecule, Substructure};
use extidx_common::Error;
use extidx_spatial::{geometry_sql, Geometry, Mask, SpatialWorkload};
use extidx_sql::Database;
use extidx_text::query::{parse_query, TextQuery};
use extidx_text::tokenizer;
use extidx_vir::{Signature, SignatureWorkload, Weights};
use rand::Rng;

use crate::gen::{quote, Col, GenCell, GenRow, WorkloadGen, NULL_P};
use crate::interp::apply_cell;

/// An operator argument other than the indexed column.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// A string literal, or NULL.
    Str(Option<String>),
    /// A geometry constructor, or NULL.
    Geom(Option<Geometry>),
    /// A number written with this many decimals, or at full precision.
    Num(f64, Option<usize>),
}

impl Arg {
    pub fn sql(&self) -> String {
        match self {
            Arg::Str(Some(s)) => quote(s),
            Arg::Geom(Some(g)) => geometry_sql(g),
            Arg::Num(v, Some(decimals)) => format!("{v:.decimals$}"),
            Arg::Num(v, None) => v.to_string(),
            Arg::Str(None) | Arg::Geom(None) => "NULL".into(),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Arg::Str(None) | Arg::Geom(None))
    }

    fn text(&self) -> Option<&str> {
        match self {
            Arg::Str(s) => s.as_deref(),
            _ => None,
        }
    }
}

/// An operator's answer for a row: `Ok(None)` is UNKNOWN (a NULL operand,
/// stored or literal), `Err` a refusal of the arguments.
pub type Answer = Result<Option<bool>, String>;

/// An operator's query side — every argument but the indexed column —
/// parsed once: what its mirror holds each stored value to.
#[derive(Debug)]
pub(crate) enum Probe {
    /// A NULL operand: UNKNOWN for every row.
    Null,
    Text(TextQuery),
    Relate(Geometry, Mask),
    Vir(Signature, Weights, f64),
    /// The pattern, prepared with the scratch every stored molecule reuses.
    Substructure(Mutex<Substructure>),
    Similar(Fingerprint, f64),
}

/// A stored chem or VIR value parsed once, when a row of
/// [`RigStream`]'s model is written, rather than once per probe.
#[derive(Debug, Clone)]
pub(crate) enum Parsed {
    Sig(Signature),
    Mol(Molecule, Fingerprint),
}

impl Parsed {
    /// What the mirror parses of `row`'s `col` value: `None` for NULL and
    /// for text and geometry, which it reads as they are.
    fn of(row: &GenRow, col: Col) -> Option<Parsed> {
        match col {
            Col::Img => row.img.as_deref().map(|s| {
                Parsed::Sig(Signature::deserialize(s).expect("stored signatures parse"))
            }),
            Col::Mol => row.mol.as_deref().map(|s| {
                let mol = molecule(s);
                let fp = Fingerprint::of(&mol);
                Parsed::Mol(mol, fp)
            }),
            _ => None,
        }
    }
}

impl Probe {
    /// The operator's answer for a non-NULL `stored` value, read from
    /// `parsed` where a model row has parsed it.
    fn holds(&self, stored: &Arg, parsed: Option<&Parsed>, col_second: bool) -> Option<bool> {
        let stored_text = || stored.text().expect("a stored text value");
        Some(match self {
            Probe::Null => return None,
            Probe::Text(q) => {
                q.matches(&tokenizer::tokenize(stored_text(), &tokenizer::StopWords::none()))
            }
            Probe::Relate(w, mask) => {
                let Arg::Geom(Some(g)) = stored else { unreachable!("a stored geometry") };
                if col_second { w.relate(g, *mask) } else { g.relate(w, *mask) }
            }
            Probe::Vir(q, w, t) => match parsed {
                Some(Parsed::Sig(s)) => s.distance(q, w) <= *t,
                _ => {
                    let s = Signature::deserialize(stored_text()).expect("stored signatures parse");
                    s.distance(q, w) <= *t
                }
            },
            Probe::Substructure(pattern) => {
                let mut pattern = pattern.lock().expect("no mirror panicked mid-match");
                match parsed {
                    Some(Parsed::Mol(mol, _)) => pattern.in_molecule(mol),
                    _ => pattern.in_text(stored_text()).expect("generated molecule parses"),
                }
            }
            Probe::Similar(q, t) => match parsed {
                Some(Parsed::Mol(_, fp)) => fp.tanimoto(q) >= *t,
                _ => fingerprint(stored_text()).tanimoto(q) >= *t,
            },
        })
    }
}

/// One operator predicate: `Op(col, args…[, label])`, or with the indexed
/// column second, `Op(args[0], col, args[1..]…)`.
#[derive(Debug, Clone)]
pub struct OpAtom {
    pub spec: &'static OperatorSpec,
    pub args: Vec<Arg>,
    /// The indexed column is the second argument (only where the spec
    /// allows either position).
    pub col_second: bool,
    /// The ancillary label, paired with a `SCORE(label)` select item.
    pub label: Option<i64>,
    /// `args` parsed, at the first row the mirror holds to them.
    pub(crate) probe: Arc<OnceLock<Result<Probe, String>>>,
}

impl OpAtom {
    pub fn new(spec: &'static OperatorSpec, args: Vec<Arg>) -> OpAtom {
        OpAtom { spec, args, col_second: false, label: None, probe: Arc::default() }
    }

    pub fn sql(&self) -> String {
        self.render(self.spec.col.name(), &self.args[0].sql())
    }

    /// The atom in a join: the column read from `inner`, the first
    /// argument from the same column of `outer`'s row.
    pub fn join_sql(&self, inner: &str, outer: &str) -> String {
        let col = self.spec.col.name();
        self.render(&format!("{inner}.{col}"), &format!("{outer}.{}", self.spec.join_arg))
    }

    fn render(&self, col: &str, first: &str) -> String {
        let mut args = vec![col.to_string(), first.to_string()];
        if self.col_second {
            args.swap(0, 1);
        }
        args.extend(self.args[1..].iter().map(Arg::sql));
        args.extend(self.label.map(|l| l.to_string()));
        format!("{}({})", self.spec.name, args.join(", "))
    }

    /// The operator's answer for `row`. The query side is parsed once per
    /// atom, not once per row.
    pub fn holds(&self, row: &GenRow) -> Answer {
        self.holds_parsed(row, None)
    }

    /// [`OpAtom::holds`] of a row whose stored value is already `parsed`.
    fn holds_parsed(&self, row: &GenRow, parsed: Option<&Parsed>) -> Answer {
        let probe = self.probe.get_or_init(|| (self.spec.probe)(&self.args));
        answer(&row.arg(self.spec.col), parsed, probe.as_ref(), self.col_second)
    }

    /// [`OpAtom::holds`] with the first argument read from `outer`.
    pub fn holds_joined(&self, outer: &GenRow, inner: &GenRow) -> Answer {
        let mut args = self.args.clone();
        args[0] = outer.arg(self.spec.col);
        let probe = (self.spec.probe)(&args);
        answer(&inner.arg(self.spec.col), None, probe.as_ref(), self.col_second)
    }

    /// Whether the operator refuses these arguments whatever the row: every
    /// plan must then fail or answer as if no row were asked.
    pub fn refused(&self) -> bool {
        (self.spec.refuses)(&self.args)
    }

    pub fn has_null(&self) -> bool {
        self.args.iter().any(Arg::is_null)
    }
}

/// The answer for a stored value: UNKNOWN when it is NULL, else what the
/// query side says of it, or its refusal.
fn answer(
    stored: &Arg,
    parsed: Option<&Parsed>,
    probe: Result<&Probe, &String>,
    col_second: bool,
) -> Answer {
    if stored.is_null() {
        return Ok(None);
    }
    Ok(probe.map_err(Clone::clone)?.holds(stored, parsed, col_second))
}

/// What the framework's contract says of one user-defined operator.
#[derive(Debug)]
pub struct OperatorSpec {
    /// The operator as SQL names it.
    pub name: &'static str,
    /// The fuzz-table column it is indexed on.
    pub col: Col,
    /// The outer table's column, as SQL reads it, that supplies the first
    /// argument in the generated join form.
    pub join_arg: &'static str,
    /// The indextypes that evaluate it, each with the `PARAMETERS` strings
    /// an index of it is created with (`""`: none).
    pub indextypes: &'static [(&'static str, &'static [&'static str])],
    /// It has an ancillary `SCORE` (a trailing label argument).
    pub ancillary: bool,
    /// Its share of the generator's operator draws, out of 100.
    pub(crate) share: u32,
    /// A stored value; `true` for a new row's (which may embed what later
    /// arguments query), `false` for an UPDATE's.
    pub(crate) value: fn(&mut WorkloadGen, bool) -> GenCell,
    /// The `CREATE INDEX … INDEXTYPE IS …` tail for the column.
    pub(crate) create: fn(&mut WorkloadGen) -> String,
    /// The other arguments, NULL literals (when asked) and edge values
    /// included.
    pub(crate) draw: fn(&mut WorkloadGen, bool) -> OpAtom,
    /// The mirror's query side: the other arguments parsed (`Err`: the
    /// operator refuses them), which [`OpAtom::holds`] tests each stored
    /// value against.
    probe: fn(&[Arg]) -> Result<Probe, String>,
    refuses: fn(&[Arg]) -> bool,
}

/// Every operator, in the generator's draw order.
pub static SPECS: [OperatorSpec; 5] = [
    OperatorSpec {
        name: "Contains",
        col: Col::Doc,
        join_arg: "doc",
        indextypes: &[("TextIndexType", &["", ":ScanMode PRECOMPUTE", ":ScanMode INCREMENTAL"])],
        ancillary: true,
        share: 22,
        value: |g, _| GenCell::Doc(Some(g.corpus.document(8))),
        create: |g| {
            let params = SPECS[0].indextypes[0].1[g.rng.gen_range(0..3u32) as usize];
            create_tail("doc", "TextIndexType", params)
        },
        draw: |g, null_lit| {
            let query = (!null_lit).then(|| text_query(g));
            atom(&SPECS[0], vec![Arg::Str(query)])
        },
        probe: |args| {
            let Some(q) = args[0].text() else { return Ok(Probe::Null) };
            parse_query(q).map(Probe::Text).map_err(|e| e.to_string())
        },
        refuses: |_| false,
    },
    OperatorSpec {
        name: "Sdo_Relate",
        col: Col::Geom,
        join_arg: "geom",
        indextypes: &[("SpatialIndexType", &[""]), ("RtreeIndexType", &[""])],
        ancillary: false,
        share: 18,
        value: |g, _| GenCell::Geom(Some(g.spatial.rect(2.0, 25.0))),
        create: |g| {
            let it = if g.rng.gen_bool(0.5) { "SpatialIndexType" } else { "RtreeIndexType" };
            create_tail("geom", it, "")
        },
        draw: |g, null_lit| {
            let window = (!null_lit).then(|| g.spatial.rect(5.0, 45.0));
            let mask = MASKS[g.rng.gen_range(0..MASKS.len())];
            let mut a = atom(&SPECS[1], vec![Arg::Geom(window), Arg::Str(Some(format!("mask={mask}")))]);
            a.col_second = g.edge_rng.gen_bool(0.5);
            a
        },
        probe: |args| {
            let Arg::Geom(Some(w)) = &args[0] else { return Ok(Probe::Null) };
            let mask = Mask::parse(args[1].text().expect("a mask")).map_err(|e| e.to_string())?;
            Ok(Probe::Relate(w.clone(), mask))
        },
        refuses: |_| false,
    },
    OperatorSpec {
        name: "VirSimilar",
        col: Col::Img,
        join_arg: "img.signature",
        indextypes: &[("VirIndexType", &[""])],
        ancillary: false,
        share: 14,
        value: |g, _| GenCell::Img(Some(signature(g))),
        create: |_| create_tail("img", "VirIndexType", ""),
        draw: draw_vir,
        probe: |args| {
            let (Some(q), &Arg::Num(t, _)) = (args[0].text(), &args[2]) else {
                return Ok(Probe::Null);
            };
            let w = Weights::parse(args[1].text().expect("weights")).map_err(|e| e.to_string())?;
            Ok(Probe::Vir(Signature::deserialize(q).expect("query signatures parse"), w, t))
        },
        refuses: |args| Weights::parse(args[1].text().expect("weights")).is_err(),
    },
    OperatorSpec {
        name: "MolContains",
        col: Col::Mol,
        join_arg: "mol",
        indextypes: &[("ChemIndexType", CHEM_PARAMS)],
        ancillary: false,
        share: 14,
        value: |g, fresh| {
            let mol = if fresh && g.rng.gen_bool(0.5) {
                let f = g.frags[g.rng.gen_range(0..g.frags.len())].clone();
                g.mols.molecule_containing(&f, 4)
            } else {
                g.mols.molecule(8)
            };
            GenCell::Mol(Some(mol))
        },
        create: |g| {
            // Only a serial stream stores an index in files: a reader
            // pinned under a FILE store can answer wrongly. A file store
            // rewrites its file on every change, so it is an eighth of the
            // draws, not half.
            let n = if g.file_store && g.edge_rng.gen_bool(0.25) { CHEM_PARAMS.len() } else { 2 };
            create_tail("mol", "ChemIndexType", CHEM_PARAMS[g.edge_rng.gen_range(0..n)])
        },
        draw: |g, null_lit| {
            let frag = (!null_lit).then(|| g.frags[g.rng.gen_range(0..g.frags.len())].clone());
            atom(&SPECS[3], vec![Arg::Str(frag)])
        },
        probe: |args| {
            let Some(f) = args[0].text() else { return Ok(Probe::Null) };
            Ok(Probe::Substructure(Mutex::new(Substructure::new(&molecule(f)))))
        },
        refuses: |_| false,
    },
    OperatorSpec {
        name: "MolSimilar",
        col: Col::Mol,
        join_arg: "mol",
        indextypes: &[("ChemIndexType", CHEM_PARAMS)],
        ancillary: false,
        share: 10,
        value: |g, fresh| (SPECS[3].value)(g, fresh),
        create: |g| (SPECS[3].create)(g),
        draw: |g, _| {
            let query = g.mols.molecule(6);
            let mut threshold = Arg::Num(g.rng.gen_range(10..80i64) as f64 / 100.0, Some(2));
            // A threshold equal to a stored molecule's similarity: `>=`
            // and `>` differ on exactly that row.
            if !g.mol_pool.is_empty() && g.edge_rng.gen_bool(0.25) {
                let stored = &g.mol_pool[g.edge_rng.gen_range(0..g.mol_pool.len())];
                threshold = Arg::Num(fingerprint(stored).tanimoto(&fingerprint(&query)), None);
            }
            atom(&SPECS[4], vec![Arg::Str(Some(query)), threshold])
        },
        probe: |args| {
            let (Some(q), &Arg::Num(t, _)) = (args[0].text(), &args[1]) else {
                return Ok(Probe::Null);
            };
            Ok(Probe::Similar(fingerprint(q), t))
        },
        refuses: |_| false,
    },
];

const MASKS: [&str; 6] = ["ANYINTERACT", "OVERLAPS", "INSIDE", "CONTAINS", "EQUAL", "TOUCH"];
const WEIGHTS: [&str; 3] = ["", "globalcolor=1.0", "globalcolor=0.5, texture=0.5"];
/// A weight list whose ratios are inexact in binary (`threshold / w`
/// rounds), drawn in place of a [`WEIGHTS`] entry a quarter of the time.
const INEXACT_WEIGHTS: &str = "globalcolor=0.3, localcolor=0.3, texture=0.4";
/// Weight lists at the edge: all zero (no channel discriminates), and a
/// negative and a NaN weight, which the operator refuses.
const EDGE_WEIGHTS: [&str; 3] =
    ["globalcolor=0.0", "globalcolor=-0.5, texture=1.5", "globalcolor=0.5, texture=NaN"];
/// The chem store variants; the first two keep the index in the database.
const CHEM_PARAMS: &[&str] = &["", ":Storage LOB", ":Storage FILE", ":Storage FILE :Events ON"];

/// The spec of the first operator on `col`: who draws its values and its
/// index.
pub(crate) fn column_spec(col: Col) -> &'static OperatorSpec {
    SPECS.iter().find(|s| s.col == col).expect("an indexed column")
}

fn atom(spec: &'static OperatorSpec, args: Vec<Arg>) -> OpAtom {
    OpAtom::new(spec, args)
}

fn create_tail(col: &str, indextype: &str, params: &str) -> String {
    match params {
        "" => format!("({col}) INDEXTYPE IS {indextype}"),
        p => format!("({col}) INDEXTYPE IS {indextype} PARAMETERS ('{p}')"),
    }
}

fn molecule(s: &str) -> Molecule {
    Molecule::parse(s).expect("generated molecule parses")
}

fn fingerprint(s: &str) -> Fingerprint {
    Fingerprint::of(&molecule(s))
}

fn text_query(g: &mut WorkloadGen) -> String {
    let term = |g: &mut WorkloadGen| {
        let rank = g.rng.gen_range(0..g.corpus.vocab_size());
        g.corpus.term(rank).to_string()
    };
    let a = term(g);
    match g.rng.gen_range(0..4u32) {
        0 => a,
        1 => format!("{a} AND {}", term(g)),
        2 => format!("{a} OR {}", term(g)),
        _ => format!("{a} AND NOT {}", term(g)),
    }
}

/// Signature text with every value at full precision.
fn full_precision(vals: impl Iterator<Item = f64>) -> String {
    vals.map(|v| v.to_string()).collect::<Vec<_>>().join(",")
}

/// A random signature's text: the generators' 3-decimal form, or half the
/// time every value at full precision (a copy rounded to 3 decimals
/// compares differently near a threshold).
fn signature(g: &mut WorkloadGen) -> String {
    let sig = g.sigs.random();
    if g.vir_rng.gen_bool(0.5) {
        sig.serialize()
    } else {
        full_precision(sig.channels.iter().flatten().copied())
    }
}

fn draw_vir(g: &mut WorkloadGen, null_lit: bool) -> OpAtom {
    let pooled = !null_lit && !g.sig_pool.is_empty() && g.rng.gen_bool(0.5);
    let sig = if null_lit {
        None
    } else if pooled {
        Some(g.sig_pool[g.rng.gen_range(0..g.sig_pool.len())].clone())
    } else {
        Some(signature(g))
    };
    let mut weights = WEIGHTS[g.rng.gen_range(0..WEIGHTS.len())];
    if g.vir_rng.gen_bool(0.25) {
        weights = INEXACT_WEIGHTS;
    }
    let threshold = g.rng.gen_range(50..800i64) as f64 / 10.0;
    // Half the pooled queries sit within 0.00005 of the threshold from
    // their image, where a copy of the image rounded to 3 decimals answers
    // differently. Every weight list above sums to 1, so the query's
    // distance from the image is the shift.
    let near = pooled && g.vir_rng.gen_bool(0.5);
    let sig = match sig {
        Some(image) if near => {
            let sig = Signature::deserialize(&image).expect("pooled signatures parse");
            let shift = threshold + g.vir_rng.gen_range(-0.00005..0.00005);
            Some(full_precision(sig.channels.iter().flatten().map(|v| v + shift)))
        }
        sig => sig,
    };
    if g.edge_rng.gen_bool(0.15) {
        weights = EDGE_WEIGHTS[g.edge_rng.gen_range(0..EDGE_WEIGHTS.len())];
    }
    let mut threshold = Arg::Num(threshold, Some(1));
    // A threshold equal to a stored image's distance from the query: `<=`
    // and `<` differ on exactly that image.
    let mut at_stored = false;
    if let (Some(q), false) = (&sig, near || g.sig_pool.is_empty()) {
        if g.edge_rng.gen_bool(0.25) {
            let image = &g.sig_pool[g.edge_rng.gen_range(0..g.sig_pool.len())];
            if let Ok(w) = Weights::parse(weights) {
                let (s, q) = (Signature::deserialize(image), Signature::deserialize(q));
                threshold = Arg::Num(s.expect("pooled").distance(&q.expect("query"), &w), None);
                at_stored = true;
            }
        }
    }
    let a = atom(&SPECS[2], vec![Arg::Str(sig), Arg::Str(Some(weights.into())), threshold]);
    // An atom at its threshold from a stored image, or a refused one, is
    // its query's whole predicate: ANDed with others, the one row whose
    // answer it flips rarely survives them, and a refusal would show only
    // where it is reached.
    if (near || at_stored || a.refused()) && g.whole_atom.is_none() {
        g.whole_atom = Some(a.clone());
    }
    a
}

// ---- fixtures ------------------------------------------------------------

/// One indextype's fixture for the fault and crash matrices: a small
/// table, its domain index and a B-tree, DML statements that each touch
/// several rows (so a mid-statement fault leaves completed maintenance
/// calls behind that the statement's rollback must reverse), the probes
/// that read the index back, and the cartridge-internal fault points.
pub struct Rig {
    pub name: &'static str,
    /// The indextype, as fault points name it.
    pub indextype: &'static str,
    pub table: &'static str,
    /// The domain index's catalog name.
    pub index: &'static str,
    /// The index keeps its data in external files.
    pub file_backed: bool,
    /// Table, rows and indexes, in order.
    pub setup: Vec<String>,
    /// `(label, sql)`: an insert, an update and a delete.
    pub dmls: Vec<(&'static str, String)>,
    pub probes: Vec<String>,
    /// Fault points inside the cartridge (armed with no indextype filter).
    pub internal_points: Vec<&'static str>,
    /// The key column, the indexed column and which operators' column it is.
    key: &'static str,
    column: &'static str,
    col: Col,
    /// The rows `setup` inserts, keyed 1, 2, 3.
    rows: Vec<GenCell>,
}

impl Rig {
    /// The crossings a fault is armed at: the maintenance routines, for
    /// this indextype, and the cartridge-internal points.
    pub fn crossings(&self) -> Vec<(&'static str, Option<&'static str>)> {
        let routines = ["ODCIIndexInsert", "ODCIIndexUpdate", "ODCIIndexDelete"];
        let routines = routines.map(|r| (r, Some(self.indextype)));
        routines.into_iter().chain(self.internal_points.iter().map(|p| (*p, None))).collect()
    }

    /// Create the fixture in `db`, which has the cartridges installed.
    pub fn load(&self, db: &mut Database) {
        for sql in &self.setup {
            db.execute(sql).unwrap_or_else(|e| panic!("{}: {sql}: {e}", self.name));
        }
    }

    /// A seeded stream of random DML and probes over the loaded fixture.
    pub fn stream(&self, seed: u64) -> RigStream<'_> {
        let rows: BTreeMap<i64, ModelRow> =
            (1..).zip(&self.rows).map(|(k, v)| (k, keyed(k, v))).collect();
        let (g, next_key) = (WorkloadGen::new(seed, false), rows.len() as i64 + 1);
        RigStream { rig: self, g, next_key, rows, begun: None }
    }
}

/// A row of [`RigStream`]'s model, with its stored value parsed once.
type ModelRow = (GenRow, Option<Parsed>);

/// A model row holding only `cell`, under `key`.
fn keyed(key: i64, cell: &GenCell) -> ModelRow {
    let mut row = GenRow { id: key, doc: None, geom: None, img: None, mol: None, num: None };
    apply_cell(&mut row, cell);
    let parsed = Parsed::of(&row, cell.col());
    (row, parsed)
}

/// Single-row DML over a [`Rig`]'s table — inserts under fresh keys,
/// updates and deletes of a random key (present or not), values drawn by
/// the column's spec with the generator's NULL rate — and probes drawn by
/// every operator on the column, answered by the mirror over the rows the
/// statements that succeeded left. The functional `NO_INDEX` path is the
/// differential oracle's to check; here the index answers the mirror.
pub struct RigStream<'r> {
    rig: &'r Rig,
    g: WorkloadGen,
    rows: BTreeMap<i64, ModelRow>,
    next_key: i64,
    /// The rows at `BEGIN`, while a transaction is open.
    begun: Option<BTreeMap<i64, ModelRow>>,
}

impl RigStream<'_> {
    /// Run the next DML statement on `db`; the model follows it only if it
    /// succeeds (a failed statement must leave no trace).
    pub fn execute(&mut self, db: &mut Database) -> Result<(), Error> {
        let Rig { table: t, key, column, col, .. } = *self.rig;
        let fresh = self.g.rng.gen_range(0..3u32) == 0 || self.rows.is_empty();
        let k = if fresh { self.next_key } else { self.g.rng.gen_range(1..self.next_key) };
        let delete = !fresh && self.g.rng.gen_bool(0.5);
        let cell = if delete {
            None
        } else if self.g.rng.gen_bool(NULL_P) {
            Some(GenCell::null(col))
        } else {
            Some((column_spec(col).value)(&mut self.g, fresh))
        };
        let sql = match &cell {
            None => format!("DELETE FROM {t} WHERE {key} = {k}"),
            Some(v) if fresh => format!("INSERT INTO {t} VALUES ({k}, {})", v.sql()),
            Some(v) => format!("UPDATE {t} SET {column} = {} WHERE {key} = {k}", v.sql()),
        };
        db.execute(&sql)?;
        match cell {
            None => drop(self.rows.remove(&k)),
            Some(v) => {
                self.g.remember(&v);
                if fresh {
                    self.next_key += 1;
                    self.rows.insert(k, keyed(k, &v));
                } else if let Some((row, parsed)) = self.rows.get_mut(&k) {
                    apply_cell(row, &v);
                    *parsed = Parsed::of(row, col);
                }
            }
        }
        Ok(())
    }

    /// `BEGIN` outside a transaction; inside one, `COMMIT` or `ROLLBACK`,
    /// which takes the model back to the rows at `BEGIN`.
    pub fn toggle_transaction(&mut self, db: &mut Database, commit: bool) -> Result<(), Error> {
        let sql = match self.begun.take() {
            None => {
                self.begun = Some(self.rows.clone());
                "BEGIN"
            }
            Some(_) if commit => "COMMIT",
            Some(rows) => {
                self.rows = rows;
                "ROLLBACK"
            }
        };
        db.execute(sql).map(drop)
    }

    /// Draw an operator query on the column that the operator does not
    /// refuse, with no NULL argument, and run it forced through the domain
    /// index: `Err` unless it answers the keys the mirror does.
    pub fn check(&mut self, db: &mut Database) -> Result<(), String> {
        let Rig { table: t, key, column, col, index, .. } = *self.rig;
        let specs: Vec<&OperatorSpec> = SPECS.iter().filter(|s| s.col == col).collect();
        let atom = loop {
            let atom = (specs[self.g.rng.gen_range(0..specs.len())].draw)(&mut self.g, false);
            self.g.whole_atom = None;
            if !atom.refused() {
                break atom;
            }
        };
        let pred = atom.render(column, &atom.args[0].sql());
        let want: Vec<i64> = (self.rows.values())
            .filter(|(r, parsed)| atom.holds_parsed(r, parsed.as_ref()) == Ok(Some(true)))
            .map(|(r, _)| r.id)
            .collect();
        let sql = format!("SELECT /*+ INDEX({t} {index}) */ {key} FROM {t} WHERE {pred}");
        let rows = db.query(&sql).map_err(|e| format!("{sql}: {e}"))?;
        let mut got: Vec<i64> = rows.iter().map(|r| r[0].as_integer().expect("key")).collect();
        got.sort_unstable();
        if got != want {
            return Err(format!("{sql}: got {got:?}, the mirror {want:?}"));
        }
        Ok(())
    }
}

/// Every indextype's fixture, the chem one per storage variant.
pub fn rigs() -> Vec<Rig> {
    vec![
        text_rig(),
        spatial_rig("SpatialIndexType"),
        spatial_rig("RtreeIndexType"),
        vir_rig(),
        chem_rig(":Storage LOB"),
        chem_rig(":Storage FILE :Events ON"),
    ]
}

/// The fixture named `name`.
pub fn named_rig(name: &str) -> Rig {
    rigs().into_iter().find(|r| r.name == name).expect("a named rig")
}

/// The fixture over `table (key INTEGER, col ty)`: rows 1–3 of `vals`, the
/// domain index (`using` names its indextype) and a B-tree on the key; DML
/// inserting rows 10–12 of `vals`, setting `col` to `vals[6]` where the key
/// is at least 2 and deleting those rows; probes `ops` and the row of key 2.
fn fixture(
    (name, indextype, index): (&'static str, &'static str, &'static str),
    using: &str,
    (table, key, column, ty): (&'static str, &'static str, &'static str, &str),
    vals: [GenCell; 7],
    ops: &[&str],
    internal_points: Vec<&'static str>,
) -> Rig {
    let mut setup = vec![format!("CREATE TABLE {table} ({key} INTEGER, {column} {ty})")];
    let insert = |i: usize, key| format!("({key}, {})", vals[i].sql());
    setup.extend((0..3).map(|i| format!("INSERT INTO {table} VALUES {}", insert(i, i + 1))));
    setup.push(format!("CREATE INDEX {index} ON {table}({column}) INDEXTYPE IS {using}"));
    setup.push(format!("CREATE INDEX {index}_{key} ON {table}({key})"));
    let rows: Vec<String> = (3..6).map(|i| insert(i, i + 7)).collect();
    let dmls = vec![
        ("insert", format!("INSERT INTO {table} VALUES {}", rows.join(", "))),
        ("update", format!("UPDATE {table} SET {column} = {} WHERE {key} >= 2", vals[6].sql())),
        ("delete", format!("DELETE FROM {table} WHERE {key} >= 2")),
    ];
    let mut probes: Vec<String> =
        ops.iter().map(|op| format!("SELECT {key} FROM {table} WHERE {op}")).collect();
    probes.push(format!("SELECT {column} FROM {table} WHERE {key} = 2"));
    Rig {
        name,
        indextype,
        table,
        index,
        file_backed: using.contains("FILE"),
        setup,
        dmls,
        probes,
        internal_points,
        key,
        column,
        col: vals[0].col(),
        rows: vals[..3].to_vec(),
    }
}

fn text_rig() -> Rig {
    let docs = ["ale under the gorse", "cole and dun ferries", "gorse hale erg", "fyn brix gorse"];
    let docs = docs.into_iter().chain(["ale cole", "dun erg hale", "brix fyn rewritten"]);
    fixture(
        ("text", "TEXTINDEXTYPE", "DT"),
        "TextIndexType",
        ("docs", "id", "body", "VARCHAR2(200)"),
        docs.map(|d| GenCell::Doc(Some(d.into()))).collect::<Vec<_>>().try_into().expect("seven"),
        &["Contains(body, 'gorse')", "Contains(body, 'ale OR dun')"],
        vec!["text.maintenance.indexed", "text.maintenance.reindex", "text.maintenance.unindexed"],
    )
}

fn spatial_rig(indextype: &'static str) -> Rig {
    let mut wl = SpatialWorkload::new(800.0, 41);
    let vals: [GenCell; 7] = std::array::from_fn(|_| GenCell::Geom(Some(wl.rect(5.0, 50.0))));
    let window = geometry_sql(&wl.rect(200.0, 700.0));
    let (rig, points) = if indextype.starts_with("Rtree") {
        (("rtree", "RTREEINDEXTYPE", "SX"), ["rtree.maintenance.indexed", "rtree.maintenance.reindex"])
    } else {
        let points = ["spatial.maintenance.indexed", "spatial.maintenance.reindex"];
        (("spatial", "SPATIALINDEXTYPE", "SX"), points)
    };
    let window = format!("Sdo_Relate(geometry, {window}, 'mask=ANYINTERACT')");
    let table = ("parcels", "gid", "geometry", "SDO_GEOMETRY");
    fixture(rig, indextype, table, vals, &[&window], points.into())
}

fn vir_rig() -> Rig {
    let mut wl = SignatureWorkload::new(17);
    let base = wl.random();
    let mut sigs: Vec<_> = (0..3).map(|_| wl.near_duplicate(&base, 0.3)).collect();
    sigs.extend([wl.near_duplicate(&base, 0.4), wl.random(), wl.near_duplicate(&base, 0.2)]);
    sigs.push(wl.random());
    let vals = sigs.iter().map(|s| GenCell::Img(Some(s.serialize())));
    fixture(
        ("vir", "VIRINDEXTYPE", "AX"),
        "VirIndexType",
        ("assets", "id", "img", "VIR_IMAGE"),
        vals.collect::<Vec<_>>().try_into().expect("seven images"),
        &[&format!("VirSimilar(img, '{}', 'globalcolor=0.5, texture=0.5', 2.5)", base.serialize())],
        vec!["vir.maintenance.indexed", "vir.maintenance.reindex"],
    )
}

/// The chem fixture over the index store `params` names: the LOB store
/// (`chem-lob`), or the external file with the §5 events (`chem-file`) or
/// without them (`chem-file-no-events`). A failed statement puts the file
/// back from its image either way; a transaction `ROLLBACK` reaches the
/// file only through the Rollback event.
pub fn chem_rig(params: &'static str) -> Rig {
    let mols = ["CC(=O)N", "CCO", "CCN", "CC(=O)NC", "CCCO", "NCCN", "CC(=O)O"];
    let name = match params {
        p if !p.contains("FILE") => "chem-lob",
        p if p.contains("Events") => "chem-file",
        _ => "chem-file-no-events",
    };
    fixture(
        (name, "CHEMINDEXTYPE", "CX"),
        &format!("ChemIndexType PARAMETERS ('{params}')"),
        ("compounds", "id", "mol", "VARCHAR2(256)"),
        mols.map(|m| GenCell::Mol(Some(m.into()))),
        &["MolContains(mol, 'CC(=O)N')", "MolContains(mol, 'CCO')"],
        vec!["chem.maintenance.indexed", "chem.maintenance.reindex", "chem.maintenance.unindexed"],
    )
}

/// Everything a client can observe, deterministically: every cataloged
/// table's rows (the DR$ index-storage tables included), every external
/// file's length, and each probe's rows. Equal observations mean base
/// table, B-tree path and domain index agree byte for byte.
pub fn observe(db: &mut Database, probes: &[String]) -> Vec<String> {
    let mut tables = db.catalog().table_names();
    tables.sort();
    let mut files = db.storage().files_ref().list();
    files.sort();
    let mut out: Vec<String> = files
        .iter()
        .map(|f| format!("file {f}: {} bytes", db.storage().files_ref().length(f).unwrap_or(u64::MAX)))
        .collect();
    for sql in tables.iter().map(|t| format!("SELECT * FROM {t}")).chain(probes.iter().cloned()) {
        let rows = db.query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        out.push(format!("{sql}: {}", rows.join(" | ")));
    }
    out
}
