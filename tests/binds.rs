//! Binds are evaluated, not spliced (DESIGN.md §4m).
//!
//! A `?` stays a placeholder from the parser to the executor: it is a
//! constant known when the statement runs, sargable wherever a literal is,
//! and it answers exactly what the literal would — also when the plan was
//! cached for other values. Most cases here first run a text until the
//! statement cache serves it, then bind the value under test.

use extidx::chem::MoleculeWorkload;
use extidx::common::{Error, Value};
use extidx::spatial::{geometry_sql, SpatialWorkload};
use extidx::sql::Database;
use extidx::text::CorpusGenerator;
use extidx::vir::SignatureWorkload;
use extidx_qgen::fresh_db;

type Rows = Vec<Vec<Value>>;

fn sorted(mut rows: Rows) -> Rows {
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

/// Run `sql` with `warm` until the statement cache serves its plan (it is
/// kept from its second execution), then answer it with `binds`.
fn cached_then(db: &mut Database, sql: &str, warm: &[Value], binds: &[Value]) -> Rows {
    for _ in 0..3 {
        db.query_with(sql, warm).unwrap_or_else(|e| panic!("{sql} with {warm:?}: {e}"));
    }
    sorted(db.query_with(sql, binds).unwrap_or_else(|e| panic!("{sql} with {binds:?}: {e}")))
}

fn literal(db: &mut Database, sql: &str) -> Rows {
    sorted(db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}")))
}

/// `kv(k, seq, v, PRIMARY KEY (k, seq))` with k in 0..500 and four `seq`
/// per k, plus a NULL-keyed row per `seq`; and `t(id, k)` with a B-tree on
/// `k`, 4000 rows, every 50th `k` NULL.
fn keyed_db() -> Database {
    let mut db = Database::with_cache_pages(2048);
    db.execute(
        "CREATE TABLE kv (k INTEGER, seq INTEGER, v VARCHAR2(8), PRIMARY KEY (k, seq)) \
         ORGANIZATION INDEX",
    )
    .unwrap();
    let insert = "INSERT INTO kv VALUES (?, ?, ?)";
    for k in 0..500i64 {
        for seq in 0..4i64 {
            db.execute_with(insert, &[k.into(), seq.into(), "x".into()]).unwrap();
        }
    }
    for seq in 0..4i64 {
        db.execute_with(insert, &[Value::Null, seq.into(), "null".into()]).unwrap();
    }
    db.execute("CREATE TABLE t (id INTEGER, k INTEGER)").unwrap();
    for i in 0..4000i64 {
        let k = if i % 50 == 0 { Value::Null } else { Value::Integer(i % 400) };
        db.execute_with("INSERT INTO t VALUES (?, ?)", &[i.into(), k]).unwrap();
    }
    db.execute("CREATE INDEX t_k ON t(k)").unwrap();
    db
}

/// A NULL bind on a key equality selects nothing (`k = NULL` is never
/// true), on an IOT key probe and on a B-tree probe alike — NULL keys are
/// stored in both tables.
#[test]
fn a_null_bind_on_a_key_selects_nothing() {
    let mut db = keyed_db();
    let iot = "SELECT v FROM kv WHERE k = ? AND seq = ?";
    let null_k = cached_then(&mut db, iot, &[5.into(), 1.into()], &[Value::Null, 1.into()]);
    assert_eq!(null_k, literal(&mut db, "SELECT v FROM kv WHERE k = NULL AND seq = 1"));
    assert!(null_k.is_empty());
    assert!(db.query_with(iot, &[5.into(), Value::Null]).unwrap().is_empty());

    let btree = "SELECT id FROM t WHERE k = ?";
    let null_k = cached_then(&mut db, btree, &[7.into()], &[Value::Null]);
    assert_eq!(null_k, literal(&mut db, "SELECT id FROM t WHERE k = NULL"));
    assert!(null_k.is_empty());
}

/// A reversed `BETWEEN ? AND ?` selects nothing and does not panic, over
/// an IOT key range, a B-tree range and a zone-pruned full scan.
#[test]
fn a_reversed_between_of_binds_selects_nothing() {
    let mut db = keyed_db();
    for sql in [
        "SELECT v FROM kv WHERE k BETWEEN ? AND ?",
        "SELECT id FROM t WHERE k BETWEEN ? AND ?",
        "SELECT k FROM t WHERE id BETWEEN ? AND ?",
    ] {
        let reversed = cached_then(&mut db, sql, &[3.into(), 7.into()], &[7.into(), 3.into()]);
        assert!(reversed.is_empty(), "{sql}: {reversed:?}");
        let twin = sql.replacen("BETWEEN ? AND ?", "BETWEEN 7 AND 3", 1);
        assert_eq!(reversed, literal(&mut db, &twin), "{sql}");
        // And the cached plan still answers a forward range in full.
        let forward = sorted(db.query_with(sql, &[3.into(), 7.into()]).unwrap());
        assert_eq!(forward, literal(&mut db, &sql.replacen("BETWEEN ? AND ?", "BETWEEN 3 AND 7", 1)));
        assert!(!forward.is_empty(), "{sql}");
    }
}

/// `ROWID = ?` is a rowid fetch whatever the bind holds: a stale rowid, a
/// NULL or a value that is no rowid fetch nothing.
#[test]
fn a_stale_rowid_bind_fetches_nothing() {
    let mut db = keyed_db();
    let rid = |db: &mut Database, id: i64| {
        db.query_with("SELECT ROWID FROM t WHERE id = ?", &[id.into()]).unwrap()[0][0].clone()
    };
    let (live, doomed) = (rid(&mut db, 11), rid(&mut db, 12));
    let sql = "SELECT id FROM t WHERE ROWID = ?";
    let (live, doomed) = ([live], [doomed]);
    assert_eq!(cached_then(&mut db, sql, &live, &doomed), vec![vec![12.into()]]);
    db.execute_with("DELETE FROM t WHERE ROWID = ?", &doomed).unwrap();
    assert!(db.query_with(sql, &doomed).unwrap().is_empty(), "a deleted row's rowid");
    assert!(db.query_with(sql, &[Value::Null]).unwrap().is_empty());
    assert!(db.query_with(sql, &["not a rowid".into()]).unwrap().is_empty());
    assert_eq!(db.query_with(sql, &live).unwrap(), vec![vec![Value::Integer(11)]]);
}

/// Too few binds is a semantic error when the statement runs — even when
/// no row would ever evaluate the missing placeholder, and before a DML
/// statement changes anything.
#[test]
fn too_few_binds_is_a_semantic_error() {
    let mut db = keyed_db();
    db.execute("CREATE TABLE empty (a INTEGER, b INTEGER)").unwrap();
    let err = db.query_with("SELECT a FROM empty WHERE a = ? AND b = ?", &[1.into()]).unwrap_err();
    assert!(matches!(err, Error::Semantic(_)), "{err}");
    assert!(err.to_string().contains("bind placeholder 1 has no value (1 supplied)"), "{err}");

    let before = db.query("SELECT COUNT(*) FROM t").unwrap();
    let err = db.execute_with("DELETE FROM t WHERE k = ? OR id = ?", &[3.into()]).unwrap_err();
    assert!(matches!(err, Error::Semantic(_)), "{err}");
    assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap(), before, "nothing was deleted");
}

/// Every cartridge's storage tables, populated: `f` carries a text, a
/// spatial (tile), an R-tree, a VIR and a chem index.
fn cartridge_db() -> Database {
    let mut db = fresh_db();
    db.execute(
        "CREATE TABLE f (id INTEGER, doc VARCHAR2(4000), geom SDO_GEOMETRY, \
         box SDO_GEOMETRY, img VIR_IMAGE, mol VARCHAR2(400))",
    )
    .unwrap();
    let mut corpus = CorpusGenerator::new(50, 1.1, 7);
    let mut space = SpatialWorkload::new(100.0, 7);
    let mut sigs = SignatureWorkload::new(7);
    let mut mols = MoleculeWorkload::new(7);
    for id in 0..400 {
        let (geom, bx) = (geometry_sql(&space.rect(2.0, 25.0)), geometry_sql(&space.rect(2.0, 25.0)));
        let (doc, sig, mol) = (corpus.document(8), sigs.random().serialize(), mols.molecule(8));
        db.execute(&format!(
            "INSERT INTO f VALUES ({id}, '{doc}', {geom}, {bx}, VIR_IMAGE('{sig}'), '{mol}')"
        ))
        .unwrap();
    }
    for ddl in [
        "CREATE INDEX ft ON f(doc) INDEXTYPE IS TextIndexType",
        "CREATE INDEX fs ON f(geom) INDEXTYPE IS SpatialIndexType",
        "CREATE INDEX fr ON f(box) INDEXTYPE IS RtreeIndexType",
        "CREATE INDEX fv ON f(img) INDEXTYPE IS VirIndexType",
        "CREATE INDEX fc ON f(mol) INDEXTYPE IS ChemIndexType",
    ] {
        db.execute(ddl).unwrap();
    }
    db
}

/// A `?` in the label place of an indexed `Contains(doc, ?, ?)` scores
/// like its literal: a bind naming the label a `SCORE(n)` reads forces the
/// domain scan and feeds that score, any other value does not — whichever
/// label the cached plan was made for.
#[test]
fn a_bound_score_label_scores_like_its_literal() {
    let mut db = cartridge_db();
    let token = db.query("SELECT token FROM DR$FT$I").unwrap()[0][0].to_string();
    let sql = "SELECT id, SCORE(1) FROM f WHERE Contains(doc, ?, ?)";
    // Planned first for a value that is no label, then for the label, and
    // back: each switch must replan.
    for label in [2i64, 2, 2, 1, 1, 2, 1] {
        let bound = sorted(db.query_with(sql, &[token.clone().into(), label.into()]).unwrap());
        let twin = format!("SELECT id, SCORE(1) FROM f WHERE Contains(doc, '{token}', {label})");
        assert_eq!(bound, literal(&mut db, &twin), "label {label}");
        assert!(!bound.is_empty(), "{token}");
        let scored = bound.iter().any(|r| r[1] != Value::Number(0.0));
        assert_eq!(scored, label == 1, "label {label}: {bound:?}");
    }
}

fn explain_with(db: &mut Database, sql: &str, binds: &[Value]) -> Vec<String> {
    let rows = db.query_with(&format!("EXPLAIN {sql}"), binds).unwrap_or_else(|e| panic!("{sql}: {e}"));
    rows.iter().map(|r| r[0].to_string()).collect()
}

/// A plan's nodes without their bounds, terms and estimates:
/// `["PROJECT", "IOT RANGE DR$FT$I"]`.
fn shape(plan: &[String]) -> Vec<String> {
    let node = |w: &&str| {
        w.starts_with(|c: char| c.is_ascii_uppercase())
            && w.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || "$_".contains(c))
    };
    plan.iter().map(|l| l.split_whitespace().take_while(node).collect::<Vec<_>>().join(" ")).collect()
}

/// With binds, every key-probe callback shape over the cartridges' index
/// tables takes the access path its literal form takes — and where a rowid
/// makes a literal form unwritable, the key probe or rowid fetch it must.
/// (Scans read these tables by `read_key_range` now; the ODCIStats
/// routines, the legacy baselines and maintenance still issue such SQL.)
#[test]
fn callback_shapes_plan_with_binds_as_with_literals() {
    let mut db = cartridge_db();
    let rid = db.query("SELECT ROWID FROM f WHERE id = 3").unwrap()[0][0].clone();
    let token = db.query("SELECT token FROM DR$FT$I").unwrap()[0][0].clone();
    let tile = db.query("SELECT tile FROM DR$FS$T").unwrap()[0][0].clone();
    for (bound, binds, literal) in [
        ("SELECT rid, freq FROM DR$FT$I WHERE token = ?", vec![token.clone()], format!("token = '{token}'")),
        ("SELECT rid FROM DR$FS$T WHERE tile = ?", vec![tile.clone()], format!("tile = {tile}")),
        ("SELECT payload FROM DR$FR$R WHERE nodeid = ?", vec![1.into()], "nodeid = 1".into()),
        (
            "SELECT q1, rid FROM DR$FV$S WHERE q1 BETWEEN ? AND ?",
            vec![Value::Number(0.2), Value::Number(0.3)],
            "q1 BETWEEN 0.2 AND 0.3".into(),
        ),
    ] {
        let with_binds = explain_with(&mut db, bound, &binds);
        let twin = format!("{} WHERE {literal}", bound.split(" WHERE ").next().unwrap());
        let with_literals = explain_with(&mut db, &twin, &[]);
        assert_eq!(shape(&with_binds), shape(&with_literals), "{bound}\n{with_binds:#?}\n{with_literals:#?}");
    }
    // The per-entry maintenance DELETE: both key columns pinned, a point
    // probe with nothing left to filter.
    let entry = explain_with(&mut db, "SELECT freq FROM DR$FT$I WHERE token = ? AND rid = ?", &[token, rid.clone()]);
    assert_eq!(shape(&entry), ["PROJECT", "IOT RANGE DR$FT$I"], "{entry:#?}");
    assert!(entry[1].contains("lo=Some(Key([Param(?0), Param(?1)])) hi=Some(Key([Param(?0), Param(?1)]))"));
    // The chem base-row fetch.
    let fetch = explain_with(&mut db, "SELECT MOL FROM F WHERE ROWID = ?", &[rid]);
    assert_eq!(shape(&fetch), ["PROJECT", "ROWID FETCH F"], "{fetch:#?}");
}
