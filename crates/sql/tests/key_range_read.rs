//! The key-range read contract (DESIGN.md §4d "The crossing"): the
//! engine's own `ServerContext::read_key_range` visits exactly the rows its
//! default body — one `SELECT * … WHERE key_col >= ? AND key_col <= ?` —
//! returns, in key order, on both lanes; it charges one tick per read
//! batch and counts one `KEY_RANGE_READS` per call; and it refuses a heap
//! table and every column but the leading key column.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::sync::Arc;

use extidx_common::{Error, Result, Row, RowId, Value};
use extidx_core::meta::{IndexInfo, OperatorCall};
use extidx_core::operator::ScalarFunction;
use extidx_core::params::ParamString;
use extidx_core::sandbox;
use extidx_core::scan::{FetchResult, ScanContext};
use extidx_core::server::{read_key_range_via_query, RowVisitor, ServerContext};
use extidx_core::stats::{IndexCost, OdciStats};
use extidx_core::OdciIndex;
use extidx_sql::Database;

/// One read: table, key column, lower and upper bound.
type Case = (&'static str, &'static str, Value, Value);

/// Both answers to one case on one lane: the native read's rows and tick
/// charge, and the default body's rows.
struct Answer {
    native: Result<Vec<Row>>,
    ticks: u64,
    default: Result<Vec<Row>>,
}

thread_local! {
    /// Per lane: each case's answers.
    static ANSWERS: RefCell<Vec<(&'static str, Vec<Answer>)>> =
        const { RefCell::new(Vec::new()) };
}

fn cases() -> Vec<Case> {
    let s = |v: &str| Value::from(v);
    vec![
        // A string prefix of the composite key `(token, rid)`: every longer
        // key sharing it, the NULL rid last, none of `ab` + more letters.
        ("WORDS", "token", s("ab"), s("ab")),
        ("WORDS", "token", s("ab"), s("abd")),
        // An integer span.
        ("TILES", "tile", Value::Integer(10), Value::Integer(20)),
        // A NUMBER span with infinite bounds: every row but the NULL key.
        ("SIGS", "q1", Value::Number(f64::NEG_INFINITY), Value::Number(f64::INFINITY)),
        ("SIGS", "q1", Value::Number(-1.5), Value::Number(2.25)),
        // Nothing: an empty range, a reversed one, NULL bounds.
        ("WORDS", "token", s("zz"), s("zz")),
        ("TILES", "tile", Value::Integer(20), Value::Integer(10)),
        ("TILES", "tile", Value::Null, Value::Integer(20)),
        ("SIGS", "q1", Value::Number(0.0), Value::Null),
    ]
}

/// Refused natively: a heap table, and a key column that is not leading.
fn refusals() -> Vec<Case> {
    vec![
        ("BASE", "v", Value::Integer(0), Value::Integer(9)),
        ("WORDS", "rid", Value::Integer(0), Value::Integer(9)),
    ]
}

fn collect(read: impl FnOnce(&mut RowVisitor) -> Result<()>) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    read(&mut |row| {
        rows.push(row.to_vec());
        Ok(())
    })?;
    Ok(rows)
}

fn answer_every_case(srv: &mut dyn ServerContext, lane: &'static str) {
    let answers = cases()
        .into_iter()
        .chain(refusals())
        .map(|(table, key, lo, hi)| {
            let before = sandbox::ticks_used();
            let native = collect(|v| srv.read_key_range(table, key, &lo, &hi, v));
            let ticks = sandbox::ticks_used() - before;
            let default = collect(|v| {
                read_key_range_via_query(&mut |sql, b| srv.query(sql, b), table, key, &lo, &hi, v)
            });
            Answer { native, ticks, default }
        })
        .collect();
    ANSWERS.with(|a| a.borrow_mut().push((lane, answers)));
}

struct Reader;

impl OdciIndex for Reader {
    fn create(&self, _: &mut dyn ServerContext, _: &IndexInfo) -> Result<()> {
        Ok(())
    }
    fn alter(&self, srv: &mut dyn ServerContext, _: &IndexInfo, _: &ParamString) -> Result<()> {
        answer_every_case(srv, "write");
        Ok(())
    }
    fn truncate(&self, _: &mut dyn ServerContext, _: &IndexInfo) -> Result<()> {
        Ok(())
    }
    fn drop_index(&self, _: &mut dyn ServerContext, _: &IndexInfo) -> Result<()> {
        Ok(())
    }
    fn insert(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: RowId, _: &Value) -> Result<()> {
        Ok(())
    }
    fn update(
        &self,
        _: &mut dyn ServerContext,
        _: &IndexInfo,
        _: RowId,
        _: &Value,
        _: &Value,
    ) -> Result<()> {
        Ok(())
    }
    fn delete(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: RowId, _: &Value) -> Result<()> {
        Ok(())
    }
    fn start(
        &self,
        srv: &mut dyn ServerContext,
        _: &IndexInfo,
        _: &OperatorCall,
    ) -> Result<ScanContext> {
        answer_every_case(srv, "read");
        Ok(ScanContext::State(Box::new(())))
    }
    fn fetch(
        &self,
        _: &mut dyn ServerContext,
        _: &IndexInfo,
        _: &mut ScanContext,
        _: usize,
    ) -> Result<FetchResult> {
        Ok(FetchResult::end())
    }
    fn close(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: ScanContext) -> Result<()> {
        Ok(())
    }
}

impl OdciStats for Reader {
    fn collect(&self, _: &mut dyn ServerContext, _: &IndexInfo) -> Result<()> {
        Ok(())
    }
    fn selectivity(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: &OperatorCall) -> Result<f64> {
        Ok(0.01)
    }
    fn index_cost(
        &self,
        _: &mut dyn ServerContext,
        _: &IndexInfo,
        _: &OperatorCall,
        _: f64,
    ) -> Result<IndexCost> {
        Ok(IndexCost { io_cost: 0.0, cpu_cost: 0.0 })
    }
}

const SCAN: &str = "SELECT /*+ INDEX(base ridx) */ v FROM base WHERE RMatch(v)";

/// Rows of `WORDS` with token `ab`: more than two read batches.
const AB_ROWS: i64 = 2_100;

fn reader_db() -> Database {
    let mut db = Database::new();
    let matches = ScalarFunction::new("RMatchFn", |_, _| Ok(Value::Boolean(true)));
    db.register_function(matches).unwrap();
    db.register_odci_implementation("Reader", Arc::new(Reader), Arc::new(Reader));
    db.execute("CREATE OPERATOR RMatch BINDING (INTEGER) RETURN BOOLEAN USING RMatchFn").unwrap();
    db.execute("CREATE INDEXTYPE ReaderType FOR RMatch(INTEGER) USING Reader").unwrap();
    db.execute("CREATE TABLE base (v INTEGER)").unwrap();
    db.execute("INSERT INTO base VALUES (1), (2)").unwrap();
    db.execute("CREATE INDEX ridx ON base(v) INDEXTYPE IS ReaderType").unwrap();

    db.execute(
        "CREATE TABLE words (token VARCHAR2(8), rid INTEGER, freq INTEGER, \
         PRIMARY KEY (token, rid)) ORGANIZATION INDEX",
    )
    .unwrap();
    let insert = "INSERT INTO words VALUES (?, ?, ?)";
    for rid in 0..AB_ROWS {
        db.execute_with(insert, &["ab".into(), rid.into(), (rid % 7).into()]).unwrap();
    }
    for (token, rid) in [("a", 1), ("aa", 2), ("abc", 3), ("abd", 4), ("abe", 5), ("b", 6)] {
        db.execute_with(insert, &[token.into(), rid.into(), 1.into()]).unwrap();
    }
    db.execute_with(insert, &["ab".into(), Value::Null, 9.into()]).unwrap();
    db.execute_with(insert, &[Value::Null, 7.into(), 9.into()]).unwrap();

    db.execute(
        "CREATE TABLE tiles (tile INTEGER, rid INTEGER, PRIMARY KEY (tile, rid)) \
         ORGANIZATION INDEX",
    )
    .unwrap();
    for tile in 0..40i64 {
        for rid in 0..3i64 {
            db.execute_with("INSERT INTO tiles VALUES (?, ?)", &[tile.into(), rid.into()]).unwrap();
        }
    }

    db.execute(
        "CREATE TABLE sigs (q1 NUMBER, rid INTEGER, q2 NUMBER, PRIMARY KEY (q1, rid)) \
         ORGANIZATION INDEX",
    )
    .unwrap();
    for i in 0..60i64 {
        let q1 = Value::Number((i as f64 - 30.0) * 0.25);
        db.execute_with("INSERT INTO sigs VALUES (?, ?, ?)", &[q1, i.into(), Value::Number(1.0)])
            .unwrap();
    }
    db.execute_with("INSERT INTO sigs VALUES (?, ?, ?)", &[Value::Null, 99.into(), Value::Null])
        .unwrap();
    db
}

fn key_range_reads(db: &mut Database) -> i64 {
    let sql = "SELECT VALUE FROM V$CACHE_STATS WHERE NAME = 'KEY_RANGE_READS'";
    db.query(sql).unwrap()[0][0].as_integer().unwrap()
}

/// Whether `rows` are in the order of their first `key_cols` columns.
fn in_key_order(rows: &[Row], key_cols: usize) -> bool {
    let key = |r: &Row| r[..key_cols].to_vec();
    rows.windows(2).all(|w| {
        let (a, b) = (key(&w[0]), key(&w[1]));
        let order = a.iter().zip(&b).map(|(x, y)| x.total_cmp(y)).find(|o| o.is_ne());
        order.unwrap_or(Ordering::Equal) == Ordering::Less
    })
}

#[test]
fn the_native_read_visits_what_its_default_body_returns() {
    let mut db = reader_db();
    let before = key_range_reads(&mut db);
    db.execute("ALTER INDEX ridx PARAMETERS ('probe 1')").unwrap();
    db.query(SCAN).unwrap();
    let accepted = cases().len() as i64;
    assert_eq!(key_range_reads(&mut db) - before, 2 * accepted, "one count per accepted call");

    let lanes = ANSWERS.with(|a| a.take());
    assert_eq!(lanes.iter().map(|(lane, _)| *lane).collect::<Vec<_>>(), ["write", "read"]);
    for (lane, answers) in &lanes {
        for (i, ((table, key, lo, hi), a)) in cases().iter().zip(answers).enumerate() {
            let what = format!("{lane} lane, {table}.{key} in {lo:?}..={hi:?}");
            let native = a.native.as_ref().unwrap_or_else(|e| panic!("{what}: {e}"));
            let default = a.default.as_ref().unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(native, default, "{what}");
            assert!(in_key_order(native, 2), "{what}: not in key order");
            // One tick per read batch: a batch short of 1 024 rows ends the
            // range, and a reversed or NULL-bounded one reads no batch.
            let batches = if i < 6 { native.len() as u64 / 1024 + 1 } else { 0 };
            assert_eq!(a.ticks, batches, "{what}: ticks for {} rows", native.len());
        }
        let rows = |i: usize| answers[i].native.as_ref().unwrap().len();
        assert_eq!(rows(0), AB_ROWS as usize + 1, "{lane}: `ab` and every longer key of it");
        assert_eq!(answers[0].native.as_ref().unwrap().last().unwrap()[1], Value::Null);
        assert_eq!(rows(1), AB_ROWS as usize + 3, "{lane}: `ab` through `abd`");
        assert_eq!(rows(2), 33, "{lane}: tiles 10 through 20");
        assert_eq!(rows(3), 60, "{lane}: every non-NULL q1");
        assert_eq!(rows(4), 16, "{lane}: q1 in -1.5..=2.25");
        for empty in 5..9 {
            assert_eq!(rows(empty), 0, "{lane}: case {empty} reads nothing");
        }
        for (i, (table, key, ..)) in refusals().iter().enumerate() {
            match &answers[cases().len() + i].native {
                Err(Error::CallbackViolation(msg)) => assert!(msg.contains(table), "{msg}"),
                other => panic!("{lane}: {table}.{key}: expected a refusal, got {other:?}"),
            }
        }
    }
}
