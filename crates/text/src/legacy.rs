//! The pre-Oracle8i two-step text query execution — the baseline of the
//! §3.2.1 case study.
//!
//! "In releases prior to Oracle8i, the text indexing code, though
//! logically a part of the Oracle server, was not known by the query
//! optimizer to be a valid access path. As a result, text queries were
//! evaluated as a two step process: (1) The text index was scanned and all
//! the rows satisfying the predicate were identified. The row identifiers
//! … were written out into a temporary result table … (2) The original
//! query was rewritten as a join" of the base table with that temporary
//! table.
//!
//! [`two_step_query`] reproduces exactly that flow against the same
//! inverted-index table the modern cartridge maintains, so E2 can compare
//! the two executions over identical index data. The extra temp-table
//! writes, the extra join, and the loss of first-row pipelining are all
//! faithfully present.

use extidx_common::{Result, Row, Value};
use extidx_core::server::read_key_range_via_query;
use extidx_sql::Database;

use crate::cartridge::load_postings;
use crate::query::parse_query;

/// Monotonic temp-table suffix so concurrent/benchmark calls don't clash.
static TEMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Run `SELECT {select_cols} FROM {base_table} WHERE Contains({…}) ` the
/// pre-8i way, using the inverted-index table `DR$<index_name>$I`.
///
/// Returns the result rows. I/O done for the temporary result table is
/// visible in the database's cache statistics — that is the point.
pub fn two_step_query(
    db: &mut Database,
    base_table: &str,
    select_cols: &str,
    index_name: &str,
    text_query: &str,
) -> Result<Vec<Row>> {
    let q = parse_query(text_query)?;

    // Step 1: scan the text index for ALL satisfying rowids.
    let index_table = format!("DR${}$I", index_name.to_ascii_uppercase());
    let postings = load_postings(
        &mut |t, k, lo, hi, v| {
            read_key_range_via_query(&mut |sql, b| db.query_with(sql, b), t, k, lo, hi, v)
        },
        &index_table,
        &q,
    )?;
    let matches = q.evaluate_postings(postings)?;

    // …written out into a temporary result table.
    let seq = TEMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let temp = format!("TEXT_RESULTS_{seq}");
    db.execute(&format!("CREATE TABLE {temp} (rid ROWID)"))?;
    let rids: Vec<Value> = matches.iter().map(|&(rid, _)| Value::RowId(rid)).collect();
    for chunk in rids.chunks(256) {
        let mut sql = format!("INSERT INTO {temp} VALUES ");
        for i in 0..chunk.len() {
            if i > 0 {
                sql.push_str(", ");
            }
            sql.push_str("(?)");
        }
        db.execute_with(&sql, chunk)?;
    }

    // Step 2: the rewritten join — "SELECT d.* FROM docs d, results r
    // WHERE d.rowid = r.rid".
    let join = format!(
        "SELECT {select_cols} FROM {base_table} d, {temp} r WHERE d.ROWID = r.rid"
    );
    let result = db.query(&join);

    // Clean up the temporary table regardless of query outcome.
    let _ = db.execute(&format!("DROP TABLE {temp}"));
    result
}
