//! The ODCIIndex implementation for the text indextype.
//!
//! Index storage (§3.2.1): "The inverted index is stored in an
//! index-organized table, and is maintained by performing
//! insert/update/delete on the table whenever the table on which the text
//! index is defined is modified." The table is `DR$<index>$I (token, rid,
//! freq)` keyed on `(token, rid)`.
//!
//! Scan implementations (§2.2.3): `PARAMETERS (':ScanMode PRECOMPUTE')`
//! (default) materializes and *ranks* the whole result set in
//! `ODCIIndexStart` and returns a small Return-State context;
//! `':ScanMode INCREMENTAL'` computes candidate rows batch-by-batch inside
//! `ODCIIndexFetch`, holding its larger merge state in a Return-Handle
//! workspace context.

use std::collections::BTreeMap;

use extidx_common::{Error, Result, RowId, Value};
use extidx_core::build::{populate_from_base, try_partition_map};
use extidx_core::meta::{IndexInfo, OperatorCall};
use extidx_core::params::ParamString;
use extidx_core::scan::{FetchResult, FetchedRow, ScanContext};
use extidx_core::server::{read_lob, workspace_state, BaseRow, KeyRangeRead, ServerContext};
use extidx_core::stats::{IndexCost, OdciStats};
use extidx_core::OdciIndex;

use crate::query::{parse_query, Postings, RunMerge, TextQuery};
use crate::tokenizer::{tokenize, StopWords};

/// The indextype implementation (the paper's `TextIndexMethods` object
/// type).
pub struct TextIndexMethods;

/// Name of the inverted-index storage table for an index.
pub fn index_table(info: &IndexInfo) -> String {
    info.storage_table_name("I")
}

/// `f` of a document value's text (`None` for NULL), a LOB's read where
/// it lies through the lent image.
fn with_document<T>(
    srv: &mut dyn ServerContext,
    v: &Value,
    f: impl FnOnce(&str) -> T,
) -> Result<Option<T>> {
    match v {
        Value::Null => Ok(None),
        Value::Varchar(s) => Ok(Some(f(s))),
        Value::Lob(l) => read_lob(srv, *l, |bytes| Ok(Some(f(&String::from_utf8_lossy(bytes))))),
        other => Err(Error::type_mismatch("VARCHAR2 or LOB", other.type_name())),
    }
}

/// Rows per multi-row `INSERT` issued through the server callback.
pub(crate) const INSERT_CHUNK: usize = 256;

/// Build the `VALUES (?, ?, ?), …` clause for an n-row posting insert.
fn postings_insert_sql(table: &str, nrows: usize) -> String {
    let mut sql = format!("INSERT INTO {table} VALUES ");
    for i in 0..nrows {
        if i > 0 {
            sql.push_str(", ");
        }
        sql.push_str("(?, ?, ?)");
    }
    sql
}

/// Insert posting entries in batches to cut server round trips (§2.5's
/// batch-interface point, applied to maintenance). The full-chunk SQL
/// string is built once and reused for every full chunk; only a trailing
/// partial chunk formats a second statement.
fn insert_postings(
    srv: &mut dyn ServerContext,
    table: &str,
    entries: &[(String, RowId, u32)],
) -> Result<()> {
    fn exec_chunk(
        srv: &mut dyn ServerContext,
        sql: &str,
        chunk: &[(String, RowId, u32)],
    ) -> Result<()> {
        let mut binds: Vec<Value> = Vec::with_capacity(chunk.len() * 3);
        for (token, rid, freq) in chunk {
            binds.push(Value::from(token.clone()));
            binds.push(Value::RowId(*rid));
            binds.push(Value::Integer(*freq as i64));
        }
        srv.execute(sql, &binds)?;
        Ok(())
    }
    // One statement string per distinct chunk size: the full-chunk SQL is
    // formatted once and reused; only a trailing partial chunk needs its
    // own (previously every chunk re-formatted the whole VALUES clause).
    let full = entries.chunks_exact(INSERT_CHUNK);
    let rest = full.remainder();
    if entries.len() >= INSERT_CHUNK {
        let sql = postings_insert_sql(table, INSERT_CHUNK);
        for chunk in full {
            exec_chunk(srv, &sql, chunk)?;
        }
    }
    if !rest.is_empty() {
        exec_chunk(srv, &postings_insert_sql(table, rest.len()), rest)?;
    }
    Ok(())
}

fn doc_entries(text: &str, rid: RowId, stop: &StopWords) -> Vec<(String, RowId, u32)> {
    tokenize(text, stop).into_iter().map(|(t, f)| (t, rid, f)).collect()
}

/// Load the posting list of every query term from the index table
/// `table` through `read`, once per distinct term: one key-range read of
/// the term's `(token, rid)` keys, so each list arrives rid-ordered.
pub fn load_postings(
    read: &mut KeyRangeRead,
    table: &str,
    q: &TextQuery,
) -> Result<BTreeMap<String, Postings>> {
    let mut postings = BTreeMap::new();
    for term in q.terms() {
        if postings.contains_key(&term) {
            continue;
        }
        let mut list: Postings = Vec::new();
        let token = Value::from(term.clone());
        read(table, "token", &token, &token, &mut |row| {
            list.push((row[1].as_rowid()?, row[2].as_integer()? as u32));
            Ok(())
        })?;
        postings.insert(term, list);
    }
    Ok(postings)
}

/// Precompute-All scan state (Return State context): ranked result rows.
struct PrecomputedScan {
    /// `(rid, score)` sorted by descending score (ranking semantics).
    rows: Vec<(RowId, u32)>,
    pos: usize,
    wants_ancillary: bool,
}

/// Incremental scan state (kept in the statement workspace behind a
/// Return Handle): the merge of the query's posting lists, advanced one
/// fetch batch at a time.
struct IncrementalScan {
    merge: RunMerge,
    wants_ancillary: bool,
}

fn fetched(rid: RowId, score: u32, wants_ancillary: bool) -> FetchedRow {
    if wants_ancillary {
        FetchedRow::with_ancillary(rid, Value::Number(score as f64))
    } else {
        FetchedRow::plain(rid)
    }
}

impl OdciIndex for TextIndexMethods {
    fn create(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        let table = index_table(info);
        srv.execute(
            &format!(
                "CREATE TABLE {table} (token VARCHAR2(128), rid ROWID, freq INTEGER, \
                 PRIMARY KEY (token, rid)) ORGANIZATION INDEX"
            ),
            &[],
        )?;
        // Populate from existing base rows, one batch at a time.
        populate_from_base(self, srv, info)
    }

    fn alter(&self, srv: &mut dyn ServerContext, info: &IndexInfo, _delta: &ParamString) -> Result<()> {
        // Parameters affecting the lexical analysis (e.g. a changed stop
        // list) require a rebuild: truncate and repopulate under the
        // merged parameters `info` already carries.
        self.truncate(srv, info)?;
        populate_from_base(self, srv, info)
    }

    fn build_batch(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        batch: &[BaseRow],
        parallel: usize,
    ) -> Result<()> {
        let stop = StopWords::from_params(&info.parameters);
        // LOB dereferencing is a server callback, so document text is
        // resolved on the coordinating thread…
        let mut docs: Vec<(RowId, String)> = Vec::with_capacity(batch.len());
        for row in batch {
            if let Some(text) = with_document(srv, row.value(), str::to_owned)? {
                docs.push((row.rid, text));
            }
        }
        // …and tokenization — the CPU-heavy part — fans out across workers.
        let per_doc = try_partition_map(&docs, parallel, |(rid, text)| {
            Ok::<_, Error>(doc_entries(text, *rid, &stop))
        })?;
        // Hand the postings over in `(token, rid)` key order, as Oracle
        // sorts an index build: each insert then descends next to the one
        // before it.
        let mut entries: Vec<(String, RowId, u32)> = per_doc.into_iter().flatten().collect();
        entries.sort_unstable();
        insert_postings(srv, &index_table(info), &entries)
    }

    fn truncate(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        srv.execute(&format!("TRUNCATE TABLE {}", index_table(info)), &[])?;
        Ok(())
    }

    fn drop_index(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        srv.execute(&format!("DROP TABLE {}", index_table(info)), &[])?;
        Ok(())
    }

    fn insert(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        rid: RowId,
        new_value: &Value,
    ) -> Result<()> {
        let stop = StopWords::from_params(&info.parameters);
        let entries = with_document(srv, new_value, |text| doc_entries(text, rid, &stop))?;
        if let Some(entries) = entries {
            insert_postings(srv, &index_table(info), &entries)?;
            // Postings are in the DR$ table at this point: a fault here
            // exercises rewind of a routine's completed partial effects.
            srv.fault_point("text.maintenance.indexed")?;
        }
        Ok(())
    }

    fn update(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        rid: RowId,
        old_value: &Value,
        new_value: &Value,
    ) -> Result<()> {
        // Paper §2.2.3: "ODCIIndexUpdate should delete the entries
        // corresponding to the old indexed column value… and insert the
        // new entries".
        self.delete(srv, info, rid, old_value)?;
        // Mid-update milestone: old postings gone, new ones not yet
        // written — the worst place to die.
        srv.fault_point("text.maintenance.reindex")?;
        self.insert(srv, info, rid, new_value)
    }

    fn delete(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        rid: RowId,
        old_value: &Value,
    ) -> Result<()> {
        let stop = StopWords::from_params(&info.parameters);
        if let Some(tokens) = with_document(srv, old_value, |text| tokenize(text, &stop))? {
            let table = index_table(info);
            for (token, _) in tokens {
                srv.execute(
                    &format!("DELETE FROM {table} WHERE token = ? AND rid = ?"),
                    &[Value::from(token), Value::RowId(rid)],
                )?;
            }
            srv.fault_point("text.maintenance.unindexed")?;
        }
        Ok(())
    }

    fn start(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        op: &OperatorCall,
    ) -> Result<ScanContext> {
        let text_query = op
            .args
            .first()
            .ok_or_else(|| Error::odci(&info.indextype_name, "ODCIIndexStart", "missing query argument"))?
            .as_str()?;
        let q = parse_query(text_query)?;
        let incremental = info
            .parameters
            .first("ScanMode")
            .is_some_and(|m| m.eq_ignore_ascii_case("INCREMENTAL"));
        let read: &mut KeyRangeRead = &mut |t, k, lo, hi, v| srv.read_key_range(t, k, lo, hi, v);
        let postings = load_postings(read, &index_table(info), &q)?;
        let merge = q.merge(postings)?;
        if incremental {
            // Incremental Computation: advance the merge at fetch time;
            // keep its state in the statement workspace.
            let state = IncrementalScan { merge, wants_ancillary: op.wants_ancillary };
            let handle = srv.workspace_put(Box::new(state));
            Ok(ScanContext::Handle(handle))
        } else {
            // Precompute All: evaluate the boolean query and rank the
            // entire result by score before the first fetch.
            let mut rows: Vec<(RowId, u32)> = merge.collect();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            Ok(ScanContext::State(Box::new(PrecomputedScan {
                rows,
                pos: 0,
                wants_ancillary: op.wants_ancillary,
            })))
        }
    }

    fn fetch(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        ctx: &mut ScanContext,
        nrows: usize,
    ) -> Result<FetchResult> {
        match ctx {
            ScanContext::State(_) => {
                let st = ctx.state_mut::<PrecomputedScan>().ok_or_else(|| {
                    Error::odci(&info.indextype_name, "ODCIIndexFetch", "bad scan state")
                })?;
                let end = (st.pos + nrows).min(st.rows.len());
                let out: Vec<FetchedRow> = st.rows[st.pos..end]
                    .iter()
                    .map(|&(rid, score)| fetched(rid, score, st.wants_ancillary))
                    .collect();
                st.pos = end;
                Ok(FetchResult { rows: out, done: st.pos >= st.rows.len() })
            }
            ScanContext::Handle(h) => {
                let handle = *h;
                let st = workspace_state::<IncrementalScan>(
                    srv,
                    handle,
                    &info.indextype_name,
                    "ODCIIndexFetch",
                )?;
                let wants_ancillary = st.wants_ancillary;
                let out: Vec<FetchedRow> = st
                    .merge
                    .by_ref()
                    .take(nrows)
                    .map(|(rid, score)| fetched(rid, score, wants_ancillary))
                    .collect();
                Ok(FetchResult { rows: out, done: st.merge.is_done() })
            }
        }
    }

    fn close(&self, srv: &mut dyn ServerContext, _info: &IndexInfo, ctx: ScanContext) -> Result<()> {
        // Return-Handle state is released from the statement workspace;
        // Return-State contexts drop with the context itself.
        if let ScanContext::Handle(h) = ctx {
            srv.workspace_take(h);
        }
        Ok(())
    }
}

/// The ODCIStats implementation for the text indextype.
pub struct TextStats;

impl TextStats {
    fn query_selectivity(
        srv: &mut dyn ServerContext,
        table: &str,
        total_docs: f64,
        q: &TextQuery,
    ) -> Result<f64> {
        Ok(match q {
            TextQuery::Term(t) => {
                let rows = srv.query(
                    &format!("SELECT COUNT(*) FROM {table} WHERE token = ?"),
                    &[Value::from(t.clone())],
                )?;
                let len = rows[0][0].as_integer()? as f64;
                if total_docs == 0.0 {
                    0.0
                } else {
                    (len / total_docs).min(1.0)
                }
            }
            TextQuery::And(a, b) => {
                Self::query_selectivity(srv, table, total_docs, a)?
                    * Self::query_selectivity(srv, table, total_docs, b)?
            }
            TextQuery::Or(a, b) => (Self::query_selectivity(srv, table, total_docs, a)?
                + Self::query_selectivity(srv, table, total_docs, b)?)
            .min(1.0),
            TextQuery::Not(a) => 1.0 - Self::query_selectivity(srv, table, total_docs, a)?,
        })
    }
}

impl OdciStats for TextStats {
    fn collect(&self, _srv: &mut dyn ServerContext, _info: &IndexInfo) -> Result<()> {
        // Posting lengths are queried live at selectivity time; nothing to
        // precompute for this reproduction.
        Ok(())
    }

    fn selectivity(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        op: &OperatorCall,
    ) -> Result<f64> {
        let text_query = op.args.first().and_then(|v| v.as_str().ok()).unwrap_or("");
        let q = match parse_query(text_query) {
            Ok(q) => q,
            Err(_) => return Ok(0.01),
        };
        let total = srv.query(&format!("SELECT COUNT(*) FROM {}", info.table_name), &[])?;
        let total_docs = total[0][0].as_integer()? as f64;
        Self::query_selectivity(srv, &index_table(info), total_docs, &q)
    }

    fn index_cost(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        op: &OperatorCall,
        selectivity: f64,
    ) -> Result<IndexCost> {
        // Cost ≈ one probe per query term plus the posting pages read.
        let text_query = op.args.first().and_then(|v| v.as_str().ok()).unwrap_or("");
        let terms = parse_query(text_query).map(|q| q.terms().len()).unwrap_or(1) as f64;
        let total = srv.query(&format!("SELECT COUNT(*) FROM {}", index_table(info)), &[])?;
        let entries = total[0][0].as_integer()? as f64;
        // ~400 posting entries per 8 KiB leaf page.
        let posting_pages = (entries * selectivity / 400.0).max(1.0);
        Ok(IndexCost { io_cost: terms * 2.0 + posting_pages, cpu_cost: entries * selectivity * 0.0002 })
    }
}
