//! # extidx-text — the interMedia-Text-like cartridge
//!
//! Reproduces the paper's flagship case study (§3.2.1): full-text indexing
//! of document columns through the extensible indexing framework.
//!
//! - The index is an **inverted index** ("storing the occurrence list for
//!   each token in each of the text documents") kept in an
//!   **index-organized table** named `DR$<index>$I`, maintained through
//!   server callbacks on every base-table change.
//! - The **`Contains`** operator takes a document column and a boolean
//!   keyword expression (`'Oracle AND UNIX'`, with `OR`, `NOT`, and
//!   parentheses) and is evaluated either through the domain index
//!   (ODCIIndexStart/Fetch/Close) or through the functional fallback that
//!   tokenizes each row.
//! - The **`Score`** ancillary operator surfaces a per-row relevance value
//!   computed by the index scan (§2.4.2 "ancillary operators").
//! - `PARAMETERS (':Language English :Ignore the a an')` selects the
//!   stop-word list; `:ScanMode PRECOMPUTE|INCREMENTAL` selects between
//!   the two scan implementations of §2.2.3 (Precompute-All materializes
//!   and ranks the entire result in `start`; Incremental merges posting
//!   lists batch-by-batch during `fetch`, using a Return-Handle workspace
//!   context).
//! - [`legacy`] reimplements the **pre-Oracle8i two-step execution**
//!   (materialize matching rowids into a temporary result table, rewrite
//!   the query as a join) that the case study benchmarks against.

pub mod cartridge;
pub mod corpus;
pub mod legacy;
pub mod query;
pub mod tokenizer;

use std::sync::Arc;

use extidx_common::Result;
use extidx_common::Value;
use extidx_core::operator::ScalarFunction;
use extidx_sql::Database;

pub use cartridge::{TextIndexMethods, TextStats};
pub use corpus::CorpusGenerator;

/// Install the text cartridge into a database: the `Contains` functional
/// implementation, the operator (both 2- and 3-argument bindings, the
/// third being the ancillary `Score` label), and the `TextIndexType`
/// indextype.
pub fn install(db: &mut Database) -> Result<()> {
    db.register_function(ScalarFunction::new("TextContains", |ctx, args| {
        let matches = |doc: &str| -> Result<bool> {
            Ok(query::parse_query(args[1].as_str()?)?.matches_text(doc))
        };
        let hit = match &args[0] {
            Value::Null => return Ok(Value::Null),
            Value::Varchar(s) => matches(s)?,
            Value::Lob(l) => {
                let mut hit = false;
                ctx.lob_read_all(*l, &mut |bytes| {
                    hit = matches(&String::from_utf8_lossy(bytes))?;
                    Ok(())
                })?;
                hit
            }
            other => {
                return Err(extidx_common::Error::type_mismatch(
                    "VARCHAR2 or LOB",
                    other.type_name(),
                ))
            }
        };
        Ok(Value::Boolean(hit))
    }))?;
    db.register_odci_implementation(
        "TextIndexMethods",
        Arc::new(TextIndexMethods),
        Arc::new(TextStats),
    );
    db.execute(
        "CREATE OPERATOR Contains \
         BINDING (VARCHAR2, VARCHAR2) RETURN BOOLEAN USING TextContains, \
         (VARCHAR2, VARCHAR2, INTEGER) RETURN BOOLEAN USING TextContains, \
         (CLOB, VARCHAR2) RETURN BOOLEAN USING TextContains, \
         (CLOB, VARCHAR2, INTEGER) RETURN BOOLEAN USING TextContains",
    )?;
    db.execute(
        "CREATE INDEXTYPE TextIndexType FOR \
         Contains(VARCHAR2, VARCHAR2), Contains(VARCHAR2, VARCHAR2, INTEGER), \
         Contains(CLOB, VARCHAR2), Contains(CLOB, VARCHAR2, INTEGER) \
         USING TextIndexMethods",
    )?;
    Ok(())
}
