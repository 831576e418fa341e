//! # extidx-chem — the Daylight-like chemistry cartridge
//!
//! Reproduces the §3.2.4 case study: molecular substructure and similarity
//! search whose index data migrated from a proprietary **file-based**
//! structure to **LOBs inside the database**, "thereby providing a single
//! data storage model for both tables and indexes".
//!
//! - `MolContains(mol, fragment)` — substructure search: path-fingerprint
//!   screen (never a false negative) then exact subgraph isomorphism;
//! - `MolSimilar(mol, query, threshold[, label])` — Tanimoto similarity
//!   with the score as ancillary data (`SCORE(label)`);
//! - `PARAMETERS (':Storage LOB')` (default) keeps fingerprints in a
//!   database LOB — transactional, buffer-cached, patched in place;
//!   `':Storage FILE'` reproduces the legacy external file that rewrites
//!   itself on every update and ignores transactions (§5's limitation);
//!   `':Storage FILE :Events ON'` adds the database-event handler that
//!   re-synchronizes the file after rollbacks (§5's proposed solution).

pub mod cartridge;
pub mod fingerprint;
pub mod molecule;
pub mod store;
pub mod workload;

use std::sync::Arc;

use extidx_common::{Result, Value};
use extidx_core::operator::ScalarFunction;
use extidx_sql::Database;

pub use cartridge::{ChemIndexMethods, ChemStats};
pub use fingerprint::Fingerprint;
pub use molecule::{Molecule, Substructure};
pub use store::{file_name, StorageMode};
pub use workload::MoleculeWorkload;

/// Install the chemistry cartridge: functional implementations, the two
/// operators, and the `ChemIndexType` indextype.
pub fn install(db: &mut Database) -> Result<()> {
    db.register_function(ScalarFunction::new("MolContainsFn", |_, args| {
        if args[0].is_null() || args[1].is_null() {
            return Ok(Value::Null);
        }
        let mol = Molecule::parse(args[0].as_str()?)?;
        let mut sub = Substructure::parse(args[1].as_str()?)?;
        Ok(Value::Boolean(sub.in_molecule(&mol)))
    }))?;
    db.register_function(ScalarFunction::new("MolSimilarFn", |_, args| {
        if args[0].is_null() || args[1].is_null() {
            return Ok(Value::Null);
        }
        let a = Fingerprint::of(&Molecule::parse(args[0].as_str()?)?);
        let b = Fingerprint::of(&Molecule::parse(args[1].as_str()?)?);
        let threshold = args
            .get(2)
            .ok_or_else(|| extidx_common::Error::Semantic("MolSimilar needs a threshold".into()))?
            .as_number()?;
        Ok(Value::Boolean(a.tanimoto(&b) >= threshold))
    }))?;
    db.execute(
        "CREATE OPERATOR MolContains \
         BINDING (VARCHAR2, VARCHAR2) RETURN BOOLEAN USING MolContainsFn",
    )?;
    db.execute(
        "CREATE OPERATOR MolSimilar \
         BINDING (VARCHAR2, VARCHAR2, NUMBER) RETURN BOOLEAN USING MolSimilarFn, \
         (VARCHAR2, VARCHAR2, NUMBER, INTEGER) RETURN BOOLEAN USING MolSimilarFn",
    )?;
    db.register_odci_implementation("ChemIndexMethods", Arc::new(ChemIndexMethods), Arc::new(ChemStats));
    db.execute(
        "CREATE INDEXTYPE ChemIndexType FOR \
         MolContains(VARCHAR2, VARCHAR2), \
         MolSimilar(VARCHAR2, VARCHAR2, NUMBER), \
         MolSimilar(VARCHAR2, VARCHAR2, NUMBER, INTEGER) \
         USING ChemIndexMethods",
    )?;
    Ok(())
}
