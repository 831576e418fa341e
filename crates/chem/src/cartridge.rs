//! The ODCIIndex implementation for the chemistry indextype.
//!
//! Supports two operators over molecule columns (linear-notation
//! VARCHAR2):
//!
//! - `MolContains(mol, sub)` — substructure search: fingerprint screen
//!   (no false negatives) followed by exact subgraph isomorphism;
//! - `MolSimilar(mol, query, threshold[, label])` — Tanimoto similarity
//!   over fingerprints, with the similarity exposed as ancillary data.
//!
//! Index data lives in a [`FingerprintStore`] — a LOB inside the database
//! or an external file, selected by `PARAMETERS (':Storage LOB|FILE')`.
//! With `':Events ON'` in FILE mode, the cartridge registers the §5
//! database-event handler that re-synchronizes the external file after
//! rollbacks.

use std::collections::VecDeque;
use std::sync::Arc;

use extidx_common::{Error, Result, RowId, Value};
use extidx_core::events::{DbEvent, EventHandler};
use extidx_core::meta::{IndexInfo, OperatorCall};
use extidx_core::params::ParamString;
use extidx_core::scan::{FetchResult, FetchedRow, ScanContext};
use extidx_core::server::ServerContext;
use extidx_core::stats::{IndexCost, OdciStats};
use extidx_core::OdciIndex;

use crate::fingerprint::Fingerprint;
use crate::molecule::{Molecule, Substructure};
use crate::store::{FingerprintStore, StorageMode};

/// The indextype implementation.
pub struct ChemIndexMethods;

fn mol_fingerprint(v: &Value) -> Result<Option<(Molecule, Fingerprint)>> {
    match v {
        Value::Null => Ok(None),
        Value::Varchar(s) => {
            let m = Molecule::parse(s)?;
            let fp = Fingerprint::of(&m);
            Ok(Some((m, fp)))
        }
        other => Err(Error::type_mismatch("VARCHAR2 molecule", other.type_name())),
    }
}

/// Scan state: screened candidates awaiting verification/emission.
struct ChemScan {
    /// A substructure search's pattern, prepared once for every candidate
    /// of the scan; `None` for a similarity search, whose thresholding
    /// already happened during the screen in `start`.
    pattern: Option<Substructure>,
    /// `(rid, tanimoto-or-0)` survivors of the fingerprint screen.
    candidates: Vec<(RowId, f64)>,
    /// The next candidate not yet verified (or emitted, for similarity).
    pos: usize,
    /// Candidates (by position) that passed verification, not yet emitted.
    verified: VecDeque<usize>,
    wants_ancillary: bool,
}

/// The §5 event handler: after a rollback, external-file index data is
/// stale (file writes are not transactional); rebuild it from the settled
/// base table.
struct FileResyncHandler {
    info: IndexInfo,
}

impl EventHandler for FileResyncHandler {
    fn on_event(&self, event: DbEvent, srv: &mut dyn ServerContext) -> Result<()> {
        if event == DbEvent::Rollback {
            FingerprintStore { mode: StorageMode::File }.rebuild_from_base(srv, &self.info)?;
        }
        Ok(())
    }
}

impl OdciIndex for ChemIndexMethods {
    fn create(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        let store = FingerprintStore::for_index(info);
        store.create(srv, info)?;
        store.rebuild_from_base(srv, info)?;
        // §5's proposed solution, opt-in: register commit/rollback hooks
        // to keep the external store consistent.
        if store.mode == StorageMode::File
            && info.parameters.first("Events").is_some_and(|v| v.eq_ignore_ascii_case("ON"))
        {
            srv.register_event_handler(
                &format!("CHEM_RESYNC_{}", info.index_name),
                Arc::new(FileResyncHandler { info: info.clone() }),
            );
        }
        Ok(())
    }

    fn alter(&self, srv: &mut dyn ServerContext, info: &IndexInfo, _delta: &ParamString) -> Result<()> {
        FingerprintStore::for_index(info).rebuild_from_base(srv, info)
    }

    fn truncate(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        FingerprintStore::for_index(info).truncate(srv, info)
    }

    fn drop_index(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        FingerprintStore::for_index(info).drop_store(srv, info)
    }

    fn external_files(&self, info: &IndexInfo) -> Vec<String> {
        match StorageMode::from_info(info) {
            StorageMode::File => vec![crate::store::file_name(info)],
            StorageMode::Lob => Vec::new(),
        }
    }

    fn insert(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        rid: RowId,
        new_value: &Value,
    ) -> Result<()> {
        if let Some((_, fp)) = mol_fingerprint(new_value)? {
            FingerprintStore::for_index(info).append(srv, info, rid, &fp)?;
            srv.fault_point("chem.maintenance.indexed")?;
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
        self.delete(srv, info, rid, old_value)?;
        // Old fingerprint tombstoned, new one not yet appended.
        srv.fault_point("chem.maintenance.reindex")?;
        self.insert(srv, info, rid, new_value)
    }

    fn delete(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        rid: RowId,
        old_value: &Value,
    ) -> Result<()> {
        if !old_value.is_null() {
            FingerprintStore::for_index(info).remove(srv, info, rid)?;
            srv.fault_point("chem.maintenance.unindexed")?;
        }
        Ok(())
    }

    fn start(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        op: &OperatorCall,
    ) -> Result<ScanContext> {
        let store = FingerprintStore::for_index(info);
        let mut candidates: Vec<(RowId, f64)> = Vec::new();
        let pattern = match op.operator.as_str() {
            "MOLCONTAINS" => {
                let sub_text = op.args.first().and_then(|v| v.as_str().ok()).ok_or_else(|| {
                    Error::odci(&info.indextype_name, "ODCIIndexStart", "missing substructure")
                })?;
                let pattern = Molecule::parse(sub_text)?;
                let sub_fp = Fingerprint::of(&pattern);
                // Screen: fp(sub) ⊆ fp(mol) is necessary for containment.
                store.for_each_record(srv, info, |rid, fp| {
                    if sub_fp.is_subset_of(fp) {
                        candidates.push((rid, 0.0));
                    }
                })?;
                Some(Substructure::new(&pattern))
            }
            "MOLSIMILAR" => {
                let q_text = op.args.first().and_then(|v| v.as_str().ok()).ok_or_else(|| {
                    Error::odci(&info.indextype_name, "ODCIIndexStart", "missing query molecule")
                })?;
                let threshold = op.args.get(1).and_then(|v| v.as_number().ok()).ok_or_else(|| {
                    Error::odci(&info.indextype_name, "ODCIIndexStart", "missing threshold")
                })?;
                let q_fp = Fingerprint::of(&Molecule::parse(q_text)?);
                store.for_each_record(srv, info, |rid, fp| {
                    let t = q_fp.tanimoto(fp);
                    if t >= threshold {
                        candidates.push((rid, t));
                    }
                })?;
                // Nearest-neighbor flavour: best matches first.
                candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                None
            }
            other => {
                return Err(Error::odci(
                    &info.indextype_name,
                    "ODCIIndexStart",
                    format!("unsupported operator {other}"),
                ))
            }
        };
        Ok(ScanContext::State(Box::new(ChemScan {
            pattern,
            candidates,
            pos: 0,
            verified: VecDeque::new(),
            wants_ancillary: op.wants_ancillary,
        })))
    }

    fn fetch(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        ctx: &mut ScanContext,
        nrows: usize,
    ) -> Result<FetchResult> {
        let st = ctx.state_mut::<ChemScan>().ok_or_else(|| {
            Error::odci(&info.indextype_name, "ODCIIndexFetch", "bad scan state")
        })?;
        let len = st.candidates.len();
        let pattern = match &mut st.pattern {
            None => {
                let end = (st.pos + nrows).min(len);
                let rows = st.candidates[st.pos..end].iter().map(|&(rid, sim)| {
                    if st.wants_ancillary {
                        FetchedRow::with_ancillary(rid, Value::Number(sim))
                    } else {
                        FetchedRow::plain(rid)
                    }
                });
                let rows = rows.collect();
                st.pos = end;
                return Ok(FetchResult { rows, done: end == len });
            }
            Some(pattern) => pattern,
        };
        // Exact verification against the stored molecules, `nrows`
        // candidates at a time read as one set from the base table, each
        // molecule text parsed and matched where it lies.
        let mut out: Vec<usize> = Vec::with_capacity(nrows);
        while out.len() < nrows {
            if let Some(i) = st.verified.pop_front() {
                out.push(i);
                continue;
            }
            if st.pos == len {
                break;
            }
            let end = (st.pos + nrows).min(len);
            let rids: Vec<RowId> = st.candidates[st.pos..end].iter().map(|&(rid, _)| rid).collect();
            let (first, verified) = (st.pos, &mut st.verified);
            srv.fetch_base_rows(&info.table_name, &[&info.column_name], &rids, &mut |i, mol| {
                if let Ok(text) = mol[0].as_str() {
                    if pattern.in_text(text)? {
                        verified.push_back(first + i);
                    }
                }
                Ok(())
            })?;
            st.pos = end;
        }
        // The scan ends where a candidate-at-a-time loop would: when this
        // call comes up short, or its last row is the last candidate.
        let done = out.len() < nrows || out.last() == Some(&(len - 1));
        let rows = out.into_iter().map(|i| FetchedRow::plain(st.candidates[i].0)).collect();
        Ok(FetchResult { rows, done })
    }

    fn close(&self, _srv: &mut dyn ServerContext, _info: &IndexInfo, _ctx: ScanContext) -> Result<()> {
        Ok(())
    }
}

/// ODCIStats for the chemistry indextype.
pub struct ChemStats;

impl OdciStats for ChemStats {
    fn collect(&self, _srv: &mut dyn ServerContext, _info: &IndexInfo) -> Result<()> {
        Ok(())
    }

    fn selectivity(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        op: &OperatorCall,
    ) -> Result<f64> {
        let total = srv.query(&format!("SELECT COUNT(*) FROM {}", info.table_name), &[])?[0][0]
            .as_integer()? as f64;
        if total == 0.0 {
            return Ok(0.0);
        }
        // Heuristics: substructure hits scale inversely with pattern
        // size; similarity with threshold.
        Ok(match op.operator.as_str() {
            "MOLCONTAINS" => {
                let atoms = op
                    .args
                    .first()
                    .and_then(|v| v.as_str().ok())
                    .and_then(|s| Molecule::parse(s).ok())
                    .map(|m| m.atom_count())
                    .unwrap_or(1) as f64;
                (0.5 / atoms).clamp(0.001, 0.5)
            }
            _ => {
                let threshold =
                    op.args.get(1).and_then(|v| v.as_number().ok()).unwrap_or(0.5);
                ((1.0 - threshold) * 0.2).clamp(0.001, 0.5)
            }
        })
    }

    fn index_cost(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        _op: &OperatorCall,
        selectivity: f64,
    ) -> Result<IndexCost> {
        let total = srv.query(&format!("SELECT COUNT(*) FROM {}", info.table_name), &[])?[0][0]
            .as_integer()? as f64;
        // Screening reads the whole fingerprint store (sequential, cheap
        // per record) plus per-candidate verification.
        Ok(IndexCost {
            io_cost: 1.0 + total * crate::store::RECORD_BYTES as f64 / 8192.0,
            cpu_cost: total * 0.0005 + total * selectivity * 0.01,
        })
    }
}
