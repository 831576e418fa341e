//! DDL execution: the §2.4.1 definition hooks.
//!
//! "When a domain index is created, the Oracle8i server creates the data
//! dictionary entries pertaining to the domain index and invokes the
//! ODCIIndexCreate() method"; ALTER, TRUNCATE and DROP invoke the
//! indextype's alter, truncate and drop routines the same way. Every
//! statement that changes the dictionary runs here, in one `impl
//! Database`, together with what a failed statement needs to take such a
//! change back ([`Database::compensate_created`]) and the engine's
//! guarantee that a released index name leaks no external file.

use std::sync::Arc;

use extidx_common::{Error, Key, Result, Row, RowId, SqlType, Value};
use extidx_core::indextype::{IndexType, SupportedOperator};
use extidx_core::meta::IndexInfo;
use extidx_core::operator::Operator;
use extidx_core::params::ParamString;
use extidx_core::trace::{Component, Routine};
use extidx_core::OdciIndex;

use crate::ast::{BindingSpec, ColumnSpec, IndexTypeOpSpec, Statement};
use crate::catalog::{BTreeIndexDef, ColumnDef, ColumnStats, DomainIndexDef, TableDef, TableOrg, TableStats};
use crate::database::{Database, StmtResult};
use crate::exec_ctx::{odci_call, Callee, Lane};
use crate::executor::{BaseScan, BATCH_TARGET};

/// A schema object created during the current statement, for
/// failure compensation.
#[derive(Debug, Clone)]
pub(crate) enum CreatedObject {
    Table(String),
    BTreeIndex(String),
    Operator(String),
    IndexType(String),
    ObjectType(String),
}

impl Database {
    /// Drop a schema object created by a failed statement. Best-effort:
    /// used only on the failure path.
    pub(crate) fn compensate_created(&mut self, obj: CreatedObject) -> Result<()> {
        match obj {
            CreatedObject::Table(name) => {
                if self.catalog.has_table(&name) {
                    self.run_drop_table(&name)?;
                }
            }
            CreatedObject::BTreeIndex(name) => {
                if let Some(b) = self.catalog.drop_btree_index(&name) {
                    self.storage.drop_segment(b.seg)?;
                }
            }
            CreatedObject::Operator(name) => {
                let _ = self.catalog.registry_mut().drop_operator(&name);
            }
            CreatedObject::IndexType(name) => {
                let _ = self.catalog.registry_mut().drop_indextype(&name);
            }
            CreatedObject::ObjectType(name) => {
                self.catalog.drop_object_type(&name);
            }
        }
        Ok(())
    }

    pub(crate) fn run_create_table(
        &mut self,
        name: &str,
        columns: &[ColumnSpec],
        primary_key: &[String],
        organization_index: bool,
    ) -> Result<StmtResult> {
        let upper = name.to_ascii_uppercase();
        if self.catalog.has_table(&upper) {
            return Err(Error::already_exists("table", upper));
        }
        let mut cols = Vec::with_capacity(columns.len());
        for c in columns {
            cols.push(ColumnDef {
                name: c.name.to_ascii_uppercase(),
                ty: self.catalog.resolve_type(&c.type_name)?,
            });
        }
        let org = if organization_index {
            if primary_key.is_empty() {
                return Err(Error::Semantic(
                    "ORGANIZATION INDEX requires a PRIMARY KEY".into(),
                ));
            }
            for (i, pk) in primary_key.iter().enumerate() {
                if cols.get(i).map(|c| c.name.as_str()) != Some(pk.to_ascii_uppercase().as_str()) {
                    return Err(Error::Semantic(
                        "PRIMARY KEY of an index-organized table must be a prefix of its columns"
                            .into(),
                    ));
                }
            }
            TableOrg::Index { key_cols: primary_key.len() }
        } else {
            TableOrg::Heap
        };
        let seg = match org {
            TableOrg::Heap => self.storage.create_heap()?,
            TableOrg::Index { key_cols } => self.storage.create_iot(key_cols)?,
        };
        self.catalog
            .create_table(TableDef { name: upper.clone(), columns: cols, org, seg, stats: None })?;
        self.scope.created.push(CreatedObject::Table(upper));
        Ok(StmtResult::Ok)
    }

    /// A client's `TRUNCATE TABLE` or `DROP TABLE` is not versioned, so it
    /// loses first-writer-wins while another transaction is active, on the
    /// predicate that decides whether an autocommit versions. Session
    /// autocommit retries the refusal as it retries `build_snapshot`'s. A
    /// cartridge truncating its own tables runs inside index DDL.
    pub(crate) fn refuse_unversioned_ddl(&self, stmt: &Statement) -> Result<()> {
        let what = match stmt {
            Statement::TruncateTable { name } => format!("TRUNCATE TABLE {name}"),
            Statement::DropTable { name } => format!("DROP TABLE {name}"),
            _ => return Ok(()),
        };
        let t = self.storage.current_snapshot().txn;
        let Some(w) = self.storage.txn_manager().other_active(t) else {
            return Ok(());
        };
        let detail = format!("txn {t}: {what} is not versioned, and txn {w} is active");
        Err(Error::write_conflict(w, what.to_ascii_uppercase(), detail))
    }

    pub(crate) fn run_drop_table(&mut self, name: &str) -> Result<StmtResult> {
        let tdef = self.catalog.table(name)?.clone();
        // Domain indexes first: their drop routines may issue DDL on their
        // own storage tables.
        let domain: Vec<DomainIndexDef> =
            self.catalog.domain_indexes_on(&tdef.name).into_iter().cloned().collect();
        for d in domain {
            self.drop_domain_index_entry(&d)?;
        }
        let btree: Vec<BTreeIndexDef> =
            self.catalog.btree_indexes_on(&tdef.name).into_iter().cloned().collect();
        for b in btree {
            self.storage.drop_segment(b.seg)?;
            self.catalog.drop_btree_index(&b.name);
        }
        self.storage.drop_segment(tdef.seg)?;
        self.catalog.drop_table(&tdef.name)?;
        Ok(StmtResult::Ok)
    }

    pub(crate) fn run_truncate_table(&mut self, name: &str) -> Result<StmtResult> {
        let tdef = self.catalog.table(name)?.clone();
        self.storage.truncate_segment(tdef.seg)?;
        let btree: Vec<BTreeIndexDef> =
            self.catalog.btree_indexes_on(&tdef.name).into_iter().cloned().collect();
        for b in btree {
            self.storage.truncate_segment(b.seg)?;
        }
        // "when the corresponding table is truncated, the truncate method
        // specified as part of the indextype is invoked" (§2.4.1).
        let domain: Vec<DomainIndexDef> =
            self.catalog.domain_indexes_on(&tdef.name).into_iter().cloned().collect();
        for d in domain {
            // An unusable index gets no crossing, as in DML maintenance:
            // its REBUILD re-reads the emptied table.
            if !self.catalog.health.is_usable(&d.name) {
                continue;
            }
            let (index, _, info) = self.domain_index_runtime(&d)?;
            let callee = Callee::Index(&info);
            odci_call(Lane::Write(self), Routine::IndexTruncate, callee, || d.name.clone(), |ctx| {
                index.truncate(ctx, &info)
            })?;
        }
        Ok(StmtResult::Ok)
    }

    pub(crate) fn run_create_type(&mut self, name: &str, attrs: &[ColumnSpec]) -> Result<StmtResult> {
        let mut resolved = Vec::with_capacity(attrs.len());
        for a in attrs {
            resolved.push((a.name.clone(), self.catalog.resolve_type(&a.type_name)?));
        }
        let upper = name.to_ascii_uppercase();
        self.catalog.create_object_type(extidx_common::ObjectTypeDef::new(name, resolved))?;
        self.scope.created.push(CreatedObject::ObjectType(upper));
        Ok(StmtResult::Ok)
    }

    pub(crate) fn run_create_btree_index(
        &mut self,
        name: &str,
        table: &str,
        column: &str,
    ) -> Result<StmtResult> {
        let tdef = self.catalog.table(table)?.clone();
        let col_idx = tdef.column_index(column)?;
        if !tdef.columns[col_idx].ty.is_scalar_comparable() {
            return Err(Error::Semantic(format!(
                "column {} is not B-tree indexable; use a domain index (extensible indexing)",
                tdef.columns[col_idx].name
            )));
        }
        // Refused (in-flight writer on the table) before anything exists.
        let snap = self.storage.build_snapshot(tdef.seg)?;
        let seg = self.storage.create_iot(2)?; // (key, rowid)
        self.catalog.create_btree_index(BTreeIndexDef {
            name: name.to_ascii_uppercase(),
            table: tdef.name.clone(),
            column: tdef.columns[col_idx].name.clone(),
            seg,
        })?;
        self.scope.created.push(CreatedObject::BTreeIndex(name.to_ascii_uppercase()));
        // Populate from existing rows, a batch at a time. For IOT base
        // tables the secondary index stores logical rowids (key ordinals),
        // which stay valid across in-place updates.
        let mut scan = BaseScan::new(&tdef);
        loop {
            let batch = scan.next_batch(&self.storage, &snap, BATCH_TARGET, |rid, row| {
                (rid, row[col_idx].clone())
            })?;
            if batch.is_empty() {
                return Ok(StmtResult::Ok);
            }
            for (rid, key) in batch {
                // B-trees do not index NULL keys (Oracle semantics): a NULL
                // in the indexed column simply has no index entry, so range
                // scans can never produce NULL-keyed rows.
                if key.is_null() {
                    continue;
                }
                self.storage.insert(seg, vec![key, Value::RowId(rid)])?;
            }
        }
    }

    pub(crate) fn run_create_domain_index(
        &mut self,
        name: &str,
        table: &str,
        column: &str,
        indextype: &str,
        parameters: Option<&str>,
    ) -> Result<StmtResult> {
        let tdef = self.catalog.table(table)?.clone();
        tdef.column_index(column)?;
        let it = self.catalog.registry().indextype(indextype)?;
        let params = ParamString::parse(parameters.unwrap_or(""));
        let def = DomainIndexDef {
            name: name.to_ascii_uppercase(),
            table: tdef.name.clone(),
            column: column.to_ascii_uppercase(),
            indextype: it.name.clone(),
            parameters: params,
        };
        // §2.4.1: dictionary entries first, then ODCIIndexCreate.
        self.catalog.create_domain_index(def.clone())?;
        let (index, _, info) = self.domain_index_runtime(&def)?;
        let created = odci_call(
            Lane::Write(self),
            Routine::IndexCreate,
            Callee::Index(&info),
            || format!("{} ON {}({})", def.name, def.table, def.column),
            |ctx| index.create(ctx, &info),
        );
        match created {
            Ok(()) => Ok(StmtResult::Ok),
            Err(e) => {
                // The cartridge may already have created index storage
                // before failing. DR$ tables are rolled back by statement
                // compensation, but *external* storage (file-based index
                // stores) is invisible to undo — best-effort invoke the
                // cartridge's own drop routine so nothing leaks, then
                // remove the dictionary entry.
                let cleaned = odci_call(
                    Lane::Write(self),
                    Routine::IndexDrop,
                    Callee::Index(&info),
                    || format!("{}: cleanup after failed create", def.name),
                    |ctx| index.drop_index(ctx, &info),
                );
                if cleaned.is_ok() {
                    // Belt and braces: even a successful cartridge drop
                    // can leave external files behind if the drop was
                    // bypassed or partial. The name is being released —
                    // nothing may linger under it.
                    self.force_remove_external_files(&index, &info);
                    self.catalog.drop_domain_index(&info.index_name);
                } else {
                    // Cleanup itself faulted: cartridge storage may
                    // linger, so the dictionary entry stays and the name
                    // is NOT silently reusable. REBUILD or DROP resolves.
                    let t = self.catalog.health.set_build_failed(&info.index_name);
                    self.trace_health_transition(&def.name, &def.indextype, t);
                }
                Err(e)
            }
        }
    }

    pub(crate) fn run_alter_index(&mut self, name: &str, parameters: &str) -> Result<StmtResult> {
        let delta = ParamString::parse(parameters);
        // Cartridges alter by truncating their storage and repopulating it
        // from the base table, and TRUNCATE is not undone by a statement
        // rollback: ask for the build snapshot the repopulation will take
        // now, so a refusal comes before anything is destroyed or merged.
        if let Some(d) = self.catalog.domain_index(name) {
            self.storage.build_snapshot(self.catalog.table(&d.table)?.seg)?;
        }
        let def = {
            let d = self
                .catalog
                .domain_index_mut(name)
                .ok_or_else(|| Error::not_found("domain index", name.to_ascii_uppercase()))?;
            d.parameters = d.parameters.merged_with(&delta);
            d.clone()
        };
        let (index, _, info) = self.domain_index_runtime(&def)?;
        let callee = Callee::Index(&info);
        odci_call(Lane::Write(self), Routine::IndexAlter, callee, || def.name.clone(), |ctx| {
            index.alter(ctx, &info, &delta)
        })?;
        Ok(StmtResult::Ok)
    }

    /// `ALTER INDEX … REBUILD`: recover a degraded domain index by
    /// rebuilding it from the base table through the cartridge's own
    /// create path (§2.4.1). Success restores VALID with a clean breaker;
    /// a failed create leaves BUILD_FAILED.
    pub(crate) fn run_rebuild_index(&mut self, name: &str) -> Result<StmtResult> {
        let d = self
            .catalog
            .domain_index(name)
            .cloned()
            .ok_or_else(|| Error::not_found("domain index", name.to_ascii_uppercase()))?;
        let (index, _, info) = self.domain_index_runtime(&d)?;
        // The create below takes its own build snapshot; asking here as
        // well refuses before the old storage is dropped, not after.
        self.storage.build_snapshot(self.catalog.table(&d.table)?.seg)?;
        // The umbrella event is a marker, not a bracket: REBUILD's time is
        // the time of the crossings it makes, each counted on its own.
        self.trace.record(
            Component::Recovery,
            "IndexRebuild",
            &d.indextype,
            || format!("{}: full rebuild from {}", d.name, d.table),
        );
        // Best-effort drop of whatever storage the cartridge has — it may
        // be half-written, which is exactly why we're here.
        let callee = Callee::Index(&info);
        let _ = odci_call(Lane::Write(self), Routine::IndexDrop, callee, || d.name.clone(), |ctx| {
            index.drop_index(ctx, &info)
        });
        // Rebuild-from-scratch must *replace* external storage, not append
        // to half-written leftovers the faulted drop may have missed.
        self.force_remove_external_files(&index, &info);
        let detail = || d.name.clone();
        let r = odci_call(Lane::Write(self), Routine::IndexCreate, callee, detail, |ctx| {
            index.create(ctx, &info)
        });
        if let Err(e) = r {
            let t = self.catalog.health.set_build_failed(&d.name);
            self.trace_health_transition(&d.name, &d.indextype, t);
            return Err(e);
        }
        let t = self.catalog.health.restore_valid(&d.name);
        self.trace_health_transition(&d.name, &d.indextype, t);
        Ok(StmtResult::Ok)
    }

    pub(crate) fn run_drop_index(&mut self, name: &str) -> Result<StmtResult> {
        if let Some(d) = self.catalog.domain_index(name).cloned() {
            self.drop_domain_index_entry(&d)?;
            return Ok(StmtResult::Ok);
        }
        let b = self
            .catalog
            .drop_btree_index(name)
            .ok_or_else(|| Error::not_found("index", name.to_ascii_uppercase()))?;
        self.storage.drop_segment(b.seg)?;
        Ok(StmtResult::Ok)
    }

    fn drop_domain_index_entry(&mut self, d: &DomainIndexDef) -> Result<()> {
        let (index, _, info) = self.domain_index_runtime(d)?;
        let healthy = self.catalog.health.is_usable(&d.name);
        let callee = Callee::Index(&info);
        let r = odci_call(Lane::Write(self), Routine::IndexDrop, callee, || d.name.clone(), |ctx| {
            index.drop_index(ctx, &info)
        });
        if healthy {
            r?;
        } else if let Err(e) = r {
            // Dropping a quarantined or build-failed index must always
            // succeed — its cartridge is already known-bad and the user
            // is getting rid of it. The cartridge's own cleanup failure
            // is recorded, then the dictionary entry goes regardless.
            self.trace.record(
                Component::Recovery,
                "ODCIIndexDrop",
                &d.indextype,
                || format!("{}: cleanup failure ignored on drop: {e}", d.name),
            );
        }
        // The dictionary entry is going away on every path that reaches
        // here, so nothing may linger under the index's name: even if the
        // cartridge's own drop faulted (or silently skipped files), its
        // external storage is force-removed. This is the orphan audit —
        // a dropped index must never leak its backing file.
        self.force_remove_external_files(&index, &info);
        self.catalog.drop_domain_index(&d.name);
        Ok(())
    }

    /// Force-remove every external file an index claims, tolerating
    /// already-missing files. Used wherever an index's name is released
    /// or its storage is rebuilt from scratch: cartridge cleanup is
    /// best-effort, this is the engine's guarantee.
    fn force_remove_external_files(&mut self, index: &Arc<dyn OdciIndex>, info: &IndexInfo) {
        for f in index.external_files(info) {
            let _ = self.storage.file_remove_if_exists(&f);
        }
    }

    pub(crate) fn run_create_operator(
        &mut self,
        name: &str,
        bindings: &[BindingSpec],
    ) -> Result<StmtResult> {
        let mut op: Option<Operator> = None;
        for b in bindings {
            let args: Vec<SqlType> =
                b.arg_types.iter().map(|t| self.catalog.resolve_type(t)).collect::<Result<_>>()?;
            let ret = self.catalog.resolve_type(&b.return_type)?;
            match &mut op {
                None => op = Some(Operator::with_binding(name, args, ret, &b.function_name)),
                Some(o) => o.add_binding(args, ret, &b.function_name),
            }
        }
        let op = op.ok_or_else(|| Error::Semantic("operator needs a binding".into()))?;
        let op_name = op.name.clone();
        self.catalog.registry_mut().create_operator(op)?;
        self.scope.created.push(CreatedObject::Operator(op_name));
        Ok(StmtResult::Ok)
    }

    pub(crate) fn run_create_indextype(
        &mut self,
        name: &str,
        operators: &[IndexTypeOpSpec],
        using: &str,
    ) -> Result<StmtResult> {
        let implementation = self
            .odci_impls
            .get(&using.to_ascii_uppercase())
            .cloned()
            .ok_or_else(|| Error::not_found("ODCI implementation", using))?;
        let mut ops = Vec::with_capacity(operators.len());
        for o in operators {
            let args: Vec<SqlType> =
                o.arg_types.iter().map(|t| self.catalog.resolve_type(t)).collect::<Result<_>>()?;
            ops.push(SupportedOperator { name: o.name.clone(), arg_types: args });
        }
        let it = IndexType::new(name, ops, implementation.index, implementation.stats);
        let it_name = it.name.clone();
        self.catalog.registry_mut().create_indextype(it)?;
        self.scope.created.push(CreatedObject::IndexType(it_name));
        Ok(StmtResult::Ok)
    }

    pub(crate) fn run_drop_operator(&mut self, name: &str) -> Result<StmtResult> {
        self.catalog.registry_mut().drop_operator(name)?;
        Ok(StmtResult::Ok)
    }

    pub(crate) fn run_drop_indextype(&mut self, name: &str) -> Result<StmtResult> {
        let upper = name.to_ascii_uppercase();
        for t in self.catalog.table_names() {
            if self.catalog.domain_indexes_on(&t).iter().any(|d| d.indextype == upper) {
                return Err(Error::Semantic(format!(
                    "indextype {upper} has dependent domain indexes"
                )));
            }
        }
        self.catalog.registry_mut().drop_indextype(name)?;
        Ok(StmtResult::Ok)
    }

    pub(crate) fn run_analyze(&mut self, name: &str) -> Result<StmtResult> {
        let tdef = self.catalog.table(name)?.clone();
        let col_count = tdef.columns.len();
        let pages = self.storage.page_count(tdef.seg)?;
        let mut distinct: Vec<std::collections::BTreeSet<Key>> = vec![Default::default(); col_count];
        let mut nulls = vec![0usize; col_count];
        let mut mins: Vec<Option<Value>> = vec![None; col_count];
        let mut maxs: Vec<Option<Value>> = vec![None; col_count];
        let mut visit = |_: RowId, row: &Row| {
            for (i, v) in row.iter().enumerate().take(col_count) {
                if v.is_null() {
                    nulls[i] += 1;
                    continue;
                }
                distinct[i].insert(Key::single(v.clone()));
                let lower = match &mins[i] {
                    None => true,
                    Some(m) => v.total_cmp(m) == std::cmp::Ordering::Less,
                };
                if lower {
                    mins[i] = Some(v.clone());
                }
                let higher = match &maxs[i] {
                    None => true,
                    Some(m) => v.total_cmp(m) == std::cmp::Ordering::Greater,
                };
                if higher {
                    maxs[i] = Some(v.clone());
                }
            }
        };
        // Statistics describe what this statement's own snapshot sees:
        // deferred-deleted rows and other sessions' uncommitted ones are
        // physically present but must not be counted.
        let snap = self.storage.current_snapshot();
        let mut scan = BaseScan::new(&tdef);
        let mut rows = 0;
        loop {
            let visited = scan.next_batch(&self.storage, &snap, BATCH_TARGET, &mut visit)?.len();
            if visited == 0 {
                break;
            }
            rows += visited;
        }
        let columns = (0..col_count)
            .map(|i| ColumnStats {
                ndv: distinct[i].len(),
                null_count: nulls[i],
                min: mins[i].clone(),
                max: maxs[i].clone(),
            })
            .collect();
        self.catalog.table_mut(&tdef.name)?.stats =
            Some(TableStats { row_count: rows, page_count: pages, columns });
        // ODCIStatsCollect for every domain index on the table.
        let domain: Vec<DomainIndexDef> =
            self.catalog.domain_indexes_on(&tdef.name).into_iter().cloned().collect();
        for d in domain {
            // Stats on a quarantined/build-failed index are pointless —
            // the optimizer will not consider it until REBUILD.
            if !self.catalog.health.is_usable(&d.name) {
                continue;
            }
            let (_, stats, info) = self.domain_index_runtime(&d)?;
            let callee = Callee::Index(&info);
            odci_call(Lane::Write(self), Routine::StatsCollect, callee, || d.name.clone(), |ctx| {
                stats.collect(ctx, &info)
            })?;
        }
        Ok(StmtResult::Ok)
    }
}
