//! The data dictionary.
//!
//! Tracks tables (heap or index-organized), columns, B-tree indexes,
//! domain indexes (§2.4.1: "the Oracle8i server creates the data
//! dictionary entries pertaining to the domain index"), object types,
//! optimizer statistics, and — through the embedded
//! [`SchemaRegistry`] — functions, operators, and indextypes.

use std::collections::HashMap;
use std::sync::Arc;

use extidx_common::{Error, ObjectTypeDef, Result, SqlType};
use extidx_core::health::HealthRegistry;
use extidx_core::params::ParamString;
use extidx_core::registry::SchemaRegistry;
use extidx_storage::SegmentId;

use crate::ast::TypeSpec;

/// A column definition.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    pub name: String,
    pub ty: SqlType,
}

/// Physical organization of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableOrg {
    /// Slotted-page heap addressed by rowid.
    Heap,
    /// Index-organized: rows live in a B-tree on the first `key_cols`
    /// columns; no rowids.
    Index { key_cols: usize },
}

/// Per-column optimizer statistics from ANALYZE.
#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    pub ndv: usize,
    pub null_count: usize,
    pub min: Option<extidx_common::Value>,
    pub max: Option<extidx_common::Value>,
}

/// Per-table optimizer statistics from ANALYZE.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    pub row_count: usize,
    pub page_count: usize,
    pub columns: Vec<ColumnStats>,
}

/// A table's dictionary entry.
#[derive(Debug, Clone)]
pub struct TableDef {
    pub name: String,
    pub columns: Vec<ColumnDef>,
    pub org: TableOrg,
    pub seg: SegmentId,
    /// ANALYZE output, if any.
    pub stats: Option<TableStats>,
}

impl TableDef {
    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        let upper = name.to_ascii_uppercase();
        self.columns
            .iter()
            .position(|c| c.name == upper)
            .ok_or_else(|| Error::not_found("column", format!("{}.{upper}", self.name)))
    }

    /// Column definition by name.
    pub fn column(&self, name: &str) -> Result<&ColumnDef> {
        Ok(&self.columns[self.column_index(name)?])
    }
}

/// A B-tree (built-in) secondary index entry. Its storage is an IOT
/// segment holding `(key_value, rowid)` rows.
#[derive(Debug, Clone)]
pub struct BTreeIndexDef {
    pub name: String,
    pub table: String,
    pub column: String,
    pub seg: SegmentId,
}

/// A domain index dictionary entry (§2.4.1).
#[derive(Debug, Clone)]
pub struct DomainIndexDef {
    pub name: String,
    pub table: String,
    pub column: String,
    pub indextype: String,
    /// Effective parameters: CREATE's merged with every ALTER since.
    pub parameters: ParamString,
}

/// The data dictionary.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, TableDef>,
    btree_indexes: HashMap<String, BTreeIndexDef>,
    domain_indexes: HashMap<String, DomainIndexDef>,
    object_types: HashMap<String, ObjectTypeDef>,
    /// Extensibility schema objects (functions, operators, indextypes).
    registry: SchemaRegistry,
    /// Domain-index health: the VALID/SUSPECT/QUARANTINED/BUILD_FAILED
    /// state machine and its circuit breaker.
    pub health: HealthRegistry,
    /// Stamp of the dictionary contents (everything but `health`): every
    /// `&mut` entry point bumps it, so equal stamps mean equal contents.
    version: u64,
    /// The image [`Catalog::dump`] built last, with the stamp it is of.
    image: Option<(u64, Arc<DictImage>)>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The dictionary stamp: equal versions mean equal contents (health
    /// aside), which is what lets a cached plan outlive its statement.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The extensibility schema objects, read-only.
    pub fn registry(&self) -> &SchemaRegistry {
        &self.registry
    }

    /// The extensibility schema objects, for CREATE / DROP of a function,
    /// operator or indextype.
    pub fn registry_mut(&mut self) -> &mut SchemaRegistry {
        self.version += 1;
        &mut self.registry
    }

    // ---- V$ virtual tables ------------------------------------------------------

    /// Whether a name addresses a `V$` dynamic-performance virtual table.
    /// These are resolved by the optimizer like ordinary tables but are
    /// materialized from engine state when they run and are read-only;
    /// the views themselves are declared once, in `vtables.rs`.
    pub fn is_vtable(name: &str) -> bool {
        let n = name.as_bytes();
        n.len() > 2 && (n[0] == b'V' || n[0] == b'v') && n[1] == b'$'
    }

    // ---- tables ---------------------------------------------------------------

    /// Add a table.
    pub fn create_table(&mut self, def: TableDef) -> Result<()> {
        self.version += 1;
        if self.tables.contains_key(&def.name) {
            return Err(Error::already_exists("table", &def.name));
        }
        self.tables.insert(def.name.clone(), def);
        Ok(())
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&TableDef> {
        let upper = name.to_ascii_uppercase();
        self.tables.get(&upper).ok_or_else(|| Error::not_found("table", upper))
    }

    /// Mutable table entry (for stats updates).
    pub fn table_mut(&mut self, name: &str) -> Result<&mut TableDef> {
        self.version += 1;
        let upper = name.to_ascii_uppercase();
        self.tables.get_mut(&upper).ok_or_else(|| Error::not_found("table", upper))
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_uppercase())
    }

    /// Remove a table entry; returns it.
    pub fn drop_table(&mut self, name: &str) -> Result<TableDef> {
        self.version += 1;
        let upper = name.to_ascii_uppercase();
        self.tables.remove(&upper).ok_or_else(|| Error::not_found("table", upper))
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    // ---- B-tree indexes ----------------------------------------------------------

    /// Register a B-tree index.
    pub fn create_btree_index(&mut self, def: BTreeIndexDef) -> Result<()> {
        self.version += 1;
        if self.btree_indexes.contains_key(&def.name) || self.domain_indexes.contains_key(&def.name) {
            return Err(Error::already_exists("index", &def.name));
        }
        self.btree_indexes.insert(def.name.clone(), def);
        Ok(())
    }

    /// B-tree index by name.
    pub fn btree_index(&self, name: &str) -> Option<&BTreeIndexDef> {
        self.btree_indexes.get(&name.to_ascii_uppercase())
    }

    /// All B-tree indexes on a table.
    pub fn btree_indexes_on(&self, table: &str) -> Vec<&BTreeIndexDef> {
        let upper = table.to_ascii_uppercase();
        let mut v: Vec<&BTreeIndexDef> =
            self.btree_indexes.values().filter(|d| d.table == upper).collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Remove a B-tree index entry.
    pub fn drop_btree_index(&mut self, name: &str) -> Option<BTreeIndexDef> {
        self.version += 1;
        self.btree_indexes.remove(&name.to_ascii_uppercase())
    }

    // ---- domain indexes -------------------------------------------------------------

    /// Register a domain index.
    pub fn create_domain_index(&mut self, def: DomainIndexDef) -> Result<()> {
        self.version += 1;
        if self.btree_indexes.contains_key(&def.name) || self.domain_indexes.contains_key(&def.name) {
            return Err(Error::already_exists("index", &def.name));
        }
        self.health.register(&def.name);
        self.domain_indexes.insert(def.name.clone(), def);
        Ok(())
    }

    /// Domain index by name.
    pub fn domain_index(&self, name: &str) -> Option<&DomainIndexDef> {
        self.domain_indexes.get(&name.to_ascii_uppercase())
    }

    /// Mutable domain index (for ALTER parameter merging).
    pub fn domain_index_mut(&mut self, name: &str) -> Option<&mut DomainIndexDef> {
        self.version += 1;
        self.domain_indexes.get_mut(&name.to_ascii_uppercase())
    }

    /// All domain indexes on a table.
    pub fn domain_indexes_on(&self, table: &str) -> Vec<&DomainIndexDef> {
        let upper = table.to_ascii_uppercase();
        let mut v: Vec<&DomainIndexDef> =
            self.domain_indexes.values().filter(|d| d.table == upper).collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Remove a domain index entry (and its health record).
    pub fn drop_domain_index(&mut self, name: &str) -> Option<DomainIndexDef> {
        self.version += 1;
        self.health.remove(name);
        self.domain_indexes.remove(&name.to_ascii_uppercase())
    }

    // ---- object types -----------------------------------------------------------------

    /// Register an object type.
    pub fn create_object_type(&mut self, def: ObjectTypeDef) -> Result<()> {
        self.version += 1;
        if self.object_types.contains_key(&def.name) {
            return Err(Error::already_exists("type", &def.name));
        }
        self.object_types.insert(def.name.clone(), def);
        Ok(())
    }

    /// Object type by name.
    pub fn object_type(&self, name: &str) -> Option<&ObjectTypeDef> {
        self.object_types.get(&name.to_ascii_uppercase())
    }

    /// Remove an object type (statement-failure compensation).
    pub fn drop_object_type(&mut self, name: &str) -> Option<ObjectTypeDef> {
        self.version += 1;
        self.object_types.remove(&name.to_ascii_uppercase())
    }

    /// Resolve a parsed [`TypeSpec`] to a [`SqlType`], consulting object
    /// types.
    pub fn resolve_type(&self, spec: &TypeSpec) -> Result<SqlType> {
        Ok(match spec {
            TypeSpec::Integer => SqlType::Integer,
            TypeSpec::Number => SqlType::Number,
            TypeSpec::Varchar(n) => SqlType::Varchar(*n),
            TypeSpec::Boolean => SqlType::Boolean,
            TypeSpec::Lob => SqlType::Lob,
            TypeSpec::RowId => SqlType::RowId,
            TypeSpec::VArray(elem) => SqlType::VArray(Box::new(self.resolve_type(elem)?)),
            TypeSpec::Named(name) => {
                let def = self
                    .object_type(name)
                    .ok_or_else(|| Error::not_found("type", name.clone()))?;
                SqlType::Object(def.clone())
            }
        })
    }

    /// All domain indexes, sorted by name (recovery audits each one).
    pub fn domain_index_defs(&self) -> Vec<&DomainIndexDef> {
        let mut v: Vec<&DomainIndexDef> = self.domain_indexes.values().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    // ---- durability -------------------------------------------------------

    /// The catalog as of now, for a WAL commit marker or checkpoint. The
    /// dictionary image is deep-copied once per stamp and shared by every
    /// dump until the next DDL / ANALYZE (`SchemaRegistry` clones its
    /// maps; indextype implementations stay shared `Arc`s, immutable once
    /// registered). Health is exported every time — its `calls` counter
    /// is the breaker's clock and moves on every crossing — but shares
    /// each index's entry until that entry changes.
    pub fn dump(&mut self) -> CatalogDump {
        let dict = match &self.image {
            Some((stamp, dict)) if *stamp == self.version => dict.clone(),
            _ => {
                let dict = Arc::new(DictImage {
                    tables: self.tables.clone(),
                    btree_indexes: self.btree_indexes.clone(),
                    domain_indexes: self.domain_indexes.clone(),
                    object_types: self.object_types.clone(),
                    registry: self.registry.clone(),
                });
                self.image = Some((self.version, dict.clone()));
                dict
            }
        };
        CatalogDump { dict, health: self.health.export() }
    }

    /// Restore catalog contents from a dump taken by [`Catalog::dump`].
    /// The existing `HealthRegistry` handle is kept (so clones held by
    /// V$ views and cartridges stay wired) and its contents replaced.
    pub fn restore(&mut self, dump: &CatalogDump) {
        self.version += 1;
        self.tables = dump.dict.tables.clone();
        self.btree_indexes = dump.dict.btree_indexes.clone();
        self.domain_indexes = dump.dict.domain_indexes.clone();
        self.object_types = dump.dict.object_types.clone();
        self.registry = dump.dict.registry.clone();
        self.health.import(&dump.health);
    }
}

/// Point-in-time copy of the catalog: the durable half of a WAL commit
/// marker (the other half being engine row/LOB state, which the WAL
/// records rebuild directly).
#[derive(Debug, Clone)]
pub struct CatalogDump {
    dict: Arc<DictImage>,
    health: extidx_core::HealthDump,
}

/// The dictionary half of a [`CatalogDump`], immutable once built.
#[derive(Debug)]
struct DictImage {
    tables: HashMap<String, TableDef>,
    btree_indexes: HashMap<String, BTreeIndexDef>,
    domain_indexes: HashMap<String, DomainIndexDef>,
    object_types: HashMap<String, ObjectTypeDef>,
    registry: SchemaRegistry,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp_table(seg: u32) -> TableDef {
        TableDef {
            name: "EMPLOYEES".into(),
            columns: vec![
                ColumnDef { name: "NAME".into(), ty: SqlType::Varchar(128) },
                ColumnDef { name: "ID".into(), ty: SqlType::Integer },
                ColumnDef { name: "RESUME".into(), ty: SqlType::Varchar(1024) },
            ],
            org: TableOrg::Heap,
            seg: SegmentId(seg),
            stats: None,
        }
    }

    #[test]
    fn table_lifecycle_case_insensitive() {
        let mut c = Catalog::new();
        c.create_table(emp_table(1)).unwrap();
        assert!(c.table("employees").is_ok());
        assert!(c.has_table("Employees"));
        assert!(c.create_table(emp_table(2)).is_err());
        c.drop_table("EMPLOYEES").unwrap();
        assert!(!c.has_table("employees"));
    }

    #[test]
    fn column_lookup() {
        let t = emp_table(1);
        assert_eq!(t.column_index("id").unwrap(), 1);
        assert!(t.column_index("missing").is_err());
        assert_eq!(t.column("resume").unwrap().ty, SqlType::Varchar(1024));
    }

    #[test]
    fn index_name_collision_across_kinds() {
        let mut c = Catalog::new();
        c.create_btree_index(BTreeIndexDef {
            name: "IDX".into(),
            table: "T".into(),
            column: "A".into(),
            seg: SegmentId(5),
        })
        .unwrap();
        let dup = DomainIndexDef {
            name: "IDX".into(),
            table: "T".into(),
            column: "B".into(),
            indextype: "X".into(),
            parameters: ParamString::empty(),
        };
        assert!(c.create_domain_index(dup).is_err());
    }

    #[test]
    fn indexes_on_table_sorted() {
        let mut c = Catalog::new();
        for (n, t) in [("B_IDX", "T1"), ("A_IDX", "T1"), ("C_IDX", "T2")] {
            c.create_btree_index(BTreeIndexDef {
                name: n.into(),
                table: t.into(),
                column: "X".into(),
                seg: SegmentId(1),
            })
            .unwrap();
        }
        let on_t1: Vec<&str> = c.btree_indexes_on("t1").iter().map(|d| d.name.as_str()).collect();
        assert_eq!(on_t1, vec!["A_IDX", "B_IDX"]);
    }

    #[test]
    fn resolve_named_type() {
        let mut c = Catalog::new();
        c.create_object_type(ObjectTypeDef::new(
            "pt",
            vec![("x".into(), SqlType::Number), ("y".into(), SqlType::Number)],
        ))
        .unwrap();
        let t = c.resolve_type(&TypeSpec::Named("PT".into())).unwrap();
        assert!(matches!(t, SqlType::Object(def) if def.name == "PT"));
        assert!(c.resolve_type(&TypeSpec::Named("NOPE".into())).is_err());
    }

    /// A dump reuses the dictionary image until a `&mut` entry point runs,
    /// and every one of them cuts a new image.
    #[test]
    fn dump_shares_the_image_until_the_dictionary_is_touched() {
        let same = |c: &mut Catalog| Arc::ptr_eq(&c.dump().dict, &c.dump().dict);
        let mut c = Catalog::new();
        assert!(same(&mut c));
        let idx = |name: &str| BTreeIndexDef {
            name: name.into(),
            table: "EMPLOYEES".into(),
            column: "ID".into(),
            seg: SegmentId(2),
        };
        let dom = DomainIndexDef {
            name: "D".into(),
            table: "EMPLOYEES".into(),
            column: "RESUME".into(),
            indextype: "X".into(),
            parameters: ParamString::empty(),
        };
        type Touch = Box<dyn Fn(&mut Catalog)>;
        let touches: Vec<Touch> = vec![
            Box::new(|c| c.create_table(emp_table(1)).unwrap()),
            Box::new(|c| c.table_mut("employees").unwrap().stats = Some(TableStats::default())),
            Box::new(move |c| c.create_btree_index(idx("I")).unwrap()),
            Box::new(|c| drop(c.drop_btree_index("I"))),
            Box::new(move |c| c.create_domain_index(dom.clone()).unwrap()),
            Box::new(|c| assert!(c.domain_index_mut("D").is_some())),
            Box::new(|c| drop(c.drop_domain_index("D"))),
            Box::new(|c| c.create_object_type(ObjectTypeDef::new("pt", vec![])).unwrap()),
            Box::new(|c| drop(c.drop_object_type("pt"))),
            Box::new(|c| assert!(c.registry_mut().indextype_names().is_empty())),
            Box::new(|c| drop(c.drop_table("employees"))),
            Box::new(|c| {
                let d = c.dump();
                c.restore(&d)
            }),
        ];
        for (i, touch) in touches.iter().enumerate() {
            let before = c.dump().dict;
            touch(&mut c);
            assert!(!Arc::ptr_eq(&before, &c.dump().dict), "entry point {i} kept the old image");
            assert!(same(&mut c), "entry point {i}: image not reused afterwards");
        }
    }
}
