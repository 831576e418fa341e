//! §2.5's callback restrictions, enforced: "Index maintenance routines
//! can not execute DDL statements. Also, these routines cannot update the
//! base table on which the domain index is created. Index scan routines
//! can only execute SQL query statements. There are no restrictions on
//! the index definition routines." Plus failure injection: a cartridge
//! whose routines fail must leave no debris behind (statement atomicity).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use extidx_common::{Error, Result, RowId, Value};
use extidx_core::meta::{IndexInfo, OperatorCall};
use extidx_core::operator::ScalarFunction;
use extidx_core::params::ParamString;
use extidx_core::scan::{FetchResult, ScanContext};
use extidx_core::server::ServerContext;
use extidx_core::stats::{DefaultStats, IndexCost, OdciStats};
use extidx_core::OdciIndex;
use extidx_sql::Database;

/// What the misbehaving cartridge should attempt next.
/// 0 = behave; 1 = DDL in maintenance; 2 = base-table DML in maintenance;
/// 3 = DML in scan; 4 = fail during create after creating a table.
static MODE: AtomicU8 = AtomicU8::new(0);

/// `MODE` is process-global and the harness runs tests on parallel
/// threads, so every test that reads or writes it holds this lock for its
/// whole length. Poison-tolerant: one failing test must not fail the rest.
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn lock_mode() -> MutexGuard<'static, ()> {
    MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct NaughtyIndex;

impl OdciIndex for NaughtyIndex {
    fn create(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        srv.execute(
            &format!("CREATE TABLE {} (k INTEGER, PRIMARY KEY (k)) ORGANIZATION INDEX",
                info.storage_table_name("N")),
            &[],
        )?;
        if MODE.load(Ordering::SeqCst) == 4 {
            return Err(Error::odci(&info.indextype_name, "ODCIIndexCreate", "injected failure"));
        }
        Ok(())
    }
    fn alter(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: &ParamString) -> Result<()> {
        Ok(())
    }
    fn truncate(&self, _: &mut dyn ServerContext, _: &IndexInfo) -> Result<()> {
        Ok(())
    }
    fn drop_index(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        srv.execute(&format!("DROP TABLE {}", info.storage_table_name("N")), &[])?;
        Ok(())
    }
    fn insert(&self, srv: &mut dyn ServerContext, info: &IndexInfo, _: RowId, _: &Value) -> Result<()> {
        match MODE.load(Ordering::SeqCst) {
            1 => {
                // DDL from a maintenance routine: must be rejected.
                srv.execute("CREATE TABLE smuggled (a INTEGER)", &[])?;
                Ok(())
            }
            2 => {
                // Base-table DML from a maintenance routine: rejected.
                srv.execute(&format!("DELETE FROM {}", info.table_name), &[])?;
                Ok(())
            }
            _ => Ok(()),
        }
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
    fn start(&self, srv: &mut dyn ServerContext, info: &IndexInfo, _: &OperatorCall) -> Result<ScanContext> {
        if MODE.load(Ordering::SeqCst) == 3 {
            // DML from a scan routine: must be rejected.
            srv.execute(
                &format!("INSERT INTO {} VALUES (1)", info.storage_table_name("N")),
                &[],
            )?;
        }
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

struct NaughtyStats;
impl OdciStats for NaughtyStats {
    fn collect(&self, _: &mut dyn ServerContext, _: &IndexInfo) -> Result<()> {
        Ok(())
    }
    fn selectivity(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: &OperatorCall) -> Result<f64> {
        Ok(DefaultStats::default().default_selectivity)
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

fn naughty_db() -> Database {
    MODE.store(0, Ordering::SeqCst);
    let mut db = Database::new();
    db.register_function(ScalarFunction::new("NMatchFn", |_, _| Ok(Value::Boolean(true)))).unwrap();
    db.register_odci_implementation("NaughtyIndex", Arc::new(NaughtyIndex), Arc::new(NaughtyStats));
    db.execute("CREATE OPERATOR NMatch BINDING (INTEGER) RETURN BOOLEAN USING NMatchFn").unwrap();
    db.execute("CREATE INDEXTYPE NaughtyType FOR NMatch(INTEGER) USING NaughtyIndex").unwrap();
    db.execute("CREATE TABLE base (v INTEGER)").unwrap();
    db.execute("INSERT INTO base VALUES (1), (2)").unwrap();
    db.execute("CREATE INDEX nidx ON base(v) INDEXTYPE IS NaughtyType").unwrap();
    db
}

#[test]
fn maintenance_cannot_execute_ddl() {
    let _mode = lock_mode();
    let mut db = naughty_db();
    MODE.store(1, Ordering::SeqCst);
    let err = db.execute("INSERT INTO base VALUES (3)").unwrap_err();
    assert!(matches!(err, Error::CallbackViolation(_)), "{err}");
    // The failed statement rolled back entirely: no new row.
    MODE.store(0, Ordering::SeqCst);
    assert_eq!(db.query("SELECT COUNT(*) FROM base").unwrap()[0][0], Value::Integer(2));
    assert!(!db.catalog().has_table("SMUGGLED"));
}

#[test]
fn maintenance_cannot_modify_base_table() {
    let _mode = lock_mode();
    let mut db = naughty_db();
    MODE.store(2, Ordering::SeqCst);
    let err = db.execute("INSERT INTO base VALUES (3)").unwrap_err();
    assert!(matches!(err, Error::CallbackViolation(_)), "{err}");
    MODE.store(0, Ordering::SeqCst);
    assert_eq!(db.query("SELECT COUNT(*) FROM base").unwrap()[0][0], Value::Integer(2));
}

#[test]
fn scan_routines_are_query_only() {
    let _mode = lock_mode();
    let mut db = naughty_db();
    MODE.store(3, Ordering::SeqCst);
    let err = db.query("SELECT v FROM base WHERE NMatch(v)").unwrap_err();
    assert!(matches!(err, Error::CallbackViolation(_)), "{err}");
}

#[test]
fn definition_routines_are_unrestricted() {
    let _mode = lock_mode();
    // naughty_db()'s create issued DDL (its own index table) — §2.5: "no
    // restrictions on the index definition routines."
    let mut db = naughty_db();
    assert!(db.query("SELECT COUNT(*) FROM DR$NIDX$N").is_ok());
}

#[test]
fn failed_create_leaves_no_debris() {
    let _mode = lock_mode();
    MODE.store(0, Ordering::SeqCst);
    let mut db = Database::new();
    db.register_function(ScalarFunction::new("NMatchFn", |_, _| Ok(Value::Boolean(true)))).unwrap();
    db.register_odci_implementation("NaughtyIndex", Arc::new(NaughtyIndex), Arc::new(NaughtyStats));
    db.execute("CREATE OPERATOR NMatch BINDING (INTEGER) RETURN BOOLEAN USING NMatchFn").unwrap();
    db.execute("CREATE INDEXTYPE NaughtyType FOR NMatch(INTEGER) USING NaughtyIndex").unwrap();
    db.execute("CREATE TABLE base (v INTEGER)").unwrap();
    MODE.store(4, Ordering::SeqCst);
    let err = db.execute("CREATE INDEX nidx ON base(v) INDEXTYPE IS NaughtyType").unwrap_err();
    assert!(matches!(err, Error::Odci { .. }), "{err}");
    // Dictionary entry removed AND the half-created index table unwound
    // by statement atomicity.
    assert!(db.catalog().domain_index("NIDX").is_none());
    assert!(!db.catalog().has_table("DR$NIDX$N"));
    MODE.store(0, Ordering::SeqCst);
}

#[test]
fn transaction_control_rejected_inside_callbacks() {
    // Even definition routines may not issue BEGIN/COMMIT/ROLLBACK.
    struct TxnIndex;
    impl OdciIndex for TxnIndex {
        fn create(&self, srv: &mut dyn ServerContext, _: &IndexInfo) -> Result<()> {
            srv.execute("COMMIT", &[])?;
            Ok(())
        }
        fn alter(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: &ParamString) -> Result<()> {
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
        fn start(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: &OperatorCall) -> Result<ScanContext> {
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
    let mut db = Database::new();
    db.register_function(ScalarFunction::new("TMatchFn", |_, _| Ok(Value::Boolean(true)))).unwrap();
    db.register_odci_implementation("TxnIndex", Arc::new(TxnIndex), Arc::new(NaughtyStats));
    db.execute("CREATE OPERATOR TMatch BINDING (INTEGER) RETURN BOOLEAN USING TMatchFn").unwrap();
    db.execute("CREATE INDEXTYPE TxnType FOR TMatch(INTEGER) USING TxnIndex").unwrap();
    db.execute("CREATE TABLE base (v INTEGER)").unwrap();
    let err = db.execute("CREATE INDEX tidx ON base(v) INDEXTYPE IS TxnType").unwrap_err();
    assert!(matches!(err, Error::CallbackViolation(_)), "{err}");
}

#[test]
fn failed_create_releases_external_storage() {
    // External storage (here: a server-managed file) is invisible to the
    // statement-atomicity undo that cleans up SQL-level debris. The
    // engine must instead invoke the cartridge's own ODCIIndexDrop on a
    // failed ODCIIndexCreate, so the cartridge can release what it
    // allocated.
    use std::sync::atomic::AtomicBool;
    static FAIL: AtomicBool = AtomicBool::new(true);
    const EXT_FILE: &str = "dr$fidx.ext";

    struct FileDebrisIndex;
    impl OdciIndex for FileDebrisIndex {
        fn create(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
            srv.file_create(EXT_FILE)?;
            if FAIL.load(Ordering::SeqCst) {
                return Err(Error::odci(&info.indextype_name, "ODCIIndexCreate", "injected"));
            }
            Ok(())
        }
        fn alter(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: &ParamString) -> Result<()> {
            Ok(())
        }
        fn truncate(&self, _: &mut dyn ServerContext, _: &IndexInfo) -> Result<()> {
            Ok(())
        }
        fn drop_index(&self, srv: &mut dyn ServerContext, _: &IndexInfo) -> Result<()> {
            srv.file_remove(EXT_FILE)?;
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
        fn start(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: &OperatorCall) -> Result<ScanContext> {
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

    let mut db = Database::new();
    db.register_function(ScalarFunction::new("FMatchFn", |_, _| Ok(Value::Boolean(true)))).unwrap();
    db.register_odci_implementation("FileDebrisIndex", Arc::new(FileDebrisIndex), Arc::new(NaughtyStats));
    db.execute("CREATE OPERATOR FMatch BINDING (INTEGER) RETURN BOOLEAN USING FMatchFn").unwrap();
    db.execute("CREATE INDEXTYPE FileType FOR FMatch(INTEGER) USING FileDebrisIndex").unwrap();
    db.execute("CREATE TABLE fbase (v INTEGER)").unwrap();
    db.execute("INSERT INTO fbase VALUES (1)").unwrap();

    FAIL.store(true, Ordering::SeqCst);
    let err = db.execute("CREATE INDEX fidx ON fbase(v) INDEXTYPE IS FileType").unwrap_err();
    assert!(matches!(err, Error::Odci { .. }), "{err}");
    // The external file the failed create allocated is gone, and the
    // dictionary never recorded the index.
    assert!(!db.storage().files_ref().exists(EXT_FILE), "leaked external file");
    assert!(db.catalog().domain_index("FIDX").is_none());

    // A retry on the same name now succeeds cleanly.
    FAIL.store(false, Ordering::SeqCst);
    db.execute("CREATE INDEX fidx ON fbase(v) INDEXTYPE IS FileType").unwrap();
    assert!(db.storage().files_ref().exists(EXT_FILE));
    assert!(db.catalog().domain_index("FIDX").is_some());
}
