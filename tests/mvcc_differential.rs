//! The concurrent differential oracle (see crates/qgen/src/concurrent.rs).
//!
//! N seeded sessions interleave under a deterministic scheduler: explicit
//! transactions, autocommit statements, snapshot queries, commits, and
//! rollbacks. Every query is checked against a per-transaction mirror of
//! what its snapshot must see (under every forcible plan — FULL and each
//! domain index), and at the end the committed history is replayed, in
//! commit order, on a fresh serial twin database whose table contents
//! must be bag-equal to the concurrent survivor.
//!
//! `MVCC_SEED` pins the default run's seed (decimal or 0x-hex).

use extidx_qgen::{conflict_storm, lost_update_demo, run_concurrent_seed, run_concurrent_seed_opts, ChaosOpts};

const STEPS: usize = 120;

fn seed_from_env() -> u64 {
    match std::env::var("MVCC_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("MVCC_SEED must be a u64, got {s:?}"))
        }
        Err(_) => 1,
    }
}

/// The default gate: three seeds, three sessions each, every snapshot
/// query bag-equal to its mirror and the final state bag-equal to the
/// commit-order serial replay.
#[test]
fn concurrent_sessions_match_serial_twin() {
    let base = seed_from_env();
    for seed in [base, base + 1, base + 2] {
        let report = run_concurrent_seed(seed, 3, STEPS).unwrap_or_else(|d| {
            panic!("concurrent oracle diverged (rerun with MVCC_SEED={seed})\n{d}")
        });
        assert!(report.queries > 0, "seed {seed}: no snapshot queries exercised");
        assert!(report.commits > 0, "seed {seed}: no transactions committed");
    }
}

/// More sessions than the default gate: the scheduler must still produce
/// a committed history the serial twin agrees with.
#[test]
fn four_sessions_match_serial_twin() {
    let seed = seed_from_env();
    let report = run_concurrent_seed(seed, 4, STEPS)
        .unwrap_or_else(|d| panic!("4-session oracle diverged (MVCC_SEED={seed})\n{d}"));
    assert!(report.commits > 0);
}

/// The acceptance check for the oracle itself: with first-writer-wins
/// validation disabled, a handcrafted write-skew interleaving commits a
/// lost update and the serial twin exposes it; with validation on, the
/// same interleaving ends in `Error::WriteConflict` and the twin agrees.
#[test]
fn lost_update_is_caught_without_enforcement_and_prevented_with() {
    let divergence = lost_update_demo(false)
        .expect("with conflict checks off, the planted lost update must reach the oracle");
    assert!(
        divergence.contains("x") || !divergence.is_empty(),
        "divergence report should carry the mismatched rows: {divergence}"
    );
    assert!(
        lost_update_demo(true).is_none(),
        "with conflict checks on, first-writer-wins must abort the second writer"
    );
}

/// Long multi-seed sweep, run by scripts/ci.sh via `--include-ignored`.
/// Transparent conflict retry is live and every transaction end runs its
/// vacuum pass, and each seed also runs with the seeded random-vacuum
/// cadence on top — the bag-equality and serial-twin oracles must stay
/// green no matter when maintenance fires or how often statements are
/// invisibly retried.
#[test]
#[ignore = "long sweep; run via scripts/ci.sh or --include-ignored"]
fn concurrent_multi_seed_sweep() {
    for seed in 1..=8u64 {
        for sessions in [3, 4] {
            if let Err(d) = run_concurrent_seed(seed, sessions, STEPS) {
                panic!("seed {seed} x{sessions} diverged (MVCC_SEED={seed})\n{d}");
            }
            if let Err(d) =
                run_concurrent_seed_opts(seed, sessions, STEPS, ChaosOpts::random_vacuum(seed))
            {
                panic!("seed {seed} x{sessions} (random vacuum) diverged (MVCC_SEED={seed})\n{d}");
            }
        }
    }
}

/// Conflict storm: OS-thread writers racing commutative increments on a
/// few hot rows against an explicit-transaction blocker. Transparent
/// retry must keep every autocommit conflict invisible and the final sum
/// must account for every successful increment exactly once. Run by
/// scripts/ci.sh.
#[test]
#[ignore = "thread stress; run via scripts/ci.sh or --include-ignored"]
fn conflict_storm_stays_exact() {
    for seed in [1u64, 2, 3] {
        let report = conflict_storm(seed, 4, 60)
            .unwrap_or_else(|e| panic!("storm seed {seed}: {e}"));
        assert_eq!(
            report.surfaced_autocommit_conflicts, 0,
            "seed {seed}: transparent retry must absorb autocommit conflicts: {report:?}"
        );
        assert!(report.increments > 0, "seed {seed}: storm never incremented");
    }
}

/// Real OS threads against one `Server`: four writers race autocommit
/// inserts into one table (disjoint id ranges, retry on conflict) while
/// interleaving reads. Checks the committed row count and that no
/// partial statement ever surfaces. Run by scripts/ci.sh.
#[test]
#[ignore = "thread stress; run via scripts/ci.sh or --include-ignored"]
fn threaded_insert_stress() {
    use extidx::sql::{Database, Server};

    const THREADS: u64 = 4;
    const ROWS_PER_THREAD: u64 = 50;

    let server = Server::new(Database::new());
    {
        let mut s = server.session();
        s.execute("CREATE TABLE STRESS (id INTEGER, worker INTEGER)").unwrap();
    }
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let mut sess = server.session();
            scope.spawn(move || {
                for i in 0..ROWS_PER_THREAD {
                    let id = t * 10_000 + i;
                    let sql = format!("INSERT INTO STRESS (id, worker) VALUES ({id}, {t})");
                    // First-writer-wins can abort either side of a racing
                    // pair; the ids are disjoint so a retry must succeed.
                    let mut tries = 0;
                    while let Err(e) = sess.execute(&sql) {
                        tries += 1;
                        assert!(
                            matches!(e, extidx::common::Error::WriteConflict { .. }),
                            "worker {t}: unexpected error {e}"
                        );
                        assert!(tries < 100, "worker {t}: livelock on id {id}");
                    }
                    if i % 10 == 0 {
                        let rows = sess.query("SELECT COUNT(*) FROM STRESS").unwrap();
                        assert_eq!(rows.len(), 1, "COUNT(*) must return one row");
                    }
                }
            });
        }
    });
    let mut s = server.session();
    let rows = s.query("SELECT COUNT(*) FROM STRESS").unwrap();
    assert_eq!(
        rows[0][0],
        extidx::common::Value::Integer((THREADS * ROWS_PER_THREAD) as i64),
        "every retried insert must be durable exactly once"
    );
}
