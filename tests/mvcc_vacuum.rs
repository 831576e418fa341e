//! Incremental vacuum and sub-LOB conflict granularity (DESIGN.md §4k),
//! and where the vacuum runs (§4l).
//!
//! Five invariants:
//! - **bounded chains without quiescence**: with at least one transaction
//!   open at every moment, the horizon-keyed vacuum still prunes settled
//!   versions, so chain occupancy stays bounded under churn and drains to
//!   zero once the last transaction commits;
//! - **visibility safety**: an explicit `VACUUM` (or the implicit passes
//!   at commit/rollback) never removes a version some live snapshot can
//!   still see, through any scan shape (domain index, functional full
//!   scan, zone-prunable range scan) — checked as a property;
//! - **span granularity**: two sessions maintaining the *same* chemistry
//!   domain index commit cleanly when their writes touch disjoint byte
//!   ranges of the shared fingerprint LOB, and first-writer-wins fires
//!   (naming the winning transaction) only on genuine overlap;
//! - **chain-aware pruning**: zone pruning stays active on a segment that
//!   carries version chains, and the widened bounds remain a superset of
//!   every version any snapshot can see;
//! - **no idle pass**: a commit that leaves the horizon where the last
//!   pass left it runs no pass, and loses nothing by skipping it.

use extidx::common::{Error, Value};
use extidx::sql::{Database, Server, Session};
use extidx_qgen::fresh_db;
use proptest::prelude::*;

const MOLS: [&str; 6] = ["CCO", "COC", "OCC", "CCC", "CCN", "CCS"];

fn sorted_ids(rows: &[Vec<Value>]) -> Vec<i64> {
    let mut ids: Vec<i64> = rows
        .iter()
        .map(|r| match r[0] {
            Value::Integer(i) => i,
            ref v => panic!("expected integer id, got {v:?}"),
        })
        .collect();
    ids.sort_unstable();
    ids
}

fn probes(lo: i64, hi: i64) -> [String; 3] {
    [
        "SELECT /*+ INDEX(MV MV_MOL) */ id FROM MV WHERE MolContains(mol, 'CO')".to_string(),
        "SELECT /*+ NO_INDEX */ id FROM MV WHERE MolContains(mol, 'CO')".to_string(),
        format!("SELECT id FROM MV WHERE num >= {lo} AND num <= {hi}"),
    ]
}

fn observe(sess: &mut Session, lo: i64, hi: i64) -> Vec<Vec<i64>> {
    probes(lo, hi)
        .iter()
        .map(|q| sorted_ids(&sess.query(q).expect("probe query must run")))
        .collect()
}

/// A server with `MV (id, mol, num)`, a chemistry domain index on `mol`
/// (fingerprints in a shared LOB), and `n` seeded rows.
fn setup(n: usize, seed: u64) -> Server {
    let server = Server::new(fresh_db());
    let mut s = server.session();
    s.execute("CREATE TABLE MV (id INTEGER, mol VARCHAR2(64), num INTEGER)").unwrap();
    s.execute("CREATE INDEX MV_MOL ON MV(mol) INDEXTYPE IS ChemIndexType").unwrap();
    for i in 0..n {
        let mol = MOLS[(seed as usize + i) % MOLS.len()];
        let num = ((seed >> 8) as i64 + i as i64 * 13) % 200;
        s.execute(&format!("INSERT INTO MV (id, mol, num) VALUES ({i}, '{mol}', {num})"))
            .unwrap();
    }
    server
}

/// Total (chains, versions) across every segment, LOB included.
fn occupancy(server: &Server) -> (usize, usize) {
    server.read(|db| {
        db.storage()
            .mvcc_segment_stats()
            .iter()
            .fold((0, 0), |(c, v), (_, sc, sv)| (c + sc, v + sv))
    })
}

/// Soak: ping-pong two writers so at least one transaction is open at
/// every scheduler moment — there is never a quiescent point — yet chain
/// occupancy stays bounded and drains to zero at the end.
#[test]
fn chains_stay_bounded_without_quiescence() {
    const ROUNDS: usize = 60;
    let server = setup(20, 7);
    let mut a = server.session();
    let mut b = server.session();
    a.execute("BEGIN").unwrap();
    let mut max_versions = 0usize;
    for r in 0..ROUNDS {
        // Overlap before the older transaction retires: B opens while A
        // is still active, so the system is never quiescent.
        let (open, closing) = if r % 2 == 0 { (&mut b, &mut a) } else { (&mut a, &mut b) };
        open.execute("BEGIN").unwrap();
        let id = r % 20;
        let mol = MOLS[r % MOLS.len()];
        closing
            .execute(&format!("UPDATE MV SET mol = '{mol}', num = {r} WHERE id = {id}"))
            .unwrap();
        closing.execute("COMMIT").unwrap();
        let (_, versions) = occupancy(&server);
        max_versions = max_versions.max(versions);
    }
    assert!(
        max_versions > 0,
        "the soak must actually create version chains to be meaningful"
    );
    assert!(
        max_versions <= 16,
        "incremental vacuum must bound chain occupancy under churn \
         without quiescence; saw {max_versions} versions held"
    );
    // Retire the last open transaction; one explicit pass drains the
    // rest. After round r the session opened in it is still live: b for
    // even r, a for odd — the final round is ROUNDS - 1.
    let mut last = if (ROUNDS - 1).is_multiple_of(2) { b } else { a };
    last.execute("COMMIT").unwrap();
    last.execute("VACUUM").unwrap();
    let (chains, versions) = occupancy(&server);
    assert_eq!(
        (chains, versions),
        (0, 0),
        "after the last commit every chain must drain to zero"
    );
    let stats = server.read(|db| db.storage().vacuum_stats());
    assert!(stats.runs > 0, "vacuum passes must have fired: {stats:?}");
    assert!(stats.versions_pruned > 0, "the soak must have pruned versions: {stats:?}");
}

/// Two sessions maintain the same chemistry domain index concurrently.
/// Updates to different rows touch disjoint byte ranges of the shared
/// fingerprint LOB (distinct tombstone offsets, appends at distinct
/// ends), so both commit; updates to the same row overlap and the second
/// writer loses first-writer-wins with an error naming the winner.
#[test]
fn same_index_concurrent_maintenance_is_span_granular() {
    let server = setup(12, 3);
    let mut w1 = server.session();
    let mut w2 = server.session();

    // Disjoint rows: no spurious abort.
    w1.execute("BEGIN").unwrap();
    w2.execute("BEGIN").unwrap();
    w1.execute("UPDATE MV SET mol = 'CCO' WHERE id = 2").unwrap();
    w2.execute("UPDATE MV SET mol = 'COC' WHERE id = 7").unwrap();
    w1.execute("COMMIT").expect("disjoint LOB spans must not conflict");
    w2.execute("COMMIT").expect("disjoint LOB spans must not conflict");

    // Same row: genuine overlap, FWW names the winning transaction.
    server.admin(|db| db.trace().set_enabled(true));
    w1.execute("BEGIN").unwrap();
    w2.execute("BEGIN").unwrap();
    let winner = w1.snapshot().unwrap().txn;
    w1.execute("UPDATE MV SET mol = 'OCC' WHERE id = 5").unwrap();
    let err = w2
        .execute("UPDATE MV SET mol = 'CCN' WHERE id = 5")
        .expect_err("overlapping writes to one row must conflict");
    match err {
        Error::WriteConflict { other_txn, ref key, .. } => {
            assert_eq!(other_txn, winner, "conflict must name the winning txn: {err}");
            assert!(!key.is_empty(), "conflict must name the contended key: {err}");
        }
        other => panic!("expected WriteConflict, got {other}"),
    }
    w1.execute("COMMIT").unwrap();
    w2.execute("ROLLBACK").unwrap();

    // The abort is observable after the fact: V$TRACE carries a TXN row.
    let mut s = server.session();
    let rows = s
        .query("SELECT DETAIL FROM V$TRACE WHERE COMPONENT = 'TXN'")
        .expect("V$TRACE must be queryable");
    assert!(
        rows.iter().any(|r| r[0].to_string().contains(&format!("txn {winner}"))),
        "the FWW abort must be recorded in V$TRACE: {rows:?}"
    );
}

/// V$MVCC: the TOTAL row is always present; chain counters rise while a
/// displacing transaction is open and fall back after commit + vacuum.
#[test]
fn v_mvcc_reports_occupancy_and_vacuum_counters() {
    let server = setup(10, 11);
    let mut s = server.session();
    let total = |s: &mut Session| -> Vec<Value> {
        s.query("SELECT CHAINS, VERSIONS, VACUUM_RUNS FROM V$MVCC WHERE SEGMENT = 'TOTAL'")
            .unwrap()
            .remove(0)
    };
    let drained = total(&mut s);
    assert_eq!((&drained[0], &drained[1]), (&Value::Integer(0), &Value::Integer(0)));

    let mut w = server.session();
    w.execute("BEGIN").unwrap();
    w.execute("UPDATE MV SET mol = 'CCO', num = 999 WHERE id = 3").unwrap();
    let busy = total(&mut s);
    assert!(
        matches!(busy[0], Value::Integer(c) if c > 0),
        "an open displacing txn must show chains in V$MVCC: {busy:?}"
    );
    w.execute("COMMIT").unwrap();
    s.execute("VACUUM").unwrap();
    let after = total(&mut s);
    assert_eq!(
        (&after[0], &after[1]),
        (&Value::Integer(0), &Value::Integer(0)),
        "commit + vacuum must drain the chains: {after:?}"
    );
    assert!(matches!(after[2], Value::Integer(r) if r > 0), "vacuum runs must count: {after:?}");
}

/// Zone pruning stays active on a segment that carries version chains,
/// and the widened bounds stay a superset: the displaced version a
/// concurrent snapshot reads is never hidden by a pruned page.
#[test]
fn zone_pruning_active_on_chained_segment() {
    let server = Server::new(fresh_db());
    let mut s = server.session();
    s.execute("CREATE TABLE big (id INTEGER, val INTEGER)").unwrap();
    for i in 0..3000i64 {
        s.execute_with("INSERT INTO big VALUES (?, ?)", &[i.into(), i.into()]).unwrap();
    }
    s.execute("ANALYZE TABLE big").unwrap();

    // Reader pins a snapshot of the original world.
    let mut reader = server.session();
    reader.execute("BEGIN").unwrap();

    // Writer displaces rows (commits, but after the reader's snapshot),
    // then an explicit vacuum runs with the reader still live.
    let mut w = server.session();
    w.execute("UPDATE big SET val = 900000 WHERE id = 1500").unwrap();
    w.execute("UPDATE big SET val = -900000 WHERE id = 1501").unwrap();
    w.execute("VACUUM").unwrap();
    let seg_versions = occupancy(&server).1;
    assert!(seg_versions > 0, "the reader's snapshot must be pinning displaced versions");

    // The chained segment still prunes: a tight range over 3000 rows
    // must skip pages, and the row counts must be exact for both worlds.
    let lines: Vec<String> = reader
        .query("EXPLAIN ANALYZE SELECT id FROM big WHERE val BETWEEN 1200 AND 1250")
        .unwrap()
        .into_iter()
        .map(|r| r[0].to_string())
        .collect();
    let summary = lines.last().unwrap();
    let pruned: u64 = {
        let at = summary.rfind("pages pruned=").expect("summary line") + "pages pruned=".len();
        summary[at..].chars().take_while(|c| c.is_ascii_digit()).collect::<String>().parse().unwrap()
    };
    assert!(pruned > 0, "pruning must stay active on a chained segment: {summary}");

    // Superset invariant, snapshot side: the reader still finds the
    // displaced originals through the (possibly pruned) scan...
    assert_eq!(
        sorted_ids(&reader.query("SELECT id FROM big WHERE val = 1500").unwrap()),
        vec![1500],
        "reader must still see the displaced pre-update version"
    );
    assert_eq!(
        sorted_ids(&reader.query("SELECT id FROM big WHERE val = 1501").unwrap()),
        vec![1501]
    );
    // ...and the latest world finds the teleported values (widened bounds).
    assert_eq!(
        sorted_ids(&s.query("SELECT id FROM big WHERE val = 900000").unwrap()),
        vec![1500]
    );
    assert_eq!(
        sorted_ids(&s.query("SELECT id FROM big WHERE val = -900000").unwrap()),
        vec![1501]
    );
    reader.execute("COMMIT").unwrap();
    s.execute("VACUUM").unwrap();
    assert_eq!(occupancy(&server), (0, 0), "chains must drain once the reader retires");
}

/// E19's pinned-horizon case as counts (DESIGN.md §4l): a reader pins the
/// horizon under ~8 000 displaced versions, and 500 autocommit updates of
/// an 8-row hot table then commit without one vacuum pass — each would
/// walk every chain and prune nothing. An explicit `VACUUM` afterwards
/// prunes nothing either, so the skipped passes lost nothing, and the
/// reader's `COMMIT` alone drains every chain.
#[test]
fn commits_under_a_pinned_horizon_skip_the_vacuum_pass() {
    let mut db = Database::new();
    db.execute("CREATE TABLE big (id INTEGER, val INTEGER)").unwrap();
    for chunk in 0..8 {
        let rows: Vec<String> = (0..500).map(|i| format!("({}, 0)", chunk * 500 + i)).collect();
        db.execute(&format!("INSERT INTO big VALUES {}", rows.join(", "))).unwrap();
    }
    db.execute("CREATE TABLE hot (id INTEGER, n INTEGER)").unwrap();
    let hot: Vec<String> = (0..8).map(|i| format!("({i}, 0)")).collect();
    db.execute(&format!("INSERT INTO hot VALUES {}", hot.join(", "))).unwrap();
    let server = Server::new(db);
    let vacuum_stats = || server.read(|db| db.storage().vacuum_stats());

    let mut reader = server.session();
    reader.execute("BEGIN").unwrap();
    let mut w = server.session();
    w.execute("UPDATE big SET val = val + 1").unwrap();
    w.execute("UPDATE big SET val = val + 1").unwrap();

    let before = vacuum_stats();
    for i in 0..500 {
        w.execute(&format!("UPDATE hot SET n = n + 1 WHERE id = {}", i % 8)).unwrap();
    }
    assert_eq!(vacuum_stats().runs, before.runs, "a commit under a pinned horizon ran a pass");
    assert!(occupancy(&server).1 >= 8_500, "the reader must pin every displaced version");

    w.execute("VACUUM").unwrap();
    let after = vacuum_stats();
    assert_eq!(after.runs, before.runs + 1);
    assert_eq!(after.versions_pruned, before.versions_pruned, "a skipped pass had work to do");

    reader.execute("COMMIT").unwrap();
    let total = w
        .query("SELECT CHAINS, VERSIONS FROM V$MVCC WHERE SEGMENT = 'TOTAL'")
        .unwrap()
        .remove(0);
    assert_eq!(total, vec![Value::Integer(0), Value::Integer(0)], "the reader's COMMIT must drain");
}

proptest! {
    /// Property: an explicit vacuum firing while a snapshot is live never
    /// removes a version that snapshot can still see — observed through
    /// the domain index, the functional full scan, and the zone-prunable
    /// range scan alike.
    #[test]
    fn vacuum_never_removes_a_visible_version(
        n in 8usize..20,
        seed in any::<u64>(),
    ) {
        let server = setup(n, seed);
        let lo = (seed % 100) as i64;
        let hi = lo + 60;
        let victim = (seed % n as u64) as i64;
        let other = ((seed >> 16) % n as u64) as i64;

        let mut reader = server.session();
        reader.execute("BEGIN").unwrap();
        let baseline = observe(&mut reader, lo, hi);

        let mut writer = server.session();
        writer.execute("BEGIN").unwrap();
        writer
            .execute(&format!(
                "INSERT INTO MV (id, mol, num) VALUES ({}, 'CCO', {})",
                n as i64 + 1,
                lo + 1
            ))
            .unwrap();
        writer
            .execute(&format!("UPDATE MV SET mol = 'CCO', num = {} WHERE id = {victim}", lo + 2))
            .unwrap();
        writer.execute(&format!("DELETE FROM MV WHERE id = {other}")).unwrap();
        writer.execute("COMMIT").unwrap();

        // Hammer the vacuum with the reader's snapshot live: every pass
        // must keep each version the reader can still see.
        for _ in 0..3 {
            server.admin(|db| db.vacuum());
            prop_assert_eq!(&observe(&mut reader, lo, hi), &baseline);
        }
        reader.execute("COMMIT").unwrap();

        // With the reader retired the horizon advances past the commit;
        // a final pass drains everything and the new world is intact.
        server.admin(|db| db.vacuum());
        prop_assert_eq!(occupancy(&server), (0, 0));
        let now = observe(&mut server.session(), lo, hi);
        prop_assert!(now[0].contains(&(n as i64 + 1)) && now[1].contains(&(n as i64 + 1)));
        for obs in &now {
            prop_assert!(!obs.contains(&other), "committed DELETE must hide id {}", other);
        }
    }
}
