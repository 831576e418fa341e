//! E15 (§4h): the batch executor with and without zone-map pruning on
//! a cold filtered full scan.
//!
//! Besides the criterion statistics, each configuration's median is
//! written as a machine-readable `BENCH_*.json` record (see
//! `extidx_bench::emit_bench_json`) so CI can archive trend data.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use extidx_bench::{emit_bench_json, time_median};
use extidx_sql::Database;

const N: usize = 20_000;

fn scan_fixture() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE events (id INTEGER, val INTEGER, note VARCHAR2(64))")
        .expect("create");
    for i in 0..N {
        db.execute(&format!(
            "INSERT INTO events VALUES ({i}, {}, 'note-{}')",
            (i * 7919) % 10_000,
            i % 97
        ))
        .expect("insert");
    }
    db.execute("ANALYZE TABLE events").expect("analyze");
    db
}

fn bench_vectorized_scan(c: &mut Criterion) {
    let mut db = scan_fixture();
    let lo = N / 2;
    let hi = lo + N / 100;
    let sql = format!("SELECT id, val FROM events WHERE id BETWEEN {lo} AND {hi}");

    let mut group = c.benchmark_group("e15_vectorized_scan");
    group.sample_size(10);
    for (label, zone) in [("batch", false), ("batch_zone", true)] {
        db.set_zone_pruning(zone);
        group.bench_with_input(BenchmarkId::new("cold_scan", label), &sql, |b, sql| {
            b.iter(|| {
                db.cold_start();
                db.query(sql).expect("scan")
            })
        });
        // Out-of-band median for the BENCH_*.json trend record.
        let med = time_median(5, || {
            db.cold_start();
            db.query(&sql).expect("scan");
        });
        emit_bench_json(&format!("e15-scan-{label}"), med, N as u64).expect("bench json");
    }
    db.set_zone_pruning(true);
    group.finish();
}

criterion_group!(benches, bench_vectorized_scan);
criterion_main!(benches);
