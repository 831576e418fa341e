//! The ledger at `--smoke` size: every workload runs both passes, every
//! metric `BENCHMARK.json` names is present and finite, each workload
//! bypasses the layers it was built to bypass, and a seed fixes the
//! statement stream and every count metric of the single-client workloads.

use std::time::Instant;

use extidx_ledger::fixtures::Size;
use extidx_ledger::json::{self, Json};
use extidx_ledger::layers::per_layer;
use extidx_ledger::run::{end_to_end, Report};
use extidx_ledger::workloads::{setup, SetupOpts, Workload};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")).expect("valid JSON")
}

fn names(benchmark: &Json, section: &str) -> Vec<String> {
    benchmark
        .get(section)
        .expect("section")
        .as_arr()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string())
        .collect()
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{}: metric {name} missing", report.workload.name()))
        .value
}

/// Every metric of `section` is reported, finite, and nothing else is.
fn assert_covers(report: &Report, benchmark: &Json, section: &str) {
    let want = names(benchmark, section);
    for name in &want {
        let v = value(report, name);
        assert!(v.is_finite(), "{}: {name} = {v}", report.workload.name());
    }
    for m in &report.metrics {
        assert!(want.contains(&m.name), "{} is not in BENCHMARK.json {section}", m.name);
        let unit = benchmark
            .get(section)
            .unwrap()
            .as_arr()
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(&m.name));
        assert_eq!(unit.and_then(|u| u.get("unit")).and_then(Json::as_str), Some(m.unit), "unit of {}", m.name);
    }
}

#[test]
fn smoke_all_workloads_both_passes() {
    let started = Instant::now();
    let benchmark = benchmark_json();
    let listed: Vec<String> = benchmark
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(listed, Workload::ALL.map(|w| w.name().to_string()));
    let size = Size::smoke();
    for w in Workload::ALL {
        let e2e = end_to_end(w, 7, &size, 0.5, 1).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_covers(&e2e, &benchmark, "end_to_end");
        assert_eq!(e2e.failed, 0, "{}: fail_ratio must be 0", w.name());
        assert!(e2e.attempted > 0);
        for m in &e2e.metrics {
            assert!(m.value > 0.0, "{}: end-to-end metric {} must never be 0", w.name(), m.name);
        }

        let layers = per_layer(w, 7, &size).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let l = &layers.report;
        assert_covers(l, &benchmark, "per_layer");
        assert_eq!(l.failed, 0);

        // parse + plan + exec add up to the statement (exec is clamped at
        // 0, so an over-long probe would break the sum).
        let parts =
            value(l, "sql.parser.parse_us") + value(l, "sql.optimizer.plan_us") + value(l, "sql.executor.exec_us");
        let whole = value(l, "ledger.stmt_us");
        assert!((parts - whole).abs() <= 0.15 * whole, "{}: {parts} vs {whole}", w.name());

        let odci_calls = value(l, "core.odci.scan_calls")
            + value(l, "core.odci.maint_calls")
            + value(l, "sql.optimizer.stats_calls");
        let wal = value(l, "storage.wal.records_per_stmt") + value(l, "storage.wal.commits");
        match w {
            Workload::DomainRead => {
                assert!(value(l, "core.odci.scan_calls") > 0.0);
                assert_eq!(value(l, "core.odci.maint_calls"), 0.0);
                assert_eq!(wal, 0.0, "a read workload writes no WAL");
                assert!(value(l, "ledger.first_row_p50_us") > 0.0);
                assert!(!layers.spans.is_empty());
            }
            Workload::RelationalScanCold => {
                assert_eq!(odci_calls, 0.0, "no domain index, no ODCI crossing");
                assert_eq!(wal, 0.0, "a read workload writes no WAL");
                assert!(value(l, "storage.buffer.hit_ratio") < 0.9);
            }
            Workload::DmlDurable => {
                assert!(value(l, "core.odci.maint_calls") > 0.0);
                assert!(value(l, "storage.wal.records_per_stmt") > 0.0);
                assert!(value(l, "storage.wal.replay_us") > 0.0 && value(l, "storage.wal.checkpoint_us") > 0.0);
                assert_eq!(value(l, "sql.session.queue_us_p99"), 0.0);
            }
            Workload::MixedSessions => {
                assert!(value(l, "storage.wal.commits") > 0.0);
                assert!(value(l, "sql.session.daemon_passes") >= 0.0);
            }
        }
    }
    assert!(started.elapsed().as_secs() < 30, "smoke took {:?}", started.elapsed());
}

/// Count metrics that must repeat exactly for a seed.
const COUNTS: [&str; 8] = [
    "storage.wal.records_per_stmt",
    "storage.wal.commits",
    "storage.buffer.logical_reads_per_stmt",
    "storage.buffer.physical_reads_per_stmt",
    "storage.buffer.physical_writes_per_stmt",
    "core.odci.scan_calls",
    "core.odci.maint_calls",
    "sql.optimizer.stats_calls",
];

#[test]
fn same_seed_same_stream_same_counts() {
    let size = Size::smoke();
    for w in [Workload::DomainRead, Workload::RelationalScanCold, Workload::DmlDurable] {
        let stream = |seed: u64| -> Vec<String> {
            let mut fix = setup(w, seed, &size, SetupOpts::default()).unwrap();
            (0..300)
                .flat_map(|_| (fix.streams[0])().sql_texts().into_iter().map(String::from).collect::<Vec<_>>())
                .collect()
        };
        let a = stream(11);
        assert_eq!(a, stream(11), "{}: same seed, same statement stream", w.name());
        assert_ne!(a, stream(12), "{}: another seed, another stream", w.name());

        let x = per_layer(w, 11, &size).unwrap();
        let y = per_layer(w, 11, &size).unwrap();
        for name in COUNTS {
            assert_eq!(value(&x.report, name), value(&y.report, name), "{}: {name}", w.name());
        }
    }
}
