//! `ledger` — the extidx perf ledger.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One workload, one pass; the last stdout line is the result object
//!     the benchmark driver reads (BENCHMARK.json's `command`).
//! ledger --seed <n> [--workload <name>] [--seconds <s>] [--smoke]
//!        [--out <file>] [--spans <file>]
//!     Both passes of every (or one) workload; prints every metric by
//!     name with its unit, writes the result file. Without `--workload`
//!     each workload runs in a child process, as the driver runs them.
//! ledger --compare <A.json> <B.json> [--bounds <BENCHMARK.json>]
//!     One row per workload × end-to-end metric; exits 1 on a regression.
//! ```

use std::process::{Command, ExitCode};

use extidx_ledger::fixtures::Size;
use extidx_ledger::json::{self, Json};
use extidx_ledger::layers::per_layer;
use extidx_ledger::report::{compare, driver_line, print_metrics, spans_json, workload_json};
use extidx_ledger::run::end_to_end;
use extidx_ledger::workloads::Workload;

/// Fixture builds per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Default)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
    spans: Option<String>,
    compare: Option<(String, String)>,
    bounds: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { bounds: "BENCHMARK.json".into(), ..Args::default() };
    let mut it = std::env::args().skip(1);
    let mut seeded = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::from_name(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                seeded = true;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value()?),
            "--spans" => a.spans = Some(value()?),
            "--bounds" => a.bounds = value()?,
            "--compare" => a.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.compare.is_none() && !seeded {
        return Err("--seed is required".into());
    }
    Ok(a)
}

fn read_json(path: &str) -> Result<Json, String> {
    json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?).map_err(|e| format!("{path}: {e}"))
}

fn run(a: Args) -> Result<ExitCode, String> {
    if let Some((pa, pb)) = &a.compare {
        let regressed = compare(&read_json(pa)?, &read_json(pb)?, &read_json(&a.bounds)?)?;
        return Ok(if regressed { ExitCode::from(1) } else { ExitCode::SUCCESS });
    }
    let size = if a.smoke { Size::smoke() } else { Size::full() };
    let seconds = a.seconds.unwrap_or(if a.smoke { 1.0 } else { 10.0 });
    let setups = if a.smoke { 1 } else { SETUPS };
    let err = |e: extidx_common::Error| e.to_string();

    // Driver mode: one workload, one pass, one result line.
    if let (Some(w), Some(traced)) = (a.workload, a.trace) {
        let report = if traced {
            per_layer(w, a.seed, &size).map_err(err)?.report
        } else {
            end_to_end(w, a.seed, &size, seconds, setups).map_err(err)?
        };
        print_metrics(w.name(), &report);
        println!("{}", driver_line(&report));
        return Ok(ExitCode::SUCCESS);
    }

    let Some(w) = a.workload else {
        return run_each_in_child(&a, seconds);
    };
    let e2e = end_to_end(w, a.seed, &size, seconds, setups).map_err(err)?;
    print_metrics(&format!("{} end-to-end (untraced)", w.name()), &e2e);
    let layers = per_layer(w, a.seed, &size).map_err(err)?;
    print_metrics(&format!("{} per-layer (traced pass)", w.name()), &layers.report);
    let workloads = [(w.name(), workload_json(&e2e, Some(&layers.report)))];
    let all_spans = [(w.name(), spans_json(&layers.spans))];
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let result = Json::obj([
        ("ledger", Json::Num(1.0)),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("size", Json::Str(if a.smoke { "smoke" } else { "full" }.into())),
        ("available_parallelism", Json::Num(parallelism as f64)),
        ("workloads", Json::obj(workloads)),
    ]);
    if let Some(path) = &a.out {
        std::fs::write(path, result.pretty()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = &a.spans {
        std::fs::write(path, Json::obj(all_spans).compact()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Every workload in a process of its own, as the benchmark driver runs
/// them, so peak memory and allocator state are the workload's and not
/// what the previous workload left behind. Each child writes its result
/// (and span) file beside the requested one; they are merged into it.
fn run_each_in_child(a: &Args, seconds: f64) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // Per output file: the merged document so far.
    let mut merged: [(Option<&String>, Option<Json>); 2] = [(a.out.as_ref(), None), (a.spans.as_ref(), None)];
    for w in Workload::ALL {
        let part = |path: &str| format!("{path}.{}.part", w.name());
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &a.seed.to_string(), "--seconds", &seconds.to_string()]);
        if a.smoke {
            cmd.arg("--smoke");
        }
        for (flag, (path, _)) in ["--out", "--spans"].into_iter().zip(&merged) {
            if let Some(path) = path {
                cmd.args([flag, &part(path)]);
            }
        }
        let status = cmd.status().map_err(|e| format!("{}: {e}", exe.display()))?;
        if !status.success() {
            return Err(format!("{}: {status}", w.name()));
        }
        for (path, doc) in &mut merged {
            let Some(path) = path else { continue };
            let child = read_json(&part(path))?;
            let _ = std::fs::remove_file(part(path));
            *doc = Some(match doc.take() {
                None => child,
                Some(so_far) => so_far.merged_with(child),
            });
        }
    }
    for (path, doc) in merged {
        if let (Some(path), Some(doc)) = (path, doc) {
            let text = if Some(path) == a.out.as_ref() { doc.pretty() } else { doc.compact() };
            std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {path}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
