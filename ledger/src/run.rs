//! The closed loop: each client sends its next operation only after the
//! previous one completed. Measures the untraced end-to-end metrics.

use std::time::{Duration, Instant};

use extidx_common::Result;

use crate::fixtures::Size;
use crate::ops::{is_wrong_answer, run_op, Class, Client, Op, SessionClient};
use crate::speed::HostSpeed;
use crate::stats;
use crate::workloads::{self, Acks, Fixture, OpStream, SetupOpts, Target, Workload};

/// Windows a measured run is cut into; each end-to-end rate is the
/// median over them, so one disturbed window does not move the result.
pub const WINDOWS: usize = 5;

/// Measured work between two host-speed samples (see [`crate::speed`]).
const CALIBRATE_EVERY: Duration = Duration::from_millis(100);

#[derive(Debug, Clone, Default)]
struct Window {
    stmts: u64,
    rows: u64,
    micros: Vec<f32>,
    /// Host slowdown samples taken while this window ran.
    slowdown: Vec<f64>,
}

/// What one or more clients did during a pass.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    window_s: f64,
    windows: Vec<Window>,
    pub read_us: Vec<f32>,
    pub write_us: Vec<f32>,
    pub first_row_us: Vec<f32>,
    /// Operations sent / operations that returned an error.
    pub attempted: u64,
    pub failed: u64,
    /// Client re-runs of a transaction or autocommit statement after a
    /// write-write conflict.
    pub txn_retries: u64,
    /// Commit points acknowledged to a client (autocommit DML, COMMIT).
    pub commits_acked: u64,
    /// Measured seconds (calibration pauses excluded) from pass start to
    /// the last completion.
    pub end_s: f64,
}

impl Recorder {
    fn new(windows: usize, window_s: f64) -> Recorder {
        Recorder { window_s, windows: vec![Window::default(); windows], ..Recorder::default() }
    }

    fn merge(mut self, other: Recorder) -> Recorder {
        for (w, o) in self.windows.iter_mut().zip(other.windows) {
            w.stmts += o.stmts;
            w.rows += o.rows;
            w.micros.extend(o.micros);
            w.slowdown.extend(o.slowdown);
        }
        self.read_us.extend(other.read_us);
        self.write_us.extend(other.write_us);
        self.first_row_us.extend(other.first_row_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.txn_retries += other.txn_retries;
        self.commits_acked += other.commits_acked;
        self.end_s = self.end_s.max(other.end_s);
        self
    }

    /// Statements executed over the whole pass.
    pub fn statements(&self) -> u64 {
        self.windows.iter().map(|w| w.stmts).sum()
    }

    pub fn rows(&self) -> u64 {
        self.windows.iter().map(|w| w.rows).sum()
    }

    /// Every statement latency of the pass, in microseconds, as measured.
    pub fn all_micros(&self) -> Vec<f64> {
        self.windows.iter().flat_map(|w| w.micros.iter().map(|&m| f64::from(m))).collect()
    }

    /// Every host-slowdown sample of the pass.
    pub fn slowdowns(&self) -> Vec<f64> {
        self.windows.iter().flat_map(|w| w.slowdown.iter().copied()).collect()
    }

    /// Per non-empty window: `(seconds, slowdown, window)`. The last window
    /// runs until the last client finished its in-flight operation; a
    /// window without a calibration sample takes the pass median (1.0 for
    /// an uncalibrated pass).
    fn timed_windows(&self) -> Vec<(f64, f64, &Window)> {
        let last = self.windows.len() - 1;
        // A fixed-count pass has one window of unbounded length.
        let last_start = if last == 0 { 0.0 } else { self.window_s * last as f64 };
        let all = self.slowdowns();
        let overall = if all.is_empty() { 1.0 } else { stats::median(&all) };
        self.windows
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.micros.is_empty())
            .map(|(i, w)| {
                let dur = if i == last { (self.end_s - last_start).max(1e-9) } else { self.window_s };
                let slow = if w.slowdown.is_empty() { overall } else { stats::median(&w.slowdown) };
                (dur, slow, w)
            })
            .collect()
    }
}

/// When a pass ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much measured time (calibration pauses excluded).
    After(Duration),
    /// After this many operations per client (cold starts not counted).
    Ops(usize),
}

/// Drive one client's stream until `stop`. An engine error counts as a
/// failed operation; a wrong answer aborts the run. With `speed`, the
/// loop pauses its clock every [`CALIBRATE_EVERY`] of measured work to
/// sample the host's slowdown.
fn drive(
    client: &mut dyn Client,
    stream: &mut OpStream,
    rec: &mut Recorder,
    stop: Stop,
    mut speed: Option<HostSpeed>,
) -> Result<()> {
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut next_calibration = Duration::ZERO;
    let mut sent = 0usize;
    let (window_s, last) = (rec.window_s, rec.windows.len() - 1);
    let window_of = |t: Duration| ((t.as_secs_f64() / window_s) as usize).min(last);
    loop {
        let now = start.elapsed() - paused;
        match stop {
            Stop::After(d) if now >= d => break,
            Stop::Ops(n) if sent >= n => break,
            _ => {}
        }
        if let Some(host) = speed.as_mut().filter(|_| now >= next_calibration) {
            let t = Instant::now();
            let slowdown = host.slowdown();
            paused += t.elapsed();
            rec.windows[window_of(now)].slowdown.push(slowdown);
            next_calibration = now + CALIBRATE_EVERY;
        }
        let op = stream();
        if matches!(op, Op::ColdStart) {
            run_op(client, &op)?;
            continue;
        }
        sent += 1;
        rec.attempted += 1;
        match run_op(client, &op) {
            Ok(out) => {
                let done = start.elapsed() - paused;
                rec.end_s = done.as_secs_f64();
                rec.txn_retries += u64::from(out.txn_retries);
                rec.commits_acked += u64::from(matches!(op, Op::Dml { .. } | Op::Txn { .. }));
                let window = &mut rec.windows[window_of(done)];
                for s in out.samples {
                    window.stmts += 1;
                    window.rows += s.rows;
                    window.micros.push(s.micros as f32);
                    match s.class {
                        Class::Read => rec.read_us.push(s.micros as f32),
                        Class::Write => rec.write_us.push(s.micros as f32),
                        Class::Checkpoint => {}
                    }
                    if let Some(f) = s.first_row_micros {
                        rec.first_row_us.push(f as f32);
                    }
                }
            }
            Err(e) if is_wrong_answer(&e) => return Err(e),
            Err(e) => {
                if rec.failed < 3 {
                    eprintln!("ledger: operation failed: {e} ({:?})", op.sql_texts().first());
                }
                rec.failed += 1;
            }
        }
    }
    Ok(())
}

/// Run every client of the fixture until `stop`, in `windows` windows.
/// Two-session fixtures run their clients on OS threads. `calibrate`
/// turns on host-speed sampling (each client samples for itself).
pub fn pass(fix: &mut Fixture, stop: Stop, windows: usize, calibrate: bool) -> Result<Recorder> {
    let window_s = match stop {
        Stop::After(d) => d.as_secs_f64() / windows as f64,
        Stop::Ops(_) => f64::INFINITY,
    };
    let speed = || calibrate.then(HostSpeed::new);
    match &mut fix.target {
        Target::Db(db) => {
            let mut rec = Recorder::new(windows, window_s);
            drive(db.as_mut(), &mut fix.streams[0], &mut rec, stop, speed())?;
            Ok(rec)
        }
        Target::Server(server) => {
            let server = &*server;
            let recs: Vec<Result<Recorder>> = std::thread::scope(|scope| {
                let handles: Vec<_> = fix
                    .streams
                    .iter_mut()
                    .map(|stream| {
                        let speed = speed();
                        scope.spawn(move || {
                            let mut client = SessionClient { server, session: server.session() };
                            let mut rec = Recorder::new(windows, window_s);
                            drive(&mut client, stream, &mut rec, stop, speed).map(|()| rec)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
            });
            recs.into_iter().try_fold(Recorder::new(windows, window_s), |acc, r| Ok(acc.merge(r?)))
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Window (or repetition) minimum and maximum, when there are several.
    pub spread: Option<(f64, f64)>,
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: u64) -> Metric {
        Metric { name: name.into(), unit, value, spread: None, samples }
    }

    /// Median of `values` with their min/max recorded.
    pub fn median_of(name: &str, unit: &'static str, values: &[f64], samples: u64) -> Metric {
        Metric { name: name.into(), unit, value: stats::median(values), spread: Some(stats::min_max(values)), samples }
    }
}

/// The result of one workload run (either pass).
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Context that is not a contract metric: input sizes, host slowdown.
    pub facts: Vec<(&'static str, f64)>,
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// WAL commit markers so far (0 without a medium).
pub fn wal_commits(fix: &Fixture) -> u64 {
    fix.medium.as_ref().map_or(0, |m| m.stats().commits)
}

/// Most fixture builds per run; quick fixtures are built this often.
const MAX_SETUPS: usize = 9;

/// Build the fixture at least `setups` times — more, up to
/// [`MAX_SETUPS`], while the builds took under 3 s together, because a
/// 0.2 s build is too short to time once — and report the median as
/// `setup_s`; warm up, run the closed loop for `seconds` with tracing
/// off, verify the answers. Every time-based metric is reported at
/// reference host speed.
pub fn end_to_end(workload: Workload, seed: u64, size: &Size, seconds: f64, setups: usize) -> Result<Report> {
    let mut host = HostSpeed::new();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut fix = None;
    while setup_s.len() < setups || (setups > 1 && setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < 3.0) {
        // One fixture alive at a time: peak memory is the workload's.
        drop(fix.take());
        let before = host.slowdown();
        let t = Instant::now();
        fix = Some(workloads::setup(workload, seed, size, SetupOpts::default())?);
        let raw = t.elapsed().as_secs_f64();
        setup_s.push(raw / ((before + host.slowdown()) / 2.0));
    }
    drop(host);
    let mut fix = fix.expect("at least one set-up");
    let mut facts = fix.facts.clone();

    // Caches fill and lazy set-up finishes before timing starts.
    let warm = pass(&mut fix, Stop::After(Duration::from_secs_f64(seconds / 10.0)), 1, false)?;
    let wal_commits_before = wal_commits(&fix);
    let rec = pass(&mut fix, Stop::After(Duration::from_secs_f64(seconds)), WINDOWS, true)?;
    let acks = Acks { commits: rec.commits_acked, wal_commits_before };
    workloads::finish(fix, seed, size, Some(acks))?;

    // Per window: rates scaled up, latencies scaled down, by its slowdown.
    let windows = rec.timed_windows();
    let per_window = |f: &dyn Fn(f64, f64, &Window) -> f64| -> Vec<f64> {
        windows.iter().map(|(dur, slow, w)| f(*dur, *slow, w)).collect()
    };
    let at_reference = |w: &Window, slow: f64| -> Vec<f64> { w.micros.iter().map(|&m| f64::from(m) / slow).collect() };
    let pooled: Vec<f64> = windows.iter().flat_map(|(_, slow, w)| at_reference(w, *slow)).collect();
    let n = pooled.len() as u64;
    let metrics = vec![
        Metric::median_of("setup_s", "s", &setup_s, setup_s.len() as u64),
        Metric::median_of("stmts_per_s", "1/s", &per_window(&|dur, slow, w| w.stmts as f64 / dur * slow), n),
        Metric::median_of("rows_per_s", "1/s", &per_window(&|dur, slow, w| w.rows as f64 / dur * slow), n),
        // Latency percentiles are pooled over the run: five times the
        // samples of a window, which matters where the distribution is
        // steep around the median (mixed_sessions: 8 % per percentile point).
        Metric {
            spread: Some(stats::min_max(&per_window(&|_, slow, w| stats::percentile(&at_reference(w, slow), 50.0)))),
            ..Metric::new("stmt_p50_us", "us", stats::percentile(&pooled, 50.0), n)
        },
        Metric::new("stmt_p99_us", "us", stats::percentile(&pooled, 99.0), n),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb(), 1),
    ];
    let slowdowns = rec.slowdowns();
    let (lo, hi) = stats::min_max(&slowdowns);
    facts.extend([
        ("host_slowdown_median", stats::median(&slowdowns)),
        ("host_slowdown_min", lo),
        ("host_slowdown_max", hi),
        ("raw_stmts_per_s", rec.statements() as f64 / rec.end_s.max(1e-9)),
        ("client_conflict_reruns", rec.txn_retries as f64),
        // The highest percentile this run's sample count supports.
        ("supported_tail_percentile", stats::supported_tail(&pooled).0),
    ]);
    Ok(Report { workload, attempted: rec.attempted + warm.attempted, failed: rec.failed + warm.failed, metrics, facts })
}
