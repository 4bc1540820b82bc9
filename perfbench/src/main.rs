//! The repository benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `serve_warm`, `serve_cold` (the daemon under two closed-loop
//! connections), `cli_plan_cold`, `cli_plan_warm` (`powerlens-cli plan`
//! processes, two at a time, against the disk cache) and `train` (dataset generation
//! plus training, then oracle labelling of seeded random networks).
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced replay.
//! See `perfbench/README.md` for what each metric means on each workload.

mod cli;
mod launch;
mod reference;
mod serve;
mod stats;
mod trace;
mod train;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Closed-loop client threads: at most `nproc` on the two-core reference
/// box, and enough to keep both cores loaded, so outside load on either
/// one shows up in every run alike.
pub const CLIENTS: usize = 2;

/// Set-ups per run: at least [`MIN_SETUPS`], repeated up to [`MAX_SETUPS`]
/// until [`SETUP_BUDGET_S`] of set-up time has accrued, so a short set-up
/// samples the machine over more than one moment. `setup_s` is their
/// median.
pub const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.0;

/// How far the in-process self times may exceed the untraced end-to-end
/// mean before the traced run's accounting is rejected.
const ACCOUNTING_SLACK: f64 = 0.25;

/// Slices of the timed window that `throughput_rps` takes the median over.
const THROUGHPUT_SLICES: usize = 5;

/// Hard stop, inside the 180 s a run may take.
const WATCHDOG: Duration = Duration::from_secs(170);

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ee_gain_vs_bim", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units. Layers a workload does not
/// touch read 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("serve.connect_ms", "ms"),
    ("serve.response_wait_ms", "ms"),
    ("serve.http_read_us", "us"),
    ("serve.http_write_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.unattributed_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.degraded", "count"),
    ("dnn.graph_build_us", "us"),
    ("dnn.fingerprint_us", "us"),
    ("ingest.import_value_us", "us"),
    ("ingest.import_str_us", "us"),
    ("store.key_us", "us"),
    ("store.mem_lookup_ns", "ns"),
    ("store.mem_insert_us", "us"),
    ("store.disk_load_us", "us"),
    ("store.disk_store_us", "us"),
    ("store.hit_ratio", "ratio"),
    ("store.evictions", "count"),
    ("lint.cached_plan_gate_us", "us"),
    ("features.global_us", "us"),
    ("cluster.distance_build_ms", "ms"),
    ("cluster.rethreshold_ms", "ms"),
    ("governors.oracle_ms", "ms"),
    ("core.evaluate_ms", "ms"),
    ("core.plan_oracle_ms", "ms"),
    ("core.dataset_s", "s"),
    ("core.train_models_s", "s"),
    ("core.label_graphs_per_s", "1/s"),
    ("plan.schemes_scored", "count"),
    ("sim.validate_us", "us"),
    ("mlp.epochs", "count"),
    ("mlp.decision_acc", "ratio"),
    ("numeric.matmul_flops", "count"),
    ("par.workers", "count"),
    ("cli.process_ms", "ms"),
    ("cli.output_us", "us"),
    ("trace.overhead_ms", "ms"),
    ("replay.glue_us", "us"),
    ("replay.ops", "count"),
    ("nproc", "count"),
];

/// One invocation's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `powerlens-cli` binary under test.
    pub cli: PathBuf,
    /// Fresh working directory for this run, inside the checkout.
    pub dir: PathBuf,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Workload-sanity or accounting failures: any makes the run invalid.
    pub problems: Vec<String>,
    pub setup_s: Option<f64>,
    pub throughput_rps: Option<f64>,
    pub latency_p50_ms: Option<f64>,
    pub latency_p90_ms: Option<f64>,
    pub peak_rss_mb: Option<f64>,
    pub ee_gain: Option<f64>,
    pub layers: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn problem(&mut self, msg: String) {
        eprintln!("perfbench: {msg}");
        self.problems.push(msg);
    }

    /// Successful operations per second: the median rate over five slices
    /// of the window, scaled by the share of operations that succeeded.
    /// `done_s` holds every operation's completion offset into the window.
    pub fn throughput(&mut self, done_s: &[f64], window: Duration) {
        let ok_share = (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
        self.throughput_rps = stats::bucketed_rate(done_s, window.as_secs_f64(), THROUGHPUT_SLICES)
            .map(|r| r * ok_share);
    }

    /// Median and p90 of per-operation latencies (ms). The p90 is reported
    /// only with at least ten samples beyond it; fewer invalidate the run.
    pub fn latencies(&mut self, latencies_ms: &[f64]) {
        self.latency_p50_ms = stats::median(latencies_ms);
        self.latency_p90_ms = stats::percentile_with_support(latencies_ms, 0.9);
        if self.latency_p90_ms.is_none() {
            self.problem(format!(
                "{} operations are too few for a p90",
                latencies_ms.len()
            ));
        }
    }

    /// The traced replay's in-process time per operation must fit inside
    /// the untraced end-to-end mean (plus slack); the remainder is the
    /// unattributed share.
    pub fn check_accounting(&mut self, in_process_ms: f64, untraced_ms: f64) {
        if in_process_ms.is_nan() || in_process_ms > untraced_ms * (1.0 + ACCOUNTING_SLACK) {
            self.problem(format!(
                "in-process stages take {in_process_ms:.3} ms per operation, \
                 more than the untraced {untraced_ms:.3} ms"
            ));
        }
    }
}

/// One operation finished by [`closed_loop`].
pub struct Done<T> {
    pub index: usize,
    pub latency: Duration,
    /// Completion offset into the window.
    pub at: Duration,
    pub out: T,
}

/// Runs `op(0)`, `op(1)`, ... from [`CLIENTS`] threads, each starting its
/// next operation when its last one completes, until `window` has elapsed
/// or `limit` operations have started. Returns the finished operations in
/// index order and the window's actual length.
pub fn closed_loop<T: Send>(
    window: Duration,
    limit: usize,
    op: impl Fn(usize) -> T + Sync,
) -> (Vec<Done<T>>, Duration) {
    let next = AtomicUsize::new(0);
    let finished = Mutex::new(Vec::new());
    let start = Instant::now();
    thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut mine = Vec::new();
                while start.elapsed() < window {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= limit {
                        break;
                    }
                    let t = Instant::now();
                    let out = op(index);
                    mine.push(Done {
                        index,
                        latency: t.elapsed(),
                        at: start.elapsed(),
                        out,
                    });
                }
                finished.lock().expect("a client panicked").extend(mine);
            });
        }
    });
    let mut done = finished.into_inner().expect("a client panicked");
    done.sort_by_key(|d| d.index);
    (done, start.elapsed())
}

/// Runs `setup` as often as the set-up policy above asks, handing each
/// result but the last to `teardown` off the clock. Returns the last
/// result and the median set-up time in seconds.
pub fn timed_setups<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        if let Some(previous) = last.take() {
            teardown(previous)?;
        }
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("at least one set-up");
    Ok((last.expect("at least one set-up"), median))
}

/// `f` over every input, on [`CLIENTS`] threads drawing from a shared
/// cursor, so the work's wall time reflects both cores. Results keep the
/// input order.
pub fn par_map<I: Sync, R: Send>(inputs: &[I], f: impl Fn(&I) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, R)> = thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(input) = inputs.get(i) else {
                            return mine;
                        };
                        mine.push((i, f(input)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a worker panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Records a live child process so the watchdog can stop it.
pub fn register_child(pid: u32) {
    CHILDREN.lock().expect("child registry").push(pid);
}

pub fn unregister_child(pid: u32) {
    CHILDREN
        .lock()
        .expect("child registry")
        .retain(|&p| p != pid);
}

fn start_watchdog() {
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {} s; stopping", WATCHDOG.as_secs());
        let pids = CHILDREN.lock().map(|c| c.clone()).unwrap_or_default();
        for pid in pids {
            let _ = Command::new("kill")
                .args(["-KILL", &pid.to_string()])
                .status();
        }
        std::process::exit(3);
    });
}

fn parse_args() -> Result<Run, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut cli = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => trace = value == "1",
            "--cli" => cli = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let cli = cwd.join(cli.ok_or("--cli is required")?);
    if !cli.is_file() {
        return Err(format!("no CLI binary at {}", cli.display()));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let dir = cwd
        .join(".bench_work")
        .join(format!("{workload}-{seed}-{}", u8::from(trace)));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
        cli,
        dir,
    })
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    out.push_str(&format!(
        r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
    ));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if let [_, flag, cli] = &args[..] {
        if flag == "--launch" {
            return launch::serve_requests(cli.as_ref());
        }
    }
    start_watchdog();
    let run = match parse_args() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match run.workload.as_str() {
        "serve_warm" => serve::run(&run, false),
        "serve_cold" => serve::run(&run, true),
        "cli_plan_cold" => cli::run(&run, false),
        "cli_plan_warm" => cli::run(&run, true),
        "train" => train::run(&run),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", run.workload);
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.layers.insert("nproc", nproc as f64);

    let mut metrics = String::from("{");
    if run.trace {
        for (name, unit) in PER_LAYER {
            let v = report.layers.get(name).copied().unwrap_or(0.0);
            json_metric(
                &mut metrics,
                name,
                if v.is_finite() { v } else { 0.0 },
                unit,
            );
        }
    } else {
        let values = [
            report.setup_s,
            report.throughput_rps,
            report.latency_p50_ms,
            report.latency_p90_ms,
            report.peak_rss_mb,
            report.ee_gain,
        ];
        for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
            let v = match v {
                Some(v) if v.is_finite() && v > 0.0 => v,
                _ => {
                    report.problem(format!("{name} was not measured"));
                    0.0
                }
            };
            json_metric(&mut metrics, name, v, unit);
        }
    }
    metrics.push('}');
    let correct = report.failed == 0 && report.problems.is_empty();
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    let line = format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {metrics}}}"#,
        report.attempted.max(1),
        report.failed
    );
    // The stdout line has a fixed set of keys; the saved copy also records
    // where and on what it ran.
    let saved = format!(
        r#"{{"workload": "{}", "seed": {}, "trace": {}, "nproc": {nproc}, "commit": "{commit}", "result": {line}}}"#,
        run.workload, run.seed, run.trace
    );
    if let Err(e) = std::fs::write(run.dir.join("result.json"), saved + "\n") {
        eprintln!("perfbench: cannot save the result: {e}");
    }
    eprintln!(
        "perfbench: workload {} seed {} nproc {nproc} commit {commit}",
        run.workload, run.seed
    );
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_keeps_input_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let doubled: Vec<u64> = inputs.iter().map(|x| x * 2).collect();
        assert_eq!(par_map(&inputs, |x| x * 2), doubled);
    }

    #[test]
    fn short_setups_repeat_until_the_budget_and_long_ones_stop_at_three() {
        let mut n = 0;
        let (last, _) = timed_setups(
            || {
                n += 1;
                Ok(n)
            },
            |_| Ok(()),
        )
        .unwrap();
        assert_eq!(last, MAX_SETUPS);

        let (mut n, mut torn_down) = (0, 0);
        let (last, median) = timed_setups(
            || {
                n += 1;
                thread::sleep(Duration::from_millis(400));
                Ok(n)
            },
            |_| {
                torn_down += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(last, MIN_SETUPS);
        assert_eq!(torn_down, MIN_SETUPS - 1, "the last set-up stays up");
        assert!(median >= 0.4);
    }
}
