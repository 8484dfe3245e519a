//! `dsvbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! dsvbench run --workload W [--seed S] [--seconds N] [--trace 0|1] [--out PATH]
//! dsvbench list
//! dsvbench compare BASE.json... -- NEW.json...
//! ```
//!
//! `run` drives one workload through `VersioningService` for `--seconds`
//! and prints one JSON object as the last line of standard output:
//! `correct`, `attempted`, `failed`, and the end-to-end `metrics`. With
//! `--trace 1` it then replays the same setup and request stream through
//! direct calls into each layer, reports the per-layer metrics instead,
//! and writes the spans as Chrome trace-event JSON to
//! `.dsvbench/trace-<workload>-<seed>.json`. `--out`
//! also writes the result, tagged with workload and seed, for `compare`.
//! Stores live under `.dsvbench/` in the working directory and are
//! removed when the run ends. See README.md for the workloads and metrics.

mod drive;
mod fixtures;
mod metrics;
mod replay;
mod stats;
mod timed_store;
mod trace;

use dsv_delta::store::{Durability, MemStore, PackOptions, PackStore, Store};
use fixtures::{Footprint, Workload};
use metrics::Outcome;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
const DEFAULT_SEED: u64 = 2024;
const DEFAULT_SECONDS: f64 = 20.0;
const USAGE: &str = "usage:
  dsvbench run --workload W [--seed S] [--seconds N] [--trace 0|1] [--out PATH]
  dsvbench list
  dsvbench compare BASE.json... -- NEW.json...";

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let trace =
        trace.then(|| PathBuf::from(format!(".dsvbench/trace-{}-{seed}.json", workload.name())));
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// The run's store directories, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open_pack(dir: &Path) -> Result<PackStore, String> {
    let options = PackOptions {
        durability: Durability::Full,
        ..PackOptions::default()
    };
    PackStore::open_with(dir, options).map_err(|e| format!("open {}: {e}", dir.display()))
}

/// The untraced run, then (when tracing) the traced replay of it.
fn measure<S: Store + Footprint + Send + Sync + 'static>(
    a: &RunArgs,
    work: &Path,
    open: impl Fn(&Path) -> Result<S, String>,
) -> Result<(Outcome, BTreeMap<String, Value>), String> {
    let w = a.workload;
    let setups = if a.trace.is_some() { 1 } else { SETUPS };
    let u = drive::run(w, a.seed, a.seconds, setups, |i| {
        open(&work.join(format!("setup-{i}")))
    })?;
    let mut info = BTreeMap::from([
        ("nproc".to_string(), Value::UInt(nproc())),
        (
            "pool_width".to_string(),
            Value::UInt(rayon::current_num_threads() as u64),
        ),
        (
            "service_workers".to_string(),
            Value::UInt(u.stats.workers as u64),
        ),
        ("ops".to_string(), Value::UInt(u.ops.len() as u64)),
    ]);
    // The tail the primary latency sample supports (ten samples beyond
    // it); `latency_p90_ms` is reported regardless, so record how well it
    // rests on the sample.
    let samples = u.load.of(w.primary()).len();
    info.insert("primary_samples".into(), Value::UInt(samples as u64));
    info.insert(
        "supported_tail".into(),
        stats::supported_tail(samples).map_or(Value::Null, Value::Float),
    );
    let mut tally = u.tally;
    let metrics = match &a.trace {
        None => metrics::end_to_end(w, &u),
        Some(path) => {
            let mut tracer = trace::Tracer::new();
            let t = replay::replay(w, &u.ops, open(&work.join("traced"))?, &mut tracer)?;
            tally.add(t.tally);
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, tracer.chrome_json())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            info.insert("trace".into(), Value::Str(path.display().to_string()));
            metrics::per_layer(&u, &t, &tracer)
        }
    };
    let outcome = Outcome {
        correct: tally.wrong == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    };
    Ok((outcome, info))
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn run(args: &[String]) -> ExitCode {
    let a = match parse_run(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsvbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(PathBuf::from(format!(
        ".dsvbench/run-{}",
        std::process::id()
    )));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("dsvbench: {}: {e}", work.0.display());
        return ExitCode::from(2);
    }
    let measured = if a.workload.on_disk() {
        measure(&a, &work.0, open_pack)
    } else {
        measure(&a, &work.0, |_| Ok(MemStore::new()))
    };
    drop(work);
    let (outcome, info) = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("dsvbench: {} failed: {e}", a.workload.name());
            return ExitCode::from(2);
        }
    };
    for (m, v) in &outcome.metrics {
        eprintln!("  {:<38} {v:>14.4} {}", m.name, m.unit);
    }
    if let Some(path) = &a.out {
        let doc = metrics::out_document(
            a.workload,
            a.seed,
            a.seconds,
            a.trace.is_some(),
            &outcome,
            info,
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("dsvbench: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", metrics::result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "dsvbench: wrong output: a payload differed from the source or a plan broke its budget"
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("list") => {
            metrics::print_list();
            ExitCode::SUCCESS
        }
        Some("compare") => ExitCode::from(metrics::compare(&args[1..])),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
