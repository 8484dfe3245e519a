//! `repro` — regenerate the paper's tables and figures, and run the gated
//! benches of the solve → store → serve path.
//!
//! ```text
//! repro --experiment all --scale 0.1 --out results/
//! repro --experiment fig10 --points 12
//! repro --list
//! ```
//!
//! `repro --list` enumerates the experiments. Each run prints its tables
//! as Markdown to stdout and writes, under `--out` (default `results/`),
//! one CSV per table plus `BENCH_<experiment>.json`: `experiment`,
//! `seed`, `threads`, `gates[]` as `{name, value, floor, passed}`, and
//! `tables[]`. The gates — correctness checks and perf floors — are
//! declared by each experiment; the run exits 1, naming every failed
//! gate, if any of them misses its floor.
//!
//! Experiments that build on-disk stores do so in a scratch directory
//! under `--store-dir/<experiment>`; without the flag it is
//! `<out>/store-work/<experiment>` and is removed after the run.

use dsv_bench::experiments::{ExperimentOptions, EXPERIMENTS};
use std::path::{Path, PathBuf};

fn experiment_list() -> String {
    let width = EXPERIMENTS
        .iter()
        .map(|(n, _, _)| n.len())
        .max()
        .unwrap_or(0);
    let mut out = String::from("available experiments:\n");
    for (name, what, _) in EXPERIMENTS {
        out.push_str(&format!("  {name:width$}  {what}\n"));
    }
    out.push_str(&format!("  {:width$}  every experiment above\n", "all"));
    out.push_str("each writes one CSV per table and BENCH_<experiment>.json under --out\n");
    out
}

struct Args {
    experiment: String,
    out: PathBuf,
    store_dir: Option<PathBuf>,
    opts: ExperimentOptions,
}

fn parse_args() -> Result<Args, String> {
    let mut experiment = "all".to_string();
    let mut out = PathBuf::from("results");
    let mut store_dir = None;
    let mut opts = ExperimentOptions::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match arg.as_str() {
            "--experiment" | "-e" => experiment = value("--experiment")?,
            "--out" | "-o" => out = PathBuf::from(value("--out")?),
            "--store-dir" => store_dir = Some(PathBuf::from(value("--store-dir")?)),
            "--scale" | "-s" => {
                opts.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--points" | "-p" => {
                opts.points = value("--points")?
                    .parse()
                    .map_err(|e| format!("bad --points: {e}"))?
            }
            "--max-nodes" => {
                opts.max_nodes = value("--max-nodes")?
                    .parse()
                    .map_err(|e| format!("bad --max-nodes: {e}"))?
            }
            "--opt-limit" => {
                opts.opt_node_limit = value("--opt-limit")?
                    .parse()
                    .map_err(|e| format!("bad --opt-limit: {e}"))?
            }
            "--list" | "-l" => {
                print!("{}", experiment_list());
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--experiment NAME] [--list]\n\
                     \x20            [--scale F] [--max-nodes N] [--seed N] [--points N]\n\
                     \x20            [--opt-limit N] [--out DIR] [--store-dir DIR]\n\n{}",
                    experiment_list()
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        experiment,
        out,
        store_dir,
        opts,
    })
}

/// Write `contents` to `path`, exiting 1 on failure.
fn write(path: &Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error writing {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Create `dir` (and parents), exiting 1 on failure.
fn create_dir(dir: &Path) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error creating {}: {e}", dir.display());
        std::process::exit(1);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(name, _, _)| args.experiment == "all" || args.experiment == *name)
        .collect();
    if selected.is_empty() {
        eprintln!(
            "error: unknown experiment: {}\n{}",
            args.experiment,
            experiment_list()
        );
        std::process::exit(2);
    }
    eprintln!(
        "# experiment={} scale={} seed={} points={}",
        args.experiment, args.opts.scale, args.opts.seed, args.opts.points
    );
    create_dir(&args.out);
    // Only the default scratch location is removed afterwards; a
    // user-supplied --store-dir may hold unrelated contents, so its stores
    // are left in place for inspection.
    let (scratch, ephemeral) = match &args.store_dir {
        Some(dir) => (dir.clone(), false),
        None => (args.out.join("store-work"), true),
    };

    let mut failed = Vec::new();
    for (name, _, run) in selected {
        let work_dir = scratch.join(name);
        create_dir(&work_dir);
        let bench = run(&args.opts, &work_dir);
        if ephemeral {
            let _ = std::fs::remove_dir_all(&work_dir);
        } else {
            // Drop the directory again if this experiment stored nothing.
            let _ = std::fs::remove_dir(&work_dir);
        }
        for table in &bench.tables {
            println!("{}", table.to_markdown());
            write(
                &args.out.join(format!("{}.csv", table.name)),
                &table.to_csv(),
            );
        }
        let json = args.out.join(format!("BENCH_{name}.json"));
        write(&json, &bench.to_json(name, args.opts.seed));
        eprintln!(
            "# {name}: wrote {} CSV file(s) and {}",
            bench.tables.len(),
            json.display()
        );
        for gate in &bench.gates {
            let verdict = if gate.passed() { "passed" } else { "FAILED" };
            eprintln!(
                "# gate {}: {} (value {}, floor {})",
                gate.name, verdict, gate.value, gate.floor
            );
        }
        failed.extend(bench.failed().map(|g| g.name.clone()));
    }
    if ephemeral {
        let _ = std::fs::remove_dir(&scratch);
    }
    if !failed.is_empty() {
        eprintln!("error: failed gate(s): {}", failed.join(", "));
        std::process::exit(1);
    }
}
