//! The metric catalogue, the values a run reports, and `dsvbench compare`.
//!
//! The catalogue here is the source of truth for `BENCHMARK.json` at the
//! repository root; a unit test keeps the two in step.

use crate::drive::Untraced;
use crate::fixtures::{Kind, Workload};
use crate::replay::Traced;
use crate::stats::{median, percentile, quartiles, valid_metric_name};
use crate::trace::Tracer;
use serde_json::Value;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, valid per [`crate::stats::valid_metric_name`].
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics: the share of the baseline median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run. Latency and rate
/// are of the workload's primary request kind: checkouts on `read-text`,
/// commits (absorb + flush) on `commit-mix`, solves on `solve-large`.
///
/// A name is shared by every workload, so its bound must hold on the
/// noisiest one. Timing bounds are three times the largest quartile
/// spread measured over ten seeds, capped at 25%; every timing metric
/// reached that cap (README.md lists the spreads). The footprint depends
/// only on how many commits a run completed (spread 0.1%), and the plan
/// objective is the same on every run of a workload, so their bounds are
/// 1% and 0.1%.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p90_ms", "ms", Lower, 0.25),
    e2e("throughput_per_s", "1/s", Higher, 0.25),
    e2e("bytes_per_user_byte", "B/B", Lower, 0.01),
    e2e("retrieval_per_version", "cost", Lower, 0.001),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: [Metric; 40] = [
    layer("checkout.serve_ms.p50", "ms", Lower),
    layer("checkout.serve_ms.p99", "ms", Lower),
    layer("checkout.hydrated_per_version", "count", Lower),
    layer("checkout.delta_applies_per_version", "count", Lower),
    layer("checkout.mb_per_s", "MB/s", Higher),
    layer("store.get.calls", "count", Lower),
    layer("store.get.mb", "MB", Lower),
    layer("store.get.busy_ms", "ms", Lower),
    layer("store.put.calls", "count", Lower),
    layer("store.put.mb", "MB", Lower),
    layer("store.put.busy_ms", "ms", Lower),
    layer("store.flush.calls", "count", Lower),
    layer("store.flush.busy_ms", "ms", Lower),
    layer("online.apply_ms.p50", "ms", Lower),
    layer("online.apply_ms.p99", "ms", Lower),
    layer("online.refresh_count", "count", Lower),
    layer("online.refresh_share", "ratio", Lower),
    layer("online.rescored_per_commit", "count", Lower),
    layer("online.moves_per_commit", "count", Lower),
    layer("online.repairs_per_commit", "count", Lower),
    layer("online.regret", "ratio", Lower),
    layer("executor.migrate_ms.p50", "ms", Lower),
    layer("executor.migrate_ms.p99", "ms", Lower),
    layer("executor.bytes_moved_per_commit", "B", Lower),
    layer("executor.changed_per_commit", "count", Lower),
    layer("executor.reused_per_commit", "count", Higher),
    layer("executor.ingest_ms", "ms", Lower),
    layer("executor.ingest_mb_per_s", "MB/s", Higher),
    layer("engine.solve_ms.p50", "ms", Lower),
    layer("engine.iterations", "count", Lower),
    layer("service.queue_high_water", "count", Lower),
    layer("service.shed", "count", Lower),
    layer("service.cancelled", "count", Lower),
    layer("service.overhead_ms.checkout", "ms", Lower),
    layer("service.overhead_ms.commit", "ms", Lower),
    layer("service.overhead_ms.solve", "ms", Lower),
    layer("bench.gen_lag_ms.p99", "ms", Lower),
    layer("bench.samples.checkout", "count", Higher),
    layer("bench.samples.commit", "count", Higher),
    layer("bench.samples.solve", "count", Higher),
];

/// The outcome of one run: what the last line of standard output reports.
pub struct Outcome {
    /// No wrong payload and no plan over its budget.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests shed, cancelled or failed.
    pub failed: u64,
    /// Metric values, in catalogue order.
    pub metrics: Vec<(Metric, f64)>,
}

fn p(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// The end-to-end values of an untraced run, in [`END_TO_END`] order.
pub fn end_to_end(w: Workload, u: &Untraced) -> Vec<(Metric, f64)> {
    let primary = u.load.of(w.primary());
    let values: [f64; END_TO_END.len()] = [
        median(&u.setup_s).unwrap_or(0.0),
        p(primary, 0.5),
        p(primary, 0.9),
        ratio(u.primary_done as f64, u.load_wall_s),
        u.bytes_per_user_byte,
        mean(&u.retrieval_per_version),
    ];
    END_TO_END.into_iter().zip(values).collect()
}

/// The per-layer values of a traced run, in [`PER_LAYER`] order.
pub fn per_layer(u: &Untraced, t: &Traced, tracer: &Tracer) -> Vec<(Metric, f64)> {
    const MB: f64 = 1e6;
    let ns_to_ms = |ns: u64| ns as f64 / 1e6;
    let per_commit = |x: u64| ratio(x as f64, t.commits as f64);
    let c = &t.checkout;
    let migrate = tracer.durations_ms("executor.migrate");
    // Service latency minus direct-call time over the same requests.
    let overhead = |kind: Kind, service: Vec<f64>| p(&service, 0.5) - p(t.direct.of(kind), 0.5);
    let service_checkouts = [u.load.checkout.as_slice(), &u.gate_ms].concat();
    let service_commits = [u.setup_lat.commit.as_slice(), &u.load.commit].concat();
    let service_solves = [u.setup_lat.solve.as_slice(), &u.load.solve].concat();
    let iterations: Vec<f64> = t.solve_iterations.iter().map(|&i| i as f64).collect();
    let values: [f64; PER_LAYER.len()] = [
        p(t.direct.of(Kind::Checkout), 0.5),
        p(t.direct.of(Kind::Checkout), 0.99),
        ratio(c.hydrated as f64, c.requested as f64),
        ratio(c.delta_applies as f64, c.requested as f64),
        ratio(c.bytes as f64 / MB, c.serve_ms / 1e3),
        t.store_get.calls as f64,
        t.store_get.bytes as f64 / MB,
        ns_to_ms(t.store_get.busy_ns),
        t.store_put.calls as f64,
        t.store_put.bytes as f64 / MB,
        ns_to_ms(t.store_put.busy_ns),
        t.store_flush.calls as f64,
        ns_to_ms(t.store_flush.busy_ns),
        p(&t.apply_ms, 0.5),
        p(&t.apply_ms, 0.99),
        t.refreshes as f64,
        ratio(t.refresh_ms, t.direct.commit.iter().sum()),
        per_commit(t.rescored),
        per_commit(t.moves),
        per_commit(t.repairs),
        t.regret,
        p(&migrate, 0.5),
        p(&migrate, 0.99),
        per_commit(t.migrated.bytes_moved),
        per_commit(t.migrated.changed),
        per_commit(t.migrated.reused),
        t.ingest_ms,
        ratio(t.ingest_bytes as f64 / MB, t.ingest_ms / 1e3),
        p(t.direct.of(Kind::Solve), 0.5),
        mean(&iterations),
        u.stats.queue_high_water as f64,
        u.stats.shed as f64,
        (u.stats.cancelled + u.stats.expired_in_queue) as f64,
        overhead(Kind::Checkout, service_checkouts),
        overhead(Kind::Commit, service_commits),
        overhead(Kind::Solve, service_solves),
        p(&u.gen_lag_ms, 0.99),
        u.load.checkout.len() as f64,
        u.load.commit.len() as f64,
        u.load.solve.len() as f64,
    ];
    PER_LAYER.into_iter().zip(values).collect()
}

/// A JSON number: infinities (a failed request's latency) become the
/// largest finite value, since JSON has no infinity.
fn num(x: f64) -> Value {
    Value::Float(if x.is_finite() { x } else { f64::MAX })
}

fn outcome_fields(o: &Outcome) -> BTreeMap<String, Value> {
    let metrics = o
        .metrics
        .iter()
        .map(|(m, v)| {
            let entry = BTreeMap::from([
                ("value".to_string(), num(*v)),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
            ]);
            (m.name.to_string(), Value::Map(entry))
        })
        .collect();
    BTreeMap::from([
        ("correct".to_string(), Value::Bool(o.correct)),
        ("attempted".to_string(), Value::UInt(o.attempted)),
        ("failed".to_string(), Value::UInt(o.failed)),
        ("metrics".to_string(), Value::Map(metrics)),
    ])
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(o: &Outcome) -> String {
    serde_json::to_string(&Value::Map(outcome_fields(o))).expect("value tree serializes")
}

/// The `--out` document: the result plus what identifies the run.
pub fn out_document(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    o: &Outcome,
    info: BTreeMap<String, Value>,
) -> String {
    let mut doc = outcome_fields(o);
    doc.insert("workload".into(), Value::Str(w.name().into()));
    doc.insert("seed".into(), Value::UInt(seed));
    doc.insert("seconds".into(), Value::Float(seconds));
    doc.insert("traced".into(), Value::Bool(traced));
    doc.insert("info".into(), Value::Map(info));
    serde_json::to_string(&Value::Map(doc)).expect("value tree serializes")
}

/// `dsvbench list`.
pub fn print_list() {
    println!("workloads:");
    for w in Workload::ALL {
        println!("  {:<12} {}", w.name(), w.why());
    }
    println!("end-to-end metrics (untraced runs; bound = allowed worsening of the median):");
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics have a bound");
        println!(
            "  {:<24} {:<5} {:<6} bound {}%",
            m.name,
            m.unit,
            m.better.label(),
            bound * 100.0
        );
    }
    println!("per-layer metrics (runs with --trace):");
    for m in PER_LAYER {
        println!("  {:<38} {:<6} {}", m.name, m.unit, m.better.label());
    }
}

/// One parsed `--out` document.
struct RunDoc {
    workload: String,
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Parse one `--out` document.
fn parse_run(text: &str) -> Result<RunDoc, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let Value::Map(doc) = doc else {
        return Err("not a JSON object".into());
    };
    let number = |v: &Value| match v {
        Value::Float(x) => Some(*x),
        Value::UInt(x) => Some(*x as f64),
        Value::Int(x) => Some(*x as f64),
        _ => None,
    };
    let (
        Some(Value::Str(workload)),
        Some(Value::Bool(correct)),
        Some(Value::UInt(failed)),
        Some(Value::Map(ms)),
    ) = (
        doc.get("workload"),
        doc.get("correct"),
        doc.get("failed"),
        doc.get("metrics"),
    )
    else {
        return Err("not a `dsvbench run --out` document".into());
    };
    let mut metrics = BTreeMap::new();
    for (name, entry) in ms {
        if !valid_metric_name(name) {
            return Err(format!("invalid metric name `{name}`"));
        }
        let value = match entry {
            Value::Map(entry) => entry.get("value").and_then(number),
            _ => None,
        };
        let value = value.ok_or_else(|| format!("metric `{name}` has no numeric value"))?;
        metrics.insert(name.clone(), value);
    }
    Ok(RunDoc {
        workload: workload.clone(),
        correct: *correct,
        failed: *failed,
        metrics,
    })
}

/// How much worse `new` is than `base` as a share of `base` (negative when
/// better).
fn worsening(better: Better, base: f64, new: f64) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    ratio(delta, base.abs())
}

fn spread(values: &[f64]) -> String {
    match (median(values), quartiles(values)) {
        (Some(m), Some((q1, q3))) => format!("{m:.4} [{q1:.4}, {q3:.4}]"),
        (Some(m), None) => format!("{m:.4}"),
        _ => "-".into(),
    }
}

fn runs_of(set: &[RunDoc], w: Workload) -> Vec<&RunDoc> {
    set.iter().filter(|r| r.workload == w.name()).collect()
}

/// Per workload and end-to-end metric, the median and quartiles of each
/// set, flagging a worsening of the new median beyond the metric's bound,
/// and any new run with wrong output or more failed requests than every
/// base run. Returns the report lines and the number of flags.
fn compare_sets(base: &[RunDoc], new: &[RunDoc]) -> (Vec<String>, usize) {
    let mut lines = Vec::new();
    let mut flagged = 0;
    for w in Workload::ALL {
        let (b, n) = (runs_of(base, w), runs_of(new, w));
        if b.is_empty() || n.is_empty() {
            continue;
        }
        lines.push(format!(
            "{} ({} base runs, {} new runs)",
            w.name(),
            b.len(),
            n.len()
        ));
        let base_failed = b.iter().map(|r| r.failed).max().unwrap_or(0);
        if n.iter().any(|r| !r.correct || r.failed > base_failed) {
            lines.push("  REGRESSION: a new run has wrong output or more failed requests".into());
            flagged += 1;
        }
        for m in END_TO_END {
            let values = |runs: &[&RunDoc]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (bv, nv) = (values(&b), values(&n));
            let (Some(bm), Some(nm)) = (median(&bv), median(&nv)) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics have a bound");
            let verdict = if worsening(m.better, bm, nm) > bound {
                flagged += 1;
                "REGRESSION"
            } else {
                "ok"
            };
            lines.push(format!(
                "  {:<24} base {:<36} new {:<36} median {:+.1}% (bound {}%, {} is better) {verdict}",
                m.name,
                spread(&bv),
                spread(&nv),
                ratio(nm - bm, bm.abs()) * 100.0,
                bound * 100.0,
                m.better.label()
            ));
        }
    }
    (lines, flagged)
}

/// `dsvbench compare BASE.json... -- NEW.json...`; returns the process
/// exit code: 1 when something is flagged, 2 on bad input.
pub fn compare(args: &[String]) -> u8 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: dsvbench compare BASE.json... -- NEW.json...");
        return 2;
    };
    let load = |paths: &[String]| -> Result<Vec<RunDoc>, String> {
        paths
            .iter()
            .map(|p| {
                std::fs::read_to_string(p)
                    .map_err(|e| e.to_string())
                    .and_then(|text| parse_run(&text))
                    .map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let (base, new) = match (load(&args[..split]), load(&args[split + 1..])) {
        (Ok(b), Ok(n)) if !b.is_empty() && !n.is_empty() => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("dsvbench: {e}");
            return 2;
        }
        _ => {
            eprintln!("dsvbench: both sets need at least one run");
            return 2;
        }
    };
    let (lines, flagged) = compare_sets(&base, &new);
    for line in lines {
        println!("{line}");
    }
    u8::from(flagged > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_metric_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.unit);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Lower
            && m.bound == END_TO_END.iter().filter_map(|m| m.bound).reduce(f64::max)));
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let Value::Map(doc) = serde_json::from_str::<Value>(text).expect("BENCHMARK.json parses")
        else {
            panic!("BENCHMARK.json is an object");
        };
        let names = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            let Some(Value::Seq(items)) = doc.get(key) else {
                panic!("{key} is a list");
            };
            items
                .iter()
                .map(|item| {
                    let Value::Map(m) = item else {
                        panic!("{key} entry")
                    };
                    let s = |k: &str| match m.get(k) {
                        Some(Value::Str(s)) => s.clone(),
                        _ => panic!("{key} entry lacks {k}"),
                    };
                    let bound = m.get("bound").map(|b| match b {
                        Value::Float(x) => *x,
                        _ => panic!("bound is a number"),
                    });
                    (s("name"), s("unit"), s("better"), bound)
                })
                .collect()
        };
        let expect = |ms: &[Metric]| -> Vec<(String, String, String, Option<f64>)> {
            ms.iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.label().to_string(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), expect(&END_TO_END));
        assert_eq!(names("per_layer"), expect(&PER_LAYER));
        let Some(Value::Seq(workloads)) = doc.get("workloads") else {
            panic!("workloads is a list");
        };
        let listed: Vec<(String, String)> = workloads
            .iter()
            .map(|w| match w {
                Value::Map(m) => match (m.get("name"), m.get("why")) {
                    (Some(Value::Str(name)), Some(Value::Str(why))) => (name.clone(), why.clone()),
                    _ => panic!("workload entry lacks name or why"),
                },
                _ => panic!("workload entry"),
            })
            .collect();
        let ours: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(listed, ours);
    }

    fn doc(workload: &str, correct: bool, failed: u64, p50: f64, rate: f64) -> RunDoc {
        let o = Outcome {
            correct,
            attempted: 100,
            failed,
            metrics: vec![(END_TO_END[1], p50), (END_TO_END[3], rate)],
        };
        let w = Workload::parse(workload).expect("workload");
        parse_run(&out_document(w, 1, 20.0, false, &o, BTreeMap::new())).expect("parses")
    }

    #[test]
    fn compare_flags_only_worsening_beyond_the_bound() {
        let base: Vec<RunDoc> = [10.0, 11.0, 12.0]
            .iter()
            .map(|&ms| doc("read-text", true, 0, ms, 50.0))
            .collect();
        // p50 median 11 -> 13 (+18%) and rate 50 -> 45 (-10%): within 25%.
        let close: Vec<RunDoc> = [12.0, 13.0, 14.0]
            .iter()
            .map(|&ms| doc("read-text", true, 0, ms, 45.0))
            .collect();
        assert_eq!(compare_sets(&base, &close).1, 0);
        // p50 median 11 -> 15 (+36%) and rate 50 -> 30 (-40%).
        let slow: Vec<RunDoc> = [14.0, 15.0, 16.0]
            .iter()
            .map(|&ms| doc("read-text", true, 0, ms, 30.0))
            .collect();
        assert_eq!(compare_sets(&base, &slow).1, 2);
        // Faster is never a regression; a wrong run always is.
        let faster = vec![doc("read-text", true, 0, 5.0, 90.0)];
        assert_eq!(compare_sets(&base, &faster).1, 0);
        let wrong = vec![doc("read-text", false, 0, 11.0, 50.0)];
        assert_eq!(compare_sets(&base, &wrong).1, 1);
        // Runs of other workloads are not compared with each other.
        let other = vec![doc("commit-mix", true, 0, 99.0, 1.0)];
        assert_eq!(compare_sets(&base, &other), (Vec::new(), 0));
    }

    #[test]
    fn parse_run_rejects_foreign_documents() {
        assert!(parse_run("[1, 2]").is_err());
        assert!(
            parse_run(r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}"#).is_err()
        );
        let bad_name = r#"{"workload": "read-text", "correct": true, "failed": 0,
            "metrics": {"a b": {"value": 1.0, "unit": "ms"}}}"#;
        assert!(parse_run(bad_name).is_err());
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Lower, 10.0, 9.0) < 0.0);
        assert!(worsening(Higher, 10.0, 11.0) < 0.0);
    }
}
