//! Experiment runners, one per paper artifact.

use crate::report::{fmt_f, Report};
use crate::sweep::{bmr_budgets, bmr_sweep, msr_budgets, msr_sweep, opt_sweep, SweepPoint};
use dsv_delta::corpus::{corpus, corpus_with_content, stats, CorpusName};
use dsv_delta::transforms::{erdos_renyi_from_sketches, random_compression};
use dsv_vgraph::VersionGraph;

/// Global experiment options.
#[derive(Clone, Debug)]
pub struct ExperimentOptions {
    /// Scale factor on corpus node counts (1.0 = paper-sized).
    pub scale: f64,
    /// Hard ceiling on nodes per corpus: large corpora are clamped so a
    /// full `repro` run finishes in minutes. Paper-sized runs pass
    /// `--max-nodes 40000`. Shapes are scale-stable (verified across
    /// scales in the test suite).
    pub max_nodes: usize,
    /// RNG seed for corpus generation and transforms.
    pub seed: u64,
    /// Number of sweep points per figure.
    pub points: usize,
    /// Node-count ceiling for ILP OPT curves (paper: only `datasharing`).
    pub opt_node_limit: usize,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            scale: 1.0,
            max_nodes: 1_500,
            seed: 2024,
            points: 10,
            opt_node_limit: 40,
        }
    }
}

impl ExperimentOptions {
    /// Scale for one corpus after applying the node ceiling.
    pub fn scale_for(&self, name: CorpusName) -> f64 {
        self.scale
            .min(self.max_nodes as f64 / name.paper_nodes() as f64)
    }
}

fn sweep_report(name: &str, points: &[SweepPoint]) -> Report {
    let mut r = Report::new(name, &["algorithm", "budget", "objective", "time_ms"]);
    for p in points {
        r.push_row(vec![
            p.algorithm.to_string(),
            p.budget.to_string(),
            p.objective
                .map(|o| o.to_string())
                .unwrap_or_else(|| "inf".into()),
            fmt_f(p.time_ms),
        ]);
    }
    r
}

/// Table 4: dataset overview (nodes, edges, average costs).
pub fn table4(opts: &ExperimentOptions) -> Report {
    let mut r = Report::new(
        "table4-dataset-overview",
        &["dataset", "nodes", "edges", "avg_sv", "avg_se", "merges"],
    );
    for name in CorpusName::ALL {
        let c = corpus(name, opts.scale_for(name), opts.seed);
        let s = stats(name.as_str(), &c.graph);
        r.push_row(vec![
            s.name,
            s.nodes.to_string(),
            s.edges.to_string(),
            fmt_f(s.avg_node_storage),
            fmt_f(s.avg_edge_storage),
            c.merge_count.to_string(),
        ]);
    }
    // The ER variants of LeetCode (paper rows 6-8).
    let lc = corpus_with_content(
        CorpusName::LeetCodeAnimation,
        opts.scale_for(CorpusName::LeetCodeAnimation),
        opts.seed,
        true,
    );
    if let Some(sk) = lc.sketches() {
        for p in [0.05, 0.2, 1.0] {
            let g = erdos_renyi_from_sketches(sk, p, opts.seed + 1);
            let s = stats(&format!("LeetCode ({p})"), &g);
            r.push_row(vec![
                s.name,
                s.nodes.to_string(),
                s.edges.to_string(),
                fmt_f(s.avg_node_storage),
                fmt_f(s.avg_edge_storage),
                "-".into(),
            ]);
        }
    }
    r.note("Expected shape (paper Table 4): tree-like bidirectional graphs; avg delta cost 1-3 orders of magnitude below avg version size; ER deltas ~10x natural deltas.");
    r
}

/// Figure 10: MSR on natural graphs (LMG / LMG-All / DP-MSR, OPT on the
/// smallest corpus).
pub fn fig10(opts: &ExperimentOptions) -> Vec<Report> {
    let mut reports = Vec::new();
    for name in [
        CorpusName::Datasharing,
        CorpusName::Styleguide,
        CorpusName::Icu996,
        CorpusName::FreeCodeCamp,
    ] {
        let c = corpus(name, opts.scale_for(name), opts.seed);
        let budgets = msr_budgets(&c.graph, opts.points);
        let mut points = msr_sweep(&c.graph, &budgets);
        if c.graph.n() <= opts.opt_node_limit {
            points.extend(opt_sweep(&c.graph, &budgets, 8_000));
        }
        let mut r = sweep_report(&format!("fig10-msr-natural-{}", name.as_str()), &points);
        r.note("Expected shape (paper Fig. 10): DP-MSR <= LMG-All <= LMG across the sweep; DP-MSR ~matches OPT on datasharing.");
        reports.push(r);
    }
    reports
}

/// Figure 11: MSR on randomly-compressed natural graphs.
pub fn fig11(opts: &ExperimentOptions) -> Vec<Report> {
    let mut reports = Vec::new();
    for name in [
        CorpusName::Datasharing,
        CorpusName::Styleguide,
        CorpusName::Icu996,
    ] {
        let c = corpus(name, opts.scale_for(name), opts.seed);
        let g = random_compression(&c.graph, opts.seed + 7);
        let budgets = msr_budgets(&g, opts.points);
        let mut points = msr_sweep(&g, &budgets);
        if g.n() <= opts.opt_node_limit {
            points.extend(opt_sweep(&g, &budgets, 8_000));
        }
        let mut r = sweep_report(&format!("fig11-msr-compressed-{}", name.as_str()), &points);
        r.note("Expected shape (paper Fig. 11): DP-MSR still ahead but the margin over LMG-All shrinks (the extracted tree loses information once storage and retrieval decouple).");
        reports.push(r);
    }
    reports
}

/// Figure 12: MSR on compressed Erdős–Rényi graphs (LeetCode).
pub fn fig12(opts: &ExperimentOptions) -> Vec<Report> {
    let lc = corpus_with_content(
        CorpusName::LeetCodeAnimation,
        opts.scale_for(CorpusName::LeetCodeAnimation),
        opts.seed,
        true,
    );
    let sketches = lc.sketches().expect("sketch-mode corpus");
    let mut cases: Vec<(String, VersionGraph)> = vec![("original".into(), lc.graph.clone())];
    for p in [0.05, 0.2, 1.0] {
        cases.push((
            format!("p{p}"),
            erdos_renyi_from_sketches(sketches, p, opts.seed + 3),
        ));
    }
    let mut reports = Vec::new();
    for (label, g) in cases {
        let g = random_compression(&g, opts.seed + 11);
        let budgets = msr_budgets(&g, opts.points);
        let points = msr_sweep(&g, &budgets);
        let mut r = sweep_report(&format!("fig12-msr-er-leetcode-{label}"), &points);
        r.note("Expected shape (paper Fig. 12): LMG degrades badly on dense ER graphs; LMG-All pays heavy runtime on dense graphs; DP-MSR stays competitive.");
        reports.push(r);
    }
    reports
}

/// Figure 13: BMR on natural graphs (MP vs DP-BMR).
pub fn fig13(opts: &ExperimentOptions) -> Vec<Report> {
    let mut reports = Vec::new();
    for name in [CorpusName::Styleguide, CorpusName::FreeCodeCamp] {
        let c = corpus(name, opts.scale_for(name), opts.seed);
        let budgets = bmr_budgets(&c.graph, opts.points);
        let points = bmr_sweep(&c.graph, &budgets);
        let mut r = sweep_report(&format!("fig13-bmr-natural-{}", name.as_str()), &points);
        r.note("Expected shape (paper Fig. 13): DP-BMR <= MP except near R=0; DP-BMR monotone in R; runtimes within a constant factor.");
        reports.push(r);
    }
    reports
}

/// Theorem 1: the adversarial chain where LMG (and greedy in general) is
/// arbitrarily bad. All three solves dispatch through the engine.
pub fn thm1() -> Report {
    use dsv_core::engine::{Engine, SolveOptions};
    use dsv_core::problem::ProblemKind;

    let engine = Engine::with_default_solvers();
    let opts = SolveOptions::default();
    let mut r = Report::new(
        "thm1-lmg-worst-case",
        &["c/b", "LMG", "LMG-All", "OPT", "LMG/OPT"],
    );
    for ratio in [10u64, 100, 1_000, 10_000] {
        // b must stay >= ratio so that eps = b/c survives integer rounding.
        let b = 100u64.max(ratio);
        let c = b * ratio;
        let eb = b - b * b / c;
        let ec = c - b;
        let a = 10 * c;
        let mut g = VersionGraph::new();
        let va = g.add_node(a);
        let vb = g.add_node(b);
        let vc = g.add_node(c);
        g.add_edge(va, vb, eb, eb);
        g.add_edge(vb, vc, ec, ec);
        let _ = (va, vc);
        let problem = ProblemKind::Msr {
            storage_budget: a + eb + c,
        };
        let objective = |solver: &str| {
            engine
                .solve_with(solver, &g, problem, &opts)
                .expect("feasible")
                .costs
                .total_retrieval
        };
        let (lmg_obj, all_obj, opt) = (
            objective("LMG"),
            objective("LMG-All"),
            objective("BruteForce"),
        );
        r.push_row(vec![
            ratio.to_string(),
            lmg_obj.to_string(),
            all_obj.to_string(),
            opt.to_string(),
            fmt_f(lmg_obj as f64 / opt.max(1) as f64),
        ]);
    }
    r.note("Expected shape (paper Thm. 1): LMG/OPT grows linearly with c/b — the greedy ratio is unbounded.");
    r
}

/// Engine showcase: every [`ProblemKind`](dsv_core::problem::ProblemKind)
/// solved end-to-end through [`Engine::portfolio`] on one corpus — which
/// solver wins each problem, at what objective, against how many feasible
/// competitors. Not a paper figure; it exercises the serving path future
/// PRs build on.
pub fn portfolio_report(opts: &ExperimentOptions) -> Report {
    use crate::sweep::portfolio_sweep;
    use dsv_core::baselines::min_storage_value;
    use dsv_core::problem::ProblemKind;

    let c = corpus(
        CorpusName::Datasharing,
        opts.scale_for(CorpusName::Datasharing),
        opts.seed,
    );
    let g = &c.graph;
    let smin = min_storage_value(g);
    let rmax = g.max_edge_retrieval();

    let mut r = Report::new(
        "engine-portfolio-datasharing",
        &[
            "problem",
            "budget",
            "winner",
            "objective",
            "feasible",
            "attempted",
            "time_ms",
        ],
    );
    let problems = [
        ProblemKind::Msr {
            storage_budget: smin * 2,
        },
        ProblemKind::Mmr {
            storage_budget: smin * 2,
        },
        ProblemKind::Bsr {
            retrieval_budget: rmax.saturating_mul(g.n() as u64),
        },
        ProblemKind::Bmr {
            retrieval_budget: rmax,
        },
    ];
    for point in portfolio_sweep(g, &problems) {
        let (winner, objective) = match point.winner {
            Some((solver, obj)) => (solver.to_string(), obj.to_string()),
            None => ("-".into(), "-".into()),
        };
        r.push_row(vec![
            point.problem.name().into(),
            point.problem.budget().to_string(),
            winner,
            objective,
            point.feasible.to_string(),
            point.attempted.to_string(),
            fmt_f(point.time_ms),
        ]);
    }
    r.note("Engine portfolio: each row is one ProblemKind solved by every registered solver that supports it; the winner is the best feasible validated plan.");
    r
}

/// Machine-readable portfolio performance benchmark, written by `repro` as
/// `BENCH_portfolio.json` so the perf trajectory is tracked across PRs.
#[derive(Clone, Debug)]
pub struct PortfolioBench {
    /// Human-readable rendering of the same data.
    pub report: Report,
    /// The JSON document (per-solver wall times, speedup vs sequential,
    /// thread count).
    pub json: String,
    /// Parallel speedup: sequential portfolio wall / parallel portfolio
    /// wall (best of [`PORTFOLIO_BENCH_ITERS`] each).
    pub speedup: f64,
    /// Thread-pool width the parallel run used.
    pub threads: usize,
}

/// Iterations per timing mode in [`portfolio_bench`] (min is reported, so
/// one cold pool start cannot masquerade as a regression).
pub const PORTFOLIO_BENCH_ITERS: usize = 3;

/// Time `Engine::portfolio` parallel vs sequential on the **largest**
/// corpus fixture at the configured scale, and emit both a report and the
/// machine-readable JSON. Also sanity-checks that both modes return the
/// same winner at the same objective (the determinism contract).
pub fn portfolio_bench(opts: &ExperimentOptions) -> PortfolioBench {
    use dsv_core::baselines::min_storage_value;
    use dsv_core::engine::{Engine, SolveOptions};
    use dsv_core::problem::ProblemKind;
    use serde_json::Value;
    use std::collections::BTreeMap;
    use std::time::Instant;

    // Largest fixture by scaled node count (no need to build all corpora).
    let name = CorpusName::ALL
        .into_iter()
        .max_by_key(|n| (n.paper_nodes() as f64 * opts.scale_for(*n)) as usize)
        .expect("corpora exist");
    let c = corpus(name, opts.scale_for(name), opts.seed);
    let g = &c.graph;
    let smin = min_storage_value(g);
    let problem = ProblemKind::Msr {
        storage_budget: smin * 2,
    };
    let engine = Engine::with_default_solvers();
    let threads = rayon::current_num_threads();

    let time_mode = |parallel: bool| {
        let mut best_ms = f64::INFINITY;
        let mut last = None;
        for _ in 0..PORTFOLIO_BENCH_ITERS {
            // Fresh options per run: no shared-work carry-over between
            // timed iterations (sharing *within* one call still applies).
            let solve_opts = SolveOptions {
                parallel,
                ..Default::default()
            };
            let t0 = Instant::now();
            let result = engine.portfolio(g, problem, &solve_opts);
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            last = Some(result);
        }
        (best_ms, last.expect("at least one iteration"))
    };
    let (parallel_ms, parallel_run) = time_mode(true);
    let (sequential_ms, sequential_run) = time_mode(false);
    let speedup = sequential_ms / parallel_ms.max(1e-9);

    let winner = match (&parallel_run, &sequential_run) {
        (Ok(p), Ok(s)) => {
            assert_eq!(
                p.best.plan, s.best.plan,
                "parallel and sequential portfolios must return the same best plan"
            );
            Some((p.best.meta.solver, p.best.costs.total_retrieval))
        }
        _ => None,
    };

    let mut r = Report::new("portfolio-bench", &["solver", "wall_ms", "outcome"]);
    let mut attempts_json = Vec::new();
    if let Ok(p) = &parallel_run {
        for a in &p.attempts {
            let outcome = match &a.outcome {
                dsv_core::engine::AttemptOutcome::Solved(_) => "solved",
                dsv_core::engine::AttemptOutcome::Failed(_) => "failed",
                dsv_core::engine::AttemptOutcome::Skipped => "skipped",
            };
            let wall_ms = a.wall_time.as_secs_f64() * 1e3;
            r.push_row(vec![
                a.solver.to_string(),
                fmt_f(wall_ms),
                outcome.to_string(),
            ]);
            let mut m = BTreeMap::new();
            m.insert("solver".to_string(), Value::Str(a.solver.to_string()));
            m.insert("wall_ms".to_string(), Value::Float(wall_ms));
            m.insert("outcome".to_string(), Value::Str(outcome.to_string()));
            attempts_json.push(Value::Map(m));
        }
    }
    r.note(format!(
        "corpus {} ({} nodes), threads {threads}: parallel {parallel_ms:.1} ms vs sequential {sequential_ms:.1} ms — speedup {speedup:.2}x; winner {:?}",
        name.as_str(),
        g.n(),
        winner,
    ));

    let mut doc = BTreeMap::new();
    doc.insert(
        "experiment".to_string(),
        Value::Str("portfolio-bench".to_string()),
    );
    doc.insert("corpus".to_string(), Value::Str(name.as_str().to_string()));
    doc.insert("nodes".to_string(), Value::UInt(g.n() as u64));
    doc.insert("edges".to_string(), Value::UInt(g.m() as u64));
    doc.insert("threads".to_string(), Value::UInt(threads as u64));
    doc.insert("parallel_ms".to_string(), Value::Float(parallel_ms));
    doc.insert("sequential_ms".to_string(), Value::Float(sequential_ms));
    doc.insert("speedup".to_string(), Value::Float(speedup));
    doc.insert(
        "winner".to_string(),
        match winner {
            Some((solver, obj)) => {
                let mut m = BTreeMap::new();
                m.insert("solver".to_string(), Value::Str(solver.to_string()));
                m.insert("objective".to_string(), Value::UInt(obj));
                Value::Map(m)
            }
            None => Value::Null,
        },
    );
    doc.insert("attempts".to_string(), Value::Seq(attempts_json));
    let json = serde_json::to_string(&Value::Map(doc)).expect("value tree serializes");

    PortfolioBench {
        report: r,
        json,
        speedup,
        threads,
    }
}

/// Machine-readable LMG-All performance benchmark, written by `repro` as
/// `BENCH_lmg.json` so the greedy-loop perf trajectory is tracked across
/// PRs (introduced with the incremental LMG-All rewrite).
#[derive(Clone, Debug)]
pub struct LmgBench {
    /// Human-readable rendering of the same data.
    pub report: Report,
    /// The JSON document (per-size wall times of the from-scratch oracle
    /// vs the incremental loop, and the speedups).
    pub json: String,
    /// Incremental speedup on the n = 4000 ER benchmark graph (the
    /// acceptance gate): scratch wall / incremental wall.
    pub speedup_4k: f64,
}

/// Iterations per timing mode in [`lmg_bench`] (min is reported).
pub const LMG_BENCH_ITERS: usize = 3;

/// Time incremental vs from-scratch LMG-All on Erdős–Rényi graphs of
/// increasing size (average total degree ≈ 8, budget = 2× the minimum
/// storage). Asserts that both loops return **byte-identical plans and
/// stats** on every instance; the reported speedup is therefore a
/// like-for-like measurement of the incremental machinery alone.
///
/// Unlike the corpus experiments, the benchmark sizes are **fixed**
/// (exempt from `--scale`/`--max-nodes` capping): n = 1k and 4k always
/// run — the 4k row is the cross-PR acceptance gate, so it must exist in
/// every BENCH_lmg.json — and n = 16k is opt-in via `--max-nodes 16000`
/// because the from-scratch oracle costs `O(moves · (n + m))` there.
pub fn lmg_bench(opts: &ExperimentOptions) -> LmgBench {
    use dsv_core::baselines::min_storage_value;
    use dsv_core::heuristics::lmg_all::{lmg_all_with_stats, LmgAllStats};
    use dsv_core::heuristics::oracle::lmg_all_scratch;
    use dsv_core::plan::StoragePlan;
    use dsv_vgraph::generators::{erdos_renyi_bidirectional, CostModel};
    use serde_json::Value;
    use std::collections::BTreeMap;
    use std::time::Instant;

    let mut sizes = vec![1_000usize, 4_000];
    if opts.max_nodes >= 16_000 {
        sizes.push(16_000);
    }

    let mut r = Report::new(
        "lmg-bench",
        &["n", "m", "moves", "scratch_ms", "incremental_ms", "speedup"],
    );
    let mut rows_json = Vec::new();
    let mut speedup_4k = 0.0f64;
    for &n in &sizes {
        // Average total degree ~8 regardless of n, so the candidate set
        // grows linearly while density stays corpus-like.
        let p = 4.0 / n as f64;
        let g = erdos_renyi_bidirectional(n, p, &CostModel::default(), opts.seed);
        let budget = min_storage_value(&g) * 2;

        let time_best = |f: &dyn Fn() -> Option<(StoragePlan, LmgAllStats)>| {
            let mut best_ms = f64::INFINITY;
            let mut last = None;
            for _ in 0..LMG_BENCH_ITERS {
                let t0 = Instant::now();
                let result = f();
                best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                last = Some(result);
            }
            (best_ms, last.expect("at least one iteration"))
        };
        let (scratch_ms, scratch) = time_best(&|| lmg_all_scratch(&g, budget, |_, _| {}));
        let (incremental_ms, incremental) = time_best(&|| lmg_all_with_stats(&g, budget));
        let (scratch, incremental) = (
            scratch.expect("budget 2x smin is feasible"),
            incremental.expect("budget 2x smin is feasible"),
        );
        assert_eq!(
            scratch, incremental,
            "incremental LMG-All must return a byte-identical plan (n = {n})"
        );
        let moves = incremental.1.moves;
        let speedup = scratch_ms / incremental_ms.max(1e-9);
        if n == 4_000 {
            speedup_4k = speedup;
        }
        r.push_row(vec![
            n.to_string(),
            g.m().to_string(),
            moves.to_string(),
            fmt_f(scratch_ms),
            fmt_f(incremental_ms),
            fmt_f(speedup),
        ]);
        let mut m = BTreeMap::new();
        m.insert("n".to_string(), Value::UInt(n as u64));
        m.insert("m".to_string(), Value::UInt(g.m() as u64));
        m.insert("moves".to_string(), Value::UInt(moves as u64));
        m.insert("scratch_ms".to_string(), Value::Float(scratch_ms));
        m.insert("incremental_ms".to_string(), Value::Float(incremental_ms));
        m.insert("speedup".to_string(), Value::Float(speedup));
        rows_json.push(Value::Map(m));
    }
    r.note(format!(
        "incremental vs from-scratch LMG-All on ER graphs (avg degree ~8, budget 2x smin), \
         best of {LMG_BENCH_ITERS}; plans byte-identical (asserted); \
         n=4k speedup {speedup_4k:.2}x"
    ));

    let mut doc = BTreeMap::new();
    doc.insert(
        "experiment".to_string(),
        Value::Str("lmg-bench".to_string()),
    );
    doc.insert("iters".to_string(), Value::UInt(LMG_BENCH_ITERS as u64));
    doc.insert("seed".to_string(), Value::UInt(opts.seed));
    doc.insert("plans_identical".to_string(), Value::Bool(true));
    doc.insert("speedup_4k".to_string(), Value::Float(speedup_4k));
    doc.insert("sizes".to_string(), Value::Seq(rows_json));
    let json = serde_json::to_string(&Value::Map(doc)).expect("value tree serializes");

    LmgBench {
        report: r,
        json,
        speedup_4k,
    }
}

/// Machine-readable sharded-solving benchmark, written by `repro` as
/// `BENCH_shard.json` so the hierarchical path's perf trajectory is
/// tracked across PRs (introduced with the sharded solver).
#[derive(Clone, Debug)]
pub struct ShardBench {
    /// Human-readable rendering of the same data.
    pub report: Report,
    /// The JSON document (per-size wall times of whole-graph LMG-All vs
    /// the sharded pipeline, speedups, and regret ratios).
    pub json: String,
    /// Sharded speedup on the n = 64k forest (the acceptance gate):
    /// whole-graph wall / sharded wall.
    pub speedup_64k: f64,
    /// Sharded objective / whole-graph objective on the n = 64k forest;
    /// asserted `<=` [`dsv_core::engine::sharded::SHARD_REGRET_BOUND`].
    pub regret_64k: f64,
}

/// Iterations per timing mode in [`shard_bench`] (min is reported).
pub const SHARD_BENCH_ITERS: usize = 2;

/// Time whole-graph LMG-All vs the sharded hierarchical pipeline on large
/// multi-cluster forests (`shard_forest`: clusters merged into one
/// component by cross links, so the separator splitter is actually
/// exercised). Budget = half the materialize-all cost. Asserts that the
/// sharded plan is **byte-identical across pool widths 1 and 4** and that
/// its objective stays within the declared regret bound of the whole-graph
/// plan, so the reported speedup is a like-for-like measurement under the
/// quality gate.
///
/// The benchmark sizes are **fixed** (exempt from `--scale`/`--max-nodes`
/// capping): n = 16k always runs, and the n = 64k row — the cross-PR
/// acceptance gate, required in every BENCH_shard.json — runs unless the
/// harness is explicitly shrunk below `--max-nodes 1000` (smoke-test
/// escape hatch used by the test suite).
pub fn shard_bench(opts: &ExperimentOptions) -> ShardBench {
    use dsv_core::cancel::CancelToken;
    use dsv_core::engine::sharded::{sharded_msr, ShardConfig, SHARD_REGRET_BOUND};
    use dsv_core::heuristics::lmg_all::lmg_all_with_stats;
    use dsv_core::plan::StoragePlan;
    use dsv_vgraph::generators::{shard_forest, CostModel};
    use serde_json::Value;
    use std::collections::BTreeMap;
    use std::time::Instant;

    // (clusters, nodes per cluster, cross links): 16 × 1024 = 16k warm-up,
    // 32 × 2048 = 64k acceptance gate.
    let mut shapes = vec![(16usize, 1_024usize, 32usize)];
    if opts.max_nodes >= 1_000 {
        shapes.push((32, 2_048, 64));
    }
    let cfg = ShardConfig {
        max_shard_nodes: 4_096,
        min_graph_nodes: 0,
    };

    let mut r = Report::new(
        "shard-scale",
        &[
            "n",
            "m",
            "shards",
            "whole_ms",
            "sharded_ms",
            "speedup",
            "regret",
        ],
    );
    let mut rows_json = Vec::new();
    let mut speedup_64k = 0.0f64;
    let mut regret_64k = 0.0f64;
    let mut plans_identical = true;
    for &(clusters, per, links) in &shapes {
        let g = shard_forest(clusters, per, links, &CostModel::default(), opts.seed);
        let n = g.n();
        let budget = StoragePlan::materialize_all(&g).storage_cost(&g) / 2;

        let mut whole_ms = f64::INFINITY;
        let mut whole = None;
        for _ in 0..SHARD_BENCH_ITERS {
            let t0 = Instant::now();
            let result = lmg_all_with_stats(&g, budget);
            whole_ms = whole_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            whole = Some(result.expect("half materialize-all is feasible"));
        }
        let whole = whole.expect("at least one iteration");

        let mut sharded_ms = f64::INFINITY;
        let mut sharded = None;
        for _ in 0..SHARD_BENCH_ITERS {
            let t0 = Instant::now();
            let result = sharded_msr(&g, budget, &cfg, &CancelToken::inert());
            sharded_ms = sharded_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            sharded = Some(result.expect("half materialize-all is shard-feasible"));
        }
        let (sharded_plan, stats) = sharded.expect("at least one iteration");

        // Determinism across pool widths: a one-thread pool must
        // reproduce the plan byte for byte (timed runs use the ambient
        // pool, i.e. DSV_NUM_THREADS).
        let single = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool")
            .install(|| sharded_msr(&g, budget, &cfg, &CancelToken::inert()))
            .expect("feasible")
            .0;
        plans_identical &= single == sharded_plan;
        assert_eq!(
            single, sharded_plan,
            "sharded plan must be thread-count independent (n = {n})"
        );

        let speedup = whole_ms / sharded_ms.max(1e-9);
        let regret = stats.total_retrieval as f64 / whole.1.total_retrieval.max(1) as f64;
        assert!(
            regret <= SHARD_REGRET_BOUND,
            "sharded objective regret {regret:.3} exceeds the declared bound (n = {n})"
        );
        if n >= 64_000 {
            speedup_64k = speedup;
            regret_64k = regret;
        }
        r.push_row(vec![
            n.to_string(),
            g.m().to_string(),
            stats.shards.to_string(),
            fmt_f(whole_ms),
            fmt_f(sharded_ms),
            fmt_f(speedup),
            fmt_f(regret),
        ]);
        let mut m = BTreeMap::new();
        m.insert("n".to_string(), Value::UInt(n as u64));
        m.insert("m".to_string(), Value::UInt(g.m() as u64));
        m.insert("shards".to_string(), Value::UInt(stats.shards as u64));
        m.insert("cut_edges".to_string(), Value::UInt(stats.cut_edges as u64));
        m.insert(
            "coarse_deltas".to_string(),
            Value::UInt(stats.coarse_deltas as u64),
        );
        m.insert("whole_ms".to_string(), Value::Float(whole_ms));
        m.insert("sharded_ms".to_string(), Value::Float(sharded_ms));
        m.insert("speedup".to_string(), Value::Float(speedup));
        m.insert("regret".to_string(), Value::Float(regret));
        rows_json.push(Value::Map(m));
    }
    r.note(format!(
        "whole-graph LMG-All vs sharded pipeline on shard_forest graphs \
         (budget = materialize-all / 2), best of {SHARD_BENCH_ITERS}, \
         {} threads; plans thread-count independent (asserted), regret bound \
         {SHARD_REGRET_BOUND}x (asserted); n=64k speedup {speedup_64k:.2}x",
        rayon::current_num_threads(),
    ));

    let mut doc = BTreeMap::new();
    doc.insert(
        "experiment".to_string(),
        Value::Str("shard-scale".to_string()),
    );
    doc.insert("iters".to_string(), Value::UInt(SHARD_BENCH_ITERS as u64));
    doc.insert("seed".to_string(), Value::UInt(opts.seed));
    doc.insert(
        "threads".to_string(),
        Value::UInt(rayon::current_num_threads() as u64),
    );
    doc.insert("plans_identical".to_string(), Value::Bool(plans_identical));
    doc.insert("regret_bound".to_string(), Value::Float(SHARD_REGRET_BOUND));
    doc.insert("speedup_64k".to_string(), Value::Float(speedup_64k));
    doc.insert("regret_64k".to_string(), Value::Float(regret_64k));
    doc.insert("sizes".to_string(), Value::Seq(rows_json));
    let json = serde_json::to_string(&Value::Map(doc)).expect("value tree serializes");

    ShardBench {
        report: r,
        json,
        speedup_64k,
        regret_64k,
    }
}

/// Machine-readable store round-trip benchmark, written by `repro` as
/// `BENCH_store.json`: solver plans executed against the on-disk
/// content-addressed store, with measured costs checked against the plans'
/// predictions (introduced with the planning/execution split).
#[derive(Clone, Debug)]
pub struct StoreBench {
    /// Human-readable rendering of the same data.
    pub report: Report,
    /// The JSON document (per-plan predicted vs measured costs, hash
    /// verification counts, reconstruction throughput, GC accounting).
    pub json: String,
    /// Whether every plan's measured storage/retrieval costs equalled the
    /// predictions exactly, every version hash-verified, and GC reclaimed
    /// every object after all plans were released. The CI gate.
    pub agreement: bool,
}

/// Round-trip solver plans (LMG / LMG-All / DP-MSR) through the persistent
/// [`PackStore`](dsv_delta::PackStore) on a set of corpus fixtures: ingest
/// each plan's objects, reconstruct every version from the stored bytes,
/// hash-verify all of them, and compare measured storage/retrieval costs
/// against the plans' predictions — they must agree **exactly**, because
/// the store's codecs price bytes with the same models that priced the
/// graph edges. Finishes by releasing every plan and asserting GC returns
/// the store to empty.
///
/// `work_dir` receives one store directory per fixture; the caller owns
/// cleanup (the `repro` binary removes it after writing results).
pub fn store_bench(opts: &ExperimentOptions, work_dir: &std::path::Path) -> StoreBench {
    use dsv_core::baselines::min_storage_value;
    use dsv_core::engine::{Engine, SolveOptions};
    use dsv_core::executor::PlanExecutor;
    use dsv_core::problem::ProblemKind;
    use dsv_delta::store::{CorpusContent, PackStore, Store};
    use serde_json::Value;
    use std::collections::BTreeMap;

    const SOLVERS: [&str; 3] = ["LMG", "LMG-All", "DP-MSR"];

    // Fixtures: two text corpora (real Myers deltas), one sketch corpus
    // (chunk-manifest deltas), and one ER graph over sketch content
    // (deltas between *unnatural* version pairs). Scales are capped so the
    // round-trip stays CI-sized even at --scale 1.
    let mut fixtures: Vec<(String, dsv_vgraph::VersionGraph, CorpusContent)> = Vec::new();
    for (slug, name, cap) in [
        ("datasharing", CorpusName::Datasharing, 1.0),
        ("styleguide", CorpusName::Styleguide, 0.12),
        ("icu996", CorpusName::Icu996, 0.02),
    ] {
        let c = corpus_with_content(name, opts.scale_for(name).min(cap), opts.seed, true);
        let content = c.content.expect("content retained");
        fixtures.push((slug.to_string(), c.graph, content));
    }
    {
        let lc = corpus_with_content(
            CorpusName::LeetCodeAnimation,
            opts.scale_for(CorpusName::LeetCodeAnimation).min(0.1),
            opts.seed,
            true,
        );
        let sketches = lc.sketches().expect("sketch-mode corpus").to_vec();
        let g = erdos_renyi_from_sketches(&sketches, 0.3, opts.seed + 3);
        fixtures.push((
            "leetcode-er".to_string(),
            g,
            CorpusContent::Sketch { sketches },
        ));
    }

    let engine = Engine::with_default_solvers();
    let solve_opts = SolveOptions::default();
    let mut r = Report::new(
        "store-roundtrip",
        &[
            "fixture",
            "solver",
            "nodes",
            "pred_storage",
            "meas_storage",
            "pred_retrieval",
            "meas_retrieval",
            "verified",
            "agree",
            "mb_per_s",
        ],
    );
    let mut rows_json = Vec::new();
    let mut fixtures_json = Vec::new();
    let mut agreement = true;

    for (slug, g, content) in &fixtures {
        let smin = min_storage_value(g);
        let problem = ProblemKind::Msr {
            storage_budget: smin * 2,
        };
        let dir = work_dir.join(format!("pack-{slug}"));
        let mut store = PackStore::open(&dir).expect("open pack store");
        let mut stored_plans = Vec::new();
        for solver in SOLVERS {
            let sol = engine
                .solve_with(solver, g, problem, &solve_opts)
                .unwrap_or_else(|e| panic!("{solver} on {slug}: {e}"));
            let mut exec = PlanExecutor::new(&mut store);
            let (stored, report) = exec
                .run(g, &sol.plan, content)
                .unwrap_or_else(|e| panic!("{solver} on {slug}: {e}"));
            let agree = report.agreement() && report.verified == g.n();
            agreement &= agree;
            let mbs = report.bytes_per_sec() / 1e6;
            r.push_row(vec![
                slug.clone(),
                solver.to_string(),
                g.n().to_string(),
                sol.costs.storage.to_string(),
                report.measured.storage.to_string(),
                sol.costs.total_retrieval.to_string(),
                report.measured.total_retrieval.to_string(),
                format!("{}/{}", report.verified, report.versions),
                agree.to_string(),
                fmt_f(mbs),
            ]);
            let mut m = BTreeMap::new();
            m.insert("fixture".to_string(), Value::Str(slug.clone()));
            m.insert("solver".to_string(), Value::Str(solver.to_string()));
            m.insert("nodes".to_string(), Value::UInt(g.n() as u64));
            m.insert(
                "predicted_storage".to_string(),
                Value::UInt(sol.costs.storage),
            );
            m.insert(
                "measured_storage".to_string(),
                Value::UInt(report.measured.storage),
            );
            m.insert(
                "predicted_retrieval".to_string(),
                Value::UInt(sol.costs.total_retrieval),
            );
            m.insert(
                "measured_retrieval".to_string(),
                Value::UInt(report.measured.total_retrieval),
            );
            m.insert("verified".to_string(), Value::UInt(report.verified as u64));
            m.insert("agree".to_string(), Value::Bool(agree));
            m.insert(
                "bytes_reconstructed".to_string(),
                Value::UInt(report.bytes_reconstructed),
            );
            m.insert("bytes_per_sec".to_string(), Value::Float(mbs * 1e6));
            m.insert(
                "ingest_ms".to_string(),
                Value::Float(stored.ingest_wall.as_secs_f64() * 1e3),
            );
            m.insert(
                "execute_ms".to_string(),
                Value::Float(report.execute_wall.as_secs_f64() * 1e3),
            );
            rows_json.push(Value::Map(m));
            stored_plans.push(stored);
        }

        // Content addressing across plans: the three plans usually share
        // most delta objects, so the store holds far fewer objects than
        // the plans reference in total.
        let referenced: usize = stored_plans.iter().map(|s| s.objects.len()).sum();
        let live_objects = store.object_count();
        let live_bytes = store.stored_bytes();
        // Retire everything: GC must reclaim the store down to empty.
        {
            let mut exec = PlanExecutor::new(&mut store);
            for stored in &stored_plans {
                exec.release(stored).expect("release stored plan");
            }
        }
        let gc = store.gc().expect("gc");
        let clean = store.object_count() == 0;
        agreement &= clean;
        let mut fm = BTreeMap::new();
        fm.insert("fixture".to_string(), Value::Str(slug.clone()));
        fm.insert(
            "referenced_objects".to_string(),
            Value::UInt(referenced as u64),
        );
        fm.insert("live_objects".to_string(), Value::UInt(live_objects as u64));
        fm.insert("live_bytes".to_string(), Value::UInt(live_bytes));
        fm.insert(
            "gc_collected".to_string(),
            Value::UInt(gc.collected_objects as u64),
        );
        fm.insert(
            "gc_reclaimed_bytes".to_string(),
            Value::UInt(gc.reclaimed_bytes),
        );
        fm.insert("gc_clean".to_string(), Value::Bool(clean));
        fixtures_json.push(Value::Map(fm));
    }

    r.note(format!(
        "solver plans executed against the on-disk PackStore; measured costs are re-priced \
         from the stored bytes and must equal the predictions exactly; agreement={agreement} \
         (also requires every version hash-verified and GC reclaiming all released objects)"
    ));

    let mut doc = BTreeMap::new();
    doc.insert(
        "experiment".to_string(),
        Value::Str("store-roundtrip".to_string()),
    );
    doc.insert("seed".to_string(), Value::UInt(opts.seed));
    doc.insert("agreement".to_string(), Value::Bool(agreement));
    doc.insert("plans".to_string(), Value::Seq(rows_json));
    doc.insert("stores".to_string(), Value::Seq(fixtures_json));
    let json = serde_json::to_string(&Value::Map(doc)).expect("value tree serializes");

    StoreBench {
        report: r,
        json,
        agreement,
    }
}

/// Machine-readable checkout (serving read path) benchmark, written by
/// `repro` as `BENCH_checkout.json`: skewed and uniform access streams
/// served by the batched [`Checkout`](dsv_core::Checkout) walker against
/// one-at-a-time reconstruction, on both store backends.
#[derive(Clone, Debug)]
pub struct CheckoutBench {
    /// Human-readable rendering of the same data.
    pub report: Report,
    /// The JSON document (per-workload throughput, latency percentiles,
    /// cache counters, batched-vs-one-at-a-time speedups).
    pub json: String,
    /// Whether every served payload — one-at-a-time and batched, cold and
    /// cached — was byte-identical to the source content. The CI gate's
    /// correctness half.
    pub agreement: bool,
    /// Aggregate batched-vs-one-at-a-time speedup on the skewed (Zipf)
    /// workloads: total one-at-a-time wall over total batched wall. The
    /// CI gate's performance half (`--assert-speedup`).
    pub skewed_speedup: f64,
}

/// Requests per workload stream.
const CHECKOUT_REQUESTS: usize = 512;
/// Versions per served batch.
const CHECKOUT_BATCH: usize = 32;

/// A Zipf(s)-skewed request stream over a seeded permutation of the
/// versions (so the hot set is arbitrary, not "the lowest ids"), via
/// inverse-CDF sampling. Models the hot-version skew of real dataset
/// workloads.
fn zipf_stream(n: usize, len: usize, exponent: f64, seed: u64) -> Vec<u32> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    let mut cum = Vec::with_capacity(n);
    let mut total = 0.0;
    for i in 0..n {
        total += 1.0 / ((i + 1) as f64).powf(exponent);
        cum.push(total);
    }
    (0..len)
        .map(|_| {
            let x = rng.gen_range(0.0..total);
            let idx = cum.partition_point(|&c| c < x).min(n - 1);
            perm[idx]
        })
        .collect()
}

/// A uniform request stream over the versions.
fn uniform_stream(n: usize, len: usize, seed: u64) -> Vec<u32> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0..n as u32)).collect()
}

/// `p`-th percentile of an unsorted latency sample (nearest rank).
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let idx = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[idx]
}

/// One workload measured both ways.
struct WorkloadOut {
    oneshot_wall: f64,
    batched_wall: f64,
    oneshot_p50_ms: f64,
    oneshot_p99_ms: f64,
    batched_p50_ms: f64,
    batched_p99_ms: f64,
    cache: dsv_core::CacheStats,
    hydrated_batched: usize,
    identical: bool,
}

/// Serve one request stream twice — one version at a time with no cache
/// (the old read path), then in batches through a shared
/// [`CheckoutCache`](dsv_core::CheckoutCache) — asserting every payload
/// byte-identical to the source content both times.
fn run_checkout_workload<S: dsv_delta::Store + Sync>(
    g: &VersionGraph,
    stored: &dsv_core::StoredPlan,
    store: &S,
    expected: &[dsv_delta::store::codec::Payload],
    stream: &[u32],
) -> WorkloadOut {
    use dsv_core::{Checkout, CheckoutCache};
    use std::time::Instant;

    let mut identical = true;

    // One at a time, cold every request: each checkout walks the full
    // retrieval chain of its single version.
    let reader = Checkout::new(store);
    let mut lat_one = Vec::with_capacity(stream.len());
    let t0 = Instant::now();
    for &v in stream {
        let t = Instant::now();
        let out = reader
            .checkout(g, stored, &[v])
            .expect("one-at-a-time checkout");
        lat_one.push(t.elapsed().as_secs_f64() * 1e3);
        identical &= *out.payloads[0] == expected[v as usize];
    }
    let oneshot_wall = t0.elapsed().as_secs_f64();

    // Batched through a cache sized to a quarter of the corpus content:
    // shared chain prefixes hydrate once per batch, hot versions are
    // served from the cache across batches.
    let capacity = expected
        .iter()
        .map(|p| p.content_size())
        .sum::<u64>()
        .div_ceil(4)
        .max(1);
    let cache = CheckoutCache::new(capacity);
    let reader = Checkout::new(store).with_cache(&cache);
    let mut lat_batched = Vec::with_capacity(stream.len());
    let mut hydrated_batched = 0;
    let t0 = Instant::now();
    for batch in stream.chunks(CHECKOUT_BATCH) {
        let t = Instant::now();
        let out = reader.checkout(g, stored, batch).expect("batched checkout");
        let per_version_ms = t.elapsed().as_secs_f64() * 1e3 / batch.len() as f64;
        hydrated_batched += out.stats.hydrated;
        for (i, &v) in batch.iter().enumerate() {
            identical &= *out.payloads[i] == expected[v as usize];
            lat_batched.push(per_version_ms);
        }
    }
    let batched_wall = t0.elapsed().as_secs_f64();

    WorkloadOut {
        oneshot_wall,
        batched_wall,
        oneshot_p50_ms: percentile(&mut lat_one, 0.50),
        oneshot_p99_ms: percentile(&mut lat_one, 0.99),
        batched_p50_ms: percentile(&mut lat_batched, 0.50),
        batched_p99_ms: percentile(&mut lat_batched, 0.99),
        cache: cache.stats(),
        hydrated_batched,
        identical,
    }
}

/// The checkout serving benchmark: LMG / LMG-All / DP-MSR plans on two
/// corpus fixtures, each served on both backends
/// ([`MemStore`](dsv_delta::MemStore) and the on-disk
/// [`PackStore`](dsv_delta::PackStore) with its resident pack map) under
/// a skewed (Zipf 1.1) and a uniform request stream.
///
/// Every payload served — one at a time and batched, cold and cached —
/// is compared byte-for-byte against the source content in-run; any
/// mismatch clears `agreement` and fails the `repro` run. `work_dir`
/// receives one pack-store directory per fixture; the caller owns
/// cleanup.
pub fn checkout_bench(opts: &ExperimentOptions, work_dir: &std::path::Path) -> CheckoutBench {
    use dsv_core::baselines::min_storage_value;
    use dsv_core::engine::{Engine, SolveOptions};
    use dsv_core::executor::PlanExecutor;
    use dsv_core::problem::ProblemKind;
    use dsv_delta::store::{CorpusContent, PackStore, VersionSource};
    use dsv_delta::MemStore;
    use serde_json::Value;
    use std::collections::BTreeMap;

    const SOLVERS: [&str; 3] = ["LMG", "LMG-All", "DP-MSR"];

    // Fixtures: one text corpus (real Myers deltas) and one ER graph over
    // sketch content, as in the store round-trip; capped CI-sized.
    let mut fixtures: Vec<(String, VersionGraph, CorpusContent)> = Vec::new();
    {
        let c = corpus_with_content(
            CorpusName::Datasharing,
            opts.scale_for(CorpusName::Datasharing),
            opts.seed,
            true,
        );
        fixtures.push((
            "datasharing".to_string(),
            c.graph,
            c.content.expect("content retained"),
        ));
    }
    {
        let lc = corpus_with_content(
            CorpusName::LeetCodeAnimation,
            opts.scale_for(CorpusName::LeetCodeAnimation).min(0.1),
            opts.seed,
            true,
        );
        let sketches = lc.sketches().expect("sketch-mode corpus").to_vec();
        let g = erdos_renyi_from_sketches(&sketches, 0.3, opts.seed + 3);
        fixtures.push((
            "leetcode-er".to_string(),
            g,
            CorpusContent::Sketch { sketches },
        ));
    }

    let engine = Engine::with_default_solvers();
    let solve_opts = SolveOptions::default();
    let mut r = Report::new(
        "checkout-serving",
        &[
            "fixture",
            "solver",
            "backend",
            "workload",
            "requests",
            "oneshot_vps",
            "batched_vps",
            "speedup",
            "batched_p50_ms",
            "batched_p99_ms",
            "hit_rate",
            "identical",
        ],
    );
    let mut rows_json = Vec::new();
    let mut agreement = true;
    let mut skewed_oneshot_wall = 0.0;
    let mut skewed_batched_wall = 0.0;

    for (fi, (slug, g, content)) in fixtures.iter().enumerate() {
        let n = g.n();
        let expected: Vec<_> = (0..n as u32).map(|v| content.payload(v)).collect();
        let streams = [
            (
                "zipf",
                zipf_stream(n, CHECKOUT_REQUESTS, 1.1, opts.seed + 11 + fi as u64),
            ),
            (
                "uniform",
                uniform_stream(n, CHECKOUT_REQUESTS, opts.seed + 17 + fi as u64),
            ),
        ];
        let smin = min_storage_value(g);
        let problem = ProblemKind::Msr {
            storage_budget: smin * 2,
        };

        let mut mem = MemStore::new();
        let mut pack = PackStore::open(work_dir.join(format!("pack-{slug}"))).expect("open pack");
        for solver in SOLVERS {
            let sol = engine
                .solve_with(solver, g, problem, &solve_opts)
                .unwrap_or_else(|e| panic!("{solver} on {slug}: {e}"));
            let stored_mem = PlanExecutor::new(&mut mem)
                .ingest(g, &sol.plan, content)
                .unwrap_or_else(|e| panic!("{solver} on {slug} (mem): {e}"));
            let stored_pack = PlanExecutor::new(&mut pack)
                .ingest(g, &sol.plan, content)
                .unwrap_or_else(|e| panic!("{solver} on {slug} (pack): {e}"));

            for (workload, stream) in &streams {
                let mut serve = |backend: &str, out: WorkloadOut| {
                    agreement &= out.identical;
                    if *workload == "zipf" {
                        skewed_oneshot_wall += out.oneshot_wall;
                        skewed_batched_wall += out.batched_wall;
                    }
                    let speedup = out.oneshot_wall / out.batched_wall.max(1e-9);
                    let oneshot_vps = stream.len() as f64 / out.oneshot_wall.max(1e-9);
                    let batched_vps = stream.len() as f64 / out.batched_wall.max(1e-9);
                    r.push_row(vec![
                        slug.clone(),
                        solver.to_string(),
                        backend.to_string(),
                        workload.to_string(),
                        stream.len().to_string(),
                        fmt_f(oneshot_vps),
                        fmt_f(batched_vps),
                        fmt_f(speedup),
                        fmt_f(out.batched_p50_ms),
                        fmt_f(out.batched_p99_ms),
                        fmt_f(out.cache.hit_rate()),
                        out.identical.to_string(),
                    ]);
                    let mut m = BTreeMap::new();
                    m.insert("fixture".to_string(), Value::Str(slug.clone()));
                    m.insert("solver".to_string(), Value::Str(solver.to_string()));
                    m.insert("backend".to_string(), Value::Str(backend.to_string()));
                    m.insert("workload".to_string(), Value::Str(workload.to_string()));
                    m.insert("nodes".to_string(), Value::UInt(n as u64));
                    m.insert("requests".to_string(), Value::UInt(stream.len() as u64));
                    m.insert("batch".to_string(), Value::UInt(CHECKOUT_BATCH as u64));
                    m.insert("oneshot_vps".to_string(), Value::Float(oneshot_vps));
                    m.insert("batched_vps".to_string(), Value::Float(batched_vps));
                    m.insert("speedup".to_string(), Value::Float(speedup));
                    m.insert(
                        "oneshot_p50_ms".to_string(),
                        Value::Float(out.oneshot_p50_ms),
                    );
                    m.insert(
                        "oneshot_p99_ms".to_string(),
                        Value::Float(out.oneshot_p99_ms),
                    );
                    m.insert(
                        "batched_p50_ms".to_string(),
                        Value::Float(out.batched_p50_ms),
                    );
                    m.insert(
                        "batched_p99_ms".to_string(),
                        Value::Float(out.batched_p99_ms),
                    );
                    m.insert("cache_hits".to_string(), Value::UInt(out.cache.hits));
                    m.insert("cache_misses".to_string(), Value::UInt(out.cache.misses));
                    m.insert(
                        "cache_evictions".to_string(),
                        Value::UInt(out.cache.evictions),
                    );
                    m.insert("hit_rate".to_string(), Value::Float(out.cache.hit_rate()));
                    m.insert(
                        "hydrated_batched".to_string(),
                        Value::UInt(out.hydrated_batched as u64),
                    );
                    m.insert("identical".to_string(), Value::Bool(out.identical));
                    rows_json.push(Value::Map(m));
                };
                serve(
                    "mem",
                    run_checkout_workload(g, &stored_mem, &mem, &expected, stream),
                );
                serve(
                    "pack",
                    run_checkout_workload(g, &stored_pack, &pack, &expected, stream),
                );
            }

            PlanExecutor::new(&mut mem)
                .release(&stored_mem)
                .expect("release mem plan");
            PlanExecutor::new(&mut pack)
                .release(&stored_pack)
                .expect("release pack plan");
        }
    }

    let skewed_speedup = skewed_oneshot_wall / skewed_batched_wall.max(1e-9);
    r.note(format!(
        "batched+cached checkout vs one-at-a-time cold reconstruction; every served payload \
         compared byte-for-byte against the source in-run (identical={agreement}); aggregate \
         skewed-workload speedup {skewed_speedup:.2}x"
    ));

    let mut doc = BTreeMap::new();
    doc.insert(
        "experiment".to_string(),
        Value::Str("checkout-serving".to_string()),
    );
    doc.insert("seed".to_string(), Value::UInt(opts.seed));
    doc.insert(
        "requests_per_workload".to_string(),
        Value::UInt(CHECKOUT_REQUESTS as u64),
    );
    doc.insert("batch".to_string(), Value::UInt(CHECKOUT_BATCH as u64));
    doc.insert("agreement".to_string(), Value::Bool(agreement));
    doc.insert("skewed_speedup".to_string(), Value::Float(skewed_speedup));
    doc.insert("workloads".to_string(), Value::Seq(rows_json));
    let json = serde_json::to_string(&Value::Map(doc)).expect("value tree serializes");

    CheckoutBench {
        report: r,
        json,
        agreement,
        skewed_speedup,
    }
}

/// Results of the fault-injection / self-healing benchmark.
pub struct FaultsBench {
    /// Human-readable rendering of the same data.
    pub report: Report,
    /// The JSON document (per-cell fault/repair counters, serve
    /// throughput, post-heal verification).
    pub json: String,
    /// The CI gate: zero wrong bytes served, zero unrepairable faults,
    /// every request served, every detected fault healed byte-identical
    /// (and the 0%-rate rows injected nothing while the 1% rows
    /// actually exercised the repair path).
    pub agreement: bool,
}

/// Injected fault rates per cell (probability per object, drawn
/// independently for the transient / permanent / bit-flip families).
const FAULT_RATES: [f64; 3] = [0.0, 0.001, 0.01];

/// The self-healing benchmark: the PR-6 checkout streams served through a
/// [`FaultStore`](dsv_delta::FaultStore) that injects deterministic
/// transient I/O errors, permanent read errors, and bit flips at 0%,
/// 0.1%, and 1% per object, on both backends.
///
/// Each batch is served with the corpus content attached as the
/// redundant copy ([`serve_healing`](dsv_core::executor::PlanExecutor::serve_healing)):
/// transient errors retry, corrupt/permanent reads re-derive from the
/// source, and every repair ticket is written back through
/// [`Store::repair`](dsv_delta::Store::repair). Every served payload is
/// compared byte-for-byte against the source; after the faulted stream a
/// clean full verification pass must agree exactly. `work_dir` receives
/// one pack-store directory per (fixture, rate); the caller owns cleanup.
pub fn faults_bench(opts: &ExperimentOptions, work_dir: &std::path::Path) -> FaultsBench {
    use dsv_core::baselines::min_storage_value;
    use dsv_core::engine::{Engine, SolveOptions};
    use dsv_core::executor::PlanExecutor;
    use dsv_core::problem::ProblemKind;
    use dsv_core::RepairStats;
    use dsv_delta::store::{CorpusContent, PackStore, VersionSource};
    use dsv_delta::{FaultPlan, FaultStore, MemStore, Store};
    use serde_json::Value;
    use std::collections::BTreeMap;

    // Same fixtures as the checkout benchmark: one text corpus with real
    // Myers deltas, one ER graph over sketch content.
    let mut fixtures: Vec<(String, VersionGraph, CorpusContent)> = Vec::new();
    {
        let c = corpus_with_content(
            CorpusName::Datasharing,
            opts.scale_for(CorpusName::Datasharing),
            opts.seed,
            true,
        );
        fixtures.push((
            "datasharing".to_string(),
            c.graph,
            c.content.expect("content retained"),
        ));
    }
    {
        let lc = corpus_with_content(
            CorpusName::LeetCodeAnimation,
            opts.scale_for(CorpusName::LeetCodeAnimation).min(0.1),
            opts.seed,
            true,
        );
        let sketches = lc.sketches().expect("sketch-mode corpus").to_vec();
        let g = erdos_renyi_from_sketches(&sketches, 0.3, opts.seed + 3);
        fixtures.push((
            "leetcode-er".to_string(),
            g,
            CorpusContent::Sketch { sketches },
        ));
    }

    let engine = Engine::with_default_solvers();
    let solve_opts = SolveOptions::default();
    let mut r = Report::new(
        "fault-injection",
        &[
            "fixture",
            "backend",
            "rate",
            "requests",
            "detected",
            "retries",
            "rederived",
            "unrepairable",
            "repairs_applied",
            "wrong_bytes",
            "served_ok",
            "verified_clean",
        ],
    );
    let mut rows_json = Vec::new();
    let mut agreement = true;
    let mut detected_at_max_rate = 0u64;

    // One serving pass over a faulted store: batches through
    // serve_healing, byte-comparing every served payload.
    #[allow(clippy::too_many_arguments)]
    fn serve_faulted<S: Store + Sync>(
        g: &VersionGraph,
        stored: &dsv_core::StoredPlan,
        store: &mut FaultStore<S>,
        content: &CorpusContent,
        expected: &[dsv_delta::store::codec::Payload],
        stream: &[u32],
    ) -> (RepairStats, usize, u64, u64, f64) {
        use std::time::Instant;
        let mut repair = RepairStats::default();
        let mut applied = 0usize;
        let mut wrong_bytes = 0u64;
        let mut served_ok = 0u64;
        let t0 = Instant::now();
        for batch in stream.chunks(CHECKOUT_BATCH) {
            let mut exec = PlanExecutor::new(store);
            let (out, n_applied) = exec
                .serve_healing(g, stored, batch, content)
                .expect("plan-shape valid serve");
            applied += n_applied;
            repair.detected += out.repair.detected;
            repair.retries += out.repair.retries;
            repair.rederived += out.repair.rederived;
            repair.unrepairable += out.repair.unrepairable;
            for (i, &v) in batch.iter().enumerate() {
                if let Ok(p) = &out.results[i] {
                    served_ok += 1;
                    if **p != expected[v as usize] {
                        wrong_bytes += 1;
                    }
                }
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        (repair, applied, wrong_bytes, served_ok, wall)
    }

    for (fi, (slug, g, content)) in fixtures.iter().enumerate() {
        let n = g.n();
        let expected: Vec<_> = (0..n as u32).map(|v| content.payload(v)).collect();
        let stream = zipf_stream(n, CHECKOUT_REQUESTS, 1.1, opts.seed + 11 + fi as u64);
        let smin = min_storage_value(g);
        let problem = ProblemKind::Msr {
            storage_budget: smin * 2,
        };
        let sol = engine
            .solve_with("LMG-All", g, problem, &solve_opts)
            .unwrap_or_else(|e| panic!("LMG-All on {slug}: {e}"));

        for &rate in &FAULT_RATES {
            let plan = FaultPlan::seeded(opts.seed ^ (rate * 1e4) as u64)
                .with_transient_get(rate)
                .with_permanent_get(rate)
                .with_bit_flip(rate);

            for backend in ["mem", "pack"] {
                let (repair, applied, wrong_bytes, served_ok, wall, verified_clean) = if backend
                    == "mem"
                {
                    let mut store = FaultStore::transparent(MemStore::new());
                    let stored = PlanExecutor::new(&mut store)
                        .ingest(g, &sol.plan, content)
                        .unwrap_or_else(|e| panic!("ingest {slug} (mem): {e}"));
                    store.set_plan(plan.clone());
                    let (repair, applied, wrong, ok, wall) =
                        serve_faulted(g, &stored, &mut store, content, &expected, &stream);
                    store.set_plan(FaultPlan::none());
                    let verified = PlanExecutor::new(&mut store)
                        .execute(g, &stored)
                        .map(|rep| rep.agreement())
                        .unwrap_or(false);
                    (repair, applied, wrong, ok, wall, verified)
                } else {
                    let dir = work_dir.join(format!("faults-{slug}-{}", (rate * 1e4) as u64));
                    let mut store =
                        FaultStore::transparent(PackStore::open(&dir).expect("open pack store"));
                    let stored = PlanExecutor::new(&mut store)
                        .ingest(g, &sol.plan, content)
                        .unwrap_or_else(|e| panic!("ingest {slug} (pack): {e}"));
                    store.inner_mut().flush().expect("flush pack");
                    store.set_plan(plan.clone());
                    let (repair, applied, wrong, ok, wall) =
                        serve_faulted(g, &stored, &mut store, content, &expected, &stream);
                    store.set_plan(FaultPlan::none());
                    let verified = PlanExecutor::new(&mut store)
                        .execute(g, &stored)
                        .map(|rep| rep.agreement())
                        .unwrap_or(false);
                    (repair, applied, wrong, ok, wall, verified)
                };

                let all_served = served_ok == stream.len() as u64;
                agreement &= wrong_bytes == 0
                    && repair.unrepairable == 0
                    && all_served
                    && repair.detected == repair.rederived
                    && verified_clean;
                if rate == 0.0 {
                    // A zero rate must inject nothing.
                    agreement &= repair.detected == 0 && repair.retries == 0;
                }
                if rate >= FAULT_RATES[FAULT_RATES.len() - 1] {
                    detected_at_max_rate += repair.detected;
                }

                r.push_row(vec![
                    slug.clone(),
                    backend.to_string(),
                    fmt_f(rate),
                    stream.len().to_string(),
                    repair.detected.to_string(),
                    repair.retries.to_string(),
                    repair.rederived.to_string(),
                    repair.unrepairable.to_string(),
                    applied.to_string(),
                    wrong_bytes.to_string(),
                    served_ok.to_string(),
                    verified_clean.to_string(),
                ]);
                let mut m = BTreeMap::new();
                m.insert("fixture".to_string(), Value::Str(slug.clone()));
                m.insert("backend".to_string(), Value::Str(backend.to_string()));
                m.insert("rate".to_string(), Value::Float(rate));
                m.insert("nodes".to_string(), Value::UInt(n as u64));
                m.insert("requests".to_string(), Value::UInt(stream.len() as u64));
                m.insert("batch".to_string(), Value::UInt(CHECKOUT_BATCH as u64));
                m.insert("detected".to_string(), Value::UInt(repair.detected));
                m.insert("retries".to_string(), Value::UInt(repair.retries));
                m.insert("rederived".to_string(), Value::UInt(repair.rederived));
                m.insert("unrepairable".to_string(), Value::UInt(repair.unrepairable));
                m.insert("repairs_applied".to_string(), Value::UInt(applied as u64));
                m.insert("wrong_bytes".to_string(), Value::UInt(wrong_bytes));
                m.insert("served_ok".to_string(), Value::UInt(served_ok));
                m.insert(
                    "serve_vps".to_string(),
                    Value::Float(stream.len() as f64 / wall.max(1e-9)),
                );
                m.insert("verified_clean".to_string(), Value::Bool(verified_clean));
                rows_json.push(Value::Map(m));
            }
        }
    }

    // The top rate must actually exercise the repair path, or the gate
    // is vacuous.
    agreement &= detected_at_max_rate > 0;

    r.note(format!(
        "checkout streams served through FaultStore at rates {FAULT_RATES:?} per object \
         (transient + permanent + bit-flip); all repairable faults healed from the source and \
         written back via Store::repair (agreement={agreement}, detected@1%={detected_at_max_rate})"
    ));

    let mut doc = BTreeMap::new();
    doc.insert(
        "experiment".to_string(),
        Value::Str("fault-injection".to_string()),
    );
    doc.insert("seed".to_string(), Value::UInt(opts.seed));
    doc.insert(
        "rates".to_string(),
        Value::Seq(FAULT_RATES.iter().map(|&x| Value::Float(x)).collect()),
    );
    doc.insert(
        "requests_per_cell".to_string(),
        Value::UInt(CHECKOUT_REQUESTS as u64),
    );
    doc.insert("batch".to_string(), Value::UInt(CHECKOUT_BATCH as u64));
    doc.insert(
        "detected_at_max_rate".to_string(),
        Value::UInt(detected_at_max_rate),
    );
    doc.insert("agreement".to_string(), Value::Bool(agreement));
    doc.insert("cells".to_string(), Value::Seq(rows_json));
    let json = serde_json::to_string(&Value::Map(doc)).expect("value tree serializes");

    FaultsBench {
        report: r,
        json,
        agreement,
    }
}

/// Section 5.3 extension experiment: DP-BTW (exact on bounded-width
/// graphs) against the tree-restricted DP and LMG-All on series-parallel
/// graphs — the class the paper singles out as "highly resembl[ing] the
/// version graphs we derive from real-world repositories". Not a paper
/// figure; it demonstrates the bounded-treewidth contribution end to end.
pub fn btw_report(opts: &ExperimentOptions) -> Report {
    use dsv_core::engine::{Engine, SolveOptions};
    use dsv_core::problem::ProblemKind;
    use dsv_core::tree::{extract_tree, msr_tree_exact};
    use dsv_vgraph::generators::{series_parallel, CostModel};
    use dsv_vgraph::NodeId;

    let engine = Engine::with_default_solvers();
    let solve_opts = SolveOptions::default();
    let mut r = Report::new(
        "btw-series-parallel",
        &["nodes", "budget", "DP-BTW", "tree-DP", "LMG-All"],
    );
    for ops in [6usize, 10, 14] {
        let g = series_parallel(ops, &CostModel::default(), opts.seed);
        let smin = dsv_core::baselines::min_storage_value(&g);
        let budget = smin * 2;
        let problem = ProblemKind::Msr {
            storage_budget: budget,
        };
        // DP-BTW is constructive exact: the solution's own costs are the
        // certified optimum. A ResourceLimit (state-count explosion) means
        // "no answer", not "infeasible": skip the row rather than print a
        // misleading `inf`.
        let btw_val = match engine.solve_with("DP-BTW", &g, problem, &solve_opts) {
            Ok(s) => Some(s.costs.total_retrieval),
            Err(dsv_core::engine::SolveError::ResourceLimit { .. }) => continue,
            Err(_) => None,
        };
        let tree_val = extract_tree(&g, NodeId(0))
            .map(|t| msr_tree_exact(&g, &t).best_under(budget).map(|(_, v)| v));
        let greedy = engine
            .solve_with("LMG-All", &g, problem, &solve_opts)
            .ok()
            .map(|s| s.costs.total_retrieval);
        r.push_row(vec![
            g.n().to_string(),
            budget.to_string(),
            btw_val
                .map(|v| v.to_string())
                .unwrap_or_else(|| "inf".into()),
            tree_val
                .flatten()
                .map(|v| v.to_string())
                .unwrap_or_else(|| "inf".into()),
            greedy
                .map(|v| v.to_string())
                .unwrap_or_else(|| "inf".into()),
        ]);
    }
    r.note("Extension (Table 3, DP-BTW row): the bounded-width DP is exact, so DP-BTW <= tree-DP <= / ~ LMG-All; the tree DP loses whenever a series-parallel shortcut edge matters.");
    r
}

/// Machine-readable DP-BTW benchmark, written by `repro` as
/// `BENCH_btw.json` (introduced with the constructive provenance-arena
/// DP): per instance the certificate value, the reconstructed plan's
/// retrieval (they must be equal — the CI gate), the retrieval of the old
/// heuristic witness (best of LMG-All / DP-MSR) for the
/// witness-vs-exact gap, DP wall time, and the peak decision-arena size.
#[derive(Clone, Debug)]
pub struct BtwBench {
    /// Human-readable rendering of the same data.
    pub report: Report,
    /// The JSON document.
    pub json: String,
    /// Whether on every instance the reconstructed plan validated, fit the
    /// budget, and realized the certificate exactly. The CI gate.
    pub agreement: bool,
}

/// Run the constructive DP-BTW on low-width instances (series-parallel
/// graphs, a long path, and the `datasharing` corpus) and compare the
/// certificate against the reconstructed plan and the pre-refactor
/// heuristic witness.
pub fn btw_bench(opts: &ExperimentOptions) -> BtwBench {
    use dsv_core::baselines::min_storage_value;
    use dsv_core::btw::{btw_msr, BtwConfig};
    use dsv_core::heuristics::lmg_all;
    use dsv_core::tree::{dp_msr_on_graph, DpMsrConfig};
    use dsv_vgraph::generators::{bidirectional_path, series_parallel, CostModel};
    use dsv_vgraph::NodeId;
    use serde_json::Value;
    use std::collections::BTreeMap;
    use std::time::Instant;

    let mut instances: Vec<(String, VersionGraph)> = vec![(
        "path-48".into(),
        bidirectional_path(48, &CostModel::default(), opts.seed),
    )];
    for ops in [6usize, 10, 14] {
        instances.push((
            format!("series-parallel-{ops}"),
            series_parallel(ops, &CostModel::default(), opts.seed),
        ));
    }
    instances.push((
        "datasharing".into(),
        corpus(
            CorpusName::Datasharing,
            opts.scale_for(CorpusName::Datasharing),
            opts.seed,
        )
        .graph,
    ));

    let mut r = Report::new(
        "btw-exact-bench",
        &[
            "instance",
            "n",
            "width",
            "budget",
            "certificate",
            "plan",
            "old_witness",
            "witness_gap",
            "dp_ms",
            "peak_states",
            "peak_arena",
        ],
    );
    let mut rows_json = Vec::new();
    let mut agreement = true;
    // Every benchmark instance is low-width by construction, so all of
    // them must complete: a skip means the exact solver lost coverage on a
    // graph it is meant to gate — recorded by name and counted as failure,
    // never silently dropped.
    let mut skipped: Vec<String> = Vec::new();
    for (name, g) in &instances {
        let budget = min_storage_value(g) * 2;
        let cfg = BtwConfig {
            storage_prune: Some(budget),
            ..Default::default()
        };
        let t0 = Instant::now();
        let completed = btw_msr(g, &cfg).and_then(|result| {
            let dp_ms = t0.elapsed().as_secs_f64() * 1e3;
            result
                .plan_under(g, budget)
                .map(|(plan, (_, plan_retrieval))| (result, plan, plan_retrieval, dp_ms))
        });
        let Some((result, plan, plan_retrieval, dp_ms)) = completed else {
            skipped.push(name.clone());
            continue;
        };
        let certificate = result.best_under(budget).unwrap_or(u64::MAX);
        let costs = plan.costs(g);
        let row_ok = plan.validate(g).is_ok()
            && costs.storage <= budget
            && costs.total_retrieval == certificate
            && plan_retrieval == certificate;
        agreement &= row_ok;
        // The pre-refactor witness: best of the plan-producing heuristics
        // at this budget (what `BtwSolver` used to return).
        let witness = [
            lmg_all(g, budget).map(|p| p.costs(g).total_retrieval),
            dp_msr_on_graph(g, NodeId(0), budget, &DpMsrConfig::default())
                .map(|(_, c)| c.total_retrieval),
        ]
        .into_iter()
        .flatten()
        .min();
        let gap = witness.map(|w| w.saturating_sub(certificate));
        r.push_row(vec![
            name.clone(),
            g.n().to_string(),
            result.width.to_string(),
            budget.to_string(),
            certificate.to_string(),
            plan_retrieval.to_string(),
            witness.map(|w| w.to_string()).unwrap_or_else(|| "-".into()),
            gap.map(|w| w.to_string()).unwrap_or_else(|| "-".into()),
            fmt_f(dp_ms),
            result.peak_states.to_string(),
            result.peak_arena.to_string(),
        ]);
        let mut m = BTreeMap::new();
        m.insert("instance".to_string(), Value::Str(name.clone()));
        m.insert("n".to_string(), Value::UInt(g.n() as u64));
        m.insert("width".to_string(), Value::UInt(result.width as u64));
        m.insert("budget".to_string(), Value::UInt(budget));
        m.insert("certificate".to_string(), Value::UInt(certificate));
        m.insert("plan_retrieval".to_string(), Value::UInt(plan_retrieval));
        if let Some(w) = witness {
            m.insert("old_witness_retrieval".to_string(), Value::UInt(w));
            m.insert(
                "witness_gap".to_string(),
                Value::UInt(w.saturating_sub(certificate)),
            );
        }
        m.insert("dp_ms".to_string(), Value::Float(dp_ms));
        m.insert(
            "peak_states".to_string(),
            Value::UInt(result.peak_states as u64),
        );
        m.insert(
            "peak_arena".to_string(),
            Value::UInt(result.peak_arena as u64),
        );
        m.insert("plan_equals_certificate".to_string(), Value::Bool(row_ok));
        rows_json.push(Value::Map(m));
    }
    agreement &= skipped.is_empty();
    r.note(format!(
        "constructive DP-BTW: reconstructed plan == certificate on every row \
         (agreement = {agreement}; skipped instances = {skipped:?}); witness_gap is \
         how much retrieval the old heuristic-witness solver left on the table; \
         peak_arena tracks provenance memory"
    ));

    let mut doc = BTreeMap::new();
    doc.insert(
        "experiment".to_string(),
        Value::Str("btw-exact-bench".to_string()),
    );
    doc.insert("seed".to_string(), Value::UInt(opts.seed));
    doc.insert("agreement".to_string(), Value::Bool(agreement));
    doc.insert(
        "skipped_instances".to_string(),
        Value::Seq(skipped.into_iter().map(Value::Str).collect()),
    );
    doc.insert("instances".to_string(), Value::Seq(rows_json));
    let json = serde_json::to_string(&Value::Map(doc)).expect("value tree serializes");

    BtwBench {
        report: r,
        json,
        agreement,
    }
}

/// Footnote 7: treewidth upper bounds of the corpora. The five estimations
/// are independent `O(n²)`-ish computations, so they run on scoped threads.
pub fn treewidth_report(opts: &ExperimentOptions) -> Report {
    let mut r = Report::new(
        "treewidth-of-corpora",
        &["dataset", "nodes", "treewidth_ub"],
    );
    let rows: Vec<(CorpusName, usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = CorpusName::ALL
            .into_iter()
            .map(|name| {
                scope.spawn(move || {
                    // Treewidth estimation is O(n^2)-ish; cap sizes.
                    let scale = opts.scale_for(name).min(800.0 / name.paper_nodes() as f64);
                    let c = corpus(name, scale, opts.seed);
                    let tw = dsv_treewidth::treewidth_upper_bound(&c.graph);
                    (name, c.graph.n(), tw)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("treewidth worker"))
            .collect()
    });
    for (name, n, tw) in rows {
        r.push_row(vec![name.as_str().into(), n.to_string(), tw.to_string()]);
    }
    r.note("Expected shape (paper footnote 7): natural version graphs have small treewidth (2-6) despite thousands of nodes.");
    r
}

/// Outcome of the service-under-overload experiment.
pub struct ServiceBench {
    /// Human-readable rendering of the same data.
    pub report: Report,
    /// The JSON document (throughput, latency percentiles, shed rate,
    /// degradation-tier histogram, fault/repair counters).
    pub json: String,
    /// The CI gate: queue depth stayed bounded, the overload burst shed
    /// requests instead of queueing without limit, every degradation
    /// tier answered, admitted requests met their deadline at p99, and
    /// zero wrong bytes were served under injected faults.
    pub agreement: bool,
    /// Served replies per second over the storm, for
    /// `--assert-throughput`.
    pub throughput_rps: f64,
}

/// Overload waves in the storm: each wave floods the bounded queue in
/// one unpaced burst, then drains before the next.
const SERVICE_STORM_WAVES: usize = 8;
/// Checkout batches fired per wave.
const SERVICE_STORM_BATCHES: usize = 64;
/// Versions per checkout batch in the storm.
const SERVICE_BATCH: usize = 8;
/// A `Solve` is interleaved into each wave every this many batches.
const SERVICE_SOLVE_EVERY: usize = 16;

/// The robustness gate for the versioning service: an open-loop Zipf
/// request storm against a [`VersioningService`](dsv_core::service::VersioningService)
/// over a fault-injected [`PackStore`](dsv_delta::PackStore).
///
/// The storm submits checkout batches (plus interleaved solves) faster
/// than the workers can drain them, so the bounded queue must shed with
/// typed `Overloaded` errors rather than queueing without limit; every
/// admitted request carries the default 500 ms deadline. After the storm
/// two probes exercise the degradation ladder on a fresh budget: a
/// 100 ms deadline (below the full-tier threshold) must answer from the
/// LMG-All heuristic, and a follow-up below the heuristic threshold must
/// answer from the warmed memo without computing. Served payloads are
/// byte-compared against the source throughout — the store injects 3%
/// transient + permanent + bit-flip faults, so the self-healing reader
/// must repair, never mis-serve. `work_dir` receives one pack-store
/// directory; the caller owns cleanup.
pub fn service_bench(opts: &ExperimentOptions, work_dir: &std::path::Path) -> ServiceBench {
    use dsv_core::baselines::min_storage_value;
    use dsv_core::problem::ProblemKind;
    use dsv_core::service::{
        Reply, Request, ServeTier, ServiceConfig, ServiceError, Ticket, VersioningService,
    };
    use dsv_delta::store::{PackStore, VersionSource};
    use dsv_delta::{FaultPlan, FaultStore, Store};
    use serde_json::Value;
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    // Fixture: the text corpus with real Myers deltas; the retained
    // content is both the ground truth for byte comparison and the
    // redundant copy the healing reader re-derives from. Floored at 2x
    // paper size (58 versions): the overload/fault assertions need a
    // real object population even under a small `--scale`.
    let c = corpus_with_content(
        CorpusName::Datasharing,
        opts.scale_for(CorpusName::Datasharing).max(2.0),
        opts.seed,
        true,
    );
    let graph = Arc::new(c.graph);
    let content = Arc::new(c.content.expect("content retained"));
    let n = graph.n();
    let expected: Vec<dsv_delta::store::codec::Payload> =
        (0..n as u32).map(|v| content.payload(v)).collect();
    let smin = min_storage_value(&graph);
    let budget = smin * 2;

    let deadline = Duration::from_millis(500);
    let cfg = ServiceConfig {
        queue_capacity: 32,
        default_deadline: deadline,
        ..ServiceConfig::default()
    };
    let queue_capacity = cfg.queue_capacity;
    let full_tier_min = cfg.full_tier_min;
    let heuristic_tier_min = cfg.heuristic_tier_min;
    let store = FaultStore::transparent(
        PackStore::open(work_dir.join("service-pack")).expect("open pack store"),
    );
    let svc = VersioningService::with_config(store, cfg);

    // Plan + commit through the service itself (generous deadline).
    let generous = Duration::from_secs(120);
    let Reply::Solved { solution, .. } = svc
        .submit_with_deadline(
            Request::Solve {
                graph: graph.clone(),
                problem: ProblemKind::Msr {
                    storage_budget: budget,
                },
            },
            generous,
        )
        .expect("admitted")
        .wait()
        .expect("solves")
    else {
        panic!("expected Solved");
    };
    let Reply::Committed { plan, .. } = svc
        .submit_with_deadline(
            Request::Commit {
                graph: graph.clone(),
                plan: solution.plan.clone(),
                source: content.clone() as Arc<dyn VersionSource + Send + Sync>,
            },
            generous,
        )
        .expect("admitted")
        .wait()
        .expect("commits")
    else {
        panic!("expected Committed");
    };
    svc.with_store_mut(|s| s.inner_mut().flush())
        .expect("flush");

    // Arm 3% transient + permanent + bit-flip faults for the storm
    // (deterministic per object id, so the marked subset faults on
    // every fetch).
    svc.with_store_mut(|s| {
        s.set_plan(
            FaultPlan::seeded(opts.seed ^ 0x5E41)
                .with_transient_get(0.03)
                .with_permanent_get(0.03)
                .with_bit_flip(0.03),
        )
    });

    // Open-loop storm in waves: each wave submits one unpaced burst
    // (shedding is expected once the queue fills), then drains its
    // admitted tickets — measuring latency, byte-comparing every served
    // payload — before the next burst, so the healing read path sees
    // coverage across many distinct retrieval chains.
    struct InFlight {
        at: Instant,
        versions: Option<Vec<u32>>,
        ticket: Ticket,
    }
    let stream = zipf_stream(
        n,
        SERVICE_STORM_WAVES * SERVICE_STORM_BATCHES * SERVICE_BATCH,
        1.1,
        opts.seed + 29,
    );
    let mut shed = 0u64;
    let mut min_hint = Duration::MAX;
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut served = 0u64;
    let mut cancelled = 0u64;
    let mut wrong_bytes = 0u64;
    let mut versions_served = 0u64;
    let mut tiers: BTreeMap<&'static str, u64> =
        [("full", 0), ("heuristic", 0), ("cached", 0)].into();
    let storm_start = Instant::now();
    for wave in stream.chunks(SERVICE_STORM_BATCHES * SERVICE_BATCH) {
        let mut in_flight: Vec<InFlight> = Vec::new();
        for (i, batch) in wave.chunks(SERVICE_BATCH).enumerate() {
            let mut push = |req: Request, versions: Option<Vec<u32>>| match svc.submit(req) {
                Ok(ticket) => in_flight.push(InFlight {
                    at: Instant::now(),
                    versions,
                    ticket,
                }),
                Err(ServiceError::Overloaded {
                    queue_depth,
                    capacity,
                    retry_after_hint,
                }) => {
                    assert!(queue_depth >= capacity, "shed implies a full queue");
                    min_hint = min_hint.min(retry_after_hint);
                    shed += 1;
                }
                Err(other) => panic!("unexpected admission error: {other}"),
            };
            push(
                Request::Checkout {
                    plan,
                    versions: batch.to_vec(),
                },
                Some(batch.to_vec()),
            );
            if i % SERVICE_SOLVE_EVERY == 0 {
                push(
                    Request::Solve {
                        graph: graph.clone(),
                        problem: ProblemKind::Msr {
                            storage_budget: budget,
                        },
                    },
                    None,
                );
            }
        }
        for flight in in_flight {
            match flight.ticket.wait() {
                Ok(reply) => {
                    latencies_ms.push(flight.at.elapsed().as_secs_f64() * 1e3);
                    served += 1;
                    match reply {
                        Reply::CheckedOut { payloads, .. } => {
                            let versions = flight.versions.expect("checkout kept its batch");
                            for (v, got) in versions.iter().zip(&payloads) {
                                match got {
                                    Ok(p) if **p == expected[*v as usize] => versions_served += 1,
                                    _ => wrong_bytes += 1,
                                }
                            }
                        }
                        Reply::Solved { tier, .. } => *tiers.entry(tier.label()).or_default() += 1,
                        Reply::Committed { .. } | Reply::Absorbed { .. } => {}
                    }
                }
                Err(ServiceError::Cancelled { .. }) => cancelled += 1,
                Err(other) => panic!("unexpected reply error: {other}"),
            }
        }
    }
    let submitted = served + cancelled + shed;
    let storm_wall = storm_start.elapsed().as_secs_f64();
    let throughput_rps = served as f64 / storm_wall.max(1e-9);
    let p50 = percentile(&mut latencies_ms, 0.50);
    let p99 = percentile(&mut latencies_ms, 0.99);

    // Degradation probes on an idle service, fresh budget so the warm
    // memo cannot answer the first one. Below the full-tier threshold
    // the heuristic must answer; below the heuristic threshold the
    // now-warmed memo must answer without computing.
    let probe_budget = budget + 1;
    let probe = |limit: Duration| -> ServeTier {
        let Reply::Solved { tier, .. } = svc
            .submit_with_deadline(
                Request::Solve {
                    graph: graph.clone(),
                    problem: ProblemKind::Msr {
                        storage_budget: probe_budget,
                    },
                },
                limit,
            )
            .expect("idle service admits")
            .wait()
            .expect("probe solves")
        else {
            panic!("expected Solved");
        };
        tier
    };
    let heuristic_tier = probe(full_tier_min.mul_f64(0.5).max(heuristic_tier_min * 2));
    let cached_tier = probe(heuristic_tier_min.mul_f64(0.5));
    *tiers.entry(heuristic_tier.label()).or_default() += 1;
    *tiers.entry(cached_tier.label()).or_default() += 1;

    // Disarm faults; a clean full checkout must verify byte-identical
    // with nothing left to detect or repair.
    svc.with_store_mut(|s| s.set_plan(FaultPlan::none()));
    let all: Vec<u32> = (0..n as u32).collect();
    let Reply::CheckedOut {
        payloads, repair, ..
    } = svc
        .submit_with_deadline(
            Request::Checkout {
                plan,
                versions: all.clone(),
            },
            generous,
        )
        .expect("admitted")
        .wait()
        .expect("clean serve")
    else {
        panic!("expected CheckedOut");
    };
    let verified_clean = repair.detected == 0
        && payloads.len() == n
        && all
            .iter()
            .zip(&payloads)
            .all(|(v, got)| matches!(got, Ok(p) if **p == expected[*v as usize]));

    let stats = svc.stats();
    let agreement = stats.queue_high_water <= queue_capacity as u64
        && shed > 0
        && shed == stats.shed
        && heuristic_tier == ServeTier::Heuristic
        && cached_tier == ServeTier::Cached
        && wrong_bytes == 0
        && p99 < deadline.as_secs_f64() * 1e3
        && stats.faults_detected > 0
        && stats.repairs_applied > 0
        && verified_clean
        && svc.queue_depth() == 0;

    let mut r = Report::new(
        "service-overload",
        &[
            "metric",
            "submitted",
            "served",
            "shed",
            "cancelled",
            "p50_ms",
            "p99_ms",
            "rps",
            "tiers",
        ],
    );
    r.push_row(vec![
        "storm".to_string(),
        submitted.to_string(),
        served.to_string(),
        shed.to_string(),
        cancelled.to_string(),
        fmt_f(p50),
        fmt_f(p99),
        fmt_f(throughput_rps),
        format!(
            "full={} heuristic={} cached={}",
            tiers["full"], tiers["heuristic"], tiers["cached"]
        ),
    ]);
    r.note(format!(
        "open-loop Zipf storm over a bounded queue (capacity {queue_capacity}, high water {}) \
         with 3% injected faults: {versions_served} versions byte-verified, {wrong_bytes} wrong, \
         {} faults detected / {} repairs applied, clean pass verified={verified_clean} \
         (agreement={agreement})",
        stats.queue_high_water, stats.faults_detected, stats.repairs_applied
    ));

    let mut doc = BTreeMap::new();
    doc.insert("experiment".to_string(), Value::Str("service".to_string()));
    doc.insert("seed".to_string(), Value::UInt(opts.seed));
    doc.insert("nodes".to_string(), Value::UInt(n as u64));
    doc.insert("workers".to_string(), Value::UInt(stats.workers as u64));
    doc.insert(
        "queue_capacity".to_string(),
        Value::UInt(queue_capacity as u64),
    );
    doc.insert(
        "deadline_ms".to_string(),
        Value::Float(deadline.as_secs_f64() * 1e3),
    );
    doc.insert("submitted".to_string(), Value::UInt(submitted));
    doc.insert("served".to_string(), Value::UInt(served));
    doc.insert("shed".to_string(), Value::UInt(shed));
    doc.insert("cancelled".to_string(), Value::UInt(cancelled));
    doc.insert(
        "expired_in_queue".to_string(),
        Value::UInt(stats.expired_in_queue),
    );
    doc.insert(
        "queue_high_water".to_string(),
        Value::UInt(stats.queue_high_water),
    );
    doc.insert(
        "min_retry_after_hint_ms".to_string(),
        Value::Float(if min_hint == Duration::MAX {
            0.0
        } else {
            min_hint.as_secs_f64() * 1e3
        }),
    );
    doc.insert("throughput_rps".to_string(), Value::Float(throughput_rps));
    doc.insert("p50_ms".to_string(), Value::Float(p50));
    doc.insert("p99_ms".to_string(), Value::Float(p99));
    let mut tier_map = BTreeMap::new();
    for (k, v) in &tiers {
        tier_map.insert(k.to_string(), Value::UInt(*v));
    }
    doc.insert("tiers".to_string(), Value::Map(tier_map));
    doc.insert("versions_served".to_string(), Value::UInt(versions_served));
    doc.insert("wrong_bytes".to_string(), Value::UInt(wrong_bytes));
    doc.insert(
        "faults_detected".to_string(),
        Value::UInt(stats.faults_detected),
    );
    doc.insert(
        "repairs_applied".to_string(),
        Value::UInt(stats.repairs_applied),
    );
    doc.insert("verified_clean".to_string(), Value::Bool(verified_clean));
    doc.insert("agreement".to_string(), Value::Bool(agreement));
    let json = serde_json::to_string(&Value::Map(doc)).expect("value tree serializes");

    svc.shutdown();
    ServiceBench {
        report: r,
        json,
        agreement,
        throughput_rps,
    }
}

/// Machine-readable online-absorption benchmark, written by `repro` as
/// `BENCH_online.json` (introduced with the online planner).
#[derive(Clone, Debug)]
pub struct OnlineBench {
    /// Human-readable rendering of the same data.
    pub report: Report,
    /// The JSON document (per-size commit-stream walls, migration bytes,
    /// regret, and the speedups).
    pub json: String,
    /// Whether the declared regret bound held and every sampled
    /// verification passed — the run fails when false.
    pub agreement: bool,
    /// Online speedup on the n = 4000 stream (the acceptance gate):
    /// mean (from-scratch solve + fresh re-ingest) wall over mean
    /// (absorb + migrate) wall per commit.
    pub speedup_4k: f64,
}

/// Commits per stream in [`online_bench`].
pub const ONLINE_BENCH_COMMITS: usize = 256;

/// Synthetic chunk-manifest source for the online bench: version `v` owns
/// six rolling chunks shared with its neighbours plus two private ones
/// (private ids live in a disjoint namespace so sizes never conflict).
/// `count` trims the view so the executor's exact-count check matches the
/// graph as it grows.
struct RollingManifests {
    manifests: std::sync::Arc<Vec<Vec<(u64, u32)>>>,
    count: usize,
}

impl RollingManifests {
    fn manifest(v: u64) -> Vec<(u64, u32)> {
        let mut m: Vec<(u64, u32)> = (v..v + 6).map(|c| (c + 1, 64 + (c % 7) as u32)).collect();
        m.push((1_000_000 + 2 * v + 1, 128));
        m.push((1_000_000 + 2 * v + 2, 96));
        m
    }

    fn build(total: usize) -> std::sync::Arc<Vec<Vec<(u64, u32)>>> {
        std::sync::Arc::new((0..total as u64).map(Self::manifest).collect())
    }

    fn covering(all: &std::sync::Arc<Vec<Vec<(u64, u32)>>>, count: usize) -> Self {
        assert!(count <= all.len());
        RollingManifests {
            manifests: all.clone(),
            count,
        }
    }
}

impl dsv_delta::store::VersionSource for RollingManifests {
    fn version_count(&self) -> usize {
        self.count
    }
    fn payload(&self, v: u32) -> dsv_delta::store::codec::Payload {
        dsv_delta::store::codec::Payload::Sketch(self.manifests[v as usize].clone())
    }
    fn delta(&self, src: u32, dst: u32) -> Vec<u8> {
        let (a, b) = (&self.manifests[src as usize], &self.manifests[dst as usize]);
        let removed: Vec<u64> = a
            .iter()
            .filter(|(id, _)| !b.iter().any(|(bid, _)| bid == id))
            .map(|&(id, _)| id)
            .collect();
        let added: Vec<(u64, u32)> = b
            .iter()
            .filter(|(id, _)| !a.iter().any(|(aid, _)| aid == id))
            .copied()
            .collect();
        dsv_delta::store::codec::encode_sketch_delta(&removed, &added)
    }
}

/// The online-absorption benchmark: a 256-commit mutation stream (new
/// version + 2 bidirectional deltas each, a retirement every 16th) against
/// a live [`OnlinePlanner`](dsv_core::online::OnlinePlanner) and a
/// persistent pack store, where every commit is absorbed incrementally and
/// the plan **migrated** (only changed objects written) — versus the
/// from-scratch baseline (full LMG-All solve + fresh ingest), sampled at
/// five points along the stream to keep the baseline affordable.
///
/// In-run gates: at every sample the regret bound
/// ([`ONLINE_REGRET_BOUND`](dsv_core::online::ONLINE_REGRET_BOUND)) must
/// hold against the from-scratch objective and the migrated store must
/// hash-verify every version; either failing flips `agreement` and fails
/// the `repro` run. Like `lmg`, the sizes are fixed: n = 4000 always runs
/// (the cross-PR gate), n = 16000 is opt-in via `--max-nodes 16000`.
pub fn online_bench(opts: &ExperimentOptions, work_dir: &std::path::Path) -> OnlineBench {
    use dsv_core::baselines::min_storage_value;
    use dsv_core::executor::PlanExecutor;
    use dsv_core::heuristics::lmg_all::lmg_all_with_stats;
    use dsv_core::online::{OnlinePlanner, ONLINE_REGRET_BOUND};
    use dsv_delta::store::{PackStore, Store};
    use dsv_vgraph::generators::{erdos_renyi_bidirectional, CostModel};
    use dsv_vgraph::NodeId;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use serde_json::Value;
    use std::collections::BTreeMap;
    use std::time::Instant;

    let mut sizes = vec![4_000usize];
    if opts.max_nodes >= 16_000 {
        sizes.push(16_000);
    }
    let commits = ONLINE_BENCH_COMMITS;

    let mut r = Report::new(
        "online-absorb",
        &[
            "n",
            "commits",
            "online_ms",
            "scratch_ms",
            "speedup",
            "mig_kb/commit",
            "reingest_kb",
            "regret_max",
        ],
    );
    let mut rows_json = Vec::new();
    let mut agreement = true;
    let mut speedup_4k = 0.0f64;
    for &n in &sizes {
        let p_edge = 4.0 / n as f64;
        let g = erdos_renyi_bidirectional(n, p_edge, &CostModel::default(), opts.seed);
        let budget = min_storage_value(&g) * 2;
        let manifests = RollingManifests::build(n + commits);

        let mut planner = OnlinePlanner::new(g, budget).expect("budget 2x smin is feasible");
        let dir = work_dir.join(format!("online-{n}"));
        let mut store = PackStore::open(&dir).expect("open pack store");
        let mut exec = PlanExecutor::new(&mut store);
        let mut stored = exec
            .ingest(
                planner.graph(),
                planner.plan(),
                &RollingManifests::covering(&manifests, n),
            )
            .expect("initial ingest");

        let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x00a1_1ce5);
        let mut online_total_ms = 0.0f64;
        let mut online_max_ms = 0.0f64;
        let mut migration_bytes = 0u64;
        let mut fallback_resolves = 0u64;
        let mut regret_max = 0.0f64;
        let mut scratch_total_ms = 0.0f64;
        let mut scratch_samples = 0u64;
        let mut reingest_bytes = 0u64;
        // Sample the from-scratch baseline sparsely: a full solve + fresh
        // ingest per commit would dominate the run without changing the
        // per-commit number.
        let sample_every = commits / 5;
        for c in 0..commits {
            let t0 = Instant::now();
            if c % 16 == 15 {
                // Retire a random still-live version (the stream keeps far
                // fewer retirees than versions, so a few tries suffice).
                let live_n = planner.graph().n() as u32;
                for _ in 0..64 {
                    let cand = NodeId(rng.gen_range(0..live_n));
                    if !planner.graph().is_retired(cand) {
                        planner.retire_version(cand);
                        break;
                    }
                }
            }
            let prev_n = planner.graph().n() as u32;
            let v = planner.add_version(5_000 + rng.gen_range(0..10_000u64));
            for _ in 0..2 {
                let mut u = NodeId(rng.gen_range(0..prev_n));
                while planner.graph().is_retired(u) {
                    u = NodeId(rng.gen_range(0..prev_n));
                }
                let (s, rr) = (rng.gen_range(50..500u64), rng.gen_range(50..500u64));
                planner.add_edge(u, v, s, rr);
                planner.add_edge(v, u, s + 10, rr + 10);
            }
            if !planner.within_budget() {
                // The degradation ladder's next rung; feasibility is
                // guaranteed here (budget 2x smin with adds-only churn).
                fallback_resolves += 1;
                if !planner.resolve_scratch() {
                    agreement = false;
                }
            }
            let nn = planner.graph().n();
            let source = RollingManifests::covering(&manifests, nn);
            let (migrated, mstats) = exec
                .migrate(planner.graph(), &stored, planner.plan(), &source)
                .expect("migrate");
            stored = migrated;
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            online_total_ms += wall_ms;
            online_max_ms = online_max_ms.max(wall_ms);
            migration_bytes += mstats.bytes_moved;

            if c % sample_every == sample_every - 1 {
                // From-scratch baseline: what this commit would have cost
                // without the online path.
                let t1 = Instant::now();
                let (splan, scosts) =
                    lmg_all_with_stats(planner.graph(), budget).expect("scratch feasible");
                let mut fresh_store = dsv_delta::store::MemStore::new();
                let fresh = PlanExecutor::new(&mut fresh_store)
                    .ingest(planner.graph(), &splan, &source)
                    .expect("fresh ingest");
                scratch_total_ms += t1.elapsed().as_secs_f64() * 1e3;
                scratch_samples += 1;
                reingest_bytes = fresh.ingest_bytes;
                let regret =
                    planner.total_retrieval() as f64 / scosts.total_retrieval.max(1) as f64;
                regret_max = regret_max.max(regret);
                if regret > ONLINE_REGRET_BOUND {
                    agreement = false;
                }
                // The migrated store still hash-verifies every version.
                let report = exec.execute(planner.graph(), &stored).expect("verify");
                if report.verified != nn {
                    agreement = false;
                }
            }
        }
        // Reclaim everything the migrations superseded; the live plan must
        // survive compaction.
        exec.store().gc().expect("gc");
        let report = exec
            .execute(planner.graph(), &stored)
            .expect("verify after gc");
        if report.verified != planner.graph().n() {
            agreement = false;
        }

        let online_mean_ms = online_total_ms / commits as f64;
        let scratch_mean_ms = scratch_total_ms / scratch_samples.max(1) as f64;
        let speedup = scratch_mean_ms / online_mean_ms.max(1e-9);
        if n == 4_000 {
            speedup_4k = speedup;
        }
        let ostats = planner.stats();
        r.push_row(vec![
            n.to_string(),
            commits.to_string(),
            fmt_f(online_mean_ms),
            fmt_f(scratch_mean_ms),
            fmt_f(speedup),
            fmt_f(migration_bytes as f64 / commits as f64 / 1024.0),
            fmt_f(reingest_bytes as f64 / 1024.0),
            fmt_f(regret_max),
        ]);
        let mut m = BTreeMap::new();
        m.insert("n".to_string(), Value::UInt(n as u64));
        m.insert("commits".to_string(), Value::UInt(commits as u64));
        m.insert("online_mean_ms".to_string(), Value::Float(online_mean_ms));
        m.insert("online_max_ms".to_string(), Value::Float(online_max_ms));
        m.insert("scratch_mean_ms".to_string(), Value::Float(scratch_mean_ms));
        m.insert("speedup".to_string(), Value::Float(speedup));
        m.insert(
            "migration_bytes_total".to_string(),
            Value::UInt(migration_bytes),
        );
        m.insert("reingest_bytes".to_string(), Value::UInt(reingest_bytes));
        m.insert("regret_max".to_string(), Value::Float(regret_max));
        m.insert(
            "fallback_resolves".to_string(),
            Value::UInt(fallback_resolves),
        );
        m.insert("absorbed".to_string(), Value::UInt(ostats.absorbed as u64));
        m.insert("moves".to_string(), Value::UInt(ostats.moves as u64));
        m.insert("rescored".to_string(), Value::UInt(ostats.rescored as u64));
        m.insert("repairs".to_string(), Value::UInt(ostats.repairs as u64));
        m.insert(
            "scratch_solves".to_string(),
            Value::UInt(ostats.scratch_solves as u64),
        );
        rows_json.push(Value::Map(m));
    }
    r.note(format!(
        "{commits}-commit mutation streams absorbed online + migrated vs from-scratch \
         solve + re-ingest (sampled); regret bound {ONLINE_REGRET_BOUND} asserted in-run; \
         n=4k speedup {speedup_4k:.2}x (agreement={agreement})"
    ));

    let mut doc = BTreeMap::new();
    doc.insert("experiment".to_string(), Value::Str("online".to_string()));
    doc.insert("seed".to_string(), Value::UInt(opts.seed));
    doc.insert("commits".to_string(), Value::UInt(commits as u64));
    doc.insert(
        "regret_bound".to_string(),
        Value::Float(ONLINE_REGRET_BOUND),
    );
    doc.insert("agreement".to_string(), Value::Bool(agreement));
    doc.insert("speedup_4k".to_string(), Value::Float(speedup_4k));
    doc.insert("sizes".to_string(), Value::Seq(rows_json));
    let json = serde_json::to_string(&Value::Map(doc)).expect("value tree serializes");

    OnlineBench {
        report: r,
        json,
        agreement,
        speedup_4k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExperimentOptions {
        ExperimentOptions {
            scale: 0.02,
            seed: 7,
            points: 3,
            opt_node_limit: 0, // skip ILP in smoke tests
            ..Default::default()
        }
    }

    #[test]
    fn table4_smoke() {
        let r = table4(&ExperimentOptions {
            scale: 0.05,
            ..tiny_opts()
        });
        assert_eq!(r.rows.len(), 5 + 3);
    }

    #[test]
    fn thm1_shows_unbounded_gap() {
        let r = thm1();
        assert_eq!(r.rows.len(), 4);
        // The LMG/OPT ratio grows with c/b.
        let ratios: Vec<f64> = r
            .rows
            .iter()
            .map(|row| {
                row[4].replace("e", "E").parse::<f64>().unwrap_or_else(|_| {
                    // fmt_f may emit scientific notation like 1.234e4.
                    row[4].parse::<f64>().expect("ratio parses")
                })
            })
            .collect();
        assert!(ratios.windows(2).all(|w| w[1] > w[0]));
        assert!(*ratios.last().expect("non-empty") > 100.0);
    }

    #[test]
    fn fig13_smoke() {
        let opts = ExperimentOptions {
            scale: 0.01,
            points: 3,
            ..tiny_opts()
        };
        let reports = fig13(&opts);
        assert_eq!(reports.len(), 2);
        for r in reports {
            assert_eq!(r.rows.len(), 2 * 3);
        }
    }

    #[test]
    fn btw_bench_smoke_certificate_equals_plan() {
        // Small scale keeps the datasharing instance tiny; the gate must
        // hold on every row it does produce.
        let bench = btw_bench(&ExperimentOptions {
            scale: 0.2,
            ..tiny_opts()
        });
        assert!(bench.agreement, "plan must realize the certificate");
        assert!(!bench.report.rows.is_empty());
        assert!(bench.json.contains("\"agreement\":true"));
    }
}
