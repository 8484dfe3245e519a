//! Experiment runners: one per paper artifact, plus the gated benches of
//! the solve → store → serve path. [`EXPERIMENTS`] is the registry `repro`
//! runs.

use crate::report::{row, Bench, Report};
use crate::sweep::{bmr_budgets, bmr_sweep, msr_budgets, msr_sweep, opt_sweep, SweepPoint};
use dsv_core::cancel::CancelToken;
use dsv_delta::corpus::{corpus, corpus_with_content, stats, CorpusName};
use dsv_delta::store::CorpusContent;
use dsv_delta::transforms::{erdos_renyi_from_sketches, random_compression};
use dsv_vgraph::VersionGraph;
use serde::Serialize as _;
use serde_json::Value;
use std::path::Path;
use std::time::Instant;

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
    /// Node-count ceiling for the DP-BTW OPT curves of Figs. 10/11
    /// (paper: only `datasharing`); 0 turns OPT off.
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

/// A registered experiment: its name, what it reproduces or gates, and
/// its runner, which gets the options and a scratch directory for
/// on-disk stores.
pub type Experiment = (
    &'static str,
    &'static str,
    fn(&ExperimentOptions, &Path) -> Bench,
);

/// Every experiment `repro` can run, in `--experiment all` order.
pub const EXPERIMENTS: &[Experiment] = &[
    (
        "table4",
        "Table 4: dataset overview (nodes, edges, avg costs, merges)",
        |o, _| Bench::tables(vec![table4(o)]),
    ),
    (
        "fig10",
        "Fig. 10: MSR on natural corpora (LMG / LMG-All / DP-MSR, OPT when small)",
        |o, _| fig10(o),
    ),
    (
        "fig11",
        "Fig. 11: MSR on randomly-compressed natural corpora",
        |o, _| fig11(o),
    ),
    (
        "fig12",
        "Fig. 12: MSR on compressed Erdős–Rényi graphs (LeetCode)",
        |o, _| Bench::tables(fig12(o)),
    ),
    (
        "fig13",
        "Fig. 13: BMR on natural corpora (MP vs DP-BMR)",
        |o, _| Bench::tables(fig13(o)),
    ),
    (
        "thm1",
        "Theorem 1 adversarial chain (LMG/OPT unbounded)",
        |_, _| Bench::tables(vec![thm1()]),
    ),
    (
        "btw",
        "DP-BTW: reconstructed plan == certificate, vs tree-DP / LMG-All",
        |o, _| btw_bench(o),
    ),
    ("lmg", "incremental vs from-scratch LMG-All", |o, _| {
        lmg_bench(o)
    }),
    (
        "shard",
        "sharded hierarchical solving vs whole-graph LMG-All at scale",
        |o, _| shard_bench(o),
    ),
    (
        "store",
        "on-disk store round-trip: predicted vs measured plan costs",
        store_bench,
    ),
    (
        "checkout",
        "batched+cached checkout vs one-at-a-time reconstruction",
        checkout_bench,
    ),
    (
        "faults",
        "self-healing reads: checkout streams under injected corruption",
        faults_bench,
    ),
    (
        "service",
        "versioning service under overload: shed / degrade / heal",
        service_bench,
    ),
    (
        "online",
        "online absorption + live migration vs from-scratch solve + re-ingest",
        online_bench,
    ),
    (
        "treewidth",
        "treewidth upper bounds of the corpora (footnote 7)",
        |o, _| Bench::tables(vec![treewidth_report(o)]),
    ),
    (
        "substrates",
        "substrate timings: arborescence, Dijkstra, Myers, treewidth, hash, corpora, DP-MSR variants",
        |_, _| substrates_bench(),
    ),
];

/// Run `f` `iters` times: the best wall time in milliseconds (so one cold
/// start cannot masquerade as a regression) and the last result.
fn best_of<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        last = Some(std::hint::black_box(f()));
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best_ms, last.expect("at least one iteration"))
}

/// An objective cell: the value, or `inf` when there is none.
fn or_inf(v: Option<u64>) -> Value {
    v.map_or_else(|| "inf".to_value(), Value::UInt)
}

fn sweep_report(name: &str, points: &[SweepPoint]) -> Report {
    let mut r = Report::new(name, &["algorithm", "budget", "objective", "time_ms"]);
    for p in points {
        r.push_row(vec![
            p.algorithm.to_value(),
            p.budget.to_value(),
            or_inf(p.objective),
            p.time_ms.to_value(),
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
        r.push_row(row![
            s.name,
            s.nodes,
            s.edges,
            s.avg_node_storage,
            s.avg_edge_storage,
            c.merge_count,
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
            r.push_row(row![
                s.name,
                s.nodes,
                s.edges,
                s.avg_node_storage,
                s.avg_edge_storage,
                "-",
            ]);
        }
    }
    r.note("Expected shape (paper Table 4): tree-like bidirectional graphs; avg delta cost 1-3 orders of magnitude below avg version size; ER deltas ~10x natural deltas.");
    r
}

/// Figure 10: MSR on natural graphs (LMG / LMG-All / DP-MSR, OPT on the
/// smallest corpus).
pub fn fig10(opts: &ExperimentOptions) -> Bench {
    let graphs = [
        CorpusName::Datasharing,
        CorpusName::Styleguide,
        CorpusName::Icu996,
        CorpusName::FreeCodeCamp,
    ]
    .map(|name| (name, corpus(name, opts.scale_for(name), opts.seed).graph));
    msr_figure(
        "fig10",
        "fig10-msr-natural",
        graphs,
        opts,
        "Expected shape (paper Fig. 10): DP-MSR <= LMG-All <= LMG across the sweep; DP-MSR ~matches OPT on datasharing.",
    )
}

/// Figure 11: MSR on randomly-compressed natural graphs.
pub fn fig11(opts: &ExperimentOptions) -> Bench {
    let graphs = [
        CorpusName::Datasharing,
        CorpusName::Styleguide,
        CorpusName::Icu996,
    ]
    .map(|name| {
        let c = corpus(name, opts.scale_for(name), opts.seed);
        (name, random_compression(&c.graph, opts.seed + 7))
    });
    msr_figure(
        "fig11",
        "fig11-msr-compressed",
        graphs,
        opts,
        "Expected shape (paper Fig. 11): DP-MSR still ahead but the margin over LMG-All shrinks (the extracted tree loses information once storage and retrieval decouple).",
    )
}

/// The body of Figs. 10 and 11: per corpus graph, the heuristic sweeps
/// plus DP-BTW's proven OPT when the graph has at most
/// [`ExperimentOptions::opt_node_limit`] nodes.
///
/// Gates: `<fig>.opt_le_heuristics` — wherever OPT exists it is no worse
/// than LMG, LMG-All and DP-MSR at that budget; and
/// `<fig>.opt_at_every_datasharing_budget` — when OPT was requested on
/// datasharing (the paper's OPT corpus), every budget has it.
fn msr_figure(
    fig: &str,
    table: &str,
    graphs: impl IntoIterator<Item = (CorpusName, VersionGraph)>,
    opts: &ExperimentOptions,
    note: &str,
) -> Bench {
    let le_gate = format!("{fig}.opt_le_heuristics");
    let every_gate = format!("{fig}.opt_at_every_datasharing_budget");
    let mut bench = Bench::default();
    bench.check(&le_gate, true);
    bench.check(&every_gate, true);
    for (name, g) in graphs {
        let budgets = msr_budgets(&g, opts.points);
        let mut points = msr_sweep(&g, &budgets);
        let want_opt = g.n() <= opts.opt_node_limit;
        if want_opt {
            points.extend(opt_sweep(&g, &budgets));
        }
        for &b in &budgets {
            let at = |algorithm: &str| {
                points
                    .iter()
                    .find(|p| p.algorithm == algorithm && p.budget == b)
                    .and_then(|p| p.objective)
            };
            let opt = at("OPT");
            if let Some(opt) = opt {
                let beats = ["LMG", "LMG-All", "DP-MSR"]
                    .into_iter()
                    .filter_map(at)
                    .all(|h| opt <= h);
                bench.check(&le_gate, beats);
            }
            if want_opt && name == CorpusName::Datasharing {
                bench.check(&every_gate, opt.is_some());
            }
        }
        let mut r = sweep_report(&format!("{table}-{}", name.as_str()), &points);
        r.note(note);
        bench.tables.push(r);
    }
    bench
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
        r.push_row(row![
            ratio,
            lmg_obj,
            all_obj,
            opt,
            lmg_obj as f64 / opt.max(1) as f64,
        ]);
    }
    r.note("Expected shape (paper Thm. 1): LMG/OPT grows linearly with c/b — the greedy ratio is unbounded.");
    r
}

/// Iterations per timing mode in [`lmg_bench`] (best is reported).
pub const LMG_BENCH_ITERS: usize = 3;

/// Floor of the incremental-vs-scratch LMG-All speedup at n = 4000. The
/// one-entry-per-candidate heap measures ~120–150× on a 2-vCPU VM; a loop
/// that pops and re-scores outdated heap copies measured ~19×.
pub const LMG_SPEEDUP_FLOOR: f64 = 40.0;

/// Time incremental vs from-scratch LMG-All on Erdős–Rényi graphs of
/// increasing size (average total degree ≈ 8, budget = 2× the minimum
/// storage). Asserts that both loops return **byte-identical plans and
/// stats** on every instance; the reported speedup is therefore a
/// like-for-like measurement of the incremental machinery alone.
///
/// Unlike the corpus experiments, the benchmark sizes are **fixed**
/// (exempt from `--scale`/`--max-nodes` capping): n = 1k and 4k always
/// run — the 4k row is the gated one — and n = 16k is opt-in via
/// `--max-nodes 16000` because the from-scratch oracle costs
/// `O(moves · (n + m))` there.
pub fn lmg_bench(opts: &ExperimentOptions) -> Bench {
    use dsv_core::baselines::min_storage_value;
    use dsv_core::heuristics::lmg_all::lmg_all_with_stats;
    use dsv_core::heuristics::oracle::lmg_all_scratch;
    use dsv_vgraph::generators::{erdos_renyi_bidirectional, CostModel};

    let mut sizes = vec![1_000usize, 4_000];
    if opts.max_nodes >= 16_000 {
        sizes.push(16_000);
    }

    let mut r = Report::new(
        "lmg-bench",
        &["n", "m", "moves", "scratch_ms", "incremental_ms", "speedup"],
    );
    let mut speedup_4k = 0.0f64;
    for &n in &sizes {
        // Average total degree ~8 regardless of n, so the candidate set
        // grows linearly while density stays corpus-like.
        let p = 4.0 / n as f64;
        let g = erdos_renyi_bidirectional(n, p, &CostModel::default(), opts.seed);
        let budget = min_storage_value(&g) * 2;

        let (scratch_ms, scratch) =
            best_of(LMG_BENCH_ITERS, || lmg_all_scratch(&g, budget, |_, _| {}));
        let (incremental_ms, incremental) =
            best_of(LMG_BENCH_ITERS, || lmg_all_with_stats(&g, budget));
        let (scratch, incremental) = (
            scratch.expect("budget 2x smin is feasible"),
            incremental.expect("budget 2x smin is feasible"),
        );
        assert_eq!(
            scratch, incremental,
            "incremental LMG-All must return a byte-identical plan (n = {n})"
        );
        let speedup = scratch_ms / incremental_ms.max(1e-9);
        if n == 4_000 {
            speedup_4k = speedup;
        }
        r.push_row(row![
            n,
            g.m(),
            incremental.1.moves,
            scratch_ms,
            incremental_ms,
            speedup
        ]);
    }
    r.note(format!(
        "incremental vs from-scratch LMG-All on ER graphs (avg degree ~8, budget 2x smin), \
         best of {LMG_BENCH_ITERS}; plans byte-identical (asserted)"
    ));

    let mut bench = Bench::tables(vec![r]);
    bench.floor("lmg.speedup_n4000", speedup_4k, LMG_SPEEDUP_FLOOR);
    bench
}

/// Iterations per row of [`substrates_bench`] (best is reported).
pub const SUBSTRATES_ITERS: usize = 5;

/// Time the substrates every experiment leans on, one row each: minimum
/// arborescences (Gabow–Tarjan vs naive Chu–Liu), Dijkstra, Myers diff,
/// the treewidth upper bound, the object hash on the read path's two
/// shapes (one-shot over a resident object, `PackStore::get_ref`'s
/// verify; streamed over a text payload, checkout's `hash_payload`),
/// the read path's decode and delta apply on that payload,
/// corpus generation across the content models, and the Section 6.2
/// DP-MSR design variants (γ grid, k bucketing, Pareto caps; their
/// quality side is `tests/ablation.rs`).
///
/// Instances, sizes and seeds are **fixed** (exempt from `--scale`,
/// `--max-nodes` and `--seed`). Two gates: the fast and naive
/// arborescences have equal total weight on every instance where both are
/// timed, and the text payload round-trips (decode∘encode is the
/// identity, the streamed hash equals the one-shot hash, the applied
/// delta equals the source's destination payload).
pub fn substrates_bench() -> Bench {
    use dsv_core::baselines::{extended_edges, min_storage_value};
    use dsv_core::tree::extract_tree;
    use dsv_core::tree::msr_engine::{run_tree_msr, GammaGrid, TreeDpConfig};
    use dsv_delta::store::codec::{apply_delta, decode_payload, encode_payload, hash_payload};
    use dsv_delta::store::{hash_object, ObjectKind, VersionSource};
    use dsv_vgraph::arborescence::{min_arborescence, naive_min_arborescence};
    use dsv_vgraph::dijkstra::dijkstra;
    use dsv_vgraph::generators::{erdos_renyi_bidirectional, random_tree, CostModel};
    use dsv_vgraph::NodeId;

    let mut r = Report::new("substrates", &["group", "case", "n", "best_ms"]);
    let mut agrees = true;

    for n in [50usize, 200, 1_000] {
        let g = erdos_renyi_bidirectional(n, 0.1, &CostModel::default(), 7);
        let edges = extended_edges(&g);
        let (ms, fast) = best_of(SUBSTRATES_ITERS, || min_arborescence(n + 1, n, &edges));
        r.push_row(row!["arborescence", "gabow-tarjan", n, ms]);
        if n <= 200 {
            let (ms, naive) = best_of(SUBSTRATES_ITERS, || {
                naive_min_arborescence(n + 1, n, &edges)
            });
            r.push_row(row!["arborescence", "naive-chu-liu", n, ms]);
            agrees &= fast.map(|a| a.total_weight) == naive.map(|a| a.total_weight);
        }
    }

    for n in [1_000usize, 10_000] {
        let g = random_tree(n, &CostModel::default(), 9);
        let (ms, _) = best_of(SUBSTRATES_ITERS, || dijkstra(&g, NodeId(0)));
        r.push_row(row!["dijkstra", "tree", n, ms]);
    }

    for (case, n, edits) in [
        ("near-identical", 5_000usize, 5usize),
        ("divergent", 1_000, 300),
    ] {
        let a: Vec<u32> = (0..n as u32).collect();
        let mut b = a.clone();
        for i in 0..edits {
            b[(i * 977) % n] = u32::MAX - i as u32;
        }
        let (ms, _) = best_of(SUBSTRATES_ITERS, || dsv_delta::myers::diff(&a, &b));
        r.push_row(row!["myers", case, n, ms]);
    }

    let g = corpus(CorpusName::Styleguide, 0.2, 3).graph;
    let (ms, _) = best_of(SUBSTRATES_ITERS, || {
        dsv_treewidth::treewidth_upper_bound(&g)
    });
    r.push_row(row!["treewidth", "styleguide-ub", g.n(), ms]);

    let styleguide = corpus_with_content(CorpusName::Styleguide, 0.1, 3, true);
    let content = styleguide.content.expect("corpus keeps its content");
    let payload = content.payload(0);
    let bytes = encode_payload(&payload);
    let (ms, _) = best_of(SUBSTRATES_ITERS, || hash_object(ObjectKind::Chunk, &bytes));
    r.push_row(row!["object-hash", "one-shot", bytes.len(), ms]);
    let (ms, _) = best_of(SUBSTRATES_ITERS, || hash_payload(&payload));
    r.push_row(row!["object-hash", "text-payload", bytes.len(), ms]);

    // The read path's other two stages on the same payload: decoding the
    // root (from a borrowed slice, so the one copy is timed) and
    // replaying one of its out-edges' deltas.
    let (ms, decoded) = best_of(SUBSTRATES_ITERS, || decode_payload(&bytes[..]));
    let decoded = decoded.expect("the encoding decodes");
    r.push_row(row!["read-path", "decode-payload", bytes.len(), ms]);
    let edge = styleguide
        .graph
        .edge(styleguide.graph.out_edges(NodeId(0))[0]);
    let delta = content.delta(0, edge.dst.0);
    let (ms, applied) = best_of(SUBSTRATES_ITERS, || apply_delta(&decoded, &delta));
    let (applied, _) = applied.expect("the edge's delta applies");
    r.push_row(row!["read-path", "apply-delta", delta.len(), ms]);
    let roundtrip = decoded == payload
        && encode_payload(&decoded) == bytes
        && hash_payload(&decoded) == hash_object(ObjectKind::Chunk, &bytes)
        && applied == content.payload(edge.dst.0);

    for (name, scale) in [
        (CorpusName::Datasharing, 1.0),   // text mode, real Myers diffs
        (CorpusName::Styleguide, 0.15),   // text mode, larger documents
        (CorpusName::Icu996, 0.05),       // sketch mode, large chunks
        (CorpusName::FreeCodeCamp, 0.01), // sketch mode, many small chunks
    ] {
        let (ms, c) = best_of(SUBSTRATES_ITERS, || corpus(name, scale, 42));
        r.push_row(row!["corpus", name.as_str(), c.graph.n(), ms]);
    }

    let g = corpus(CorpusName::Styleguide, 0.4, 2024).graph;
    let t = extract_tree(&g, NodeId(0)).expect("connected");
    let base = TreeDpConfig::heuristic(&g, Some(min_storage_value(&g) * 3));
    type Edit = fn(&mut TreeDpConfig);
    let variants: [(&str, Edit); 6] = [
        ("baseline", |_| {}),
        ("gamma-fine", |c| {
            if let GammaGrid::Linear(s) = &mut c.gamma {
                *s = (*s / 4).max(1);
            }
        }),
        ("gamma-coarse", |c| {
            if let GammaGrid::Linear(s) = &mut c.gamma {
                *s *= 4;
            }
        }),
        ("k-exact", |c| c.k_exact_limit = u32::MAX),
        ("pareto-4", |c| c.pareto_cap = 4),
        ("pareto-48", |c| c.pareto_cap = 48),
    ];
    for (case, edit) in variants {
        let mut cfg = base.clone();
        edit(&mut cfg);
        let (ms, _) = best_of(SUBSTRATES_ITERS, || {
            run_tree_msr(&g, &t, cfg.clone(), &CancelToken::inert()).map(|dp| dp.frontier())
        });
        r.push_row(row!["dp-msr", case, g.n(), ms]);
    }

    r.note(format!(
        "best of {SUBSTRATES_ITERS}; n = nodes (arborescence: ER p = 0.1), sequence length \
         (myers), encoded payload bytes (object-hash, decode-payload) or encoded delta bytes \
         (apply-delta, one out-edge of the same styleguide version)"
    ));
    let mut bench = Bench::tables(vec![r]);
    bench.check("substrates.arborescence_agrees", agrees);
    bench.check("substrates.text_payload_roundtrip", roundtrip);
    bench
}

/// Iterations per timing mode in [`shard_bench`] (best is reported).
pub const SHARD_BENCH_ITERS: usize = 2;

/// Floor of the sharded-vs-whole-graph speedup on the n = 64k forest.
pub const SHARD_SPEEDUP_FLOOR: f64 = 2.0;

/// Floor of the median per-pair `sharded_ms / engine_ms` on the n = 64k
/// forest: dispatching through
/// [`Engine::solve`](dsv_core::engine::Engine::solve) may cost at most a
/// quarter more than calling the sharded pipeline directly.
pub const SHARD_ENGINE_EFFICIENCY_FLOOR: f64 = 0.8;

/// Floor of the median per-pair `engine_ms / warm_ms` on the n = 64k
/// forest: a solve on options that already solved the graph reuses the
/// budget-independent prep and continues the last LMG-All runs, so it
/// must beat a cold solve by more than noise.
pub const SHARD_WARM_SPEEDUP_FLOOR: f64 = 1.15;

/// Alternating pairs behind each ratio gate of [`shard_bench`]; a gate
/// reads the median per-pair ratio, so one pair slowed by a busy machine
/// cannot fail it and one lucky pair cannot pass it. Pair `i`'s warm solve
/// is at the cold budget plus `(i + 1)/64` of it, after one warm-up solve
/// at the cold budget: every warm budget lies above the last, where
/// LMG-All has at least as much room to move, so the warm timing is not
/// flattered by easier instances.
const SHARD_GATE_PAIRS: usize = 5;

/// Time whole-graph LMG-All vs the sharded hierarchical pipeline on large
/// multi-cluster forests (`shard_forest`: clusters merged into one
/// component by cross links, so oversized components are actually cut).
/// At the 4,096-node shard size every cut group is above
/// [`SEPARATOR_EXACT_LIMIT`](dsv_treewidth::separator::SEPARATOR_EXACT_LIMIT),
/// so [`split_component`](dsv_treewidth::split_component) bisects each in
/// BFS order; the tree-decomposition separator runs only at small shard
/// sizes (`tests/shard.rs`). Budget = half the materialize-all cost.
/// Asserts that the sharded plan is **byte-identical across pool widths 1
/// and 4** and that its objective stays within the declared regret bound
/// of the whole-graph plan, so the reported speedup is a like-for-like
/// measurement under the quality gate. The engine path is timed too, on
/// forests the default engine shards, and gated against the direct call;
/// per-stage timings
/// ([`ShardStats`](dsv_core::engine::ShardStats)) name the stage that
/// moved. `engine_ms` is cold (fresh [`SolveOptions`] per call);
/// `warm_ms` reuses one [`SolveOptions`] across rising budgets the way the
/// service reuses its per-graph memo, so the partition, sub-graphs and
/// per-shard arborescences are built once and each shard continues its
/// last LMG-All run; each warm plan is asserted equal to a cold
/// [`sharded_msr`] at its budget. The two ratio gates read the median of
/// [`SHARD_GATE_PAIRS`] alternating pairs (table `shard-gate-pairs`).
///
/// [`SolveOptions`]: dsv_core::engine::SolveOptions
/// [`sharded_msr`]: dsv_core::engine::sharded_msr
///
/// The benchmark sizes are **fixed** (exempt from `--scale`/`--max-nodes`
/// capping): a 16k warm-up and the gated 64k forest.
pub fn shard_bench(opts: &ExperimentOptions) -> Bench {
    use dsv_core::engine::sharded::{sharded_msr, ShardConfig, SHARD_REGRET_BOUND};
    use dsv_core::engine::{Engine, SolveOptions};
    use dsv_core::heuristics::lmg_all::lmg_all_with_stats;
    use dsv_core::plan::StoragePlan;
    use dsv_core::problem::ProblemKind;
    use dsv_vgraph::generators::{shard_forest, CostModel};

    // (clusters, nodes per cluster, cross links): 16 × 1024 = 16k warm-up,
    // 32 × 2048 = 64k gate.
    let shapes = [(16usize, 1_024usize, 32usize), (32, 2_048, 64)];
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
            "cut_edges",
            "coarse_deltas",
            "whole_ms",
            "sharded_ms",
            "engine_ms",
            "warm_ms",
            "warm_partition_ms",
            "speedup",
            "regret",
            "partition_ms",
            "shards_ms",
            "stitch_ms",
        ],
    );
    let mut pair_table = Report::new(
        "shard-gate-pairs",
        &[
            "pair",
            "first",
            "direct_ms",
            "engine_ms",
            "warm_budget",
            "warm_ms",
            "efficiency",
            "warm_speedup",
            "warm_partition_ms",
            "warm_shards_ms",
            "warm_stitch_ms",
            "moves",
            "resumed_moves",
            "run_bytes",
        ],
    );
    let engine = Engine::with_default_solvers();
    let mut speedup_64k = 0.0f64;
    let mut efficiency_64k = 0.0f64;
    let mut warm_speedup_64k = 0.0f64;
    for &(clusters, per, links) in &shapes {
        let g = shard_forest(clusters, per, links, &CostModel::default(), opts.seed);
        let n = g.n();
        let budget = StoragePlan::materialize_all(&g).storage_cost(&g) / 2;

        let (whole_ms, whole) = best_of(SHARD_BENCH_ITERS, || lmg_all_with_stats(&g, budget));
        let whole = whole.expect("half materialize-all is feasible");
        let (sharded_ms, sharded) = best_of(SHARD_BENCH_ITERS, || {
            sharded_msr(&g, budget, &cfg, &CancelToken::inert())
        });
        let (sharded_plan, stats) = sharded.expect("half materialize-all is shard-feasible");
        // The default engine shards only graphs at or above its threshold;
        // below it, dispatch goes to the whole-graph solvers (DP-MSR runs
        // about a minute on the 16k forest), which this bench does not time.
        // Each pair times a direct cold `sharded_msr`, a cold engine solve
        // (fresh options) and a warm one (options that already solved the
        // graph, as the service reuses its per-graph memo), in an order
        // that flips from pair to pair, so a change in machine speed
        // during the run reaches both sides of each ratio alike.
        let timed = (n >= ShardConfig::default().min_graph_nodes).then(|| {
            let msr = |storage_budget| ProblemKind::Msr { storage_budget };
            let warm_opts = SolveOptions::default();
            engine
                .solve(&g, msr(budget), &warm_opts)
                .expect("half materialize-all is feasible");
            let mut pairs = Vec::with_capacity(SHARD_GATE_PAIRS);
            for i in 0..SHARD_GATE_PAIRS {
                let b = budget + (i as u64 + 1) * (budget / 64);
                let direct =
                    || best_of(1, || sharded_msr(&g, budget, &cfg, &CancelToken::inert())).0;
                let cold = || {
                    let (ms, solution) = best_of(1, || {
                        engine.solve(&g, msr(budget), &SolveOptions::default())
                    });
                    assert_eq!(
                        solution.expect("half materialize-all is feasible").plan,
                        sharded_plan,
                        "Engine::solve must return the sharded plan (n = {n})"
                    );
                    ms
                };
                let warm = || best_of(1, || engine.solve(&g, msr(b), &warm_opts));
                let (direct_ms, cold_ms, (warm_ms, warm)) = if i % 2 == 0 {
                    let (d, c) = (direct(), cold());
                    (d, c, warm())
                } else {
                    let (w, c) = (warm(), cold());
                    (direct(), c, w)
                };
                let warm = warm.expect("feasible");
                let (cold, _) = sharded_msr(&g, b, &cfg, &CancelToken::inert()).expect("feasible");
                assert_eq!(
                    warm.plan, cold,
                    "a warm Engine::solve must return the cold sharded plan (n = {n}, budget {b})"
                );
                let stages = warm.meta.shard.expect("a sharded solve reports its stages");
                pair_table.push_row(row![
                    i,
                    if i % 2 == 0 { "direct" } else { "warm" },
                    direct_ms,
                    cold_ms,
                    b,
                    warm_ms,
                    direct_ms / cold_ms.max(1e-9),
                    cold_ms / warm_ms.max(1e-9),
                    stages.partition.as_secs_f64() * 1e3,
                    stages.shard_solves.as_secs_f64() * 1e3,
                    stages.stitch.as_secs_f64() * 1e3,
                    stages.moves,
                    stages.resumed_moves,
                    stages.run_bytes,
                ]);
                pairs.push((direct_ms, cold_ms, warm_ms, stages.partition));
            }
            pairs
        });
        // Medians over the pairs: of each side, and of each per-pair ratio.
        let median = |mut xs: Vec<f64>| percentile(&mut xs, 0.5);
        let engine_ms = timed
            .as_ref()
            .map(|p| median(p.iter().map(|t| t.1).collect()));
        let warm_ms = timed
            .as_ref()
            .map(|p| median(p.iter().map(|t| t.2).collect()));
        let warm_partition_ms = timed.as_ref().map(|p| {
            p.iter()
                .map(|t| t.3.as_secs_f64() * 1e3)
                .fold(f64::INFINITY, f64::min)
        });

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
            let pairs = timed.as_ref().expect("64k is sharded");
            efficiency_64k = median(pairs.iter().map(|t| t.0 / t.1.max(1e-9)).collect());
            warm_speedup_64k = median(pairs.iter().map(|t| t.1 / t.2.max(1e-9)).collect());
        }
        r.push_row(row![
            n,
            g.m(),
            stats.shards,
            stats.cut_edges,
            stats.coarse_deltas,
            whole_ms,
            sharded_ms,
            engine_ms,
            warm_ms,
            warm_partition_ms,
            speedup,
            regret,
            stats.partition.as_secs_f64() * 1e3,
            stats.shard_solves.as_secs_f64() * 1e3,
            stats.stitch.as_secs_f64() * 1e3,
        ]);
    }
    r.note(format!(
        "whole-graph LMG-All vs sharded pipeline on shard_forest graphs \
         (budget = materialize-all / 2), best of {SHARD_BENCH_ITERS}; plans \
         thread-count independent (asserted), regret bound {SHARD_REGRET_BOUND}x (asserted); \
         engine_ms = median cold Engine::solve with the default solvers on forests it \
         shards, plan equal to the sharded one (asserted); warm_ms = median Engine::solve \
         on options that already solved the graph, at rising budgets, plans equal to cold \
         sharded_msr (asserted); both over the {SHARD_GATE_PAIRS} pairs of shard-gate-pairs; \
         warm_partition_ms = least partition stage of those warm solves, from their \
         SolverMeta; other stage columns from the last sharded run"
    ));
    pair_table.note(
        "n = 64k forest; per pair, in the order `first` names (direct = sharded_msr, \
         cold engine, warm engine; warm = the reverse): direct_ms = cold sharded_msr, \
         engine_ms = cold Engine::solve, warm_ms = Engine::solve at warm_budget on the \
         options of the previous pair; gates shard.engine_dispatch_efficiency and \
         shard.warm_speedup_n64k read the medians of efficiency and warm_speedup; \
         warm_*_ms = the warm solve's stages; resumed_moves = the warm solve's moves taken from the previous solve's LMG-All \
         runs, run_bytes = bytes of the runs it kept for the next",
    );

    let mut bench = Bench::tables(vec![r, pair_table]);
    bench.floor("shard.speedup_n64k", speedup_64k, SHARD_SPEEDUP_FLOOR);
    bench.floor(
        "shard.engine_dispatch_efficiency",
        efficiency_64k,
        SHARD_ENGINE_EFFICIENCY_FLOOR,
    );
    bench.floor(
        "shard.warm_speedup_n64k",
        warm_speedup_64k,
        SHARD_WARM_SPEEDUP_FLOOR,
    );
    bench
}

/// A served corpus: slug, version graph, and the content of its versions.
type Fixture = (String, VersionGraph, CorpusContent);

/// The datasharing text corpus (real Myers deltas) at the configured
/// scale: the text fixture of the checkout and faults benches.
const SERVED_TEXT: &[(&str, CorpusName, f64)] =
    &[("datasharing", CorpusName::Datasharing, f64::INFINITY)];

/// Serving fixtures: each listed corpus with its content, its scale capped
/// at the given value, plus one Erdős–Rényi graph over LeetCode sketch
/// content (chunk-manifest deltas between *unnatural* version pairs).
fn serving_fixtures(opts: &ExperimentOptions, corpora: &[(&str, CorpusName, f64)]) -> Vec<Fixture> {
    let mut fixtures: Vec<Fixture> = corpora
        .iter()
        .map(|&(slug, name, cap)| {
            let c = corpus_with_content(name, opts.scale_for(name).min(cap), opts.seed, true);
            (
                slug.to_string(),
                c.graph,
                c.content.expect("content retained"),
            )
        })
        .collect();
    let lc = corpus_with_content(
        CorpusName::LeetCodeAnimation,
        opts.scale_for(CorpusName::LeetCodeAnimation).min(0.1),
        opts.seed,
        true,
    );
    let sketches = lc.sketches().expect("sketch-mode corpus").to_vec();
    let g = erdos_renyi_from_sketches(&sketches, 0.3, opts.seed + 3);
    fixtures.push(("leetcode-er".into(), g, CorpusContent::Sketch { sketches }));
    fixtures
}

/// Round-trip solver plans (LMG / LMG-All / DP-MSR) through the persistent
/// [`PackStore`](dsv_delta::PackStore) on a set of corpus fixtures: ingest
/// each plan's objects, reconstruct every version from the stored bytes,
/// hash-verify all of them, and compare measured storage/retrieval costs
/// against the plans' predictions — they must agree **exactly**, because
/// the store's codecs price bytes with the same models that priced the
/// graph edges. Then releases every plan and gates that GC returns the
/// store to empty, and finishes with the flush-cost gate
/// `store.flush_bytes_flat`: a flush writes bytes in proportion to what
/// changed, not to the objects the store holds.
///
/// `work_dir` receives one store directory per fixture; the caller owns
/// cleanup (the `repro` binary removes it after writing results).
pub fn store_bench(opts: &ExperimentOptions, work_dir: &Path) -> Bench {
    use dsv_core::baselines::min_storage_value;
    use dsv_core::engine::{Engine, SolveOptions};
    use dsv_core::executor::PlanExecutor;
    use dsv_core::problem::ProblemKind;
    use dsv_delta::store::{PackStore, Store};

    const SOLVERS: [&str; 3] = ["LMG", "LMG-All", "DP-MSR"];

    // Two text corpora (real Myers deltas), one sketch corpus, and the ER
    // graph; scales are capped so the round-trip stays CI-sized even at
    // --scale 1.
    let fixtures = serving_fixtures(
        opts,
        &[
            ("datasharing", CorpusName::Datasharing, 1.0),
            ("styleguide", CorpusName::Styleguide, 0.12),
            ("icu996", CorpusName::Icu996, 0.02),
        ],
    );

    let engine = Engine::with_default_solvers();
    let solve_opts = SolveOptions::default();
    let mut bench = Bench::default();
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
            "bytes_reconstructed",
            "ingest_ms",
            "execute_ms",
        ],
    );
    let mut gc_table = Report::new(
        "store-gc",
        &[
            "fixture",
            "referenced_objects",
            "live_objects",
            "live_bytes",
            "gc_collected",
            "gc_reclaimed_bytes",
            "gc_clean",
        ],
    );

    for (slug, g, content) in &fixtures {
        let problem = ProblemKind::Msr {
            storage_budget: min_storage_value(g) * 2,
        };
        let mut store =
            PackStore::open(work_dir.join(format!("pack-{slug}"))).expect("open pack store");
        let mut stored_plans = Vec::new();
        for solver in SOLVERS {
            let sol = engine
                .solve_with(solver, g, problem, &solve_opts)
                .unwrap_or_else(|e| panic!("{solver} on {slug}: {e}"));
            let mut exec = PlanExecutor::new(&mut store);
            let (stored, report) = exec
                .run(g, &sol.plan, content)
                .unwrap_or_else(|e| panic!("{solver} on {slug}: {e}"));
            let all_verified = report.verified == g.n();
            bench.check("store.measured_equals_predicted", report.agreement());
            bench.check("store.every_version_verified", all_verified);
            r.push_row(row![
                slug,
                solver,
                g.n(),
                sol.costs.storage,
                report.measured.storage,
                sol.costs.total_retrieval,
                report.measured.total_retrieval,
                report.verified,
                report.agreement() && all_verified,
                report.bytes_per_sec() / 1e6,
                report.bytes_reconstructed,
                stored.ingest_wall.as_secs_f64() * 1e3,
                report.execute_wall.as_secs_f64() * 1e3,
            ]);
            stored_plans.push(stored);
        }

        // Content addressing across plans: the three plans usually share
        // most delta objects, so the store holds far fewer objects than
        // the plans reference in total.
        let referenced: usize = stored_plans.iter().map(|s| s.objects.len()).sum();
        let (live_objects, live_bytes) = (store.object_count(), store.stored_bytes());
        // Retire everything: GC must reclaim the store down to empty.
        {
            let mut exec = PlanExecutor::new(&mut store);
            for stored in &stored_plans {
                exec.release(stored).expect("release stored plan");
            }
        }
        let gc = store.gc().expect("gc");
        let clean = store.object_count() == 0;
        bench.check("store.gc_drains_store", clean);
        gc_table.push_row(row![
            slug,
            referenced,
            live_objects,
            live_bytes,
            gc.collected_objects,
            gc.reclaimed_bytes,
            clean,
        ]);
    }

    r.note(
        "solver plans executed against the on-disk PackStore; measured costs are re-priced \
         from the stored bytes and must equal the predictions exactly",
    );

    // A flush costs what changed, not what the store holds: the bytes a
    // flush writes at 4x the objects stay within 1.5x of those at 1x.
    let mut flush_table = Report::new(
        "store-flush",
        &["objects", "flushes", "checkpoints", "bytes_per_flush"],
    );
    let per_flush: Vec<f64> = [FLUSH_BASE_OBJECTS, 4 * FLUSH_BASE_OBJECTS]
        .into_iter()
        .map(|n| {
            let (bytes, checkpoints) = flush_bytes(&work_dir.join(format!("flush-{n}")), n);
            flush_table.push_row(row![n, FLUSH_ROUNDS, checkpoints, bytes]);
            bytes
        })
        .collect();
    flush_table.note(format!(
        "each flush journals {FLUSH_CHANGE} retains; bytes are pack growth plus the index \
         bytes of every checkpoint, amortized over {FLUSH_ROUNDS} flushes"
    ));
    bench.floor(
        "store.flush_bytes_flat",
        per_flush[0] / per_flush[1],
        STORE_FLUSH_FLAT_FLOOR,
    );
    bench.tables = vec![r, gc_table, flush_table];
    bench
}

/// Floor of bytes per flush on a store of 128 objects over bytes per
/// flush at 4x as many objects: at 4x the objects a flush may write at
/// most 1.5x the bytes.
pub const STORE_FLUSH_FLAT_FLOOR: f64 = 1.0 / 1.5;

/// Objects in the smaller store of the flush-cost gate.
const FLUSH_BASE_OBJECTS: usize = 128;
/// Flushes the flush-cost gate amortizes over.
const FLUSH_ROUNDS: usize = 256;
/// Retains each of those flushes makes durable: the fixed-size change.
const FLUSH_CHANGE: usize = 4;

/// Bytes one flush writes on a store of `n` packed objects, amortized
/// over [`FLUSH_ROUNDS`] flushes of [`FLUSH_CHANGE`] retains each, and the
/// number of checkpoints among them. Bytes are the pack's growth plus
/// the index bytes of every checkpoint; a checkpoint always rewrites the
/// covered length, so a changed index file marks one.
fn flush_bytes(dir: &Path, n: usize) -> (f64, usize) {
    use dsv_delta::store::{ObjectKind, PackStore, Store};
    let mut store = PackStore::open(dir).expect("open pack store");
    let ids: Vec<_> = (0..n)
        .map(|i| {
            store
                .put(ObjectKind::Chunk, format!("flush object {i}").as_bytes())
                .expect("put")
        })
        .collect();
    store.flush().expect("flush");
    let idx = dir.join("pack.idx");
    let read_idx = || std::fs::read(&idx).unwrap_or_default();
    let mut last = read_idx();
    let start_len = store.pack_file_len();
    let (mut index_bytes, mut checkpoints) = (0, 0);
    for round in 0..FLUSH_ROUNDS {
        for k in 0..FLUSH_CHANGE {
            store
                .retain(ids[(round * FLUSH_CHANGE + k) % n])
                .expect("retain");
        }
        store.flush().expect("flush");
        let now = read_idx();
        if now != last {
            checkpoints += 1;
            index_bytes += now.len() as u64;
            last = now;
        }
    }
    let written = store.pack_file_len() - start_len + index_bytes;
    (written as f64 / FLUSH_ROUNDS as f64, checkpoints)
}

/// Floor of the aggregate batched-vs-one-at-a-time checkout speedup on
/// the skewed (Zipf) workloads.
pub const CHECKOUT_SPEEDUP_FLOOR: f64 = 2.0;

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
    /// Decoded root bytes resident in the cache after the batched pass.
    cache_bytes: u64,
    hydrated_batched: usize,
    /// Content hashes per request of the one-at-a-time pass, which
    /// starts from an empty verification memo.
    cold_hashed_per_version: f64,
    /// The same for a repeat of that pass, once every chain has verified.
    warm_hashed_per_version: f64,
    identical: bool,
}

/// Serve one request stream three times — one version at a time with no
/// cache, from a stored plan whose verification memo starts empty; the
/// same again, now with every chain verified; then in batches through a
/// shared root cache ([`CheckoutCache`](dsv_core::CheckoutCache)) —
/// asserting every payload byte-identical to the source content each
/// time.
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
    // A clone starts with an empty memo, so the first pass hashes every
    // chain it reaches whatever earlier workloads served.
    let stored = &stored.clone();

    // One at a time, no cache: each checkout walks the full retrieval
    // chain of its single version.
    let reader = Checkout::new(store);
    let mut one_at_a_time = |lat: &mut Vec<f64>| {
        let mut hashed = 0;
        let t0 = Instant::now();
        for &v in stream {
            let t = Instant::now();
            let out = reader
                .serve(g, stored, &[v])
                .expect("one-at-a-time checkout");
            lat.push(t.elapsed().as_secs_f64() * 1e3);
            hashed += out.stats.hashed;
            identical &= matches!(&out.results[0], Ok(p) if **p == expected[v as usize]);
        }
        (
            t0.elapsed().as_secs_f64(),
            hashed as f64 / stream.len() as f64,
        )
    };
    let mut lat_one = Vec::with_capacity(stream.len());
    let (oneshot_wall, cold_hashed_per_version) = one_at_a_time(&mut lat_one);
    let (_, warm_hashed_per_version) = one_at_a_time(&mut Vec::new());

    // Batched through a root cache sized to a quarter of the corpus
    // content: shared chain prefixes hydrate once per batch, and roots
    // are read once and served from the cache across batches.
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
        let out = reader.serve(g, stored, batch).expect("batched checkout");
        let per_version_ms = t.elapsed().as_secs_f64() * 1e3 / batch.len() as f64;
        hydrated_batched += out.stats.hydrated;
        for (served, &v) in out.results.iter().zip(batch) {
            identical &= matches!(served, Ok(p) if **p == expected[v as usize]);
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
        cache_bytes: cache.used_bytes(),
        hydrated_batched,
        cold_hashed_per_version,
        warm_hashed_per_version,
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
/// is compared byte-for-byte against the source content in-run; the
/// aggregate skewed-workload speedup (total one-at-a-time wall over total
/// batched wall) is gated, and so is a repeat of the one-at-a-time pass
/// that hashes nothing (`checkout.warm_repeat_hashes_nothing`: every
/// chain verified on the first pass). `work_dir` receives one pack-store
/// directory per fixture; the caller owns cleanup.
pub fn checkout_bench(opts: &ExperimentOptions, work_dir: &Path) -> Bench {
    use dsv_core::baselines::min_storage_value;
    use dsv_core::engine::{Engine, SolveOptions};
    use dsv_core::executor::PlanExecutor;
    use dsv_core::problem::ProblemKind;
    use dsv_delta::store::{PackStore, VersionSource};
    use dsv_delta::MemStore;

    const SOLVERS: [&str; 3] = ["LMG", "LMG-All", "DP-MSR"];

    let fixtures = serving_fixtures(opts, SERVED_TEXT);
    let engine = Engine::with_default_solvers();
    let solve_opts = SolveOptions::default();
    let mut bench = Bench::default();
    let mut r = Report::new(
        "checkout-serving",
        &[
            "fixture",
            "solver",
            "backend",
            "workload",
            "nodes",
            "requests",
            "oneshot_vps",
            "batched_vps",
            "speedup",
            "oneshot_p50_ms",
            "oneshot_p99_ms",
            "batched_p50_ms",
            "batched_p99_ms",
            "hit_rate",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "cache_bytes",
            "hydrated_batched",
            "cold_hashed_per_version",
            "warm_hashed_per_version",
            "identical",
        ],
    );
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
        let problem = ProblemKind::Msr {
            storage_budget: min_storage_value(g) * 2,
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
                let served = [
                    (
                        "mem",
                        run_checkout_workload(g, &stored_mem, &mem, &expected, stream),
                    ),
                    (
                        "pack",
                        run_checkout_workload(g, &stored_pack, &pack, &expected, stream),
                    ),
                ];
                for (backend, out) in served {
                    bench.check("checkout.payloads_identical", out.identical);
                    bench.check(
                        "checkout.warm_repeat_hashes_nothing",
                        out.warm_hashed_per_version == 0.0,
                    );
                    if *workload == "zipf" {
                        skewed_oneshot_wall += out.oneshot_wall;
                        skewed_batched_wall += out.batched_wall;
                    }
                    let requests = stream.len() as f64;
                    r.push_row(row![
                        slug,
                        solver,
                        backend,
                        workload,
                        n,
                        stream.len(),
                        requests / out.oneshot_wall.max(1e-9),
                        requests / out.batched_wall.max(1e-9),
                        out.oneshot_wall / out.batched_wall.max(1e-9),
                        out.oneshot_p50_ms,
                        out.oneshot_p99_ms,
                        out.batched_p50_ms,
                        out.batched_p99_ms,
                        out.cache.hit_rate(),
                        out.cache.hits,
                        out.cache.misses,
                        out.cache.evictions,
                        out.cache_bytes,
                        out.hydrated_batched,
                        out.cold_hashed_per_version,
                        out.warm_hashed_per_version,
                        out.identical,
                    ]);
                }
            }

            PlanExecutor::new(&mut mem)
                .release(&stored_mem)
                .expect("release mem plan");
            PlanExecutor::new(&mut pack)
                .release(&stored_pack)
                .expect("release pack plan");
        }
    }

    r.note(format!(
        "batched ({CHECKOUT_BATCH} per batch) + root-cached checkout vs one-at-a-time cold \
         reconstruction; the one-at-a-time pass runs twice, from an empty verification memo \
         (cold) and then with every chain verified (warm); every served payload compared \
         byte-for-byte against the source in-run"
    ));
    bench.tables = vec![r];
    bench.floor(
        "checkout.skewed_speedup",
        skewed_oneshot_wall / skewed_batched_wall.max(1e-9),
        CHECKOUT_SPEEDUP_FLOOR,
    );
    bench
}

/// Injected fault rates per cell (probability per object, drawn
/// independently for the transient / permanent / bit-flip families).
const FAULT_RATES: [f64; 3] = [0.0, 0.001, 0.01];

/// The self-healing benchmark: the checkout streams served through a
/// [`FaultStore`](dsv_delta::FaultStore) that injects deterministic
/// transient I/O errors, permanent read errors, and bit flips at 0%,
/// 0.1%, and 1% per object, on both backends. At the top rate the first
/// requested version's own object is also corrupted outright: with a few
/// dozen objects a 1% draw often hits none, and the repair path must run
/// in every top-rate cell whatever the object ids are.
///
/// Each batch is served with the corpus content attached as the
/// redundant copy ([`Checkout::serve`](dsv_core::checkout::Checkout::serve)):
/// transient errors retry, corrupt/permanent reads re-derive from the
/// source, and every repair ticket is written back through
/// [`Store::repair`](dsv_delta::Store::repair). Every served payload is
/// compared byte-for-byte against the source; after the faulted stream a
/// clean full verification pass must agree exactly. `work_dir` receives
/// one pack-store directory per (fixture, rate); the caller owns cleanup.
pub fn faults_bench(opts: &ExperimentOptions, work_dir: &Path) -> Bench {
    use dsv_core::baselines::min_storage_value;
    use dsv_core::engine::{Engine, SolveOptions};
    use dsv_core::problem::ProblemKind;
    use dsv_delta::store::{PackStore, VersionSource};
    use dsv_delta::{FaultPlan, MemStore};

    let fixtures = serving_fixtures(opts, SERVED_TEXT);
    let engine = Engine::with_default_solvers();
    let solve_opts = SolveOptions::default();
    let mut bench = Bench::default();
    let mut r = Report::new(
        "fault-injection",
        &[
            "fixture",
            "backend",
            "rate",
            "nodes",
            "requests",
            "detected",
            "retries",
            "rederived",
            "unrepairable",
            "repairs_applied",
            "wrong_bytes",
            "served_ok",
            "serve_vps",
            "verified_clean",
        ],
    );
    let mut detected_at_max_rate = 0u64;

    for (fi, fixture) in fixtures.iter().enumerate() {
        let (slug, g, content) = fixture;
        let n = g.n();
        let expected: Vec<_> = (0..n as u32).map(|v| content.payload(v)).collect();
        let stream = zipf_stream(n, CHECKOUT_REQUESTS, 1.1, opts.seed + 11 + fi as u64);
        let problem = ProblemKind::Msr {
            storage_budget: min_storage_value(g) * 2,
        };
        let sol = engine
            .solve_with("LMG-All", g, problem, &solve_opts)
            .unwrap_or_else(|e| panic!("LMG-All on {slug}: {e}"));

        for &rate in &FAULT_RATES {
            let pin_fault = rate >= FAULT_RATES[FAULT_RATES.len() - 1];
            let faults = FaultPlan::seeded(opts.seed ^ (rate * 1e4) as u64)
                .with_transient_get(rate)
                .with_permanent_get(rate)
                .with_bit_flip(rate);
            let dir = work_dir.join(format!("faults-{slug}-{}", (rate * 1e4) as u64));
            let cells = [
                (
                    "mem",
                    serve_faulted(
                        MemStore::new(),
                        fixture,
                        &sol.plan,
                        &expected,
                        &stream,
                        &faults,
                        pin_fault,
                    ),
                ),
                (
                    "pack",
                    serve_faulted(
                        PackStore::open(&dir).expect("open pack store"),
                        fixture,
                        &sol.plan,
                        &expected,
                        &stream,
                        &faults,
                        pin_fault,
                    ),
                ),
            ];
            for (backend, (repair, applied, wrong_bytes, served_ok, wall, verified_clean)) in cells
            {
                bench.check("faults.zero_wrong_bytes", wrong_bytes == 0);
                bench.check("faults.zero_unrepairable", repair.unrepairable == 0);
                bench.check(
                    "faults.every_request_served",
                    served_ok == stream.len() as u64,
                );
                bench.check(
                    "faults.every_detected_fault_rederived",
                    repair.detected == repair.rederived,
                );
                bench.check("faults.clean_verification_after_heal", verified_clean);
                if rate == 0.0 {
                    // A zero rate must inject nothing.
                    bench.check("faults.zero_rate_detects_nothing", repair.detected == 0);
                    bench.check("faults.zero_rate_retries_nothing", repair.retries == 0);
                }
                if pin_fault {
                    detected_at_max_rate += repair.detected;
                }
                r.push_row(row![
                    slug,
                    backend,
                    rate,
                    n,
                    stream.len(),
                    repair.detected,
                    repair.retries,
                    repair.rederived,
                    repair.unrepairable,
                    applied,
                    wrong_bytes,
                    served_ok,
                    stream.len() as f64 / wall.max(1e-9),
                    verified_clean,
                ]);
            }
        }
    }

    r.note(format!(
        "checkout streams served in batches of {CHECKOUT_BATCH} through FaultStore at rates \
         {FAULT_RATES:?} per object (transient + permanent + bit-flip); repairable faults \
         healed from the source and written back via Store::repair"
    ));
    bench.tables = vec![r];
    // The top rate must actually exercise the repair path, or the gate
    // is vacuous.
    bench.floor(
        "faults.detected_at_max_rate",
        detected_at_max_rate as f64,
        1.0,
    );
    bench
}

/// One fault-injection cell on one backend: ingest the plan into `inner`
/// behind a [`FaultStore`](dsv_delta::FaultStore), arm `faults`, serve
/// `stream` in batches with `content` attached as the source, writing
/// every repair ticket back (byte-comparing every served payload), then
/// disarm and run a clean verification pass. With `pin_fault`, the
/// object stored for `stream[0]` is corrupted as well.
/// Returns the repair counters, repairs applied, wrong payloads, payloads
/// served, serve wall seconds, and whether the clean pass agreed.
fn serve_faulted<S: dsv_delta::Store + Sync>(
    inner: S,
    (slug, g, content): &Fixture,
    plan: &dsv_core::plan::StoragePlan,
    expected: &[dsv_delta::store::codec::Payload],
    stream: &[u32],
    faults: &dsv_delta::FaultPlan,
    pin_fault: bool,
) -> (dsv_core::RepairStats, usize, u64, u64, f64, bool) {
    use dsv_core::executor::PlanExecutor;
    use dsv_delta::{FaultPlan, FaultStore};

    let mut store = FaultStore::transparent(inner);
    let stored = PlanExecutor::new(&mut store)
        .ingest(g, plan, content)
        .unwrap_or_else(|e| panic!("ingest {slug}: {e}"));
    store.inner_mut().flush().expect("flush store");
    store.set_plan(faults.clone());
    if pin_fault {
        assert!(store.corrupt_object(stored.objects[stream[0] as usize]));
    }

    let mut repair = dsv_core::RepairStats::default();
    let mut applied = 0usize;
    let mut wrong_bytes = 0u64;
    let mut served_ok = 0u64;
    let t0 = Instant::now();
    for batch in stream.chunks(CHECKOUT_BATCH) {
        let mut exec = PlanExecutor::new(&mut store);
        let out = exec
            .reader()
            .with_source(content)
            .serve(g, &stored, batch)
            .expect("plan-shape valid serve");
        applied += exec.apply_repairs(&out.tickets).expect("apply repairs");
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

    store.set_plan(FaultPlan::none());
    let verified_clean = PlanExecutor::new(&mut store)
        .execute(g, &stored)
        .map(|rep| rep.agreement())
        .unwrap_or(false);
    (
        repair,
        applied,
        wrong_bytes,
        served_ok,
        wall,
        verified_clean,
    )
}

/// Section 5.3 extension experiment: DP-BTW (exact on bounded-width
/// graphs) against the tree-restricted DP and LMG-All on series-parallel
/// graphs — the class the paper singles out as "highly resembl\[ing\] the
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
            g.n().to_value(),
            budget.to_value(),
            or_inf(btw_val),
            or_inf(tree_val.flatten()),
            or_inf(greedy),
        ]);
    }
    r.note("Extension (Table 3, DP-BTW row): the bounded-width DP is exact, so DP-BTW <= tree-DP <= / ~ LMG-All; the tree DP loses whenever a series-parallel shortcut edge matters.");
    r
}

/// The DP-BTW experiment: the [`btw_report`] comparison, then the
/// constructive DP-BTW on low-width instances (series-parallel graphs, a
/// long path, and the `datasharing` corpus). Per instance: the
/// certificate value, the reconstructed plan's retrieval (they must be
/// equal — gated), the retrieval of the old heuristic witness (best of
/// LMG-All / DP-MSR) for the witness-vs-exact gap, DP wall time, and the
/// peak decision-arena size.
pub fn btw_bench(opts: &ExperimentOptions) -> Bench {
    use dsv_core::baselines::min_storage_value;
    use dsv_core::btw::{btw_msr, BtwConfig};
    use dsv_core::heuristics::lmg_all;
    use dsv_core::tree::dp_msr_on_graph;
    use dsv_vgraph::generators::{bidirectional_path, series_parallel, CostModel};
    use dsv_vgraph::NodeId;

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

    let mut bench = Bench::default();
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
            "plan_equals_certificate",
        ],
    );
    // Every benchmark instance is low-width by construction, so all of
    // them must complete: a skip means the exact solver lost coverage on a
    // graph it is meant to gate — recorded by name and failing a gate,
    // never silently dropped.
    let mut skipped: Vec<String> = Vec::new();
    for (name, g) in &instances {
        let budget = min_storage_value(g) * 2;
        let cfg = BtwConfig {
            storage_prune: Some(budget),
            ..Default::default()
        };
        let t0 = Instant::now();
        let completed = btw_msr(g, &cfg, &CancelToken::inert()).and_then(|result| {
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
        let checks = [
            ("btw.plan_validates", plan.validate(g).is_ok()),
            ("btw.plan_fits_budget", costs.storage <= budget),
            (
                "btw.plan_costs_equal_certificate",
                costs.total_retrieval == certificate,
            ),
            (
                "btw.reconstructed_retrieval_equals_certificate",
                plan_retrieval == certificate,
            ),
        ];
        for (gate, ok) in checks {
            bench.check(gate, ok);
        }
        // The pre-refactor witness: best of the plan-producing heuristics
        // at this budget (what `BtwSolver` used to return).
        let witness = [
            lmg_all(g, budget).map(|p| p.costs(g).total_retrieval),
            dp_msr_on_graph(g, NodeId(0), budget, &CancelToken::inert())
                .map(|(_, c)| c.total_retrieval),
        ]
        .into_iter()
        .flatten()
        .min();
        r.push_row(row![
            name,
            g.n(),
            result.width,
            budget,
            certificate,
            plan_retrieval,
            witness,
            witness.map(|w| w.saturating_sub(certificate)),
            dp_ms,
            result.peak_states,
            result.peak_arena,
            checks.iter().all(|&(_, ok)| ok),
        ]);
    }
    bench.check("btw.no_instance_skipped", skipped.is_empty());
    r.note(format!(
        "constructive DP-BTW: reconstructed plan == certificate on every row \
         (skipped instances = {skipped:?}); witness_gap is how much retrieval the old \
         heuristic-witness solver left on the table; peak_arena tracks provenance memory"
    ));
    bench.tables = vec![btw_report(opts), r];
    bench
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
        r.push_row(row![name.as_str(), n, tw]);
    }
    r.note("Expected shape (paper footnote 7): natural version graphs have small treewidth (2-6) despite thousands of nodes.");
    r
}

/// Floor of the replies served per second over the service storm.
pub const SERVICE_THROUGHPUT_FLOOR: f64 = 1.0;

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
pub fn service_bench(opts: &ExperimentOptions, work_dir: &Path) -> Bench {
    use dsv_core::baselines::min_storage_value;
    use dsv_core::problem::ProblemKind;
    use dsv_core::service::{
        Reply, Request, ServeTier, ServiceConfig, ServiceError, Ticket, VersioningService,
        FULL_TIER_MIN, HEURISTIC_TIER_MIN,
    };
    use dsv_delta::store::{PackStore, VersionSource};
    use dsv_delta::{FaultPlan, FaultStore, Store};
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use std::time::Duration;

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
    let heuristic_tier = probe(FULL_TIER_MIN.mul_f64(0.5).max(HEURISTIC_TIER_MIN * 2));
    let cached_tier = probe(HEURISTIC_TIER_MIN.mul_f64(0.5));
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
    let mut bench = Bench::default();
    bench.check(
        "service.queue_bounded",
        stats.queue_high_water <= queue_capacity as u64,
    );
    bench.floor("service.shed", shed as f64, 1.0);
    bench.check("service.shed_counted", shed == stats.shed);
    bench.check(
        "service.heuristic_tier_answers",
        heuristic_tier == ServeTier::Heuristic,
    );
    bench.check(
        "service.cached_tier_answers",
        cached_tier == ServeTier::Cached,
    );
    bench.check("service.zero_wrong_bytes", wrong_bytes == 0);
    bench.check(
        "service.p99_under_deadline",
        p99 < deadline.as_secs_f64() * 1e3,
    );
    bench.floor("service.faults_detected", stats.faults_detected as f64, 1.0);
    bench.floor("service.repairs_applied", stats.repairs_applied as f64, 1.0);
    bench.check("service.clean_verification", verified_clean);
    bench.check("service.queue_drained", svc.queue_depth() == 0);
    bench.floor(
        "service.throughput_rps",
        throughput_rps,
        SERVICE_THROUGHPUT_FLOOR,
    );
    svc.shutdown();

    let mut r = Report::new("service-overload", &["metric", "value"]);
    let min_retry_after_hint_ms = if min_hint == Duration::MAX {
        0.0
    } else {
        min_hint.as_secs_f64() * 1e3
    };
    let metrics = [
        ("nodes", n.to_value()),
        ("workers", stats.workers.to_value()),
        ("queue_capacity", queue_capacity.to_value()),
        ("queue_high_water", stats.queue_high_water.to_value()),
        ("deadline_ms", (deadline.as_secs_f64() * 1e3).to_value()),
        ("submitted", submitted.to_value()),
        ("served", served.to_value()),
        ("shed", shed.to_value()),
        ("cancelled", cancelled.to_value()),
        ("expired_in_queue", stats.expired_in_queue.to_value()),
        (
            "min_retry_after_hint_ms",
            min_retry_after_hint_ms.to_value(),
        ),
        ("throughput_rps", throughput_rps.to_value()),
        ("p50_ms", p50.to_value()),
        ("p99_ms", p99.to_value()),
        ("tier_full", tiers["full"].to_value()),
        ("tier_heuristic", tiers["heuristic"].to_value()),
        ("tier_cached", tiers["cached"].to_value()),
        ("versions_served", versions_served.to_value()),
        ("wrong_bytes", wrong_bytes.to_value()),
        ("faults_detected", stats.faults_detected.to_value()),
        ("repairs_applied", stats.repairs_applied.to_value()),
        ("root_cache_hits", stats.root_cache_hits.to_value()),
        ("root_cache_misses", stats.root_cache_misses.to_value()),
        ("root_cache_bytes", stats.root_cache_bytes.to_value()),
        ("verified_clean", verified_clean.to_value()),
    ];
    for (metric, value) in metrics {
        r.push_row(vec![metric.to_value(), value]);
    }
    r.note(
        "open-loop Zipf storm over a bounded queue with 3% injected faults; tiers count \
         solve replies per degradation tier, including the two post-storm probes",
    );
    bench.tables = vec![r];
    bench
}

/// Floor of the online per-commit speedup (mean from-scratch solve +
/// fresh re-ingest wall over mean absorb + migrate wall) at n = 4000.
pub const ONLINE_SPEEDUP_FLOOR: f64 = 10.0;

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
/// Gates: at every sample the regret bound
/// ([`ONLINE_REGRET_BOUND`](dsv_core::online::ONLINE_REGRET_BOUND)) holds
/// against the from-scratch objective and the migrated store hash-verifies
/// every version, as it does after the final GC; every fallback re-solve
/// succeeds; and the n = 4000 speedup reaches [`ONLINE_SPEEDUP_FLOOR`].
/// Like `lmg`, the sizes are fixed: n = 4000 always runs, n = 16000 is
/// opt-in via `--max-nodes 16000`.
pub fn online_bench(opts: &ExperimentOptions, work_dir: &Path) -> Bench {
    use dsv_core::baselines::min_storage_value;
    use dsv_core::executor::PlanExecutor;
    use dsv_core::heuristics::lmg_all::lmg_all_with_stats;
    use dsv_core::online::{OnlinePlanner, ONLINE_REGRET_BOUND};
    use dsv_delta::store::{PackStore, Store};
    use dsv_vgraph::generators::{erdos_renyi_bidirectional, CostModel};
    use dsv_vgraph::NodeId;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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
            "online_max_ms",
            "scratch_ms",
            "speedup",
            "mig_kb/commit",
            "reingest_kb",
            "regret_max",
            "fallback_resolves",
            "fallback_failed",
            "absorbed",
            "moves",
            "rescored",
            "repairs",
            "scratch_solves",
        ],
    );
    let mut bench = Bench::default();
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
        let mut fallback_failed = 0u64;
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
                    fallback_failed += 1;
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
                // The migrated store still hash-verifies every version.
                let report = exec.execute(planner.graph(), &stored).expect("verify");
                bench.check("online.sampled_store_verifies", report.verified == nn);
            }
        }
        // Reclaim everything the migrations superseded; the live plan must
        // survive compaction.
        exec.store().gc().expect("gc");
        let report = exec
            .execute(planner.graph(), &stored)
            .expect("verify after gc");
        bench.check(
            "online.store_verifies_after_gc",
            report.verified == planner.graph().n(),
        );
        bench.check("online.fallback_resolves_succeed", fallback_failed == 0);
        bench.check(
            "online.regret_within_bound",
            regret_max <= ONLINE_REGRET_BOUND,
        );

        let online_mean_ms = online_total_ms / commits as f64;
        let scratch_mean_ms = scratch_total_ms / scratch_samples.max(1) as f64;
        let speedup = scratch_mean_ms / online_mean_ms.max(1e-9);
        if n == 4_000 {
            speedup_4k = speedup;
        }
        let ostats = planner.stats();
        r.push_row(row![
            n,
            commits,
            online_mean_ms,
            online_max_ms,
            scratch_mean_ms,
            speedup,
            migration_bytes as f64 / commits as f64 / 1024.0,
            reingest_bytes as f64 / 1024.0,
            regret_max,
            fallback_resolves,
            fallback_failed,
            ostats.absorbed,
            ostats.moves,
            ostats.rescored,
            ostats.repairs,
            ostats.scratch_solves,
        ]);
    }
    r.note(format!(
        "{commits}-commit mutation streams absorbed online + migrated vs from-scratch \
         solve + re-ingest (sampled); regret bound {ONLINE_REGRET_BOUND}"
    ));
    bench.tables = vec![r];
    bench.floor("online.speedup_n4000", speedup_4k, ONLINE_SPEEDUP_FLOOR);
    bench
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExperimentOptions {
        ExperimentOptions {
            scale: 0.02,
            seed: 7,
            points: 3,
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
            .map(|row| match row[4] {
                Value::Float(x) => x,
                ref other => panic!("ratio cell is {}", other.kind()),
            })
            .collect();
        assert!(ratios.windows(2).all(|w| w[1] > w[0]));
        assert!(*ratios.last().expect("non-empty") > 100.0);
    }

    /// Fig. 10 at smoke scale with OPT on: datasharing gets a proven OPT
    /// point at every budget and both OPT gates pass.
    #[test]
    fn fig10_smoke_with_opt() {
        let opts = tiny_opts();
        assert!(opts.opt_node_limit > 0, "OPT stays on");
        let bench = fig10(&opts);
        let failed: Vec<_> = bench.failed().collect();
        assert!(failed.is_empty(), "failed gates {failed:?}");
        assert_eq!(bench.gates.len(), 2);
        let datasharing = &bench.tables[0];
        assert!(datasharing.name.ends_with("datasharing"));
        let opt_rows = datasharing
            .rows
            .iter()
            .filter(|row| matches!(&row[0], Value::Str(a) if a == "OPT"))
            .count();
        assert_eq!(opt_rows, opts.points);
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

    /// The exact-DP and store-backed benches at smoke scale: every gate
    /// passes and each `BENCH_*.json` parses with the shared top-level
    /// keys. `btw` also runs at scale 0.2, where the datasharing instance
    /// is non-trivial. The serving benches run at scale 0.1: below it the
    /// LeetCode ER fixture is not reachable from v0 (DP-MSR is infeasible)
    /// and 1% faults hit no object.
    #[test]
    fn gated_benches_pass_at_smoke_scale() {
        let dir = std::env::temp_dir().join(format!("dsv-bench-smoke-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let serving = ExperimentOptions {
            scale: 0.1,
            ..tiny_opts()
        };
        let inputs = [
            ("btw", tiny_opts()),
            (
                "btw",
                ExperimentOptions {
                    scale: 0.2,
                    ..tiny_opts()
                },
            ),
            ("store", serving.clone()),
            ("checkout", serving.clone()),
            ("faults", serving),
            ("service", tiny_opts()),
        ];
        for (i, (name, opts)) in inputs.iter().enumerate() {
            let (_, _, run) = EXPERIMENTS
                .iter()
                .find(|(n, _, _)| n == name)
                .expect("registered");
            let work = dir.join(format!("{name}-{i}"));
            std::fs::create_dir_all(&work).expect("scratch dir");
            let bench = run(opts, &work);
            assert!(!bench.gates.is_empty(), "{name} declares gates");
            let failed: Vec<_> = bench.failed().collect();
            assert!(failed.is_empty(), "{name}: failed gates {failed:?}");
            assert!(
                bench.tables.iter().all(|t| !t.rows.is_empty()),
                "{name}: empty table"
            );
            let doc: Value = serde_json::from_str(&bench.to_json(name, opts.seed)).expect("json");
            for key in ["experiment", "seed", "threads", "gates", "tables"] {
                doc.field(key).unwrap_or_else(|e| panic!("{name}: {e}"));
            }
            assert_eq!(doc.field("experiment"), Ok(&Value::Str(name.to_string())));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
