//! Ablation bench for the Section-6.2 DP-MSR design choices:
//!
//! 1. γ-grid resolution (linear fine vs coarse vs exact),
//! 2. dependency-count bucketing (exact k vs geometric buckets),
//! 3. storage pruning bound (tight vs loose),
//! 4. Pareto frontier caps.
//!
//! The paper asserts "the modified implementations show comparable results
//! but significantly improve the running time" — this bench quantifies the
//! runtime side; `tests/ablation.rs` checks the quality side.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsv_core::baselines::min_storage_value;
use dsv_core::cancel::CancelToken;
use dsv_core::tree::extract_tree;
use dsv_core::tree::msr_engine::{run_tree_msr, GammaGrid, TreeDpConfig};
use dsv_delta::corpus::{corpus, CorpusName};
use dsv_vgraph::NodeId;
use std::hint::black_box;

fn variants(base: &TreeDpConfig) -> Vec<(&'static str, TreeDpConfig)> {
    let mut v = Vec::new();
    v.push(("baseline", base.clone()));
    let mut fine = base.clone();
    if let GammaGrid::Linear(t) = fine.gamma {
        fine.gamma = GammaGrid::Linear((t / 4).max(1));
    }
    v.push(("gamma-fine", fine));
    let mut coarse = base.clone();
    if let GammaGrid::Linear(t) = coarse.gamma {
        coarse.gamma = GammaGrid::Linear(t * 4);
    }
    v.push(("gamma-coarse", coarse));
    let mut exact_k = base.clone();
    exact_k.k_exact_limit = u32::MAX;
    v.push(("k-exact", exact_k));
    let mut tight_pareto = base.clone();
    tight_pareto.pareto_cap = 4;
    v.push(("pareto-4", tight_pareto));
    let mut wide_pareto = base.clone();
    wide_pareto.pareto_cap = 48;
    v.push(("pareto-48", wide_pareto));
    v
}

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_dpmsr");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let g = corpus(CorpusName::Styleguide, 0.4, 2024).graph;
    let smin = min_storage_value(&g);
    let t = extract_tree(&g, NodeId(0)).expect("connected");
    let base = TreeDpConfig::heuristic(&g, Some(smin * 3));
    for (label, cfg) in variants(&base) {
        group.bench_with_input(BenchmarkId::new("dp", label), &cfg, |b, cfg| {
            b.iter(|| {
                black_box(
                    run_tree_msr(&g, &t, cfg.clone(), &CancelToken::inert())
                        .map(|dp| dp.frontier()),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
