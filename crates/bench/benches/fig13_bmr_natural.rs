//! Figure 13 bench: BMR runtimes (MP vs DP-BMR) on natural graphs.
//!
//! Expected shape: run times within a constant factor of each other,
//! insensitive to the constraint value (unlike LMG/LMG-All).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsv_bench::sweep::bmr_budgets;
use dsv_core::cancel::CancelToken;
use dsv_core::heuristics::modified_prims;
use dsv_core::tree::dp_bmr_on_graph;
use dsv_delta::corpus::{corpus, CorpusName};
use dsv_vgraph::NodeId;
use std::hint::black_box;

fn bench_fig13(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13_bmr_natural");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (name, scale) in [
        (CorpusName::Styleguide, 0.4),
        (CorpusName::FreeCodeCamp, 0.02),
    ] {
        let g = corpus(name, scale, 2024).graph;
        let budgets = bmr_budgets(&g, 4);
        for (i, &budget) in budgets.iter().enumerate().filter(|(i, _)| i % 2 == 1) {
            let label = format!("{}-R{i}", name.as_str());
            group.bench_with_input(BenchmarkId::new("MP", &label), &g, |b, g| {
                b.iter(|| black_box(modified_prims(g, budget)))
            });
            group.bench_with_input(BenchmarkId::new("DP-BMR", &label), &g, |b, g| {
                b.iter(|| black_box(dp_bmr_on_graph(g, NodeId(0), budget, &CancelToken::inert())))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig13);
criterion_main!(benches);
