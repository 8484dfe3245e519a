//! LMG-All scaling bench: wall time vs n on Erdős–Rényi graphs
//! (n = 1k / 4k / 16k, average total degree ~8, budget 2× the minimum
//! storage).
//!
//! The incremental loop is benched at every size; the from-scratch oracle
//! — `O(moves · (n + m))` — is capped at n = 4k so the bench binary stays
//! fast. The machine-readable cross-PR trajectory of the same comparison
//! lives in `BENCH_lmg.json` (`repro --experiment lmg`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsv_core::baselines::min_storage_value;
use dsv_core::heuristics::lmg_all::lmg_all_with_stats;
use dsv_core::heuristics::oracle::lmg_all_scratch;
use dsv_vgraph::generators::{erdos_renyi_bidirectional, CostModel};
use std::hint::black_box;

fn bench_lmg_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("lmg_scaling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    for n in [1_000usize, 4_000, 16_000] {
        let p = 4.0 / n as f64;
        let g = erdos_renyi_bidirectional(n, p, &CostModel::default(), 2024);
        let budget = min_storage_value(&g) * 2;
        group.bench_with_input(BenchmarkId::new("incremental", n), &g, |b, g| {
            b.iter(|| black_box(lmg_all_with_stats(g, budget)))
        });
        if n <= 4_000 {
            group.bench_with_input(BenchmarkId::new("scratch", n), &g, |b, g| {
                b.iter(|| black_box(lmg_all_scratch(g, budget, |_, _| {})))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lmg_scaling);
criterion_main!(benches);
