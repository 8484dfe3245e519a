//! Microbenches for the substrates every experiment leans on: minimum
//! arborescences (fast vs naive), Dijkstra, Myers diff, tree
//! decompositions and the object hash behind every store read.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsv_core::baselines::extended_edges;
use dsv_delta::store::codec::{encode_payload, hash_payload};
use dsv_delta::store::{hash_object, ObjectKind, VersionSource};
use dsv_vgraph::arborescence::{min_arborescence, naive_min_arborescence};
use dsv_vgraph::dijkstra::{dijkstra, EdgeWeight};
use dsv_vgraph::generators::{erdos_renyi_bidirectional, random_tree, CostModel};
use dsv_vgraph::NodeId;
use std::hint::black_box;

fn bench_arborescence(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_arborescence");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n in [50usize, 200, 1000] {
        let g = erdos_renyi_bidirectional(n, 0.1, &CostModel::default(), 7);
        let edges = extended_edges(&g, EdgeWeight::Storage);
        group.bench_with_input(BenchmarkId::new("gabow-tarjan", n), &edges, |b, e| {
            b.iter(|| black_box(min_arborescence(n + 1, n, e)))
        });
        if n <= 200 {
            group.bench_with_input(BenchmarkId::new("naive-chu-liu", n), &edges, |b, e| {
                b.iter(|| black_box(naive_min_arborescence(n + 1, n, e)))
            });
        }
    }
    group.finish();
}

fn bench_dijkstra(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_dijkstra");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n in [1_000usize, 10_000] {
        let g = random_tree(n, &CostModel::default(), 9);
        group.bench_with_input(BenchmarkId::new("tree", n), &g, |b, g| {
            b.iter(|| black_box(dijkstra(g, NodeId(0), EdgeWeight::Retrieval)))
        });
    }
    group.finish();
}

fn bench_myers(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_myers");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (label, n, edits) in [
        ("near-identical", 5_000usize, 5usize),
        ("divergent", 1_000, 300),
    ] {
        let a: Vec<u32> = (0..n as u32).collect();
        let mut b = a.clone();
        for i in 0..edits {
            let pos = (i * 977) % b.len();
            b[pos] = u32::MAX - i as u32;
        }
        group.bench_with_input(BenchmarkId::new("diff", label), &(a, b), |bench, (a, b)| {
            bench.iter(|| black_box(dsv_delta::myers::diff(a, b)))
        });
    }
    group.finish();
}

fn bench_treewidth(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_treewidth");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let g = dsv_delta::corpus::corpus(dsv_delta::corpus::CorpusName::Styleguide, 0.2, 3).graph;
    group.bench_function("styleguide-ub", |b| {
        b.iter(|| black_box(dsv_treewidth::treewidth_upper_bound(&g)))
    });
    group.finish();
}

/// The object hash on the read path's two shapes: one-shot over a
/// resident ~1.5 MB object (`PackStore::get_ref`'s verify) and streamed
/// over a decoded text payload, a length prefix and one line per
/// `update` (checkout's `hash_payload`).
fn bench_object_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_object_hash");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let content = dsv_delta::corpus::corpus_with_content(
        dsv_delta::corpus::CorpusName::Styleguide,
        0.1,
        3,
        true,
    )
    .content
    .expect("corpus keeps its content");
    let payload = content.payload(0);
    let bytes = encode_payload(&payload);
    let mb = format!("{:.1}MB", bytes.len() as f64 / 1e6);
    group.bench_with_input(BenchmarkId::new("one-shot", &mb), &bytes, |b, bytes| {
        b.iter(|| black_box(hash_object(ObjectKind::Chunk, bytes)))
    });
    group.bench_with_input(BenchmarkId::new("text-payload", &mb), &payload, |b, p| {
        b.iter(|| black_box(hash_payload(p)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_arborescence,
    bench_dijkstra,
    bench_myers,
    bench_treewidth,
    bench_object_hash
);
criterion_main!(benches);
