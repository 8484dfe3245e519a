//! Deep-learning pipeline scenario from the paper's introduction:
//! "in Deep Learning pipelines, multiple versions are generated from the
//! same original data for training and insight generation."
//!
//! We simulate a training-data lineage: one base corpus, many derived
//! variants (augmentations, filtered subsets, re-labelings) organized in a
//! shallow, branchy version graph. Retrieval latency matters because
//! training jobs check out versions constantly, so we solve MSR at several
//! storage budgets and show the frontier, then pick checkpoints with BMR so
//! that *no* checkout is ever slower than a bound.
//!
//! Run with: `cargo run --example ml_pipeline`

use dataset_versioning::prelude::*;
use dsv_delta::chunks::ChunkSketch;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Build a lineage: base dataset -> stages of derived variants.
fn build_lineage(seed: u64) -> VersionGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut next_chunk = 0u64;
    let fresh = |rng: &mut SmallRng, n: &mut u64, size: u32| {
        let id = *n;
        *n += 1;
        (id, size.max(1) + rng.gen_range(0..size.max(2)))
    };

    // Base corpus: ~200 MB of 1 MB shards.
    let mut base = ChunkSketch::new();
    for _ in 0..200 {
        let (id, sz) = fresh(&mut rng, &mut next_chunk, 1 << 20);
        base.insert(id, sz);
    }

    let mut sketches = vec![base.clone()];
    let mut parents: Vec<Option<usize>> = vec![None];
    // Three stages of derivation, each variant mutating 2-10% of shards.
    let mut frontier = vec![0usize];
    for _stage in 0..3 {
        let mut next_frontier = Vec::new();
        for &p in &frontier {
            let fanout = rng.gen_range(2..5);
            for _ in 0..fanout {
                let mut s = sketches[p].clone();
                let mutations = (s.chunk_count() as f64 * rng.gen_range(0.02..0.10)) as usize;
                for _ in 0..mutations.max(1) {
                    let ids = s.ids();
                    let victim = ids[rng.gen_range(0..ids.len())];
                    s.remove(victim);
                    let (id, sz) = fresh(&mut rng, &mut next_chunk, 1 << 20);
                    s.insert(id, sz);
                }
                sketches.push(s);
                parents.push(Some(p));
                next_frontier.push(sketches.len() - 1);
            }
        }
        frontier = next_frontier;
    }

    // Version graph with bidirectional parent-child deltas.
    let mut g = VersionGraph::new();
    for (i, s) in sketches.iter().enumerate() {
        g.add_labelled_node(s.byte_size(), format!("v{i}"));
    }
    for (i, p) in parents.iter().enumerate() {
        if let Some(p) = *p {
            let fwd = sketches[p].delta_to(&sketches[i]);
            let bwd = sketches[i].delta_to(&sketches[p]);
            g.add_edge(
                NodeId::new(p),
                NodeId::new(i),
                fwd.storage_cost(),
                fwd.retrieval_cost(),
            );
            g.add_edge(
                NodeId::new(i),
                NodeId::new(p),
                bwd.storage_cost(),
                bwd.retrieval_cost(),
            );
        }
    }
    g
}

fn mib(x: u64) -> f64 {
    x as f64 / (1 << 20) as f64
}

fn main() {
    let g = build_lineage(42);
    println!(
        "training-data lineage: {} versions, {} deltas, {:.0} MiB if fully materialized",
        g.n(),
        g.m(),
        mib(g.total_node_storage())
    );

    let smin = min_storage_value(&g);
    println!("minimum storage: {:.0} MiB\n", mib(smin));

    // MSR frontier: how much faster do checkouts get per GB invested?
    let engine = Engine::with_default_solvers();
    let budgets: Vec<Cost> = (0..6).map(|i| smin + smin * i / 5).collect();
    let sweep = engine
        .solve_sweep(&g, &budgets, &SolveOptions::default())
        .expect("lineage is connected");
    println!("DP-MSR storage/retrieval frontier:");
    println!(
        "  {:>12} {:>14} {:>16}",
        "budget(MiB)", "storage(MiB)", "avg checkout(MiB)"
    );
    for (b, sol) in budgets.iter().zip(&sweep) {
        match sol.as_ref().map(|s| s.costs) {
            Some(c) => println!(
                "  {:>12.0} {:>14.0} {:>16.1}",
                mib(*b),
                mib(c.storage),
                mib(c.total_retrieval) / g.n() as f64
            ),
            None => println!("  {:>12.0} {:>14} {:>16}", mib(*b), "-", "infeasible"),
        }
    }

    // BMR: bound the worst checkout (e.g. 64 MiB of delta replay). Run
    // every solver that supports BMR (DP-BMR and MP) and keep the cheaper
    // plan.
    let bound: Cost = 64 << 20;
    let bmr = ProblemKind::Bmr {
        retrieval_budget: bound,
    };
    println!("\nBMR with worst-checkout bound {:.0} MiB:", mib(bound));
    let solutions: Vec<Solution> = engine
        .solvers_for(bmr)
        .iter()
        .filter_map(|s| {
            engine
                .solve_with(s.name(), &g, bmr, &SolveOptions::default())
                .ok()
        })
        .collect();
    for sol in &solutions {
        println!(
            "  {:>8}: storage {:>6.0} MiB in {:.1} ms",
            sol.meta.solver,
            mib(sol.costs.storage),
            sol.meta.wall_time.as_secs_f64() * 1e3
        );
    }
    // Ties go to the smaller worst checkout, then the preferred solver.
    let best = solutions
        .iter()
        .min_by_key(|s| (s.costs.storage, s.costs.max_retrieval))
        .expect("BMR is always feasible");
    println!(
        "  {} is cheapest — storage {:.0} MiB, {} of {} versions materialized (max retrieval {:.1} MiB)",
        best.meta.solver,
        mib(best.costs.storage),
        best.plan.materialized_count(),
        g.n(),
        mib(best.costs.max_retrieval)
    );
}
