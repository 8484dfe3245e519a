//! Workload inputs: the fixtures each workload sets up, the commit stream,
//! and the ground truth every served payload is compared with.
//!
//! Graphs, corpora and commit streams come from the fixed
//! [`FIXTURE_SEED`], so every run of a workload measures the same data and
//! the same writes; `--seed` drives the rest of the request stream (which
//! versions are read and when, the solve budgets). The program under test
//! only ever receives the generated graphs, sources and mutations.

use dsv_core::baselines::min_storage_value;
use dsv_core::Mutation;
use dsv_delta::corpus::{corpus_with_content, CorpusName};
use dsv_delta::store::codec::{encode_sketch_delta, Payload};
use dsv_delta::store::{MemStore, PackStore, Store, VersionSource};
use dsv_vgraph::generators::{erdos_renyi_bidirectional, shard_forest, CostModel};
use dsv_vgraph::{Cost, NodeId, VersionGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A version source the service can keep for self-healing reads.
pub type SharedSource = Arc<dyn VersionSource + Send + Sync>;

/// Seed of every workload's graph or corpus and commit stream. Small
/// inputs differ a lot between seeds (which versions sit deep in a delta
/// chain, and so which versions are slow to read; how much planner work a
/// commit stream causes), so a fixed fixture keeps runs with different
/// `--seed`s comparable.
pub const FIXTURE_SEED: u64 = 2024;

/// `read-text` corpus scale: `Styleguide` at 0.1 is 49 versions of about
/// 1.5 MB of text each.
const READ_TEXT_SCALE: f64 = 0.1;
/// `commit-mix` graph size before the commit stream starts. The online
/// planner re-solves from scratch every `n/8` mutations (every `n/40`
/// commits); at 16,000 versions each re-solve takes about 3 s and a 20 s
/// load holds two or three of them, so whether the window ends inside one
/// moved commit throughput by 25% from run to run. At 4,000 a load holds
/// about 25 re-solves of a fraction of a second each.
const COMMIT_MIX_NODES: usize = 4_000;
/// `solve-large` forest: 32 clusters of 2048 versions (n = 65,536) with 64
/// cross links, which is above the sharded solver's 32,768-node threshold.
const FOREST_SHARDS: usize = 32;
const FOREST_SHARD_NODES: usize = 2_048;
const FOREST_CROSS_LINKS: usize = 64;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Single-version checkouts of MB-sized text versions.
    ReadText,
    /// Online commits beside paced reads on a large live plan.
    CommitMix,
    /// Repeated solves of a 65k-version forest.
    SolveLarge,
}

/// The request kind a workload's headline latency measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Checkout`.
    Checkout,
    /// `Absorb` followed by a store flush.
    Commit,
    /// `Solve`.
    Solve,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 3] = [
        Workload::ReadText,
        Workload::CommitMix,
        Workload::SolveLarge,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadText => "read-text",
            Workload::CommitMix => "commit-mix",
            Workload::SolveLarge => "solve-large",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ReadText => {
                "checkouts of MB-sized text versions down long delta chains: decode, \
                 delta apply, hash verify and loose-file reads dominate; no writes after setup"
            }
            Workload::CommitMix => {
                "durable online commits on a 4k-version plan beside paced reads: online \
                 planner and its refreshes, migrate, puts and fsync, and reads waiting on the store lock"
            }
            Workload::SolveLarge => {
                "solves of a 65k-version forest: partition, parallel shard solves, stitch \
                 and racing solvers on the pool; no store traffic after setup"
            }
        }
    }

    /// The request kind whose latency and rate are the workload's headline
    /// numbers.
    pub fn primary(self) -> Kind {
        match self {
            Workload::ReadText => Kind::Checkout,
            Workload::CommitMix => Kind::Commit,
            Workload::SolveLarge => Kind::Solve,
        }
    }

    /// Whether the workload's store is a [`PackStore`] on disk (otherwise a
    /// [`MemStore`]).
    pub fn on_disk(self) -> bool {
        !matches!(self, Workload::SolveLarge)
    }

    /// Build the workload's fixture.
    pub fn fixture(self) -> Fixture {
        match self {
            Workload::ReadText => read_text_fixture(),
            Workload::CommitMix => {
                let g = erdos_renyi_bidirectional(
                    COMMIT_MIX_NODES,
                    4.0 / COMMIT_MIX_NODES as f64,
                    &CostModel::default(),
                    FIXTURE_SEED,
                );
                let budget = min_storage_value(&g) * 2;
                manifest_fixture(g, budget)
            }
            Workload::SolveLarge => {
                let g = shard_forest(
                    FOREST_SHARDS,
                    FOREST_SHARD_NODES,
                    FOREST_CROSS_LINKS,
                    &CostModel::default(),
                    FIXTURE_SEED,
                );
                let budget = g.total_node_storage() / 2;
                manifest_fixture(g, budget)
            }
        }
    }
}

/// One online commit: the mutations of an `Absorb` and the source covering
/// the graph after them.
#[derive(Clone)]
pub struct Commit {
    /// Mutations, applied in order.
    pub mutations: Vec<Mutation>,
    /// Ground truth for every version after the commit.
    pub source: SharedSource,
    /// Version count after the commit.
    pub versions: usize,
}

/// What a workload sets up: a graph to solve and commit, the commit that
/// follows it, and (for manifest workloads) the stream of later commits.
pub struct Fixture {
    /// The graph solved and committed first.
    pub graph: Arc<VersionGraph>,
    /// Ground truth for `graph`.
    pub source: SharedSource,
    /// MSR storage budget of every plan of this fixture.
    pub budget: Cost,
    /// The first online commit, absorbed during setup.
    pub setup_commit: Commit,
    /// Later commits of manifest workloads (the continuation of the
    /// setup commit).
    pub stream: Option<CommitStream>,
}

/// `read-text`: the `Styleguide` text corpus. Setup commits every version
/// but the newest, then absorbs the newest online, as a repository does
/// when its latest commit arrives.
fn read_text_fixture() -> Fixture {
    let c = corpus_with_content(CorpusName::Styleguide, READ_TEXT_SCALE, FIXTURE_SEED, true);
    let full = c.graph;
    let content: SharedSource = Arc::new(c.content.expect("corpus keeps its content"));
    let last = full.n() - 1;
    let mut prefix = VersionGraph::new();
    for v in 0..last {
        prefix.add_version(full.node_storage(NodeId::new(v)));
    }
    let mut mutations = vec![Mutation::AddVersion {
        storage: full.node_storage(NodeId::new(last)),
    }];
    for (_, e) in full.edge_refs() {
        if e.src.index() < last && e.dst.index() < last {
            prefix.add_edge(e.src, e.dst, e.storage, e.retrieval);
        } else {
            mutations.push(Mutation::AddEdge {
                src: e.src.0,
                dst: e.dst.0,
                storage: e.storage,
                retrieval: e.retrieval,
            });
        }
    }
    Fixture {
        graph: Arc::new(prefix),
        source: Arc::new(Prefix {
            inner: content.clone(),
            count: last,
        }),
        budget: min_storage_value(&full) * 2,
        setup_commit: Commit {
            mutations,
            source: content,
            versions: full.n(),
        },
        stream: None,
    }
}

fn manifest_fixture(g: VersionGraph, budget: Cost) -> Fixture {
    let n = g.n();
    let mut stream = CommitStream::new(n, FIXTURE_SEED);
    let setup_commit = stream.next_commit();
    Fixture {
        graph: Arc::new(g),
        source: Arc::new(RollingManifests { count: n }),
        budget,
        setup_commit,
        stream: Some(stream),
    }
}

/// The commit stream of the manifest workloads: each commit adds one
/// version plus two bidirectional delta pairs to uniformly chosen earlier
/// versions.
#[derive(Clone)]
pub struct CommitStream {
    rng: SmallRng,
    versions: u32,
}

impl CommitStream {
    fn new(versions: usize, seed: u64) -> Self {
        CommitStream {
            rng: SmallRng::seed_from_u64(seed ^ 0xC0_4417),
            versions: versions as u32,
        }
    }

    /// The next commit of the stream.
    pub fn next_commit(&mut self) -> Commit {
        let v = self.versions;
        let rng = &mut self.rng;
        let mut mutations = vec![Mutation::AddVersion {
            storage: 5_000 + rng.gen_range(0..10_000u64),
        }];
        for _ in 0..2 {
            let u = rng.gen_range(0..v);
            let (s, r) = (rng.gen_range(50..500u64), rng.gen_range(50..500u64));
            mutations.push(Mutation::AddEdge {
                src: u,
                dst: v,
                storage: s,
                retrieval: r,
            });
            mutations.push(Mutation::AddEdge {
                src: v,
                dst: u,
                storage: s + 10,
                retrieval: r + 10,
            });
        }
        self.versions += 1;
        Commit {
            mutations,
            source: Arc::new(RollingManifests {
                count: self.versions as usize,
            }),
            versions: self.versions as usize,
        }
    }
}

/// Synthetic chunk manifests: version `v` owns six rolling chunks shared
/// with its neighbours plus two private ones (private ids live in a
/// disjoint namespace so sizes never conflict). Every version's manifest
/// is a pure function of `v`, so a source of any `count` agrees with every
/// other on the versions both cover.
pub struct RollingManifests {
    count: usize,
}

impl RollingManifests {
    fn manifest(v: u64) -> Vec<(u64, u32)> {
        let mut m: Vec<(u64, u32)> = (v..v + 6).map(|c| (c + 1, 64 + (c % 7) as u32)).collect();
        m.push((1_000_000 + 2 * v + 1, 128));
        m.push((1_000_000 + 2 * v + 2, 96));
        m
    }
}

impl VersionSource for RollingManifests {
    fn version_count(&self) -> usize {
        self.count
    }

    fn payload(&self, v: u32) -> Payload {
        Payload::Sketch(Self::manifest(u64::from(v)))
    }

    fn delta(&self, src: u32, dst: u32) -> Vec<u8> {
        let (a, b) = (
            Self::manifest(u64::from(src)),
            Self::manifest(u64::from(dst)),
        );
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
        encode_sketch_delta(&removed, &added)
    }
}

/// The first `count` versions of another source.
struct Prefix {
    inner: SharedSource,
    count: usize,
}

impl VersionSource for Prefix {
    fn version_count(&self) -> usize {
        self.count
    }

    fn payload(&self, v: u32) -> Payload {
        self.inner.payload(v)
    }

    fn delta(&self, src: u32, dst: u32) -> Vec<u8> {
        self.inner.delta(src, dst)
    }
}

/// Ground truth for served payloads: the source's payload of each version,
/// computed once.
pub struct Oracle {
    source: SharedSource,
    memo: Mutex<HashMap<u32, Arc<Payload>>>,
}

impl Oracle {
    /// An oracle answering from `source` (which must cover every version a
    /// run can serve).
    pub fn new(source: SharedSource) -> Self {
        Oracle {
            source,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// The expected payload of version `v`.
    pub fn expected(&self, v: u32) -> Arc<Payload> {
        if let Some(p) = self.memo.lock().expect("oracle memo").get(&v) {
            return p.clone();
        }
        let p = Arc::new(self.source.payload(v));
        self.memo.lock().expect("oracle memo").insert(v, p.clone());
        p
    }

    /// Summed encoded payload bytes of versions `0..n` — what storing every
    /// version in full would take.
    pub fn user_bytes(&self, n: usize) -> u64 {
        (0..n as u32)
            .map(|v| self.source.payload_bytes(v).len() as u64)
            .sum()
    }
}

/// Bytes a store occupies: file lengths on disk for a [`PackStore`], object
/// bytes for a [`MemStore`].
pub trait Footprint {
    /// See the trait docs.
    fn footprint(&self) -> u64;
}

impl Footprint for PackStore {
    fn footprint(&self) -> u64 {
        dir_bytes(self.dir())
    }
}

impl Footprint for MemStore {
    fn footprint(&self) -> u64 {
        self.stored_bytes()
    }
}

/// Summed length of every regular file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_stream_is_seeded_and_references_committed_versions() {
        let mut a = CommitStream::new(100, 9);
        let mut b = CommitStream::new(100, 9);
        for k in 0..20 {
            let (ca, cb) = (a.next_commit(), b.next_commit());
            assert_eq!(format!("{:?}", ca.mutations), format!("{:?}", cb.mutations));
            assert_eq!(ca.versions, 101 + k);
            assert_eq!(ca.source.version_count(), ca.versions);
            for m in &ca.mutations {
                if let Mutation::AddEdge { src, dst, .. } = *m {
                    assert!(src < ca.versions as u32 && dst < ca.versions as u32);
                }
            }
        }
    }

    #[test]
    fn rolling_manifest_deltas_apply() {
        use dsv_delta::store::codec::apply_delta;
        let s = RollingManifests { count: 50 };
        for (src, dst) in [(0, 1), (3, 40), (40, 3), (7, 7)] {
            let (got, _) = apply_delta(&s.payload(src), &s.delta(src, dst)).expect("applies");
            assert_eq!(got, s.payload(dst));
        }
    }
}
