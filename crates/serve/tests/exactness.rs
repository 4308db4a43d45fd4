//! Exactness of the per-layer-frontier forward: served logits equal
//! [`TrainedModel::predict_logits`] bit for bit for every architecture
//! (SAGE, GCN, GAT) at depths 1–3, and on the edge batches — one
//! target, all duplicates, a degree-0 node, a batch whose closure is
//! the whole graph. Also pins the row counters and the feature gather's
//! cache access order (ascending global id over the whole closure).

use bns_data::{Dataset, SyntheticSpec};
use bns_gcn::engine::{ModelArch, TrainedModel};
use bns_graph::CsrGraph;
use bns_partition::{MetisLikePartitioner, Partitioner};
use bns_serve::{BoundaryCache, CacheConfig, NodeMix, ServePlan};
use bns_tensor::{Matrix, SeededRng};

const ARCHS: [ModelArch; 3] = [ModelArch::Sage, ModelArch::Gcn, ModelArch::Gat];

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}

fn model(arch: ModelArch, depth: usize, ds: &Dataset, seed: u64) -> TrainedModel {
    let mut rng = SeededRng::new(seed);
    let mut dims = vec![ds.feat_dim()];
    dims.extend(std::iter::repeat_n(12, depth - 1));
    dims.push(ds.num_classes);
    TrainedModel::new(arch, &dims, 0.0, &mut rng)
}

/// A reddit-like graph with node `ISOLATED` stripped of its edges, so
/// a degree-0 node is always present.
const ISOLATED: usize = 5;

fn dataset(nodes: usize, seed: u64) -> Dataset {
    let mut ds = SyntheticSpec::reddit_sim().with_nodes(nodes).generate(seed);
    let edges: Vec<(usize, usize)> = ds
        .graph
        .edges()
        .filter(|&(u, v)| u != ISOLATED && v != ISOLATED)
        .collect();
    ds.graph = CsrGraph::from_edges(nodes, edges);
    assert_eq!(ds.graph.degree(ISOLATED), 0);
    ds
}

fn plan(ds: &Dataset, k: usize, model: TrainedModel) -> ServePlan {
    let part = MetisLikePartitioner::default().partition(&ds.graph, k, 3);
    ServePlan::build(ds, &part, model)
}

/// Serves `batch` on `rank` and asserts every row equals the reference
/// row bitwise.
fn assert_exact(plan: &ServePlan, rank: usize, reference: &Matrix, batch: &[u32], what: &str) {
    let mut server = plan.shard(rank, CacheConfig::default());
    let out = server.serve_batch(batch);
    assert_eq!(out.rows(), batch.len(), "{what}: row count");
    for (j, &t) in batch.iter().enumerate() {
        assert_eq!(
            bits(out.row(j)),
            bits(reference.row(t as usize)),
            "{what}: node {t} (request row {j})"
        );
    }
}

/// The nodes within `depth` hops of `targets`, level by level.
fn bfs_levels(g: &CsrGraph, targets: &[u32], depth: usize) -> Vec<Vec<u32>> {
    let mut seen = vec![false; g.num_nodes()];
    let mut level: Vec<u32> = Vec::new();
    for &t in targets {
        if !std::mem::replace(&mut seen[t as usize], true) {
            level.push(t);
        }
    }
    let mut levels = vec![level];
    for _ in 0..depth {
        let mut next = Vec::new();
        for &v in levels.last().unwrap() {
            for &u in g.neighbors(v as usize) {
                if !std::mem::replace(&mut seen[u as usize], true) {
                    next.push(u);
                }
            }
        }
        levels.push(next);
    }
    levels
}

#[test]
fn every_arch_and_depth_matches_predict_logits() {
    let ds = dataset(360, 41);
    let mut rng = SeededRng::new(13);
    let stream = NodeMix::DegreeProportional.sample(&ds.graph, 96, &mut rng);
    for arch in ARCHS {
        for depth in 1..=3 {
            let plan = plan(&ds, 3, model(arch, depth, &ds, 7 + depth as u64));
            let reference = plan.model.logits(&ds);
            for rank in 0..plan.k {
                let mine: Vec<u32> = stream
                    .iter()
                    .copied()
                    .filter(|&v| plan.owner_of(v) == rank)
                    .collect();
                let mut server = plan.shard(rank, CacheConfig::default());
                for chunk in mine.chunks(16) {
                    let out = server.serve_batch(chunk);
                    for (j, &t) in chunk.iter().enumerate() {
                        assert_eq!(
                            bits(out.row(j)),
                            bits(reference.row(t as usize)),
                            "{arch:?} depth {depth} rank {rank} node {t}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn edge_batches_match_predict_logits() {
    let ds = dataset(240, 43);
    let n = ds.num_nodes() as u32;
    let hub = (0..n).max_by_key(|&v| ds.graph.degree(v as usize)).unwrap();
    let iso = ISOLATED as u32;
    for arch in ARCHS {
        for depth in [1, 2, 3] {
            let plan = plan(&ds, 2, model(arch, depth, &ds, 3));
            let reference = plan.model.logits(&ds);
            let what = |case: &str| format!("{arch:?} depth {depth}: {case}");
            let home = plan.owner_of(hub);
            assert_exact(&plan, home, &reference, &[hub], &what("one target"));
            assert_exact(&plan, home, &reference, &[hub; 5], &what("all duplicates"));
            let iso_home = plan.owner_of(iso);
            assert_exact(&plan, iso_home, &reference, &[iso], &what("degree-0 alone"));
            assert_exact(
                &plan,
                iso_home,
                &reference,
                &[hub, iso, hub, 0],
                &what("degree-0 among others"),
            );
            let all: Vec<u32> = (0..n).rev().collect();
            assert_exact(&plan, 0, &reference, &all, &what("whole-graph closure"));
        }
    }
}

#[test]
fn row_counters_count_closure_and_frontier_rows() {
    let ds = dataset(240, 47);
    let mut rng = SeededRng::new(2);
    let batch = NodeMix::DegreeProportional.sample(&ds.graph, 6, &mut rng);
    for depth in 1..=3 {
        let plan = plan(&ds, 2, model(ModelArch::Sage, depth, &ds, 1));
        let levels = bfs_levels(&ds.graph, &batch, depth);
        let within: Vec<u64> = levels
            .iter()
            .scan(0u64, |acc, l| {
                *acc += l.len() as u64;
                Some(*acc)
            })
            .collect();
        let mut server = plan.shard(0, CacheConfig::default());
        server.serve_batch(&batch);
        let rows = server.row_stats();
        assert_eq!(rows.closure_rows, within[depth], "depth {depth}");
        // Layer l computes the nodes within depth-1-l hops.
        let computed: u64 = within[..depth].iter().sum();
        assert_eq!(rows.computed_rows, computed, "depth {depth}");
        let all: Vec<u32> = (0..ds.num_nodes() as u32).collect();
        server.serve_batch(&all);
        let n = ds.num_nodes() as u64;
        let rows2 = server.row_stats();
        assert_eq!(rows2.closure_rows - rows.closure_rows, n);
        assert_eq!(rows2.computed_rows - rows.computed_rows, n * depth as u64);
    }
}

/// The gather reads the closure in ascending global id whatever order
/// the layers use, so a stream's cache counters are those of a fresh
/// cache fed the same closures sorted ascending. Small batches on a
/// larger graph keep each closure a small part of the graph and make
/// the CLOCK region churn within a batch, so any other access order
/// leaves different rows resident and moves the counters.
#[test]
fn cache_counters_equal_an_ascending_id_replay() {
    let ds = dataset(1200, 53);
    let depth = 2;
    let plan = plan(&ds, 3, model(ModelArch::Sage, depth, &ds, 5));
    let cfg = CacheConfig::default();
    let rank = 1;
    let mut rng = SeededRng::new(19);
    let stream: Vec<u32> = NodeMix::DegreeProportional
        .sample(&ds.graph, 300, &mut rng)
        .into_iter()
        .filter(|&v| plan.owner_of(v) == rank)
        .collect();
    let mut server = plan.shard(rank, cfg);
    for batch in stream.chunks(2) {
        server.serve_batch(batch);
    }

    let slots = cfg
        .slots(plan.boundary_by_degree[rank].len())
        .min(ds.num_nodes());
    let mut replay = BoundaryCache::new(slots, cfg.pinned(slots), ds.feat_dim(), ds.num_nodes());
    let row = |g: u32| plan.stores[plan.owner_of(g)].row(plan.local_row[g as usize] as usize);
    replay.pin(&plan.boundary_by_degree[rank], row);
    for batch in stream.chunks(2) {
        let mut closure: Vec<u32> = bfs_levels(&ds.graph, batch, depth).concat();
        closure.sort_unstable();
        for g in closure {
            if plan.owner_of(g) != rank && replay.lookup(g).is_none() {
                replay.admit(g, row(g));
            }
        }
    }
    assert!(replay.stats.hits > 0 && replay.stats.evictions > 0);
    assert_eq!(server.cache_stats(), replay.stats);
}
