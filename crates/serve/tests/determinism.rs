//! The serving determinism matrix: the same query set must produce
//! bitwise-identical logits no matter the cache configuration, kernel
//! thread count, or SIMD backend — and all of them must equal the
//! full-graph reference ([`TrainedModel::predict_logits`]).
//!
//! Caching only changes *where* an f32 row is copied from (pinned slot,
//! cold slot, or owner store), never its bits; thread pools and SIMD
//! lanes are covered by the workspace-wide fixed-reduction-order
//! contract. This test pins the composition of all three. CI re-runs
//! the suite under `BNS_THREADS=1` and `BNS_SIMD=scalar` legs, so the
//! ambient environment axis is exercised there on top of the forced
//! matrix here.

use bns_data::SyntheticSpec;
use bns_gcn::engine::{ModelArch, TrainedModel};
use bns_partition::{MetisLikePartitioner, Partitioner};
use bns_serve::{CacheConfig, ServePlan};
use bns_tensor::pool::{self, ThreadPool};
use bns_tensor::simd::{self, Backend};
use bns_tensor::{Matrix, SeededRng};

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Serves a fixed query set on every shard under one cache config and
/// returns the concatenated logits.
fn serve_all(plan: &ServePlan, cache: CacheConfig, queries: &[u32], batch: usize) -> Matrix {
    let mut out = Matrix::zeros(0, plan.num_classes);
    for rank in 0..plan.k {
        let mut server = plan.shard(rank, cache);
        let mine: Vec<u32> = queries
            .iter()
            .copied()
            .filter(|&v| plan.owner_of(v) == rank)
            .collect();
        for chunk in mine.chunks(batch.max(1)) {
            out = out.vstack(&server.serve_batch(chunk));
        }
    }
    out
}

fn build(arch: ModelArch) -> (std::sync::Arc<bns_data::Dataset>, ServePlan, Vec<u32>) {
    let ds = std::sync::Arc::new(SyntheticSpec::reddit_sim().with_nodes(350).generate(17));
    let part = MetisLikePartitioner::default().partition(&ds.graph, 4, 2);
    let mut rng = SeededRng::new(21);
    let dims = [ds.feat_dim(), 12, ds.num_classes];
    let model = TrainedModel::new(arch, &dims, 0.0, &mut rng);
    let plan = ServePlan::build(&ds, &part, model);
    // A skewed, duplicate-heavy query stream.
    let mut qrng = SeededRng::new(5);
    let queries: Vec<u32> = (0..200)
        .map(|_| (qrng.usize_below(ds.num_nodes())) as u32)
        .collect();
    (ds, plan, queries)
}

#[test]
fn cached_vs_uncached_bitwise_identical_across_threads_and_lanes() {
    let (ds, plan, queries) = build(ModelArch::Sage);
    // Reference rows, full-graph forward, in per-rank serve order.
    let mut ref_order: Vec<usize> = Vec::new();
    for rank in 0..plan.k {
        ref_order.extend(
            queries
                .iter()
                .filter(|&&v| plan.owner_of(v) == rank)
                .map(|&v| v as usize),
        );
    }
    let reference = plan.model.predict_logits(&ds, &ref_order);
    let ref_bits = bits(&reference);

    let cache_axis = [
        CacheConfig::disabled(),
        CacheConfig {
            capacity_ratio: 0.25,
            pin_fraction: 1.0,
        },
        CacheConfig {
            capacity_ratio: 0.5,
            pin_fraction: 0.5,
        },
        CacheConfig {
            capacity_ratio: 1.0,
            pin_fraction: 0.0,
        },
    ];
    let backend_axis = [Backend::Scalar, simd::detect()];
    let thread_axis = [1usize, 2, 4];

    for backend in backend_axis {
        let _simd = simd::force(backend);
        for threads in thread_axis {
            let _pool = (threads > 1).then(|| pool::install(ThreadPool::new(threads)));
            for (ci, cache) in cache_axis.iter().enumerate() {
                for batch in [1usize, 7, 64] {
                    let got = serve_all(&plan, *cache, &queries, batch);
                    assert_eq!(
                        bits(&got),
                        ref_bits,
                        "diverged: backend={backend:?} threads={threads} cache#{ci} batch={batch}"
                    );
                }
            }
        }
    }
}

#[test]
fn gat_serving_matches_reference_with_and_without_cache() {
    // GAT's attention softmax is the numerically touchiest path; one
    // cached-vs-uncached leg keeps it honest.
    let (ds, plan, queries) = build(ModelArch::Gat);
    let warm = serve_all(&plan, CacheConfig::default(), &queries, 16);
    let cold = serve_all(&plan, CacheConfig::disabled(), &queries, 16);
    assert_eq!(bits(&warm), bits(&cold), "cache changed GAT logits");
    let mut ref_order: Vec<usize> = Vec::new();
    for rank in 0..plan.k {
        ref_order.extend(
            queries
                .iter()
                .filter(|&&v| plan.owner_of(v) == rank)
                .map(|&v| v as usize),
        );
    }
    let reference = plan.model.predict_logits(&ds, &ref_order);
    assert_eq!(bits(&warm), bits(&reference), "GAT serving != full graph");
}

#[test]
fn repeated_serving_is_stable_as_cache_fills() {
    // The cache mutates between identical batches (cold -> warm ->
    // evicting); the answers must not.
    let (_ds, plan, queries) = build(ModelArch::Sage);
    let mut server = plan.shard(
        0,
        CacheConfig {
            capacity_ratio: 0.3,
            pin_fraction: 0.5,
        },
    );
    let mine: Vec<u32> = queries
        .iter()
        .copied()
        .filter(|&v| plan.owner_of(v) == 0)
        .collect();
    let first = server.serve_batch(&mine);
    for _ in 0..5 {
        let again = server.serve_batch(&mine);
        assert_eq!(
            bits(&first),
            bits(&again),
            "answers drifted as cache churned"
        );
    }
    assert!(server.cache_stats().hits > 0);
}
