//! Serving hot-path benchmarks: shard `serve_batch` latency with the
//! boundary cache disabled vs warmed, across batch sizes; one batch in
//! the shape of perfbench's closed loop (32 degree-proportional
//! targets on reddit-sim 6,000 at k = 2); plus the queue/batcher
//! round-trip cost that bounds the tail at low batch occupancy.

use bns_data::SyntheticSpec;
use bns_gcn::engine::{ModelArch, TrainedModel};
use bns_partition::{MetisLikePartitioner, Partitioner};
use bns_serve::{BatchPolicy, CacheConfig, NodeMix, Query, RankQueue, ServePlan};
use bns_tensor::SeededRng;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

fn build_plan(nodes: usize, k: usize) -> ServePlan {
    let ds = SyntheticSpec::reddit_sim().with_nodes(nodes).generate(1);
    let part = MetisLikePartitioner::default().partition(&ds.graph, k, 0);
    let mut rng = SeededRng::new(9);
    let dims = [ds.feat_dim(), 64, ds.num_classes];
    let model = TrainedModel::new(ModelArch::Sage, &dims, 0.0, &mut rng);
    ServePlan::build(&ds, &part, model)
}

fn bench_serve_batch(c: &mut Criterion) {
    let plan = build_plan(2_000, 4);
    let mut rng = SeededRng::new(77);
    let mine: Vec<u32> = (0..plan.owner.len() as u32)
        .filter(|&v| plan.owner_of(v) == 0)
        .filter(|_| rng.next_u64().is_multiple_of(3))
        .take(64)
        .collect();
    for batch in [1usize, 8, 64] {
        let targets = &mine[..batch.min(mine.len())];
        let mut cold = plan.shard(0, CacheConfig::disabled());
        c.bench_function(&format!("serve_batch_b{batch}_nocache"), |b| {
            b.iter(|| black_box(cold.serve_batch(black_box(targets))))
        });
        let mut warm = plan.shard(0, CacheConfig::default());
        warm.serve_batch(targets); // fill the cold region before timing
        c.bench_function(&format!("serve_batch_b{batch}_cached"), |b| {
            b.iter(|| black_box(warm.serve_batch(black_box(targets))))
        });
    }
}

/// perfbench's closed-loop batch: 32 degree-proportional targets owned
/// by shard 0 of reddit-sim 6,000 at k = 2, quarter-size cache, warmed.
fn bench_serve_closed_loop_shape(c: &mut Criterion) {
    let plan = build_plan(6_000, 2);
    let mut rng = SeededRng::new(78);
    let targets: Vec<u32> = NodeMix::DegreeProportional
        .sample(&plan.graph, 256, &mut rng)
        .into_iter()
        .filter(|&v| plan.owner_of(v) == 0)
        .take(32)
        .collect();
    let mut warm = plan.shard(0, CacheConfig::default());
    warm.serve_batch(&targets);
    c.bench_function("serve_batch_reddit6k_k2_b32_degree", |b| {
        b.iter(|| black_box(warm.serve_batch(black_box(&targets))))
    });
}

fn bench_queue(c: &mut Criterion) {
    let queue = RankQueue::bounded(4096);
    let policy = BatchPolicy::immediate(32);
    let mut batch = Vec::new();
    c.bench_function("rank_queue_push_pop32", |b| {
        b.iter(|| {
            let t0 = Instant::now();
            for i in 0..32u32 {
                queue.push(Query::new(i, t0));
            }
            queue.pop_batch(&policy, &mut batch);
            black_box(batch.len())
        })
    });
}

criterion_group!(
    benches,
    bench_serve_batch,
    bench_serve_closed_loop_shape,
    bench_queue
);
criterion_main!(benches);
