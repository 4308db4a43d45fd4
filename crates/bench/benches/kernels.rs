//! Criterion micro-benchmarks for the hot kernels: dense matmul, sparse
//! aggregation and its segmented backward gather, graph partitioning,
//! boundary-sampling topology builds, the ring all-reduce, SAGE layer
//! forward/backward (fused and segmented), dropout and one full
//! distributed training epoch.

use bns_comm::{create_world, TrafficClass};
use bns_data::SyntheticSpec;
use bns_gcn::engine::{train_with_plan, ModelArch, TrainConfig};
use bns_gcn::plan::PartitionPlan;
use bns_gcn::sampling::{build_epoch_topology, BoundarySampling};
use bns_nn::aggregate::{scaled_sum_aggregate, scaled_sum_aggregate_backward_into};
use bns_nn::{Activation, DropMask, SageGrads, SageLayer, SageSegCache, SegScratch};
use bns_partition::{MetisLikePartitioner, Partitioner, RandomPartitioner};
use bns_runtime::{future_task, run_tasks, Task, WorkerConfig};
use bns_tensor::pool::{self, ThreadPool};
use bns_tensor::simd;
use bns_tensor::{Matrix, SeededRng};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = SeededRng::new(1);
    let a = Matrix::random_normal(256, 256, 0.0, 1.0, &mut rng);
    let b = Matrix::random_normal(256, 256, 0.0, 1.0, &mut rng);
    c.bench_function("matmul_256", |bch| {
        bch.iter(|| black_box(a.matmul(&b)));
    });
    c.bench_function("matmul_tn_256", |bch| {
        bch.iter(|| black_box(a.matmul_tn(&b)));
    });
}

/// The zero-skipping product against the dense tile on one operand at
/// growing shares of zeros, at a reddit-width layer shape (750 rows of
/// 256 features times a 256 x 256 weight): where the two cross sets
/// `SKIP_MIN_ZEROS`. Also a 750 x 256 transpose.
fn bench_matmul_skip(c: &mut Criterion) {
    let mut rng = SeededRng::new(2);
    let (rows, kd, n) = (750, 256, 256);
    let b = Matrix::random_normal(kd, n, 0.0, 1.0, &mut rng);
    let bk = simd::active();
    for zeros in [0.3f32, 0.4, 0.5, 0.6, 0.75, 0.85] {
        let a = Matrix::from_fn(rows, kd, |_, _| {
            if rng.uniform() < zeros {
                0.0
            } else {
                rng.normal(0.0, 1.0)
            }
        });
        let pct = (zeros * 100.0).round();
        let mut out = vec![0.0; rows * n];
        c.bench_function(&format!("matmul_skip_dense_tile_z{pct}"), |bch| {
            bch.iter(|| {
                out.fill(0.0);
                simd::mm_nn_block(bk, a.as_slice(), b.as_slice(), &mut out, kd, n);
                black_box(&out);
            });
        });
        c.bench_function(&format!("matmul_skip_kernel_z{pct}"), |bch| {
            bch.iter(|| {
                out.fill(0.0);
                simd::mm_skip_block(bk, a.as_slice(), b.as_slice(), &mut out, kd, n);
                black_box(&out);
            });
        });
    }
    // Narrow products: the output layer's 16 classes (reddit-sim), a
    // 64-wide hidden layer (the serving model) and a 128-wide one
    // (products-sim), at half zeros; then the weight gradient `Aᵀ·B`,
    // which reads the sparse `A` down its columns, at the hidden
    // layers' 83%. These set `SKIP_MIN_COLS`.
    let (m, k) = (750, 256);
    let sparse = |z: f32, rng: &mut SeededRng| {
        Matrix::from_fn(m, k, |_, _| {
            if rng.uniform() < z {
                0.0
            } else {
                rng.normal(0.0, 1.0)
            }
        })
    };
    let a = sparse(0.5, &mut rng);
    for n in [16usize, 64, 128] {
        let b = Matrix::random_normal(k, n, 0.0, 1.0, &mut rng);
        let mut out = vec![0.0; m * n];
        c.bench_function(&format!("matmul_skip_dense_tile_750x256x{n}_z50"), |bch| {
            bch.iter(|| {
                out.fill(0.0);
                simd::mm_nn_block(bk, a.as_slice(), b.as_slice(), &mut out, k, n);
                black_box(&out);
            });
        });
        c.bench_function(&format!("matmul_skip_kernel_750x256x{n}_z50"), |bch| {
            bch.iter(|| {
                out.fill(0.0);
                simd::mm_skip_block(bk, a.as_slice(), b.as_slice(), &mut out, k, n);
                black_box(&out);
            });
        });
    }
    let a = sparse(0.83, &mut rng);
    for n in [16usize, 64, 128, 256] {
        let d = Matrix::random_normal(m, n, 0.0, 1.0, &mut rng);
        let mut out = vec![0.0; k * n];
        c.bench_function(
            &format!("matmul_tn_skip_dense_tile_256x750x{n}_z83"),
            |bch| {
                bch.iter(|| {
                    out.fill(0.0);
                    simd::mm_tn_block(bk, a.as_slice(), d.as_slice(), &mut out, (0, k), k, n);
                    black_box(&out);
                });
            },
        );
        c.bench_function(&format!("matmul_tn_skip_kernel_256x750x{n}_z83"), |bch| {
            bch.iter(|| {
                out.fill(0.0);
                simd::mm_skip_tn_block(bk, a.as_slice(), d.as_slice(), &mut out, (0, k), k, n);
                black_box(&out);
            });
        });
    }
    let a = Matrix::random_normal(rows, kd, 0.0, 1.0, &mut rng);
    let mut t = Matrix::default();
    c.bench_function("transpose_750x256", |bch| {
        bch.iter(|| {
            a.transpose_into(&mut t);
            black_box(&t);
        });
    });
}

/// Serial vs 4-thread pool on the largest matmul shape — the headline
/// comparison for the parallel backend (acceptance target: >= 2x at 4
/// threads on a machine with >= 4 cores).
fn bench_matmul_parallel(c: &mut Criterion) {
    let mut rng = SeededRng::new(6);
    let a = Matrix::random_normal(512, 512, 0.0, 1.0, &mut rng);
    let b = Matrix::random_normal(512, 512, 0.0, 1.0, &mut rng);
    c.bench_function("matmul_512_serial", |bch| {
        bch.iter(|| black_box(a.matmul(&b)));
    });
    c.bench_function("matmul_512_pool4", |bch| {
        let _guard = pool::install(ThreadPool::new(4));
        bch.iter(|| black_box(a.matmul(&b)));
    });
    c.bench_function("matmul_tn_512_pool4", |bch| {
        let _guard = pool::install(ThreadPool::new(4));
        bch.iter(|| black_box(a.matmul_tn(&b)));
    });
}

fn bench_aggregate(c: &mut Criterion) {
    let mut rng = SeededRng::new(2);
    let ds = SyntheticSpec::reddit_sim().with_nodes(4_000).generate(1);
    let n = ds.num_nodes();
    let h = Matrix::random_normal(n, 64, 0.0, 1.0, &mut rng);
    let scale = ds.mean_scale();
    c.bench_function("mean_aggregate_4k_d64", |bch| {
        bch.iter(|| black_box(scaled_sum_aggregate(&ds.graph, &h, n, &scale)));
    });
    c.bench_function("mean_aggregate_4k_d64_pool4", |bch| {
        let _guard = pool::install(ThreadPool::new(4));
        bch.iter(|| black_box(scaled_sum_aggregate(&ds.graph, &h, n, &scale)));
    });
}

/// The segmented backward gather at a products rank's shape: 4,000
/// output rows in 8 source segments, 128 wide, into a reused buffer.
fn bench_aggregate_backward(c: &mut Criterion) {
    let mut rng = SeededRng::new(12);
    let ds = SyntheticSpec::products_sim().with_nodes(4_000).generate(1);
    let n = ds.num_nodes();
    let dz = Matrix::random_normal(n, 128, 0.0, 1.0, &mut rng);
    let scale = ds.mean_scale();
    let mut dh = Matrix::default();
    c.bench_function("agg_backward_4k_d128_8seg", |bch| {
        bch.iter(|| {
            scaled_sum_aggregate_backward_into(&ds.graph, &dz, n, &scale, &mut dh);
            black_box(&dh);
        });
    });
}

fn bench_partitioners(c: &mut Criterion) {
    let ds = SyntheticSpec::reddit_sim().with_nodes(4_000).generate(1);
    c.bench_function("metis_like_partition_4k_k8", |bch| {
        bch.iter(|| black_box(MetisLikePartitioner::default().partition(&ds.graph, 8, 0)));
    });
    c.bench_function("random_partition_4k_k8", |bch| {
        bch.iter(|| black_box(RandomPartitioner.partition(&ds.graph, 8, 0)));
    });
}

fn bench_boundary_sampling(c: &mut Criterion) {
    let ds = Arc::new(SyntheticSpec::reddit_sim().with_nodes(4_000).generate(1));
    let part = MetisLikePartitioner::default().partition(&ds.graph, 8, 0);
    let plan = PartitionPlan::build(&ds, &part);
    let lp = Arc::clone(&plan.parts[0]);
    c.bench_function("bns_topology_build_p0.1", |bch| {
        bch.iter(|| {
            black_box(build_epoch_topology(
                &lp,
                &BoundarySampling::Bns { p: 0.1 },
                0,
                3,
            ))
        });
    });
}

fn bench_allreduce(c: &mut Criterion) {
    c.bench_function("ring_allreduce_4ranks_64k_floats", |bch| {
        bch.iter(|| {
            let mut out = [0u64; 4];
            let tasks: Vec<Box<dyn Task + '_>> = create_world(4)
                .into_iter()
                .zip(&mut out)
                .map(|(mut comm, bytes)| {
                    future_task(async move {
                        let mut buf = vec![1.0f32; 65_536];
                        comm.all_reduce_sum(&mut buf).await;
                        *bytes = comm.stats().bytes(TrafficClass::AllReduce);
                    })
                })
                .collect();
            run_tasks(tasks, WorkerConfig::from_env().workers, |_| ());
            black_box(out)
        });
    });
}

fn bench_sage_layer(c: &mut Criterion) {
    let mut rng = SeededRng::new(4);
    let ds = SyntheticSpec::reddit_sim().with_nodes(4_000).generate(1);
    let n = ds.num_nodes();
    let layer = SageLayer::new(64, 64, Activation::Relu, 0.0, &mut rng);
    let h = Matrix::random_normal(n, 64, 0.0, 1.0, &mut rng);
    let scale = ds.mean_scale();
    c.bench_function("sage_forward_4k_d64", |bch| {
        bch.iter_batched(
            || SeededRng::new(5),
            |mut r| black_box(layer.forward(&ds.graph, &h, n, &scale, false, &mut r)),
            BatchSize::SmallInput,
        );
    });
    let mut r = SeededRng::new(5);
    let (out, cache) = layer.forward(&ds.graph, &h, n, &scale, false, &mut r);
    let d = Matrix::filled(out.rows(), out.cols(), 1.0);
    c.bench_function("sage_backward_4k_d64", |bch| {
        bch.iter(|| black_box(layer.backward(&ds.graph, &cache, &d)));
    });
    // The engine's path: segmented cache, reused scratch and gradients.
    let (mut seg, mut scratch, mut out) = (
        SageSegCache::default(),
        SegScratch::default(),
        Matrix::default(),
    );
    let empty = Matrix::zeros(0, 64);
    layer.forward_inner_into(&ds.graph, &h, false, &mut r, &mut seg);
    let (g, rng) = (&ds.graph, &mut r);
    layer.forward_boundary_into(
        g,
        &mut seg,
        &empty,
        &scale,
        false,
        rng,
        &mut scratch,
        &mut out,
    );
    let mut grads = SageGrads::default();
    c.bench_function("sage_backward_seg_4k_d64", |bch| {
        bch.iter(|| {
            let mut d = d.clone();
            layer.backward_seg_into(&ds.graph, &seg, &mut d, &mut scratch, &mut grads, true);
            black_box(&scratch.dh);
        });
    });
}

fn bench_distributed_epoch(c: &mut Criterion) {
    let ds = Arc::new(SyntheticSpec::reddit_sim().with_nodes(2_000).generate(1));
    let part = MetisLikePartitioner::default().partition(&ds.graph, 4, 0);
    let plan = Arc::new(PartitionPlan::build(&ds, &part));
    for p in [1.0, 0.1] {
        let cfg = TrainConfig {
            arch: ModelArch::Sage,
            hidden: vec![64],
            dropout: 0.0,
            lr: 0.01,
            epochs: 1,
            sampling: BoundarySampling::Bns { p },
            eval_every: 0,
            seed: 0,
            clip_norm: None,
            pipeline: false,
            workers: None,
            wire_precision: None,
        };
        c.bench_function(&format!("distributed_epoch_2k_k4_p{p}"), |bch| {
            bch.iter(|| black_box(train_with_plan(&plan, &cfg)));
        });
    }
}

/// Dropout at the products hidden shape and a reddit-sized layer: the
/// bit-packed [`DropMask`] (draw + apply into a reused buffer, and the
/// in-place backward), next to the f32 mask it replaced
/// (`Matrix::from_fn(bernoulli)` + `hadamard`, both allocating).
fn bench_dropout(c: &mut Criterion) {
    for (rows, cols) in [(4000usize, 128usize), (750, 256)] {
        let mut rng = SeededRng::new(8);
        let x = Matrix::random_normal(rows, cols, 0.0, 1.0, &mut rng);
        let (mut y, mut mask) = (Matrix::default(), DropMask::default());
        c.bench_function(&format!("dropout_fwd_{rows}x{cols}"), |bch| {
            bch.iter(|| {
                mask.draw(x.len(), 0.5, &mut rng);
                y.assign(&x);
                mask.apply(y.as_mut_slice());
                black_box(&y);
            });
        });
        let mut dh = x.clone();
        c.bench_function(&format!("dropout_bwd_{rows}x{cols}"), |bch| {
            bch.iter(|| mask.apply(black_box(dh.as_mut_slice())));
        });
        let keep = 0.5f32;
        let mut f32_mask = Matrix::default();
        c.bench_function(&format!("dropout_fwd_f32mask_{rows}x{cols}"), |bch| {
            bch.iter(|| {
                f32_mask = Matrix::from_fn(rows, cols, |_, _| {
                    if rng.bernoulli(keep as f64) {
                        1.0 / keep
                    } else {
                        0.0
                    }
                });
                black_box(x.hadamard(&f32_mask))
            });
        });
        c.bench_function(&format!("dropout_bwd_f32mask_{rows}x{cols}"), |bch| {
            bch.iter(|| black_box(x.hadamard(&f32_mask)));
        });
    }
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_matmul,
        bench_matmul_skip,
        bench_matmul_parallel,
        bench_aggregate,
        bench_aggregate_backward,
        bench_partitioners,
        bench_boundary_sampling,
        bench_allreduce,
        bench_sage_layer,
        bench_dropout,
        bench_distributed_epoch
);
criterion_main!(kernels);
