//! Criterion micro-benchmarks for the runtime-dispatched SIMD backend:
//! every dispatched kernel family, forced-scalar vs. the best backend
//! this CPU supports (`bns_tensor::simd::detect`) and, where it runs,
//! the 8-lane AVX2 backend next to it, serially and through a 4-thread
//! pool (threads × lanes).
//!
//! The rows share inputs, so the ratio between `*_scalar` and
//! `*_simd_<backend>` is the lane-level speedup — the acceptance target
//! for the backend is >= 1.5x on matmul and aggregate on an AVX2 host —
//! and `*_simd_avx2` against `*_simd_avx512` is the gain of the wider
//! lanes on an AVX-512 host. The
//! results are bitwise identical by construction (see the proptests in
//! `crates/tensor/tests/simd_kernels.rs`), so this measures pure
//! throughput, not a precision trade.

use bns_data::SyntheticSpec;
use bns_nn::aggregate::{scaled_sum_aggregate, scaled_sum_aggregate_backward};
use bns_nn::Adam;
use bns_tensor::pool::{self, ThreadPool};
use bns_tensor::simd::{self, Backend};
use bns_tensor::{Matrix, SeededRng};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Benchmarks `f` forced to scalar, to AVX2 where it runs, and to the
/// detected best backend, under the given suffix labels.
fn bench_forced(c: &mut Criterion, name: &str, mut f: impl FnMut()) {
    c.bench_function(&format!("{name}_scalar"), |bch| {
        let _g = simd::force(Backend::Scalar);
        bch.iter(&mut f);
    });
    let mut vector = vec![simd::detect()];
    if Backend::Avx2.is_available() && vector[0] != Backend::Avx2 {
        vector.insert(0, Backend::Avx2);
    }
    for bk in vector {
        c.bench_function(&format!("{name}_simd_{}", bk.name()), |bch| {
            let _g = simd::force(bk);
            bch.iter(&mut f);
        });
    }
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = SeededRng::new(1);
    let a = Matrix::random_normal(256, 256, 0.0, 1.0, &mut rng);
    let b = Matrix::random_normal(256, 256, 0.0, 1.0, &mut rng);
    bench_forced(c, "simd_matmul_256", || {
        black_box(a.matmul(&b));
    });
    bench_forced(c, "simd_matmul_tn_256", || {
        black_box(a.matmul_tn(&b));
    });
    bench_forced(c, "simd_matmul_nt_256", || {
        black_box(a.matmul_nt(&b));
    });
}

/// A narrow output layer (products-sim's 128 → 24 over a 4k-row
/// partition): its 24 columns are all tail on a 16-lane backend, so
/// this is the row the step-down column strips are for.
fn bench_matmul_narrow(c: &mut Criterion) {
    let mut rng = SeededRng::new(8);
    let h = Matrix::random_normal(4_000, 128, 0.0, 1.0, &mut rng);
    let w = Matrix::random_normal(128, 24, 0.0, 1.0, &mut rng);
    bench_forced(c, "simd_matmul_4k_128x24", || {
        black_box(h.matmul(&w));
    });
}

/// Threads × lanes on the largest shape: the pool splits rows, the
/// lanes split each row, and the speedups multiply.
fn bench_matmul_pooled(c: &mut Criterion) {
    let mut rng = SeededRng::new(2);
    let a = Matrix::random_normal(512, 512, 0.0, 1.0, &mut rng);
    let b = Matrix::random_normal(512, 512, 0.0, 1.0, &mut rng);
    bench_forced(c, "simd_matmul_512_pool4", || {
        let _p = pool::install(ThreadPool::new(4));
        black_box(a.matmul(&b));
    });
}

/// The weight-gradient product `X^T dZ` of a 128-wide layer over a
/// 4k-row partition, serial and through a 4-thread pool.
fn bench_matmul_tn(c: &mut Criterion) {
    let mut rng = SeededRng::new(6);
    let x = Matrix::random_normal(4_000, 128, 0.0, 1.0, &mut rng);
    let dz = Matrix::random_normal(4_000, 128, 0.0, 1.0, &mut rng);
    bench_forced(c, "simd_matmul_tn_4k_d128", || {
        black_box(x.matmul_tn(&dz));
    });
    bench_forced(c, "simd_matmul_tn_4k_d128_pool4", || {
        let _p = pool::install(ThreadPool::new(4));
        black_box(x.matmul_tn(&dz));
    });
}

fn bench_aggregate(c: &mut Criterion) {
    let mut rng = SeededRng::new(3);
    let ds = SyntheticSpec::reddit_sim().with_nodes(4_000).generate(1);
    let n = ds.num_nodes();
    let h = Matrix::random_normal(n, 64, 0.0, 1.0, &mut rng);
    let scale = ds.mean_scale();
    bench_forced(c, "simd_aggregate_4k_d64", || {
        black_box(scaled_sum_aggregate(&ds.graph, &h, n, &scale));
    });
    let dz = scaled_sum_aggregate(&ds.graph, &h, n, &scale);
    bench_forced(c, "simd_aggregate_bwd_4k_d64", || {
        black_box(scaled_sum_aggregate_backward(&ds.graph, &dz, n, &scale));
    });
}

/// The mean-aggregate backward at a products-sized layer (8k nodes,
/// 128 wide), serial and through a 4-thread pool.
fn bench_mean_aggregate_backward(c: &mut Criterion) {
    let mut rng = SeededRng::new(7);
    let ds = SyntheticSpec::products_sim().with_nodes(8_000).generate(1);
    let n = ds.num_nodes();
    let dz = Matrix::random_normal(n, 128, 0.0, 1.0, &mut rng);
    let scale = ds.mean_scale();
    bench_forced(c, "simd_mean_aggregate_bwd_8k_d128", || {
        black_box(scaled_sum_aggregate_backward(&ds.graph, &dz, n, &scale));
    });
    bench_forced(c, "simd_mean_aggregate_bwd_8k_d128_pool4", || {
        let _p = pool::install(ThreadPool::new(4));
        black_box(scaled_sum_aggregate_backward(&ds.graph, &dz, n, &scale));
    });
}

fn bench_elementwise(c: &mut Criterion) {
    let mut rng = SeededRng::new(4);
    let x = Matrix::random_normal(512, 512, 0.0, 1.0, &mut rng);
    bench_forced(c, "simd_relu_backward_512", || {
        let mut up = x.clone();
        simd::relu_backward(simd::begin_kernel(), up.as_mut_slice(), x.as_slice());
        black_box(up);
    });
}

fn bench_adam(c: &mut Criterion) {
    let mut rng = SeededRng::new(5);
    let w0 = Matrix::random_normal(512, 512, 0.0, 0.1, &mut rng);
    let g = Matrix::random_normal(512, 512, 0.0, 0.1, &mut rng);
    bench_forced(c, "simd_adam_step_512", || {
        let mut w = w0.clone();
        let mut opt = Adam::new(0.01);
        opt.step(&mut [&mut w], &[&g]);
        black_box(w);
    });
}

criterion_group!(
    name = simd_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_matmul,
        bench_matmul_narrow,
        bench_matmul_pooled,
        bench_matmul_tn,
        bench_aggregate,
        bench_mean_aggregate_backward,
        bench_elementwise,
        bench_adam
);
criterion_main!(simd_benches);
