//! Miri-sized exercise of every raw-pointer kernel in bns-tensor: the
//! pool's `JobBatch` dispatch and the three parallel matmul variants,
//! including the GEMM register tile and its row and column tails.
//!
//! Run under Miri with:
//!
//! ```text
//! cargo +nightly miri test -p bns-tensor --test miri_kernels
//! ```
//!
//! Under `cfg(miri)` the kernels' serial/parallel thresholds shrink
//! (`PAR_MIN_WORK`, see src/matrix.rs), so the small inputs here still
//! fan out across a real multi-thread pool and Miri checks the
//! `from_raw_parts_mut` aliasing claims on the genuinely concurrent
//! path. The same tests run natively (larger sizes) as ordinary
//! regression tests; each one asserts via `DispatchStats` that the
//! parallel path actually ran — a silent serial fallback would make
//! the whole exercise vacuous.

use bns_tensor::pool::{self, ThreadPool};
use bns_tensor::simd::{self, Backend};
use bns_tensor::{Matrix, SeededRng};
use std::sync::atomic::{AtomicUsize, Ordering};

// Ten rows run two full four-row GEMM tiles and a two-row tail; nine
// columns run a two-vector strip at SSE2's four lanes plus one single
// column, so the serial products below go through the full register
// tile and both tails.
#[cfg(miri)]
const M: usize = 10;
#[cfg(miri)]
const K: usize = 6;
#[cfg(miri)]
const N: usize = 9;

#[cfg(not(miri))]
const M: usize = 200;
#[cfg(not(miri))]
const K: usize = 48;
#[cfg(not(miri))]
const N: usize = 40;

/// Naive reference product with the same ascending-`k` accumulation
/// order as the kernels, so equality can be exact.
fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a.row(i)[k];
            for j in 0..b.cols() {
                out.row_mut(i)[j] += av * b.row(k)[j];
            }
        }
    }
    out
}

fn transpose(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.cols(), m.rows());
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            out.row_mut(j)[i] = m.row(i)[j];
        }
    }
    out
}

#[test]
fn pool_runs_every_job_exactly_once() {
    let pool = ThreadPool::new(3);
    let n_jobs = if cfg!(miri) { 8 } else { 64 };
    let hits: Vec<AtomicUsize> = (0..n_jobs).map(|_| AtomicUsize::new(0)).collect();
    pool.run(n_jobs, &|i| {
        hits[i].fetch_add(1, Ordering::SeqCst);
    });
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(h.load(Ordering::SeqCst), 1, "job {i}");
    }
    assert!(pool.stats().parallel_dispatches > 0);
}

#[test]
fn parallel_row_blocks_covers_rows_disjointly() {
    let _guard = pool::install(ThreadPool::new(3));
    let rows = if cfg!(miri) { 13 } else { 211 };
    let seen: Vec<AtomicUsize> = (0..rows).map(|_| AtomicUsize::new(0)).collect();
    pool::parallel_row_blocks(rows, 1, &|r0, r1| {
        for s in &seen[r0..r1] {
            s.fetch_add(1, Ordering::SeqCst);
        }
    });
    for (r, s) in seen.iter().enumerate() {
        assert_eq!(s.load(Ordering::SeqCst), 1, "row {r}");
    }
}

#[test]
fn matmul_variants_parallel_match_serial_bitwise() {
    let mut rng = SeededRng::new(7);
    let a = Matrix::random_normal(M, K, 0.0, 1.0, &mut rng);
    let b = Matrix::random_normal(K, N, 0.0, 1.0, &mut rng);

    // Serial results first (no pool installed => inline fallback).
    let nn_serial = a.matmul(&b);
    let tn_serial = transpose(&a).matmul_tn(&b);
    let nt_serial = a.matmul_nt(&transpose(&b));

    // Same products through a multi-thread pool.
    let pool = ThreadPool::new(3);
    let guard = pool::install(pool.clone());
    let nn_par = a.matmul(&b);
    let tn_par = transpose(&a).matmul_tn(&b);
    let nt_par = a.matmul_nt(&transpose(&b));
    assert!(
        pool.stats().parallel_dispatches >= 3,
        "matmul sizes did not reach the parallel path: {:?}",
        pool.stats()
    );
    drop(guard);

    // The determinism contract: identical bits, any thread count.
    assert_eq!(nn_serial, nn_par, "matmul");
    assert_eq!(tn_serial, tn_par, "matmul_tn");
    assert_eq!(nt_serial, nt_par, "matmul_nt");

    // And the values are the actual product.
    let reference = reference_matmul(&a, &b);
    assert_eq!(nn_serial, reference, "matmul accumulation order");
    for i in 0..M {
        for j in 0..N {
            let r = reference.row(i)[j];
            assert!((tn_serial.row(i)[j] - r).abs() <= 1e-4 * r.abs().max(1.0));
            assert!((nt_serial.row(i)[j] - r).abs() <= 1e-4 * r.abs().max(1.0));
        }
    }
}

/// The SIMD dispatch layer under Miri: SSE2 (statically guaranteed on
/// x86_64, so the intrinsic path is exercisable even under the
/// interpreter) and any other available backend must match the forced-
/// scalar result bitwise, and every forced dispatch must land on the
/// forced backend's `DispatchStats` counter — including through a
/// multi-thread pool, where the backend is resolved on the calling
/// thread and shipped into the workers.
#[test]
fn simd_backends_dispatch_and_match_scalar_bitwise() {
    let mut rng = SeededRng::new(17);
    let a = Matrix::random_normal(M, K, 0.0, 1.0, &mut rng);
    let b = Matrix::random_normal(K, N, 0.0, 1.0, &mut rng);

    let _ = simd::take_thread_stats();
    let scalar = {
        let _g = simd::force(Backend::Scalar);
        a.matmul(&b)
    };
    assert_eq!(
        simd::thread_stats().get(Backend::Scalar),
        1,
        "one forced-scalar matmul = one scalar dispatch"
    );

    let vector: Vec<Backend> = Backend::ALL
        .into_iter()
        .filter(|bk| *bk != Backend::Scalar && bk.is_available())
        .collect();
    assert!(
        cfg!(not(target_arch = "x86_64")) || vector.contains(&Backend::Sse2),
        "SSE2 is baseline on x86_64, so Miri must be able to force it"
    );
    for bk in vector {
        let before = simd::thread_stats().get(bk);
        let _g = simd::force(bk);
        let serial = a.matmul(&b);
        let pooled = {
            let _p = pool::install(ThreadPool::new(3));
            a.matmul(&b)
        };
        assert_eq!(serial, scalar, "{} serial vs scalar", bk.name());
        assert_eq!(pooled, scalar, "{} pooled vs scalar", bk.name());
        assert_eq!(
            simd::thread_stats().get(bk) - before,
            2,
            "both {} matmuls must count on the forced backend",
            bk.name()
        );
    }

    let drained = simd::take_thread_stats();
    assert!(drained.total() >= 1, "drain returns accumulated counts");
    assert_eq!(simd::thread_stats().total(), 0, "drain resets the stats");
}
