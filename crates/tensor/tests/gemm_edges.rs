//! Edge shapes of the register-tiled GEMM kernel, pinned bit for bit
//! to a naive ascending-`k` scalar loop.
//!
//! The kernel runs tiles of four output rows by two vectors of columns,
//! with row tails of one to three rows, then column strips of one
//! vector, a half vector and a quarter vector (on AVX-512: 16, 8 and 4
//! lanes), then single leftover columns, over `k` panels of `MM_KC`
//! (128). The shapes below put every row count from one to nine (full
//! tiles plus each tail), column counts on both sides of every strip
//! width and through each step-down combination, and depths on both
//! sides of a panel boundary, through `matmul`, `matmul_tn` and
//! `matmul_nt` on every backend this CPU runs, serially and on a
//! four-thread pool.

use bns_tensor::pool::{self, ThreadPool};
use bns_tensor::simd::{self, Backend};
use bns_tensor::{Matrix, SeededRng};
use std::sync::Arc;

const ROWS: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 61];
/// 20, 24, 28, 31 and 41 put 16 + 4, 16 + 8, 16 + 8 + 4, 16 + 8 + 4 + 3
/// and 32 + 8 + 1 columns through the 16-lane strips.
const COLS: [usize; 13] = [1, 7, 8, 15, 16, 17, 20, 24, 28, 31, 41, 47, 128];
const DEPTHS: [usize; 5] = [1, 127, 128, 129, 300];

fn backends() -> Vec<Backend> {
    Backend::ALL
        .into_iter()
        .filter(|bk| bk.is_available())
        .collect()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// `out[i][j] = Σ_k a(i, k) · b(k, j)`, one chain per element started
/// at `+0.0`, `k` ascending, multiply then add.
fn reference(
    rows: usize,
    n: usize,
    kd: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Matrix {
    Matrix::from_fn(rows, n, |i, j| {
        let mut s = 0.0f32;
        for k in 0..kd {
            s += a(i, k) * b(k, j);
        }
        s
    })
}

/// Runs `f` on every backend, serially and on a four-thread pool, and
/// asserts each result equals `want` bit for bit.
fn assert_all_match(what: &str, want: &Matrix, f: impl Fn() -> Matrix) {
    thread_local! {
        static POOLS: [Arc<ThreadPool>; 2] = [ThreadPool::new(1), ThreadPool::new(4)];
    }
    let want = bits(want);
    for bk in backends() {
        let _g = simd::force(bk);
        for (threads, pool) in [1usize, 4].into_iter().zip(POOLS.with(|p| p.clone())) {
            let _p = pool::install(pool);
            assert!(
                bits(&f()) == want,
                "{what}: {} at {threads} threads diverged from the scalar loop",
                bk.name()
            );
        }
    }
}

#[test]
fn matmul_edge_shapes_match_scalar_loop() {
    let mut rng = SeededRng::new(11);
    for &kd in &DEPTHS {
        for &n in &COLS {
            let b = Matrix::random_normal(kd, n, 0.0, 1.0, &mut rng);
            for &rows in &ROWS {
                let a = Matrix::random_normal(rows, kd, 0.0, 1.0, &mut rng);
                let want = reference(rows, n, kd, |i, k| a[(i, k)], |k, j| b[(k, j)]);
                let what = format!("matmul {rows}x{kd}x{n}");
                assert_all_match(&what, &want, || a.matmul(&b));
            }
        }
    }
}

#[test]
fn matmul_tn_edge_shapes_match_scalar_loop() {
    let mut rng = SeededRng::new(12);
    for &kd in &DEPTHS {
        for &n in &COLS {
            let b = Matrix::random_normal(kd, n, 0.0, 1.0, &mut rng);
            for &rows in &ROWS {
                let a = Matrix::random_normal(kd, rows, 0.0, 1.0, &mut rng);
                let want = reference(rows, n, kd, |i, k| a[(k, i)], |k, j| b[(k, j)]);
                let what = format!("matmul_tn {rows}x{kd}x{n}");
                assert_all_match(&what, &want, || a.matmul_tn(&b));
            }
        }
    }
}

#[test]
fn matmul_nt_edge_shapes_match_scalar_loop() {
    let mut rng = SeededRng::new(13);
    for &kd in &DEPTHS {
        for &n in &COLS {
            let b = Matrix::random_normal(n, kd, 0.0, 1.0, &mut rng);
            for &rows in &ROWS {
                let a = Matrix::random_normal(rows, kd, 0.0, 1.0, &mut rng);
                let want = reference(rows, n, kd, |i, k| a[(i, k)], |k, j| b[(j, k)]);
                let what = format!("matmul_nt {rows}x{kd}x{n}");
                assert_all_match(&what, &want, || a.matmul_nt(&b));
            }
        }
    }
}

/// A NaN inside a full four-row tile poisons exactly its own output
/// row: the tile's rows share loaded `B` vectors but never accumulators.
#[test]
fn nan_in_full_tile_stays_in_its_row() {
    let mut rng = SeededRng::new(14);
    let (rows, kd, n) = (8, 129, 17);
    let mut a = Matrix::random_normal(rows, kd, 0.0, 1.0, &mut rng);
    let b = Matrix::random_normal(kd, n, 0.0, 1.0, &mut rng);
    a[(5, 100)] = f32::NAN;
    let want = reference(rows, n, kd, |i, k| a[(i, k)], |k, j| b[(k, j)]);
    for i in 0..rows {
        let nans = want.row(i).iter().filter(|x| x.is_nan()).count();
        assert_eq!(nans, if i == 5 { n } else { 0 }, "reference row {i}");
    }
    assert_all_match("matmul with a planted NaN", &want, || a.matmul(&b));
    let at = a.transpose();
    assert_all_match("matmul_tn with a planted NaN", &want, || at.matmul_tn(&b));
}
