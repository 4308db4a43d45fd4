//! Bitwise scalar/SIMD equivalence of every dispatched kernel.
//!
//! The SIMD backend's determinism contract (see `bns_tensor::simd`)
//! promises results *bitwise identical at every lane width*. These
//! tests enforce it with `f32::to_bits` comparisons — NaN-safe and
//! `-0.0`-strict — by running each dispatched kernel once per backend
//! this CPU supports and diffing against the scalar reference, on
//! inputs seeded with IEEE specials (NaN, ±0.0, ±∞, a subnormal).
//!
//! Matrix-level entry points (`matmul*`, `scatter_add_rows`) are driven
//! through [`simd::force`] instead of explicit `Backend` arguments, so
//! the per-thread override and its composition with the worker pool
//! (threads × lanes) are exercised too.

use bns_tensor::pool::{self, ThreadPool};
use bns_tensor::simd::{self, AdamHyper, Backend};
use bns_tensor::{Matrix, SeededRng};
use proptest::prelude::*;

/// Non-scalar backends this CPU can actually run (empty only on exotic
/// hosts; x86_64 always has at least SSE2, aarch64 always has NEON).
fn vector_backends() -> Vec<Backend> {
    Backend::ALL
        .into_iter()
        .filter(|bk| *bk != Backend::Scalar && bk.is_available())
        .collect()
}

/// NaN-safe, signed-zero-strict slice equality.
fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Random data with IEEE specials planted at seeded positions, so
/// every kernel sees NaN, both zero signs and subnormals somewhere in
/// its lanes *and* its scalar remainder.
///
/// Infinities are deliberately absent: `inf * 0.0` *generates* a NaN
/// (payload `0xFFC00000`) that differs bitwise from the injected
/// `f32::NAN` (`0x7FC00000`), and when two distinct-payload NaNs meet
/// in an add/mul, which payload survives is unspecified in Rust (LLVM
/// may commute the operands differently per backend). With all NaNs
/// sharing one payload, propagation is payload-invisible and bitwise
/// identity is well-defined — that is the determinism contract's NaN
/// caveat, documented in `bns_tensor::simd`.
fn special_data(rng: &mut SeededRng, len: usize) -> Vec<f32> {
    let mut v: Vec<f32> = (0..len).map(|_| rng.uniform_range(-2.0, 2.0)).collect();
    const SPECIALS: [f32; 6] = [f32::NAN, -0.0, 0.0, 1.0e-40, -1.0e-40, 1.0];
    for &s in SPECIALS
        .iter()
        .take(if len == 0 { 0 } else { SPECIALS.len() })
    {
        let at = rng.usize_below(len);
        v[at] = s;
    }
    v
}

fn special_matrix(rng: &mut SeededRng, rows: usize, cols: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    let data = special_data(rng, rows * cols);
    m.as_mut_slice().copy_from_slice(&data);
    m
}

/// Runs `f(backend, out)` on a fresh copy of `base` for the scalar
/// reference and every vector backend, asserting bitwise identity.
fn assert_lane_invariant(
    name: &str,
    base: &[f32],
    f: impl Fn(Backend, &mut [f32]),
) -> Result<(), TestCaseError> {
    let mut scalar = base.to_vec();
    f(Backend::Scalar, &mut scalar);
    for bk in vector_backends() {
        let mut out = base.to_vec();
        f(bk, &mut out);
        prop_assert!(
            bits_eq(&scalar, &out),
            "{name}: {} diverged from scalar at len {}",
            bk.name(),
            base.len()
        );
    }
    Ok(())
}

/// Runs `f` under every backend via [`simd::force`], asserting the
/// returned matrix is bitwise identical to the forced-scalar result.
fn assert_forced_invariant(name: &str, f: impl Fn() -> Matrix) -> Result<(), TestCaseError> {
    let scalar = {
        let _g = simd::force(Backend::Scalar);
        f()
    };
    for bk in vector_backends() {
        let _g = simd::force(bk);
        let got = f();
        prop_assert!(
            scalar.shape() == got.shape() && bits_eq(scalar.as_slice(), got.as_slice()),
            "{name}: forced {} diverged from forced scalar on shape {:?}",
            bk.name(),
            scalar.shape()
        );
    }
    Ok(())
}

/// `sum_rows*` over `deg` random rows of `n`, `d` wide, on every
/// backend against the scalar reference.
fn check_sum_rows(n: usize, d: usize, deg: usize, seed: u64) -> Result<(), TestCaseError> {
    let mut rng = SeededRng::new(seed);
    let src = special_data(&mut rng, n * d);
    let acc0 = special_data(&mut rng, d);
    let scales = special_data(&mut rng, n);
    let c = rng.uniform_range(-2.0, 2.0);
    let idx: Vec<u32> = (0..deg).map(|_| rng.usize_below(n) as u32).collect();

    assert_lane_invariant("sum_rows", &acc0, |bk, a| {
        simd::sum_rows(bk, a, &src, d, &idx, 0)
    })?;
    assert_lane_invariant("sum_rows_scaled", &acc0, |bk, a| {
        simd::sum_rows_scaled(bk, a, &src, d, &idx, 0, &scales)
    })?;
    assert_lane_invariant("sum_rows_rescaled", &acc0, |bk, a| {
        simd::sum_rows_rescaled(bk, a, &src, d, &idx, &scales, c)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The elementwise tier: every slice kernel the dispatch macro
    /// exports, on lengths spanning empty, sub-lane and multi-vector.
    #[test]
    fn elementwise_kernels_bitwise_across_backends(
        len in 0usize..200, seed in 0u64..1_000_000
    ) {
        let mut rng = SeededRng::new(seed);
        let out0 = special_data(&mut rng, len);
        let src = special_data(&mut rng, len);
        let alpha = rng.uniform_range(-2.0, 2.0);
        let c1 = rng.uniform_range(-2.0, 2.0);

        assert_lane_invariant("add_assign", &out0, |bk, o| simd::add_assign(bk, o, &src))?;
        assert_lane_invariant("sub_assign", &out0, |bk, o| simd::sub_assign(bk, o, &src))?;
        assert_lane_invariant("hadamard_assign", &out0, |bk, o| {
            simd::hadamard_assign(bk, o, &src)
        })?;
        assert_lane_invariant("axpy", &out0, |bk, o| simd::axpy(bk, o, alpha, &src))?;
        assert_lane_invariant("scale", &out0, |bk, o| simd::scale(bk, o, alpha))?;
        assert_lane_invariant("scaled_copy", &out0, |bk, o| {
            simd::scaled_copy(bk, o, alpha, &src)
        })?;
        assert_lane_invariant("scale_axpy", &out0, |bk, o| {
            simd::scale_axpy(bk, o, c1, alpha, &src)
        })?;
    }

    /// Activation kernels: the strict-select forward pair and the
    /// mask-multiply backward pair (NaN upstream must propagate, NaN
    /// pre-activation must gate exactly like the scalar `>`).
    #[test]
    fn activation_kernels_bitwise_across_backends(
        len in 0usize..200, seed in 0u64..1_000_000
    ) {
        let mut rng = SeededRng::new(seed);
        let out0 = special_data(&mut rng, len);
        let pre = special_data(&mut rng, len);
        let slope = rng.uniform_range(0.01, 0.5);

        assert_lane_invariant("relu", &out0, simd::relu)?;
        assert_lane_invariant("leaky_relu", &out0, |bk, o| simd::leaky_relu(bk, o, slope))?;
        assert_lane_invariant("relu_backward", &out0, |bk, o| {
            simd::relu_backward(bk, o, &pre)
        })?;
        assert_lane_invariant("leaky_relu_backward", &out0, |bk, o| {
            simd::leaky_relu_backward(bk, o, &pre, slope)
        })?;
    }

    /// Aggregation kernels: gather-sums over random index lists
    /// (duplicates allowed — accumulation order must hold).
    #[test]
    fn aggregation_kernels_bitwise_across_backends(
        n in 1usize..40, d in 1usize..24, deg in 0usize..24, seed in 0u64..1_000_000
    ) {
        check_sum_rows(n, d, deg, seed)?;
    }

    /// Widths 24 and 41 run the 16-lane backend's step-down tails
    /// (16 + 8, and 32 + 8 + 1 columns) on top of the proptest's
    /// narrower rows.
    #[test]
    fn aggregation_kernels_bitwise_at_step_down_widths(
        wide in 0usize..2, n in 1usize..40, deg in 0usize..24, seed in 0u64..1_000_000
    ) {
        check_sum_rows(n, [24, 41][wide], deg, seed)?;
    }

    /// Adam: p, m and v must all come out bitwise identical (div and
    /// sqrt are correctly rounded on every backend).
    #[test]
    fn adam_update_bitwise_across_backends(
        len in 0usize..200, seed in 0u64..1_000_000
    ) {
        let mut rng = SeededRng::new(seed);
        let p0 = special_data(&mut rng, len);
        let g = special_data(&mut rng, len);
        let m0: Vec<f32> = (0..len).map(|_| rng.uniform_range(-0.5, 0.5)).collect();
        let v0: Vec<f32> = (0..len).map(|_| rng.uniform_range(0.0, 0.5)).collect();
        let h = AdamHyper {
            lr: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 1e-4,
            b1t: 1.0 - 0.9f32.powi(3),
            b2t: 1.0 - 0.999f32.powi(3),
        };

        let run = |bk: Backend| {
            let (mut p, mut m, mut v) = (p0.clone(), m0.clone(), v0.clone());
            simd::adam_update(bk, &mut p, &g, &mut m, &mut v, &h);
            (p, m, v)
        };
        let (ps, ms, vs) = run(Backend::Scalar);
        for bk in vector_backends() {
            let (p, m, v) = run(bk);
            prop_assert!(bits_eq(&ps, &p), "adam p: {} diverged", bk.name());
            prop_assert!(bits_eq(&ms, &m), "adam m: {} diverged", bk.name());
            prop_assert!(bits_eq(&vs, &v), "adam v: {} diverged", bk.name());
        }
    }

    /// The three matmul variants through the public `Matrix` API under
    /// a forced backend — covers the tiled NN kernel, the TN kernel and
    /// the NT transpose-then-NN route.
    #[test]
    fn matmul_variants_bitwise_across_backends(
        m in 1usize..48, k in 1usize..32, n in 1usize..32, seed in 0u64..1_000_000
    ) {
        let mut rng = SeededRng::new(seed);
        let a = special_matrix(&mut rng, m, k);
        let b = special_matrix(&mut rng, k, n);
        let bt = special_matrix(&mut rng, n, k);
        let at = special_matrix(&mut rng, k, m);

        assert_forced_invariant("matmul", || a.matmul(&b))?;
        assert_forced_invariant("matmul_tn", || at.matmul_tn(&b))?;
        assert_forced_invariant("matmul_nt", || a.matmul_nt(&bt))?;
    }

    /// Row-level Matrix helpers that dispatch the elementwise kernels.
    #[test]
    fn matrix_helpers_bitwise_across_backends(
        rows in 1usize..32, cols in 1usize..24, seed in 0u64..1_000_000
    ) {
        let mut rng = SeededRng::new(seed);
        let base = special_matrix(&mut rng, rows, cols);
        let other = special_matrix(&mut rng, rows, cols);
        let bias = special_data(&mut rng, cols);
        let n_src = rng.usize_below(rows) + 1;
        let src = special_matrix(&mut rng, n_src, cols);
        let idx: Vec<usize> = (0..n_src).map(|_| rng.usize_below(rows)).collect();

        assert_forced_invariant("Matrix::add_assign", || {
            let mut x = base.clone();
            x.add_assign(&other);
            x
        })?;
        assert_forced_invariant("Matrix::axpy", || {
            let mut x = base.clone();
            x.axpy(0.37, &other);
            x
        })?;
        assert_forced_invariant("Matrix::hadamard", || base.hadamard(&other))?;
        assert_forced_invariant("Matrix::add_row_broadcast", || {
            let mut x = base.clone();
            x.add_row_broadcast(&bias);
            x
        })?;
        assert_forced_invariant("Matrix::scatter_add_rows", || {
            let mut x = base.clone();
            x.scatter_add_rows(&idx, &src);
            x
        })?;
    }

    /// Threads × lanes: a pooled, vectorized matmul must equal the
    /// serial scalar product bit for bit. Rows are large enough to
    /// clear the fan-out threshold at 4 threads.
    #[test]
    fn pool_and_lanes_compose_bitwise(seed in 0u64..1_000_000) {
        let mut rng = SeededRng::new(seed);
        let a = Matrix::random_normal(192, 40, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(40, 24, 0.0, 1.0, &mut rng);
        let serial_scalar = {
            let _g = simd::force(Backend::Scalar);
            a.matmul(&b)
        };
        for bk in vector_backends() {
            let _g = simd::force(bk);
            for threads in [1usize, 2, 4] {
                let _p = pool::install(ThreadPool::new(threads));
                let got = a.matmul(&b);
                prop_assert!(
                    bits_eq(serial_scalar.as_slice(), got.as_slice()),
                    "{} x {} threads diverged from serial scalar",
                    bk.name(),
                    threads
                );
            }
        }
    }
}

/// Forced dispatches land on the forced backend's counter — one count
/// per top-level kernel entry, none for the per-row inner calls.
#[test]
fn dispatch_stats_attribute_forced_kernels() {
    let mut rng = SeededRng::new(9);
    let a = Matrix::random_normal(8, 6, 0.0, 1.0, &mut rng);
    let b = Matrix::random_normal(6, 5, 0.0, 1.0, &mut rng);

    let _ = simd::take_thread_stats();
    for bk in Backend::ALL.into_iter().filter(|bk| bk.is_available()) {
        let before = simd::thread_stats().get(bk);
        let _g = simd::force(bk);
        let _ = a.matmul(&b);
        let mut x = a.clone();
        x.scale(2.0);
        assert_eq!(
            simd::thread_stats().get(bk) - before,
            2,
            "expected exactly two top-level dispatches on {}",
            bk.name()
        );
    }
    let drained = simd::take_thread_stats();
    assert!(
        drained.total() >= 2,
        "drain returned the accumulated counts"
    );
    assert_eq!(simd::thread_stats().total(), 0, "drain must reset");
}

/// `detect` is the best available backend and is what `auto`, unknown
/// and unavailable requests resolve to; explicit available names win.
#[test]
fn resolve_honors_explicit_available_backends() {
    let best = simd::detect();
    assert!(best.is_available());
    assert_eq!(simd::resolve(None), best);
    assert_eq!(simd::resolve(Some("auto")), best);
    assert_eq!(simd::resolve(Some("definitely-not-an-isa")), best);
    assert_eq!(simd::resolve(Some("scalar")), Backend::Scalar);
    for bk in vector_backends() {
        assert_eq!(simd::resolve(Some(bk.name())), bk);
        assert_eq!(simd::resolve(Some(&bk.name().to_uppercase())), bk);
    }
}

/// On a CPU reporting `avx512f`, the 16-lane backend is the detected
/// default and is among the backends every cross-backend check in this
/// file forces (a kernel forced to it counts on its own dispatch slot).
#[test]
#[cfg(target_arch = "x86_64")]
fn avx512_is_detected_and_checked_where_the_cpu_has_it() {
    if !std::arch::is_x86_feature_detected!("avx512f") {
        assert!(!Backend::Avx512.is_available());
        assert!(!vector_backends().contains(&Backend::Avx512));
        return;
    }
    assert_eq!(simd::detect(), Backend::Avx512);
    assert!(vector_backends().contains(&Backend::Avx512));

    let src: Vec<f32> = (0..41).map(|i| i as f32 - 20.5).collect();
    let before = simd::thread_stats();
    assert_lane_invariant("add_assign over 41 floats", &src, |bk, o| {
        let _g = simd::force(bk);
        simd::add_assign(simd::begin_kernel(), o, &src)
    })
    .unwrap();
    let after = simd::thread_stats();
    assert_eq!(
        after.avx512 - before.avx512,
        1,
        "the check ran AVX-512 once"
    );
    assert_eq!(
        after.avx2 - before.avx2,
        1,
        "and AVX2 once, on its own slot"
    );
}
