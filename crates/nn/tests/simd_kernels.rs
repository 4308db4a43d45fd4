//! Bitwise scalar/SIMD equivalence of the nn-layer hot paths, plus a
//! gradient check *through* the SIMD backend.
//!
//! The tensor crate proves each dispatched slice kernel matches its
//! scalar reference bit for bit; these tests prove the same for the
//! composed consumers — aggregates (fused, segmented, backward),
//! activations, the Adam step and the GAT layer — under
//! [`simd::force`], so the whole forward/backward pipeline is lane-
//! width invariant. The final test runs finite-difference gradient
//! checks with the best vector backend forced, pinning numerical
//! correctness (not just self-consistency) of the vectorized path.

use bns_graph::generators::{erdos_renyi_m, ring};
use bns_nn::aggregate::{
    gcn_aggregate, gcn_aggregate_backward, gcn_aggregate_inner, gcn_fold_boundary,
    scaled_sum_aggregate, scaled_sum_aggregate_backward, scaled_sum_aggregate_inner,
    scaled_sum_fold_boundary,
};
use bns_nn::gradcheck::finite_diff;
use bns_nn::{Activation, Adam, GatLayer, SageLayer};
use bns_tensor::simd::{self, Backend};
use bns_tensor::{Matrix, SeededRng};

const N: usize = 40;
const D: usize = 7;

/// Non-scalar backends this CPU can run.
fn vector_backends() -> Vec<Backend> {
    Backend::ALL
        .into_iter()
        .filter(|bk| *bk != Backend::Scalar && bk.is_available())
        .collect()
}

/// NaN-safe, signed-zero-strict equality.
fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs `f` forced-scalar and forced to each vector backend, asserting
/// every returned matrix is bitwise identical to the scalar one.
fn assert_forced_invariant(name: &str, f: impl Fn() -> Vec<Matrix>) {
    let scalar = {
        let _g = simd::force(Backend::Scalar);
        f()
    };
    for bk in vector_backends() {
        let _g = simd::force(bk);
        let got = f();
        assert_eq!(scalar.len(), got.len(), "{name}: output count");
        for (i, (s, v)) in scalar.iter().zip(&got).enumerate() {
            assert!(
                bits_eq(s, v),
                "{name}[{i}]: {} diverged from scalar",
                bk.name()
            );
        }
    }
}

fn take_rows(m: &Matrix, lo: usize, hi: usize) -> Matrix {
    let rows: Vec<&[f32]> = (lo..hi).map(|r| m.row(r)).collect();
    Matrix::from_rows(&rows)
}

#[test]
fn aggregates_bitwise_across_backends() {
    let mut rng = SeededRng::new(21);
    let g = erdos_renyi_m(N, 3 * N, &mut rng);
    let h = Matrix::random_normal(N, D, 0.0, 1.0, &mut rng);
    let scale: Vec<f32> = (0..N).map(|_| rng.uniform_range(0.1, 2.0)).collect();

    assert_forced_invariant("scaled_sum fwd+bwd", || {
        let fwd = scaled_sum_aggregate(&g, &h, N, &scale);
        let bwd = scaled_sum_aggregate_backward(&g, &fwd, N, &scale);
        vec![fwd, bwd]
    });
    assert_forced_invariant("gcn fwd+bwd", || {
        let fwd = gcn_aggregate(&g, &h, N, &scale);
        let bwd = gcn_aggregate_backward(&g, &fwd, N, &scale);
        vec![fwd, bwd]
    });
}

#[test]
fn segmented_aggregates_bitwise_across_backends() {
    let mut rng = SeededRng::new(22);
    let g = ring(N);
    let h = Matrix::random_normal(N, D, 0.0, 1.0, &mut rng);
    let n_inner = N - 4;
    let h_inner = take_rows(&h, 0, n_inner);
    let h_bd = take_rows(&h, n_inner, N);
    let scale: Vec<f32> = (0..N).map(|_| rng.uniform_range(0.1, 2.0)).collect();

    assert_forced_invariant("segmented scaled_sum", || {
        let mut z = scaled_sum_aggregate_inner(&g, &h_inner, n_inner);
        scaled_sum_fold_boundary(&g, &mut z, &h_bd, n_inner, &scale[..n_inner]);
        vec![z]
    });
    assert_forced_invariant("segmented gcn", || {
        let mut z = gcn_aggregate_inner(&g, &h_inner, n_inner, &scale);
        gcn_fold_boundary(&g, &mut z, &h_inner, &h_bd, n_inner, &scale);
        vec![z]
    });
}

#[test]
fn activations_bitwise_across_backends_with_specials() {
    // Plant the IEEE specials the kernels' select semantics care about.
    let mut pre = Matrix::random_normal(9, D, 0.0, 1.0, &mut SeededRng::new(23));
    pre[(0, 0)] = f32::NAN;
    pre[(1, 1)] = -0.0;
    pre[(2, 2)] = 0.0;
    pre[(3, 3)] = f32::INFINITY;
    pre[(4, 4)] = f32::NEG_INFINITY;
    pre[(5, 5)] = 1.0e-40;
    let mut up = Matrix::random_normal(9, D, 0.0, 1.0, &mut SeededRng::new(24));
    up[(0, 1)] = f32::NAN;
    up[(6, 2)] = -0.0;

    for act in [
        Activation::Relu,
        Activation::LeakyRelu(0.2),
        Activation::Elu,
    ] {
        assert_forced_invariant("activation fwd+bwd", || {
            vec![act.apply(&pre), act.backward(&pre, &up)]
        });
    }

    // The documented forward semantics, on every backend: NaN and both
    // zero signs map to +0.0; the backward mask multiplies, so NaN
    // upstream propagates wherever pre > 0.
    for bk in std::iter::once(Backend::Scalar).chain(vector_backends()) {
        let _g = simd::force(bk);
        let y = Activation::Relu.apply(&pre);
        assert_eq!(y[(0, 0)].to_bits(), 0.0f32.to_bits(), "NaN -> +0.0");
        assert_eq!(y[(1, 1)].to_bits(), 0.0f32.to_bits(), "-0.0 -> +0.0");
        let dy = Activation::Relu.backward(&pre, &up);
        assert!(dy[(0, 1)].is_nan(), "NaN upstream propagates where pre > 0");
    }
}

#[test]
fn adam_step_bitwise_across_backends() {
    let run = || {
        let mut rng = SeededRng::new(25);
        let mut w = Matrix::random_normal(13, D, 0.0, 1.0, &mut rng);
        let mut b = Matrix::random_normal(1, D, 0.0, 1.0, &mut rng);
        let mut opt = Adam::new(0.05);
        opt.weight_decay = 1e-3;
        for step in 0..5 {
            let gw = Matrix::from_fn(13, D, |r, c| {
                0.1 * (r as f32 - c as f32) + 0.01 * step as f32
            });
            let gb = Matrix::from_fn(1, D, |_, c| 0.2 - 0.05 * c as f32);
            opt.step(&mut [&mut w, &mut b], &[&gw, &gb]);
        }
        vec![w, b]
    };
    assert_forced_invariant("adam 5 steps", run);
}

#[test]
fn gat_layer_bitwise_across_backends() {
    let mut rng = SeededRng::new(26);
    let g = erdos_renyi_m(20, 50, &mut rng);
    let layer = GatLayer::new(5, 6, Activation::LeakyRelu(0.1), 0.0, &mut rng);
    let h = Matrix::random_normal(20, 5, 0.0, 1.0, &mut rng);
    let d_out = Matrix::random_normal(14, 6, 0.0, 1.0, &mut rng);

    assert_forced_invariant("gat fwd+bwd", || {
        let mut r = SeededRng::new(0);
        let (z, cache) = layer.forward(&g, &h, 14, false, &mut r);
        let (dh, grads) = layer.backward(&cache, &d_out);
        vec![z, dh, grads.w, grads.a_l, grads.a_r]
    });
}

/// Gradient check *through* the vectorized path: with the best backend
/// forced, a SAGE layer's analytic input gradient still matches finite
/// differences. This is the correctness (not just consistency) anchor
/// for the SIMD kernels — matmul, aggregate, activation and the
/// backward gathers all sit on this loss surface.
#[test]
fn sage_gradcheck_through_simd_path() {
    let best = simd::detect();
    let _g = simd::force(best);

    let mut rng = SeededRng::new(27);
    let g = erdos_renyi_m(10, 22, &mut rng);
    let layer = SageLayer::new(3, 4, Activation::Relu, 0.0, &mut rng);
    let x = Matrix::random_normal(10, 3, 0.0, 1.0, &mut rng);
    let scale: Vec<f32> = (0..10).map(|v| 1.0 / g.degree(v).max(1) as f32).collect();

    let loss_of = |xp: &Matrix| -> f64 {
        let mut r = SeededRng::new(0);
        let (out, _) = layer.forward(&g, xp, 10, &scale, false, &mut r);
        out.as_slice().iter().map(|&v| (v as f64).powi(2)).sum()
    };

    let mut r = SeededRng::new(0);
    let (out, cache) = layer.forward(&g, &x, 10, &scale, false, &mut r);
    let mut d = out.clone();
    d.scale(2.0);
    let (dx, _) = layer.backward(&g, &cache, &d);
    let fd = finite_diff(&x, 1e-2, loss_of);
    assert!(
        dx.approx_eq(&fd, 0.08),
        "SIMD-path gradient mismatch under {}: {}",
        best.name(),
        dx.max_abs_diff(&fd)
    );
}

/// Same check forced to scalar, and the two analytic gradients must be
/// bitwise identical — gradcheck plus lane invariance in one shot.
#[test]
fn sage_gradients_identical_scalar_vs_vector() {
    let mut rng = SeededRng::new(28);
    let g = erdos_renyi_m(12, 30, &mut rng);
    let layer = SageLayer::new(4, 5, Activation::Relu, 0.0, &mut rng);
    let x = Matrix::random_normal(12, 4, 0.0, 1.0, &mut rng);
    let scale: Vec<f32> = (0..12).map(|v| 1.0 / g.degree(v).max(1) as f32).collect();
    let d = Matrix::filled(12, 5, 1.0);

    assert_forced_invariant("sage fwd+bwd", || {
        let mut r = SeededRng::new(0);
        let (out, cache) = layer.forward(&g, &x, 12, &scale, false, &mut r);
        let (dx, grads) = layer.backward(&g, &cache, &d);
        vec![out, dx, grads.w_self, grads.w_neigh, grads.b]
    });
}

/// The segmented backward gather as it was before it went
/// register-resident, kept as the reference: per row, each source
/// segment folds into a partial buffer zeroed to `+0.0` (the first one
/// straight into the zeroed row), through the plain gather kernels, and
/// the partials are added to the row in segment order. `fold(acc, srcs,
/// u, self_here)` is the per-segment fold.
fn partial_buffer_gather(
    g: &bns_graph::CsrGraph,
    (n_out, n_rows_h, d): (usize, usize, usize),
    bk: Backend,
    fold: impl Fn(&mut [f32], &[u32], usize, bool),
) -> Matrix {
    let segment_rows = if cfg!(miri) { 4 } else { 256 };
    let n_seg = n_out.div_ceil(segment_rows).clamp(1, 8);
    let seg = n_out.div_ceil(n_seg).max(1);
    let mut dh = Matrix::zeros(n_rows_h, d);
    let mut partial = vec![0.0f32; d];
    for u in 0..g.num_nodes() {
        let row = &mut dh.as_mut_slice()[u * d..(u + 1) * d];
        let nb = g.neighbors(u);
        let srcs = &nb[..nb.partition_point(|&v| (v as usize) < n_out)];
        let (mut start, mut first) = (0, true);
        for b in 0..n_seg {
            let end = start + srcs[start..].partition_point(|&v| (v as usize) < (b + 1) * seg);
            let self_here = u < n_out && u / seg == b;
            if end > start || self_here {
                let acc = if first { &mut *row } else { &mut partial[..] };
                acc.fill(0.0);
                fold(acc, &srcs[start..end], u, self_here);
                if !first {
                    simd::add_assign(bk, row, &partial);
                }
                first = false;
            }
            start = end;
        }
    }
    dh
}

/// The register-resident segmented backward gathers (SAGE mean and GCN
/// with its self term) against [`partial_buffer_gather`], bit for bit,
/// on every backend at 1 and 4 pool threads: rows whose sources span
/// all 8 segments, boundary rows (sources only, no self term), GCN self
/// terms in the first, middle and last segment, a column of `-0.0`
/// terms (whose sums must stay `+0.0`) and a width with a two-vector
/// strip plus every step-down tail. The row-range form used by the
/// first layer's backward must give the same boundary rows.
#[test]
fn segmented_gather_matches_partial_buffer_reference() {
    use bns_nn::aggregate::{
        gcn_aggregate_backward_into, gcn_aggregate_backward_rows_into,
        scaled_sum_aggregate_backward_into, scaled_sum_aggregate_backward_rows_into,
    };
    use bns_tensor::pool::{self, ThreadPool};
    let (n_out, n_bd, d) = (2100usize, 60usize, 47usize);
    let n = n_out + n_bd;
    let mut rng = SeededRng::new(23);
    let mut b = bns_graph::GraphBuilder::new(n);
    for u in 0..n_out {
        for _ in 0..6 {
            let v = rng.usize_below(n);
            if v != u {
                b.add_edge(u, v);
            }
        }
    }
    let g = b.build();
    let mut dz = Matrix::random_normal(n_out, d, 0.0, 1.0, &mut rng);
    for r in 0..n_out {
        dz[(r, 0)] = -0.0;
        if r % 3 == 0 {
            dz[(r, 5)] = -0.0;
        }
    }
    let scale: Vec<f32> = (0..n).map(|_| rng.uniform_range(0.1, 2.0)).collect();
    let sage_scale = &scale[..n_out];
    let covered = (0..n).filter(|&u| {
        let nb = g.neighbors(u);
        let (lo, hi) = (
            nb.first().copied(),
            nb.partition_point(|&v| (v as usize) < n_out),
        );
        lo.is_some_and(|lo| (lo as usize) < 263) && hi > 0 && nb[hi - 1] as usize >= 7 * 263
    });
    assert!(
        covered.count() > 100,
        "rows must span the first to the last segment"
    );
    for bk in Backend::ALL.into_iter().filter(|bk| bk.is_available()) {
        let sage_ref = partial_buffer_gather(&g, (n_out, n, d), bk, |acc, srcs, _, _| {
            simd::sum_rows_scaled(bk, acc, dz.as_slice(), d, srcs, 0, sage_scale);
        });
        let gcn_ref = partial_buffer_gather(&g, (n_out, n, d), bk, |acc, srcs, u, self_here| {
            let (below, above) = srcs.split_at(srcs.partition_point(|&v| (v as usize) < u));
            simd::sum_rows_rescaled(bk, acc, dz.as_slice(), d, below, &scale, scale[u]);
            if self_here {
                simd::axpy(bk, acc, scale[u] * scale[u], dz.row(u));
            }
            simd::sum_rows_rescaled(bk, acc, dz.as_slice(), d, above, &scale, scale[u]);
        });
        assert!(sage_ref.as_slice().chunks(d).all(|r| r[0].to_bits() == 0));
        let bd_ref = |m: &Matrix| Matrix::from_vec(n_bd, d, m.as_slice()[n_out * d..].to_vec());
        for threads in [1, 4] {
            let _f = simd::force(bk);
            let _p = pool::install(ThreadPool::new(threads));
            let what = format!("{} at {threads} threads", bk.name());
            let mut got = Matrix::filled(3, 2, f32::NAN);
            scaled_sum_aggregate_backward_into(&g, &dz, n, sage_scale, &mut got);
            assert!(bits_eq(&got, &sage_ref), "SAGE gather, {what}");
            scaled_sum_aggregate_backward_rows_into(&g, &dz, n_out..n, sage_scale, &mut got);
            assert!(
                bits_eq(&got, &bd_ref(&sage_ref)),
                "SAGE boundary rows, {what}"
            );
            gcn_aggregate_backward_into(&g, &dz, n, &scale, &mut got);
            assert!(bits_eq(&got, &gcn_ref), "GCN gather, {what}");
            gcn_aggregate_backward_rows_into(&g, &dz, n_out..n, &scale, &mut got);
            assert!(
                bits_eq(&got, &bd_ref(&gcn_ref)),
                "GCN boundary rows, {what}"
            );
        }
    }
}
