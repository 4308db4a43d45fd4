//! Bitwise serial/parallel equivalence of the aggregation kernels, the
//! backward gathers pinned to the partial-buffer scatter they replaced,
//! and a gradient check run entirely through the parallel path.
//!
//! The backward kernels gather each output row on one thread, summing
//! its sources in segments that depend only on the problem size (never
//! the thread count) — so like the matmul kernels they promise *bitwise
//! identical* results at any pool size. Graph sizes here are chosen to
//! clear the fan-out threshold (64 rows per block) and to span several
//! 256-row source segments, not just fall back to the serial path.

mod support;

use bns_graph::generators::erdos_renyi_m;
use bns_graph::{CsrGraph, GraphBuilder};
use bns_nn::aggregate::{
    gcn_aggregate, gcn_aggregate_backward, scaled_sum_aggregate, scaled_sum_aggregate_backward,
};
use bns_nn::gradcheck::finite_diff;
use bns_nn::loss::softmax_cross_entropy;
use bns_nn::{Layer, ModelArch};
use bns_tensor::pool::{self, ThreadPool};
use bns_tensor::simd::{self, Backend};
use bns_tensor::{Matrix, SeededRng};
use proptest::prelude::*;
use support::Pass;

fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn assert_thread_invariant(f: impl Fn() -> Matrix) -> Result<(), TestCaseError> {
    let serial = f();
    for threads in [1usize, 2, 4] {
        let _guard = pool::install(ThreadPool::new(threads));
        let parallel = f();
        prop_assert!(
            bitwise_eq(&serial, &parallel),
            "{} threads diverged from serial on shape {:?}",
            threads,
            serial.shape()
        );
    }
    Ok(())
}

/// Test-only transcription of the backward the gathers replaced: the
/// source rows `0..n_out` split into `clamp(ceil(n_out / 256), 1, 8)`
/// equal blocks, each block scattering `row_scale[v] · dz_v` (GCN:
/// `s_v² · dz_v` into row `v`, then `s_u · (dz_v · s_v)` into each
/// neighbor `u`) into its own zeroed `n_rows_h x d` partial, and the
/// partials added to the result in ascending block order. With one
/// block it scattered straight into the result.
fn scatter_reference(g: &CsrGraph, dz: &Matrix, n_rows_h: usize, s: &[f32], gcn: bool) -> Matrix {
    let (n_out, d) = dz.shape();
    let nblocks = n_out.div_ceil(256).clamp(1, 8);
    let chunk = n_out.div_ceil(nblocks);
    let emit = |vs: std::ops::Range<usize>, dh: &mut Matrix| {
        for v in vs {
            let sv = s[v];
            if gcn {
                for j in 0..d {
                    dh[(v, j)] += sv * sv * dz[(v, j)];
                }
            }
            let dzv: Vec<f32> = dz.row(v).iter().map(|&x| x * sv).collect();
            for &u in g.neighbors(v) {
                let u = u as usize;
                let su = if gcn { s[u] } else { 1.0 };
                for j in 0..d {
                    dh[(u, j)] += if gcn { su * dzv[j] } else { dzv[j] };
                }
            }
        }
    };
    let mut dh = Matrix::zeros(n_rows_h, d);
    if nblocks <= 1 {
        emit(0..n_out, &mut dh);
        return dh;
    }
    for b in 0..nblocks {
        let mut part = Matrix::zeros(n_rows_h, d);
        emit(b * chunk..((b + 1) * chunk).min(n_out), &mut part);
        for (x, &p) in dh.as_mut_slice().iter_mut().zip(part.as_slice()) {
            *x += p;
        }
    }
    dh
}

/// A local-style graph: `n_out` inner rows, `n_bd` boundary rows that
/// only touch inner rows, and every fifth inner row isolated.
fn local_graph(n_out: usize, n_bd: usize, rng: &mut SeededRng) -> CsrGraph {
    let n = n_out + n_bd;
    let pick_inner = |rng: &mut SeededRng| loop {
        let v = rng.usize_below(n_out);
        if !v.is_multiple_of(5) {
            break v;
        }
    };
    let mut b = GraphBuilder::new(n);
    for _ in 0..3 * n_out {
        let u = pick_inner(rng);
        let v = pick_inner(rng);
        b.add_edge(u, v);
    }
    for w in n_out..n {
        for _ in 0..1 + w % 4 {
            let u = pick_inner(rng);
            b.add_edge(w, u);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Both backward gathers equal the partial-buffer scatter bit for
    /// bit, on every backend and pool size, with several source
    /// segments, boundary rows past `n_out`, spare rows past the graph
    /// and isolated nodes.
    #[test]
    fn backward_gathers_match_partial_buffer_scatter(
        n_out in 513usize..1400, n_bd in 1usize..200, d in 1usize..20, seed in 0u64..1_000_000
    ) {
        let mut rng = SeededRng::new(seed);
        let g = local_graph(n_out, n_bd, &mut rng);
        let n_rows_h = g.num_nodes() + 3;
        let dz = Matrix::random_normal(n_out, d, 0.0, 1.0, &mut rng);
        let row_scale: Vec<f32> = (0..n_out).map(|_| rng.uniform_range(0.1, 2.0)).collect();
        let s: Vec<f32> = (0..g.num_nodes())
            .map(|v| 1.0 / ((g.degree(v) + 1) as f32).sqrt())
            .collect();
        let mean_ref = scatter_reference(&g, &dz, n_rows_h, &row_scale, false);
        let gcn_ref = scatter_reference(&g, &dz, n_rows_h, &s, true);
        for bk in Backend::ALL.into_iter().filter(|bk| bk.is_available()) {
            let _g = simd::force(bk);
            for threads in [1usize, 2, 4] {
                let _p = pool::install(ThreadPool::new(threads));
                let mean = scaled_sum_aggregate_backward(&g, &dz, n_rows_h, &row_scale);
                let gcn = gcn_aggregate_backward(&g, &dz, n_rows_h, &s);
                prop_assert!(
                    bitwise_eq(&mean, &mean_ref),
                    "scaled-sum backward: {} at {threads} threads", bk.name()
                );
                prop_assert!(
                    bitwise_eq(&gcn, &gcn_ref),
                    "gcn backward: {} at {threads} threads", bk.name()
                );
            }
        }
    }

    /// scaled_sum_aggregate forward + backward, random graphs/features.
    #[test]
    fn scaled_sum_bitwise_any_thread_count(
        n in 80usize..600, d in 1usize..16, seed in 0u64..1_000_000
    ) {
        let mut rng = SeededRng::new(seed);
        let g = erdos_renyi_m(n, 3 * n, &mut rng);
        let h = Matrix::random_normal(n, d, 0.0, 1.0, &mut rng);
        let dz = Matrix::random_normal(n, d, 0.0, 1.0, &mut rng);
        let scale: Vec<f32> = (0..n).map(|_| rng.uniform_range(0.1, 2.0)).collect();
        assert_thread_invariant(|| scaled_sum_aggregate(&g, &h, n, &scale))?;
        assert_thread_invariant(|| scaled_sum_aggregate_backward(&g, &dz, n, &scale))?;
    }

    /// gcn_aggregate forward + backward (self-loop term included).
    #[test]
    fn gcn_bitwise_any_thread_count(
        n in 80usize..600, d in 1usize..16, seed in 0u64..1_000_000
    ) {
        let mut rng = SeededRng::new(seed);
        let g = erdos_renyi_m(n, 3 * n, &mut rng);
        let h = Matrix::random_normal(n, d, 0.0, 1.0, &mut rng);
        let dz = Matrix::random_normal(n, d, 0.0, 1.0, &mut rng);
        let s: Vec<f32> = (0..n)
            .map(|v| 1.0 / ((g.degree(v) + 1) as f32).sqrt())
            .collect();
        assert_thread_invariant(|| gcn_aggregate(&g, &h, n, &s))?;
        assert_thread_invariant(|| gcn_aggregate_backward(&g, &dz, n, &s))?;
    }
}

/// Full model forward/backward is bitwise reproducible under a pool —
/// aggregation and all three matmul flavours compose.
#[test]
fn model_forward_bitwise_under_pool() {
    let mut rng = SeededRng::new(77);
    let g = erdos_renyi_m(300, 900, &mut rng);
    let layers = Layer::stack(ModelArch::Sage, &[24, 32, 5], 0.0, &mut rng);
    let x = Matrix::random_normal(300, 24, 0.0, 1.0, &mut rng);
    let scale: Vec<f32> = (0..300).map(|v| 1.0 / g.degree(v).max(1) as f32).collect();

    let serial = Pass::new(&layers).forward(&layers, &g, &x, &scale);
    for threads in [2usize, 4] {
        let _guard = pool::install(ThreadPool::new(threads));
        let out = Pass::new(&layers).forward(&layers, &g, &x, &scale);
        assert!(
            bitwise_eq(&serial, &out),
            "model forward diverged at {threads} threads"
        );
    }
}

/// Finite-difference gradient check with a 4-thread pool installed:
/// both the analytic backward and every finite-difference forward run
/// through the parallel kernels.
#[test]
fn gradcheck_through_parallel_path() {
    let _guard = pool::install(ThreadPool::new(4));
    let mut rng = SeededRng::new(78);
    let g = erdos_renyi_m(10, 22, &mut rng);
    let layers = Layer::stack(ModelArch::Sage, &[3, 4, 2], 0.0, &mut rng);
    let x = Matrix::random_normal(10, 3, 0.0, 1.0, &mut rng);
    let labels = vec![0usize, 1, 0, 1, 0, 1, 0, 1, 0, 1];
    let rows: Vec<usize> = (0..10).collect();
    let scale: Vec<f32> = (0..10).map(|v| 1.0 / g.degree(v).max(1) as f32).collect();

    let mut pass = Pass::new(&layers);
    let out = pass.forward(&layers, &g, &x, &scale);
    let (_, dlogits, _) = softmax_cross_entropy(&out, &labels, &rows);
    let d = pass.backward(&layers, &g, &dlogits);
    let fd = finite_diff(&x, 1e-2, |xp| {
        let out = Pass::new(&layers).forward(&layers, &g, xp, &scale);
        softmax_cross_entropy(&out, &labels, &rows).0
    });
    assert!(
        d.approx_eq(&fd, 0.08),
        "input gradient mismatch through parallel path: {}",
        d.max_abs_diff(&fd)
    );
}
