//! Miri-sized exercise of every raw-pointer kernel in bns-nn: the
//! forward aggregates (fused and segmented inner/fold pairs) and the
//! backward segmented gathers.
//!
//! Run under Miri with:
//!
//! ```text
//! cargo +nightly miri test -p bns-nn --test miri_kernels
//! ```
//!
//! Under `cfg(miri)` the aggregation thresholds shrink
//! (`AGG_MIN_ROWS`, `SEGMENT_ROWS` in src/aggregate.rs), so the small
//! graphs here still fan the `from_raw_parts_mut` row blocks of the
//! forward and backward kernels across a real multi-thread pool, and
//! the backward sums each row over several source segments — the
//! aliasing claims get checked on the genuinely concurrent path. The
//! same tests run natively (larger sizes) as ordinary regression
//! tests; each asserts via `DispatchStats` that the parallel path
//! actually ran.

use bns_graph::generators::{erdos_renyi_m, ring};
use bns_nn::aggregate::{
    gcn_aggregate, gcn_aggregate_backward, gcn_aggregate_backward_rows_into, gcn_aggregate_inner,
    gcn_fold_boundary, scaled_sum_aggregate, scaled_sum_aggregate_backward,
    scaled_sum_aggregate_backward_rows_into, scaled_sum_aggregate_inner, scaled_sum_fold_boundary,
};
use bns_tensor::pool::{self, ThreadPool};
use bns_tensor::simd::{self, Backend};
use bns_tensor::{Matrix, SeededRng};

/// Node count: enough rows to split into several parallel blocks and
/// source segments at the active `AGG_MIN_ROWS` / `SEGMENT_ROWS`
/// thresholds.
#[cfg(miri)]
const N: usize = 16;
#[cfg(not(miri))]
const N: usize = 520;

const D: usize = 3;

fn take_rows(m: &Matrix, lo: usize, hi: usize) -> Matrix {
    let rows: Vec<&[f32]> = (lo..hi).map(|r| m.row(r)).collect();
    Matrix::from_rows(&rows)
}

#[test]
fn forward_and_backward_aggregates_parallel_match_serial_bitwise() {
    let mut rng = SeededRng::new(11);
    let g = erdos_renyi_m(N, 3 * N, &mut rng);
    let h = Matrix::random_normal(N, D, 0.0, 1.0, &mut rng);
    let scale: Vec<f32> = (0..N).map(|_| rng.uniform_range(0.1, 2.0)).collect();

    // Serial pass (no pool installed => inline fallback).
    let fwd_serial = scaled_sum_aggregate(&g, &h, N, &scale);
    let bwd_serial = scaled_sum_aggregate_backward(&g, &fwd_serial, N, &scale);
    let gcn_serial = gcn_aggregate(&g, &h, N, &scale);
    let gcn_bwd_serial = gcn_aggregate_backward(&g, &gcn_serial, N, &scale);

    // Same kernels through a multi-thread pool.
    let p = ThreadPool::new(3);
    let guard = pool::install(p.clone());
    let fwd_par = scaled_sum_aggregate(&g, &h, N, &scale);
    let bwd_par = scaled_sum_aggregate_backward(&g, &fwd_par, N, &scale);
    let gcn_par = gcn_aggregate(&g, &h, N, &scale);
    let gcn_bwd_par = gcn_aggregate_backward(&g, &gcn_par, N, &scale);
    assert!(
        p.stats().parallel_dispatches >= 4,
        "aggregate sizes did not reach the parallel path: {:?}",
        p.stats()
    );
    drop(guard);

    // The determinism contract: identical bits, any thread count.
    assert_eq!(fwd_serial, fwd_par, "scaled_sum_aggregate");
    assert_eq!(bwd_serial, bwd_par, "scaled_sum_aggregate_backward");
    assert_eq!(gcn_serial, gcn_par, "gcn_aggregate");
    assert_eq!(gcn_bwd_serial, gcn_bwd_par, "gcn_aggregate_backward");
}

#[test]
fn segmented_inner_plus_fold_matches_fused_kernels() {
    // Ring: node v's neighbors are v±1, so with the last 4 nodes
    // designated "boundary" only a few rows near the seam fold.
    let mut rng = SeededRng::new(13);
    let g = ring(N);
    let h = Matrix::random_normal(N, D, 0.0, 1.0, &mut rng);
    let n_inner = N - 4;
    let n_out = n_inner;
    let h_inner = take_rows(&h, 0, n_inner);
    let h_bd = take_rows(&h, n_inner, N);
    let scale: Vec<f32> = (0..N).map(|_| rng.uniform_range(0.1, 2.0)).collect();

    let p = ThreadPool::new(3);
    let guard = pool::install(p.clone());

    // scaled-sum pair vs. the fused kernel.
    let fused = scaled_sum_aggregate(&g, &h, n_out, &scale[..n_out]);
    let mut z = scaled_sum_aggregate_inner(&g, &h_inner, n_out);
    scaled_sum_fold_boundary(&g, &mut z, &h_bd, n_inner, &scale[..n_out]);
    assert_eq!(fused, z, "scaled-sum inner+fold vs fused");

    // GCN pair vs. the fused kernel.
    let gcn_fused = gcn_aggregate(&g, &h, n_out, &scale);
    let mut zg = gcn_aggregate_inner(&g, &h_inner, n_out, &scale);
    gcn_fold_boundary(&g, &mut zg, &h_inner, &h_bd, n_inner, &scale);
    assert_eq!(gcn_fused, zg, "gcn inner+fold vs fused");

    assert!(p.stats().parallel_dispatches > 0);
    drop(guard);
}

/// The aggregate kernels through the SIMD dispatch layer under Miri:
/// every available vector backend must reproduce the forced-scalar
/// result bitwise (SSE2 is statically guaranteed on x86_64, so the
/// intrinsic gather paths run even under the interpreter), and
/// the forced dispatches must land on that backend's `DispatchStats`
/// counter.
#[test]
fn simd_aggregates_dispatch_and_match_scalar_bitwise() {
    let mut rng = SeededRng::new(17);
    let g = erdos_renyi_m(N, 3 * N, &mut rng);
    let h = Matrix::random_normal(N, D, 0.0, 1.0, &mut rng);
    let scale: Vec<f32> = (0..N).map(|_| rng.uniform_range(0.1, 2.0)).collect();

    let _ = simd::take_thread_stats();
    let (fwd_s, bwd_s) = {
        let _f = simd::force(Backend::Scalar);
        let fwd = scaled_sum_aggregate(&g, &h, N, &scale);
        let bwd = gcn_aggregate_backward(&g, &fwd, N, &scale);
        (fwd, bwd)
    };
    let scalar_dispatches = simd::thread_stats().get(Backend::Scalar);
    assert!(
        scalar_dispatches >= 2,
        "forward + backward must both dispatch, got {scalar_dispatches}"
    );

    for bk in Backend::ALL
        .into_iter()
        .filter(|bk| *bk != Backend::Scalar && bk.is_available())
    {
        let before = simd::thread_stats().get(bk);
        let _f = simd::force(bk);
        let _p = pool::install(ThreadPool::new(3));
        let fwd = scaled_sum_aggregate(&g, &h, N, &scale);
        let bwd = gcn_aggregate_backward(&g, &fwd, N, &scale);
        assert_eq!(fwd, fwd_s, "{} forward vs scalar", bk.name());
        assert_eq!(bwd, bwd_s, "{} backward vs scalar", bk.name());
        assert!(
            simd::thread_stats().get(bk) - before >= 2,
            "forced {} dispatches must count on its own slot",
            bk.name()
        );
    }
    let _ = simd::take_thread_stats();
    assert_eq!(simd::thread_stats().total(), 0, "drain resets the stats");
}

/// The register-resident backward gather on rows whose sources span at
/// least three source segments (the graph links every row to one node
/// in each quarter of the rows, and `N - 4` output rows make three
/// segments at the active `SEGMENT_ROWS`): parallel equals serial, and
/// the row-range form the first layer uses writes the full gather's
/// boundary rows.
#[test]
fn segmented_backward_gather_spans_segments() {
    let n_out = N - 4;
    let edges = (0..n_out).flat_map(|u| (0..4).map(move |q| (u, (u + q * N / 4 + 1) % N)));
    let g = bns_graph::CsrGraph::from_edges(N, edges.filter(|&(u, v)| u != v));
    let mut rng = SeededRng::new(19);
    let dz = Matrix::random_normal(n_out, D, 0.0, 1.0, &mut rng);
    let scale: Vec<f32> = (0..N).map(|_| rng.uniform_range(0.1, 2.0)).collect();
    // The segment size the gather uses (`SEGMENT_ROWS` is 4 under Miri).
    let n_seg = n_out.div_ceil(if cfg!(miri) { 4 } else { 256 }).clamp(1, 8);
    let seg = n_out.div_ceil(n_seg);
    let wide = (0..N).filter(|&u| {
        let mut segs: Vec<usize> = g.neighbors(u).iter().map(|&v| v as usize / seg).collect();
        segs.dedup();
        segs.iter().filter(|&&b| b < n_seg).count() >= 3
    });
    assert!(wide.count() >= 4, "rows must reach three segments");

    let sage = scaled_sum_aggregate_backward(&g, &dz, N, &scale[..n_out]);
    let gcn = gcn_aggregate_backward(&g, &dz, N, &scale);
    let p = ThreadPool::new(3);
    let guard = pool::install(p.clone());
    assert_eq!(
        sage,
        scaled_sum_aggregate_backward(&g, &dz, N, &scale[..n_out]),
        "SAGE gather, parallel vs serial"
    );
    assert_eq!(
        gcn,
        gcn_aggregate_backward(&g, &dz, N, &scale),
        "GCN gather, parallel vs serial"
    );
    let mut bd = Matrix::default();
    scaled_sum_aggregate_backward_rows_into(&g, &dz, n_out..N, &scale[..n_out], &mut bd);
    assert_eq!(bd, take_rows(&sage, n_out, N), "SAGE boundary rows");
    gcn_aggregate_backward_rows_into(&g, &dz, n_out..N, &scale, &mut bd);
    assert_eq!(bd, take_rows(&gcn, n_out, N), "GCN boundary rows");
    assert!(p.stats().parallel_dispatches > 0);
    drop(guard);
}
