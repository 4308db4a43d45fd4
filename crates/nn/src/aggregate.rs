//! Sparse neighbor-aggregation kernels.
//!
//! These are the "aggregate" half of a GCN layer (paper Eq. 1). They are
//! written against a *local* graph whose first `n_out` rows are the
//! partition's inner nodes and whose remaining rows (if any) are
//! boundary nodes, so the same kernel serves single-rank full-graph
//! training (`n_out == n`) and partition-parallel training.
//!
//! The per-target `row_scale` lets callers implement the paper's
//! unbiased mean: `row_scale[v] = 1 / deg_full(v)` makes the sum a
//! full-graph mean even when only sampled boundary neighbors are present
//! locally (the engine pre-scales received boundary rows by `1/p`).

use bns_graph::{Adjacency, CsrGraph};
use bns_tensor::{pool, simd, Matrix};
use std::ops::Range;

/// A `*mut f32` the pool closures may carry across threads. Sound
/// because every user writes only to a disjoint row range of the
/// pointee (see the SAFETY comments at each use).
#[derive(Clone, Copy)]
struct SendMutPtr(*mut f32);
// SAFETY: the wrapper is only handed to pool jobs that write disjoint
// row ranges of the pointee, and `ThreadPool::run` joins every job
// before the borrow it was derived from ends.
unsafe impl Send for SendMutPtr {}
// SAFETY: as above — shared references only ever read the pointer
// value itself; all writes through it are range-disjoint per job.
unsafe impl Sync for SendMutPtr {}

impl SendMutPtr {
    /// Accessed via a method so closures capture the whole `Send`
    /// wrapper — a 2021-edition closure naming the field directly would
    /// capture only the raw (non-`Send`) pointer.
    fn get(self) -> *mut f32 {
        self.0
    }
}

/// Minimum target rows per parallel block for the forward kernels
/// (below this the per-dispatch overhead dominates).
#[cfg(not(miri))]
const AGG_MIN_ROWS: usize = 64;
/// Under Miri the interpreter is ~1000x slower, so the thresholds
/// shrink: tiny test inputs still take the parallel raw-pointer path
/// that Miri is there to check (tests/miri_kernels.rs).
#[cfg(miri)]
const AGG_MIN_ROWS: usize = 4;

/// Source rows per backward summation segment, at most
/// [`MAX_SEGMENTS`] segments. Both depend on the problem size only —
/// never the thread count — and fix the f32 summation tree of every
/// gradient row, which the training curves are pinned to.
#[cfg(not(miri))]
const SEGMENT_ROWS: usize = 256;
/// Miri-sized (see [`AGG_MIN_ROWS`]).
#[cfg(miri)]
const SEGMENT_ROWS: usize = 4;
const MAX_SEGMENTS: usize = 8;

/// Shared gather skeleton for the backward kernels. `g` is symmetric
/// with sorted, unique neighbor lists, so the sources of output row `u`
/// are exactly the prefix of `N(u)` below `n_out`. Each row is written
/// by one pool job, which cuts its sources at the fixed segment
/// boundaries and hands them to `gather_row(row, sources, ends, u,
/// self_seg)`: one register-resident kernel call that sums each
/// segment from `+0.0` in ascending `v` and adds the segment sums in
/// order (`self_seg` names the segment holding `v = u`, for kernels
/// with a self term). So each row gets the summation tree of a
/// per-segment partial-buffer reduction without the buffers.
///
/// Only the gradient rows `rows` are computed: `dh` is reshaped to
/// `rows.len() x d` (row `u` at `u - rows.start`) and every element is
/// written, so a reused buffer needs no re-zeroing; rows past the graph
/// are zeroed here.
fn segmented_gather_into<F>(
    g: &CsrGraph,
    (rows, n_out, d): (Range<usize>, usize, usize),
    gather_row: F,
    dh: &mut Matrix,
) where
    F: Fn(&mut [f32], &[u32], &[usize], usize, Option<usize>) + Sync,
{
    let n_seg = n_out.div_ceil(SEGMENT_ROWS).clamp(1, MAX_SEGMENTS);
    let seg = n_out.div_ceil(n_seg).max(1);
    let first_row = rows.start;
    let n = g.num_nodes().clamp(first_row, rows.end);
    dh.reset(rows.len(), d);
    dh.as_mut_slice()[(n - first_row) * d..].fill(0.0);
    let dptr = SendMutPtr(dh.as_mut_slice().as_mut_ptr());
    pool::parallel_row_blocks(n - first_row, AGG_MIN_ROWS, &|r0, r1| {
        // SAFETY: this block owns the disjoint output rows [r0, r1).
        let block =
            unsafe { std::slice::from_raw_parts_mut(dptr.get().add(r0 * d), (r1 - r0) * d) };
        let mut ends = [0usize; MAX_SEGMENTS];
        for r in 0..r1 - r0 {
            let (row, u) = (&mut block[r * d..(r + 1) * d], first_row + r0 + r);
            let nb = g.neighbors(u);
            let srcs = &nb[..nb.partition_point(|&v| (v as usize) < n_out)];
            let mut start = 0;
            for (b, end) in ends[..n_seg].iter_mut().enumerate() {
                start += srcs[start..].partition_point(|&v| (v as usize) < (b + 1) * seg);
                *end = start;
            }
            let self_seg = (u < n_out).then_some(u / seg);
            gather_row(row, srcs, &ends[..n_seg], u, self_seg);
        }
    });
}

/// `z_v = row_scale[v] · Σ_{u ∈ N_g(v)} h_u` for `v < n_out`.
///
/// Parallel over blocks of target rows `v` (each row is written by
/// exactly one thread in a fixed neighbor order, so the result is
/// bitwise deterministic at any pool size). `g` is any [`Adjacency`]:
/// a [`CsrGraph`] in training, a serving [`bns_graph::Block`].
///
/// # Panics
///
/// Panics if `h` has fewer rows than `g` has sources, `n_out >
/// g.num_rows()`, or `row_scale.len() != n_out`.
pub fn scaled_sum_aggregate<G: Adjacency>(
    g: &G,
    h: &Matrix,
    n_out: usize,
    row_scale: &[f32],
) -> Matrix {
    let mut z = Matrix::default();
    scaled_sum_aggregate_into(g, h, n_out, row_scale, &mut z);
    z
}

/// [`scaled_sum_aggregate`] into a caller-owned buffer (reshaped and
/// overwritten).
///
/// # Panics
///
/// Panics on the same shape mismatches as [`scaled_sum_aggregate`].
pub fn scaled_sum_aggregate_into<G: Adjacency>(
    g: &G,
    h: &Matrix,
    n_out: usize,
    row_scale: &[f32],
    z: &mut Matrix,
) {
    assert!(h.rows() >= g.num_sources(), "feature matrix too small");
    assert!(n_out <= g.num_rows(), "n_out exceeds graph size");
    assert_eq!(row_scale.len(), n_out, "row_scale length mismatch");
    let d = h.cols();
    let hd = h.as_slice();
    let bk = simd::begin_kernel();
    z.reset_zeroed(n_out, d);
    let zptr = SendMutPtr(z.as_mut_slice().as_mut_ptr());
    pool::parallel_row_blocks(n_out, AGG_MIN_ROWS, &|v0, v1| {
        // SAFETY: this block owns the disjoint target rows [v0, v1).
        let zblock =
            unsafe { std::slice::from_raw_parts_mut(zptr.get().add(v0 * d), (v1 - v0) * d) };
        for (zr, v) in zblock.chunks_exact_mut(d).zip(v0..v1) {
            simd::sum_rows(bk, zr, hd, d, g.neighbors(v), 0);
            simd::scale(bk, zr, row_scale[v]);
        }
    });
}

/// Adjoint of [`scaled_sum_aggregate`]: given `dz` (`n_out x d`), returns
/// `dh` (`n_rows_h x d`) with `dh_u = Σ_{v ∈ N_g(u), v < n_out}
/// row_scale[v] · dz_v`: a gather over output rows, summed in source
/// segments fixed by the problem size alone, so bitwise deterministic
/// at any pool size.
///
/// # Panics
///
/// Panics on the same shape mismatches as the forward kernel.
pub fn scaled_sum_aggregate_backward(
    g: &CsrGraph,
    dz: &Matrix,
    n_rows_h: usize,
    row_scale: &[f32],
) -> Matrix {
    let mut dh = Matrix::default();
    scaled_sum_aggregate_backward_rows_into(g, dz, 0..n_rows_h, row_scale, &mut dh);
    dh
}

/// [`scaled_sum_aggregate_backward`] for the gradient rows `rows` only,
/// into a caller-owned buffer: `dh` is reshaped to `rows.len() x d`,
/// its row `i` holding gradient row `rows.start + i`, each bitwise the
/// full kernel's.
///
/// # Panics
///
/// Panics on the same shape mismatches as
/// [`scaled_sum_aggregate_backward`] (with `n_rows_h = rows.end`), or
/// if `rows.start > rows.end`.
pub fn scaled_sum_aggregate_backward_rows_into(
    g: &CsrGraph,
    dz: &Matrix,
    rows: Range<usize>,
    row_scale: &[f32],
    dh: &mut Matrix,
) {
    let n_out = dz.rows();
    assert!(n_out <= g.num_nodes(), "dz has more rows than graph nodes");
    assert!(rows.end >= g.num_nodes(), "output too small");
    assert_eq!(row_scale.len(), n_out, "row_scale length mismatch");
    let (d, bk) = (dz.cols(), simd::begin_kernel());
    let gather_row = |row: &mut [f32], srcs: &[u32], ends: &[usize], _: usize, _: Option<usize>| {
        simd::segment_sum_rows_scaled(bk, row, dz.as_slice(), d, srcs, ends, row_scale);
    };
    segmented_gather_into(g, (rows, n_out, d), gather_row, dh);
}

/// Inner-edge partial of [`scaled_sum_aggregate`] on a segmented
/// `(h_inner, h_bd)` view, into a caller-owned buffer (reshaped and
/// overwritten): `z_v = Σ_{u ∈ N_g(v), u < n_inner} h_u` for `v <
/// n_out`, **unscaled** (the scale is applied by
/// [`scaled_sum_fold_boundary`] after the boundary fold). `n_inner =
/// h_inner.rows()`.
///
/// Because CSR neighbor lists are sorted ascending (an invariant
/// `CsrGraph` construction enforces), inner neighbors form a prefix of
/// every row, and "inner partial then boundary fold" visits neighbors
/// in exactly the order the fused kernel does — the f32 sum per output
/// element is bitwise identical. This is what lets the engine run this
/// kernel while boundary rows are still in flight.
///
/// # Panics
///
/// Panics if `n_out > g.num_nodes()` or `n_out > h_inner.rows()`.
pub fn scaled_sum_aggregate_inner_into(
    g: &CsrGraph,
    h_inner: &Matrix,
    n_out: usize,
    z: &mut Matrix,
) {
    assert!(n_out <= g.num_nodes(), "n_out exceeds graph size");
    assert!(n_out <= h_inner.rows(), "n_out exceeds inner rows");
    let n_inner = h_inner.rows();
    let d = h_inner.cols();
    let hd = h_inner.as_slice();
    let bk = simd::begin_kernel();
    z.reset_zeroed(n_out, d);
    let zptr = SendMutPtr(z.as_mut_slice().as_mut_ptr());
    pool::parallel_row_blocks(n_out, AGG_MIN_ROWS, &|v0, v1| {
        // SAFETY: this block owns the disjoint target rows [v0, v1).
        let zblock =
            unsafe { std::slice::from_raw_parts_mut(zptr.get().add(v0 * d), (v1 - v0) * d) };
        for (zr, v) in zblock.chunks_exact_mut(d).zip(v0..v1) {
            let nb = g.neighbors(v);
            let end = nb.partition_point(|&u| (u as usize) < n_inner);
            simd::sum_rows(bk, zr, hd, d, &nb[..end], 0);
        }
    });
}

/// Completes [`scaled_sum_aggregate_inner_into`]: folds the boundary-edge
/// contributions (`h_bd` row `u - n_inner` for neighbors `u >=
/// n_inner`) into `z`, then applies `row_scale`. After this call `z`
/// equals `scaled_sum_aggregate(g, vstack(h_inner, h_bd), n_out,
/// row_scale)` bit for bit — without ever materializing the stacked
/// matrix.
///
/// # Panics
///
/// Panics on shape mismatches or if the graph references boundary rows
/// beyond `n_inner + h_bd.rows()`.
pub fn scaled_sum_fold_boundary(
    g: &CsrGraph,
    z: &mut Matrix,
    h_bd: &Matrix,
    n_inner: usize,
    row_scale: &[f32],
) {
    let n_out = z.rows();
    assert!(n_out <= g.num_nodes(), "z has more rows than graph nodes");
    assert_eq!(row_scale.len(), n_out, "row_scale length mismatch");
    assert_eq!(z.cols(), h_bd.cols(), "column mismatch");
    assert!(
        n_inner + h_bd.rows() >= g.num_nodes(),
        "boundary block too small"
    );
    let d = z.cols();
    let hbd = h_bd.as_slice();
    let bk = simd::begin_kernel();
    let zptr = SendMutPtr(z.as_mut_slice().as_mut_ptr());
    pool::parallel_row_blocks(n_out, AGG_MIN_ROWS, &|v0, v1| {
        // SAFETY: this block owns the disjoint target rows [v0, v1).
        let zblock =
            unsafe { std::slice::from_raw_parts_mut(zptr.get().add(v0 * d), (v1 - v0) * d) };
        for (zr, v) in zblock.chunks_exact_mut(d).zip(v0..v1) {
            let nb = g.neighbors(v);
            let start = nb.partition_point(|&u| (u as usize) < n_inner);
            simd::sum_rows(bk, zr, hbd, d, &nb[start..], n_inner);
            simd::scale(bk, zr, row_scale[v]);
        }
    });
}

/// Inner-edge partial of [`gcn_aggregate`] on a segmented view, into a
/// caller-owned buffer (reshaped and overwritten): `z_v = Σ_{u ∈
/// N_g(v), u < n_inner} s_u · h_u` for `v < n_out`, without the
/// self-loop term (applied by [`gcn_fold_boundary`]). Same sorted-CSR
/// bitwise-identity argument as [`scaled_sum_aggregate_inner_into`].
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn gcn_aggregate_inner_into(
    g: &CsrGraph,
    h_inner: &Matrix,
    n_out: usize,
    s: &[f32],
    z: &mut Matrix,
) {
    assert!(n_out <= g.num_nodes(), "n_out exceeds graph size");
    assert!(n_out <= h_inner.rows(), "n_out exceeds inner rows");
    let n_inner = h_inner.rows();
    let d = h_inner.cols();
    let hd = h_inner.as_slice();
    let bk = simd::begin_kernel();
    z.reset_zeroed(n_out, d);
    let zptr = SendMutPtr(z.as_mut_slice().as_mut_ptr());
    pool::parallel_row_blocks(n_out, AGG_MIN_ROWS, &|v0, v1| {
        // SAFETY: this block owns the disjoint target rows [v0, v1).
        let zblock =
            unsafe { std::slice::from_raw_parts_mut(zptr.get().add(v0 * d), (v1 - v0) * d) };
        for (zr, v) in zblock.chunks_exact_mut(d).zip(v0..v1) {
            let nb = g.neighbors(v);
            let end = nb.partition_point(|&u| (u as usize) < n_inner);
            simd::sum_rows_scaled(bk, zr, hd, d, &nb[..end], 0, s);
        }
    });
}

/// Completes [`gcn_aggregate_inner_into`]: folds boundary neighbors, then
/// the self-loop finalization `z_v = s_v · z_v + s_v² · h_v` (with
/// `h_v` taken from `h_inner` — targets are always inner rows). After
/// this call `z` equals `gcn_aggregate(g, vstack(h_inner, h_bd), n_out,
/// s)` bit for bit.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn gcn_fold_boundary(
    g: &CsrGraph,
    z: &mut Matrix,
    h_inner: &Matrix,
    h_bd: &Matrix,
    n_inner: usize,
    s: &[f32],
) {
    let n_out = z.rows();
    assert!(n_out <= g.num_nodes(), "z has more rows than graph nodes");
    assert!(n_out <= h_inner.rows(), "n_out exceeds inner rows");
    assert!(s.len() >= g.num_nodes(), "scale vector too small");
    assert_eq!(z.cols(), h_bd.cols(), "column mismatch");
    assert!(
        n_inner + h_bd.rows() >= g.num_nodes(),
        "boundary block too small"
    );
    let d = z.cols();
    let hbd = h_bd.as_slice();
    let bk = simd::begin_kernel();
    let zptr = SendMutPtr(z.as_mut_slice().as_mut_ptr());
    pool::parallel_row_blocks(n_out, AGG_MIN_ROWS, &|v0, v1| {
        // SAFETY: this block owns the disjoint target rows [v0, v1).
        let zblock =
            unsafe { std::slice::from_raw_parts_mut(zptr.get().add(v0 * d), (v1 - v0) * d) };
        for (zr, v) in zblock.chunks_exact_mut(d).zip(v0..v1) {
            let nb = g.neighbors(v);
            let start = nb.partition_point(|&u| (u as usize) < n_inner);
            simd::sum_rows_scaled(bk, zr, hbd, d, &nb[start..], n_inner, s);
            let sv = s[v];
            simd::scale_axpy(bk, zr, sv, sv * sv, h_inner.row(v));
        }
    });
}

/// Symmetric-normalized GCN aggregation with self-loops (Kipf & Welling):
/// `z_v = s_v² · h_v + s_v · Σ_{u ∈ N(v)} s_u · h_u` where callers pass
/// `s_v = 1/sqrt(deg_full(v) + 1)`. `s` must cover every source row of
/// `g` (any [`Adjacency`], as for [`scaled_sum_aggregate`]).
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn gcn_aggregate<G: Adjacency>(g: &G, h: &Matrix, n_out: usize, s: &[f32]) -> Matrix {
    let mut z = Matrix::default();
    gcn_aggregate_into(g, h, n_out, s, &mut z);
    z
}

/// [`gcn_aggregate`] into a caller-owned buffer (reshaped and
/// overwritten).
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn gcn_aggregate_into<G: Adjacency>(
    g: &G,
    h: &Matrix,
    n_out: usize,
    s: &[f32],
    z: &mut Matrix,
) {
    assert!(h.rows() >= g.num_sources(), "feature matrix too small");
    assert!(n_out <= g.num_rows(), "n_out exceeds graph size");
    assert!(s.len() >= g.num_sources(), "scale vector too small");
    let d = h.cols();
    let hd = h.as_slice();
    let bk = simd::begin_kernel();
    z.reset_zeroed(n_out, d);
    let zptr = SendMutPtr(z.as_mut_slice().as_mut_ptr());
    pool::parallel_row_blocks(n_out, AGG_MIN_ROWS, &|v0, v1| {
        // SAFETY: this block owns the disjoint target rows [v0, v1).
        let zblock =
            unsafe { std::slice::from_raw_parts_mut(zptr.get().add(v0 * d), (v1 - v0) * d) };
        for (zr, v) in zblock.chunks_exact_mut(d).zip(v0..v1) {
            simd::sum_rows_scaled(bk, zr, hd, d, g.neighbors(v), 0, s);
            let sv = s[v];
            simd::scale_axpy(bk, zr, sv, sv * sv, h.row(v));
        }
    });
}

/// Adjoint of [`gcn_aggregate`]: `dh_u = Σ_{v ∈ N_g(u), v < n_out} s_u ·
/// (s_v · dz_v)` plus, for `u < n_out`, the self term `s_u² · dz_u` at
/// position `v = u`. Same segmented gather as
/// [`scaled_sum_aggregate_backward`].
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn gcn_aggregate_backward(g: &CsrGraph, dz: &Matrix, n_rows_h: usize, s: &[f32]) -> Matrix {
    let mut dh = Matrix::default();
    gcn_aggregate_backward_rows_into(g, dz, 0..n_rows_h, s, &mut dh);
    dh
}

/// [`gcn_aggregate_backward`] for the gradient rows `rows` only, into a
/// caller-owned buffer (see [`scaled_sum_aggregate_backward_rows_into`]).
///
/// # Panics
///
/// Panics on shape mismatches or if `rows.start > rows.end`.
pub fn gcn_aggregate_backward_rows_into(
    g: &CsrGraph,
    dz: &Matrix,
    rows: Range<usize>,
    s: &[f32],
    dh: &mut Matrix,
) {
    let n_out = dz.rows();
    assert!(n_out <= g.num_nodes(), "dz has more rows than graph nodes");
    assert!(rows.end >= g.num_nodes(), "output too small");
    assert!(s.len() >= g.num_nodes(), "scale vector too small");
    let (d, bk) = (dz.cols(), simd::begin_kernel());
    let gather_row = |row: &mut [f32], srcs: &[u32], ends: &[usize], u, self_seg| {
        simd::segment_sum_rows_rescaled(bk, row, dz.as_slice(), d, srcs, ends, s, u, self_seg);
    };
    segmented_gather_into(g, (rows, n_out, d), gather_row, dh);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_graph::generators::ring;
    use bns_tensor::SeededRng;

    #[test]
    fn mean_aggregate_on_ring() {
        let g = ring(4);
        let h = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let scale = vec![0.5; 4]; // every node has degree 2
        let z = scaled_sum_aggregate(&g, &h, 4, &scale);
        // node 0's neighbors are 1 and 3 -> (2+4)/2 = 3
        assert_eq!(z.row(0), &[3.0]);
        assert_eq!(z.row(1), &[2.0]);
    }

    #[test]
    fn aggregate_restricted_rows() {
        let g = ring(4);
        let h = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let z = scaled_sum_aggregate(&g, &h, 2, &[1.0, 1.0]);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.row(0), &[6.0]); // 2 + 4
    }

    #[test]
    fn backward_is_adjoint_of_forward() {
        // <A x, y> == <x, A^T y> for random x, y.
        let mut rng = SeededRng::new(1);
        let g = bns_graph::generators::erdos_renyi_m(30, 80, &mut rng);
        let scale: Vec<f32> = (0..30).map(|_| rng.uniform_range(0.1, 2.0)).collect();
        let x = Matrix::random_normal(30, 3, 0.0, 1.0, &mut rng);
        let y = Matrix::random_normal(30, 3, 0.0, 1.0, &mut rng);
        let ax = scaled_sum_aggregate(&g, &x, 30, &scale);
        let aty = scaled_sum_aggregate_backward(&g, &y, 30, &scale);
        let lhs: f32 = ax.hadamard(&y).sum();
        let rhs: f32 = x.hadamard(&aty).sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn gcn_backward_is_adjoint() {
        let mut rng = SeededRng::new(2);
        let g = bns_graph::generators::erdos_renyi_m(25, 60, &mut rng);
        let s: Vec<f32> = (0..25)
            .map(|v| 1.0 / ((g.degree(v) + 1) as f32).sqrt())
            .collect();
        let x = Matrix::random_normal(25, 4, 0.0, 1.0, &mut rng);
        let y = Matrix::random_normal(25, 4, 0.0, 1.0, &mut rng);
        let ax = gcn_aggregate(&g, &x, 25, &s);
        let aty = gcn_aggregate_backward(&g, &y, 25, &s);
        let lhs: f32 = ax.hadamard(&y).sum();
        let rhs: f32 = x.hadamard(&aty).sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    /// Builds a local-style graph where nodes `>= n_inner` act as
    /// boundary rows (only inner-incident edges, as the engine's epoch
    /// topology guarantees).
    fn segmented_fixture(seed: u64) -> (bns_graph::CsrGraph, usize, Matrix, Matrix) {
        let mut rng = SeededRng::new(seed);
        let n_inner = 40;
        let n_bd = 12;
        let mut b = bns_graph::GraphBuilder::new(n_inner + n_bd);
        for _ in 0..180 {
            let u = rng.uniform_range(0.0, n_inner as f32) as usize;
            let v = rng.uniform_range(0.0, (n_inner + n_bd) as f32) as usize;
            if u != v && v < n_inner + n_bd {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let h_inner = Matrix::random_normal(n_inner, 5, 0.0, 1.0, &mut rng);
        let h_bd = Matrix::random_normal(n_bd, 5, 0.0, 1.0, &mut rng);
        (g, n_inner, h_inner, h_bd)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// What an `_into` kernel writes into a fresh buffer.
    fn fresh(kernel: impl FnOnce(&mut Matrix)) -> Matrix {
        let mut out = Matrix::default();
        kernel(&mut out);
        out
    }

    #[test]
    fn segmented_mean_matches_fused_bitwise() {
        for seed in [1u64, 5, 9] {
            let (g, n_inner, h_inner, h_bd) = segmented_fixture(seed);
            let mut rng = SeededRng::new(seed + 100);
            let scale: Vec<f32> = (0..n_inner).map(|_| rng.uniform_range(0.1, 2.0)).collect();
            let fused = scaled_sum_aggregate(&g, &h_inner.vstack(&h_bd), n_inner, &scale);
            let mut z = fresh(|z| scaled_sum_aggregate_inner_into(&g, &h_inner, n_inner, z));
            scaled_sum_fold_boundary(&g, &mut z, &h_bd, n_inner, &scale);
            assert_eq!(bits(&fused), bits(&z), "seed {seed}");
        }
    }

    #[test]
    fn segmented_gcn_matches_fused_bitwise() {
        for seed in [2u64, 6, 10] {
            let (g, n_inner, h_inner, h_bd) = segmented_fixture(seed);
            let s: Vec<f32> = (0..g.num_nodes())
                .map(|v| 1.0 / ((g.degree(v) + 1) as f32).sqrt())
                .collect();
            let fused = gcn_aggregate(&g, &h_inner.vstack(&h_bd), n_inner, &s);
            let mut z = fresh(|z| gcn_aggregate_inner_into(&g, &h_inner, n_inner, &s, z));
            gcn_fold_boundary(&g, &mut z, &h_inner, &h_bd, n_inner, &s);
            assert_eq!(bits(&fused), bits(&z), "seed {seed}");
        }
    }

    #[test]
    fn segmented_with_empty_boundary() {
        let g = ring(6);
        let h = Matrix::from_fn(6, 2, |r, c| (r + c) as f32);
        let empty = Matrix::zeros(0, 2);
        let scale = vec![0.5; 6];
        let fused = scaled_sum_aggregate(&g, &h, 6, &scale);
        let mut z = fresh(|z| scaled_sum_aggregate_inner_into(&g, &h, 6, z));
        scaled_sum_fold_boundary(&g, &mut z, &empty, 6, &scale);
        assert_eq!(bits(&fused), bits(&z));
    }

    /// A reused output buffer holds stale values (here NaN, from a
    /// larger shape); every `_into` kernel must overwrite all of it, so
    /// its result is bitwise the fresh allocating form's.
    #[test]
    fn into_kernels_overwrite_dirty_buffers() {
        let (g, n_inner, h_inner, h_bd) = segmented_fixture(3);
        // Isolated rows: sources for no output row, so the gather must
        // zero them itself.
        let mut b = bns_graph::GraphBuilder::new(g.num_nodes() + 3);
        for (u, v) in g.edges() {
            b.add_edge(u, v);
        }
        let g = b.build();
        let n = g.num_nodes();
        let h = h_inner
            .vstack(&h_bd)
            .vstack(&Matrix::filled(3, h_inner.cols(), 0.5));
        let scale: Vec<f32> = (0..n).map(|v| 1.0 / g.degree(v).max(1) as f32).collect();
        let dz = Matrix::from_fn(n_inner, h.cols(), |r, c| (r * 7 + c) as f32 * 0.01 - 1.0);
        let dirty = || Matrix::filled(n + 5, h.cols() + 2, f32::NAN);
        let mut out = dirty();
        scaled_sum_aggregate_into(&g, &h, n_inner, &scale[..n_inner], &mut out);
        assert_eq!(
            bits(&out),
            bits(&scaled_sum_aggregate(&g, &h, n_inner, &scale[..n_inner]))
        );
        let mut out = dirty();
        scaled_sum_aggregate_inner_into(&g, &h_inner, n_inner, &mut out);
        assert_eq!(
            bits(&out),
            bits(&fresh(|z| scaled_sum_aggregate_inner_into(
                &g, &h_inner, n_inner, z
            )))
        );
        let mut out = dirty();
        gcn_aggregate_into(&g, &h, n_inner, &scale, &mut out);
        assert_eq!(bits(&out), bits(&gcn_aggregate(&g, &h, n_inner, &scale)));
        let mut out = dirty();
        gcn_aggregate_inner_into(&g, &h_inner, n_inner, &scale, &mut out);
        assert_eq!(
            bits(&out),
            bits(&fresh(|z| gcn_aggregate_inner_into(
                &g, &h_inner, n_inner, &scale, z
            )))
        );
        let mut out = dirty();
        scaled_sum_aggregate_backward_rows_into(&g, &dz, 0..n, &scale[..n_inner], &mut out);
        let fresh = scaled_sum_aggregate_backward(&g, &dz, n, &scale[..n_inner]);
        assert!(fresh.row(n - 1).iter().all(|&x| x == 0.0));
        assert_eq!(bits(&out), bits(&fresh));
        let mut out = dirty();
        gcn_aggregate_backward_rows_into(&g, &dz, 0..n, &scale, &mut out);
        assert_eq!(
            bits(&out),
            bits(&gcn_aggregate_backward(&g, &dz, n, &scale))
        );
    }

    #[test]
    fn gcn_self_loop_only_for_isolated_node() {
        let g = bns_graph::CsrGraph::empty(2);
        let h = Matrix::from_rows(&[&[4.0], &[8.0]]);
        let s = vec![1.0, 0.5];
        let z = gcn_aggregate(&g, &h, 2, &s);
        assert_eq!(z.row(0), &[4.0]); // 1^2 * 4
        assert_eq!(z.row(1), &[2.0]); // 0.5^2 * 8
    }
}
