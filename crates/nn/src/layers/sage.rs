//! The GraphSAGE layer with mean aggregator — the model used for every
//! main experiment in the paper.
//!
//! `h'_v = act( h_v · W_self + z_v · W_neigh + b )` with
//! `z_v = row_scale[v] · Σ_{u ∈ N(v)} h_u`. With `row_scale[v] =
//! 1/deg_full(v)` this is the paper's `σ(W · CONCAT(z_v, h_v))`
//! formulation (a concatenation followed by one weight matrix is exactly
//! two weight matrices added).

use crate::activation::Activation;
use crate::aggregate::{
    scaled_sum_aggregate_backward, scaled_sum_aggregate_backward_into,
    scaled_sum_aggregate_backward_rows_into, scaled_sum_aggregate_inner_into,
    scaled_sum_aggregate_into, scaled_sum_fold_boundary,
};
use crate::layers::{dropout, DropMask, EvalScratch, SegScratch};
use bns_graph::{Adjacency, CsrGraph};
use bns_tensor::simd;
use bns_tensor::{xavier_uniform, Matrix, SeededRng};

/// GraphSAGE layer parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SageLayer {
    /// Self-path weights, `d_in x d_out`.
    pub w_self: Matrix,
    /// Neighbor-path weights, `d_in x d_out`.
    pub w_neigh: Matrix,
    /// Bias, `1 x d_out`.
    pub b: Matrix,
    /// Post-linear activation.
    pub act: Activation,
    /// Input dropout rate (active only when `train` is passed).
    pub dropout: f32,
}

/// Saved forward state needed by [`SageLayer::backward`].
#[derive(Debug, Clone)]
pub struct SageCache {
    h_dropped: Matrix,
    mask: Option<DropMask>,
    z: Matrix,
    pre: Matrix,
    n_out: usize,
    row_scale: Vec<f32>,
}

/// Saved forward state for the segmented pass
/// ([`SageLayer::forward_inner_into`], [`SageLayer::forward_boundary_into`],
/// [`SageLayer::backward_seg_into`]). Unlike the fused cache it never
/// stores the boundary feature rows (the backward pass does not need
/// them), so the per-layer activation memory drops by the halo size.
/// The training engine keeps one per layer for the whole run and
/// overwrites it every epoch.
#[derive(Debug, Clone, Default)]
pub struct SageSegCache {
    h_in_dropped: Matrix,
    mask_in: DropMask,
    mask_bd: DropMask,
    drop_in: bool,
    drop_bd: bool,
    z: Matrix,
    pre: Matrix,
    n_bd: usize,
    row_scale: Vec<f32>,
}

/// Parameter gradients produced by [`SageLayer::backward`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SageGrads {
    /// Gradient of `w_self`.
    pub w_self: Matrix,
    /// Gradient of `w_neigh`.
    pub w_neigh: Matrix,
    /// Gradient of `b`.
    pub b: Matrix,
}

impl SageLayer {
    /// Xavier-initialized layer.
    pub fn new(
        d_in: usize,
        d_out: usize,
        act: Activation,
        dropout: f32,
        rng: &mut SeededRng,
    ) -> Self {
        Self {
            w_self: xavier_uniform(d_in, d_out, rng),
            w_neigh: xavier_uniform(d_in, d_out, rng),
            b: Matrix::zeros(1, d_out),
            act,
            dropout,
        }
    }

    /// Input feature dimension.
    pub fn d_in(&self) -> usize {
        self.w_self.rows()
    }

    /// Output feature dimension.
    pub fn d_out(&self) -> usize {
        self.w_self.cols()
    }

    /// Forward pass. `h_full` holds features for every local row (inner
    /// then boundary); `n_out` rows are updated. `row_scale[v]` is the
    /// aggregation normalizer (use `1/deg_full(v)` for the paper's mean
    /// aggregator). Dropout is applied to the input iff `train`.
    ///
    /// Returns the updated `n_out x d_out` features and the backward
    /// cache.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches between `h_full`, the graph and
    /// `row_scale`.
    pub fn forward<G: Adjacency>(
        &self,
        g: &G,
        h_full: &Matrix,
        n_out: usize,
        row_scale: &[f32],
        train: bool,
        rng: &mut SeededRng,
    ) -> (Matrix, SageCache) {
        assert_eq!(h_full.cols(), self.d_in(), "input dim mismatch");
        let (h_dropped, mask) = if train && self.dropout > 0.0 {
            let (h, m) = dropout(h_full, self.dropout, rng);
            (h, Some(m))
        } else {
            (h_full.clone(), None)
        };
        let (mut s, mut out) = (EvalScratch::default(), Matrix::default());
        self.forward_eval_into(g, &h_dropped, n_out, row_scale, &mut s, &mut out);
        (
            out,
            SageCache {
                h_dropped,
                mask,
                z: s.z,
                pre: s.pre,
                n_out,
                row_scale: row_scale.to_vec(),
            },
        )
    }

    /// The forward pass with no dropout and no cache, into caller-owned
    /// buffers (`out` is reshaped and overwritten). [`SageLayer::forward`]
    /// runs it on its dropped input, so with `train = false` the two give
    /// the same bits; this one does not copy the input.
    pub fn forward_eval_into<G: Adjacency>(
        &self,
        g: &G,
        h_full: &Matrix,
        n_out: usize,
        row_scale: &[f32],
        s: &mut EvalScratch,
        out: &mut Matrix,
    ) {
        assert_eq!(h_full.cols(), self.d_in(), "input dim mismatch");
        scaled_sum_aggregate_into(g, h_full, n_out, row_scale, &mut s.z);
        h_full.slice_rows_into(0, n_out, &mut s.h_self);
        s.h_self.matmul_into(&self.w_self, &mut s.pre);
        s.z.matmul_into(&self.w_neigh, &mut s.zw);
        s.pre.add_assign(&s.zw);
        s.pre.add_row_broadcast(self.b.row(0));
        self.act.apply_into(&s.pre, out);
    }

    /// Phase 1 of the segmented forward pass, into a caller-owned cache
    /// whose buffers are overwritten: input dropout on the inner rows
    /// plus the inner-edge partial aggregation — everything that does
    /// not touch boundary features, so the engine can run it while
    /// boundary blocks are in flight. All `h_inner.rows()` rows are
    /// treated as update targets.
    ///
    /// Combined with [`SageLayer::forward_boundary_into`] this is
    /// bitwise identical to [`SageLayer::forward`] on
    /// `vstack(h_inner, h_bd)`: dropout draws its RNG stream row-major
    /// (inner rows first), and sorted CSR rows put inner neighbors
    /// before boundary neighbors.
    pub fn forward_inner_into(
        &self,
        g: &CsrGraph,
        h_inner: &Matrix,
        train: bool,
        rng: &mut SeededRng,
        cache: &mut SageSegCache,
    ) {
        assert_eq!(h_inner.cols(), self.d_in(), "input dim mismatch");
        cache.drop_in = train && self.dropout > 0.0;
        cache.h_in_dropped.assign(h_inner);
        if cache.drop_in {
            cache.mask_in.draw(h_inner.len(), self.dropout, rng);
            cache.mask_in.apply(cache.h_in_dropped.as_mut_slice());
        }
        scaled_sum_aggregate_inner_into(g, &cache.h_in_dropped, h_inner.rows(), &mut cache.z);
    }

    /// Phase 2 of the segmented forward pass, on the cache that
    /// [`SageLayer::forward_inner_into`] filled: boundary dropout,
    /// boundary fold + scaling, and the dense linear path, writing the
    /// layer output into `out`; temporaries live in the shared
    /// `scratch`. `h_bd` is borrowed (it can live in a reusable
    /// exchange arena) and is **not** kept in the cache.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_boundary_into(
        &self,
        g: &CsrGraph,
        cache: &mut SageSegCache,
        h_bd: &Matrix,
        row_scale: &[f32],
        train: bool,
        rng: &mut SeededRng,
        scratch: &mut SegScratch,
        out: &mut Matrix,
    ) {
        let n_inner = cache.h_in_dropped.rows();
        cache.drop_bd = train && self.dropout > 0.0 && h_bd.rows() > 0;
        let h_bd_used = if cache.drop_bd {
            cache.mask_bd.draw(h_bd.len(), self.dropout, rng);
            scratch.bd_dropped.assign(h_bd);
            cache.mask_bd.apply(scratch.bd_dropped.as_mut_slice());
            &scratch.bd_dropped
        } else {
            h_bd
        };
        scaled_sum_fold_boundary(g, &mut cache.z, h_bd_used, n_inner, row_scale);
        cache.h_in_dropped.matmul_into(&self.w_self, &mut cache.pre);
        cache.z.matmul_into(&self.w_neigh, &mut scratch.zw);
        cache.pre.add_assign(&scratch.zw);
        cache.pre.add_row_broadcast(self.b.row(0));
        self.act.apply_into(&cache.pre, out);
        cache.n_bd = h_bd.rows();
        cache.row_scale.clear();
        cache.row_scale.extend_from_slice(row_scale);
    }

    /// Segmented backward pass into caller-owned buffers: the input
    /// gradients land in `scratch.dh` (inner rows) and `scratch.dh_bd`
    /// (boundary rows), the parameter gradients in `grads` — bitwise
    /// equal to slicing [`SageLayer::backward`]'s output at the
    /// inner/boundary split. With `inner_grad = false` the inner rows
    /// are not computed (`scratch.dh` is left as it was): the self-path
    /// product `dpre · W_selfᵀ` and the inner rows of the gather are
    /// skipped, and `dh_bd` and `grads` are the same bits.
    pub fn backward_seg_into(
        &self,
        g: &CsrGraph,
        cache: &SageSegCache,
        d_out: &Matrix,
        scratch: &mut SegScratch,
        grads: &mut SageGrads,
        inner_grad: bool,
    ) {
        let n_inner = cache.h_in_dropped.rows();
        assert_eq!(d_out.rows(), n_inner, "d_out row mismatch");
        let s = scratch;
        self.act.backward_into(&cache.pre, d_out, &mut s.dpre);
        cache
            .h_in_dropped
            .matmul_tn_into(&s.dpre, &mut grads.w_self);
        cache.z.matmul_tn_into(&s.dpre, &mut grads.w_neigh);
        grads.b.reset(1, self.d_out());
        s.dpre.col_sums_into(grads.b.as_mut_slice());
        s.dpre.matmul_nt_into(&self.w_neigh, &mut s.wt, &mut s.dz);
        let n_rows = n_inner + cache.n_bd;
        if inner_grad {
            scaled_sum_aggregate_backward_into(g, &s.dz, n_rows, &cache.row_scale, &mut s.dh);
            s.dh.slice_rows_into(n_inner, n_rows, &mut s.dh_bd);
            s.dh.truncate_rows(n_inner);
            s.dpre.matmul_nt_into(&self.w_self, &mut s.wt, &mut s.dz);
            s.dh.add_assign(&s.dz);
            if cache.drop_in {
                cache.mask_in.apply(s.dh.as_mut_slice());
            }
        } else {
            let (dz, rows) = (&s.dz, n_inner..n_rows);
            scaled_sum_aggregate_backward_rows_into(g, dz, rows, &cache.row_scale, &mut s.dh_bd);
        }
        if cache.drop_bd {
            cache.mask_bd.apply(s.dh_bd.as_mut_slice());
        }
    }

    /// Backward pass: given `d_out` (`n_out x d_out`), returns the
    /// gradient with respect to every input row (`h_full`'s shape) and
    /// the parameter gradients.
    pub fn backward(&self, g: &CsrGraph, cache: &SageCache, d_out: &Matrix) -> (Matrix, SageGrads) {
        assert_eq!(d_out.rows(), cache.n_out, "d_out row mismatch");
        let dpre = self.act.backward(&cache.pre, d_out);
        let h_self = cache.h_dropped.slice_rows(0, cache.n_out);
        let grads = SageGrads {
            w_self: h_self.matmul_tn(&dpre),
            w_neigh: cache.z.matmul_tn(&dpre),
            b: Matrix::from_vec(1, self.d_out(), dpre.col_sums()),
        };
        let dz = dpre.matmul_nt(&self.w_neigh);
        let mut dh =
            scaled_sum_aggregate_backward(g, &dz, cache.h_dropped.rows(), &cache.row_scale);
        let dh_self = dpre.matmul_nt(&self.w_self);
        let top = &mut dh.as_mut_slice()[..dh_self.as_slice().len()];
        simd::add_assign(simd::begin_kernel(), top, dh_self.as_slice());
        if let Some(m) = &cache.mask {
            m.apply(dh.as_mut_slice());
        }
        (dh, grads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::finite_diff;
    use bns_graph::generators::erdos_renyi_m;

    fn setup() -> (CsrGraph, SageLayer, Matrix, Vec<f32>) {
        let mut rng = SeededRng::new(10);
        let g = erdos_renyi_m(12, 30, &mut rng);
        let layer = SageLayer::new(5, 4, Activation::Relu, 0.0, &mut rng);
        let h = Matrix::random_normal(12, 5, 0.0, 1.0, &mut rng);
        let scale: Vec<f32> = (0..12).map(|v| 1.0 / g.degree(v).max(1) as f32).collect();
        (g, layer, h, scale)
    }

    /// Loss = sum of outputs; its gradient w.r.t. the output is all-ones.
    fn loss_of(layer: &SageLayer, g: &CsrGraph, h: &Matrix, scale: &[f32]) -> f64 {
        let mut rng = SeededRng::new(0);
        let (out, _) = layer.forward(g, h, scale.len(), scale, false, &mut rng);
        out.sum() as f64
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let (g, layer, h, scale) = setup();
        let mut rng = SeededRng::new(0);
        let (out, cache) = layer.forward(&g, &h, 12, &scale, false, &mut rng);
        let ones = Matrix::filled(out.rows(), out.cols(), 1.0);
        let (dh, _) = layer.backward(&g, &cache, &ones);
        let fd = finite_diff(&h, 1e-2, |hp| loss_of(&layer, &g, hp, &scale));
        assert!(dh.approx_eq(&fd, 0.05), "max diff {}", dh.max_abs_diff(&fd));
    }

    #[test]
    fn weight_gradients_match_finite_difference() {
        let (g, layer, h, scale) = setup();
        let mut rng = SeededRng::new(0);
        let (out, cache) = layer.forward(&g, &h, 12, &scale, false, &mut rng);
        let ones = Matrix::filled(out.rows(), out.cols(), 1.0);
        let (_, grads) = layer.backward(&g, &cache, &ones);

        let fd_ws = finite_diff(&layer.w_self, 1e-2, |w| {
            let mut l2 = layer.clone();
            l2.w_self = w.clone();
            loss_of(&l2, &g, &h, &scale)
        });
        assert!(
            grads.w_self.approx_eq(&fd_ws, 0.05),
            "w_self max diff {}",
            grads.w_self.max_abs_diff(&fd_ws)
        );

        let fd_wn = finite_diff(&layer.w_neigh, 1e-2, |w| {
            let mut l2 = layer.clone();
            l2.w_neigh = w.clone();
            loss_of(&l2, &g, &h, &scale)
        });
        assert!(
            grads.w_neigh.approx_eq(&fd_wn, 0.05),
            "w_neigh max diff {}",
            grads.w_neigh.max_abs_diff(&fd_wn)
        );

        let fd_b = finite_diff(&layer.b, 1e-2, |b| {
            let mut l2 = layer.clone();
            l2.b = b.clone();
            loss_of(&l2, &g, &h, &scale)
        });
        assert!(
            grads.b.approx_eq(&fd_b, 0.05),
            "b max diff {}",
            grads.b.max_abs_diff(&fd_b)
        );
    }

    #[test]
    fn boundary_rows_receive_gradient() {
        // Local graph: 2 inner nodes (0, 1) + 1 boundary node (2); edge
        // from inner 0 to boundary 2 and inner 0 to inner 1.
        let g = CsrGraph::from_edges(3, [(0, 1), (0, 2)]);
        let mut rng = SeededRng::new(3);
        let layer = SageLayer::new(2, 2, Activation::Identity, 0.0, &mut rng);
        let h = Matrix::random_normal(3, 2, 0.0, 1.0, &mut rng);
        let scale = vec![0.5, 1.0]; // node 0 has full-degree 2, node 1 degree 1
        let (out, cache) = layer.forward(&g, &h, 2, &scale, false, &mut rng);
        let ones = Matrix::filled(out.rows(), out.cols(), 1.0);
        let (dh, _) = layer.backward(&g, &cache, &ones);
        assert_eq!(dh.rows(), 3);
        // Boundary node 2 is a neighbor of updated node 0, so it must
        // carry gradient from the neighbor path.
        assert!(dh.row(2).iter().any(|&x| x != 0.0));
    }

    #[test]
    fn segmented_forward_backward_matches_fused_bitwise() {
        // Local-style graph: 8 inner rows + 3 boundary rows, boundary
        // nodes only adjacent to inner nodes (as epoch topologies are).
        let mut rng = SeededRng::new(31);
        let n_in = 8;
        let n_bd = 3;
        let mut b = bns_graph::GraphBuilder::new(n_in + n_bd);
        for _ in 0..30 {
            let u = rng.uniform_range(0.0, n_in as f32) as usize;
            let v = rng.uniform_range(0.0, (n_in + n_bd) as f32) as usize;
            if u != v {
                b.add_edge(u, v.min(n_in + n_bd - 1));
            }
        }
        let g = b.build();
        let mut layer = SageLayer::new(4, 3, Activation::Relu, 0.0, &mut rng);
        layer.dropout = 0.4;
        let h_inner = Matrix::random_normal(n_in, 4, 0.0, 1.0, &mut rng);
        let h_bd = Matrix::random_normal(n_bd, 4, 0.0, 1.0, &mut rng);
        let scale: Vec<f32> = (0..n_in).map(|v| 1.0 / g.degree(v).max(1) as f32).collect();
        let d_out = Matrix::random_normal(n_in, 3, 0.0, 1.0, &mut rng);

        let mut rng_fused = SeededRng::new(77);
        let (out_f, cache_f) = layer.forward(
            &g,
            &h_inner.vstack(&h_bd),
            n_in,
            &scale,
            true,
            &mut rng_fused,
        );
        let (dh_f, grads_f) = layer.backward(&g, &cache_f, &d_out);

        let mut rng_seg = SeededRng::new(77);
        let (mut cache_s, mut scratch) = (SageSegCache::default(), SegScratch::default());
        let (mut out_s, mut grads_s) = (Matrix::default(), SageGrads::default());
        layer.forward_inner_into(&g, &h_inner, true, &mut rng_seg, &mut cache_s);
        layer.forward_boundary_into(
            &g,
            &mut cache_s,
            &h_bd,
            &scale,
            true,
            &mut rng_seg,
            &mut scratch,
            &mut out_s,
        );
        layer.backward_seg_into(&g, &cache_s, &d_out, &mut scratch, &mut grads_s, true);
        let (dh_in, dh_bd) = (&scratch.dh, &scratch.dh_bd);

        let bits = |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&out_f), bits(&out_s));
        assert_eq!(bits(&dh_f.slice_rows(0, n_in)), bits(dh_in));
        assert_eq!(bits(&dh_f.slice_rows(n_in, n_in + n_bd)), bits(dh_bd));
        assert_eq!(bits(&grads_f.w_self), bits(&grads_s.w_self));
        assert_eq!(bits(&grads_f.w_neigh), bits(&grads_s.w_neigh));
        assert_eq!(bits(&grads_f.b), bits(&grads_s.b));
    }

    #[test]
    fn dropout_train_vs_eval() {
        let (g, mut layer, h, scale) = setup();
        layer.dropout = 0.5;
        let mut rng1 = SeededRng::new(7);
        let (out_train, _) = layer.forward(&g, &h, 12, &scale, true, &mut rng1);
        let mut rng2 = SeededRng::new(7);
        let (out_eval, _) = layer.forward(&g, &h, 12, &scale, false, &mut rng2);
        assert_ne!(out_train, out_eval);
    }
}
