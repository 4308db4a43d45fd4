//! The segmented training step of the SAGE and GCN layers, written
//! once: dropout, the bias, the activation and the masks are shared,
//! and per architecture only the arithmetic differs (the aggregation
//! pair and its adjoint, and SAGE's self path). A layer's source rows
//! are its inner rows, which it updates, then the boundary rows peers
//! send. Each product and fold runs in the order of the fused
//! `forward`/`backward` on the stacked rows, so the split gives their
//! bits: dropout draws its mask row-major, inner rows first, and sorted
//! CSR rows list inner neighbours before boundary ones.

use crate::activation::{ActKeep, Activation};
use crate::aggregate::{
    gcn_aggregate_backward_rows_into, gcn_aggregate_inner_into, gcn_fold_boundary,
    scaled_sum_aggregate_backward_rows_into, scaled_sum_aggregate_inner_into,
    scaled_sum_fold_boundary,
};
use crate::layers::{DropMask, SegScratch};
use bns_graph::CsrGraph;
use bns_tensor::{Matrix, SeededRng};

/// The aggregation of a segmented layer.
pub(crate) enum Agg {
    /// SAGE's mean: the scaled sum over neighbours.
    Mean,
    /// GCN's symmetric normalization with a self-loop.
    Sym,
}

/// A SAGE or GCN layer as the segmented step reads it.
pub(crate) struct SegLayer<'a> {
    pub(crate) agg: Agg,
    pub(crate) dropout: f32,
    pub(crate) act: Activation,
    /// The aggregate's weight: SAGE `w_neigh`, GCN `w`.
    pub(crate) w: &'a Matrix,
    /// SAGE's self-path weight `w_self`.
    pub(crate) w_self: Option<&'a Matrix>,
    pub(crate) b: &'a Matrix,
}

/// Saved forward state of the segmented pass. It never stores the
/// boundary rows, which the backward pass does not read, so a layer's
/// activation memory drops by the halo size. A rank keeps one per layer
/// for the whole run, in the layer's [`crate::LayerSlot`], and
/// overwrites it every epoch.
#[derive(Debug, Default)]
pub(crate) struct SegCache {
    /// The inner rows after dropout.
    h: Matrix,
    mask_in: DropMask,
    mask_bd: DropMask,
    drop_in: bool,
    drop_bd: bool,
    z: Matrix,
    act: ActKeep,
    n_bd: usize,
    /// The normalizer phase 2 read.
    norm: Vec<f32>,
}

impl SegCache {
    /// Phase 1, overwriting the cache: input dropout on the inner rows,
    /// then the inner-edge partial aggregate (SAGE's unscaled, GCN's
    /// without the self-loop term), every inner row a target. It needs
    /// no boundary row, so it runs while the boundary blocks are in
    /// flight. `sym` is the GCN normalizer of every source row.
    pub(crate) fn forward_inner(
        &mut self,
        l: &SegLayer,
        g: &CsrGraph,
        h_inner: &Matrix,
        sym: &[f32],
        (train, rng): (bool, &mut SeededRng),
    ) {
        assert_eq!(h_inner.cols(), l.w.rows(), "input dim mismatch");
        self.drop_in = train && l.dropout > 0.0;
        self.h.assign(h_inner);
        if self.drop_in {
            self.mask_in.draw(h_inner.len(), l.dropout, rng);
            self.mask_in.apply(self.h.as_mut_slice());
        }
        let n = h_inner.rows();
        match l.agg {
            Agg::Mean => scaled_sum_aggregate_inner_into(g, &self.h, n, &mut self.z),
            Agg::Sym => gcn_aggregate_inner_into(g, &self.h, n, sym, &mut self.z),
        }
    }

    /// Phase 2, on the cache phase 1 filled: boundary dropout, the
    /// boundary fold and the dense products, writing the layer output
    /// into `out`; temporaries live in the shared `s`. `h_bd` is
    /// borrowed (it can live in a reusable exchange arena) and is not
    /// kept. `norm` is the aggregation normalizer: SAGE's of every inner
    /// row, GCN's of every source row.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_boundary(
        &mut self,
        l: &SegLayer,
        g: &CsrGraph,
        h_bd: &Matrix,
        norm: &[f32],
        (train, rng): (bool, &mut SeededRng),
        s: &mut SegScratch,
        out: &mut Matrix,
    ) {
        self.drop_bd = train && l.dropout > 0.0 && h_bd.rows() > 0;
        let h_bd = if self.drop_bd {
            self.mask_bd.draw(h_bd.len(), l.dropout, rng);
            s.bd_dropped.assign(h_bd);
            self.mask_bd.apply(s.bd_dropped.as_mut_slice());
            &s.bd_dropped
        } else {
            h_bd
        };
        let (z, n) = (&mut self.z, self.h.rows());
        match l.agg {
            Agg::Mean => scaled_sum_fold_boundary(g, z, h_bd, n, norm),
            Agg::Sym => gcn_fold_boundary(g, z, &self.h, h_bd, n, norm),
        }
        match l.w_self {
            Some(w_self) => {
                self.h.matmul_into(w_self, out);
                self.z.matmul_into(l.w, &mut s.dz);
                out.add_assign(&s.dz);
            }
            None => self.z.matmul_into(l.w, out),
        }
        out.add_row_broadcast(l.b.row(0));
        l.act.apply_keeping(out, &mut self.act);
        self.n_bd = h_bd.rows();
        self.norm.clear();
        self.norm.extend_from_slice(norm);
    }

    /// The backward pass into caller-owned buffers: the input gradients
    /// land in `s.dh` (inner rows) and `s.dh_bd` (boundary rows), the
    /// gradients of `w`, `w_self` and `b` in `grads`, bitwise the fused
    /// backward's split at the inner/boundary row. With `inner_grad =
    /// false` the inner rows are not computed and `s.dh` is left as it
    /// was: the self-path product and the inner rows of the gather are
    /// skipped, and `dh_bd` and `grads` are the same bits. The upstream
    /// gradient `d_out` is overwritten with the gradient at the
    /// pre-activation.
    pub(crate) fn backward(
        &self,
        l: &SegLayer,
        g: &CsrGraph,
        d_out: &mut Matrix,
        s: &mut SegScratch,
        (g_w, g_self, g_b): (&mut Matrix, Option<&mut Matrix>, &mut Matrix),
        inner_grad: bool,
    ) {
        let n_inner = self.h.rows();
        assert_eq!(d_out.rows(), n_inner, "d_out row mismatch");
        l.act.backward_kept(&self.act, d_out);
        let dpre = &*d_out;
        if let Some(g_self) = g_self {
            self.h.matmul_tn_into(dpre, g_self);
        }
        self.z.matmul_tn_into(dpre, g_w);
        g_b.reset(1, dpre.cols());
        dpre.col_sums_into(g_b.as_mut_slice());
        dpre.matmul_nt_into(l.w, &mut s.dz);
        let n_rows = n_inner + self.n_bd;
        // Without the inner rows, the gather writes the boundary rows
        // straight into `dh_bd`.
        let (rows, dh) = if inner_grad {
            (0..n_rows, &mut s.dh)
        } else {
            (n_inner..n_rows, &mut s.dh_bd)
        };
        match l.agg {
            Agg::Mean => scaled_sum_aggregate_backward_rows_into(g, &s.dz, rows, &self.norm, dh),
            Agg::Sym => gcn_aggregate_backward_rows_into(g, &s.dz, rows, &self.norm, dh),
        }
        if inner_grad {
            s.dh.slice_rows_into(n_inner, n_rows, &mut s.dh_bd);
            s.dh.truncate_rows(n_inner);
            if let Some(w_self) = l.w_self {
                dpre.matmul_nt_into(w_self, &mut s.dz);
                s.dh.add_assign(&s.dz);
            }
            if self.drop_in {
                self.mask_in.apply(s.dh.as_mut_slice());
            }
        }
        if self.drop_bd {
            self.mask_bd.apply(s.dh_bd.as_mut_slice());
        }
    }
}
