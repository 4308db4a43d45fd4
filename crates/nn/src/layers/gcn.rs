//! The vanilla GCN layer (Kipf & Welling) with symmetric normalization —
//! used by the variance-analysis experiments (paper Appendix A analyzes
//! exactly this propagation `Z = P H W`).

use crate::activation::Activation;
use crate::aggregate::{gcn_aggregate_backward, gcn_aggregate_into};
use crate::layers::{dropout, DropMask, EvalScratch};
use bns_graph::{Adjacency, CsrGraph};
use bns_tensor::{xavier_uniform, Matrix, SeededRng};

/// GCN layer parameters: `h' = act( P h · W + b )` with
/// `P = D̃^{-1/2} Ã D̃^{-1/2}`.
#[derive(Debug, Clone, PartialEq)]
pub struct GcnLayer {
    /// Weights, `d_in x d_out`.
    pub w: Matrix,
    /// Bias, `1 x d_out`.
    pub b: Matrix,
    /// Post-linear activation.
    pub act: Activation,
    /// Input dropout rate.
    pub dropout: f32,
}

/// Saved forward state for [`GcnLayer::backward`].
#[derive(Debug, Clone)]
pub struct GcnCache {
    h_dropped: Matrix,
    mask: Option<DropMask>,
    z: Matrix,
    pre: Matrix,
    n_out: usize,
    s: Vec<f32>,
}

/// Parameter gradients from [`GcnLayer::backward`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GcnGrads {
    /// Gradient of `w`.
    pub w: Matrix,
    /// Gradient of `b`.
    pub b: Matrix,
}

impl GcnLayer {
    /// Xavier-initialized layer.
    pub fn new(
        d_in: usize,
        d_out: usize,
        act: Activation,
        dropout: f32,
        rng: &mut SeededRng,
    ) -> Self {
        Self {
            w: xavier_uniform(d_in, d_out, rng),
            b: Matrix::zeros(1, d_out),
            act,
            dropout,
        }
    }

    /// Forward pass; `s[v] = 1/sqrt(deg_full(v) + 1)` for every local
    /// row (every source row of `g`).
    pub fn forward<G: Adjacency>(
        &self,
        g: &G,
        h_full: &Matrix,
        n_out: usize,
        s: &[f32],
        train: bool,
        rng: &mut SeededRng,
    ) -> (Matrix, GcnCache) {
        assert_eq!(h_full.cols(), self.w.rows(), "input dim mismatch");
        let (h_dropped, mask) = if train && self.dropout > 0.0 {
            let (h, m) = dropout(h_full, self.dropout, rng);
            (h, Some(m))
        } else {
            (h_full.clone(), None)
        };
        let (mut scratch, mut out) = (EvalScratch::default(), Matrix::default());
        self.forward_eval_into(g, &h_dropped, n_out, s, &mut scratch, &mut out);
        (
            out,
            GcnCache {
                h_dropped,
                mask,
                z: scratch.z,
                pre: scratch.pre,
                n_out,
                s: s.to_vec(),
            },
        )
    }

    /// The forward pass with no dropout and no cache, into caller-owned
    /// buffers (`out` is reshaped and overwritten). [`GcnLayer::forward`]
    /// runs it on its dropped input, so with `train = false` the two give
    /// the same bits; this one does not copy the input.
    pub fn forward_eval_into<G: Adjacency>(
        &self,
        g: &G,
        h_full: &Matrix,
        n_out: usize,
        s: &[f32],
        scratch: &mut EvalScratch,
        out: &mut Matrix,
    ) {
        assert_eq!(h_full.cols(), self.w.rows(), "input dim mismatch");
        gcn_aggregate_into(g, h_full, n_out, s, &mut scratch.z);
        scratch.z.matmul_into(&self.w, &mut scratch.pre);
        scratch.pre.add_row_broadcast(self.b.row(0));
        self.act.apply_into(&scratch.pre, out);
    }

    /// Backward pass: returns gradient for all input rows plus parameter
    /// gradients.
    pub fn backward(&self, g: &CsrGraph, cache: &GcnCache, d_out: &Matrix) -> (Matrix, GcnGrads) {
        assert_eq!(d_out.rows(), cache.n_out, "d_out row mismatch");
        let dpre = self.act.backward(&cache.pre, d_out);
        let grads = GcnGrads {
            w: cache.z.matmul_tn(&dpre),
            b: Matrix::from_vec(1, self.w.cols(), dpre.col_sums()),
        };
        let dz = dpre.matmul_nt(&self.w);
        let mut dh = gcn_aggregate_backward(g, &dz, cache.h_dropped.rows(), &cache.s);
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
    use crate::layers::{Layer, SegScratch};
    use bns_graph::generators::erdos_renyi_m;

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = SeededRng::new(20);
        let g = erdos_renyi_m(10, 20, &mut rng);
        // ELU is C¹-smooth, keeping the finite-difference check tight
        // (ReLU kinks inflate central-difference error).
        let layer = GcnLayer::new(4, 3, Activation::Elu, 0.0, &mut rng);
        let h = Matrix::random_normal(10, 4, 0.0, 1.0, &mut rng);
        let s: Vec<f32> = (0..10)
            .map(|v| 1.0 / ((g.degree(v) + 1) as f32).sqrt())
            .collect();
        let loss = |l: &GcnLayer, hp: &Matrix| -> f64 {
            let mut r = SeededRng::new(0);
            let (out, _) = l.forward(&g, hp, 10, &s, false, &mut r);
            out.sum() as f64
        };
        let mut r = SeededRng::new(0);
        let (out, cache) = layer.forward(&g, &h, 10, &s, false, &mut r);
        let ones = Matrix::filled(out.rows(), out.cols(), 1.0);
        let (dh, grads) = layer.backward(&g, &cache, &ones);
        let fd_h = finite_diff(&h, 1e-2, |hp| loss(&layer, hp));
        assert!(
            dh.approx_eq(&fd_h, 0.08),
            "dh diff {}",
            dh.max_abs_diff(&fd_h)
        );
        let fd_w = finite_diff(&layer.w, 1e-2, |w| {
            let mut l2 = layer.clone();
            l2.w = w.clone();
            loss(&l2, &h)
        });
        assert!(
            grads.w.approx_eq(&fd_w, 0.05),
            "dw diff {}",
            grads.w.max_abs_diff(&fd_w)
        );
    }

    #[test]
    fn segmented_forward_backward_matches_fused_bitwise() {
        let mut rng = SeededRng::new(41);
        let n_in = 7;
        let n_bd = 4;
        let mut b = bns_graph::GraphBuilder::new(n_in + n_bd);
        for _ in 0..26 {
            let u = rng.uniform_range(0.0, n_in as f32) as usize;
            let v = rng.uniform_range(0.0, (n_in + n_bd) as f32) as usize;
            if u != v {
                b.add_edge(u, v.min(n_in + n_bd - 1));
            }
        }
        let g = b.build();
        let mut layer = GcnLayer::new(3, 5, Activation::Elu, 0.0, &mut rng);
        layer.dropout = 0.3;
        let h_inner = Matrix::random_normal(n_in, 3, 0.0, 1.0, &mut rng);
        let h_bd = Matrix::random_normal(n_bd, 3, 0.0, 1.0, &mut rng);
        let s: Vec<f32> = (0..g.num_nodes())
            .map(|v| 1.0 / ((g.degree(v) + 1) as f32).sqrt())
            .collect();
        let d_out = Matrix::random_normal(n_in, 5, 0.0, 1.0, &mut rng);

        let mut rng_fused = SeededRng::new(88);
        let (out_f, cache_f) =
            layer.forward(&g, &h_inner.vstack(&h_bd), n_in, &s, true, &mut rng_fused);
        let (dh_f, grads_f) = layer.backward(&g, &cache_f, &d_out);

        let mut rng_seg = SeededRng::new(88);
        let seg = Layer::Gcn(layer.clone());
        let (mut slot, mut scratch, mut out_s) =
            (seg.new_slot(), SegScratch::default(), Matrix::default());
        seg.forward_inner(&mut slot, &g, &h_inner, &s, (true, &mut rng_seg));
        let (hs, norms, train) = ((&h_inner, &h_bd), (&[][..], &s[..]), (true, &mut rng_seg));
        seg.forward_boundary(&mut slot, &g, hs, norms, train, &mut scratch, &mut out_s);
        let mut d = d_out.clone();
        seg.backward_seg(&mut slot, &g, &mut d, &mut scratch, true);
        let (dh_in, dh_bd) = (&scratch.dh, &scratch.dh_bd);
        let mut grads_s = Vec::new();
        slot.for_each_grad(|m| grads_s.push(m.clone()));

        let bits = |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&out_f), bits(&out_s));
        assert_eq!(bits(&dh_f.slice_rows(0, n_in)), bits(dh_in));
        assert_eq!(bits(&dh_f.slice_rows(n_in, n_in + n_bd)), bits(dh_bd));
        assert_eq!(bits(&grads_f.w), bits(&grads_s[0]));
        assert_eq!(bits(&grads_f.b), bits(&grads_s[1]));
    }

    #[test]
    fn output_shape_respects_n_out() {
        let mut rng = SeededRng::new(21);
        let g = erdos_renyi_m(8, 12, &mut rng);
        let layer = GcnLayer::new(3, 5, Activation::Identity, 0.0, &mut rng);
        let h = Matrix::random_normal(8, 3, 0.0, 1.0, &mut rng);
        let s = vec![0.5; 8];
        let (out, _) = layer.forward(&g, &h, 4, &s, false, &mut rng);
        assert_eq!(out.shape(), (4, 5));
    }
}
