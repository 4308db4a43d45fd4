//! Single-head graph attention (GAT) layer — used by the paper's Table 10
//! ablation showing BNS-GCN generalizes beyond GraphSAGE.
//!
//! For every updated node `v` (self-loop included):
//! `s_{uv} = LeakyReLU(a_l · g_u + a_r · g_v)` with `g = h W`,
//! `α_{uv} = softmax_u(s_{uv})`, `z_v = Σ_u α_{uv} g_u`,
//! `h'_v = act(z_v)`.
//!
//! Under boundary-node sampling the attention softmax renormalizes over
//! whatever neighbors are locally present, so no `1/p` feature rescaling
//! is applied (matching the paper's usage, which plugs GAT into the same
//! engine unchanged).

use crate::activation::Activation;
use crate::layers::{dropout, DropMask};
use bns_graph::Adjacency;
use bns_tensor::{simd, xavier_uniform, Matrix, SeededRng};

/// Single-head GAT layer parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GatLayer {
    /// Shared projection, `d_in x d_out`.
    pub w: Matrix,
    /// Left (source) attention vector, `1 x d_out`.
    pub a_l: Matrix,
    /// Right (target) attention vector, `1 x d_out`.
    pub a_r: Matrix,
    /// LeakyReLU slope for attention scores.
    pub neg_slope: f32,
    /// Output activation.
    pub act: Activation,
    /// Input dropout rate.
    pub dropout: f32,
}

/// Saved forward state for [`GatLayer::backward`].
#[derive(Debug, Clone)]
pub struct GatCache {
    h_dropped: Matrix,
    mask: Option<DropMask>,
    g_mat: Matrix,
    /// Per target node: offsets into the flattened edge arrays.
    offsets: Vec<usize>,
    /// Flattened neighbor ids (self-loop last per target).
    nbr: Vec<u32>,
    /// Flattened pre-LeakyReLU attention scores.
    pre_att: Vec<f32>,
    /// Flattened attention coefficients.
    alpha: Vec<f32>,
    z: Matrix,
    n_out: usize,
}

/// Parameter gradients from [`GatLayer::backward`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GatGrads {
    /// Gradient of `w`.
    pub w: Matrix,
    /// Gradient of `a_l`.
    pub a_l: Matrix,
    /// Gradient of `a_r`.
    pub a_r: Matrix,
}

impl GatLayer {
    /// Xavier-initialized layer with the conventional 0.2 LeakyReLU
    /// attention slope.
    pub fn new(
        d_in: usize,
        d_out: usize,
        act: Activation,
        dropout: f32,
        rng: &mut SeededRng,
    ) -> Self {
        Self {
            w: xavier_uniform(d_in, d_out, rng),
            a_l: xavier_uniform(1, d_out, rng),
            a_r: xavier_uniform(1, d_out, rng),
            neg_slope: 0.2,
            act,
            dropout,
        }
    }

    fn leaky(&self, x: f32) -> f32 {
        if x > 0.0 {
            x
        } else {
            self.neg_slope * x
        }
    }

    /// Forward pass over the local graph; the first `n_out` rows of
    /// `h_full` are updated, attending over their local neighbors plus a
    /// self-loop. `g` is a [`bns_graph::CsrGraph`] in training and a
    /// serving [`bns_graph::Block`].
    pub fn forward<G: Adjacency>(
        &self,
        g: &G,
        h_full: &Matrix,
        n_out: usize,
        train: bool,
        rng: &mut SeededRng,
    ) -> (Matrix, GatCache) {
        assert_eq!(h_full.cols(), self.w.rows(), "input dim mismatch");
        assert!(n_out <= g.num_rows(), "n_out exceeds graph size");
        let (h_dropped, mask) = if train && self.dropout > 0.0 {
            let (h, m) = dropout(h_full, self.dropout, rng);
            (h, Some(m))
        } else {
            (h_full.clone(), None)
        };
        let g_mat = h_dropped.matmul(&self.w);
        let d_out = self.w.cols();
        // Per-row attention half-scores.
        let el: Vec<f32> = (0..g_mat.rows())
            .map(|r| dot(g_mat.row(r), self.a_l.row(0)))
            .collect();
        let er: Vec<f32> = (0..g_mat.rows())
            .map(|r| dot(g_mat.row(r), self.a_r.row(0)))
            .collect();
        let bk = simd::begin_kernel();
        let mut offsets = Vec::with_capacity(n_out + 1);
        offsets.push(0usize);
        let mut nbr: Vec<u32> = Vec::new();
        let mut pre_att: Vec<f32> = Vec::new();
        let mut alpha: Vec<f32> = Vec::new();
        // Softmax scratch reused across targets (one allocation per
        // forward, not one per node).
        let mut exps: Vec<f32> = Vec::new();
        let mut z = Matrix::zeros(n_out, d_out);
        for v in 0..n_out {
            let start = nbr.len();
            for &u in g.neighbors(v) {
                nbr.push(u);
                pre_att.push(self.leaky(el[u as usize] + er[v]));
            }
            // Self-loop.
            nbr.push(v as u32);
            pre_att.push(self.leaky(el[v] + er[v]));
            // Softmax over this target's edges.
            let scores = &pre_att[start..];
            let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            exps.clear();
            exps.extend(scores.iter().map(|&s| (s - max).exp()));
            for &e in &exps {
                denom += e;
            }
            let zr = z.row_mut(v);
            for (i, &e) in exps.iter().enumerate() {
                let a = e / denom;
                alpha.push(a);
                simd::axpy(bk, zr, a, g_mat.row(nbr[start + i] as usize));
            }
            offsets.push(nbr.len());
        }
        let out = self.act.apply(&z);
        (
            out,
            GatCache {
                h_dropped,
                mask,
                g_mat,
                offsets,
                nbr,
                pre_att,
                alpha,
                z,
                n_out,
            },
        )
    }

    /// Backward pass: returns the gradient for every input row of
    /// `h_full` plus parameter gradients.
    pub fn backward(&self, cache: &GatCache, d_out: &Matrix) -> (Matrix, GatGrads) {
        assert_eq!(d_out.rows(), cache.n_out, "d_out row mismatch");
        let dz = self.act.backward(&cache.z, d_out);
        let bk = simd::begin_kernel();
        let d_feat = self.w.cols();
        let n_rows = cache.g_mat.rows();
        let mut dg = Matrix::zeros(n_rows, d_feat);
        let mut da_l = vec![0.0f32; d_feat];
        let mut da_r = vec![0.0f32; d_feat];
        // dα scratch reused across targets.
        let mut dalpha: Vec<f32> = Vec::new();
        for v in 0..cache.n_out {
            let (s, e) = (cache.offsets[v], cache.offsets[v + 1]);
            let dzv = dz.row(v);
            // dα for each edge and the softmax correction term.
            dalpha.clear();
            dalpha.resize(e - s, 0.0);
            let mut corr = 0.0f32;
            for (i, idx) in (s..e).enumerate() {
                let u = cache.nbr[idx] as usize;
                let da = dot(dzv, cache.g_mat.row(u));
                dalpha[i] = da;
                corr += cache.alpha[idx] * da;
                // z-path gradient into g_u.
                simd::axpy(bk, dg.row_mut(u), cache.alpha[idx], dzv);
            }
            for (i, idx) in (s..e).enumerate() {
                let u = cache.nbr[idx] as usize;
                let ds = cache.alpha[idx] * (dalpha[i] - corr);
                let dpre = ds * self.leaky_d_from_value(cache.pre_att[idx]);
                // pre = a_l · g_u + a_r · g_v (then leaky).
                simd::axpy(bk, &mut da_l, dpre, cache.g_mat.row(u));
                simd::axpy(bk, &mut da_r, dpre, cache.g_mat.row(v));
                simd::axpy(bk, dg.row_mut(u), dpre, self.a_l.row(0));
                simd::axpy(bk, dg.row_mut(v), dpre, self.a_r.row(0));
            }
        }
        let grads = GatGrads {
            w: cache.h_dropped.matmul_tn(&dg),
            a_l: Matrix::from_vec(1, d_feat, da_l),
            a_r: Matrix::from_vec(1, d_feat, da_r),
        };
        let mut dh = dg.matmul_nt(&self.w);
        if let Some(m) = &cache.mask {
            m.apply(dh.as_mut_slice());
        }
        (dh, grads)
    }

    /// LeakyReLU derivative recovered from the *post*-activation value
    /// (valid because LeakyReLU preserves sign for positive slope).
    fn leaky_d_from_value(&self, y: f32) -> f32 {
        if y > 0.0 {
            1.0
        } else {
            self.neg_slope
        }
    }
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::finite_diff;
    use bns_graph::generators::erdos_renyi_m;
    use bns_graph::CsrGraph;

    fn setup() -> (CsrGraph, GatLayer, Matrix) {
        let mut rng = SeededRng::new(30);
        let g = erdos_renyi_m(9, 18, &mut rng);
        let layer = GatLayer::new(4, 3, Activation::Elu, 0.0, &mut rng);
        let h = Matrix::random_normal(9, 4, 0.0, 1.0, &mut rng);
        (g, layer, h)
    }

    fn loss(layer: &GatLayer, g: &CsrGraph, h: &Matrix, n_out: usize) -> f64 {
        let mut rng = SeededRng::new(0);
        let (out, _) = layer.forward(g, h, n_out, false, &mut rng);
        // A non-uniform functional so attention gradients are exercised.
        let mut acc = 0.0f64;
        for r in 0..out.rows() {
            for (c, &x) in out.row(r).iter().enumerate() {
                acc += (x * (1.0 + 0.3 * c as f32)) as f64;
            }
        }
        acc
    }

    fn upstream(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, c| 1.0 + 0.3 * c as f32)
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let (g, layer, h) = setup();
        let mut rng = SeededRng::new(0);
        let (out, cache) = layer.forward(&g, &h, 9, false, &mut rng);
        let (dh, _) = layer.backward(&cache, &upstream(out.rows(), out.cols()));
        let fd = finite_diff(&h, 1e-2, |hp| loss(&layer, &g, hp, 9));
        assert!(dh.approx_eq(&fd, 0.08), "max diff {}", dh.max_abs_diff(&fd));
    }

    #[test]
    fn parameter_gradients_match_finite_difference() {
        let (g, layer, h) = setup();
        let mut rng = SeededRng::new(0);
        let (out, cache) = layer.forward(&g, &h, 9, false, &mut rng);
        let (_, grads) = layer.backward(&cache, &upstream(out.rows(), out.cols()));

        let fd_w = finite_diff(&layer.w, 1e-2, |w| {
            let mut l2 = layer.clone();
            l2.w = w.clone();
            loss(&l2, &g, &h, 9)
        });
        assert!(
            grads.w.approx_eq(&fd_w, 0.08),
            "w diff {}",
            grads.w.max_abs_diff(&fd_w)
        );
        let fd_al = finite_diff(&layer.a_l, 1e-2, |a| {
            let mut l2 = layer.clone();
            l2.a_l = a.clone();
            loss(&l2, &g, &h, 9)
        });
        assert!(
            grads.a_l.approx_eq(&fd_al, 0.08),
            "a_l diff {}",
            grads.a_l.max_abs_diff(&fd_al)
        );
        let fd_ar = finite_diff(&layer.a_r, 1e-2, |a| {
            let mut l2 = layer.clone();
            l2.a_r = a.clone();
            loss(&l2, &g, &h, 9)
        });
        assert!(
            grads.a_r.approx_eq(&fd_ar, 0.08),
            "a_r diff {}",
            grads.a_r.max_abs_diff(&fd_ar)
        );
    }

    #[test]
    fn attention_sums_to_one_per_target() {
        let (g, layer, h) = setup();
        let mut rng = SeededRng::new(0);
        let (_, cache) = layer.forward(&g, &h, 9, false, &mut rng);
        for v in 0..9 {
            let (s, e) = (cache.offsets[v], cache.offsets[v + 1]);
            let total: f32 = cache.alpha[s..e].iter().sum();
            assert!((total - 1.0).abs() < 1e-5, "node {v}: {total}");
        }
    }

    #[test]
    fn boundary_rows_receive_gradient() {
        // 2 inner + 1 boundary; inner 0 attends to boundary 2.
        let g = CsrGraph::from_edges(3, [(0, 2), (0, 1)]);
        let mut rng = SeededRng::new(5);
        let layer = GatLayer::new(2, 2, Activation::Identity, 0.0, &mut rng);
        let h = Matrix::random_normal(3, 2, 0.0, 1.0, &mut rng);
        let (out, cache) = layer.forward(&g, &h, 2, false, &mut rng);
        let ones = Matrix::filled(out.rows(), out.cols(), 1.0);
        let (dh, _) = layer.backward(&cache, &ones);
        assert!(dh.row(2).iter().any(|&x| x != 0.0));
    }
}
