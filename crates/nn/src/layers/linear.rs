//! A plain fully-connected layer — the building block of the
//! structure-unaware MLP baseline (the paper's introduction motivates
//! GCNs by their advantage over exactly this alternative).

use crate::activation::Activation;
use crate::layers::{dropout, DropMask};
use bns_tensor::{xavier_uniform, Matrix, SeededRng};

/// Fully-connected layer: `y = act(x W + b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearLayer {
    /// Weights, `d_in x d_out`.
    pub w: Matrix,
    /// Bias, `1 x d_out`.
    pub b: Matrix,
    /// Post-linear activation.
    pub act: Activation,
    /// Input dropout rate.
    pub dropout: f32,
}

/// Saved forward state for [`LinearLayer::backward`].
#[derive(Debug, Clone)]
pub struct LinearCache {
    x_dropped: Matrix,
    mask: Option<DropMask>,
    pre: Matrix,
}

/// Parameter gradients from [`LinearLayer::backward`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinearGrads {
    /// Gradient of `w`.
    pub w: Matrix,
    /// Gradient of `b`.
    pub b: Matrix,
}

impl LinearLayer {
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

    /// Forward pass.
    pub fn forward(&self, x: &Matrix, train: bool, rng: &mut SeededRng) -> (Matrix, LinearCache) {
        assert_eq!(x.cols(), self.w.rows(), "input dim mismatch");
        let (x_dropped, mask) = if train && self.dropout > 0.0 {
            let (xd, m) = dropout(x, self.dropout, rng);
            (xd, Some(m))
        } else {
            (x.clone(), None)
        };
        let mut pre = x_dropped.matmul(&self.w);
        pre.add_row_broadcast(self.b.row(0));
        let out = self.act.apply(&pre);
        (
            out,
            LinearCache {
                x_dropped,
                mask,
                pre,
            },
        )
    }

    /// Backward pass: returns input gradient and parameter gradients.
    pub fn backward(&self, cache: &LinearCache, d_out: &Matrix) -> (Matrix, LinearGrads) {
        let dpre = self.act.backward(&cache.pre, d_out);
        let grads = LinearGrads {
            w: cache.x_dropped.matmul_tn(&dpre),
            b: Matrix::from_vec(1, self.w.cols(), dpre.col_sums()),
        };
        let mut dx = dpre.matmul_nt(&self.w);
        if let Some(m) = &cache.mask {
            m.apply(dx.as_mut_slice());
        }
        (dx, grads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::finite_diff;

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = SeededRng::new(60);
        let layer = LinearLayer::new(4, 3, Activation::Elu, 0.0, &mut rng);
        let x = Matrix::random_normal(5, 4, 0.0, 1.0, &mut rng);
        let loss = |l: &LinearLayer, xp: &Matrix| -> f64 {
            let mut r = SeededRng::new(0);
            let (out, _) = l.forward(xp, false, &mut r);
            out.sum() as f64
        };
        let mut r = SeededRng::new(0);
        let (out, cache) = layer.forward(&x, false, &mut r);
        let ones = Matrix::filled(out.rows(), out.cols(), 1.0);
        let (dx, grads) = layer.backward(&cache, &ones);
        let fd_x = finite_diff(&x, 1e-2, |xp| loss(&layer, xp));
        assert!(
            dx.approx_eq(&fd_x, 0.05),
            "dx diff {}",
            dx.max_abs_diff(&fd_x)
        );
        let fd_w = finite_diff(&layer.w, 1e-2, |w| {
            let mut l2 = layer.clone();
            l2.w = w.clone();
            loss(&l2, &x)
        });
        assert!(grads.w.approx_eq(&fd_w, 0.05));
        let fd_b = finite_diff(&layer.b, 1e-2, |b| {
            let mut l2 = layer.clone();
            l2.b = b.clone();
            loss(&l2, &x)
        });
        assert!(grads.b.approx_eq(&fd_b, 0.05));
    }

    #[test]
    fn identity_activation_is_affine() {
        let mut rng = SeededRng::new(61);
        let layer = LinearLayer::new(2, 2, Activation::Identity, 0.0, &mut rng);
        let x = Matrix::eye(2);
        let mut r = SeededRng::new(0);
        let (out, _) = layer.forward(&x, false, &mut r);
        // Rows of the identity recover W's rows plus bias.
        for i in 0..2 {
            for j in 0..2 {
                assert!((out[(i, j)] - (layer.w[(i, j)] + layer.b[(0, j)])).abs() < 1e-6);
            }
        }
    }
}
