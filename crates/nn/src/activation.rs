//! Elementwise activation functions and their derivatives.
//!
//! Relu/LeakyRelu run through the [`bns_tensor::simd`] backend; the
//! backward passes are fused single sweeps (multiply the upstream by
//! the mask in place) instead of the former mask-matrix + hadamard
//! two-pass, which allocated and swept twice per layer per step. Elu's
//! `exp` has no vector form here, so it keeps scalar loops — but its
//! backward is fused the same way.

use bns_tensor::{simd, Matrix};

/// An elementwise activation applied after a layer's linear part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// `max(0, x)`.
    Relu,
    /// `x` (used on the final layer before the loss).
    Identity,
    /// `x` if `x > 0` else `slope * x`.
    LeakyRelu(f32),
    /// `x` if `x > 0` else `exp(x) - 1`.
    Elu,
}

impl Activation {
    /// Applies the activation elementwise.
    ///
    /// Relu is an explicit `if v > 0 { v } else { 0.0 }` select on
    /// every backend (NaN maps to `0.0`, like the former `max`, and
    /// `-0.0` deterministically maps to `+0.0` — `f32::max` left that
    /// sign unspecified).
    pub fn apply(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.apply_into(x, &mut out);
        out
    }

    /// [`Activation::apply`] into a caller-owned buffer (reshaped and
    /// overwritten): `x` is copied in, then mapped in place.
    pub fn apply_into(&self, x: &Matrix, out: &mut Matrix) {
        out.assign(x);
        let o = out.as_mut_slice();
        match *self {
            Activation::Relu => simd::relu(simd::begin_kernel(), o),
            Activation::Identity => {}
            Activation::LeakyRelu(s) => simd::leaky_relu(simd::begin_kernel(), o, s),
            Activation::Elu => {
                for v in o {
                    *v = if *v > 0.0 { *v } else { v.exp() - 1.0 };
                }
            }
        }
    }

    /// The derivative evaluated at pre-activation `x`, multiplied
    /// elementwise into `upstream` (i.e. the backward step).
    ///
    /// Single fused sweep: `upstream * mask(pre)` with the mask formed
    /// in registers — the exact arithmetic of the old two-pass
    /// mask-matrix + hadamard (so NaN upstream through a dead unit
    /// still yields `NaN * 0.0 = NaN`), minus one allocation and one
    /// full traversal.
    pub fn backward(&self, pre: &Matrix, upstream: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.backward_into(pre, upstream, &mut out);
        out
    }

    /// [`Activation::backward`] into a caller-owned buffer (reshaped and
    /// overwritten): `upstream` is copied in, then multiplied by the
    /// derivative in place.
    ///
    /// # Panics
    ///
    /// Panics if `pre` and `upstream` differ in shape.
    pub fn backward_into(&self, pre: &Matrix, upstream: &Matrix, out: &mut Matrix) {
        assert_eq!(pre.shape(), upstream.shape(), "activation backward shape");
        out.assign(upstream);
        let (o, p) = (out.as_mut_slice(), pre.as_slice());
        match *self {
            Activation::Identity => {}
            Activation::Relu => simd::relu_backward(simd::begin_kernel(), o, p),
            Activation::LeakyRelu(s) => simd::leaky_relu_backward(simd::begin_kernel(), o, p, s),
            Activation::Elu => {
                for (o, &p) in o.iter_mut().zip(p) {
                    *o *= if p > 0.0 { 1.0 } else { p.exp() };
                }
            }
        }
    }

    /// Scalar derivative at `x` (for the per-edge GAT path).
    pub fn derivative(&self, x: f32) -> f32 {
        match *self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu(s) => {
                if x > 0.0 {
                    1.0
                } else {
                    s
                }
            }
            Activation::Elu => {
                if x > 0.0 {
                    1.0
                } else {
                    x.exp()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let x = Matrix::from_rows(&[&[-1.0, 0.5]]);
        let y = Activation::Relu.apply(&x);
        assert_eq!(y.row(0), &[0.0, 0.5]);
        let up = Matrix::from_rows(&[&[2.0, 2.0]]);
        let d = Activation::Relu.backward(&x, &up);
        assert_eq!(d.row(0), &[0.0, 2.0]);
    }

    #[test]
    fn leaky_relu_slope() {
        let x = Matrix::from_rows(&[&[-2.0, 3.0]]);
        let y = Activation::LeakyRelu(0.1).apply(&x);
        assert!((y[(0, 0)] + 0.2).abs() < 1e-6);
        assert_eq!(y[(0, 1)], 3.0);
    }

    #[test]
    fn elu_is_smooth_at_negative() {
        let x = Matrix::from_rows(&[&[-1.0]]);
        let y = Activation::Elu.apply(&x);
        assert!((y[(0, 0)] - ((-1.0f32).exp() - 1.0)).abs() < 1e-6);
        assert!((Activation::Elu.derivative(-1.0) - (-1.0f32).exp()).abs() < 1e-6);
    }

    #[test]
    fn identity_passthrough() {
        let x = Matrix::from_rows(&[&[-5.0, 5.0]]);
        assert_eq!(Activation::Identity.apply(&x), x);
    }
}
