//! Elementwise activation functions and their derivatives.
//!
//! Relu/LeakyRelu run through the [`bns_tensor::simd`] backend; the
//! backward passes are fused single sweeps (multiply the upstream by
//! the mask in place) instead of the former mask-matrix + hadamard
//! two-pass, which allocated and swept twice per layer per step. Elu's
//! `exp` has no vector form here, so it keeps scalar loops — but its
//! backward is fused the same way.

use crate::layers::DropMask;
use bns_tensor::{simd, Matrix};

/// What a segmented cache keeps of a pre-activation for the backward
/// pass ([`Activation::apply_keeping`]). Only the field its activation
/// needs is filled: ReLU's derivative depends only on the sign, so it
/// keeps one bit per element instead of an `f32`.
#[derive(Debug, Clone, Default)]
pub(crate) struct ActKeep {
    /// ReLU: which elements were `> 0`.
    positive: DropMask,
    /// LeakyReLU and ELU: the pre-activation.
    pre: Matrix,
}

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
        self.apply_in_place(out.as_mut_slice());
    }

    fn apply_in_place(&self, o: &mut [f32]) {
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

    /// Applies the activation to the pre-activation `x` in place,
    /// keeping in `keep` what [`Activation::backward_kept`] reads:
    /// ReLU one bit per element, LeakyReLU and ELU the pre-activation,
    /// identity nothing. The output bits are [`Activation::apply`]'s.
    pub(crate) fn apply_keeping(&self, x: &mut Matrix, keep: &mut ActKeep) {
        match *self {
            Activation::Relu => keep.positive.relu(x.as_mut_slice()),
            Activation::Identity => {}
            Activation::LeakyRelu(_) | Activation::Elu => {
                keep.pre.assign(x);
                self.apply_in_place(x.as_mut_slice());
            }
        }
    }

    /// The backward step in place on the upstream gradient `d`, from
    /// what [`Activation::apply_keeping`] kept: the bits
    /// [`Activation::backward_into`] gives at that pre-activation.
    ///
    /// # Panics
    ///
    /// Panics if `d` has another shape than the kept pre-activation.
    pub(crate) fn backward_kept(&self, keep: &ActKeep, d: &mut Matrix) {
        match *self {
            Activation::Relu => keep.positive.apply(d.as_mut_slice()),
            Activation::Identity => {}
            Activation::LeakyRelu(_) | Activation::Elu => {
                assert_eq!(keep.pre.shape(), d.shape(), "activation backward shape");
                self.backward_in_place(keep.pre.as_slice(), d.as_mut_slice());
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
        self.backward_in_place(pre.as_slice(), out.as_mut_slice());
    }

    /// Multiplies `o` by the derivative at `p`, in place.
    fn backward_in_place(&self, p: &[f32], o: &mut [f32]) {
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
