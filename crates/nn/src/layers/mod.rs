//! Graph neural network layers with explicit forward/backward passes.
//!
//! All layers follow the same calling convention, designed for the
//! partition-parallel engine:
//!
//! * `forward(graph, h_full, n_out, ..)` consumes a feature matrix whose
//!   first `n_out` rows are the nodes to update (a partition's inner
//!   nodes) and whose remaining rows are externally supplied context
//!   (boundary nodes); it returns the updated `n_out` rows plus a cache.
//! * `backward(graph, cache, d_out)` consumes the gradient of the loss
//!   with respect to the layer's output and returns the gradient with
//!   respect to **every** input row (inner and boundary — the boundary
//!   rows are what the engine ships back to their owner partitions) plus
//!   parameter gradients.

mod gat;
mod gcn;
mod layer;
mod linear;
mod sage;

pub use gat::{GatCache, GatGrads, GatLayer};
pub use gcn::{GcnCache, GcnGrads, GcnLayer, GcnSegCache};
pub use layer::{Layer, LayerSlot, ModelArch};
pub use linear::{LinearCache, LinearGrads, LinearLayer};
pub use sage::{SageCache, SageGrads, SageLayer, SageSegCache};

use bns_tensor::{simd, Matrix, SeededRng};

/// An inverted-dropout keep mask, one bit per element.
///
/// [`DropMask::draw`] consumes the RNG stream exactly as the former
/// f32 mask did, one `rng.bernoulli(keep)` per element in row-major
/// order: `bernoulli(p)` keeps iff `(u >> 11) · 2⁻⁵³ < p` for the next
/// draw `u`, and because `(u >> 11)` is an integer and scaling by 2⁵³
/// is exact, that is the integer test `(u >> 11) < ceil(p · 2⁵³)` —
/// no float work per element. `keep >= 1` (rate 0) draws nothing.
///
/// [`DropMask::apply`] multiplies in place by a factor blended from
/// each bit: `1/keep` for a kept element, `+0.0` for a dropped one.
/// The product is an ordinary multiply, never a masked zero, so a
/// dropped `-3.0` still gives `-0.0` and a dropped NaN or infinity
/// gives NaN — the bits a multiply by the f32 mask matrix gave.
#[derive(Debug, Clone, Default)]
pub struct DropMask {
    bits: Vec<u64>,
    len: usize,
    scale: f32,
}

impl DropMask {
    /// Draws a fresh mask for `len` elements at dropout `rate`,
    /// reusing this mask's buffer.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is in `[0, 1)`.
    pub fn draw(&mut self, len: usize, rate: f32, rng: &mut SeededRng) {
        assert!(
            (0.0..1.0).contains(&rate),
            "dropout rate must be in [0,1), got {rate}"
        );
        let keep = 1.0 - rate;
        self.scale = 1.0 / keep;
        self.len = len;
        self.bits.clear();
        if keep as f64 >= 1.0 {
            self.bits.resize(len.div_ceil(64), u64::MAX);
            return;
        }
        let threshold = (keep as f64 * (1u64 << 53) as f64).ceil() as u64;
        let mut left = len;
        while left > 0 {
            let n = left.min(64);
            let mut word = 0u64;
            for j in 0..n {
                word |= (((rng.next_u64() >> 11) < threshold) as u64) << j;
            }
            self.bits.push(word);
            left -= n;
        }
    }

    /// Whether element `j` is kept.
    ///
    /// # Panics
    ///
    /// Panics if `j >= len()`.
    pub fn keeps(&self, j: usize) -> bool {
        assert!(j < self.len, "mask index {j} out of range");
        self.bits[j / 64] >> (j % 64) & 1 == 1
    }

    /// `x[j] *= keeps(j) ? 1/keep : +0.0`, in place (the forward
    /// dropout and its backward alike).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != len()`.
    pub fn apply(&self, x: &mut [f32]) {
        assert_eq!(x.len(), self.len, "dropout mask length mismatch");
        simd::mask_scale(simd::begin_kernel(), x, &self.bits, self.scale);
    }
}

/// Inverted dropout: draws a [`DropMask`] for `x` and returns the dropped
/// copy with the mask (for the backward pass).
pub(crate) fn dropout(x: &Matrix, rate: f32, rng: &mut SeededRng) -> (Matrix, DropMask) {
    let mut mask = DropMask::default();
    mask.draw(x.len(), rate, rng);
    let mut y = x.clone();
    mask.apply(y.as_mut_slice());
    (y, mask)
}

/// Temporaries of the evaluation forward ([`Layer::forward_into`]),
/// shared by every layer of a stack. A server keeps one per shard, so
/// once the buffers have grown to the largest batch a SAGE or GCN
/// forward allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// The aggregate `z`.
    pub(crate) z: Matrix,
    /// The updated rows' own inputs (SAGE).
    pub(crate) h_self: Matrix,
    /// The pre-activation.
    pub(crate) pre: Matrix,
    /// `z · W_neigh` (SAGE).
    pub(crate) zw: Matrix,
}

/// Per-rank scratch shared by every layer of the segmented training
/// path. Only one layer runs at a time, so one set of temporaries
/// serves all of them; the caller keeps it for the whole run, and the
/// buffers reach their largest layer's size within the first epoch and
/// stop allocating.
#[derive(Debug, Default)]
pub struct SegScratch {
    /// The dropped copy of the boundary block (training only).
    pub(crate) bd_dropped: Matrix,
    /// `z · W_neigh` (SAGE forward).
    pub(crate) zw: Matrix,
    /// Gradient at the pre-activation.
    pub(crate) dpre: Matrix,
    /// Gradient at the aggregate (then reused for `dpre · W_selfᵀ`).
    pub(crate) dz: Matrix,
    /// Transpose scratch for the `A · Bᵀ` products.
    pub(crate) wt: Matrix,
    /// After a segmented backward: the gradient for the inner input
    /// rows. The engine swaps it out as the next layer's upstream.
    pub dh: Matrix,
    /// After a segmented backward: the gradient for the boundary input
    /// rows, shipped back to their owners.
    pub dh_bd: Matrix,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropout_preserves_expectation() {
        let mut rng = SeededRng::new(1);
        let x = Matrix::filled(200, 50, 1.0);
        let (y, mask) = dropout(&x, 0.4, &mut rng);
        let mean = y.sum() / y.len() as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        // Survivors are scaled by exactly 1/keep, the rest are zero.
        assert!(y
            .as_slice()
            .iter()
            .enumerate()
            .all(|(j, &v)| v == if mask.keeps(j) { 1.0 / 0.6 } else { 0.0 }));
    }

    #[test]
    fn dropout_zero_rate_is_identity() {
        let mut rng = SeededRng::new(2);
        let x = Matrix::filled(3, 3, 2.0);
        let before = rng.clone().next_u64();
        let (y, _) = dropout(&x, 0.0, &mut rng);
        assert_eq!(y, x);
        assert_eq!(rng.next_u64(), before, "rate 0 draws nothing");
    }
}
