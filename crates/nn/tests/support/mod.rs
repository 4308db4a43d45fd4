//! A test-local stack loop over the segmented path training runs
//! (`Layer::{forward_inner, forward_boundary, backward_seg}`) on a whole
//! graph: every layer updates every node, so no row is a boundary row.

use bns_graph::CsrGraph;
use bns_nn::{Layer, LayerSlot, SegScratch};
use bns_tensor::{Matrix, SeededRng};

/// One pass's training state: a slot per layer and the shared scratch.
pub struct Pass {
    /// After [`Pass::backward`], layer `l`'s parameter gradients.
    pub slots: Vec<LayerSlot>,
    scratch: SegScratch,
}

impl Pass {
    pub fn new(layers: &[Layer]) -> Self {
        Self {
            slots: layers.iter().map(Layer::new_slot).collect(),
            scratch: SegScratch::default(),
        }
    }

    /// The logits of `x` on `g` without dropout; `mean[v]` is node
    /// `v`'s aggregation normalizer.
    pub fn forward(&mut self, layers: &[Layer], g: &CsrGraph, x: &Matrix, mean: &[f32]) -> Matrix {
        let mut h = x.clone();
        let mut rng = SeededRng::new(0);
        for (layer, slot) in layers.iter().zip(&mut self.slots) {
            let (none, mut out) = (Matrix::zeros(0, h.cols()), Matrix::default());
            layer.forward_inner(slot, g, &h, &[], (false, &mut rng));
            let (hs, norms) = ((&h, &none), (mean, &[][..]));
            let train = (false, &mut rng);
            layer.forward_boundary(slot, g, hs, norms, train, &mut self.scratch, &mut out);
            h = out;
        }
        h
    }

    /// The gradient for `x` from the logits' gradient `d`, after
    /// [`Pass::forward`].
    pub fn backward(&mut self, layers: &[Layer], g: &CsrGraph, d: &Matrix) -> Matrix {
        let mut d = d.clone();
        for (layer, slot) in layers.iter().zip(&mut self.slots).rev() {
            layer.backward_seg(slot, g, &mut d, &mut self.scratch, true);
            d = std::mem::take(&mut self.scratch.dh);
        }
        d
    }
}
