//! Model containers: stacks of layers plus parameter plumbing for
//! optimizers and gradient all-reduce.

use crate::activation::Activation;
use crate::layers::{SageCache, SageGrads, SageLayer};
use bns_graph::CsrGraph;
use bns_tensor::{Matrix, SeededRng};

/// A GraphSAGE model: `dims.len() - 1` layers with ReLU between hidden
/// layers and identity on the output layer, matching the paper's models
/// (e.g. Reddit: 4 layers, 256 hidden units).
#[derive(Debug, Clone, PartialEq)]
pub struct SageModel {
    /// The layer stack.
    pub layers: Vec<SageLayer>,
}

impl SageModel {
    /// Builds a model with the given layer dimensions, e.g.
    /// `&[602, 256, 256, 256, 41]` for the paper's Reddit model.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given.
    pub fn new(dims: &[usize], dropout: f32, rng: &mut SeededRng) -> Self {
        let layers = layer_stack(dims, Activation::Relu, |d_in, d_out, act| {
            SageLayer::new(d_in, d_out, act, dropout, rng)
        });
        Self { layers }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// All parameters, layer by layer (for the optimizer).
    pub fn params_mut(&mut self) -> Vec<&mut Matrix> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Flattens per-layer gradients into optimizer order.
    pub fn grads_refs(grads: &[SageGrads]) -> Vec<&Matrix> {
        grads.iter().flat_map(SageLayer::grads_vec).collect()
    }

    /// Full-graph forward pass (single rank, no partitioning): runs every
    /// layer over the same graph. `row_scale[v]` must be the mean-
    /// aggregator normalizer `1/deg(v)` (use 1 for isolated nodes).
    pub fn forward_full(
        &self,
        g: &CsrGraph,
        x: &Matrix,
        row_scale: &[f32],
        train: bool,
        rng: &mut SeededRng,
    ) -> (Matrix, Vec<SageCache>) {
        let n = g.num_nodes();
        let mut h = x.clone();
        let mut caches = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (next, cache) = layer.forward(g, &h, n, row_scale, train, rng);
            caches.push(cache);
            h = next;
        }
        (h, caches)
    }

    /// Full-graph backward pass matching [`SageModel::forward_full`].
    /// Returns per-layer gradients (same order as `layers`).
    pub fn backward_full(
        &self,
        g: &CsrGraph,
        caches: &[SageCache],
        d_out: &Matrix,
    ) -> Vec<SageGrads> {
        assert_eq!(caches.len(), self.layers.len(), "cache count mismatch");
        let mut grads: Vec<Option<SageGrads>> = (0..self.layers.len()).map(|_| None).collect();
        let mut d = d_out.clone();
        for l in (0..self.layers.len()).rev() {
            let (dh, g_l) = self.layers[l].backward(g, &caches[l], &d);
            grads[l] = Some(g_l);
            d = dh;
        }
        grads.into_iter().map(Option::unwrap).collect()
    }
}

/// Builds one layer per consecutive pair of `dims` (input, hidden...,
/// output), in order, with `layer(d_in, d_out, act)`: `act` is
/// `hidden` between layers and identity on the last.
///
/// # Panics
///
/// Panics if fewer than two dims are given.
pub fn layer_stack<L>(
    dims: &[usize],
    hidden: Activation,
    mut layer: impl FnMut(usize, usize, Activation) -> L,
) -> Vec<L> {
    assert!(dims.len() >= 2, "need at least input and output dims");
    let last = dims.len() - 2;
    (0..=last)
        .map(|l| {
            let act = if l == last {
                Activation::Identity
            } else {
                hidden
            };
            layer(dims[l], dims[l + 1], act)
        })
        .collect()
}

/// Concatenates matrices into the flat `f32` buffer `out` (for gradient
/// all-reduce across ranks), replacing its contents but keeping its
/// allocation.
pub fn flatten_into(mats: &[&Matrix], out: &mut Vec<f32>) {
    out.clear();
    for m in mats {
        out.extend_from_slice(m.as_slice());
    }
}

/// Writes a flat buffer produced by [`flatten_into`] back into matrices of the
/// same shapes.
///
/// # Panics
///
/// Panics if the total element count differs.
pub fn unflatten_into(flat: &[f32], mats: &mut [&mut Matrix]) {
    let total: usize = mats.iter().map(|m| m.len()).sum();
    assert_eq!(flat.len(), total, "flat buffer size mismatch");
    let mut off = 0usize;
    for m in mats {
        let n = m.len();
        m.as_mut_slice().copy_from_slice(&flat[off..off + n]);
        off += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;
    use crate::Adam;
    use bns_graph::generators::ring;

    #[test]
    fn model_shapes() {
        let mut rng = SeededRng::new(1);
        let m = SageModel::new(&[10, 8, 4], 0.5, &mut rng);
        assert_eq!(m.num_layers(), 2);
        assert_eq!(m.layers[0].d_in(), 10);
        assert_eq!(m.layers[1].d_out(), 4);
        assert_eq!(m.layers[0].act, Activation::Relu);
        assert_eq!(m.layers[1].act, Activation::Identity);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut rng = SeededRng::new(2);
        let a = Matrix::random_normal(2, 3, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(1, 4, 0.0, 1.0, &mut rng);
        let mut flat = vec![7.0; 3];
        flatten_into(&[&a, &b], &mut flat);
        assert_eq!(flat.len(), 10);
        let mut a2 = Matrix::zeros(2, 3);
        let mut b2 = Matrix::zeros(1, 4);
        unflatten_into(&flat, &mut [&mut a2, &mut b2]);
        assert_eq!(a2, a);
        assert_eq!(b2, b);
    }

    /// End-to-end sanity: a 2-layer SAGE model learns to classify nodes
    /// of a ring by a linearly-separable feature.
    #[test]
    fn sage_model_learns_simple_task() {
        let mut rng = SeededRng::new(3);
        let n = 60;
        let g = ring(n);
        let labels: Vec<usize> = (0..n).map(|v| usize::from(v < n / 2)).collect();
        // Features: noisy label indicator.
        let x = Matrix::from_fn(n, 4, |r, c| {
            let base = if labels[r] == 1 { 1.0 } else { -1.0 };
            base + 0.3 * ((r * 7 + c * 13) % 5) as f32 / 5.0
        });
        let scale: Vec<f32> = (0..n).map(|v| 1.0 / g.degree(v) as f32).collect();
        let rows: Vec<usize> = (0..n).collect();
        let mut model = SageModel::new(&[4, 8, 2], 0.0, &mut rng);
        let mut opt = Adam::new(0.01);
        let mut last_acc = 0.0;
        for _ in 0..60 {
            let (out, caches) = model.forward_full(&g, &x, &scale, true, &mut rng);
            let (_, mut dlogits, correct) = softmax_cross_entropy(&out, &labels, &rows);
            dlogits.scale(1.0 / n as f32);
            let grads = model.backward_full(&g, &caches, &dlogits);
            let grefs = SageModel::grads_refs(&grads);
            let gowned: Vec<Matrix> = grefs.into_iter().cloned().collect();
            let grefs2: Vec<&Matrix> = gowned.iter().collect();
            let mut params = model.params_mut();
            opt.step(&mut params, &grefs2);
            last_acc = correct as f64 / n as f64;
        }
        assert!(last_acc > 0.95, "accuracy {last_acc}");
    }
}
