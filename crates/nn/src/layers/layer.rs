//! [`Layer`]: one layer of any architecture, and the one place that
//! decides per architecture — how a stack is built, which normalizer a
//! layer reads, and how the engine's segmented training pass drives it.
//! Training, evaluation, serving and model files all go through it.

use crate::activation::Activation;
use crate::layers::{
    EvalScratch, GatCache, GatGrads, GatLayer, GcnGrads, GcnLayer, GcnSegCache, SageGrads,
    SageLayer, SageSegCache, SegScratch,
};
use bns_graph::{Adjacency, CsrGraph};
use bns_tensor::{Matrix, SeededRng};

/// A model architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelArch {
    /// GraphSAGE with mean aggregator (all main experiments).
    Sage,
    /// Single-head GAT (the paper's Table 10 ablation).
    Gat,
    /// Plain GCN with symmetric normalization (the propagation the
    /// paper's Appendix A variance analysis is stated for).
    Gcn,
}

/// One layer of a model stack.
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// A GraphSAGE layer.
    Sage(SageLayer),
    /// A GAT layer.
    Gat(GatLayer),
    /// A GCN layer.
    Gcn(GcnLayer),
}

/// One layer's training state, owned by the rank for the whole run and
/// overwritten every epoch: the forward cache the backward pass reads
/// (the eval pass runs through it too) and the parameter gradients,
/// which after the all-reduce hold the reduced values Adam steps with.
/// Made by [`Layer::new_slot`].
#[derive(Debug)]
pub struct LayerSlot(Slot);

/// A slot's contents per architecture. GAT has no segmented kernel —
/// its attention coefficients need destination *and* source rows — so
/// it runs fused once the boundary block lands and keeps its fused
/// cache here.
#[derive(Debug)]
enum Slot {
    Sage(SageSegCache, SageGrads),
    Gcn(GcnSegCache, GcnGrads),
    Gat(Option<GatCache>, GatGrads),
}

impl Layer {
    /// Builds the layer stack for `dims` (input, hidden..., output):
    /// identity on the last layer, ELU (GAT) or ReLU between layers
    /// (see [`crate::layer_stack`]), each layer drawing its weights from
    /// `rng` in order.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given.
    pub fn stack(arch: ModelArch, dims: &[usize], dropout: f32, rng: &mut SeededRng) -> Vec<Layer> {
        let hidden = match arch {
            ModelArch::Gat => Activation::Elu,
            ModelArch::Sage | ModelArch::Gcn => Activation::Relu,
        };
        crate::layer_stack(dims, hidden, |d_in, d_out, act| match arch {
            ModelArch::Sage => Layer::Sage(SageLayer::new(d_in, d_out, act, dropout, rng)),
            ModelArch::Gat => Layer::Gat(GatLayer::new(d_in, d_out, act, dropout, rng)),
            ModelArch::Gcn => Layer::Gcn(GcnLayer::new(d_in, d_out, act, dropout, rng)),
        })
    }

    /// This layer's architecture.
    pub fn arch(&self) -> ModelArch {
        match self {
            Layer::Sage(_) => ModelArch::Sage,
            Layer::Gat(_) => ModelArch::Gat,
            Layer::Gcn(_) => ModelArch::Gcn,
        }
    }

    /// The `d_in x d_out` projection every architecture has.
    fn projection(&self) -> &Matrix {
        match self {
            Layer::Sage(l) => &l.w_self,
            Layer::Gat(l) => &l.w,
            Layer::Gcn(l) => &l.w,
        }
    }

    /// Input feature dimension.
    pub fn d_in(&self) -> usize {
        self.projection().rows()
    }

    /// Output feature dimension.
    pub fn d_out(&self) -> usize {
        self.projection().cols()
    }

    /// Visits each parameter with its gradient in `slot`, in the order
    /// the optimizer's moment slots and the all-reduced gradient buffer
    /// follow: SAGE `w_self`, `w_neigh`, `b`; GCN `w`, `b`; GAT `w`,
    /// `a_l`, `a_r` (the model-file order too).
    pub fn for_each_param_grad(
        &mut self,
        slot: &mut LayerSlot,
        mut f: impl FnMut(&mut Matrix, &mut Matrix),
    ) {
        match (self, &mut slot.0) {
            (Layer::Sage(l), Slot::Sage(_, g)) => {
                f(&mut l.w_self, &mut g.w_self);
                f(&mut l.w_neigh, &mut g.w_neigh);
                f(&mut l.b, &mut g.b);
            }
            (Layer::Gcn(l), Slot::Gcn(_, g)) => {
                f(&mut l.w, &mut g.w);
                f(&mut l.b, &mut g.b);
            }
            (Layer::Gat(l), Slot::Gat(_, g)) => {
                f(&mut l.w, &mut g.w);
                f(&mut l.a_l, &mut g.a_l);
                f(&mut l.a_r, &mut g.a_r);
            }
            _ => unreachable!("slot/layer kind mismatch"),
        }
    }

    /// The per-node normalizer this layer's aggregation reads on `g`:
    /// `1/deg(v)` for SAGE's mean, `1/sqrt(deg(v) + 1)` for GCN, and
    /// none for GAT, whose attention softmax normalizes itself.
    pub fn normalizer(&self, g: &CsrGraph) -> Vec<f32> {
        match self {
            Layer::Sage(_) => g.mean_scale(),
            Layer::Gcn(_) => g.gcn_scale(),
            Layer::Gat(_) => Vec::new(),
        }
    }

    /// Estimated FLOPs of one training step (forward plus ~2x backward)
    /// of this layer over `edges` aggregated edges, `n_in` output rows
    /// and `n_act` projected rows — the compute term of the α–β cost
    /// model.
    pub fn estimate_flops(&self, edges: usize, n_in: usize, n_act: usize) -> f64 {
        let (edges, n_in, n_act) = (edges as f64, n_in as f64, n_act as f64);
        let (d_in, d_out) = (self.d_in() as f64, self.d_out() as f64);
        let fwd = match self {
            Layer::Sage(_) => 2.0 * edges * d_in + 4.0 * n_in * d_in * d_out,
            Layer::Gat(_) => 2.0 * n_act * d_in * d_out + 8.0 * edges * d_out,
            Layer::Gcn(_) => 2.0 * edges * d_in + 2.0 * n_in * d_in * d_out,
        };
        3.0 * fwd
    }

    /// Evaluation-mode forward (no dropout) into `out` (reshaped and
    /// overwritten): the first `n_out` rows of the output, computed
    /// from the input rows `h`. `norm` holds [`Layer::normalizer`]'s
    /// value for each of `g`'s source rows; SAGE reads the first
    /// `n_out` entries, GCN the first `g.num_sources()`, GAT none. A
    /// caller that keeps `scratch` and `out` across calls, as a serving
    /// shard does, makes SAGE and GCN allocation-free in steady state;
    /// GAT still allocates its fused forward's temporaries.
    pub fn forward_into<G: Adjacency>(
        &self,
        g: &G,
        h: &Matrix,
        n_out: usize,
        norm: &[f32],
        scratch: &mut EvalScratch,
        out: &mut Matrix,
    ) {
        match self {
            Layer::Sage(l) => l.forward_eval_into(g, h, n_out, &norm[..n_out], scratch, out),
            Layer::Gcn(l) => {
                l.forward_eval_into(g, h, n_out, &norm[..g.num_sources()], scratch, out)
            }
            // Dropout is off, so the RNG is never drawn from.
            Layer::Gat(l) => *out = l.forward(g, h, n_out, false, &mut SeededRng::new(0)).0,
        }
    }

    /// The run-long slot this layer's segmented forward cache and
    /// gradients live in.
    pub fn new_slot(&self) -> LayerSlot {
        LayerSlot(match self {
            Layer::Sage(_) => Slot::Sage(SageSegCache::default(), SageGrads::default()),
            Layer::Gat(_) => Slot::Gat(None, GatGrads::default()),
            Layer::Gcn(_) => Slot::Gcn(GcnSegCache::default(), GcnGrads::default()),
        })
    }

    /// Phase 1 of the segmented forward: everything that needs only
    /// the inner rows (dropout + inner-edge aggregation), so it can run
    /// while the boundary blocks are in flight. `sym` is the GCN
    /// normalizer of every local row.
    pub fn forward_inner(
        &self,
        slot: &mut LayerSlot,
        g: &CsrGraph,
        h_inner: &Matrix,
        sym: &[f32],
        (train, rng): (bool, &mut SeededRng),
    ) {
        match (self, &mut slot.0) {
            (Layer::Sage(l), Slot::Sage(c, _)) => l.forward_inner_into(g, h_inner, train, rng, c),
            (Layer::Gcn(l), Slot::Gcn(c, _)) => {
                l.forward_inner_into(g, h_inner, sym, train, rng, c)
            }
            (Layer::Gat(_), Slot::Gat(..)) => {}
            _ => unreachable!("slot/layer kind mismatch"),
        }
    }

    /// Phase 2: folds the received boundary block `h_bd` and finishes
    /// the layer, writing its output into `out`. `mean` is the SAGE
    /// normalizer of every inner row, `sym` the GCN normalizer of every
    /// local row.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_boundary(
        &self,
        slot: &mut LayerSlot,
        g: &CsrGraph,
        (h_inner, h_bd): (&Matrix, &Matrix),
        (mean, sym): (&[f32], &[f32]),
        (train, rng): (bool, &mut SeededRng),
        scratch: &mut SegScratch,
        out: &mut Matrix,
    ) {
        match (self, &mut slot.0) {
            (Layer::Sage(l), Slot::Sage(c, _)) => {
                l.forward_boundary_into(g, c, h_bd, mean, train, rng, scratch, out)
            }
            (Layer::Gcn(l), Slot::Gcn(c, _)) => {
                l.forward_boundary_into(g, c, h_bd, sym, train, rng, scratch, out)
            }
            (Layer::Gat(l), Slot::Gat(c, _)) => {
                let h_full = h_inner.vstack(h_bd);
                let (o, cache) = l.forward(g, &h_full, h_inner.rows(), train, rng);
                *out = o;
                *c = Some(cache);
            }
            _ => unreachable!("slot/layer kind mismatch"),
        }
    }

    /// Segmented backward from the upstream gradient `d` (one row per
    /// inner row): the input gradients land in `scratch.dh` (inner
    /// rows) and `scratch.dh_bd` (boundary rows), the parameter
    /// gradients in the slot. With `inner_grad = false` — the first
    /// layer, whose input gradient nobody reads — SAGE and GCN compute
    /// only what leaves the rank, the parameter gradients and `dh_bd`,
    /// and leave `scratch.dh` as it was; GAT's fused pass computes
    /// everything.
    pub fn backward_seg(
        &self,
        slot: &mut LayerSlot,
        g: &CsrGraph,
        d: &Matrix,
        scratch: &mut SegScratch,
        inner_grad: bool,
    ) {
        match (self, &mut slot.0) {
            (Layer::Sage(l), Slot::Sage(c, gr)) => {
                l.backward_seg_into(g, c, d, scratch, gr, inner_grad)
            }
            (Layer::Gcn(l), Slot::Gcn(c, gr)) => {
                l.backward_seg_into(g, c, d, scratch, gr, inner_grad)
            }
            (Layer::Gat(l), Slot::Gat(c, gr)) => {
                let (dh_full, grads) = l.backward(c.as_ref().expect("forward ran"), d);
                let n_in = d.rows();
                dh_full.slice_rows_into(0, n_in, &mut scratch.dh);
                dh_full.slice_rows_into(n_in, dh_full.rows(), &mut scratch.dh_bd);
                *gr = grads;
            }
            _ => unreachable!("slot/layer kind mismatch"),
        }
    }
}

impl LayerSlot {
    /// Visits the parameter gradients in [`Layer::for_each_param_grad`]
    /// order.
    pub fn for_each_grad(&self, f: impl FnMut(&Matrix)) {
        match &self.0 {
            Slot::Sage(_, g) => [&g.w_self, &g.w_neigh, &g.b].into_iter().for_each(f),
            Slot::Gcn(_, g) => [&g.w, &g.b].into_iter().for_each(f),
            Slot::Gat(_, g) => [&g.w, &g.a_l, &g.a_r].into_iter().for_each(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Skipping the inner input gradient (the first layer's backward)
    /// leaves the boundary rows and the parameter gradients the same
    /// bits, with dropout on both sides of the split.
    #[test]
    fn backward_without_inner_grad_keeps_boundary_rows_and_grads() {
        let (n_in, n_bd) = (30, 9);
        let mut rng = SeededRng::new(41);
        let mut b = bns_graph::GraphBuilder::new(n_in + n_bd);
        for _ in 0..120 {
            let u = rng.usize_below(n_in);
            let v = rng.usize_below(n_in + n_bd);
            if u != v {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let mean = g.mean_scale()[..n_in].to_vec();
        let sym = g.gcn_scale();
        let h_inner = Matrix::random_normal(n_in, 6, 0.0, 1.0, &mut rng);
        let h_bd = Matrix::random_normal(n_bd, 6, 0.0, 1.0, &mut rng);
        let d = Matrix::random_normal(n_in, 5, 0.0, 1.0, &mut rng);
        for arch in [ModelArch::Sage, ModelArch::Gcn] {
            let layer = Layer::stack(arch, &[6, 5], 0.3, &mut rng).remove(0);
            let run = |inner_grad: bool| {
                let (mut slot, mut scratch) = (layer.new_slot(), SegScratch::default());
                let (mut out, mut r) = (Matrix::default(), SeededRng::new(5));
                layer.forward_inner(&mut slot, &g, &h_inner, &sym, (true, &mut r));
                let hs = (&h_inner, &h_bd);
                let (norms, train) = ((&mean[..], &sym[..]), (true, &mut r));
                layer.forward_boundary(&mut slot, &g, hs, norms, train, &mut scratch, &mut out);
                layer.backward_seg(&mut slot, &g, &d, &mut scratch, inner_grad);
                let mut bits: Vec<u32> = scratch
                    .dh_bd
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect();
                slot.for_each_grad(|m| bits.extend(m.as_slice().iter().map(|x| x.to_bits())));
                bits
            };
            assert_eq!(run(true), run(false), "{arch:?}");
        }
    }

    #[test]
    fn stack_shapes_and_activations() {
        let mut rng = SeededRng::new(1);
        for arch in [ModelArch::Sage, ModelArch::Gat, ModelArch::Gcn] {
            let layers = Layer::stack(arch, &[10, 8, 6, 4], 0.5, &mut rng);
            assert_eq!(layers.len(), 3);
            assert!(layers.iter().all(|l| l.arch() == arch));
            assert_eq!((layers[0].d_in(), layers[2].d_out()), (10, 4));
            let acts: Vec<Activation> = layers
                .iter()
                .map(|l| match l {
                    Layer::Sage(l) => l.act,
                    Layer::Gat(l) => l.act,
                    Layer::Gcn(l) => l.act,
                })
                .collect();
            let hidden = if arch == ModelArch::Gat {
                Activation::Elu
            } else {
                Activation::Relu
            };
            assert_eq!(acts, [hidden, hidden, Activation::Identity]);
        }
    }
}
