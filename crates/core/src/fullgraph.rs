//! Single-rank full-graph reference trainer.
//!
//! Used (a) to verify that the partition-parallel engine at `p = 1`
//! computes exactly full-graph training (the paper's premise that
//! vanilla partition parallelism is *exact*), and (b) as the shared
//! infrastructure for the sampling-based baselines in [`crate::minibatch`].
//!
//! Every trainer here runs the segmented [`Layer`] methods the engine
//! runs, through one crate-private `Trainer`. At `k = 1` the engine
//! reproduces [`train_full`]'s trained layers and final scores bit for
//! bit. Its per-epoch losses agree only to about 8 significant digits:
//! the engine's loss travels as an `f32` in the all-reduce payload,
//! while [`train_full`] keeps the `f64` sum.

use crate::engine::TrainedModel;
use bns_data::{Dataset, Labels};
use bns_graph::CsrGraph;
use bns_nn::loss::{bce_with_logits_into, softmax_cross_entropy_into};
use bns_nn::metrics::{accuracy, micro_f1};
use bns_nn::{Adam, Layer, LayerSlot, ModelArch, SegScratch};
use bns_tensor::{Matrix, SeededRng};

/// Configuration for full-graph training.
#[derive(Debug, Clone)]
pub struct FullGraphConfig {
    /// Hidden-layer widths.
    pub hidden: Vec<usize>,
    /// Input dropout per layer.
    pub dropout: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Epochs.
    pub epochs: usize,
    /// Seed (model init + dropout).
    pub seed: u64,
}

impl FullGraphConfig {
    /// Small fast config for tests.
    pub fn quick_test() -> Self {
        Self {
            hidden: vec![16],
            dropout: 0.0,
            lr: 0.01,
            epochs: 10,
            seed: 0,
        }
    }
}

/// Result of a full-graph run.
#[derive(Debug, Clone)]
pub struct FullGraphRun {
    /// Training loss per epoch.
    pub losses: Vec<f64>,
    /// Final validation score.
    pub final_val: f64,
    /// Final test score.
    pub final_test: f64,
    /// Mean epoch wall time, seconds.
    pub avg_epoch_s: f64,
    /// The trained model.
    pub model: TrainedModel,
}

/// The layer widths of a model for `ds`: input, `hidden`..., classes.
pub(crate) fn model_dims(ds: &Dataset, hidden: &[usize]) -> Vec<usize> {
    let mut dims = vec![ds.feat_dim()];
    dims.extend_from_slice(hidden);
    dims.push(ds.num_classes);
    dims
}

/// A GraphSAGE [`TrainedModel`] in training on one process, on the
/// segmented protocol the engine runs: one run-long [`LayerSlot`] per
/// layer, one [`SegScratch`] and one Adam. A layer's inner rows are the
/// rows it updates, listed first; its boundary rows are the other
/// source rows — none on a whole graph or subgraph, the sampled
/// support or historical rows in a mini-batch block.
///
/// `h` carries the activations: the caller loads layer 0's inner rows
/// into it, and each [`Trainer::forward`] replaces it with the layer's
/// output. `d` carries the upstream gradient: the caller seeds it from
/// the loss, and each [`Trainer::backward`] above layer 0 replaces it
/// with the gradient for that layer's inner input rows.
pub(crate) struct Trainer {
    pub(crate) model: TrainedModel,
    slots: Vec<LayerSlot>,
    /// After [`Trainer::backward`], `dh_bd` holds the gradient for the
    /// layer's boundary input rows.
    pub(crate) scratch: SegScratch,
    opt: Adam,
    pub(crate) h: Matrix,
    next: Matrix,
    pub(crate) d: Matrix,
}

impl Trainer {
    /// A fresh model over `dims`, its weights drawn from `seed`.
    pub(crate) fn new(dims: &[usize], dropout: f32, lr: f32, seed: u64) -> Self {
        let mut model =
            TrainedModel::new(ModelArch::Sage, dims, dropout, &mut SeededRng::new(seed));
        let mut slots: Vec<LayerSlot> = model.layers.iter().map(Layer::new_slot).collect();
        let mut opt = Adam::new(lr);
        for (layer, slot) in model.layers.iter_mut().zip(&mut slots) {
            layer.for_each_param_grad(slot, |p, _| opt.push_moments(p));
        }
        Self {
            model,
            slots,
            scratch: SegScratch::default(),
            opt,
            h: Matrix::default(),
            next: Matrix::default(),
            d: Matrix::default(),
        }
    }

    pub(crate) fn num_layers(&self) -> usize {
        self.slots.len()
    }

    /// Training forward of layer `l` over `g`, whose source rows are
    /// `h`'s rows then `h_bd`'s (`None`: no boundary rows). `mean` holds
    /// the normalizer of each of `h`'s rows. Dropout draws from `rng`,
    /// inner rows first, as on the stacked rows.
    pub(crate) fn forward(
        &mut self,
        l: usize,
        g: &CsrGraph,
        h_bd: Option<&Matrix>,
        mean: &[f32],
        rng: &mut SeededRng,
    ) {
        let (layer, slot) = (&self.model.layers[l], &mut self.slots[l]);
        let none = Matrix::zeros(0, self.h.cols());
        let h_bd = h_bd.unwrap_or(&none);
        // A SAGE layer reads no GCN normalizer.
        layer.forward_inner(slot, g, &self.h, &[], (true, &mut *rng));
        let (hs, norms, train) = ((&self.h, h_bd), (mean, &[][..]), (true, rng));
        let (scratch, out) = (&mut self.scratch, &mut self.next);
        layer.forward_boundary(slot, g, hs, norms, train, scratch, out);
        std::mem::swap(&mut self.h, &mut self.next);
    }

    /// Backward of layer `l` from `d`: the parameter gradients land in
    /// the layer's slot and the boundary rows' input gradient in
    /// `scratch.dh_bd`. Above layer 0, `d` becomes the inner rows'
    /// input gradient; layer 0 computes no inner input gradient, as in
    /// the engine.
    pub(crate) fn backward(&mut self, l: usize, g: &CsrGraph) {
        let inner_grad = l > 0;
        let (layer, slot) = (&self.model.layers[l], &mut self.slots[l]);
        layer.backward_seg(slot, g, &self.d, &mut self.scratch, inner_grad);
        if inner_grad {
            std::mem::swap(&mut self.d, &mut self.scratch.dh);
        }
    }

    /// One Adam step on every parameter, with its gradient in place.
    pub(crate) fn step(&mut self) {
        let mut step = self.opt.begin_step();
        for (layer, slot) in self.model.layers.iter_mut().zip(&mut self.slots) {
            layer.for_each_param_grad(slot, |p, g| step.update(p, g));
        }
    }
}

/// The summed loss of `logits` over `rows` under `labels`, with its
/// gradient written into `d`: softmax cross-entropy for single-label,
/// sigmoid BCE for multi-label.
pub(crate) fn loss_into(labels: &Labels, logits: &Matrix, rows: &[usize], d: &mut Matrix) -> f64 {
    match labels {
        Labels::Single(labels) => softmax_cross_entropy_into(logits, labels, rows, d).0,
        Labels::Multi(y) => bce_with_logits_into(logits, y, rows, d),
    }
}

/// Trains GraphSAGE on the whole graph in one process.
pub fn train_full(ds: &Dataset, cfg: &FullGraphConfig) -> FullGraphRun {
    // Single rank: give the kernels the whole thread budget.
    let pool_threads = bns_tensor::ThreadConfig::from_env().threads;
    let pool = (pool_threads > 1).then(|| bns_tensor::ThreadPool::new(pool_threads));
    let _pool_guard = pool.map(bns_tensor::pool::install);
    let dims = model_dims(ds, &cfg.hidden);
    let mut t = Trainer::new(&dims, cfg.dropout, cfg.lr, cfg.seed);
    let mut rng = SeededRng::new(cfg.seed ^ 0x5eed_0000).fork(1);
    let scale = ds.mean_scale();
    let mut losses = Vec::with_capacity(cfg.epochs);
    let t0 = std::time::Instant::now();
    for epoch in 0..cfg.epochs {
        let _epoch_span = bns_telemetry::span!("epoch", epoch = epoch);
        let fwd = bns_telemetry::Timed::with_args("compute", &[("epoch", epoch.into())]);
        t.h.assign(&ds.features);
        for l in 0..t.num_layers() {
            t.forward(l, &ds.graph, None, &scale, &mut rng);
        }
        let loss = loss_into(&ds.labels, &t.h, &ds.train, &mut t.d);
        t.d.scale(1.0 / ds.train.len().max(1) as f32);
        for l in (0..t.num_layers()).rev() {
            t.backward(l, &ds.graph);
        }
        t.step();
        let _ = fwd.stop();
        let epoch_loss = loss / ds.train.len().max(1) as f64;
        bns_telemetry::series_push("epoch.loss", epoch as u64, epoch_loss);
        losses.push(epoch_loss);
    }
    let avg_epoch_s = t0.elapsed().as_secs_f64() / cfg.epochs.max(1) as f64;
    let (final_val, final_test) = t.model.evaluate(ds);
    FullGraphRun {
        losses,
        final_val,
        final_test,
        avg_epoch_s,
        model: t.model,
    }
}

/// Scores full-graph `logits` on the dataset's `(val, test)` splits:
/// accuracy for single-label, micro-F1 for multi-label.
pub fn split_scores(logits: &Matrix, ds: &Dataset) -> (f64, f64) {
    match &ds.labels {
        Labels::Single(labels) => (
            accuracy(logits, labels, &ds.val),
            accuracy(logits, labels, &ds.test),
        ),
        Labels::Multi(y) => (micro_f1(logits, y, &ds.val), micro_f1(logits, y, &ds.test)),
    }
}

/// Trains a structure-unaware MLP (same layer widths, no graph) — the
/// control the paper's introduction contrasts GCNs against. Returns
/// `(final_val, final_test)`.
///
/// On the synthetic datasets a fraction of features is deliberately
/// drawn from the wrong class prototype, so the MLP's ceiling sits
/// below the GCN's: neighbor aggregation is what recovers those nodes.
pub fn train_mlp(ds: &Dataset, cfg: &FullGraphConfig) -> (f64, f64) {
    use bns_nn::{Activation, LinearLayer};
    let dims = model_dims(ds, &cfg.hidden);
    let mut rng = SeededRng::new(cfg.seed);
    let mut layers = bns_nn::layer_stack(&dims, Activation::Relu, |d_in, d_out, act| {
        LinearLayer::new(d_in, d_out, act, cfg.dropout, &mut rng)
    });
    let mut opt = Adam::new(cfg.lr);
    let mut drop_rng = SeededRng::new(cfg.seed ^ 0x11);
    for _ in 0..cfg.epochs {
        let mut h = ds.features.clone();
        let mut caches = Vec::with_capacity(layers.len());
        for layer in &layers {
            let (next, c) = layer.forward(&h, true, &mut drop_rng);
            caches.push(c);
            h = next;
        }
        let mut d = Matrix::default();
        loss_into(&ds.labels, &h, &ds.train, &mut d);
        d.scale(1.0 / ds.train.len().max(1) as f32);
        let mut grads = Vec::with_capacity(layers.len());
        for l in (0..layers.len()).rev() {
            let (dx, g) = layers[l].backward(&caches[l], &d);
            grads.push(g);
            d = dx;
        }
        grads.reverse();
        let owned: Vec<&Matrix> = grads.iter().flat_map(|g| [&g.w, &g.b]).collect();
        let mut params: Vec<&mut Matrix> = layers
            .iter_mut()
            .flat_map(|l| [&mut l.w, &mut l.b])
            .collect();
        opt.step(&mut params, &owned);
    }
    // Evaluate.
    let mut h = ds.features.clone();
    let mut r = SeededRng::new(0);
    for layer in &layers {
        let (next, _) = layer.forward(&h, false, &mut r);
        h = next;
    }
    split_scores(&h, ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_data::SyntheticSpec;

    #[test]
    fn full_graph_learns() {
        let ds = SyntheticSpec::reddit_sim().with_nodes(600).generate(3);
        let cfg = FullGraphConfig {
            epochs: 50,
            hidden: vec![32],
            ..FullGraphConfig::quick_test()
        };
        let run = train_full(&ds, &cfg);
        assert!(run.losses.last().unwrap() < &run.losses[0]);
        assert!(run.final_test > 0.5, "test {}", run.final_test);
    }

    /// The paper's motivating claim: structure-unaware MLPs lose to
    /// GCNs. Our datasets corrupt a fraction of features, so the MLP's
    /// ceiling is visibly lower.
    #[test]
    fn gcn_beats_mlp_on_corrupted_features() {
        let mut spec = SyntheticSpec::reddit_sim().with_nodes(800);
        spec.feature_corruption = 0.25;
        let ds = spec.generate(6);
        let cfg = FullGraphConfig {
            epochs: 60,
            hidden: vec![32],
            ..FullGraphConfig::quick_test()
        };
        let gcn = train_full(&ds, &cfg);
        let (_, mlp_test) = train_mlp(&ds, &cfg);
        assert!(
            gcn.final_test > mlp_test + 0.05,
            "GCN {} vs MLP {mlp_test}",
            gcn.final_test
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = SyntheticSpec::reddit_sim().with_nodes(300).generate(5);
        let cfg = FullGraphConfig::quick_test();
        let a = train_full(&ds, &cfg);
        let b = train_full(&ds, &cfg);
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.final_test, b.final_test);
    }
}
