//! Single-rank full-graph reference trainer.
//!
//! Used (a) to verify that the partition-parallel engine at `p = 1`
//! computes exactly full-graph training (the paper's premise that
//! vanilla partition parallelism is *exact*), and (b) as the shared
//! infrastructure for the sampling-based baselines in [`crate::minibatch`].

use bns_data::{Dataset, Labels};
use bns_nn::loss::{bce_with_logits, softmax_cross_entropy};
use bns_nn::metrics::{accuracy, micro_f1};
use bns_nn::{Adam, SageModel};
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
    pub model: SageModel,
}

/// Trains GraphSAGE on the whole graph in one process.
pub fn train_full(ds: &Dataset, cfg: &FullGraphConfig) -> FullGraphRun {
    // Single rank: give the kernels the whole thread budget.
    let pool_threads = bns_tensor::ThreadConfig::from_env().threads;
    let pool = (pool_threads > 1).then(|| bns_tensor::ThreadPool::new(pool_threads));
    let _pool_guard = pool.map(bns_tensor::pool::install);
    let mut dims = vec![ds.feat_dim()];
    dims.extend_from_slice(&cfg.hidden);
    dims.push(ds.num_classes);
    let mut init_rng = SeededRng::new(cfg.seed);
    let mut model = SageModel::new(&dims, cfg.dropout, &mut init_rng);
    let mut rng = SeededRng::new(cfg.seed ^ 0x5eed_0000).fork(1);
    let mut opt = Adam::new(cfg.lr);
    let scale = ds.mean_scale();
    let mut losses = Vec::with_capacity(cfg.epochs);
    let t0 = std::time::Instant::now();
    for epoch in 0..cfg.epochs {
        let _epoch_span = bns_telemetry::span!("epoch", epoch = epoch);
        let fwd = bns_telemetry::Timed::with_args("compute", &[("epoch", epoch.into())]);
        let (out, caches) = model.forward_full(&ds.graph, &ds.features, &scale, true, &mut rng);
        let (loss, mut dlogits) = match &ds.labels {
            Labels::Single(labels) => {
                let (l, d, _) = softmax_cross_entropy(&out, labels, &ds.train);
                (l, d)
            }
            Labels::Multi(y) => bce_with_logits(&out, y, &ds.train),
        };
        dlogits.scale(1.0 / ds.train.len().max(1) as f32);
        let grads = model.backward_full(&ds.graph, &caches, &dlogits);
        let grad_owned: Vec<Matrix> = SageModel::grads_refs(&grads).into_iter().cloned().collect();
        let grefs: Vec<&Matrix> = grad_owned.iter().collect();
        let mut params = model.params_mut();
        opt.step(&mut params, &grefs);
        let _ = fwd.stop();
        let epoch_loss = loss / ds.train.len().max(1) as f64;
        bns_telemetry::series_push("epoch.loss", epoch as u64, epoch_loss);
        losses.push(epoch_loss);
    }
    let avg_epoch_s = t0.elapsed().as_secs_f64() / cfg.epochs.max(1) as f64;
    let (final_val, final_test) = evaluate(&model, ds);
    FullGraphRun {
        losses,
        final_val,
        final_test,
        avg_epoch_s,
        model,
    }
}

/// Scores a trained model on the dataset's val and test splits (see
/// [`split_scores`]).
pub fn evaluate(model: &SageModel, ds: &Dataset) -> (f64, f64) {
    let scale = ds.mean_scale();
    let mut rng = SeededRng::new(0);
    let (out, _) = model.forward_full(&ds.graph, &ds.features, &scale, false, &mut rng);
    split_scores(&out, ds)
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
    let mut dims = vec![ds.feat_dim()];
    dims.extend_from_slice(&cfg.hidden);
    dims.push(ds.num_classes);
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
        let (_, mut d) = match &ds.labels {
            Labels::Single(labels) => {
                let (l, d, _) = softmax_cross_entropy(&h, labels, &ds.train);
                (l, d)
            }
            Labels::Multi(y) => bce_with_logits(&h, y, &ds.train),
        };
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
