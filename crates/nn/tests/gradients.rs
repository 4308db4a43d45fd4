//! End-to-end gradient checks through multi-layer models and loss
//! functions — the strongest correctness evidence the hand-derived
//! backward passes have.

mod support;

use bns_data::SyntheticSpec;
use bns_graph::generators::erdos_renyi_m;
use bns_nn::gradcheck::finite_diff;
use bns_nn::loss::{bce_with_logits, softmax_cross_entropy};
use bns_nn::{Activation, Layer, ModelArch, SageLayer};
use bns_tensor::{Matrix, SeededRng};
use support::Pass;

/// Full pipeline gradient: 2-layer SAGE + softmax CE, checked against
/// finite differences on the *input features* (gradient flows through
/// both layers and two aggregations).
#[test]
fn two_layer_model_input_gradient() {
    let mut rng = SeededRng::new(50);
    let g = erdos_renyi_m(10, 22, &mut rng);
    let layers = Layer::stack(ModelArch::Sage, &[3, 4, 2], 0.0, &mut rng);
    let x = Matrix::random_normal(10, 3, 0.0, 1.0, &mut rng);
    let labels = vec![0usize, 1, 0, 1, 0, 1, 0, 1, 0, 1];
    let rows: Vec<usize> = (0..10).collect();
    let scale: Vec<f32> = (0..10).map(|v| 1.0 / g.degree(v).max(1) as f32).collect();

    let mut pass = Pass::new(&layers);
    let loss_of = |xp: &Matrix| -> f64 {
        let out = Pass::new(&layers).forward(&layers, &g, xp, &scale);
        softmax_cross_entropy(&out, &labels, &rows).0
    };

    let out = pass.forward(&layers, &g, &x, &scale);
    let (_, dlogits, _) = softmax_cross_entropy(&out, &labels, &rows);
    // Backward through the model, capturing the input gradient.
    let d = pass.backward(&layers, &g, &dlogits);
    let fd = finite_diff(&x, 1e-2, |xp| loss_of(xp));
    assert!(
        d.approx_eq(&fd, 0.08),
        "input gradient mismatch: {}",
        d.max_abs_diff(&fd)
    );
}

/// Weight gradients of the *first* layer, through the full two-layer
/// stack (checks that upstream gradients are threaded correctly).
#[test]
fn first_layer_weight_gradient_through_stack() {
    let mut rng = SeededRng::new(51);
    let g = erdos_renyi_m(8, 16, &mut rng);
    let layers = Layer::stack(ModelArch::Sage, &[3, 4, 2], 0.0, &mut rng);
    let x = Matrix::random_normal(8, 3, 0.0, 1.0, &mut rng);
    let labels = vec![0usize, 1, 0, 1, 0, 1, 0, 1];
    let rows: Vec<usize> = (0..8).collect();
    let scale: Vec<f32> = (0..8).map(|v| 1.0 / g.degree(v).max(1) as f32).collect();

    let mut pass = Pass::new(&layers);
    let out = pass.forward(&layers, &g, &x, &scale);
    let (_, dlogits, _) = softmax_cross_entropy(&out, &labels, &rows);
    pass.backward(&layers, &g, &dlogits);
    // Gradients come in `w_self`, `w_neigh`, `b` order.
    let mut grads = Vec::new();
    pass.slots[0].for_each_grad(|m| grads.push(m.clone()));
    let w_neigh = &grads[1];

    let Layer::Sage(first) = &layers[0] else {
        unreachable!("a SAGE stack")
    };
    let fd = finite_diff(&first.w_neigh, 1e-2, |w| {
        let mut l2 = layers.clone();
        let Layer::Sage(first) = &mut l2[0] else {
            unreachable!("a SAGE stack")
        };
        first.w_neigh = w.clone();
        let out = Pass::new(&l2).forward(&l2, &g, &x, &scale);
        softmax_cross_entropy(&out, &labels, &rows).0
    });
    assert!(
        w_neigh.approx_eq(&fd, 0.08),
        "w_neigh gradient mismatch: {}",
        w_neigh.max_abs_diff(&fd)
    );
}

/// BCE loss through a layer: multi-label path.
#[test]
fn bce_through_layer_gradient() {
    let mut rng = SeededRng::new(52);
    let g = erdos_renyi_m(7, 12, &mut rng);
    let layer = SageLayer::new(3, 4, Activation::Identity, 0.0, &mut rng);
    let x = Matrix::random_normal(7, 3, 0.0, 1.0, &mut rng);
    let y = Matrix::from_fn(7, 4, |r, c| ((r + c) % 2) as f32);
    let rows: Vec<usize> = (0..7).collect();
    let scale: Vec<f32> = (0..7).map(|v| 1.0 / g.degree(v).max(1) as f32).collect();

    let mut r = SeededRng::new(0);
    let (out, cache) = layer.forward(&g, &x, 7, &scale, false, &mut r);
    let (_, dlogits) = bce_with_logits(&out, &y, &rows);
    let (dx, _) = layer.backward(&g, &cache, &dlogits);
    let fd = finite_diff(&x, 1e-2, |xp| {
        let mut r = SeededRng::new(0);
        let (out, _) = layer.forward(&g, xp, 7, &scale, false, &mut r);
        bce_with_logits(&out, &y, &rows).0
    });
    assert!(dx.approx_eq(&fd, 0.05), "diff {}", dx.max_abs_diff(&fd));
}

/// Softmax CE gradient rows sum to zero (probability simplex tangent).
#[test]
fn ce_gradient_rows_sum_to_zero() {
    let mut rng = SeededRng::new(53);
    let logits = Matrix::random_normal(6, 5, 0.0, 2.0, &mut rng);
    let labels = vec![0, 1, 2, 3, 4, 0];
    let rows: Vec<usize> = (0..6).collect();
    let (_, d, _) = softmax_cross_entropy(&logits, &labels, &rows);
    for r in 0..6 {
        let s: f32 = d.row(r).iter().sum();
        assert!(s.abs() < 1e-5, "row {r} sums to {s}");
    }
}

/// Dropout backward scales gradients by exactly the forward mask.
#[test]
fn dropout_mask_consistency() {
    let mut rng = SeededRng::new(54);
    let g = erdos_renyi_m(6, 10, &mut rng);
    let mut layer = SageLayer::new(3, 3, Activation::Identity, 0.5, &mut rng);
    layer.dropout = 0.5;
    let x = Matrix::random_normal(6, 3, 0.0, 1.0, &mut rng);
    let scale = vec![1.0f32; 6];
    let mut r = SeededRng::new(9);
    let (out, cache) = layer.forward(&g, &x, 6, &scale, true, &mut r);
    let ones = Matrix::filled(out.rows(), out.cols(), 1.0);
    let (dx, _) = layer.backward(&g, &cache, &ones);
    // Wherever the input was dropped, its gradient must be exactly zero.
    let mut r2 = SeededRng::new(9);
    let (out2, _) = layer.forward(&g, &x, 6, &scale, true, &mut r2);
    assert_eq!(out, out2, "same rng seed must reproduce the same mask");
    // A dropped feature contributes nothing, so columns of dropped
    // entries have zero gradient — verify at least one zero exists and
    // non-finite values never appear.
    assert!(!dx.has_non_finite());
    assert!(dx.as_slice().contains(&0.0));
}

/// A deeper (4-layer, paper-Reddit-shaped) model still has
/// finite, non-exploding gradients on a realistic graph.
#[test]
fn deep_model_gradients_are_finite() {
    let ds = SyntheticSpec::reddit_sim().with_nodes(300).generate(55);
    let mut rng = SeededRng::new(55);
    let dims = [ds.feat_dim(), 32, 32, 32, ds.num_classes];
    let layers = Layer::stack(ModelArch::Sage, &dims, 0.0, &mut rng);
    let scale = ds.mean_scale();
    let mut pass = Pass::new(&layers);
    let out = pass.forward(&layers, &ds.graph, &ds.features, &scale);
    let bns_data::Labels::Single(labels) = &ds.labels else {
        panic!()
    };
    let (_, dlogits, _) = softmax_cross_entropy(&out, labels, &ds.train);
    pass.backward(&layers, &ds.graph, &dlogits);
    for (l, slot) in pass.slots.iter().enumerate() {
        let mut grads = Vec::new();
        slot.for_each_grad(|m| grads.push(m.clone()));
        let (w_self, w_neigh) = (&grads[0], &grads[1]);
        assert!(!w_self.has_non_finite(), "layer {l} w_self");
        assert!(!w_neigh.has_non_finite(), "layer {l} w_neigh");
        assert!(w_self.frobenius_norm() > 0.0, "layer {l} got zero gradient");
    }
}
