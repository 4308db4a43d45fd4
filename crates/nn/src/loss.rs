//! Loss functions with analytic gradients.
//!
//! Both losses operate on a *row subset* (the training nodes owned by a
//! partition) and return an **unnormalized sum**; the caller divides by
//! the global training-node count so that partition-parallel gradients
//! sum to exactly the full-graph gradient.

use bns_tensor::Matrix;

/// Masked softmax cross-entropy for single-label classification
/// (Reddit / ogbn-products style).
///
/// Returns `(loss_sum, dlogits, correct)` where `dlogits` has non-zero
/// rows only at `rows` and equals `softmax(logits) − onehot(label)`
/// there (the gradient of the *sum* of per-row losses), and `correct`
/// counts argmax hits.
///
/// # Panics
///
/// Panics if a row index or label is out of bounds.
pub fn softmax_cross_entropy(
    logits: &Matrix,
    labels: &[usize],
    rows: &[usize],
) -> (f64, Matrix, usize) {
    let mut dlogits = Matrix::default();
    let (loss, correct) = softmax_cross_entropy_into(logits, labels, rows, &mut dlogits);
    (loss, dlogits, correct)
}

/// [`softmax_cross_entropy`] writing `dlogits` into a caller-owned
/// buffer (reshaped and overwritten); returns `(loss_sum, correct)`.
///
/// # Panics
///
/// Panics if a row index or label is out of bounds.
pub fn softmax_cross_entropy_into(
    logits: &Matrix,
    labels: &[usize],
    rows: &[usize],
    dlogits: &mut Matrix,
) -> (f64, usize) {
    assert_eq!(logits.rows(), labels.len(), "labels length mismatch");
    let c = logits.cols();
    dlogits.reset_zeroed(logits.rows(), c);
    let mut loss = 0.0f64;
    let mut correct = 0usize;
    for &r in rows {
        let row = logits.row(r);
        let label = labels[r];
        assert!(label < c, "label {label} out of range for {c} classes");
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f64;
        for &x in row {
            denom += ((x - max) as f64).exp();
        }
        let log_denom = denom.ln();
        loss += log_denom - (row[label] - max) as f64;
        // First maximum wins ties (deterministic argmax).
        let mut argmax = 0usize;
        for (i, &x) in row.iter().enumerate() {
            if x > row[argmax] {
                argmax = i;
            }
        }
        if argmax == label {
            correct += 1;
        }
        let drow = dlogits.row_mut(r);
        for (j, &x) in row.iter().enumerate() {
            let p = (((x - max) as f64) - log_denom).exp() as f32;
            drow[j] = p - if j == label { 1.0 } else { 0.0 };
        }
    }
    (loss, correct)
}

/// Sigmoid binary cross-entropy with logits for multi-label
/// classification (Yelp style). `targets` is an `n x c` 0/1 matrix.
///
/// Returns `(loss_sum, dlogits)`; `dlogits = σ(logits) − targets` on the
/// selected rows, zero elsewhere. The loss is summed over rows *and*
/// label columns.
///
/// # Panics
///
/// Panics on shape mismatch or out-of-bounds rows.
pub fn bce_with_logits(logits: &Matrix, targets: &Matrix, rows: &[usize]) -> (f64, Matrix) {
    let mut dlogits = Matrix::default();
    let loss = bce_with_logits_into(logits, targets, rows, &mut dlogits);
    (loss, dlogits)
}

/// [`bce_with_logits`] writing `dlogits` into a caller-owned buffer
/// (reshaped and overwritten); returns the loss sum.
///
/// # Panics
///
/// Panics on shape mismatch or out-of-bounds rows.
pub fn bce_with_logits_into(
    logits: &Matrix,
    targets: &Matrix,
    rows: &[usize],
    dlogits: &mut Matrix,
) -> f64 {
    assert_eq!(logits.shape(), targets.shape(), "target shape mismatch");
    dlogits.reset_zeroed(logits.rows(), logits.cols());
    let mut loss = 0.0f64;
    for &r in rows {
        let x = logits.row(r);
        let y = targets.row(r);
        let d = dlogits.row_mut(r);
        for j in 0..x.len() {
            let xv = x[j] as f64;
            let yv = y[j] as f64;
            // Numerically stable: max(x,0) − x·y + ln(1 + e^{−|x|}).
            loss += xv.max(0.0) - xv * yv + (1.0 + (-xv.abs()).exp()).ln();
            let sig = 1.0 / (1.0 + (-xv).exp());
            d[j] = (sig - yv) as f32;
        }
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::finite_diff;
    use bns_tensor::SeededRng;

    #[test]
    fn ce_matches_manual_two_class() {
        let logits = Matrix::from_rows(&[&[0.0, 0.0]]);
        let (loss, d, correct) = softmax_cross_entropy(&logits, &[1], &[0]);
        assert!((loss - (2.0f64).ln()).abs() < 1e-6);
        assert!((d[(0, 0)] - 0.5).abs() < 1e-5);
        assert!((d[(0, 1)] + 0.5).abs() < 1e-5);
        // argmax of [0,0] is index 0, label is 1 -> incorrect
        assert_eq!(correct, 0);
    }

    #[test]
    fn ce_gradient_matches_finite_difference() {
        let mut rng = SeededRng::new(1);
        let logits = Matrix::random_normal(5, 4, 0.0, 1.0, &mut rng);
        let labels = vec![0, 3, 2, 1, 0];
        let rows = vec![0, 2, 4];
        let (_, d, _) = softmax_cross_entropy(&logits, &labels, &rows);
        let fd = finite_diff(&logits, 1e-2, |l| {
            softmax_cross_entropy(l, &labels, &rows).0
        });
        assert!(d.approx_eq(&fd, 0.02), "diff {}", d.max_abs_diff(&fd));
    }

    #[test]
    fn ce_masked_rows_have_zero_gradient() {
        let mut rng = SeededRng::new(2);
        let logits = Matrix::random_normal(3, 2, 0.0, 1.0, &mut rng);
        let (_, d, _) = softmax_cross_entropy(&logits, &[0, 1, 0], &[1]);
        assert!(d.row(0).iter().all(|&x| x == 0.0));
        assert!(d.row(2).iter().all(|&x| x == 0.0));
        assert!(d.row(1).iter().any(|&x| x != 0.0));
    }

    #[test]
    fn bce_gradient_matches_finite_difference() {
        let mut rng = SeededRng::new(3);
        let logits = Matrix::random_normal(4, 6, 0.0, 2.0, &mut rng);
        let targets = Matrix::from_fn(4, 6, |r, c| ((r + c) % 2) as f32);
        let rows = vec![0, 1, 3];
        let (_, d) = bce_with_logits(&logits, &targets, &rows);
        let fd = finite_diff(&logits, 1e-2, |l| bce_with_logits(l, &targets, &rows).0);
        assert!(d.approx_eq(&fd, 0.02), "diff {}", d.max_abs_diff(&fd));
    }

    #[test]
    fn bce_is_stable_for_large_logits() {
        let logits = Matrix::from_rows(&[&[60.0, -60.0]]);
        let targets = Matrix::from_rows(&[&[1.0, 0.0]]);
        let (loss, d) = bce_with_logits(&logits, &targets, &[0]);
        assert!(loss.is_finite() && loss < 1e-6);
        assert!(!d.has_non_finite());
    }

    #[test]
    fn ce_perfect_prediction_counts_correct() {
        let logits = Matrix::from_rows(&[&[10.0, -10.0], &[-10.0, 10.0]]);
        let (_, _, correct) = softmax_cross_entropy(&logits, &[0, 1], &[0, 1]);
        assert_eq!(correct, 2);
    }
}
