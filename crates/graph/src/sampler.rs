//! Weighted discrete sampling (Walker alias method).

use bns_tensor::SeededRng;

/// Draws indices with probability proportional to fixed weights in `O(1)`
/// per draw (Walker's alias method). Used by the Chung–Lu style graph
/// generators where millions of weighted endpoint draws are needed.
///
/// # Example
///
/// ```
/// use bns_graph::WeightedSampler;
/// use bns_tensor::SeededRng;
///
/// let s = WeightedSampler::new(&[1.0, 0.0, 2.0]);
/// let mut rng = SeededRng::new(1);
/// let i = s.sample(&mut rng);
/// assert!(i == 0 || i == 2);
/// ```
#[derive(Debug, Clone)]
pub struct WeightedSampler {
    prob: Vec<f64>,
    alias: Vec<usize>,
    total: f64,
}

impl WeightedSampler {
    /// Builds the alias table.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "WeightedSampler on empty weights");
        let total: f64 = weights.iter().sum();
        assert!(
            total.is_finite() && total > 0.0,
            "WeightedSampler requires positive finite total weight"
        );
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
        }
        let n = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers: everything remaining takes probability 1.
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
        }
        Self { prob, alias, total }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the sampler has zero categories (never true: construction
    /// rejects empty weights).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// The sum of the weights, added in order: index `i` is drawn with
    /// probability `weights[i] / total()`.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Draws one index.
    pub fn sample(&self, rng: &mut SeededRng) -> usize {
        let i = rng.usize_below(self.prob.len());
        if (rng.uniform() as f64) < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequencies_match_weights() {
        let s = WeightedSampler::new(&[1.0, 2.0, 3.0, 0.0]);
        let mut rng = SeededRng::new(8);
        let mut counts = [0usize; 4];
        let trials = 60_000;
        for _ in 0..trials {
            counts[s.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[3], 0);
        let f0 = counts[0] as f64 / trials as f64;
        let f1 = counts[1] as f64 / trials as f64;
        let f2 = counts[2] as f64 / trials as f64;
        assert!((f0 - 1.0 / 6.0).abs() < 0.01, "f0={f0}");
        assert!((f1 - 2.0 / 6.0).abs() < 0.01, "f1={f1}");
        assert!((f2 - 3.0 / 6.0).abs() < 0.01, "f2={f2}");
    }

    #[test]
    fn single_category() {
        let s = WeightedSampler::new(&[5.0]);
        let mut rng = SeededRng::new(1);
        for _ in 0..10 {
            assert_eq!(s.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "positive finite total")]
    fn zero_total_panics() {
        WeightedSampler::new(&[0.0, 0.0]);
    }

    #[test]
    fn uniform_weights_are_uniform() {
        let s = WeightedSampler::new(&[1.0; 10]);
        let mut rng = SeededRng::new(3);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            counts[s.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 50_000.0 - 0.1).abs() < 0.01);
        }
    }
}
