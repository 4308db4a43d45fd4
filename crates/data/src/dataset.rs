//! The dataset container consumed by trainers.

use bns_graph::CsrGraph;
use bns_tensor::Matrix;

/// Node labels: single-label (Reddit / ogbn-products style, trained with
/// softmax cross-entropy) or multi-label (Yelp style, trained with BCE).
#[derive(Debug, Clone, PartialEq)]
pub enum Labels {
    /// One class id per node.
    Single(Vec<usize>),
    /// An `n x num_classes` 0/1 matrix.
    Multi(Matrix),
}

impl Labels {
    /// Whether this is the multi-label variant.
    pub fn is_multi(&self) -> bool {
        matches!(self, Labels::Multi(_))
    }
}

/// A complete node-classification dataset: graph, features, labels and
/// train/val/test splits.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (e.g. `"reddit-sim"`).
    pub name: String,
    /// The graph.
    pub graph: CsrGraph,
    /// Node features, `n x d`.
    pub features: Matrix,
    /// Node labels.
    pub labels: Labels,
    /// Number of classes (columns for multi-label).
    pub num_classes: usize,
    /// Training node ids (sorted).
    pub train: Vec<usize>,
    /// Validation node ids (sorted).
    pub val: Vec<usize>,
    /// Test node ids (sorted).
    pub test: Vec<usize>,
}

impl Dataset {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Feature dimension.
    pub fn feat_dim(&self) -> usize {
        self.features.cols()
    }

    /// Mean-aggregator row scales: `1/deg(v)` (1 for isolated nodes).
    /// These are *full-graph* degrees, which is what makes BNS-GCN's
    /// `H/p` rescaling an unbiased estimator of the full-graph mean.
    pub fn mean_scale(&self) -> Vec<f32> {
        self.graph.mean_scale()
    }

    /// GCN symmetric-normalization scales: `1/sqrt(deg(v) + 1)`.
    pub fn gcn_scale(&self) -> Vec<f32> {
        self.graph.gcn_scale()
    }

    /// Checks split disjointness and coverage invariants.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes();
        if self.features.rows() != n {
            return Err("feature rows != nodes".into());
        }
        match &self.labels {
            Labels::Single(l) => {
                if l.len() != n {
                    return Err("label count != nodes".into());
                }
                if l.iter().any(|&c| c >= self.num_classes) {
                    return Err("label out of range".into());
                }
            }
            Labels::Multi(m) => {
                if m.rows() != n || m.cols() != self.num_classes {
                    return Err("label matrix shape mismatch".into());
                }
            }
        }
        let mut seen = vec![false; n];
        for split in [&self.train, &self.val, &self.test] {
            for &v in split {
                if v >= n {
                    return Err(format!("split node {v} out of bounds"));
                }
                if seen[v] {
                    return Err(format!("node {v} appears in two splits"));
                }
                seen[v] = true;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_graph::generators::ring;

    fn tiny() -> Dataset {
        Dataset {
            name: "tiny".into(),
            graph: ring(4),
            features: Matrix::zeros(4, 2),
            labels: Labels::Single(vec![0, 1, 0, 1]),
            num_classes: 2,
            train: vec![0, 1],
            val: vec![2],
            test: vec![3],
        }
    }

    #[test]
    fn validate_accepts_consistent_dataset() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn validate_rejects_overlapping_splits() {
        let mut d = tiny();
        d.val = vec![0];
        assert!(d.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_labels() {
        let mut d = tiny();
        d.labels = Labels::Single(vec![0, 1, 0, 5]);
        assert!(d.validate().is_err());
    }

    #[test]
    fn scales_are_positive() {
        let d = tiny();
        assert!(d.mean_scale().iter().all(|&s| s > 0.0));
        assert!(d.gcn_scale().iter().all(|&s| s > 0.0 && s <= 1.0));
        assert!((d.mean_scale()[0] - 0.5).abs() < 1e-6); // ring degree 2
    }
}
