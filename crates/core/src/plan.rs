//! The partition plan: every static per-partition structure Algorithm 1
//! needs — inner node sets `V_i`, boundary node sets `B_i`, local
//! induced graphs, and the send lists `S_{i,j}`.

use bns_data::{Dataset, Labels};
use bns_graph::CsrGraph;
use bns_partition::Partitioning;
use bns_tensor::Matrix;
use std::sync::Arc;

/// Static, immutable state of one partition (one rank). Local node ids
/// place the `n_in` inner nodes first (ascending global id), followed by
/// the boundary nodes grouped by owner rank (ascending global id within
/// each owner group) — so the features received from one owner form a
/// contiguous block.
#[derive(Debug)]
pub struct LocalPartition {
    /// This partition's rank.
    pub rank: usize,
    /// Global ids of inner nodes (sorted ascending).
    pub inner: Vec<usize>,
    /// Global ids of boundary nodes, grouped by owner then id.
    pub boundary: Vec<usize>,
    /// `owner_ranges[r]` is the half-open range of `boundary` owned by
    /// rank `r`.
    pub owner_ranges: Vec<(usize, usize)>,
    /// Graph induced on `inner ++ boundary` (local ids).
    pub local_graph: CsrGraph,
    /// `1 / full-graph degree` of each inner node (the paper's mean-
    /// aggregator normalizer; 1 for isolated nodes).
    pub inner_scale: Vec<f32>,
    /// GCN normalizer `1/sqrt(deg+1)` for every local node (inner then
    /// boundary), by full-graph degree.
    pub gcn_scale: Vec<f32>,
    /// Per peer rank `j`: local *inner* row indices this partition must
    /// send to `j` (ascending global id — matching `j`'s boundary-block
    /// order for this owner).
    pub send_lists: Vec<Vec<usize>>,
    /// Input features of inner nodes (`n_in x d`).
    pub features: Matrix,
    /// Labels of inner nodes.
    pub labels: Labels,
    /// Local inner indices of training nodes.
    pub train_local: Vec<usize>,
    /// Local inner indices of validation nodes.
    pub val_local: Vec<usize>,
    /// Local inner indices of test nodes.
    pub test_local: Vec<usize>,
}

impl LocalPartition {
    /// Number of inner nodes.
    pub fn n_inner(&self) -> usize {
        self.inner.len()
    }

    /// Number of boundary nodes.
    pub fn n_boundary(&self) -> usize {
        self.boundary.len()
    }
}

/// The full plan: one [`LocalPartition`] per rank plus global counts.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// Per-rank partitions (shared so rank threads can hold references).
    pub parts: Vec<Arc<LocalPartition>>,
    /// Number of partitions.
    pub k: usize,
    /// Global number of training nodes (loss normalizer).
    pub global_train: usize,
    /// Global number of validation nodes.
    pub global_val: usize,
    /// Global number of test nodes.
    pub global_test: usize,
    /// Input feature dimension.
    pub feat_dim: usize,
    /// Number of classes.
    pub num_classes: usize,
}

impl PartitionPlan {
    /// Builds the plan for a dataset under a partitioning.
    ///
    /// # Panics
    ///
    /// Panics if the partitioning does not cover the dataset's graph.
    pub fn build(ds: &Dataset, part: &Partitioning) -> Self {
        let g = &ds.graph;
        let n = g.num_nodes();
        assert_eq!(part.num_nodes(), n, "partitioning does not match graph");
        let k = part.num_parts();
        let (mean_scale, gcn_scale) = (g.mean_scale(), g.gcn_scale());

        // Split membership lookup: 0 none, 1 train, 2 val, 3 test.
        let mut split_of = vec![0u8; n];
        for &v in &ds.train {
            split_of[v] = 1;
        }
        for &v in &ds.val {
            split_of[v] = 2;
        }
        for &v in &ds.test {
            split_of[v] = 3;
        }

        // Inner node lists.
        let mut inner: Vec<Vec<usize>> = vec![Vec::new(); k];
        for v in 0..n {
            inner[part.part_of(v)].push(v);
        }
        // Boundary sets per partition, grouped by owner.
        // For partition i, boundary = {u : part(u) != i, u has neighbor in i}.
        let mut boundary_by_owner: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); k]; k];
        {
            let mut stamp = vec![usize::MAX; k];
            for u in 0..n {
                let pu = part.part_of(u);
                for &v in g.neighbors(u) {
                    let pv = part.part_of(v as usize);
                    if pv != pu && stamp[pv] != u {
                        stamp[pv] = u;
                        // u is a boundary node of partition pv, owned by pu.
                        boundary_by_owner[pv][pu].push(u);
                    }
                }
            }
        }

        let parts: Vec<Arc<LocalPartition>> = (0..k)
            .map(|i| {
                let inner_i = &inner[i];
                let mut boundary = Vec::new();
                let mut owner_ranges = vec![(0usize, 0usize); k];
                for (owner, list) in boundary_by_owner[i].iter().enumerate() {
                    let start = boundary.len();
                    // Lists are built in ascending u order already.
                    boundary.extend_from_slice(list);
                    owner_ranges[owner] = (start, boundary.len());
                }
                let mut nodes = inner_i.clone();
                nodes.extend_from_slice(&boundary);
                let sub = g.induced_subgraph(&nodes);
                let inner_scale: Vec<f32> = inner_i.iter().map(|&v| mean_scale[v]).collect();
                let gcn_scale: Vec<f32> = nodes.iter().map(|&v| gcn_scale[v]).collect();
                // Send lists: my inner rows that appear in peer j's
                // boundary block owned by me.
                let mut global_to_inner = std::collections::BTreeMap::new();
                for (li, &v) in inner_i.iter().enumerate() {
                    global_to_inner.insert(v, li);
                }
                let send_lists: Vec<Vec<usize>> = (0..k)
                    .map(|j| {
                        if j == i {
                            return Vec::new();
                        }
                        boundary_by_owner[j][i]
                            .iter()
                            .map(|&v| global_to_inner[&v])
                            .collect()
                    })
                    .collect();
                let features = ds.features.gather_rows(inner_i);
                let labels = match &ds.labels {
                    Labels::Single(l) => Labels::Single(inner_i.iter().map(|&v| l[v]).collect()),
                    Labels::Multi(m) => Labels::Multi(m.gather_rows(inner_i)),
                };
                let mut train_local = Vec::new();
                let mut val_local = Vec::new();
                let mut test_local = Vec::new();
                for (li, &v) in inner_i.iter().enumerate() {
                    match split_of[v] {
                        1 => train_local.push(li),
                        2 => val_local.push(li),
                        3 => test_local.push(li),
                        _ => {}
                    }
                }
                Arc::new(LocalPartition {
                    rank: i,
                    inner: inner_i.clone(),
                    boundary,
                    owner_ranges,
                    local_graph: sub.graph,
                    inner_scale,
                    gcn_scale,
                    send_lists,
                    features,
                    labels,
                    train_local,
                    val_local,
                    test_local,
                })
            })
            .collect();

        PartitionPlan {
            parts,
            k,
            global_train: ds.train.len(),
            global_val: ds.val.len(),
            global_test: ds.test.len(),
            feat_dim: ds.feat_dim(),
            num_classes: ds.num_classes,
        }
    }

    /// Total boundary nodes across partitions — the paper's Eq. 3
    /// communication volume.
    pub fn total_boundary(&self) -> usize {
        self.parts.iter().map(|p| p.n_boundary()).sum()
    }

    /// Checks cross-partition consistency invariants (send lists match
    /// peer boundary blocks, inner sets partition the node set). For
    /// tests.
    pub fn validate(&self) -> Result<(), String> {
        let k = self.k;
        for i in 0..k {
            let pi = &self.parts[i];
            for j in 0..k {
                if i == j {
                    continue;
                }
                let pj = &self.parts[j];
                let (s, e) = pj.owner_ranges[i];
                let expect: Vec<usize> = pj.boundary[s..e].to_vec();
                let got: Vec<usize> = pi.send_lists[j].iter().map(|&li| pi.inner[li]).collect();
                if expect != got {
                    return Err(format!(
                        "send list {i}->{j} mismatch: {} vs {} entries",
                        got.len(),
                        expect.len()
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_data::SyntheticSpec;
    use bns_partition::{metrics, MetisLikePartitioner, Partitioner, RandomPartitioner};

    fn tiny_ds() -> Dataset {
        SyntheticSpec::reddit_sim().with_nodes(500).generate(7)
    }

    #[test]
    fn plan_is_consistent() {
        let ds = tiny_ds();
        for k in [2usize, 3, 5] {
            let part = RandomPartitioner.partition(&ds.graph, k, 1);
            let plan = PartitionPlan::build(&ds, &part);
            assert!(plan.validate().is_ok(), "k={k}");
            let total_inner: usize = plan.parts.iter().map(|p| p.n_inner()).sum();
            assert_eq!(total_inner, 500);
            assert_eq!(plan.global_train, ds.train.len());
        }
    }

    #[test]
    fn boundary_counts_match_metrics() {
        let ds = tiny_ds();
        let part = MetisLikePartitioner::default().partition(&ds.graph, 4, 2);
        let plan = PartitionPlan::build(&ds, &part);
        let counts = metrics::boundary_counts(&ds.graph, &part);
        for (i, p) in plan.parts.iter().enumerate() {
            assert_eq!(p.n_boundary(), counts[i], "partition {i}");
        }
        assert_eq!(
            plan.total_boundary(),
            metrics::comm_volume(&ds.graph, &part)
        );
    }

    #[test]
    fn local_graph_preserves_inner_adjacency() {
        let ds = tiny_ds();
        let part = RandomPartitioner.partition(&ds.graph, 3, 3);
        let plan = PartitionPlan::build(&ds, &part);
        for p in &plan.parts {
            // Every inner-inner global edge must exist locally.
            let mut g2l = std::collections::HashMap::new();
            for (li, &v) in p.inner.iter().enumerate() {
                g2l.insert(v, li);
            }
            for (li, &v) in p.inner.iter().enumerate() {
                let mut expected: Vec<usize> = ds
                    .graph
                    .neighbors(v)
                    .iter()
                    .filter_map(|&u| g2l.get(&(u as usize)).copied())
                    .collect();
                expected.sort_unstable();
                let actual: Vec<usize> = p
                    .local_graph
                    .neighbors(li)
                    .iter()
                    .map(|&x| x as usize)
                    .filter(|&x| x < p.n_inner())
                    .collect();
                assert_eq!(actual, expected, "inner adjacency of global {v}");
            }
        }
    }

    #[test]
    fn every_inner_neighbor_is_local() {
        // Each inner node's full-graph neighborhood must be fully present
        // locally (as inner or boundary nodes) — this is what makes p=1
        // training exact.
        let ds = tiny_ds();
        let part = RandomPartitioner.partition(&ds.graph, 4, 5);
        let plan = PartitionPlan::build(&ds, &part);
        for p in &plan.parts {
            for (li, &v) in p.inner.iter().enumerate() {
                assert_eq!(
                    p.local_graph.degree(li),
                    ds.graph.degree(v),
                    "local degree of inner node {v}"
                );
            }
        }
    }

    #[test]
    fn labels_and_splits_are_local_views() {
        let ds = tiny_ds();
        let part = RandomPartitioner.partition(&ds.graph, 2, 9);
        let plan = PartitionPlan::build(&ds, &part);
        let total_train: usize = plan.parts.iter().map(|p| p.train_local.len()).sum();
        assert_eq!(total_train, ds.train.len());
        let Labels::Single(global) = &ds.labels else {
            panic!()
        };
        for p in &plan.parts {
            let Labels::Single(local) = &p.labels else {
                panic!()
            };
            for (li, &v) in p.inner.iter().enumerate() {
                assert_eq!(local[li], global[v]);
                assert_eq!(p.features.row(li), ds.features.row(v));
            }
        }
    }
}
