//! Per-epoch boundary sampling: the BNS method itself plus the paper's
//! edge-sampling ablation baselines (Table 9).
//!
//! Every keep decision is a counter hash of the run's sampling seed,
//! the epoch and the node or edge ids ([`node_kept`], [`edge_kept`]),
//! never a draw from a rank's RNG stream, so the owner of a boundary
//! node computes the receiver's selection without being told it.

use crate::plan::LocalPartition;
use bns_graph::CsrGraph;

/// The sampling strategy applied every epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundarySampling {
    /// **Boundary Node Sampling** (the paper's method): each partition
    /// independently keeps each of its boundary nodes with probability
    /// `p`; received features are rescaled by `1/p` and the mean
    /// aggregator normalizes by *full-graph* degree, making the
    /// aggregate an unbiased estimator of the full-graph aggregate.
    /// `p = 1` is unsampled vanilla partition parallelism; `p = 0` is
    /// fully isolated training.
    Bns {
        /// Keep probability in `[0, 1]`.
        p: f64,
    },
    /// **Boundary Edge Sampling** (ablation): keep each *cut edge* with
    /// probability `keep`; a boundary node must still be communicated if
    /// *any* of its cut edges survives — the reason the paper finds edge
    /// sampling ineffective. Aggregation normalizes by the surviving
    /// local degree.
    BoundaryEdge {
        /// Per-cut-edge keep probability.
        keep: f64,
    },
    /// **DropEdge** (ablation): keep each edge of the whole graph
    /// (inner-inner included) with probability `keep`; communication is
    /// required for boundary nodes with a surviving cut edge.
    DropEdge {
        /// Per-edge keep probability.
        keep: f64,
    },
    /// **BNS without the `1/p` rescale** (ablation, not in the paper):
    /// boundary nodes are sampled like [`BoundarySampling::Bns`] but
    /// received features are *not* rescaled and the mean normalizes
    /// over locally-present neighbors only — a biased estimator. Used
    /// to demonstrate that the unbiased rescale is load-bearing.
    BnsUnscaled {
        /// Keep probability in `[0, 1]`.
        p: f64,
    },
}

impl BoundarySampling {
    /// The `1/p` rescale factor applied to received boundary features.
    pub fn feature_scale(&self) -> f32 {
        match *self {
            BoundarySampling::Bns { p } if p > 0.0 => (1.0 / p) as f32,
            _ => 1.0,
        }
    }

    /// The sampling rate `p`, when the strategy has one.
    pub fn rate(&self) -> Option<f64> {
        match *self {
            BoundarySampling::Bns { p } | BoundarySampling::BnsUnscaled { p } => Some(p),
            _ => None,
        }
    }

    /// Whether the epoch topology is identical every epoch (no
    /// resampling needed) — true for `p = 1` and `p = 0`, which is why
    /// the paper reports 0% sampling overhead for those (Table 12).
    pub fn is_static(&self) -> bool {
        match *self {
            BoundarySampling::Bns { p } | BoundarySampling::BnsUnscaled { p } => {
                p <= 0.0 || p >= 1.0
            }
            BoundarySampling::BoundaryEdge { keep } | BoundarySampling::DropEdge { keep } => {
                keep <= 0.0 || keep >= 1.0
            }
        }
    }

    /// True when the strategy selects **every** boundary node on every
    /// rank (`p = 1` / `keep = 1`) — a global property all ranks agree
    /// on.
    pub fn selects_all(&self) -> bool {
        match *self {
            BoundarySampling::Bns { p } | BoundarySampling::BnsUnscaled { p } => p >= 1.0,
            BoundarySampling::BoundaryEdge { keep } | BoundarySampling::DropEdge { keep } => {
                keep >= 1.0
            }
        }
    }

    /// Whether `receiver` holds boundary node `node` (a global id) in
    /// `epoch` — Algorithm 1 line 4, as a pure function of its
    /// arguments. The receiver evaluates it while it builds its epoch
    /// topology and the owner while it builds its send lists, so both
    /// ends of every boundary agree with no message. `cut` yields the
    /// global ids of `node`'s neighbors inside the receiver's partition
    /// (its cut edges); only the edge strategies read it.
    pub fn keeps(
        &self,
        seed: u64,
        epoch: usize,
        receiver: usize,
        node: usize,
        mut cut: impl Iterator<Item = usize>,
    ) -> bool {
        match *self {
            // BNS: an independent Bernoulli(p) per (epoch, receiver, node).
            BoundarySampling::Bns { p } | BoundarySampling::BnsUnscaled { p } => {
                node_kept(seed, epoch, receiver, node, p)
            }
            // A boundary node stays iff at least one of its cut edges
            // survives the symmetric hash.
            BoundarySampling::BoundaryEdge { keep } | BoundarySampling::DropEdge { keep } => {
                cut.any(|w| edge_kept(seed, epoch, node, w, keep))
            }
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match *self {
            BoundarySampling::Bns { p } => format!("BNS(p={p})"),
            BoundarySampling::BnsUnscaled { p } => format!("BNS-unscaled(p={p})"),
            BoundarySampling::BoundaryEdge { keep } => format!("BES(keep={keep})"),
            BoundarySampling::DropEdge { keep } => format!("DropEdge(keep={keep})"),
        }
    }
}

/// The sampled topology one partition trains on for one epoch
/// (Algorithm 1 line 5: the node-induced subgraph of `V_i ∪ U_i`).
#[derive(Debug, Clone, Default)]
pub struct EpochTopology {
    /// Positions (into the partition's boundary list) of the selected
    /// boundary nodes `U_i`, ascending.
    pub selected: Vec<usize>,
    /// The epoch graph: `n_in + selected.len()` local nodes; only edges
    /// incident to inner nodes are materialized.
    pub graph: CsrGraph,
    /// Aggregation normalizer per inner node.
    pub row_scale: Vec<f32>,
    /// GCN symmetric normalizer `1/sqrt(deg+1)` for every *epoch-local*
    /// row (inner then selected boundary), by full-graph degree — used
    /// when the engine trains the plain-GCN architecture.
    pub gcn_scale: Vec<f32>,
    /// Rescale factor for received boundary features (`1/p` under BNS).
    pub feature_scale: f32,
}

/// The SplitMix64 finalizer: a bijective avalanche of `z`.
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether the uniform hash `z` falls below `rate` (never, for a rate
/// of 0 or less).
fn below(z: u64, rate: f64) -> bool {
    (z as f64 / u64::MAX as f64) < rate
}

/// Deterministic symmetric edge-keep decision, shared by the two
/// partitions incident to a cut edge *without communication*: both
/// evaluate the same hash of `(seed, epoch, min_id, max_id)`.
pub fn edge_kept(seed: u64, epoch: usize, gu: usize, gv: usize, keep: f64) -> bool {
    let (a, b) = if gu < gv { (gu, gv) } else { (gv, gu) };
    let z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(epoch as u64)
        .wrapping_add((a as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((b as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
    keep >= 1.0 || below(splitmix(z), keep)
}

/// Deterministic node-keep decision of BNS: a Bernoulli(`p`) draw for
/// boundary node `gu` of partition `receiver` in `epoch`, evaluated by
/// the receiver and by the node's owner alike. One finalizer round
/// picks the (epoch, receiver) stream, a second one the node, so
/// streams of neighboring epochs and ranks are decorrelated.
pub fn node_kept(seed: u64, epoch: usize, receiver: usize, gu: usize, p: f64) -> bool {
    let stream = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(epoch as u64)
        .wrapping_add((receiver as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    let z = splitmix(stream).wrapping_add((gu as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
    p >= 1.0 || below(splitmix(z), p)
}

/// Builds the epoch topology for one partition.
///
/// `seed` is the run's sampling seed: the boundary selection is
/// [`BoundarySampling::keeps`] with this partition as the receiver, and
/// the edge-sampling baselines drop edges by [`edge_kept`]. No RNG
/// stream is drawn, so a node's owner can evaluate the same selection
/// (see [`crate::exchange::EpochExchange::rebuild`]).
pub fn build_epoch_topology(
    lp: &LocalPartition,
    sampling: &BoundarySampling,
    epoch: usize,
    seed: u64,
) -> EpochTopology {
    let mut topo = EpochTopology::default();
    build_epoch_topology_into(lp, sampling, epoch, seed, &mut topo);
    topo
}

/// [`build_epoch_topology`] into a caller-owned topology, whose
/// buffers are reused: a rank that resamples every epoch (`p < 1`)
/// rebuilds the same-sized graph in place instead of allocating it.
///
/// The epoch graph is a row filter of the partition's local graph:
/// inner rows keep their inner neighbors (minus dropped edges under
/// DropEdge) and their kept, selected boundary neighbors renumbered to
/// `n_in + rank in selected`; each selected boundary row keeps the
/// inner neighbors whose edge survives. Selection is ascending, so the
/// renumbering is monotone and every row stays sorted — the same CSR a
/// [`bns_graph::GraphBuilder`] over those edges builds.
pub fn build_epoch_topology_into(
    lp: &LocalPartition,
    sampling: &BoundarySampling,
    epoch: usize,
    seed: u64,
    topo: &mut EpochTopology,
) {
    let n_in = lp.n_inner();
    let n_bd = lp.n_boundary();
    let local = &lp.local_graph;

    // --- Select boundary nodes ---
    topo.selected.clear();
    topo.selected.extend((0..n_bd).filter(|&pos| {
        let cut = local.neighbors(n_in + pos).iter().map(|&x| x as usize);
        let cut = cut.filter(|&x| x < n_in).map(|x| lp.inner[x]);
        sampling.keeps(seed, epoch, lp.rank, lp.boundary[pos], cut)
    }));
    let drop_inner_edges = matches!(sampling, BoundarySampling::DropEdge { .. });
    // Node sampling keeps every edge (`edge_kept` at rate 1).
    let keep_rate = match *sampling {
        BoundarySampling::BoundaryEdge { keep } | BoundarySampling::DropEdge { keep } => keep,
        BoundarySampling::Bns { .. } | BoundarySampling::BnsUnscaled { .. } => 1.0,
    };
    let cut_kept =
        |v: usize, pos: usize| edge_kept(seed, epoch, lp.inner[v], lp.boundary[pos], keep_rate);

    // --- Build the epoch graph ---
    let selected = &topo.selected;
    topo.graph.refill(n_in + selected.len(), |v, row| {
        if v < n_in {
            for &nb in local.neighbors(v) {
                let nb = nb as usize;
                if nb < n_in {
                    let kept = !drop_inner_edges
                        || edge_kept(seed, epoch, lp.inner[v], lp.inner[nb], keep_rate);
                    if kept {
                        row.push(nb as u32);
                    }
                } else if let Ok(rank) = selected.binary_search(&(nb - n_in)) {
                    if cut_kept(v, nb - n_in) {
                        row.push((n_in + rank) as u32);
                    }
                }
            }
        } else {
            let pos = selected[v - n_in];
            for &x in local.neighbors(n_in + pos) {
                if (x as usize) < n_in && cut_kept(x as usize, pos) {
                    row.push(x);
                }
            }
        }
    });
    let graph = &topo.graph;

    // --- Aggregation normalizers ---
    topo.row_scale.clear();
    match sampling {
        // Unbiased full-graph mean: normalize by the full degree; the
        // engine separately multiplies received features by 1/p.
        BoundarySampling::Bns { .. } => topo.row_scale.extend_from_slice(&lp.inner_scale),
        // Edge samplers renormalize over surviving neighbors (DropEdge
        // convention).
        _ => topo
            .row_scale
            .extend((0..n_in).map(|v| 1.0 / graph.degree(v).max(1) as f32)),
    }

    topo.gcn_scale.clear();
    topo.gcn_scale.extend_from_slice(&lp.gcn_scale[..n_in]);
    topo.gcn_scale
        .extend(selected.iter().map(|&pos| lp.gcn_scale[n_in + pos]));
    topo.feature_scale = sampling.feature_scale();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PartitionPlan;
    use bns_data::SyntheticSpec;
    use bns_partition::{Partitioner, RandomPartitioner};
    use bns_tensor::{Matrix, SeededRng};

    fn plan() -> PartitionPlan {
        let ds = SyntheticSpec::reddit_sim().with_nodes(400).generate(11);
        let part = RandomPartitioner.partition(&ds.graph, 3, 1);
        PartitionPlan::build(&ds, &part)
    }

    #[test]
    fn p_one_selects_everything() {
        let plan = plan();
        let lp = &plan.parts[0];
        let t = build_epoch_topology(lp, &BoundarySampling::Bns { p: 1.0 }, 0, 0);
        assert_eq!(t.selected.len(), lp.n_boundary());
        assert_eq!(t.graph.num_nodes(), lp.n_inner() + lp.n_boundary());
        assert_eq!(t.feature_scale, 1.0);
        // Inner nodes keep their full-graph degree (no bd-bd edges are
        // needed, but all inner-incident edges are present).
        for v in 0..lp.n_inner() {
            assert_eq!(t.graph.degree(v), lp.local_graph.degree(v));
        }
    }

    #[test]
    fn p_zero_is_isolated() {
        let plan = plan();
        let lp = &plan.parts[1];
        let t = build_epoch_topology(lp, &BoundarySampling::Bns { p: 0.0 }, 0, 0);
        assert!(t.selected.is_empty());
        assert_eq!(t.graph.num_nodes(), lp.n_inner());
    }

    #[test]
    fn fractional_p_selects_roughly_p() {
        let plan = plan();
        let lp = &plan.parts[2];
        let mut total = 0usize;
        let reps = 200;
        for e in 0..reps {
            let t = build_epoch_topology(lp, &BoundarySampling::Bns { p: 0.3 }, e, 0);
            total += t.selected.len();
        }
        let frac = total as f64 / (reps * lp.n_boundary()) as f64;
        assert!((frac - 0.3).abs() < 0.03, "selected fraction {frac}");
    }

    /// The central unbiasedness property: E[sampled aggregate] equals the
    /// exact aggregate when boundary features are scaled by 1/p and the
    /// mean uses full-graph degrees.
    #[test]
    fn bns_aggregate_is_unbiased() {
        let plan = plan();
        let lp = &plan.parts[0];
        let n_local = lp.n_inner() + lp.n_boundary();
        let mut rng = SeededRng::new(42);
        let h = Matrix::random_normal(n_local, 3, 0.0, 1.0, &mut rng);
        // Exact aggregate with all boundary nodes.
        let exact = bns_nn::aggregate::scaled_sum_aggregate(
            &lp.local_graph,
            &h,
            lp.n_inner(),
            &lp.inner_scale,
        );
        let p = 0.5;
        let trials = 600;
        let mut mean = Matrix::zeros(lp.n_inner(), 3);
        for e in 0..trials {
            let t = build_epoch_topology(lp, &BoundarySampling::Bns { p }, e, 0);
            // Assemble epoch features: inner rows + scaled selected rows.
            let mut rows: Vec<usize> = (0..lp.n_inner()).collect();
            rows.extend(t.selected.iter().map(|&pos| lp.n_inner() + pos));
            let mut h_epoch = h.gather_rows(&rows);
            for r in lp.n_inner()..h_epoch.rows() {
                for x in h_epoch.row_mut(r) {
                    *x *= t.feature_scale;
                }
            }
            let z = bns_nn::aggregate::scaled_sum_aggregate(
                &t.graph,
                &h_epoch,
                lp.n_inner(),
                &t.row_scale,
            );
            mean.axpy(1.0, &z);
        }
        mean.scale(1.0 / trials as f32);
        let diff = mean.max_abs_diff(&exact);
        assert!(diff < 0.2, "bias too large: {diff}");
    }

    #[test]
    fn edge_keep_is_symmetric_and_seeded() {
        assert_eq!(edge_kept(7, 3, 10, 20, 0.5), edge_kept(7, 3, 20, 10, 0.5));
        assert!(edge_kept(0, 0, 1, 2, 1.0));
        assert!(!edge_kept(0, 0, 1, 2, 0.0));
        // Rate sanity over many edges.
        let kept = (0..10_000)
            .filter(|&i| edge_kept(9, 1, i, i + 1, 0.25))
            .count();
        assert!((kept as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    fn bes_preserves_inner_edges() {
        let plan = plan();
        let lp = &plan.parts[0];
        let t = build_epoch_topology(lp, &BoundarySampling::BoundaryEdge { keep: 0.2 }, 0, 99);
        // All inner-inner edges survive under BES.
        for v in 0..lp.n_inner() {
            let full_inner: usize = lp
                .local_graph
                .neighbors(v)
                .iter()
                .filter(|&&u| (u as usize) < lp.n_inner())
                .count();
            let epoch_inner: usize = t
                .graph
                .neighbors(v)
                .iter()
                .filter(|&&u| (u as usize) < lp.n_inner())
                .count();
            assert_eq!(full_inner, epoch_inner, "inner edges of {v} changed");
        }
        // And strictly fewer boundary nodes are needed.
        assert!(t.selected.len() < lp.n_boundary());
    }

    #[test]
    fn dropedge_drops_inner_edges_too() {
        let plan = plan();
        let lp = &plan.parts[0];
        let t = build_epoch_topology(lp, &BoundarySampling::DropEdge { keep: 0.5 }, 0, 123);
        let full_inner: usize = (0..lp.n_inner())
            .map(|v| {
                lp.local_graph
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| (u as usize) < lp.n_inner())
                    .count()
            })
            .sum();
        let epoch_inner: usize = (0..lp.n_inner())
            .map(|v| {
                t.graph
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| (u as usize) < lp.n_inner())
                    .count()
            })
            .sum();
        assert!(
            epoch_inner < full_inner,
            "DropEdge kept all inner edges ({epoch_inner}/{full_inner})"
        );
    }

    #[test]
    fn static_detection() {
        assert!(BoundarySampling::Bns { p: 1.0 }.is_static());
        assert!(BoundarySampling::Bns { p: 0.0 }.is_static());
        assert!(!BoundarySampling::Bns { p: 0.5 }.is_static());
        assert!(!BoundarySampling::DropEdge { keep: 0.9 }.is_static());
        // keep = 0 keeps nothing and keep = 1 keeps everything; both are
        // as static as p = 0 / p = 1.
        assert!(BoundarySampling::BoundaryEdge { keep: 1.0 }.is_static());
        assert!(BoundarySampling::BoundaryEdge { keep: 0.0 }.is_static());
        assert!(!BoundarySampling::BoundaryEdge { keep: 0.5 }.is_static());
        assert!(BoundarySampling::DropEdge { keep: 1.0 }.is_static());
        assert!(BoundarySampling::DropEdge { keep: 0.0 }.is_static());
    }
}
