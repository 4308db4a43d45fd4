//! Sampling-based mini-batch GCN training baselines.
//!
//! The paper compares BNS-GCN against seven sampling-based methods
//! (its Tables 4, 5, 11 and 12). This module implements the five
//! families from scratch on the same segmented `bns_nn::Layer` path
//! BNS-GCN trains: a block's target rows are a layer's inner rows and
//! its other sources the boundary rows, so the comparison isolates the
//! *sampling strategy*:
//!
//! * [`MiniBatchMethod::NeighborSampling`] — GraphSAGE-style per-node
//!   fanout sampling,
//! * [`MiniBatchMethod::FastGcn`] / [`MiniBatchMethod::Ladies`] —
//!   layer-wise importance sampling (FastGCN samples the support from
//!   all of `V`; LADIES restricts it to the current neighbor set),
//! * [`MiniBatchMethod::ClusterGcn`] — subgraph batches from merged
//!   clusters,
//! * [`MiniBatchMethod::GraphSaintNode`] /
//!   [`MiniBatchMethod::GraphSaintEdge`] /
//!   [`MiniBatchMethod::GraphSaintWalk`] — GraphSAINT's three subgraph
//!   samplers,
//! * [`MiniBatchMethod::VrGcn`] — variance reduction via historical
//!   activations (simplified: full historical matrices are kept in
//!   memory, which is exactly the memory pressure that makes real
//!   VR-GCN go OOM in the paper's Table 4).
//!
//! Each trainer reports its per-epoch time *split into sampling and
//! training* so the paper's Table 12 overhead comparison can be
//! reproduced. Evaluation is always full-graph inference.

use crate::fullgraph::{loss_into, model_dims, Trainer};
use bns_data::{Dataset, Labels};
use bns_graph::{GraphBuilder, WeightedSampler};
use bns_nn::ModelArch;
use bns_partition::Partitioner;
use bns_telemetry::Timed;
use bns_tensor::{Matrix, SeededRng};
use std::time::Instant;

/// Which sampling-based method to train with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MiniBatchMethod {
    /// GraphSAGE neighbor sampling with the given per-layer fanout.
    NeighborSampling {
        /// Neighbors sampled per node per layer.
        fanout: usize,
    },
    /// FastGCN layer-wise sampling: `support` nodes per layer drawn from
    /// the whole graph with degree-proportional importance.
    FastGcn {
        /// Support-set size per layer.
        support: usize,
    },
    /// LADIES: like FastGCN but the support is drawn from the previous
    /// layer's neighbor set only.
    Ladies {
        /// Support-set size per layer.
        support: usize,
    },
    /// ClusterGCN: partition into `clusters` parts, train on
    /// `per_batch` randomly merged clusters per step.
    ClusterGcn {
        /// Total number of clusters.
        clusters: usize,
        /// Clusters merged per batch.
        per_batch: usize,
    },
    /// GraphSAINT with the node sampler (`nodes` degree-weighted draws).
    GraphSaintNode {
        /// Nodes drawn per subgraph.
        nodes: usize,
    },
    /// GraphSAINT with the edge sampler.
    GraphSaintEdge {
        /// Edges drawn per subgraph.
        edges: usize,
    },
    /// GraphSAINT with the random-walk sampler.
    GraphSaintWalk {
        /// Number of walk roots.
        roots: usize,
        /// Walk length.
        length: usize,
    },
    /// VR-GCN-style variance reduction with historical activations;
    /// its mini-batch size is [`MiniBatchConfig::batch_size`], as for
    /// the layer-wise methods.
    VrGcn,
}

impl MiniBatchMethod {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            MiniBatchMethod::NeighborSampling { .. } => "NeighborSampling",
            MiniBatchMethod::FastGcn { .. } => "FastGCN",
            MiniBatchMethod::Ladies { .. } => "LADIES",
            MiniBatchMethod::ClusterGcn { .. } => "ClusterGCN",
            MiniBatchMethod::GraphSaintNode { .. } => "GraphSAINT-Node",
            MiniBatchMethod::GraphSaintEdge { .. } => "GraphSAINT-Edge",
            MiniBatchMethod::GraphSaintWalk { .. } => "GraphSAINT-RW",
            MiniBatchMethod::VrGcn => "VR-GCN",
        }
    }
}

/// Mini-batch training configuration.
#[derive(Debug, Clone)]
pub struct MiniBatchConfig {
    /// Hidden-layer widths.
    pub hidden: Vec<usize>,
    /// Input dropout per layer.
    pub dropout: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Epochs (each epoch covers ~all train nodes once).
    pub epochs: usize,
    /// Target nodes per mini-batch (layer-wise methods).
    pub batch_size: usize,
    /// Seed.
    pub seed: u64,
}

impl MiniBatchConfig {
    /// Small fast config for tests.
    pub fn quick_test() -> Self {
        Self {
            hidden: vec![16],
            dropout: 0.0,
            lr: 0.01,
            epochs: 5,
            batch_size: 64,
            seed: 0,
        }
    }
}

/// Result of a mini-batch training run.
#[derive(Debug, Clone)]
pub struct MiniBatchRun {
    /// Method name.
    pub method: &'static str,
    /// Final validation score.
    pub final_val: f64,
    /// Final test score.
    pub final_test: f64,
    /// Mean wall-clock epoch time, seconds.
    pub avg_epoch_s: f64,
    /// Fraction of training time spent producing samples (Table 12).
    pub sampling_frac: f64,
    /// Total training wall time, seconds.
    pub total_s: f64,
    /// Mean training loss per epoch.
    pub losses: Vec<f64>,
}

/// A per-layer computation block for layer-wise methods: the first
/// `n_targets` rows of the block's node list are the layer's outputs;
/// remaining rows are sampled support. `feat_scale[r]` rescales row `r`
/// of the input features (the importance-sampling `1/q` correction).
struct LayerBlock {
    nodes: Vec<usize>,
    n_targets: usize,
    graph: bns_graph::CsrGraph,
    row_scale: Vec<f32>,
    feat_scale: Vec<f32>,
}

/// Trains with the chosen method and returns the run report.
///
/// # Panics
///
/// Panics if the dataset has no training nodes.
pub fn train_minibatch(
    ds: &Dataset,
    method: MiniBatchMethod,
    cfg: &MiniBatchConfig,
) -> MiniBatchRun {
    assert!(!ds.train.is_empty(), "no training nodes");
    let dims = model_dims(ds.feat_dim(), &cfg.hidden, ds.num_classes);
    let mut t = Trainer::new(ModelArch::Sage, &dims, cfg.dropout, cfg.lr, cfg.seed);
    let mut rng = SeededRng::new(cfg.seed ^ 0xabcd).fork(7);

    // Method-specific precomputation counts toward sampling time.
    let t_pre = Timed::start("sample");
    let clusters: Option<Vec<Vec<usize>>> = match method {
        MiniBatchMethod::ClusterGcn { clusters, .. } => {
            let part = bns_partition::BfsPartitioner.partition(
                &ds.graph,
                clusters.min(ds.num_nodes()),
                cfg.seed,
            );
            Some(part.parts())
        }
        _ => None,
    };
    let degree_sampler: Option<WeightedSampler> = match method {
        MiniBatchMethod::GraphSaintNode { .. } | MiniBatchMethod::FastGcn { .. } => {
            let w: Vec<f64> = (0..ds.num_nodes())
                .map(|v| ds.graph.degree(v) as f64 + 1.0)
                .collect();
            Some(WeightedSampler::new(&w))
        }
        _ => None,
    };
    let mut history: Option<Vec<Matrix>> = match method {
        // Historical activations per hidden layer output.
        MiniBatchMethod::VrGcn => Some(
            (1..dims.len() - 1)
                .map(|l| Matrix::zeros(ds.num_nodes(), dims[l]))
                .collect(),
        ),
        _ => None,
    };
    let mut clock = Clock {
        sample_s: t_pre.stop(),
        train_s: 0.0,
    };

    let steps_per_epoch = match method {
        MiniBatchMethod::ClusterGcn {
            clusters,
            per_batch,
        } => clusters.div_ceil(per_batch).max(1),
        MiniBatchMethod::GraphSaintNode { .. }
        | MiniBatchMethod::GraphSaintEdge { .. }
        | MiniBatchMethod::GraphSaintWalk { .. } => {
            (ds.train.len() / cfg.batch_size.max(1)).clamp(1, 20)
        }
        _ => ds.train.len().div_ceil(cfg.batch_size.max(1)),
    };

    let mut losses = Vec::with_capacity(cfg.epochs);
    let t_total = Instant::now();
    for epoch in 0..cfg.epochs {
        let _epoch_span = bns_telemetry::span!("epoch", epoch = epoch);
        let mut order = ds.train.clone();
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0f64;
        let mut loss_count = 0usize;
        for step in 0..steps_per_epoch {
            let batch: Vec<usize> = match method {
                MiniBatchMethod::ClusterGcn { .. }
                | MiniBatchMethod::GraphSaintNode { .. }
                | MiniBatchMethod::GraphSaintEdge { .. }
                | MiniBatchMethod::GraphSaintWalk { .. } => Vec::new(),
                _ => {
                    let lo = step * cfg.batch_size;
                    if lo >= order.len() {
                        break;
                    }
                    order[lo..(lo + cfg.batch_size).min(order.len())].to_vec()
                }
            };
            let (loss, n_loss) = match method {
                MiniBatchMethod::NeighborSampling { .. }
                | MiniBatchMethod::FastGcn { .. }
                | MiniBatchMethod::Ladies { .. } => {
                    let sampler = degree_sampler.as_ref();
                    layerwise_step(ds, &mut t, method, sampler, &batch, &mut rng, &mut clock)
                }
                MiniBatchMethod::VrGcn => {
                    let history = history.as_mut().expect("VR-GCN history");
                    vr_gcn_step(ds, &mut t, &batch, history, &mut rng, &mut clock)
                }
                _ => {
                    let t0 = Timed::start("sample");
                    let (cl, sampler) = (clusters.as_deref(), degree_sampler.as_ref());
                    let nodes = sample_subgraph(ds, method, cl, sampler, &mut rng);
                    clock.sample_s += t0.stop();
                    subgraph_step(ds, &mut t, &nodes, &mut rng, &mut clock)
                }
            };
            epoch_loss += loss;
            loss_count += n_loss;
        }
        losses.push(epoch_loss / loss_count.max(1) as f64);
    }
    let total_s = t_total.elapsed().as_secs_f64();
    let (final_val, final_test) = t.model.evaluate(ds);
    MiniBatchRun {
        method: method.name(),
        final_val,
        final_test,
        avg_epoch_s: total_s / cfg.epochs.max(1) as f64,
        sampling_frac: if clock.sample_s + clock.train_s > 0.0 {
            clock.sample_s / (clock.sample_s + clock.train_s)
        } else {
            0.0
        },
        total_s,
        losses,
    }
}

/// Seconds spent sampling and training, accumulated across steps.
struct Clock {
    sample_s: f64,
    train_s: f64,
}

/// Multiplies row `r` of `m` by `scale[r]` where that is not 1.
fn scale_rows(m: &mut Matrix, scale: &[f32]) {
    for (r, &s) in scale.iter().enumerate() {
        if s != 1.0 {
            for x in m.row_mut(r) {
                *x *= s;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Layer-wise methods (NeighborSampling / FastGCN / LADIES)
// ---------------------------------------------------------------------

/// One optimization step for a layer-wise method: build blocks
/// top-down with the method's sampler, run forward bottom-up, backward
/// top-down. `sampler` is FastGCN's degree-proportional node sampler.
fn layerwise_step(
    ds: &Dataset,
    t: &mut Trainer,
    method: MiniBatchMethod,
    sampler: Option<&WeightedSampler>,
    batch: &[usize],
    rng: &mut SeededRng,
    clock: &mut Clock,
) -> (f64, usize) {
    if batch.is_empty() {
        return (0.0, 0);
    }
    let num_layers = t.num_layers();
    let t0 = Timed::start("sample");
    // Blocks from the top (output) layer down; after reversal blocks[l]
    // feeds model layer l.
    let mut blocks: Vec<LayerBlock> = Vec::with_capacity(num_layers);
    let mut targets: Vec<usize> = batch.to_vec();
    for _ in 0..num_layers {
        let block = match method {
            MiniBatchMethod::NeighborSampling { fanout } => {
                sample_neighbor_block(ds, &targets, fanout, rng)
            }
            MiniBatchMethod::FastGcn { support } => {
                let sampler = sampler.expect("FastGCN's degree sampler");
                sample_importance_block(ds, &targets, support, sampler, rng)
            }
            MiniBatchMethod::Ladies { support } => sample_ladies_block(ds, &targets, support, rng),
            _ => unreachable!("{} is not a layer-wise method", method.name()),
        };
        targets = block.nodes.clone();
        blocks.push(block);
    }
    blocks.reverse();
    clock.sample_s += t0.stop();

    let t1 = Timed::start("train");
    // Forward bottom-up: each block's input rows, importance-rescaled,
    // split into its targets (inner) and its support (boundary).
    t.h = ds.features.gather_rows(&blocks[0].nodes);
    let mut h_bd = Matrix::default();
    for (l, b) in blocks.iter().enumerate() {
        scale_rows(&mut t.h, &b.feat_scale);
        t.h.slice_rows_into(b.n_targets, t.h.rows(), &mut h_bd);
        t.h.truncate_rows(b.n_targets);
        t.forward(l, &b.graph, Some(&h_bd), &b.row_scale, rng);
    }
    // Loss over the final targets (the original batch, which is the
    // prefix of the top block's node list).
    let top = &blocks[num_layers - 1];
    let top_rows: Vec<usize> = (0..top.n_targets).collect();
    let top_nodes = &top.nodes[..top.n_targets];
    let loss = local_loss(ds, &t.h, top_nodes, &top_rows, &mut t.d);
    t.d.scale(1.0 / top.n_targets.max(1) as f32);
    // Backward top-down. Above layer 0 the input gradient covers block
    // l's whole node list, which is exactly block l-1's target list,
    // and chains through the importance rescale.
    for l in (0..num_layers).rev() {
        if let (Some(d), d_bd) = t.backward(l, &blocks[l].graph) {
            *d = d.vstack(d_bd);
            scale_rows(d, &blocks[l].feat_scale);
            debug_assert_eq!(d.rows(), blocks[l - 1].n_targets);
        }
    }
    t.step(None);
    clock.train_s += t1.stop();
    (loss, top.n_targets)
}

/// GraphSAGE block: each target samples `fanout` neighbors without
/// replacement; aggregation averages over the samples.
fn sample_neighbor_block(
    ds: &Dataset,
    targets: &[usize],
    fanout: usize,
    rng: &mut SeededRng,
) -> LayerBlock {
    let mut nodes: Vec<usize> = targets.to_vec();
    let mut index_of = std::collections::HashMap::new();
    for (i, &v) in nodes.iter().enumerate() {
        index_of.insert(v, i);
    }
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut sampled_count = vec![0usize; targets.len()];
    for (t, &v) in targets.iter().enumerate() {
        let nbrs = ds.graph.neighbors(v);
        if nbrs.is_empty() {
            continue;
        }
        let picks: Vec<usize> = if nbrs.len() <= fanout {
            nbrs.iter().map(|&u| u as usize).collect()
        } else {
            rng.sample_distinct(nbrs.len(), fanout)
                .into_iter()
                .map(|i| nbrs[i] as usize)
                .collect()
        };
        for u in picks {
            let next_id = nodes.len();
            let iu = *index_of.entry(u).or_insert_with(|| {
                nodes.push(u);
                next_id
            });
            if iu != t {
                edges.push((t, iu));
                sampled_count[t] += 1;
            }
        }
    }
    let mut b = GraphBuilder::new(nodes.len());
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    let graph = b.build();
    let row_scale: Vec<f32> = (0..targets.len())
        .map(|t| 1.0 / sampled_count[t].max(1) as f32)
        .collect();
    LayerBlock {
        n_targets: targets.len(),
        feat_scale: vec![1.0; nodes.len()],
        nodes,
        graph,
        row_scale,
    }
}

/// FastGCN block: support drawn (with replacement) from the whole graph
/// with degree-proportional probability; support features rescaled by
/// `multiplicity / (support · q)` for unbiasedness.
fn sample_importance_block(
    ds: &Dataset,
    targets: &[usize],
    support: usize,
    sampler: &WeightedSampler,
    rng: &mut SeededRng,
) -> LayerBlock {
    let mut nodes: Vec<usize> = targets.to_vec();
    let mut index_of = std::collections::HashMap::new();
    for (i, &v) in nodes.iter().enumerate() {
        index_of.insert(v, i);
    }
    let total_w = sampler.total();
    let mut mult: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for _ in 0..support {
        *mult.entry(sampler.sample(rng)).or_insert(0) += 1;
    }
    let mut extra: Vec<usize> = mult
        .keys()
        .copied()
        .filter(|v| !index_of.contains_key(v))
        .collect();
    extra.sort_unstable();
    let mut feat_scale = vec![1.0f32; nodes.len()];
    for v in extra {
        index_of.insert(v, nodes.len());
        nodes.push(v);
        let m = mult[&v] as f64;
        let q = (ds.graph.degree(v) as f64 + 1.0) / total_w;
        feat_scale.push((m / (support as f64 * q)) as f32);
    }
    let mut b = GraphBuilder::new(nodes.len());
    for (t, &v) in targets.iter().enumerate() {
        for &u in ds.graph.neighbors(v) {
            if let Some(&iu) = index_of.get(&(u as usize)) {
                if iu != t {
                    b.add_edge(t, iu);
                }
            }
        }
    }
    let graph = b.build();
    let row_scale: Vec<f32> = targets
        .iter()
        .map(|&v| 1.0 / ds.graph.degree(v).max(1) as f32)
        .collect();
    LayerBlock {
        n_targets: targets.len(),
        nodes,
        graph,
        row_scale,
        feat_scale,
    }
}

/// LADIES block: support drawn (uniform, without replacement) from the
/// union of the targets' neighborhoods, rescaled by the inclusion
/// probability.
fn sample_ladies_block(
    ds: &Dataset,
    targets: &[usize],
    support: usize,
    rng: &mut SeededRng,
) -> LayerBlock {
    let mut nbr_set: Vec<usize> = targets
        .iter()
        .flat_map(|&v| ds.graph.neighbors(v).iter().map(|&u| u as usize))
        .collect();
    nbr_set.sort_unstable();
    nbr_set.dedup();
    let mut nodes: Vec<usize> = targets.to_vec();
    let mut index_of = std::collections::HashMap::new();
    for (i, &v) in nodes.iter().enumerate() {
        index_of.insert(v, i);
    }
    let candidates: Vec<usize> = nbr_set
        .into_iter()
        .filter(|v| !index_of.contains_key(v))
        .collect();
    let mut feat_scale = vec![1.0f32; nodes.len()];
    if !candidates.is_empty() {
        let take = support.min(candidates.len());
        let q = take as f64 / candidates.len() as f64;
        let mut picks = rng.sample_distinct(candidates.len(), take);
        picks.sort_unstable();
        for i in picks {
            let u = candidates[i];
            index_of.insert(u, nodes.len());
            nodes.push(u);
            feat_scale.push((1.0 / q) as f32);
        }
    }
    let mut b = GraphBuilder::new(nodes.len());
    for (t, &v) in targets.iter().enumerate() {
        for &u in ds.graph.neighbors(v) {
            if let Some(&iu) = index_of.get(&(u as usize)) {
                if iu != t {
                    b.add_edge(t, iu);
                }
            }
        }
    }
    let graph = b.build();
    let row_scale: Vec<f32> = targets
        .iter()
        .map(|&v| 1.0 / ds.graph.degree(v).max(1) as f32)
        .collect();
    LayerBlock {
        n_targets: targets.len(),
        nodes,
        graph,
        row_scale,
        feat_scale,
    }
}

// ---------------------------------------------------------------------
// Subgraph methods (ClusterGCN / GraphSAINT)
// ---------------------------------------------------------------------

/// The node set of one subgraph batch, sorted and deduplicated:
/// merged clusters (ClusterGCN) or one of GraphSAINT's node, edge and
/// random-walk samplers. `clusters` are ClusterGCN's, `degree_sampler`
/// is the GraphSAINT node sampler's degree-proportional sampler.
fn sample_subgraph(
    ds: &Dataset,
    method: MiniBatchMethod,
    clusters: Option<&[Vec<usize>]>,
    degree_sampler: Option<&WeightedSampler>,
    rng: &mut SeededRng,
) -> Vec<usize> {
    let mut nodes = Vec::new();
    match method {
        MiniBatchMethod::ClusterGcn { per_batch, .. } => {
            let cl = clusters.expect("ClusterGCN's clusters");
            for _ in 0..per_batch {
                nodes.extend_from_slice(&cl[rng.usize_below(cl.len())]);
            }
        }
        MiniBatchMethod::GraphSaintNode { nodes: m } => {
            let s = degree_sampler.expect("GraphSAINT's degree sampler");
            nodes.extend((0..m).map(|_| s.sample(rng)));
        }
        MiniBatchMethod::GraphSaintEdge { edges: m } => {
            let n = ds.num_nodes();
            for _ in 0..m {
                let v = rng.usize_below(n);
                if ds.graph.degree(v) == 0 {
                    continue;
                }
                let nbrs = ds.graph.neighbors(v);
                let u = nbrs[rng.usize_below(nbrs.len())] as usize;
                nodes.push(v);
                nodes.push(u);
            }
        }
        MiniBatchMethod::GraphSaintWalk { roots, length } => {
            for _ in 0..roots {
                let mut v = ds.train[rng.usize_below(ds.train.len())];
                nodes.push(v);
                for _ in 0..length {
                    let nbrs = ds.graph.neighbors(v);
                    if nbrs.is_empty() {
                        break;
                    }
                    v = nbrs[rng.usize_below(nbrs.len())] as usize;
                    nodes.push(v);
                }
            }
        }
        _ => unreachable!("{} is not a subgraph method", method.name()),
    }
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// One optimization step on a node-induced subgraph; trains on the
/// train nodes inside it.
fn subgraph_step(
    ds: &Dataset,
    t: &mut Trainer,
    nodes: &[usize],
    rng: &mut SeededRng,
    clock: &mut Clock,
) -> (f64, usize) {
    let t0 = Timed::start("sample");
    let g = ds.graph.induced_subgraph(nodes).graph;
    let mut train_rows: Vec<usize> = Vec::new();
    {
        let mut is_train = vec![false; ds.num_nodes()];
        for &v in &ds.train {
            is_train[v] = true;
        }
        for (i, &v) in nodes.iter().enumerate() {
            if is_train[v] {
                train_rows.push(i);
            }
        }
    }
    clock.sample_s += t0.stop();
    if train_rows.is_empty() {
        return (0.0, 0);
    }
    let t1 = Timed::start("train");
    let scale = g.mean_scale();
    t.h = ds.features.gather_rows(nodes);
    for l in 0..t.num_layers() {
        t.forward(l, &g, None, &scale, rng);
    }
    let loss = local_loss(ds, &t.h, nodes, &train_rows, &mut t.d);
    t.d.scale(1.0 / train_rows.len() as f32);
    for l in (0..t.num_layers()).rev() {
        t.backward(l, &g);
    }
    t.step(None);
    clock.train_s += t1.stop();
    (loss, train_rows.len())
}

// ---------------------------------------------------------------------
// VR-GCN
// ---------------------------------------------------------------------

/// One VR-GCN step: exact recomputation for batch nodes, historical
/// activations for out-of-batch neighbors, histories refreshed for the
/// batch.
fn vr_gcn_step(
    ds: &Dataset,
    t: &mut Trainer,
    batch: &[usize],
    history: &mut [Matrix],
    rng: &mut SeededRng,
    clock: &mut Clock,
) -> (f64, usize) {
    if batch.is_empty() {
        return (0.0, 0);
    }
    let t0 = Timed::start("sample");
    // Receptive field: batch ∪ its 1-hop neighborhood (histories stand
    // in beyond that). Batch nodes form the prefix.
    let mut in_batch = vec![false; ds.num_nodes()];
    for &v in batch {
        in_batch[v] = true;
    }
    let mut extras: Vec<usize> = batch
        .iter()
        .flat_map(|&v| ds.graph.neighbors(v).iter().map(|&u| u as usize))
        .filter(|&u| !in_batch[u])
        .collect();
    extras.sort_unstable();
    extras.dedup();
    let mut ordered: Vec<usize> = batch.to_vec();
    ordered.extend_from_slice(&extras);
    let g = ds.graph.induced_subgraph(&ordered).graph;
    clock.sample_s += t0.stop();

    let t1 = Timed::start("train");
    let n_t = batch.len();
    let num_layers = t.num_layers();
    let row_scale: Vec<f32> = batch
        .iter()
        .map(|&v| 1.0 / ds.graph.degree(v).max(1) as f32)
        .collect();
    // Layer 0 reads every row's features; above it the batch rows
    // (inner) are the exact activations and the neighbors (boundary)
    // the historical ones, and the batch rows refresh the history.
    t.h = ds.features.gather_rows(batch);
    let mut h_bd = ds.features.gather_rows(&extras);
    for l in 0..num_layers {
        t.forward(l, &g, Some(&h_bd), &row_scale, rng);
        // Every layer but the last has a history.
        if let Some(hist) = history.get_mut(l) {
            for (r, &v) in batch.iter().enumerate() {
                hist.row_mut(v).copy_from_slice(t.h.row(r));
            }
            h_bd = hist.gather_rows(&extras);
        }
    }
    let train_rows: Vec<usize> = (0..n_t).collect();
    let loss = local_loss(ds, &t.h, batch, &train_rows, &mut t.d);
    t.d.scale(1.0 / n_t as f32);
    // Only batch rows backpropagate (history rows are constants).
    for l in (0..num_layers).rev() {
        t.backward(l, &g);
    }
    t.step(None);
    clock.train_s += t1.stop();
    (loss, n_t)
}

/// [`loss_into`] for a block whose row `r` is node `nodes[r]`.
fn local_loss(ds: &Dataset, out: &Matrix, nodes: &[usize], rows: &[usize], d: &mut Matrix) -> f64 {
    let labels = match &ds.labels {
        Labels::Single(labels) => Labels::Single(nodes.iter().map(|&v| labels[v]).collect()),
        Labels::Multi(y) => Labels::Multi(y.gather_rows(nodes)),
    };
    loss_into(&labels, out, rows, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_data::SyntheticSpec;

    fn ds() -> Dataset {
        SyntheticSpec::reddit_sim().with_nodes(500).generate(13)
    }

    fn run(method: MiniBatchMethod, epochs: usize) -> MiniBatchRun {
        let cfg = MiniBatchConfig {
            epochs,
            hidden: vec![24],
            lr: 0.01,
            ..MiniBatchConfig::quick_test()
        };
        train_minibatch(&ds(), method, &cfg)
    }

    #[test]
    fn neighbor_sampling_learns() {
        let r = run(MiniBatchMethod::NeighborSampling { fanout: 5 }, 15);
        assert!(r.final_test > 0.4, "{}: test {}", r.method, r.final_test);
        assert!(r.losses.last().unwrap() < &r.losses[0]);
        assert!(r.sampling_frac > 0.0 && r.sampling_frac < 1.0);
    }

    #[test]
    fn fastgcn_learns() {
        let r = run(MiniBatchMethod::FastGcn { support: 200 }, 15);
        assert!(r.final_test > 0.3, "{}: test {}", r.method, r.final_test);
    }

    #[test]
    fn ladies_learns() {
        let r = run(MiniBatchMethod::Ladies { support: 200 }, 15);
        assert!(r.final_test > 0.35, "{}: test {}", r.method, r.final_test);
    }

    #[test]
    fn cluster_gcn_learns() {
        let r = run(
            MiniBatchMethod::ClusterGcn {
                clusters: 8,
                per_batch: 2,
            },
            15,
        );
        assert!(r.final_test > 0.4, "{}: test {}", r.method, r.final_test);
    }

    #[test]
    fn graphsaint_variants_learn() {
        for m in [
            MiniBatchMethod::GraphSaintNode { nodes: 150 },
            MiniBatchMethod::GraphSaintEdge { edges: 150 },
            MiniBatchMethod::GraphSaintWalk {
                roots: 30,
                length: 4,
            },
        ] {
            let r = run(m, 15);
            assert!(r.final_test > 0.35, "{}: test {}", r.method, r.final_test);
        }
    }

    #[test]
    fn vr_gcn_learns() {
        let r = run(MiniBatchMethod::VrGcn, 15);
        assert!(r.final_test > 0.35, "{}: test {}", r.method, r.final_test);
    }

    #[test]
    fn sampling_overhead_is_reported() {
        let r = run(
            MiniBatchMethod::GraphSaintWalk {
                roots: 30,
                length: 4,
            },
            3,
        );
        // Strictly positive rather than a fixed fraction: wall-clock
        // ratios are unstable on loaded CI machines.
        assert!(r.sampling_frac > 0.0, "walk sampler should cost time");
        assert!(r.avg_epoch_s > 0.0);
    }
}
