//! The per-rank shard server: exact L-hop minibatch inference over a
//! partition-sharded feature store.
//!
//! ## Sharding model
//!
//! Serving splits state the same way BNS-GCN training does: node
//! features are *sharded* by partition (each rank's store holds only
//! the rows it owns — the expensive part at production scale), while
//! graph topology, normalizers and the trained weights are *replicated*
//! (weights are a few MB and immutable at serve time; see DESIGN.md
//! §11 for the coherence argument). A query for node `v` is routed to
//! the rank that owns `v`.
//!
//! ## Exactness
//!
//! A batch is answered on per-layer frontiers. The L-hop BFS closure of
//! its target nodes (`L` = model depth) is ordered by BFS level,
//! ascending global id within a level, so the nodes within `d` hops of
//! the batch form a prefix of it for every `d`. Layer `l` (0-based)
//! then runs only on the nodes within `L-1-l` hops: those are exactly
//! the rows the next layer reads (the top layer computes the targets
//! alone), and every one of them has its whole neighborhood among the
//! layer's input rows, the nodes within `L-l` hops. The layer reads
//! adjacency from a [`Block`] whose row `v` lists `v`'s neighbors'
//! closure positions in ascending global id — the full graph's CSR
//! order — so every aggregation sums the same values in the same order
//! as the full-graph kernel and every GEMM row runs the same chain:
//! served logits equal [`TrainedModel::predict_logits`] *bitwise*.
//! (Rows at distance `L` contribute only their input features, which
//! are exact by construction.) `tests/exactness.rs` holds this for SAGE,
//! GCN and GAT at depths 1–3 and on edge batches; `tests/determinism.rs`
//! across SIMD backends, pool sizes and cache configurations.
//!
//! ## Feature I/O
//!
//! Rows the shard owns are read straight from its store. Rows owned by
//! other ranks go through the [`BoundaryCache`]; a miss reads the
//! owner's store and is accounted as fetched bytes — the quantity BGL
//! identifies as the serving bottleneck, and the quantity the cache
//! ratio sweep in `repro serve` trades against memory. The gather reads
//! the whole closure in ascending global id, whatever row order the
//! layers use, so the cache's access stream — and with it its CLOCK
//! state and counters — depends only on each closure's node set.

use crate::cache::{BoundaryCache, CacheConfig, CacheStats};
use bns_data::Dataset;
use bns_gcn::engine::TrainedModel;
use bns_gcn::plan::PartitionPlan;
use bns_graph::{Block, CsrGraph};
use bns_nn::EvalScratch;
use bns_partition::Partitioning;
use bns_tensor::Matrix;
use std::fmt;
use std::sync::Arc;

/// Everything shared by all shards of one serving deployment. Build it
/// once, then spawn one [`ShardServer`] per rank.
#[derive(Debug)]
pub struct ServePlan {
    /// Number of shards (partitions).
    pub k: usize,
    /// Replicated full-graph topology.
    pub graph: Arc<CsrGraph>,
    /// Trained weights (immutable at serve time; replicated).
    pub model: Arc<TrainedModel>,
    /// `owner[v]` = rank owning global node `v`.
    pub owner: Arc<Vec<u32>>,
    /// `local_row[v]` = row of `v` inside its owner's store.
    pub local_row: Arc<Vec<u32>>,
    /// Per-rank feature stores (rank `r` owns `stores[r]`; a read of
    /// another rank's store models a remote fetch and must go through
    /// the cache/fetch path).
    pub stores: Arc<Vec<Matrix>>,
    /// Replicated per-node normalizer the model's layers read
    /// ([`TrainedModel::normalizer`]; empty for GAT).
    pub normalizer: Arc<Vec<f32>>,
    /// Per rank: that shard's static boundary set ordered by descending
    /// full-graph degree (ties broken by ascending id) — the pinning
    /// priority list.
    pub boundary_by_degree: Vec<Arc<Vec<u32>>>,
    /// Number of output classes.
    pub num_classes: usize,
}

impl ServePlan {
    /// Builds the deployment state for `ds` partitioned by `part`,
    /// serving `model`.
    ///
    /// # Panics
    ///
    /// Panics if the partitioning does not cover the dataset or the
    /// model's input dimension does not match the features.
    pub fn build(ds: &Dataset, part: &Partitioning, model: TrainedModel) -> Self {
        assert_eq!(
            model.feat_dim(),
            ds.feat_dim(),
            "model input dim does not match dataset features"
        );
        let plan = PartitionPlan::build(ds, part);
        let n = ds.num_nodes();
        let mut owner = vec![0u32; n];
        let mut local_row = vec![0u32; n];
        let mut stores = Vec::with_capacity(plan.k);
        let mut boundary_by_degree = Vec::with_capacity(plan.k);
        for p in &plan.parts {
            for (li, &v) in p.inner.iter().enumerate() {
                owner[v] = p.rank as u32;
                local_row[v] = li as u32;
            }
            stores.push(p.features.clone());
            let mut bd: Vec<u32> = p.boundary.iter().map(|&v| v as u32).collect();
            // Descending degree, ascending id on ties: a total order, so
            // the pin set is deterministic.
            bd.sort_unstable_by_key(|&v| (usize::MAX - ds.graph.degree(v as usize), v));
            boundary_by_degree.push(Arc::new(bd));
        }
        ServePlan {
            k: plan.k,
            graph: Arc::new(ds.graph.clone()),
            num_classes: model.num_classes(),
            normalizer: Arc::new(model.normalizer(ds)),
            model: Arc::new(model),
            owner: Arc::new(owner),
            local_row: Arc::new(local_row),
            stores: Arc::new(stores),
            boundary_by_degree,
        }
    }

    /// The rank a query for `node` must be routed to.
    pub fn owner_of(&self, node: u32) -> usize {
        self.owner[node as usize] as usize
    }

    /// Instantiates rank `rank`'s server with its boundary cache sized
    /// and pinned per `cfg`.
    pub fn shard(&self, rank: usize, cfg: CacheConfig) -> ShardServer {
        assert!(rank < self.k, "rank {rank} out of range");
        let dim = self.stores[rank].cols();
        let n_boundary = self.boundary_by_degree[rank].len();
        let slots = cfg.slots(n_boundary).min(self.graph.num_nodes());
        let pinned = cfg.pinned(slots);
        let mut cache = BoundaryCache::new(slots, pinned, dim, self.graph.num_nodes());
        let owner = &self.owner;
        let local_row = &self.local_row;
        let stores = &self.stores;
        cache.pin(&self.boundary_by_degree[rank], |g| {
            stores[owner[g as usize] as usize].row(local_row[g as usize] as usize)
        });
        ShardServer {
            rank,
            depth: self.model.num_layers(),
            graph: Arc::clone(&self.graph),
            model: Arc::clone(&self.model),
            owner: Arc::clone(&self.owner),
            local_row: Arc::clone(&self.local_row),
            stores: Arc::clone(&self.stores),
            normalizer: Arc::clone(&self.normalizer),
            cache,
            rows: RowStats::default(),
            epoch: 0,
            mark: vec![0u32; self.graph.num_nodes()],
            pos: vec![0u32; self.graph.num_nodes()],
            closure: Vec::new(),
            level_end: Vec::new(),
            by_id: Vec::new(),
            block: Block::default(),
            scale: Vec::new(),
            h: Matrix::default(),
            h_next: Matrix::default(),
            eval: EvalScratch::default(),
        }
    }
}

/// Why [`ShardServer::try_serve_batch`] refused a batch. Either error
/// is found before any shard state (cache, counters, scratch) changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The batch has no targets.
    EmptyBatch,
    /// A target is not a node of the served graph.
    NodeOutOfRange {
        /// The offending target id.
        node: u32,
        /// Number of nodes in the graph.
        nodes: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::EmptyBatch => write!(f, "empty batch"),
            ServeError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range for a graph of {nodes} nodes")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Row counters of the per-layer-frontier forward, snapshotted into the
/// serve report and flushed as `serve.closure_rows` /
/// `serve.computed_rows` telemetry counters. Over a run,
/// `computed_rows / (L · closure_rows)` is the share of a whole-closure
/// forward's layer rows still computed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowStats {
    /// Closure rows gathered, summed over batches (the input rows of
    /// layer 0).
    pub closure_rows: u64,
    /// Output rows computed, summed over layers and batches.
    pub computed_rows: u64,
}

impl RowStats {
    /// Accumulates another shard's counters (for the engine report).
    pub fn merge(&mut self, other: &RowStats) {
        self.closure_rows += other.closure_rows;
        self.computed_rows += other.computed_rows;
    }

    /// Flushes the counters to `bns-telemetry`.
    pub fn flush_counters(&self) {
        bns_telemetry::counter_add("serve.closure_rows", self.closure_rows);
        bns_telemetry::counter_add("serve.computed_rows", self.computed_rows);
    }
}

/// One rank's serving state: shared deployment handles, a private
/// boundary cache, and reusable BFS and block scratch. Answers batches
/// synchronously via [`ShardServer::serve_batch`]; the worker pool in
/// [`crate::worker`] drives one of these per rank.
#[derive(Debug)]
pub struct ShardServer {
    rank: usize,
    depth: usize,
    graph: Arc<CsrGraph>,
    model: Arc<TrainedModel>,
    owner: Arc<Vec<u32>>,
    local_row: Arc<Vec<u32>>,
    stores: Arc<Vec<Matrix>>,
    normalizer: Arc<Vec<f32>>,
    cache: BoundaryCache,
    rows: RowStats,
    /// Batch stamp for the `mark` array (epoch-stamped visited set — a
    /// dense array instead of a hash set on the hot path).
    epoch: u32,
    mark: Vec<u32>,
    /// `pos[v]` = closure position of global node `v`; valid where
    /// `mark[v] == epoch`.
    pos: Vec<u32>,
    /// The closure in BFS-level order, ascending id within a level.
    closure: Vec<u32>,
    /// `level_end[d]` = number of closure nodes within `d` hops.
    level_end: Vec<usize>,
    /// The closure in ascending id (the gather's cache access order).
    by_id: Vec<u32>,
    block: Block,
    /// The model's normalizer per closure position (empty for GAT).
    scale: Vec<f32>,
    /// A layer's input and output rows (the gathered features first),
    /// swapped after every layer, and the layers' temporaries: kept
    /// across batches, so a batch's megabyte-sized buffers are reused
    /// rather than allocated and freed each time.
    h: Matrix,
    h_next: Matrix,
    eval: EvalScratch,
}

impl ShardServer {
    /// This server's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Snapshot of the boundary-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Snapshot of the closure/computed row counters.
    pub fn row_stats(&self) -> RowStats {
        self.rows
    }

    /// L-hop BFS closure of `targets` into `self.closure`, level by
    /// level (each level sorted ascending), with `self.level_end` and
    /// `self.pos` to match. Duplicates in `targets` are fine.
    fn expand_closure(&mut self, targets: &[u32]) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wrapped: stamp 0 means "unvisited", so reset.
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        }
        self.closure.clear();
        self.level_end.clear();
        for &t in targets {
            if self.mark[t as usize] != self.epoch {
                self.mark[t as usize] = self.epoch;
                self.closure.push(t);
            }
        }
        self.closure.sort_unstable();
        self.level_end.push(self.closure.len());
        let mut level_start = 0;
        for _ in 0..self.depth {
            let level_end = self.closure.len();
            for i in level_start..level_end {
                for &u in self.graph.neighbors(self.closure[i] as usize) {
                    if self.mark[u as usize] != self.epoch {
                        self.mark[u as usize] = self.epoch;
                        self.closure.push(u);
                    }
                }
            }
            self.closure[level_end..].sort_unstable();
            self.level_end.push(self.closure.len());
            level_start = level_end;
        }
        for (i, &v) in self.closure.iter().enumerate() {
            self.pos[v as usize] = i as u32;
        }
    }

    /// Gathers input features for the closure into `self.h` (row `i` =
    /// closure node `i`), reading rows in ascending global id: owned
    /// rows from this shard's store, remote rows through the cache
    /// (miss = a fetch from the owning shard's store, counted in bytes).
    fn gather_features(&mut self) {
        let dim = self.stores[self.rank].cols();
        let h0 = &mut self.h;
        // Every closure position is written once below.
        h0.reset(self.closure.len(), dim);
        self.by_id.clear();
        self.by_id.extend_from_slice(&self.closure);
        self.by_id.sort_unstable();
        for &g in &self.by_id {
            let (g, i) = (g as usize, self.pos[g as usize] as usize);
            let owner = self.owner[g] as usize;
            if owner == self.rank {
                h0.row_mut(i)
                    .copy_from_slice(self.stores[owner].row(self.local_row[g] as usize));
            } else if let Some(row) = self.cache.lookup(g as u32) {
                h0.row_mut(i).copy_from_slice(row);
            } else {
                let row = self.stores[owner].row(self.local_row[g] as usize);
                h0.row_mut(i).copy_from_slice(row);
                self.cache.admit(g as u32, row);
            }
        }
    }

    /// Fills `self.block` for layer 0: one row per closure node within
    /// `L-1` hops, listing its neighbors' closure positions in the full
    /// graph's (ascending-id) order, over every closure node as source.
    fn build_block(&mut self) {
        // `ServePlan::build` refuses a model without layers, so L >= 1.
        let depth = self.depth;
        let (rows, sources) = (self.level_end[depth - 1], self.level_end[depth]);
        let (graph, closure, pos) = (&self.graph, &self.closure, &self.pos);
        self.block.refill(rows, sources, |v, out| {
            out.extend(
                graph
                    .neighbors(closure[v] as usize)
                    .iter()
                    .map(|&u| pos[u as usize]),
            );
        });
    }

    /// Answers one batch: logits for `targets` in request order
    /// (`targets.len() x num_classes`), bitwise equal to the rows of
    /// [`TrainedModel::logits`] on the full graph; or a [`ServeError`],
    /// with the shard left untouched, for an empty batch or a target
    /// that is not a node.
    pub fn try_serve_batch(&mut self, targets: &[u32]) -> Result<Matrix, ServeError> {
        let nodes = self.graph.num_nodes();
        if targets.is_empty() {
            return Err(ServeError::EmptyBatch);
        }
        if let Some(&node) = targets.iter().find(|&&t| t as usize >= nodes) {
            return Err(ServeError::NodeOutOfRange { node, nodes });
        }
        self.expand_closure(targets);
        self.gather_features();
        self.build_block();
        // An empty normalizer (GAT) leaves `scale` empty.
        let norm = &self.normalizer;
        self.scale.clear();
        self.scale
            .extend(self.closure.iter().filter_map(|&v| norm.get(v as usize)));
        let depth = self.depth;
        for (l, layer) in self.model.layers().iter().enumerate() {
            // Layer l updates the nodes within L-1-l hops from the
            // nodes within L-l hops.
            let (n_out, n_src) = (self.level_end[depth - 1 - l], self.level_end[depth - l]);
            if l > 0 {
                self.block.truncate(n_out, n_src);
            }
            layer.forward_into(
                &self.block,
                &self.h,
                n_out,
                &self.scale,
                &mut self.eval,
                &mut self.h_next,
            );
            std::mem::swap(&mut self.h, &mut self.h_next);
            self.rows.computed_rows += n_out as u64;
        }
        self.rows.closure_rows += self.closure.len() as u64;
        // Route each target (request order, duplicates allowed) to its
        // row: the targets are the closure's first level.
        let rows: Vec<usize> = targets
            .iter()
            .map(|&t| self.pos[t as usize] as usize)
            .collect();
        Ok(self.h.gather_rows(&rows))
    }

    /// [`ShardServer::try_serve_batch`] for callers that hold a valid
    /// batch (the worker loop, benchmarks).
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or an out-of-range node id.
    pub fn serve_batch(&mut self, targets: &[u32]) -> Matrix {
        self.try_serve_batch(targets)
            .unwrap_or_else(|e| panic!("serve_batch: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_data::SyntheticSpec;
    use bns_gcn::engine::{ModelArch, TrainedModel};
    use bns_partition::{MetisLikePartitioner, Partitioner};
    use bns_tensor::SeededRng;

    fn setup(k: usize) -> (Dataset, ServePlan) {
        let ds = SyntheticSpec::reddit_sim().with_nodes(400).generate(11);
        let part = MetisLikePartitioner::default().partition(&ds.graph, k, 1);
        let mut rng = SeededRng::new(4);
        let dims = [ds.feat_dim(), 16, ds.num_classes];
        let model = TrainedModel::new(ModelArch::Sage, &dims, 0.0, &mut rng);
        let plan = ServePlan::build(&ds, &part, model);
        (ds, plan)
    }

    #[test]
    fn plan_shards_every_node_exactly_once() {
        let (ds, plan) = setup(4);
        assert_eq!(plan.k, 4);
        let total_rows: usize = plan.stores.iter().map(Matrix::rows).sum();
        assert_eq!(total_rows, ds.num_nodes());
        for v in 0..ds.num_nodes() {
            let r = plan.owner_of(v as u32);
            let row = plan.stores[r].row(plan.local_row[v] as usize);
            assert_eq!(row, ds.features.row(v), "store row of node {v}");
        }
        // Pinning order is degree-sorted.
        for bd in &plan.boundary_by_degree {
            for w in bd.windows(2) {
                assert!(
                    ds.graph.degree(w[0] as usize) >= ds.graph.degree(w[1] as usize),
                    "pin list not degree-descending"
                );
            }
        }
    }

    #[test]
    fn serve_batch_matches_full_graph_logits() {
        let (ds, plan) = setup(4);
        let reference = plan.model.logits(&ds);
        for rank in 0..plan.k {
            let mut server = plan.shard(rank, CacheConfig::default());
            // Serve every node this shard owns, in a few batches.
            let mine: Vec<u32> = (0..ds.num_nodes() as u32)
                .filter(|&v| plan.owner_of(v) == rank)
                .collect();
            for chunk in mine.chunks(17) {
                let out = server.serve_batch(chunk);
                assert_eq!(out.cols(), plan.num_classes);
                for (j, &t) in chunk.iter().enumerate() {
                    let want: Vec<u32> = reference
                        .row(t as usize)
                        .iter()
                        .map(|x| x.to_bits())
                        .collect();
                    let got: Vec<u32> = out.row(j).iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "rank {rank} node {t}");
                }
            }
        }
    }

    #[test]
    fn duplicate_targets_get_identical_rows() {
        let (_ds, plan) = setup(2);
        let mut server = plan.shard(0, CacheConfig::disabled());
        let v = (0..plan.owner.len() as u32)
            .find(|&x| plan.owner_of(x) == 0)
            .unwrap();
        let out = server.serve_batch(&[v, v, v]);
        assert_eq!(out.rows(), 3);
        assert_eq!(out.row(0), out.row(1));
        assert_eq!(out.row(1), out.row(2));
    }

    #[test]
    fn empty_batch_is_a_typed_error_that_leaves_the_shard_untouched() {
        let (_ds, plan) = setup(2);
        let mut server = plan.shard(0, CacheConfig::default());
        server.serve_batch(&[0, 1]);
        let (cache, rows, epoch) = (server.cache_stats(), server.row_stats(), server.epoch);
        assert_eq!(
            server.try_serve_batch(&[]).unwrap_err(),
            ServeError::EmptyBatch
        );
        assert_eq!(server.cache_stats(), cache);
        assert_eq!(server.row_stats(), rows);
        assert_eq!(server.epoch, epoch);
    }

    #[test]
    fn out_of_range_node_is_a_typed_error_that_leaves_the_shard_untouched() {
        let (ds, plan) = setup(2);
        let n = ds.num_nodes();
        let mut server = plan.shard(0, CacheConfig::default());
        let (cache, rows, epoch) = (server.cache_stats(), server.row_stats(), server.epoch);
        let err = server.try_serve_batch(&[0, n as u32 + 3, 1]).unwrap_err();
        assert_eq!(
            err,
            ServeError::NodeOutOfRange {
                node: n as u32 + 3,
                nodes: n
            }
        );
        assert_eq!(
            err.to_string(),
            format!("node {} out of range for a graph of {n} nodes", n + 3)
        );
        assert_eq!(server.cache_stats(), cache);
        assert_eq!(server.row_stats(), rows);
        assert_eq!(server.epoch, epoch);
        // The shard still answers a valid batch exactly.
        let want = plan.model.predict_logits(&ds, &[1]);
        assert_eq!(server.serve_batch(&[1]), want);
    }

    #[test]
    #[should_panic(expected = "serve_batch: empty batch")]
    fn serve_batch_panics_on_an_invalid_batch() {
        let (_ds, plan) = setup(2);
        plan.shard(0, CacheConfig::default()).serve_batch(&[]);
    }

    #[test]
    fn cache_counters_move_and_disabled_cache_still_counts_bytes() {
        let (ds, plan) = setup(4);
        let mine: Vec<u32> = (0..ds.num_nodes() as u32)
            .filter(|&v| plan.owner_of(v) == 0)
            .take(40)
            .collect();

        let mut cached = plan.shard(0, CacheConfig::default());
        for chunk in mine.chunks(8) {
            cached.serve_batch(chunk);
        }
        let cs = cached.cache_stats();
        assert!(cs.hits > 0, "repeated closures must hit the cache");

        let mut cold = plan.shard(0, CacheConfig::disabled());
        for chunk in mine.chunks(8) {
            cold.serve_batch(chunk);
        }
        let ns = cold.cache_stats();
        assert_eq!(ns.hits, 0);
        assert!(ns.misses > 0);
        assert!(
            ns.bytes_fetched > cs.bytes_fetched,
            "caching must reduce fetched bytes: {} vs {}",
            cs.bytes_fetched,
            ns.bytes_fetched
        );
    }
}
