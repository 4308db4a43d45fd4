//! The serving worker pool: one OS thread per shard, each draining its
//! rank's bounded queue through the size/linger batcher into
//! [`ShardServer::serve_batch`].
//!
//! This module is the **only** place in `bns-serve` allowed to call
//! `thread::spawn` (`cargo xtask analyze` enforces it), mirroring how
//! training confines spawns to `bns-comm` and the tensor pool. Each
//! worker may additionally install a private `bns-tensor` thread pool
//! so the forward kernels parallelize within a batch — the same
//! per-rank pool discipline the trainer uses, with the same bitwise
//! determinism guarantee.

use crate::batch::{BatchPolicy, Query, RankQueue};
use crate::cache::{CacheConfig, CacheStats};
use crate::latency::{LatencyRecorder, LatencySummary};
use crate::shard::{RowStats, ServePlan, ShardServer};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deployment-wide serving knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Batch formation (size cap + linger window).
    pub policy: BatchPolicy,
    /// Bound of each rank's pending-query queue (backpressure point).
    pub queue_capacity: usize,
    /// Boundary-cache sizing.
    pub cache: CacheConfig,
    /// Kernel threads per shard worker (`<= 1` = serial kernels).
    pub threads_per_shard: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            policy: BatchPolicy {
                max_batch: 32,
                linger: Duration::from_micros(200),
            },
            queue_capacity: 1024,
            cache: CacheConfig::default(),
            threads_per_shard: 1,
        }
    }
}

/// One worker's tallies, returned when it exits.
#[derive(Debug)]
pub struct ShardReport {
    /// The shard's rank.
    pub rank: usize,
    /// Queries answered.
    pub queries: u64,
    /// Batches formed.
    pub batches: u64,
    /// Largest batch actually served.
    pub max_batch_seen: usize,
    /// Per-query latencies.
    pub latency: LatencyRecorder,
    /// Boundary-cache counters.
    pub cache: CacheStats,
    /// Closure and computed row counters.
    pub rows: RowStats,
}

/// Whole-deployment results from [`ServeEngine::shutdown`].
#[derive(Debug)]
pub struct ServeReport {
    /// Per-shard breakdowns.
    pub per_shard: Vec<ShardReport>,
    /// All shards' latencies merged.
    pub latency: LatencyRecorder,
    /// All shards' cache counters merged.
    pub cache: CacheStats,
    /// All shards' row counters merged.
    pub rows: RowStats,
    /// Wall-clock time from engine start to shutdown completion.
    pub elapsed: Duration,
}

impl ServeReport {
    /// Latency/throughput summary over the engine's lifetime.
    pub fn summary(&self) -> LatencySummary {
        self.latency.summary(self.elapsed)
    }

    /// Mean served-batch occupancy.
    pub fn avg_batch(&self) -> f64 {
        let q: u64 = self.per_shard.iter().map(|s| s.queries).sum();
        let b: u64 = self.per_shard.iter().map(|s| s.batches).sum();
        if b == 0 {
            0.0
        } else {
            q as f64 / b as f64
        }
    }
}

/// A running serving deployment: `k` shard workers behind `k` bounded
/// queues, with queries routed by node ownership.
#[derive(Debug)]
pub struct ServeEngine {
    owner: Arc<Vec<u32>>,
    queues: Vec<Arc<RankQueue>>,
    handles: Vec<JoinHandle<ShardReport>>,
    started: Instant,
}

impl ServeEngine {
    /// Builds every shard (pinning its cache) and spawns the workers.
    pub fn start(plan: &ServePlan, cfg: &ServeConfig) -> ServeEngine {
        let started = Instant::now();
        let mut queues = Vec::with_capacity(plan.k);
        let mut handles = Vec::with_capacity(plan.k);
        for rank in 0..plan.k {
            let queue = Arc::new(RankQueue::bounded(cfg.queue_capacity));
            let server = plan.shard(rank, cfg.cache);
            let q = Arc::clone(&queue);
            let policy = cfg.policy;
            let threads = cfg.threads_per_shard;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("bns-serve-{rank}"))
                    .spawn(move || worker_loop(server, &q, &policy, threads))
                    .expect("spawn shard worker"),
            );
            queues.push(queue);
        }
        ServeEngine {
            owner: Arc::clone(&plan.owner),
            queues,
            handles,
            started,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Routes a fire-and-forget query to the owning shard, blocking on
    /// a full queue (backpressure). Returns `false` if `node` is not a
    /// node of the served graph or that queue was already shut down.
    pub fn submit(&self, node: u32, arrival: Instant) -> bool {
        self.submit_query(Query::new(node, arrival))
    }

    /// Routes a fully-formed query (e.g. one carrying a reply channel).
    /// Refuses (returns `false` for) a query whose node is out of
    /// range, so no shard ever sees one.
    pub fn submit_query(&self, query: Query) -> bool {
        match self.owner.get(query.node as usize) {
            Some(&rank) => self.queues[rank as usize].push(query),
            None => false,
        }
    }

    /// Total queries still waiting in queues.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Closes every queue, lets the workers drain, joins them, and
    /// merges their reports. Cache and row counters are flushed to
    /// `bns-telemetry`.
    pub fn shutdown(self) -> ServeReport {
        for q in &self.queues {
            q.close();
        }
        let mut per_shard: Vec<ShardReport> = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
        per_shard.sort_by_key(|s| s.rank);
        let mut latency = LatencyRecorder::default();
        let mut cache = CacheStats::default();
        let mut rows = RowStats::default();
        let mut queries = 0u64;
        let mut batches = 0u64;
        for s in &per_shard {
            latency.merge(&s.latency);
            cache.merge(&s.cache);
            rows.merge(&s.rows);
            queries += s.queries;
            batches += s.batches;
        }
        cache.flush_counters();
        rows.flush_counters();
        bns_telemetry::counter_add("serve.queries", queries);
        bns_telemetry::counter_add("serve.batches", batches);
        ServeReport {
            per_shard,
            latency,
            cache,
            rows,
            elapsed: self.started.elapsed(),
        }
    }
}

/// One shard's serve loop: pop a batch, answer it, charge each query's
/// latency from its *intended* arrival, deliver replies if requested.
fn worker_loop(
    mut server: ShardServer,
    queue: &RankQueue,
    policy: &BatchPolicy,
    threads: usize,
) -> ShardReport {
    let _pool = if threads > 1 {
        Some(bns_tensor::pool::install(bns_tensor::ThreadPool::new(
            threads,
        )))
    } else {
        None
    };
    let mut latency = LatencyRecorder::default();
    let mut batch: Vec<Query> = Vec::with_capacity(policy.max_batch);
    let mut nodes: Vec<u32> = Vec::with_capacity(policy.max_batch);
    let mut queries = 0u64;
    let mut batches = 0u64;
    let mut max_batch_seen = 0usize;
    while queue.pop_batch(policy, &mut batch) {
        nodes.clear();
        nodes.extend(batch.iter().map(|q| q.node));
        let logits = server.serve_batch(&nodes);
        let done = Instant::now();
        for (j, q) in batch.iter().enumerate() {
            latency.record(done.saturating_duration_since(q.arrival));
            if let Some(tx) = &q.reply {
                // A vanished client is not the shard's problem.
                let _ = tx.send(logits.row(j).to_vec());
            }
        }
        queries += batch.len() as u64;
        batches += 1;
        max_batch_seen = max_batch_seen.max(batch.len());
        bns_telemetry::histogram_record("serve.batch_size", batch.len() as f64);
    }
    ShardReport {
        rank: server.rank(),
        queries,
        batches,
        max_batch_seen,
        latency,
        cache: server.cache_stats(),
        rows: server.row_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_data::SyntheticSpec;
    use bns_gcn::engine::{ModelArch, TrainedModel};
    use bns_partition::{MetisLikePartitioner, Partitioner};
    use bns_tensor::SeededRng;

    fn plan(k: usize) -> (bns_data::Dataset, ServePlan) {
        let ds = SyntheticSpec::reddit_sim().with_nodes(300).generate(23);
        let part = MetisLikePartitioner::default().partition(&ds.graph, k, 0);
        let mut rng = SeededRng::new(8);
        let dims = [ds.feat_dim(), 8, ds.num_classes];
        let model = TrainedModel::new(ModelArch::Sage, &dims, 0.0, &mut rng);
        let p = ServePlan::build(&ds, &part, model);
        (ds, p)
    }

    #[test]
    fn engine_answers_every_query_and_replies_match_reference() {
        let (ds, plan) = plan(4);
        let reference = plan.model.logits(&ds);
        let engine = ServeEngine::start(&plan, &ServeConfig::default());
        assert_eq!(engine.shards(), 4);
        let (tx, rx) = std::sync::mpsc::channel();
        let n_q = 120u32;
        let t0 = Instant::now();
        for i in 0..n_q {
            let node = (i * 7) % ds.num_nodes() as u32;
            assert!(engine.submit_query(Query {
                node,
                arrival: t0,
                reply: Some(tx.clone()),
            }));
        }
        drop(tx);
        // Collect all replies before shutdown so drain order is moot.
        let mut got = 0;
        while let Ok(row) = rx.recv() {
            assert_eq!(row.len(), plan.num_classes);
            got += 1;
            if got == n_q {
                break;
            }
        }
        let report = engine.shutdown();
        assert_eq!(report.latency.count(), n_q as usize);
        let total: u64 = report.per_shard.iter().map(|s| s.queries).sum();
        assert_eq!(total, n_q as u64, "no query dropped");
        assert!(report.avg_batch() >= 1.0);
        // Spot-check one reply against the full-graph reference.
        let mut server = plan.shard(0, CacheConfig::disabled());
        let v = (0..ds.num_nodes() as u32)
            .find(|&x| plan.owner_of(x) == 0)
            .unwrap();
        let out = server.serve_batch(&[v]);
        let want: Vec<u32> = reference
            .row(v as usize)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let got_bits: Vec<u32> = out.row(0).iter().map(|x| x.to_bits()).collect();
        assert_eq!(got_bits, want);
    }

    #[test]
    fn submit_refuses_an_out_of_range_node() {
        let (ds, plan) = plan(2);
        let engine = ServeEngine::start(&plan, &ServeConfig::default());
        let t0 = Instant::now();
        assert!(!engine.submit(ds.num_nodes() as u32, t0));
        assert!(!engine.submit(u32::MAX, t0));
        assert!(engine.submit(0, t0));
        let report = engine.shutdown();
        assert_eq!(report.latency.count(), 1, "only the valid query is served");
        // A 2-layer model computes the target and its 1-hop ring.
        let ring = 1 + ds.graph.degree(0) as u64;
        assert_eq!(report.rows.computed_rows, ring + 1);
        assert!(report.rows.closure_rows >= ring);
    }

    #[test]
    fn shutdown_drains_pending_queries() {
        let (ds, plan) = plan(2);
        let cfg = ServeConfig {
            policy: BatchPolicy::immediate(8),
            ..Default::default()
        };
        let engine = ServeEngine::start(&plan, &cfg);
        let t0 = Instant::now();
        for v in 0..ds.num_nodes() as u32 {
            assert!(engine.submit(v, t0));
        }
        let report = engine.shutdown();
        assert_eq!(report.latency.count(), ds.num_nodes());
        assert!(report.elapsed > Duration::ZERO);
    }
}
