//! **bns-serve**: partition-sharded inference serving for trained
//! BNS-GCN models, with hot-boundary feature caching and a synthetic
//! heavy-traffic load harness.
//!
//! The training half of this workspace reproduces the paper; this crate
//! is the ROADMAP's serving half — the "production system serving heavy
//! traffic" the north star asks for. It reuses the training artifacts
//! directly: the partition plan becomes the shard layout, the trained
//! model (saved/loaded via `bns_gcn::model_io`) becomes the immutable
//! serving weights, and the pool+SIMD forward kernels answer queries.
//!
//! ## Architecture (DESIGN.md §11 has the full diagram)
//!
//! ```text
//!   clients ──► router (by node owner) ──► k bounded RankQueues
//!                                               │  batcher (max_batch, linger)
//!                                               ▼
//!                                          ShardServer × k
//!                              L-hop closure (BFS levels) → one block per layer
//!                                       features:  own rows ── store
//!                                                  remote  ── BoundaryCache
//!                                                            (miss → owner fetch)
//! ```
//!
//! * [`shard`] — [`shard::ServePlan`] (deployment state) and
//!   [`shard::ShardServer`] (exact L-hop minibatch inference on
//!   per-layer frontiers, bitwise equal to the full-graph forward pass;
//!   typed [`shard::ServeError`]s for invalid batches).
//! * [`cache`] — [`cache::BoundaryCache`]: degree-pinned hot set plus a
//!   CLOCK cold region, sized as a fraction of the shard's boundary.
//! * [`batch`] — bounded FIFO rank queues and the size/linger batcher.
//! * [`worker`] — [`worker::ServeEngine`]: one worker thread per shard
//!   (the crate's only spawn site, audit-enforced).
//! * [`traffic`] — seeded Poisson/bursty open-loop generators and the
//!   schedule replayer.
//! * [`latency`] — coordinated-omission-safe latency recording with
//!   p50/p99/p999 + QPS summaries.
//!
//! ## Determinism
//!
//! Serving inherits the workspace's bitwise-determinism contract: for a
//! fixed query stream, logits are bit-identical across thread counts,
//! SIMD backends, and cache configurations (the cache moves f32 rows
//! verbatim; weights are immutable at serve time). `tests/` holds the
//! matrix.
//!
//! # Example
//!
//! ```
//! use bns_data::SyntheticSpec;
//! use bns_gcn::engine::{ModelArch, TrainedModel};
//! use bns_partition::{MetisLikePartitioner, Partitioner};
//! use bns_serve::{CacheConfig, ServeConfig, ServeEngine, ServePlan};
//! use bns_tensor::SeededRng;
//! use std::time::Instant;
//!
//! let ds = SyntheticSpec::reddit_sim().with_nodes(300).generate(1);
//! let part = MetisLikePartitioner::default().partition(&ds.graph, 4, 0);
//! let mut rng = SeededRng::new(0);
//! let dims = [ds.feat_dim(), 16, ds.num_classes];
//! let model = TrainedModel::new(ModelArch::Sage, &dims, 0.0, &mut rng);
//! let plan = ServePlan::build(&ds, &part, model);
//! let engine = ServeEngine::start(&plan, &ServeConfig::default());
//! let t0 = Instant::now();
//! for v in 0..100u32 {
//!     engine.submit(v, t0);
//! }
//! let report = engine.shutdown();
//! assert_eq!(report.latency.count(), 100);
//! ```

// Serving is pure safe Rust; the audited unsafe lives in bns-tensor.
#![forbid(unsafe_code)]

pub mod batch;
pub mod cache;
pub mod latency;
pub mod shard;
pub mod traffic;
pub mod worker;

pub use batch::{BatchPolicy, Query, RankQueue};
pub use cache::{BoundaryCache, CacheConfig, CacheStats};
pub use latency::{LatencyRecorder, LatencySummary};
pub use shard::{RowStats, ServeError, ServePlan, ShardServer};
pub use traffic::{replay_open_loop, Arrivals, NodeMix};
pub use worker::{ServeConfig, ServeEngine, ServeReport, ShardReport};
