//! The partition-parallel training engine — Algorithm 1 of the paper.
//!
//! One **cooperative task** per partition, multiplexed onto a fixed OS
//! worker set by `bns-runtime` (`BNS_WORKERS`, default the machine's
//! available parallelism) — so `k` can exceed the core count without
//! oversubscribing the machine. Every epoch each rank: (1) samples its
//! boundary set and derives, with no message, which of its rows each
//! peer sampled (lines 4–7; see `crate::exchange`), (2) runs the
//! layer loop, exchanging boundary features before each layer's forward
//! and boundary-feature *gradients* after each layer's backward (lines
//! 8–13), (3) all-reduces weight gradients and steps Adam (lines 14–15).
//! The rank program is one `async fn` (`rank_program`) that reads in
//! that order. Each receive is an `.await`: with nothing to receive the
//! rank parks and the worker picks up another runnable rank; message
//! arrival re-schedules it. All numeric work happens at fixed points in
//! each rank's program order with fixed fold orders, so results are
//! bitwise identical at any worker count (see DESIGN.md §12).
//!
//! Instrumentation: wall-clock per phase (sampling / compute /
//! communication / reduce — the paper's Fig. 5 and Tables 6, 12
//! breakdowns), byte-accurate per-class traffic, the Eq. 4 memory
//! model, and a FLOP estimate feeding the α–β cost model for
//! hardware-independent throughput comparisons.

use crate::exchange::{
    exchange_gradients, recv_boundary_blocks, send_boundary_rows, EpochExchange, ExchangeArena,
};
use crate::fullgraph::split_scores;
use crate::memory::epoch_activation_bytes;
use crate::plan::{LocalPartition, PartitionPlan};
use crate::sampling::{
    build_epoch_topology, build_epoch_topology_into, BoundarySampling, EpochTopology,
};
use bns_comm::{create_world, CostModel, RankComm, TrafficClass, TrafficStats, WirePrecision};
use bns_data::{Dataset, Labels};
use bns_nn::loss::{bce_with_logits_into, softmax_cross_entropy_into};
use bns_nn::metrics::{accuracy_counts, multilabel_counts, F1Counts};
use bns_nn::{Adam, EvalScratch, Layer, LayerSlot, SegScratch};
use bns_partition::Partitioning;
use bns_telemetry::Timed;
use bns_tensor::{Matrix, SeededRng};
use std::future::Future;
use std::sync::Arc;

/// Which model architecture the engine trains.
pub use bns_nn::ModelArch;

/// Training configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Model architecture.
    pub arch: ModelArch,
    /// Hidden-layer widths (input/output dims come from the dataset),
    /// e.g. `vec![256; 3]` for the paper's 4-layer Reddit model.
    pub hidden: Vec<usize>,
    /// Input dropout rate per layer.
    pub dropout: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Number of epochs.
    pub epochs: usize,
    /// Boundary sampling strategy (the paper's `p`).
    pub sampling: BoundarySampling,
    /// Evaluate val/test every this many epochs (`0` = final epoch
    /// only).
    pub eval_every: usize,
    /// Seed for model init, sampling and dropout.
    pub seed: u64,
    /// Global gradient-norm clip applied after the all-reduce (`None`
    /// disables). Small sampled boundary sets with a large `1/p` rescale
    /// can produce occasional gradient spikes on the scaled-down
    /// datasets; clipping tames them without biasing the expectation
    /// direction.
    pub clip_norm: Option<f32>,
    /// PipeGCN-style pipelining (extension; the companion approach the
    /// paper's introduction cites): boundary features and boundary
    /// gradients are used with **one epoch of staleness**, which lets a
    /// real system overlap communication with computation instead of
    /// shrinking it. Requires a static sampling strategy
    /// ([`BoundarySampling::is_static`]); epoch 0 is synchronous.
    /// Compare simulated times with
    /// [`SimulatedEpoch::pipelined_total`].
    pub pipeline: bool,
    /// Scheduler workers the rank tasks are multiplexed onto (`None` =
    /// `BNS_WORKERS`, or the machine's available parallelism). Purely a
    /// scheduling knob: any value produces bitwise-identical results
    /// for a fixed seed.
    pub workers: Option<usize>,
    /// On-wire encoding of boundary features and gradients (`None` =
    /// `BNS_QUANT`, default exact f32). Quantized modes compress the
    /// dominant traffic — 2x for f16/bf16, ~3.5–3.9x for int8 at the
    /// experiments' feature widths — at the cost of rounding error;
    /// gradients use seeded stochastic rounding, so training stays
    /// bitwise reproducible at any thread/worker/lane count.
    /// Evaluation always exchanges exact (DESIGN.md §13).
    pub wire_precision: Option<WirePrecision>,
}

/// Why [`TrainConfig::validate`] rejected a configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `dropout` is not a finite rate in `[0, 1)`.
    Dropout(f32),
    /// `lr` is not finite and positive.
    LearningRate(f32),
    /// `epochs` is zero.
    NoEpochs,
    /// The boundary sampling rate `p` is outside `[0, 1]` (or NaN).
    SamplingRate(f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Dropout(r) => write!(f, "dropout must be in [0, 1), got {r}"),
            ConfigError::LearningRate(lr) => {
                write!(f, "learning rate must be finite and positive, got {lr}")
            }
            ConfigError::NoEpochs => write!(f, "epochs must be at least 1"),
            ConfigError::SamplingRate(p) => write!(f, "sampling rate p must be in [0, 1], got {p}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl TrainConfig {
    /// Checks the fields training would otherwise trip over mid-run (or
    /// silently train on): the dropout rate, the learning rate, the
    /// epoch count and the boundary sampling rate.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(ConfigError::Dropout(self.dropout));
        }
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return Err(ConfigError::LearningRate(self.lr));
        }
        if self.epochs == 0 {
            return Err(ConfigError::NoEpochs);
        }
        match self.sampling.rate() {
            Some(p) if !(0.0..=1.0).contains(&p) => Err(ConfigError::SamplingRate(p)),
            _ => Ok(()),
        }
    }

    /// A small fast configuration for tests and examples.
    pub fn quick_test() -> Self {
        Self {
            arch: ModelArch::Sage,
            hidden: vec![16],
            dropout: 0.0,
            lr: 0.01,
            epochs: 10,
            sampling: BoundarySampling::Bns { p: 1.0 },
            eval_every: 0,
            seed: 0,
            clip_norm: None,
            pipeline: false,
            workers: None,
            wire_precision: None,
        }
    }

    /// The paper's Reddit model (4 layers, 256 hidden, dropout 0.5,
    /// lr 0.01) with an epoch count scaled for CPU.
    pub fn reddit() -> Self {
        Self {
            arch: ModelArch::Sage,
            hidden: vec![256, 256, 256],
            dropout: 0.5,
            lr: 0.01,
            epochs: 100,
            sampling: BoundarySampling::Bns { p: 1.0 },
            eval_every: 10,
            seed: 0,
            clip_norm: None,
            pipeline: false,
            workers: None,
            wire_precision: None,
        }
    }

    /// The paper's ogbn-products model (3 layers, 128 hidden, dropout
    /// 0.3, lr 0.003), epochs scaled.
    pub fn products() -> Self {
        Self {
            arch: ModelArch::Sage,
            hidden: vec![128, 128],
            dropout: 0.3,
            lr: 0.003,
            epochs: 100,
            sampling: BoundarySampling::Bns { p: 1.0 },
            eval_every: 10,
            seed: 0,
            clip_norm: None,
            pipeline: false,
            workers: None,
            wire_precision: None,
        }
    }

    /// The paper's Yelp model (4 layers, 512 hidden, dropout 0.1,
    /// lr 0.001), width/epochs scaled.
    pub fn yelp() -> Self {
        Self {
            arch: ModelArch::Sage,
            hidden: vec![256, 256, 256],
            dropout: 0.1,
            lr: 0.001,
            epochs: 100,
            sampling: BoundarySampling::Bns { p: 1.0 },
            eval_every: 10,
            seed: 0,
            clip_norm: None,
            pipeline: false,
            workers: None,
            wire_precision: None,
        }
    }
}

/// Per-epoch statistics (phase times are the max over ranks — the
/// synchronous-training bottleneck, as in the paper's breakdowns).
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Global training loss (sum over train nodes / global train count).
    pub loss: f64,
    /// Boundary-sampling + topology-build time, seconds.
    pub sample_s: f64,
    /// Local forward+backward compute time, seconds.
    pub compute_s: f64,
    /// Boundary feature/gradient communication time, seconds.
    pub comm_s: f64,
    /// Gradient all-reduce time, seconds.
    pub reduce_s: f64,
    /// Traffic sent this epoch, per rank.
    pub traffic_per_rank: Vec<TrafficStats>,
    /// Estimated FLOPs executed this epoch, per rank.
    pub flops_per_rank: Vec<f64>,
    /// Total boundary nodes selected this epoch (all ranks).
    pub selected_boundary: usize,
    /// Validation score, when evaluated this epoch.
    pub val_score: Option<f64>,
    /// Test score, when evaluated this epoch.
    pub test_score: Option<f64>,
}

impl EpochStats {
    /// Measured wall-clock epoch time (sum of phases).
    pub fn total_s(&self) -> f64 {
        self.sample_s + self.compute_s + self.comm_s + self.reduce_s
    }

    /// Simulated epoch time under a cost model: bottleneck compute +
    /// boundary comm + reduce comm (the three components of the paper's
    /// Fig. 5 / Table 6), with bytes and FLOPs scaled by
    /// `workload_scale` while message counts stay fixed. Experiments use
    /// this to project measurements from the scaled-down synthetic
    /// datasets into the paper's dataset-size regime (where transfers
    /// are bandwidth-bound, not latency-bound): per-epoch bytes and
    /// FLOPs are proportional to graph size, but the number of messages
    /// per epoch is not.
    pub fn simulated_scaled(&self, cost: &CostModel, workload_scale: f64) -> SimulatedEpoch {
        let s = workload_scale;
        let comp = self
            .flops_per_rank
            .iter()
            .fold(0.0f64, |a, &f| a.max(cost.compute_time(f * s)));
        let time_class = |class: TrafficClass| {
            self.traffic_per_rank
                .iter()
                .map(|t| cost.comm_time((t.bytes(class) as f64 * s) as u64, t.messages(class)))
                .fold(0.0f64, f64::max)
        };
        SimulatedEpoch {
            comp,
            comm: time_class(TrafficClass::Boundary),
            reduce: time_class(TrafficClass::AllReduce),
        }
    }
}

/// Simulated epoch-time breakdown under a [`CostModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedEpoch {
    /// Compute component, seconds.
    pub comp: f64,
    /// Boundary-communication component, seconds.
    pub comm: f64,
    /// Gradient-all-reduce component, seconds.
    pub reduce: f64,
}

impl SimulatedEpoch {
    /// Total simulated epoch time.
    pub fn total(&self) -> f64 {
        self.comp + self.comm + self.reduce
    }

    /// Simulated epoch time when boundary communication is fully
    /// overlapped with computation (the PipeGCN pipelining model): the
    /// slower of the two plus the (still synchronous) all-reduce.
    pub fn pipelined_total(&self) -> f64 {
        self.comp.max(self.comm) + self.reduce
    }
}

/// A trained model extracted from the engine (all ranks hold identical
/// replicas; this is rank 0's): a non-empty stack of layers of one
/// architecture. Supports single-process full-graph inference — the
/// "train distributed, deploy anywhere" path.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// Never empty; every layer has the same architecture.
    pub(crate) layers: Vec<Layer>,
}

impl TrainedModel {
    /// A freshly initialized model: [`Layer::stack`] over `dims`
    /// (input, hidden..., classes), with weights drawn from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given.
    pub fn new(arch: ModelArch, dims: &[usize], dropout: f32, rng: &mut SeededRng) -> Self {
        Self {
            layers: Layer::stack(arch, dims, dropout, rng),
        }
    }

    /// The layer stack, input layer first.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers (the serving engine's neighborhood-expansion
    /// depth `L`).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Output dimension of the last layer — the number of classes the
    /// model scores.
    pub fn num_classes(&self) -> usize {
        self.layers[self.layers.len() - 1].d_out()
    }

    /// Input feature dimension of the first layer.
    pub fn feat_dim(&self) -> usize {
        self.layers[0].d_in()
    }

    /// The per-node normalizer every layer reads on `ds`'s graph (see
    /// [`Layer::normalizer`]).
    pub fn normalizer(&self, ds: &Dataset) -> Vec<f32> {
        self.layers[0].normalizer(&ds.graph)
    }

    /// Logits for a specific set of nodes (`nodes.len() x num_classes`,
    /// rows in the given order): the full-graph forward pass followed by
    /// a row gather. The serving engine's minibatch path must reproduce
    /// these rows bitwise (`crates/serve` tests hold it to that).
    pub fn predict_logits(&self, ds: &Dataset, nodes: &[usize]) -> Matrix {
        self.logits(ds).gather_rows(nodes)
    }

    /// Full-graph logits on a dataset (evaluation mode, no dropout).
    ///
    /// # Panics
    ///
    /// Panics if the dataset's feature dimension does not match the
    /// model's input layer.
    pub fn logits(&self, ds: &Dataset) -> Matrix {
        let (n, norm) = (ds.num_nodes(), self.normalizer(ds));
        let (mut h, mut next) = (ds.features.clone(), Matrix::default());
        let mut scratch = EvalScratch::default();
        for l in &self.layers {
            l.forward_into(&ds.graph, &h, n, &norm, &mut scratch, &mut next);
            std::mem::swap(&mut h, &mut next);
        }
        h
    }

    /// Scores `(val, test)` on a dataset (see [`split_scores`]).
    pub fn evaluate(&self, ds: &Dataset) -> (f64, f64) {
        split_scores(&self.logits(ds), ds)
    }
}

/// The result of a training run.
#[derive(Debug, Clone)]
pub struct TrainRun {
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStats>,
    /// Final validation score (accuracy or micro-F1).
    pub final_val: f64,
    /// Final test score.
    pub final_test: f64,
    /// Peak analytic activation memory per rank, bytes.
    pub peak_mem_per_rank: Vec<u64>,
    /// Number of partitions.
    pub k: usize,
    /// Static boundary-set sizes per rank.
    pub boundary_per_rank: Vec<usize>,
    /// The trained model (rank 0's replica; all ranks are identical).
    pub model: TrainedModel,
}

impl TrainRun {
    /// Mean measured epoch time over all epochs, seconds.
    pub fn avg_epoch_s(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs.iter().map(EpochStats::total_s).sum::<f64>() / self.epochs.len() as f64
    }

    /// Mean simulated epoch time with a workload scale (see
    /// [`EpochStats::simulated_scaled`]).
    pub fn avg_sim_epoch_scaled(&self, cost: &CostModel, workload_scale: f64) -> SimulatedEpoch {
        let mut acc = SimulatedEpoch {
            comp: 0.0,
            comm: 0.0,
            reduce: 0.0,
        };
        if self.epochs.is_empty() {
            return acc;
        }
        for e in &self.epochs {
            let s = e.simulated_scaled(cost, workload_scale);
            acc.comp += s.comp;
            acc.comm += s.comm;
            acc.reduce += s.reduce;
        }
        let n = self.epochs.len() as f64;
        acc.comp /= n;
        acc.comm /= n;
        acc.reduce /= n;
        acc
    }

    /// The `(val, test)` pair at the evaluated epoch with the best
    /// validation score — the model-selection rule the paper's accuracy
    /// tables use. Falls back to the final scores if nothing was
    /// evaluated mid-run.
    pub fn best_by_val(&self) -> (f64, f64) {
        self.epochs
            .iter()
            .filter_map(|e| e.val_score.zip(e.test_score))
            .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
            .unwrap_or((self.final_val, self.final_test))
    }

    /// Total boundary bytes sent over the whole run.
    pub fn total_boundary_bytes(&self) -> u64 {
        self.epochs
            .iter()
            .flat_map(|e| e.traffic_per_rank.iter())
            .map(|t| t.bytes(TrafficClass::Boundary))
            .sum()
    }

    /// Mean per-epoch boundary communication volume in megabytes.
    pub fn epoch_comm_mb(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.total_boundary_bytes() as f64 / self.epochs.len() as f64 / 1e6
    }
}

/// Full dims vector (input, hidden..., classes).
fn dims_of(cfg: &TrainConfig, d_in: usize, d_out: usize) -> Vec<usize> {
    let mut dims = vec![d_in];
    dims.extend_from_slice(&cfg.hidden);
    dims.push(d_out);
    dims
}

// ---------------------------------------------------------------------
// The trainer
// ---------------------------------------------------------------------

struct RankEpoch {
    loss: f64,
    sample_s: f64,
    compute_s: f64,
    comm_s: f64,
    reduce_s: f64,
    traffic: TrafficStats,
    flops: f64,
    selected: usize,
    val: Option<(u64, u64, u64)>, // tp/correct, fp/total, fn (single uses 2)
    test: Option<(u64, u64, u64)>,
}

struct RankOutput {
    epochs: Vec<RankEpoch>,
    peak_mem: u64,
    boundary: usize,
    /// The trained layers (every rank holds the same replica).
    layers: Vec<Layer>,
}

/// A rank's run-long buffers, handed back by its program so that the
/// caller frees every rank's at once after the run (see
/// `train_with_plan`).
type RankBuffers = Box<dyn Send>;

/// Trains a model partition-parallel per the configuration and returns
/// the full instrumented run.
///
/// # Panics
///
/// Panics if the partitioning does not match the dataset, or with a
/// [`ConfigError`] payload if [`TrainConfig::validate`] rejects `cfg`.
pub fn train(ds: &Arc<Dataset>, part: &Partitioning, cfg: &TrainConfig) -> TrainRun {
    let plan = Arc::new(PartitionPlan::build(ds, part));
    train_with_plan(&plan, cfg)
}

/// Like [`train`] but reuses an already-built [`PartitionPlan`]
/// (partition-plan construction is deterministic, so sharing it across
/// sampling-rate sweeps keeps experiments fast).
///
/// # Panics
///
/// Panics with a [`ConfigError`] payload (see [`std::panic::panic_any`])
/// if [`TrainConfig::validate`] rejects `cfg`.
pub fn train_with_plan(plan: &Arc<PartitionPlan>, cfg: &TrainConfig) -> TrainRun {
    if let Err(e) = cfg.validate() {
        // A typed payload, so a caller can `catch_unwind` and report
        // the error (`repro` exits 2 on it).
        std::panic::panic_any(e);
    }
    assert!(
        !cfg.pipeline || cfg.sampling.is_static(),
        "pipelined training requires a static sampling strategy (p = 0 or 1)"
    );
    let k = plan.k;
    let workers = cfg
        .workers
        .map(|w| w.max(1))
        .unwrap_or_else(|| bns_runtime::WorkerConfig::from_env().workers)
        .min(k);
    let budget = bns_tensor::ThreadConfig::from_env();
    // The caller owns each rank's endpoint, and each rank hands its
    // buffers back, so all of them are freed here, on this thread, once
    // every worker has drained. Freed by each rank as its program
    // returns, on a worker and while other ranks still allocate,
    // glibc's per-thread arenas fragment across repeated runs: peak RSS
    // of perfbench's `train-reddit-k8-bns` (8 ranks on a 2-vCPU host)
    // then jumped by up to 25% in a third of the runs.
    let mut comms = create_world(k);
    let mut outputs: Vec<Option<(RankOutput, RankBuffers)>> = (0..k).map(|_| None).collect();
    let tasks: Vec<_> = comms
        .iter_mut()
        .zip(&mut outputs)
        .map(|(comm, out)| {
            bns_runtime::future_task(async move {
                *out = Some(on_rank(comm.rank(), rank_program(comm, plan, cfg)).await);
            })
        })
        .collect();
    bns_runtime::run_tasks(tasks, workers, |w| WorkerGuard::install(w, workers, budget));
    let (outputs, buffers): (Vec<RankOutput>, Vec<RankBuffers>) = outputs
        .into_iter()
        .map(|o| o.expect("rank task ran to completion"))
        .unzip();
    drop(buffers);
    drop(comms);
    assemble_run(plan, outputs)
}

/// Per-scheduler-worker kernel context: installs this worker's share of
/// the kernel thread budget (`BNS_THREADS` or available parallelism,
/// split over the *worker* count — not `k`, which may be far larger) as
/// its thread pool, and flushes the worker's pool + SIMD dispatch
/// counters when the worker drains out. Kernel dispatch is
/// calling-thread-local, so per-worker draining covers every kernel any
/// rank task ran on this worker.
struct WorkerGuard {
    pool: Option<Arc<bns_tensor::ThreadPool>>,
    guard: Option<bns_tensor::pool::PoolGuard>,
    share: usize,
}

impl WorkerGuard {
    fn install(worker: usize, workers: usize, budget: bns_tensor::ThreadConfig) -> Self {
        // A share of 1 means no pool — kernels stay on the serial path.
        let share = budget.for_ranks(workers, worker).threads;
        let pool = (share > 1).then(|| bns_tensor::ThreadPool::new(share));
        let guard = pool
            .as_ref()
            .map(|p| bns_tensor::pool::install(Arc::clone(p)));
        Self { pool, guard, share }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.guard.take();
        if let Some(p) = &self.pool {
            let stats = p.stats();
            bns_telemetry::counter_add("pool.parallel_dispatches", stats.parallel_dispatches);
            bns_telemetry::counter_add("pool.jobs", stats.jobs);
        }
        bns_telemetry::counter_add("pool.threads", self.share as u64);
        let simd_stats = bns_tensor::simd::take_thread_stats();
        bns_telemetry::counter_add("simd.dispatch.scalar", simd_stats.scalar);
        bns_telemetry::counter_add("simd.dispatch.sse2", simd_stats.sse2);
        bns_telemetry::counter_add("simd.dispatch.avx2", simd_stats.avx2);
        bns_telemetry::counter_add("simd.dispatch.avx512", simd_stats.avx512);
        bns_telemetry::counter_add("simd.dispatch.neon", simd_stats.neon);
    }
}

fn assemble_run(plan: &PartitionPlan, outputs: Vec<RankOutput>) -> TrainRun {
    let k = plan.k;
    let n_epochs = outputs[0].epochs.len();
    let multi = matches!(plan.parts[0].labels, Labels::Multi(_));
    let mut epochs = Vec::with_capacity(n_epochs);
    let mut final_val = 0.0;
    let mut final_test = 0.0;
    for e in 0..n_epochs {
        let loss = outputs[0].epochs[e].loss;
        let max_of = |f: fn(&RankEpoch) -> f64| {
            outputs
                .iter()
                .map(|o| f(&o.epochs[e]))
                .fold(0.0f64, f64::max)
        };
        let traffic_per_rank: Vec<TrafficStats> = outputs
            .iter()
            .map(|o| o.epochs[e].traffic.clone())
            .collect();
        let flops_per_rank: Vec<f64> = outputs.iter().map(|o| o.epochs[e].flops).collect();
        let selected_boundary: usize = outputs.iter().map(|o| o.epochs[e].selected).sum();
        let score = |get: fn(&RankEpoch) -> Option<(u64, u64, u64)>| -> Option<f64> {
            let parts: Option<Vec<(u64, u64, u64)>> =
                outputs.iter().map(|o| get(&o.epochs[e])).collect();
            let parts = parts?;
            if multi {
                let mut c = F1Counts::default();
                for (tp, fp, fn_) in parts {
                    c.merge(F1Counts { tp, fp, fn_ });
                }
                Some(c.micro_f1())
            } else {
                let correct: u64 = parts.iter().map(|p| p.0).sum();
                let total: u64 = parts.iter().map(|p| p.1).sum();
                Some(if total == 0 {
                    0.0
                } else {
                    correct as f64 / total as f64
                })
            }
        };
        let val_score = score(|r| r.val);
        let test_score = score(|r| r.test);
        if let Some(v) = val_score {
            final_val = v;
        }
        if let Some(t) = test_score {
            final_test = t;
        }
        epochs.push(EpochStats {
            loss,
            sample_s: max_of(|r| r.sample_s),
            compute_s: max_of(|r| r.compute_s),
            comm_s: max_of(|r| r.comm_s),
            reduce_s: max_of(|r| r.reduce_s),
            traffic_per_rank,
            flops_per_rank,
            selected_boundary,
            val_score,
            test_score,
        });
    }
    let mut outputs = outputs;
    let layers = std::mem::take(&mut outputs[0].layers);
    TrainRun {
        epochs,
        final_val,
        final_test,
        peak_mem_per_rank: outputs.iter().map(|o| o.peak_mem).collect(),
        k,
        boundary_per_rank: outputs.iter().map(|o| o.boundary).collect(),
        model: TrainedModel { layers },
    }
}

// ---------------------------------------------------------------------
// The rank program
// ---------------------------------------------------------------------

/// Attributes the spans of every poll of `fut` to `rank`, whichever
/// scheduler worker runs the poll.
async fn on_rank<F: Future>(rank: usize, fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    std::future::poll_fn(|cx| {
        bns_telemetry::set_thread_rank(rank);
        fut.as_mut().poll(cx)
    })
    .await
}

/// The segmented forward over the whole layer stack on one epoch
/// topology, leaving the logits in `h`; layer `l` exchanges under tag
/// `tag + l`. Per layer: issue every boundary-row send, run the
/// inner-edge partial while the blocks are in flight, then fold the
/// arrivals in whatever order they land — into fixed per-owner row
/// ranges, so bitwise the serial exchange — and finish the layer.
///
/// `train` is `Some((epoch, stale))` for a training pass: dropout draws
/// from the rank RNG, the PipeGCN cache `stale` (when pipelining)
/// swaps in last epoch's boundary blocks, and every phase is a span of
/// `epoch`. An eval pass (`None`) draws nothing and has no phase spans
/// — it runs inside the epoch's one `eval` span. Returns the pass's
/// (compute, comm) seconds, zero for eval.
#[allow(clippy::too_many_arguments)]
async fn forward_pass(
    comm: &mut RankComm,
    layers: &[Layer],
    (slots, scratch, arena): (&mut [LayerSlot], &mut SegScratch, &mut ExchangeArena),
    (h, h_next): (&mut Matrix, &mut Matrix),
    features: &Matrix,
    (topo, ex): (&EpochTopology, &EpochExchange),
    tag: u64,
    rng: &mut SeededRng,
    precision: WirePrecision,
    train: Option<(usize, Option<&mut [Option<Matrix>]>)>,
) -> (f64, f64) {
    let (epoch, mut stale) = train.map_or((None, None), |(e, s)| (Some(e), s));
    let train = epoch.is_some();
    let (mut compute_s, mut comm_s) = (0.0, 0.0);
    for (l, (layer, slot)) in layers.iter().zip(slots.iter_mut()).enumerate() {
        let tag = tag + l as u64;
        let span = |name| {
            epoch.map(|e| Timed::with_args(name, &[("epoch", e.into()), ("layer", l.into())]))
        };
        let lap = |t: Option<Timed>| t.map_or(0.0, Timed::stop);
        let h_in = if l == 0 { features } else { &*h };
        let tc = span("exchange");
        send_boundary_rows(comm, ex, h_in, tag, arena, precision);
        comm_s += lap(tc);
        let tk = span("compute");
        layer.forward_inner(slot, &topo.graph, h_in, &topo.gcn_scale, (train, rng));
        compute_s += lap(tk);
        let tc = span("exchange");
        recv_boundary_blocks(
            comm,
            ex,
            topo.selected.len(),
            h_in.cols(),
            topo.feature_scale,
            tag,
            arena,
            stale.as_deref_mut().map(|s| &mut s[l]),
            precision,
        )
        .await;
        comm_s += lap(tc);
        let tk = span("compute");
        layer.forward_boundary(
            slot,
            &topo.graph,
            (h_in, arena.boundary()),
            (&topo.row_scale, &topo.gcn_scale),
            (train, rng),
            scratch,
            h_next,
        );
        std::mem::swap(h, h_next);
        compute_s += lap(tk);
    }
    (compute_s, comm_s)
}

/// Flattens every layer's parameter gradients, in
/// [`Layer::for_each_param_grad`] order, into `flat` (keeping its
/// allocation) and appends the rank's loss: the all-reduce payload.
fn flatten_grads(slots: &[LayerSlot], local_loss: f32, flat: &mut Vec<f32>) {
    flat.clear();
    for slot in slots {
        slot.for_each_grad(|g| flat.extend_from_slice(g.as_slice()));
    }
    flat.push(local_loss);
}

/// Copies the all-reduced gradients `flat` (the payload of
/// [`flatten_grads`] without the loss) back into the slots and steps
/// Adam on each `(parameter, gradient)` pair in the same order — the
/// bits of one `Adam::step` over every pair after the whole copy, since
/// each pair's update reads only its own gradient.
fn apply_reduced_grads(
    layers: &mut [Layer],
    slots: &mut [LayerSlot],
    flat: &[f32],
    opt: &mut Adam,
) {
    let mut step = opt.begin_step();
    let mut off = 0;
    for (layer, slot) in layers.iter_mut().zip(slots) {
        layer.for_each_param_grad(slot, |p, g| {
            let n = g.len();
            g.as_mut_slice().copy_from_slice(&flat[off..off + n]);
            off += n;
            step.update(p, g);
        });
    }
    assert_eq!(off, flat.len(), "flat gradient size mismatch");
}

/// One partition's whole training run: Algorithm 1 as a straight-line
/// program. Each `.await` is a point where the rank may park until a
/// peer's message lands; the compiler-generated state machine carries
/// every local across it, and the scheduler never overlaps two polls of
/// one rank. So every RNG draw, message send and floating-point fold
/// happens at the same point in this rank's program order however the
/// ranks are scheduled — which is why results are bitwise identical at
/// any worker count (DESIGN.md §12). The phase timers are locals too,
/// so time parked in a receive accrues to the phase it interrupts.
async fn rank_program(
    comm: &mut RankComm,
    plan: &PartitionPlan,
    cfg: &TrainConfig,
) -> (RankOutput, RankBuffers) {
    let me = comm.rank();
    let lp: &LocalPartition = &plan.parts[me];
    let n_in = lp.n_inner();
    let dims = dims_of(cfg, plan.feat_dim, plan.num_classes);
    let num_layers = dims.len() - 1;
    let mut opt = Adam::new(cfg.lr);
    // Drives dropout only: the boundary selection is a hash of
    // `sample_seed`, which every rank evaluates alike.
    let mut rng = SeededRng::new(cfg.seed ^ 0x5eed_0000).fork(me as u64 + 1);
    let sample_seed = cfg.seed ^ 0xed6e_5eed;
    // Config wins over `BNS_QUANT`; applies to the training exchanges
    // only, eval always runs exact.
    let precision = cfg.wire_precision.unwrap_or_else(WirePrecision::from_env);
    // Run-level stochastic-rounding stream seed for quantized gradient
    // sends (mixed per (tag, destination) in `exchange_gradients`).
    let sr_seed = cfg.seed ^ 0x570c_4a57_1c5e_ed00;

    let mut layers = Layer::stack(cfg.arch, &dims, cfg.dropout, &mut SeededRng::new(cfg.seed));
    // Layer buffers, owned for the whole run and overwritten every
    // epoch (DESIGN.md §7): one slot per layer, one scratch shared by
    // all layers, and the activation / upstream-gradient pair, which
    // ping-pong with the scratch through `mem::swap`. Layer 0 reads
    // `lp.features` in place. The eval pass runs through the same
    // buffers.
    let mut slots: Vec<LayerSlot> = layers.iter().map(Layer::new_slot).collect();
    for (layer, slot) in layers.iter_mut().zip(&mut slots) {
        layer.for_each_param_grad(slot, |p, _| opt.push_moments(p));
    }
    let mut scratch = SegScratch::default();
    let (mut h, mut h_next, mut d) = (Matrix::default(), Matrix::default(), Matrix::default());
    // The flattened gradients plus the loss, all-reduced in place.
    let mut flat: Vec<f32> = Vec::new();
    let mut arena = ExchangeArena::new();
    let mut stale_feats: Vec<Option<Matrix>> = vec![None; num_layers];
    let mut stale_grads: Vec<Option<Vec<Vec<f32>>>> = vec![None; num_layers];
    // The static full topology and its exchange serve evaluation.
    let full = BoundarySampling::Bns { p: 1.0 };
    let full_topo = build_epoch_topology(lp, &full, 0, sample_seed);
    let mut full_ex = EpochExchange::default();
    full_ex.rebuild(lp, &full, 0, sample_seed, &full_topo.selected);
    // The training topology and exchange: built once under static
    // sampling, resampled into the same buffers every epoch otherwise.
    let (mut topo, mut ex) = (EpochTopology::default(), EpochExchange::default());
    let mut epochs_out = Vec::with_capacity(cfg.epochs);
    let mut peak_mem = 0u64;

    for epoch in 0..cfg.epochs {
        let tag_base = (epoch as u64) * 256;
        let traffic_start = comm.stats().clone();
        let epoch_span = Timed::with_args("epoch", &[("rank", me.into()), ("epoch", epoch.into())]);

        // ---- Phase 1: boundary sampling, both directions ----
        let sample_timer = Timed::with_args("sample", &[("epoch", epoch.into())]);
        if epoch == 0 || !cfg.sampling.is_static() {
            build_epoch_topology_into(lp, &cfg.sampling, epoch, sample_seed, &mut topo);
            ex.rebuild(lp, &cfg.sampling, epoch, sample_seed, &topo.selected);
        }
        let sample_s = sample_timer.stop();
        let n_sel = topo.selected.len();
        bns_telemetry::counter_add("sampler.boundary_kept", n_sel as u64);
        bns_telemetry::counter_add("sampler.boundary_total", lp.n_boundary() as u64);

        // ---- Phase 2: forward, one boundary exchange per layer ----
        let stale = cfg.pipeline.then_some(&mut stale_feats[..]);
        let (mut compute_s, mut comm_s) = forward_pass(
            comm,
            &layers,
            (&mut slots, &mut scratch, &mut arena),
            (&mut h, &mut h_next),
            &lp.features,
            (&topo, &ex),
            tag_base + 1,
            &mut rng,
            precision,
            Some((epoch, stale)),
        )
        .await;
        let flops = layers.iter().fold(0.0, |f, l| {
            f + l.estimate_flops(topo.graph.num_edges(), n_in, n_in + n_sel)
        });

        // ---- Loss and the gradient seed ----
        let tk = Timed::with_args("compute", &[("epoch", epoch.into())]);
        let rows = &lp.train_local;
        let local_loss = match &lp.labels {
            Labels::Single(labels) => softmax_cross_entropy_into(&h, labels, rows, &mut d).0,
            Labels::Multi(y) => bce_with_logits_into(&h, y, rows, &mut d),
        };
        d.scale(1.0 / plan.global_train.max(1) as f32);
        compute_s += tk.stop();

        // ---- Phase 3: backward, one gradient return per layer ----
        // Layer 0's input gradient is read by nobody: it computes only
        // what leaves the rank (parameter gradients and boundary rows),
        // and its gradient exchange sends and drains without folding.
        for l in (0..num_layers).rev() {
            let at = [("epoch", epoch.into()), ("layer", l.into())];
            let tk = Timed::with_args("compute", &at);
            let inner_grad = l > 0;
            layers[l].backward_seg(&mut slots[l], &topo.graph, &d, &mut scratch, inner_grad);
            if inner_grad {
                std::mem::swap(&mut d, &mut scratch.dh);
            }
            compute_s += tk.stop();
            let tc = Timed::with_args("exchange", &at);
            if !ex.is_trivial() {
                exchange_gradients(
                    comm,
                    &ex,
                    inner_grad.then_some(&mut d),
                    &scratch.dh_bd,
                    topo.feature_scale,
                    tag_base + 64 + l as u64,
                    &mut arena,
                    cfg.pipeline.then(|| &mut stale_grads[l]),
                    precision,
                    sr_seed,
                )
                .await;
            }
            comm_s += tc.stop();
        }

        // ---- Phase 4: all-reduce the gradients, Adam step ----
        let reduce_timer = Timed::with_args("reduce", &[("epoch", epoch.into())]);
        flatten_grads(&slots, local_loss as f32, &mut flat);
        comm.all_reduce_sum(&mut flat).await;
        let global_loss = *flat.last().expect("loss slot") as f64 / plan.global_train.max(1) as f64;
        flat.pop();
        if me == 0 {
            bns_telemetry::gauge_set("epoch.loss", global_loss);
            bns_telemetry::series_push("epoch.loss", epoch as u64, global_loss);
        }
        if let Some(clip) = cfg.clip_norm {
            let norm = flat.iter().map(|x| (*x as f64).powi(2)).sum::<f64>().sqrt() as f32;
            if norm > clip {
                let s = clip / norm;
                for x in &mut flat {
                    *x *= s;
                }
            }
        }
        apply_reduced_grads(&mut layers, &mut slots, &flat, &mut opt);
        let reduce_s = reduce_timer.stop();

        // ---- Memory model ----
        let mem = epoch_activation_bytes(n_in, n_sel, &dims, cfg.dropout > 0.0);
        peak_mem = peak_mem.max(mem);
        // Snapshot training traffic before the (full-boundary) eval pass
        // so timing/traffic stats reflect training only.
        let traffic = comm.stats().since(&traffic_start);

        // ---- Evaluation ----
        let do_eval = epoch + 1 == cfg.epochs
            || (cfg.eval_every > 0 && (epoch + 1).is_multiple_of(cfg.eval_every));
        let (val, test) = if do_eval {
            let eval_span = Timed::with_args("eval", &[("epoch", epoch.into())]);
            forward_pass(
                comm,
                &layers,
                (&mut slots, &mut scratch, &mut arena),
                (&mut h, &mut h_next),
                &lp.features,
                (&full_topo, &full_ex),
                tag_base + 129,
                &mut rng,
                // Metrics compare the exact forward, whatever the
                // training wire precision.
                WirePrecision::Exact,
                None,
            )
            .await;
            let score_of = |rows: &[usize]| -> (u64, u64, u64) {
                match &lp.labels {
                    Labels::Single(labels) => {
                        let (c, t) = accuracy_counts(&h, labels, rows);
                        (c as u64, t as u64, 0)
                    }
                    Labels::Multi(y) => {
                        let c = multilabel_counts(&h, y, rows);
                        (c.tp, c.fp, c.fn_)
                    }
                }
            };
            let scores = (
                Some(score_of(&lp.val_local)),
                Some(score_of(&lp.test_local)),
            );
            eval_span.stop();
            scores
        } else {
            (None, None)
        };

        epochs_out.push(RankEpoch {
            loss: global_loss,
            sample_s,
            compute_s,
            comm_s,
            reduce_s,
            traffic,
            flops,
            selected: n_sel,
            val,
            test,
        });
        epoch_span.stop();
    }
    arena.flush_counters();
    let output = RankOutput {
        epochs: epochs_out,
        peak_mem,
        boundary: lp.n_boundary(),
        layers,
    };
    let buffers = Box::new((
        (slots, scratch, [h, h_next, d], flat, arena, opt),
        (stale_feats, stale_grads),
        (full_topo, full_ex, topo, ex),
    ));
    (output, buffers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_data::SyntheticSpec;
    use bns_partition::{MetisLikePartitioner, Partitioner, RandomPartitioner};

    fn small_ds() -> Arc<Dataset> {
        Arc::new(SyntheticSpec::reddit_sim().with_nodes(600).generate(3))
    }

    #[test]
    fn avg_epoch_s_of_empty_run_is_zero() {
        let run = TrainRun {
            epochs: Vec::new(),
            final_val: 0.0,
            final_test: 0.0,
            peak_mem_per_rank: Vec::new(),
            k: 0,
            boundary_per_rank: Vec::new(),
            model: TrainedModel::new(ModelArch::Gcn, &[1, 1], 0.0, &mut SeededRng::new(0)),
        };
        assert_eq!(run.avg_epoch_s(), 0.0);
        assert!(run.avg_epoch_s().is_finite());
    }

    #[test]
    fn trains_and_reports() {
        let ds = small_ds();
        let part = MetisLikePartitioner::default().partition(&ds.graph, 3, 0);
        let cfg = TrainConfig {
            epochs: 8,
            eval_every: 4,
            hidden: vec![24],
            ..TrainConfig::quick_test()
        };
        let run = train(&ds, &part, &cfg);
        assert_eq!(run.epochs.len(), 8);
        assert!(run.epochs[3].val_score.is_some());
        assert!(run.epochs[0].val_score.is_none());
        assert!(run.final_test > 0.0);
        // Loss decreases over training.
        assert!(
            run.epochs.last().unwrap().loss < run.epochs[0].loss,
            "loss {} -> {}",
            run.epochs[0].loss,
            run.epochs.last().unwrap().loss
        );
    }

    #[test]
    fn learns_the_task_with_p1() {
        let ds = small_ds();
        let part = RandomPartitioner.partition(&ds.graph, 2, 1);
        let cfg = TrainConfig {
            epochs: 60,
            hidden: vec![32],
            lr: 0.01,
            ..TrainConfig::quick_test()
        };
        let run = train(&ds, &part, &cfg);
        // 16-class task: well above chance.
        assert!(run.final_test > 0.5, "test acc {}", run.final_test);
    }

    #[test]
    fn sampling_reduces_traffic_proportionally() {
        let ds = small_ds();
        let part = RandomPartitioner.partition(&ds.graph, 3, 2);
        let mut boundary_bytes = Vec::new();
        for p in [1.0, 0.5, 0.1] {
            let cfg = TrainConfig {
                epochs: 4,
                sampling: BoundarySampling::Bns { p },
                ..TrainConfig::quick_test()
            };
            let run = train(&ds, &part, &cfg);
            // Use epoch 1..: epoch 0 includes no eval traffic either; all
            // comparable. Skip eval epochs (last) to compare training comm.
            let bytes: u64 = run.epochs[..3]
                .iter()
                .flat_map(|e| e.traffic_per_rank.iter())
                .map(|t| t.bytes(TrafficClass::Boundary))
                .sum();
            boundary_bytes.push(bytes as f64);
        }
        let r_half = boundary_bytes[1] / boundary_bytes[0];
        let r_tenth = boundary_bytes[2] / boundary_bytes[0];
        assert!((r_half - 0.5).abs() < 0.12, "p=0.5 ratio {r_half}");
        assert!((r_tenth - 0.1).abs() < 0.06, "p=0.1 ratio {r_tenth}");
    }

    #[test]
    fn p_zero_sends_no_boundary_traffic() {
        let ds = small_ds();
        let part = RandomPartitioner.partition(&ds.graph, 2, 3);
        let cfg = TrainConfig {
            epochs: 3,
            sampling: BoundarySampling::Bns { p: 0.0 },
            eval_every: 0,
            ..TrainConfig::quick_test()
        };
        let run = train(&ds, &part, &cfg);
        // All epochs except the final eval epoch move zero boundary bytes.
        let bytes: u64 = run.epochs[..2]
            .iter()
            .flat_map(|e| e.traffic_per_rank.iter())
            .map(|t| t.bytes(TrafficClass::Boundary))
            .sum();
        assert_eq!(bytes, 0);
    }

    #[test]
    fn extracted_model_matches_engine_eval() {
        let ds = small_ds();
        let part = RandomPartitioner.partition(&ds.graph, 3, 4);
        for arch in [ModelArch::Sage, ModelArch::Gcn, ModelArch::Gat] {
            for p in [1.0, 0.3] {
                let cfg = TrainConfig {
                    arch,
                    epochs: 15,
                    hidden: vec![24],
                    dropout: 0.3,
                    sampling: BoundarySampling::Bns { p },
                    ..TrainConfig::quick_test()
                };
                let run = train(&ds, &part, &cfg);
                // The engine's final eval runs the same model over the
                // same full topology, folding every aggregation in the
                // full-graph kernel's order: the scores agree exactly.
                assert_eq!(
                    run.model.evaluate(&ds),
                    (run.final_val, run.final_test),
                    "{arch:?} p={p}"
                );
            }
        }
    }

    /// Both ends of a boundary derive the selection locally, so a
    /// sampled run — its eval passes included — sends no Control
    /// message at all.
    #[test]
    fn sampled_run_sends_no_control_traffic() {
        let ds = small_ds();
        let part = RandomPartitioner.partition(&ds.graph, 3, 5);
        let plan = Arc::new(PartitionPlan::build(&ds, &part));
        let cfg = TrainConfig {
            epochs: 4,
            eval_every: 2,
            sampling: BoundarySampling::Bns { p: 0.3 },
            ..TrainConfig::quick_test()
        };
        let run = train_with_plan(&plan, &cfg);
        for (e, stats) in run.epochs.iter().enumerate() {
            for t in &stats.traffic_per_rank {
                assert_eq!(t.bytes(TrafficClass::Control), 0, "epoch {e}");
                assert!(t.bytes(TrafficClass::Boundary) > 0, "epoch {e}");
            }
        }
        // The epoch stats stop before eval; each rank's whole-run
        // counters cover the eval passes too.
        let mut comms = create_world(plan.k);
        let tasks = comms
            .iter_mut()
            .map(|comm| {
                let (plan, cfg) = (&plan, &cfg);
                bns_runtime::future_task(async move {
                    drop(rank_program(comm, plan, cfg).await);
                })
            })
            .collect();
        bns_runtime::run_tasks(tasks, 1, |_| ());
        for comm in &comms {
            assert_eq!(comm.stats().messages(TrafficClass::Control), 0);
            assert_eq!(comm.stats().bytes(TrafficClass::Control), 0);
        }
    }

    /// Static sampling and the edge baselines draw no selection from
    /// any RNG stream, so their loss curves are pinned to the bits
    /// (FNV-1a over each epoch's `loss.to_bits()`) recorded from the
    /// engine that still exchanged selections and drew BNS's from the
    /// rank RNG.
    #[test]
    fn static_and_edge_curves_match_recorded_bits() {
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let ds = small_ds();
        let part = RandomPartitioner.partition(&ds.graph, 3, 4);
        let cases = [
            (
                ModelArch::Sage,
                BoundarySampling::Bns { p: 1.0 },
                0x0202_1b27_2d89_a0d3,
            ),
            (
                ModelArch::Sage,
                BoundarySampling::Bns { p: 0.0 },
                0x5b06_2774_4030_db5e,
            ),
            (
                ModelArch::Sage,
                BoundarySampling::BoundaryEdge { keep: 0.4 },
                0x1a22_fe1e_b08b_d19e,
            ),
            (
                ModelArch::Sage,
                BoundarySampling::DropEdge { keep: 0.7 },
                0x75c0_4e7c_d439_6d99,
            ),
            (
                ModelArch::Gcn,
                BoundarySampling::Bns { p: 1.0 },
                0x307d_0a5b_c556_4782,
            ),
        ];
        for (arch, sampling, want) in cases {
            let cfg = TrainConfig {
                arch,
                epochs: 6,
                hidden: vec![16],
                dropout: 0.3,
                sampling,
                eval_every: 3,
                seed: 7,
                // Pinned: a `BNS_QUANT` leg must not move exact curves.
                wire_precision: Some(WirePrecision::Exact),
                ..TrainConfig::quick_test()
            };
            let run = train(&ds, &part, &cfg);
            let bits: Vec<u8> = run
                .epochs
                .iter()
                .flat_map(|e| e.loss.to_bits().to_le_bytes())
                .collect();
            assert_eq!(fnv1a(&bits), want, "{arch:?} {}", sampling.label());
        }
    }

    /// The int8 wire pinned to recorded bits: FNV-1a over each epoch's
    /// loss bits followed by every rank's Boundary bytes. p = 1 runs
    /// the round-to-nearest feature pack and the stochastically rounded
    /// gradient pack on the full boundary; p = 0.3 runs both on a
    /// sampled one. Covers the codec kernels and the layer-0 backward
    /// end to end, whatever `BNS_SIMD` / `BNS_THREADS` / `BNS_WORKERS`.
    #[test]
    fn int8_curves_match_recorded_bits() {
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let ds = small_ds();
        let part = RandomPartitioner.partition(&ds.graph, 2, 4);
        let cases = [
            (ModelArch::Sage, 1.0, 0x87c0_57f9_8e0c_4910),
            (ModelArch::Sage, 0.3, 0x4732_1ae0_305b_4f6f),
            (ModelArch::Gcn, 0.3, 0xa72f_a2d2_906b_c19b),
        ];
        for (arch, p, want) in cases {
            let cfg = TrainConfig {
                arch,
                epochs: 6,
                hidden: vec![24],
                dropout: 0.3,
                sampling: BoundarySampling::Bns { p },
                eval_every: 3,
                seed: 7,
                wire_precision: Some(WirePrecision::Int8),
                ..TrainConfig::quick_test()
            };
            let run = train(&ds, &part, &cfg);
            let mut bytes = Vec::new();
            for e in &run.epochs {
                bytes.extend(e.loss.to_bits().to_le_bytes());
                for t in &e.traffic_per_rank {
                    bytes.extend(t.bytes(TrafficClass::Boundary).to_le_bytes());
                }
            }
            assert_eq!(fnv1a(&bytes), want, "{arch:?} int8 p = {p}");
        }
    }

    #[test]
    fn best_by_val_picks_peak_epoch() {
        let ds = small_ds();
        let part = RandomPartitioner.partition(&ds.graph, 2, 9);
        let cfg = TrainConfig {
            epochs: 30,
            eval_every: 5,
            hidden: vec![24],
            ..TrainConfig::quick_test()
        };
        let run = train(&ds, &part, &cfg);
        let (best_val, _) = run.best_by_val();
        assert!(best_val >= run.final_val - 1e-12);
    }

    #[test]
    fn single_partition_works() {
        let ds = small_ds();
        let part = RandomPartitioner.partition(&ds.graph, 1, 0);
        let cfg = TrainConfig {
            epochs: 5,
            ..TrainConfig::quick_test()
        };
        let run = train(&ds, &part, &cfg);
        assert_eq!(run.k, 1);
        assert_eq!(run.boundary_per_rank, vec![0]);
        assert!(run.final_test > 0.0);
    }

    #[test]
    fn eq3_traffic_identity_at_p1() {
        // At p = 1 the forward feature rows sent per layer equal the
        // total number of boundary nodes (paper Eq. 3).
        let ds = small_ds();
        let part = RandomPartitioner.partition(&ds.graph, 3, 4);
        let plan = PartitionPlan::build(&ds, &part);
        let total_bd = plan.total_boundary();
        let cfg = TrainConfig {
            epochs: 1,
            eval_every: 0,
            hidden: vec![8],
            dropout: 0.0,
            // Pinned: the byte identity below assumes 4 B/element even
            // under a BNS_QUANT CI leg (quantized byte counts have their
            // own test in tests/quant_determinism.rs).
            wire_precision: Some(WirePrecision::Exact),
            ..TrainConfig::quick_test()
        };
        let run = train(&ds, &part, &cfg);
        // Per-epoch training traffic (eval traffic is excluded from the
        // per-epoch stats):
        //   train fwd: L layers × Σ n_bd × d_l (layer input dims)
        //   train bwd: the same rows as gradients
        let d0 = ds.feat_dim();
        let d1 = 8usize;
        let per_pass_fwd = total_bd * d0 + total_bd * d1; // layer inputs
        let per_pass_bwd = per_pass_fwd;
        let expect_floats = per_pass_fwd + per_pass_bwd;
        let got: u64 = run.epochs[0]
            .traffic_per_rank
            .iter()
            .map(|t| t.bytes(TrafficClass::Boundary))
            .sum();
        assert_eq!(got, expect_floats as u64 * 4);
    }

    /// The paper's premise: vanilla partition parallelism (p = 1) is
    /// *exact* full-graph training. With dropout off and identical
    /// seeds, the distributed engine must reproduce the single-rank
    /// trainer's loss trajectory up to f32 reduction-order noise.
    #[test]
    fn p1_matches_fullgraph_training() {
        use crate::fullgraph::{train_full, FullGraphConfig};
        let ds = small_ds();
        let cfg = TrainConfig {
            epochs: 6,
            hidden: vec![16],
            dropout: 0.0,
            lr: 0.01,
            sampling: BoundarySampling::Bns { p: 1.0 },
            eval_every: 0,
            seed: 42,
            arch: ModelArch::Sage,
            clip_norm: None,
            pipeline: false,
            workers: None,
            // Pinned: this compares against the exact full-graph
            // trainer, which a quantized CI leg must not perturb.
            wire_precision: Some(WirePrecision::Exact),
        };
        let full = train_full(
            &ds,
            &FullGraphConfig {
                hidden: vec![16],
                dropout: 0.0,
                lr: 0.01,
                epochs: 6,
                seed: 42,
            },
        );
        for k in [2usize, 4] {
            let part = MetisLikePartitioner::default().partition(&ds.graph, k, 0);
            let run = train(&ds, &part, &cfg);
            for (e, (a, b)) in run
                .epochs
                .iter()
                .map(|s| s.loss)
                .zip(full.losses.iter())
                .enumerate()
            {
                assert!(
                    (a - b).abs() < 2e-3 * b.abs().max(1.0),
                    "k={k} epoch {e}: dist {a} vs full {b}"
                );
            }
        }
    }

    #[test]
    fn gcn_architecture_trains() {
        let ds = small_ds();
        let part = RandomPartitioner.partition(&ds.graph, 2, 6);
        let cfg = TrainConfig {
            arch: ModelArch::Gcn,
            epochs: 25,
            hidden: vec![24],
            lr: 0.01,
            sampling: BoundarySampling::Bns { p: 0.5 },
            ..TrainConfig::quick_test()
        };
        let run = train(&ds, &part, &cfg);
        assert!(run.epochs.last().unwrap().loss < run.epochs[0].loss);
        assert!(run.final_test > 0.4, "GCN test acc {}", run.final_test);
    }

    #[test]
    fn unscaled_bns_is_biased_but_trains() {
        let ds = small_ds();
        let part = RandomPartitioner.partition(&ds.graph, 3, 8);
        let cfg = TrainConfig {
            epochs: 25,
            hidden: vec![24],
            sampling: BoundarySampling::BnsUnscaled { p: 0.3 },
            ..TrainConfig::quick_test()
        };
        let run = train(&ds, &part, &cfg);
        assert!(run.final_test > 0.4, "unscaled acc {}", run.final_test);
        // Traffic matches the scaled variant's rate.
        let cfg2 = TrainConfig {
            sampling: BoundarySampling::Bns { p: 0.3 },
            ..cfg
        };
        let run2 = train(&ds, &part, &cfg2);
        let b1 = run.total_boundary_bytes() as f64;
        let b2 = run2.total_boundary_bytes() as f64;
        assert!((b1 / b2 - 1.0).abs() < 0.15, "traffic {b1} vs {b2}");
    }

    #[test]
    fn pipelined_training_converges() {
        let ds = small_ds();
        let part = MetisLikePartitioner::default().partition(&ds.graph, 3, 0);
        let sync_cfg = TrainConfig {
            epochs: 40,
            hidden: vec![24],
            ..TrainConfig::quick_test()
        };
        let pipe_cfg = TrainConfig {
            pipeline: true,
            ..sync_cfg.clone()
        };
        let sync = train(&ds, &part, &sync_cfg);
        let pipe = train(&ds, &part, &pipe_cfg);
        // Stale features/gradients cost some accuracy but must stay
        // close to synchronous training (the PipeGCN premise).
        assert!(
            pipe.final_test > sync.final_test - 0.06,
            "pipelined {} vs sync {}",
            pipe.final_test,
            sync.final_test
        );
        // First-epoch losses agree exactly (epoch 0 is synchronous).
        assert!((pipe.epochs[0].loss - sync.epochs[0].loss).abs() < 1e-9);
        // Later epochs diverge (staleness is real).
        assert!(
            (pipe.epochs[5].loss - sync.epochs[5].loss).abs() > 1e-9,
            "staleness had no effect"
        );
    }

    #[test]
    #[should_panic(expected = "static sampling")]
    fn pipeline_rejects_dynamic_sampling() {
        let ds = small_ds();
        let part = RandomPartitioner.partition(&ds.graph, 2, 0);
        let cfg = TrainConfig {
            pipeline: true,
            sampling: BoundarySampling::Bns { p: 0.5 },
            ..TrainConfig::quick_test()
        };
        let _ = train(&ds, &part, &cfg);
    }

    #[test]
    fn pipelined_simulated_time_overlaps_comm() {
        let ds = small_ds();
        let part = MetisLikePartitioner::default().partition(&ds.graph, 4, 0);
        let cfg = TrainConfig {
            epochs: 3,
            pipeline: true,
            ..TrainConfig::quick_test()
        };
        let run = train(&ds, &part, &cfg);
        let cost = bns_comm::CostModel::pcie3();
        let sim = run.avg_sim_epoch_scaled(&cost, 1.0);
        assert!(sim.pipelined_total() <= sim.total() + 1e-12);
        assert!(sim.pipelined_total() >= sim.comp.max(sim.comm));
    }

    #[test]
    fn gat_architecture_trains() {
        let ds = small_ds();
        let part = RandomPartitioner.partition(&ds.graph, 2, 5);
        let cfg = TrainConfig {
            arch: ModelArch::Gat,
            epochs: 10,
            hidden: vec![16],
            lr: 0.01,
            sampling: BoundarySampling::Bns { p: 0.5 },
            ..TrainConfig::quick_test()
        };
        let run = train(&ds, &part, &cfg);
        assert!(run.epochs.last().unwrap().loss < run.epochs[0].loss);
        assert!(run.final_test > 0.2, "GAT test acc {}", run.final_test);
    }

    #[test]
    fn memory_model_shrinks_with_p() {
        let ds = small_ds();
        let part = RandomPartitioner.partition(&ds.graph, 3, 6);
        let mem_at = |p: f64| {
            let cfg = TrainConfig {
                epochs: 2,
                sampling: BoundarySampling::Bns { p },
                ..TrainConfig::quick_test()
            };
            let run = train(&ds, &part, &cfg);
            *run.peak_mem_per_rank.iter().max().unwrap()
        };
        let m1 = mem_at(1.0);
        let m01 = mem_at(0.1);
        assert!(m01 < m1, "mem p=0.1 {m01} vs p=1 {m1}");
    }

    #[test]
    fn multilabel_dataset_trains_with_f1() {
        let ds = Arc::new(SyntheticSpec::yelp_sim().with_nodes(500).generate(4));
        let part = RandomPartitioner.partition(&ds.graph, 2, 7);
        // Multi-label BCE needs more steps before logits cross zero and
        // micro-F1 lifts off (all-negative predictions score 0). At 40
        // epochs the score straddles 0.25 across seeds (0.20-0.32); 60
        // clear it with margin.
        let cfg = TrainConfig {
            epochs: 60,
            hidden: vec![24],
            lr: 0.03,
            sampling: BoundarySampling::Bns { p: 0.5 },
            ..TrainConfig::quick_test()
        };
        let run = train(&ds, &part, &cfg);
        assert!(run.final_test > 0.25, "micro-F1 {}", run.final_test);
    }
}
