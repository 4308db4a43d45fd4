//! The serving workload: a 2-layer SAGE model trained in set-up,
//! round-tripped through `model_io` and deployed on two shards with a
//! quarter-size boundary cache; queries are degree-proportional.

use crate::inputs::{self, Inputs, SetupTimes};
use crate::train::{
    bench_span, check_calls, quality, save_trace, setup_layers, traced, training_layers,
    training_seed, Call, QUALITY_SEEDS,
};
use crate::{median, probes, quantile, Args, Report};
use bns_comm::WirePrecision;
use bns_data::SyntheticSpec;
use bns_gcn::engine::{train_with_plan, ModelArch, TrainConfig, TrainedModel};
use bns_gcn::sampling::BoundarySampling;
use bns_serve::{
    Arrivals, BatchPolicy, CacheConfig, CacheStats, LatencyRecorder, NodeMix, ServeConfig,
    ServeEngine, ServePlan, ShardServer,
};
use bns_tensor::SeededRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

const NODES: usize = 6_000;
const K: usize = 2;
/// Queries per batch, in the closed loop and as the batcher's cap.
const BATCH: usize = 32;
/// Full batches per shard in the closed loop's repeating query stream.
const STREAM_BATCHES: usize = 64;
/// Closed-loop batches per shard whose logits are checked.
const CHECKED_BATCHES: usize = 4;
/// Fewest closed-loop passes and open-loop sessions per measured phase.
const MIN_ROUNDS: usize = 3;
/// Open-loop offered rate, queries per second. Fixed, never calibrated
/// per run: a measured rate would make every latency move with it.
/// About half the two-shard capacity on the 2-core host the benchmark
/// was written on, where the batcher forms batches of 10–16 queries.
const RATE_QPS: f64 = 1300.0;
/// Length of one open-loop session (engine start to shutdown); the
/// latency metric is the median over sessions of each session's p50.
const SESSION_S: f64 = 2.0;
const LINGER: Duration = Duration::from_micros(200);

fn cache() -> CacheConfig {
    CacheConfig {
        capacity_ratio: 0.25,
        pin_fraction: 0.5,
    }
}

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        arch: ModelArch::Sage,
        hidden: vec![64],
        dropout: 0.3,
        lr: 0.01,
        epochs: 10,
        sampling: BoundarySampling::Bns { p: 0.1 },
        eval_every: 0,
        seed,
        clip_norm: Some(5.0),
        pipeline: false,
        workers: None,
        wire_precision: Some(WirePrecision::Exact),
    }
}

/// Wall time of each serving set-up step, seconds.
#[derive(Debug, Clone, Copy)]
struct DeployTimes {
    inputs: SetupTimes,
    train_s: f64,
    encode_s: f64,
    decode_s: f64,
    plan_build_s: f64,
    shards_s: f64,
}

impl DeployTimes {
    fn total(&self) -> f64 {
        self.inputs.total()
            + self.train_s
            + self.encode_s
            + self.decode_s
            + self.plan_build_s
            + self.shards_s
    }
}

/// A trained, deployed model.
struct Deployment {
    inputs: Inputs,
    cfg: TrainConfig,
    training: Call,
    plan: ServePlan,
    shards: Vec<ShardServer>,
}

/// Generates, partitions and plans; trains the model; round-trips it
/// through `model_io`; builds the serving plan and the shards.
fn deploy(seed: u64, report: &mut Report) -> (Deployment, DeployTimes) {
    let spec = SyntheticSpec::reddit_sim().with_nodes(NODES);
    let (inputs, inputs_t) = inputs::build(&spec, K);
    let cfg = train_config(seed);
    let t = Instant::now();
    let run = bench_span("bench.train_with_plan", || {
        black_box(train_with_plan(&inputs.plan, &cfg))
    });
    let train_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let bytes = bench_span("bench.to_bytes", || black_box(run.model.to_bytes()));
    let encode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let decoded = bench_span("bench.from_bytes", || {
        black_box(TrainedModel::from_bytes(&bytes))
    });
    let decode_s = t.elapsed().as_secs_f64();
    let model = match decoded {
        Ok(m) => {
            report.attempt(m.to_bytes() == bytes, || {
                "model changed in a model_io round trip".into()
            });
            m
        }
        Err(e) => {
            report.attempt(false, || {
                format!("model_io could not decode its own bytes: {e}")
            });
            run.model.clone()
        }
    };
    let t = Instant::now();
    let plan = bench_span("bench.serve_plan_build", || {
        black_box(ServePlan::build(&inputs.ds, &inputs.part, model))
    });
    let plan_build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let shards = bench_span("bench.shard", || {
        (0..K).map(|r| plan.shard(r, cache())).collect::<Vec<_>>()
    });
    let shards_s = t.elapsed().as_secs_f64();
    let times = DeployTimes {
        inputs: inputs_t,
        train_s,
        encode_s,
        decode_s,
        plan_build_s,
        shards_s,
    };
    let training = Call {
        seed,
        wall_s: train_s,
        run,
    };
    (
        Deployment {
            inputs,
            cfg,
            training,
            plan,
            shards,
        },
        times,
    )
}

/// The closed loop's query stream: `STREAM_BATCHES` full batches of
/// degree-proportional queries for each shard, indexed by shard.
fn closed_loop_batches(dep: &Deployment, seed: u64) -> Vec<Vec<Vec<u32>>> {
    let mut rng = SeededRng::new(seed ^ 0xc105_ed10);
    let want = STREAM_BATCHES * BATCH;
    let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); K];
    while per_shard.iter().any(|q| q.len() < want) {
        for v in NodeMix::DegreeProportional.sample(&dep.inputs.ds.graph, want, &mut rng) {
            let q = &mut per_shard[dep.plan.owner_of(v)];
            if q.len() < want {
                q.push(v);
            }
        }
    }
    per_shard
        .into_iter()
        .map(|q| q.chunks(BATCH).map(<[u32]>::to_vec).collect())
        .collect()
}

/// Closed-loop measurements.
#[derive(Default)]
struct ClosedLoop {
    /// Per shard: queries per second of each pass over its stream.
    pass_qps: Vec<Vec<f64>>,
    /// Wall time of each `serve_batch` call, ms.
    batch_ms: Vec<f64>,
    queries: usize,
    cache: CacheStats,
}

impl ClosedLoop {
    /// Deployment capacity: the sum over shards of each shard's median
    /// pass rate.
    fn capacity(&self) -> f64 {
        self.pass_qps.iter().map(|p| median(p)).sum()
    }

    fn passes(&self) -> usize {
        self.pass_qps.iter().map(Vec::len).min().unwrap_or(0)
    }
}

fn merged_cache(shards: &[ShardServer]) -> CacheStats {
    let mut total = CacheStats::default();
    for s in shards {
        total.merge(&s.cache_stats());
    }
    total
}

/// One closed-loop thread per shard (two, the core count), each calling
/// `serve_batch` on its shard's batches in turn for `passes` passes.
/// Every pass does the same work, so pass rates differ only by how fast
/// the host ran. Results accumulate into `acc`.
fn closed_loop(
    dep: &mut Deployment,
    batches: &[Vec<Vec<u32>>],
    passes: usize,
    acc: &mut ClosedLoop,
) {
    let before = merged_cache(&dep.shards);
    let per_shard: Vec<(Vec<f64>, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = dep
            .shards
            .iter_mut()
            .zip(batches)
            .map(|(shard, mine)| {
                scope.spawn(move || {
                    let mut pass_qps = Vec::with_capacity(passes);
                    let mut batch_ms = Vec::with_capacity(passes * mine.len());
                    for _ in 0..passes {
                        let pass_start = Instant::now();
                        for batch in mine {
                            let t = Instant::now();
                            black_box(shard.serve_batch(black_box(batch)));
                            batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        }
                        let queries = mine.len() * BATCH;
                        pass_qps.push(queries as f64 / pass_start.elapsed().as_secs_f64());
                    }
                    (pass_qps, batch_ms)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let after = merged_cache(&dep.shards);
    acc.pass_qps.resize(per_shard.len(), Vec::new());
    for (rank, (qps, ms)) in per_shard.into_iter().enumerate() {
        acc.queries += qps.len() * STREAM_BATCHES * BATCH;
        acc.pass_qps[rank].extend(qps);
        acc.batch_ms.extend(ms);
    }
    acc.cache.hits += after.hits - before.hits;
    acc.cache.misses += after.misses - before.misses;
    acc.cache.bytes_fetched += after.bytes_fetched - before.bytes_fetched;
    acc.cache.bytes_prefetched += after.bytes_prefetched - before.bytes_prefetched;
    acc.cache.evictions += after.evictions - before.evictions;
}

/// Warm-up pass over the whole stream; the logits of the first
/// `CHECKED_BATCHES` batches of every shard must equal
/// `TrainedModel::predict_logits` bitwise.
fn warm_up_and_check(dep: &mut Deployment, batches: &[Vec<Vec<u32>>], report: &mut Report) {
    let checked: Vec<usize> = batches
        .iter()
        .flat_map(|b| b.iter().take(CHECKED_BATCHES).flatten())
        .map(|&v| v as usize)
        .collect();
    let want = dep.plan.model.predict_logits(&dep.inputs.ds, &checked);
    let mut row = 0;
    for (shard, mine) in dep.shards.iter_mut().zip(batches) {
        for (i, batch) in mine.iter().enumerate() {
            let got = shard.serve_batch(batch);
            if i >= CHECKED_BATCHES {
                continue;
            }
            for (j, &v) in batch.iter().enumerate() {
                let same = got
                    .row(j)
                    .iter()
                    .zip(want.row(row))
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                report.attempt(same, || {
                    format!("served logits of node {v} differ from predict_logits")
                });
                row += 1;
            }
        }
    }
}

/// Open-loop measurements over several sessions.
#[derive(Default)]
struct OpenLoop {
    session_p50_ms: Vec<f64>,
    latency: LatencyRecorder,
    late_ms: Vec<f64>,
    queries: u64,
    batches: u64,
}

/// `sessions` sessions of Poisson arrivals at `RATE_QPS` through
/// `ServeEngine`, `SESSION_S` each. Each query is timestamped with its
/// scheduled arrival, so a late generator or a full queue shows up as
/// latency. Results accumulate into `acc`.
fn open_loop(
    dep: &Deployment,
    rng: &mut SeededRng,
    sessions: usize,
    report: &mut Report,
    acc: &mut OpenLoop,
) {
    let cfg = ServeConfig {
        policy: BatchPolicy {
            max_batch: BATCH,
            linger: LINGER,
        },
        queue_capacity: 4096,
        cache: cache(),
        threads_per_shard: 1,
    };
    for _ in 0..sessions {
        let offsets = Arrivals::Poisson { rate: RATE_QPS }.schedule(SESSION_S, rng);
        let nodes = NodeMix::DegreeProportional.sample(&dep.inputs.ds.graph, offsets.len(), rng);
        let engine = ServeEngine::start(&dep.plan, &cfg);
        let start = Instant::now();
        let mut refused = 0;
        for (&off, &node) in offsets.iter().zip(&nodes) {
            let due = start + Duration::from_secs_f64(off);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            acc.late_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            if !engine.submit(node, due) {
                refused += 1;
            }
        }
        let served = engine.shutdown();
        let missing = offsets.len() - served.latency.count().min(offsets.len());
        report.attempts(offsets.len() as u64, (missing + refused) as u64, || {
            format!(
                "{refused} refused and {missing} unanswered of {} open-loop queries",
                offsets.len()
            )
        });
        acc.session_p50_ms
            .push(served.latency.quantile_us(0.5) / 1e3);
        acc.latency.merge(&served.latency);
        acc.queries += served.per_shard.iter().map(|s| s.queries).sum::<u64>();
        acc.batches += served.per_shard.iter().map(|s| s.batches).sum::<u64>();
    }
}

pub fn run(args: &Args, report: &mut Report) {
    // Set-up once per training seed: the median is `setup_s`, the
    // trainings give the quality metrics, the last deployment serves.
    let mut all_times = Vec::with_capacity(QUALITY_SEEDS);
    let mut trainings = Vec::with_capacity(QUALITY_SEEDS);
    let mut deployed: Option<Deployment> = None;
    for i in 0..QUALITY_SEEDS {
        let (dep, times) = deploy(training_seed(args.seed, i), report);
        if let Some(prev) = &deployed {
            report.attempt(
                prev.inputs.part.assignments() == dep.inputs.part.assignments(),
                || "set-up built different inputs".into(),
            );
        }
        all_times.push(times);
        if let Some(prev) = deployed.replace(dep) {
            trainings.push(prev.training);
        }
    }
    let mut dep = deployed.expect("at least one deployment");
    eprintln!(
        "{}: {} nodes, k = {K}, set-up {:.3} s (training {:.3} s)",
        args.workload,
        dep.inputs.ds.num_nodes(),
        all_times.last().map_or(0.0, DeployTimes::total),
        all_times.last().map_or(0.0, |t| t.train_s),
    );
    let batches = closed_loop_batches(&dep, args.seed);
    warm_up_and_check(&mut dep, &batches, report);

    let mut open_rng = SeededRng::new(args.seed ^ 0x09e1_1009);
    if !args.trace {
        trainings.push(dep.training.clone());
        check_calls(report, &dep.inputs.plan, &dep.cfg, &trainings);
        // Closed-loop passes and open-loop sessions alternate, so both
        // metrics sample the host over the whole run.
        let mut closed = ClosedLoop::default();
        let mut open = OpenLoop::default();
        let start = Instant::now();
        while open.session_p50_ms.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds
        {
            closed_loop(&mut dep, &batches, 1, &mut closed);
            open_loop(&dep, &mut open_rng, 1, report, &mut open);
        }
        let totals: Vec<f64> = all_times.iter().map(DeployTimes::total).collect();
        report.set("throughput_per_s", closed.capacity(), closed.passes());
        report.set(
            "latency_p50_ms",
            median(&open.session_p50_ms),
            open.session_p50_ms.len(),
        );
        report.set("setup_s", median(&totals), totals.len());
        report.set("peak_rss_mb", crate::peak_rss_mb(), 1);
        quality(report, &trainings);
        eprintln!(
            "{}: closed loop {:.1} q/s, per shard and pass {:.0?}; open loop at {RATE_QPS} q/s: p50 {:.2} ms, per session {:.2?}, avg batch {:.1}",
            args.workload,
            closed.capacity(),
            closed.pass_qps,
            median(&open.session_p50_ms),
            open.session_p50_ms,
            open.queries as f64 / open.batches.max(1) as f64,
        );
        return;
    }

    // Traced run. The model's training happens in set-up, so the
    // training layers are read from one more, traced, set-up training.
    let n = all_times.len();
    let med = |f: fn(&DeployTimes) -> f64| median(&all_times.iter().map(f).collect::<Vec<_>>());
    let inputs_times: Vec<SetupTimes> = all_times.iter().map(|t| t.inputs).collect();
    setup_layers(report, &inputs_times);
    report.set("model_io.encode_ms", med(|t| t.encode_s) * 1e3, n);
    report.set("model_io.decode_ms", med(|t| t.decode_s) * 1e3, n);
    report.set("serve.plan_build_s", med(|t| t.plan_build_s), n);
    let (run, spans, snapshot) = traced(|| {
        bench_span("bench.train_with_plan", || {
            train_with_plan(&dep.inputs.plan, &dep.cfg)
        })
    });
    let retrained = Call {
        seed: dep.training.seed,
        wall_s: f64::NAN,
        run,
    };
    let traced_epochs = retrained.run.epochs.len();
    check_calls(
        report,
        &dep.inputs.plan,
        &dep.cfg,
        &[dep.training.clone(), retrained],
    );
    training_layers(
        report,
        &dep.inputs.plan,
        &[&dep.training.run],
        &spans,
        &snapshot,
        traced_epochs,
    );

    trainings.push(dep.training.clone());
    quality(report, &trainings);
    let mut untraced = ClosedLoop::default();
    closed_loop(&mut dep, &batches, MIN_ROUNDS, &mut untraced);
    let mut traced_loop = ClosedLoop::default();
    let ((), serve_spans, _) =
        traced(|| closed_loop(&mut dep, &batches, MIN_ROUNDS, &mut traced_loop));
    let mut all_spans = spans;
    all_spans.extend(serve_spans);
    save_trace(args, &all_spans);
    report.set(
        "telemetry.overhead_frac",
        1.0 - traced_loop.capacity() / untraced.capacity(),
        traced_loop.passes(),
    );
    let b = &untraced.batch_ms;
    report.set("serve.batch_ms_p50", median(b), b.len());
    report.set("serve.batch_ms_p99", quantile(b, 0.99), b.len());
    report.set(
        "serve.cache_hit_rate",
        untraced.cache.hit_rate(),
        untraced.queries,
    );
    report.set(
        "serve.cache_fetched_mb",
        untraced.cache.bytes_fetched as f64 / 1e6 / untraced.queries as f64 * 1e3,
        untraced.queries,
    );

    let mut open = OpenLoop::default();
    let sessions = ((args.seconds * 0.5 / SESSION_S).round() as usize).max(MIN_ROUNDS);
    open_loop(&dep, &mut open_rng, sessions, report, &mut open);
    report.set(
        "serve.avg_batch",
        open.queries as f64 / open.batches.max(1) as f64,
        open.batches as usize,
    );
    report.set(
        "serve.p99_ms",
        open.latency.quantile_us(0.99) / 1e3,
        open.latency.count(),
    );
    report.set(
        "serve.gen_late_ms",
        quantile(&open.late_ms, 0.99),
        open.late_ms.len(),
    );
    probes::run(report, &dep.inputs, &dep.cfg.hidden, K);
}
