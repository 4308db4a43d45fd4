//! The training workloads: repeated `train_with_plan` calls on one
//! partition plan, timed from outside.

use crate::catalog::{self, EPOCH_COUNTERS, PRODUCTS, REDDIT};
use crate::inputs::{self, Inputs, SetupTimes};
use crate::trace::{self, Span};
use crate::{median, probes, quantile, Args, Report};
use bns_comm::{TrafficClass, WirePrecision};
use bns_data::SyntheticSpec;
use bns_gcn::engine::{train_with_plan, TrainConfig, TrainRun};
use bns_gcn::plan::PartitionPlan;
use bns_gcn::sampling::BoundarySampling;
use bns_telemetry::{MetricsSnapshot, SpanEvent};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Training seeds per run, derived from `--seed`. Timed calls cycle
/// through them; the quality metrics are their mean, which halves the
/// seed-to-seed spread of a loss or score after a few epochs.
pub const QUALITY_SEEDS: usize = 4;
/// Span thread id of the benchmark's own spans. Rank tasks label the
/// thread that steps them with their rank, so engine spans carry tids
/// below `k`.
const BENCH_TID: usize = 999;

/// A training workload: what is generated and how it is trained.
pub struct TrainWorkload {
    pub spec: SyntheticSpec,
    pub k: usize,
    /// Configuration of one timed `train_with_plan` call; its seed is
    /// replaced by one of the run's training seeds.
    pub cfg: TrainConfig,
}

/// The named training workload.
///
/// # Panics
///
/// Panics on a name that is not a training workload.
pub fn workload(name: &str) -> TrainWorkload {
    match name {
        // 8 rank tasks on 2 workers, a fresh 10% boundary selection
        // every epoch, exact wire: sampling, the selection round trip,
        // boundary exchange, the scheduler and the 8-way all-reduce
        // carry the epoch.
        REDDIT => TrainWorkload {
            spec: SyntheticSpec::reddit_sim().with_nodes(6_000),
            k: 8,
            cfg: TrainConfig {
                epochs: 5,
                eval_every: 5,
                sampling: BoundarySampling::Bns { p: 0.1 },
                wire_precision: Some(WirePrecision::Exact),
                ..TrainConfig::reddit()
            },
        },
        // One rank per core, static selection (p = 1), int8 wire: the
        // matmul/aggregate kernels and the codec carry the epoch.
        PRODUCTS => TrainWorkload {
            spec: SyntheticSpec::products_sim().with_nodes(8_000),
            k: 2,
            cfg: TrainConfig {
                epochs: 10,
                eval_every: 5,
                sampling: BoundarySampling::Bns { p: 1.0 },
                wire_precision: Some(WirePrecision::Int8),
                ..TrainConfig::products()
            },
        },
        other => panic!("{other} is not a training workload"),
    }
}

/// The `i`-th training seed of a run.
pub fn training_seed(run_seed: u64, i: usize) -> u64 {
    run_seed
        .wrapping_mul(QUALITY_SEEDS as u64)
        .wrapping_add((i % QUALITY_SEEDS) as u64)
}

/// One timed `train_with_plan` call.
#[derive(Clone)]
pub struct Call {
    pub seed: u64,
    pub wall_s: f64,
    pub run: TrainRun,
}

impl Call {
    pub fn epochs_per_s(&self) -> f64 {
        self.run.epochs.len() as f64 / self.wall_s
    }
}

/// Runs a set-up step inside one of the benchmark's own spans, so a
/// traced run shows each call into the program.
pub fn bench_span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    bns_telemetry::set_thread_rank(BENCH_TID);
    let span = bns_telemetry::SpanGuard::enter(name, &[]);
    let out = f();
    // Rank tasks stepped on this thread relabelled it; the span records
    // its thread when it drops.
    bns_telemetry::set_thread_rank(BENCH_TID);
    drop(span);
    out
}

/// Times `train_with_plan` calls, cycling through the run's training
/// seeds, until `seconds` have passed and at least `min_calls` were made.
pub fn timed_calls(
    plan: &Arc<PartitionPlan>,
    cfg: &TrainConfig,
    run_seed: u64,
    seconds: f64,
    min_calls: usize,
) -> Vec<Call> {
    let start = Instant::now();
    let mut calls = Vec::new();
    while calls.len() < min_calls || start.elapsed().as_secs_f64() < seconds {
        let cfg = TrainConfig {
            seed: training_seed(run_seed, calls.len()),
            ..cfg.clone()
        };
        let t = Instant::now();
        let run = bench_span("bench.train_with_plan", || {
            black_box(train_with_plan(plan, black_box(&cfg)))
        });
        calls.push(Call {
            seed: cfg.seed,
            wall_s: t.elapsed().as_secs_f64(),
            run,
        });
    }
    calls
}

/// Set-up repeated `reps` times; returns the last inputs and every
/// repetition's times. Each repetition must rebuild the same
/// partitioning.
pub fn repeated_setup(
    spec: &SyntheticSpec,
    k: usize,
    reps: usize,
    report: &mut Report,
) -> (Inputs, Vec<SetupTimes>) {
    let mut times = Vec::with_capacity(reps);
    let mut last: Option<Inputs> = None;
    for _ in 0..reps {
        let (inp, t) = inputs::build(spec, k);
        if let Some(prev) = &last {
            report.attempt(
                prev.part.assignments() == inp.part.assignments()
                    && prev.plan.total_boundary() == inp.plan.total_boundary(),
                || "set-up built different inputs".into(),
            );
        }
        times.push(t);
        last = Some(inp);
    }
    (last.expect("at least one set-up"), times)
}

/// Boundary bytes Eq. 3 predicts for one epoch's training: every
/// selected boundary row crosses the wire once per layer forward
/// (features) and once per layer backward (gradients), at the wire
/// precision. The engine counts an evaluated epoch's full-boundary
/// forward pass apart from training traffic.
pub fn eq3_boundary_bytes(plan: &PartitionPlan, cfg: &TrainConfig, selected: usize) -> u64 {
    let precision = cfg.wire_precision.unwrap_or_else(WirePrecision::from_env);
    std::iter::once(plan.feat_dim)
        .chain(cfg.hidden.iter().copied())
        .map(|d| 2 * (selected * precision.row_bytes(d)) as u64)
        .sum()
}

fn loss_bits(run: &TrainRun) -> Vec<u64> {
    run.epochs.iter().map(|e| e.loss.to_bits()).collect()
}

fn wire_bytes(run: &TrainRun) -> u64 {
    run.epochs
        .iter()
        .flat_map(|e| &e.traffic_per_rank)
        .map(|t| t.total_bytes())
        .sum()
}

/// Checks every call, each against the first call with its seed.
pub fn check_calls(report: &mut Report, plan: &PartitionPlan, cfg: &TrainConfig, calls: &[Call]) {
    for c in calls {
        let reference = calls.iter().find(|r| r.seed == c.seed).expect("c itself");
        check_call(report, plan, cfg, &reference.run, &c.run);
    }
}

/// The output checks of one call: a finite final loss, a loss curve
/// and traffic bitwise equal to the reference call's, and counted
/// boundary bytes equal to the Eq. 3 volume of each epoch's selection.
fn check_call(
    report: &mut Report,
    plan: &PartitionPlan,
    cfg: &TrainConfig,
    reference: &TrainRun,
    run: &TrainRun,
) {
    let mut problems = Vec::new();
    let last = run.epochs.last().map_or(f64::NAN, |e| e.loss);
    if !last.is_finite() {
        problems.push(format!("final loss {last} is not finite"));
    }
    if loss_bits(run) != loss_bits(reference) {
        problems.push("loss curve differs from the first call's".into());
    }
    if wire_bytes(run) != wire_bytes(reference) {
        problems.push("traffic differs from the first call's".into());
    }
    for (e, stats) in run.epochs.iter().enumerate() {
        let counted: u64 = stats
            .traffic_per_rank
            .iter()
            .map(|t| t.bytes(TrafficClass::Boundary))
            .sum();
        let selected = if cfg.sampling.selects_all() {
            if stats.selected_boundary != plan.total_boundary() {
                problems.push(format!(
                    "epoch {e}: {} rows selected at p = 1, plan has {}",
                    stats.selected_boundary,
                    plan.total_boundary()
                ));
            }
            plan.total_boundary()
        } else {
            stats.selected_boundary
        };
        let want = eq3_boundary_bytes(plan, cfg, selected);
        if counted != want {
            problems.push(format!(
                "epoch {e}: {counted} boundary bytes counted, Eq. 3 gives {want}"
            ));
        }
    }
    report.attempt(problems.is_empty(), || problems.join("; "));
}

/// Captures telemetry around `f`: spans and metrics recorded while it
/// ran, and nothing from before.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<SpanEvent>, MetricsSnapshot) {
    bns_telemetry::reset();
    bns_telemetry::enable();
    let out = f();
    bns_telemetry::disable();
    let spans = bns_telemetry::drain_spans();
    let snapshot = bns_telemetry::metrics_snapshot();
    bns_telemetry::reset();
    (out, spans, snapshot)
}

/// Writes the traced run's spans as a Chrome trace under the build
/// directory, for a reader who wants the timeline behind the numbers.
pub fn save_trace(args: &Args, spans: &[SpanEvent]) {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = std::path::Path::new(&dir).join("perfbench");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, bns_telemetry::export::chrome_trace(spans)));
    match written {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
    }
}

/// Set-up metrics shared by every workload: median time of each step.
pub fn setup_layers(report: &mut Report, times: &[SetupTimes]) {
    let n = times.len();
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    report.set("data.generate_s", med(|t| t.generate_s), n);
    report.set("partition.partition_s", med(|t| t.partition_s), n);
    report.set("plan.build_s", med(|t| t.plan_s), n);
}

/// Training-layer metrics: the engine's own per-epoch numbers from
/// `runs`, and the traced run's span self times and counters, per
/// traced epoch.
pub fn training_layers(
    report: &mut Report,
    plan: &PartitionPlan,
    runs: &[&TrainRun],
    spans: &[SpanEvent],
    snapshot: &MetricsSnapshot,
    traced_epochs: usize,
) {
    let epochs: Vec<_> = runs.iter().flat_map(|r| &r.epochs).collect();
    let n = epochs.len();
    let mean = |f: &dyn Fn(&bns_gcn::engine::EpochStats) -> f64| {
        epochs.iter().map(|e| f(e)).sum::<f64>() / n as f64
    };
    let class_mb = |c: TrafficClass| {
        mean(&|e| e.traffic_per_rank.iter().map(|t| t.bytes(c)).sum::<u64>() as f64) / 1e6
    };
    report.set("partition.boundary_nodes", plan.total_boundary() as f64, 1);
    report.set("engine.train_s", mean(&|e| e.total_s()), n);
    report.set("engine.sample_s", mean(&|e| e.sample_s), n);
    report.set("engine.compute_s", mean(&|e| e.compute_s), n);
    report.set("engine.comm_s", mean(&|e| e.comm_s), n);
    report.set("engine.reduce_s", mean(&|e| e.reduce_s), n);
    let peak = runs
        .iter()
        .flat_map(|r| &r.peak_mem_per_rank)
        .copied()
        .max()
        .unwrap_or(0);
    report.set("engine.peak_act_mb", peak as f64 / 1e6, runs.len());
    report.set(
        "sampling.selected_per_epoch",
        mean(&|e| e.selected_boundary as f64),
        n,
    );
    report.set(
        "comm.boundary_mb_per_epoch",
        class_mb(TrafficClass::Boundary),
        n,
    );
    report.set(
        "comm.allreduce_mb_per_epoch",
        class_mb(TrafficClass::AllReduce),
        n,
    );
    report.set(
        "comm.control_mb_per_epoch",
        class_mb(TrafficClass::Control),
        n,
    );
    report.set(
        "comm.msgs_per_epoch",
        mean(&|e| {
            e.traffic_per_rank
                .iter()
                .map(|t| t.total_messages())
                .sum::<u64>() as f64
        }),
        n,
    );

    // Engine spans carry their rank as thread id; everything else (the
    // benchmark's own spans, unattributed threads) is left out.
    let rank_spans: Vec<Span> = spans
        .iter()
        .filter(|s| (s.tid as usize) < plan.k)
        .map(Span::from)
        .collect();
    let by_key = trace::self_time_by_key(&rank_spans);
    let per_epoch_ms = 1e3 / traced_epochs.max(1) as f64;
    for (span, layer) in catalog::span_keys() {
        let (max, sum) = by_key
            .get(&(span.to_string(), layer))
            .copied()
            .unwrap_or((0.0, 0.0));
        let stem = catalog::span_stem(span, layer);
        report.set(
            &format!("{stem}.self_ms_max"),
            max * per_epoch_ms,
            traced_epochs,
        );
        report.set(
            &format!("{stem}.self_ms_sum"),
            sum * per_epoch_ms,
            traced_epochs,
        );
    }
    let epoch_ms: Vec<f64> = rank_spans
        .iter()
        .filter(|s| s.name == "epoch")
        .map(|s| s.dur * 1e3)
        .collect();
    report.set("trace.epoch_ms_p50", median(&epoch_ms), epoch_ms.len());
    report.set(
        "trace.epoch_ms_p90",
        quantile(&epoch_ms, 0.9),
        epoch_ms.len(),
    );
    for (counter, _, _) in EPOCH_COUNTERS {
        let total = snapshot.counter(counter).unwrap_or(0);
        report.set(
            &format!("{counter}_per_epoch"),
            total as f64 / traced_epochs.max(1) as f64,
            traced_epochs,
        );
    }
}

/// The quality metrics and the traffic per epoch: means over the run's
/// training seeds, each taken from its first call.
pub fn quality(report: &mut Report, calls: &[Call]) {
    let mut firsts: Vec<&TrainRun> = Vec::new();
    for (i, c) in calls.iter().enumerate() {
        if calls[..i].iter().all(|r| r.seed != c.seed) {
            firsts.push(&c.run);
        }
    }
    let n = firsts.len();
    let mean = |f: &dyn Fn(&TrainRun) -> f64| firsts.iter().map(|r| f(r)).sum::<f64>() / n as f64;
    report.set(
        "wire_mb_per_epoch",
        mean(&|r| wire_bytes(r) as f64 / r.epochs.len() as f64 / 1e6),
        n,
    );
    report.set(
        "final_loss",
        mean(&|r| r.epochs.last().map_or(f64::NAN, |e| e.loss)),
        n,
    );
    report.set("quality.test_score", mean(&|r| r.final_test), n);
}

/// Serving-layer metrics, which a training workload does not exercise.
fn serving_not_exercised(report: &mut Report) {
    for m in catalog::per_layer() {
        if m.on == [catalog::SERVE] {
            report.set(&m.name, 0.0, 0);
        }
    }
}

pub fn run(w: &TrainWorkload, args: &Args, report: &mut Report) {
    let (inputs, setup) = repeated_setup(&w.spec, w.k, SETUP_REPS, report);
    let plan = &inputs.plan;
    let cfg = &w.cfg;
    eprintln!(
        "{}: {} nodes, k = {}, {} boundary nodes; set-up {:.3} s",
        args.workload,
        inputs.ds.num_nodes(),
        plan.k,
        plan.total_boundary(),
        setup.last().map_or(0.0, SetupTimes::total)
    );
    // Warm-up: first-touch allocation and thread start-up stay out of
    // the timed calls.
    black_box(train_with_plan(
        plan,
        &TrainConfig {
            epochs: 1,
            ..cfg.clone()
        },
    ));

    if !args.trace {
        // Every training seed runs at least twice, so each call has a
        // reference to repeat bitwise.
        let calls = timed_calls(plan, cfg, args.seed, args.seconds, 2 * QUALITY_SEEDS);
        check_calls(report, plan, cfg, &calls);
        let n = calls.len();
        let rates: Vec<f64> = calls.iter().map(Call::epochs_per_s).collect();
        let epoch_ms: Vec<f64> = rates.iter().map(|r| 1e3 / r).collect();
        report.set("throughput_per_s", median(&rates), n);
        report.set("latency_p50_ms", median(&epoch_ms), n);
        let totals: Vec<f64> = setup.iter().map(SetupTimes::total).collect();
        report.set("setup_s", median(&totals), totals.len());
        report.set("peak_rss_mb", crate::peak_rss_mb(), 1);
        quality(report, &calls);
        eprintln!(
            "{}: {n} calls, {:.3} epochs/s, per call {:.3?}",
            args.workload,
            median(&rates),
            rates,
        );
        return;
    }

    // Traced run: half the time untraced (the overhead baseline and the
    // engine's own numbers), half with capture on, each phase covering
    // every training seed once, so traced calls repeat untraced ones.
    let phase_s = args.seconds / 2.0;
    let untraced = timed_calls(plan, cfg, args.seed, phase_s, QUALITY_SEEDS);
    let (traced_calls, spans, snapshot) =
        traced(|| timed_calls(plan, cfg, args.seed, phase_s, QUALITY_SEEDS));
    let all: Vec<Call> = untraced.iter().chain(&traced_calls).cloned().collect();
    check_calls(report, plan, cfg, &all);
    save_trace(args, &spans);
    setup_layers(report, &setup);
    quality(report, &untraced);
    let runs: Vec<&TrainRun> = untraced.iter().map(|c| &c.run).collect();
    let traced_epochs = traced_calls.iter().map(|c| c.run.epochs.len()).sum();
    training_layers(report, plan, &runs, &spans, &snapshot, traced_epochs);
    let rate = |calls: &[Call]| median(&calls.iter().map(Call::epochs_per_s).collect::<Vec<_>>());
    report.set(
        "telemetry.overhead_frac",
        1.0 - rate(&traced_calls) / rate(&untraced),
        traced_calls.len(),
    );
    probes::run(report, &inputs, &cfg.hidden, w.k);
    serving_not_exercised(report);
}
