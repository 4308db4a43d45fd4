//! Every metric the benchmark reports, with its unit and direction.
//!
//! This list is the source of truth for `BENCHMARK.json` (a test holds
//! the two equal). End-to-end metrics carry the regression bound; each
//! per-layer metric names the end-to-end metric it should move and the
//! workloads it should move it on. On any other workload the prediction
//! is "no change".

// Directions, bounds, the layer → metric map and the name rules are
// declared for `BENCHMARK.json`; the binary prints only names and units,
// and the tests read the rest.
#![cfg_attr(not(test), allow(dead_code))]

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the trainer or the server sees.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of one layer (crate or module), read in the traced run.
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric a change in this layer should move.
    pub moves: &'static str,
    /// The workloads on which it should move it.
    pub on: &'static [&'static str],
}

pub const REDDIT: &str = "train-reddit-k8-bns";
pub const PRODUCTS: &str = "train-products-k2-int8";
pub const SERVE: &str = "serve-reddit-k2";
pub const WORKLOADS: [&str; 3] = [REDDIT, PRODUCTS, SERVE];

const TRAIN: &[&str] = &[REDDIT, PRODUCTS];
const ALL: &[&str] = &[REDDIT, PRODUCTS, SERVE];
const ON_REDDIT: &[&str] = &[REDDIT];
const ON_PRODUCTS: &[&str] = &[PRODUCTS];
const ON_SERVE: &[&str] = &[SERVE];
const KERNELS: &[&str] = &[PRODUCTS, SERVE];

pub fn end_to_end() -> Vec<EndToEnd> {
    use Better::*;
    let m = |name, unit, better, bound| EndToEnd {
        name,
        unit,
        better,
        bound,
    };
    vec![
        m("throughput_per_s", "1/s", Higher, 0.25),
        m("latency_p50_ms", "ms", Lower, 0.25),
        m("setup_s", "s", Lower, 0.25),
        m("peak_rss_mb", "MB", Lower, 0.10),
        m("wire_mb_per_epoch", "MB", Lower, 0.05),
        m("final_loss", "loss", Lower, 0.15),
    ]
}

/// Spans the engine records per rank, and whether they carry a `layer`
/// argument. Self time is keyed by (span, layer).
pub const TRACED_SPANS: [(&str, bool); 6] = [
    ("epoch", false),
    ("sample", false),
    ("compute", true),
    ("exchange", true),
    ("reduce", false),
    ("eval", false),
];

/// Layer arguments reported per layered span: the deepest model among
/// the workloads (reddit's 3×256 SAGE) has four layers.
pub const TRACED_LAYERS: usize = 4;

/// Engine and runtime counters, reported per traced epoch.
pub const EPOCH_COUNTERS: [(&str, &str, &[&str]); 8] = [
    ("rt.parks", "throughput_per_s", ON_REDDIT),
    ("rt.wakes", "throughput_per_s", ON_REDDIT),
    ("comm.recv_any_waited", "throughput_per_s", ON_REDDIT),
    (
        "comm.overlap.out_of_order_blocks",
        "throughput_per_s",
        ON_REDDIT,
    ),
    ("comm.arena.bytes_alloc", "throughput_per_s", ON_REDDIT),
    ("pool.parallel_dispatches", "throughput_per_s", ON_PRODUCTS),
    ("simd.dispatch.avx2", "throughput_per_s", ON_PRODUCTS),
    ("simd.dispatch.scalar", "throughput_per_s", ON_PRODUCTS),
];

/// The traced span keys, in report order: `(span, layer)`.
pub fn span_keys() -> Vec<(&'static str, Option<usize>)> {
    let mut keys = Vec::new();
    for (span, layered) in TRACED_SPANS {
        keys.push((span, None));
        if layered {
            keys.extend((0..TRACED_LAYERS).map(|l| (span, Some(l))));
        }
    }
    keys
}

/// Metric-name stem of a traced span key: `trace.compute.l2`.
pub fn span_stem(span: &str, layer: Option<usize>) -> String {
    match layer {
        Some(l) => format!("trace.{span}.l{l}"),
        None => format!("trace.{span}"),
    }
}

pub fn per_layer() -> Vec<PerLayer> {
    use Better::*;
    let mut v = Vec::new();
    let mut m = |name: &str, unit, better, moves, on| {
        v.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
            moves,
            on,
        })
    };
    // Set-up.
    m("data.generate_s", "s", Lower, "setup_s", ALL);
    m("partition.partition_s", "s", Lower, "setup_s", ALL);
    m("plan.build_s", "s", Lower, "setup_s", ALL);
    m(
        "partition.boundary_nodes",
        "count",
        Lower,
        "wire_mb_per_epoch",
        TRAIN,
    );
    m("model_io.encode_ms", "ms", Lower, "setup_s", ON_SERVE);
    m("model_io.decode_ms", "ms", Lower, "setup_s", ON_SERVE);
    m("serve.plan_build_s", "s", Lower, "setup_s", ON_SERVE);
    // Training loop, as the engine reports it in `TrainRun`.
    m(
        "engine.train_s",
        "s/epoch",
        Lower,
        "throughput_per_s",
        TRAIN,
    );
    m(
        "engine.sample_s",
        "s/epoch",
        Lower,
        "throughput_per_s",
        ON_REDDIT,
    );
    m(
        "engine.compute_s",
        "s/epoch",
        Lower,
        "throughput_per_s",
        ON_PRODUCTS,
    );
    m(
        "engine.comm_s",
        "s/epoch",
        Lower,
        "throughput_per_s",
        ON_REDDIT,
    );
    m(
        "engine.reduce_s",
        "s/epoch",
        Lower,
        "throughput_per_s",
        ON_REDDIT,
    );
    m("engine.peak_act_mb", "MB", Lower, "peak_rss_mb", TRAIN);
    m(
        "sampling.selected_per_epoch",
        "count",
        Lower,
        "wire_mb_per_epoch",
        TRAIN,
    );
    m(
        "comm.boundary_mb_per_epoch",
        "MB",
        Lower,
        "wire_mb_per_epoch",
        TRAIN,
    );
    m(
        "comm.allreduce_mb_per_epoch",
        "MB",
        Lower,
        "wire_mb_per_epoch",
        TRAIN,
    );
    m(
        "comm.control_mb_per_epoch",
        "MB",
        Lower,
        "wire_mb_per_epoch",
        TRAIN,
    );
    m(
        "comm.msgs_per_epoch",
        "count",
        Lower,
        "wire_mb_per_epoch",
        TRAIN,
    );
    // Layer probes at the workload's own shapes.
    m(
        "tensor.matmul_gflops",
        "GFLOP/s",
        Higher,
        "throughput_per_s",
        KERNELS,
    );
    m("nn.sage_fwd_ms", "ms", Lower, "throughput_per_s", KERNELS);
    m("nn.sage_bwd_ms", "ms", Lower, "throughput_per_s", KERNELS);
    m(
        "tensor.codec_int8_pack_gbps",
        "GB/s",
        Higher,
        "throughput_per_s",
        ON_PRODUCTS,
    );
    m(
        "tensor.codec_int8_unpack_gbps",
        "GB/s",
        Higher,
        "throughput_per_s",
        ON_PRODUCTS,
    );
    m(
        "comm.sendrecv_gbps",
        "GB/s",
        Higher,
        "throughput_per_s",
        ON_REDDIT,
    );
    m(
        "runtime.pingpong_us",
        "us",
        Lower,
        "throughput_per_s",
        ON_REDDIT,
    );
    // Serving.
    m(
        "serve.batch_ms_p50",
        "ms",
        Lower,
        "throughput_per_s",
        ON_SERVE,
    );
    m(
        "serve.batch_ms_p99",
        "ms",
        Lower,
        "throughput_per_s",
        ON_SERVE,
    );
    m(
        "serve.cache_hit_rate",
        "ratio",
        Higher,
        "latency_p50_ms",
        ON_SERVE,
    );
    m(
        "serve.cache_fetched_mb",
        "MB/1000q",
        Lower,
        "latency_p50_ms",
        ON_SERVE,
    );
    m(
        "serve.avg_batch",
        "count",
        Higher,
        "latency_p50_ms",
        ON_SERVE,
    );
    m("serve.p99_ms", "ms", Lower, "latency_p50_ms", ON_SERVE);
    m("serve.gen_late_ms", "ms", Lower, "latency_p50_ms", ON_SERVE);
    // Traced run: self time per (span, layer), per epoch.
    for (span, layer) in span_keys() {
        let on: &'static [&'static str] = match span {
            "compute" => ON_PRODUCTS,
            _ => ON_REDDIT,
        };
        let stem = span_stem(span, layer);
        m(
            &format!("{stem}.self_ms_max"),
            "ms/epoch",
            Lower,
            "throughput_per_s",
            on,
        );
        m(
            &format!("{stem}.self_ms_sum"),
            "ms/epoch",
            Lower,
            "throughput_per_s",
            on,
        );
    }
    m("trace.epoch_ms_p50", "ms", Lower, "latency_p50_ms", TRAIN);
    m("trace.epoch_ms_p90", "ms", Lower, "latency_p50_ms", TRAIN);
    for (counter, moves, on) in EPOCH_COUNTERS {
        m(
            &format!("{counter}_per_epoch"),
            "count/epoch",
            Lower,
            moves,
            on,
        );
    }
    m(
        "telemetry.overhead_frac",
        "ratio",
        Lower,
        "throughput_per_s",
        ALL,
    );
    // Test accuracy after the workloads' few epochs spreads too widely
    // across seeds to carry a bound (reddit: a quarter of its median
    // between quartiles, even averaged over four seeds).
    m("quality.test_score", "score", Higher, "final_loss", ALL);
    v
}

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let starts_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
