//! Regenerates every table and figure of the BNS-GCN paper's evaluation
//! on the synthetic stand-in datasets.
//!
//! ```text
//! repro <experiment> [--scale small|full] [--trace <path>]
//!        [--flame <path>] [--metrics <path>]
//! repro all [--scale small|full]
//! ```
//!
//! Experiments: table1, table2, fig3, fig4, table4, table5, fig5,
//! table6, fig6, fig7, fig8, table7, table8, table9, table10, table11,
//! table12, table13, fig9, ksweep, quant, ablations, serve.
//!
//! `--trace` enables telemetry capture and writes a Chrome trace-event
//! JSON profile of the run (open in `chrome://tracing` or Perfetto);
//! `--flame` writes a per-rank plain-text span summary and `--metrics`
//! a CSV of counters/gauges/time series. Any of the three turns
//! capture on.

use bns_bench::*;
use bns_gcn::engine::ConfigError;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut exps: Vec<String> = Vec::new();
    let mut trace_path: Option<String> = None;
    let mut flame_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let path_arg = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("{flag} expects a file path");
            std::process::exit(2);
        })
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| {
                        eprintln!("--scale expects 'small' or 'full'");
                        std::process::exit(2);
                    });
            }
            "--trace" => trace_path = Some(path_arg(&args, &mut i, "--trace")),
            "--flame" => flame_path = Some(path_arg(&args, &mut i, "--flame")),
            "--metrics" => metrics_path = Some(path_arg(&args, &mut i, "--metrics")),
            other => exps.push(other.to_string()),
        }
        i += 1;
    }
    if exps.is_empty() {
        eprintln!(
            "usage: repro <experiment|all> [--scale small|full] [--trace <path>] \
             [--flame <path>] [--metrics <path>]"
        );
        eprintln!("{}", EXPERIMENTS.join(", "));
        std::process::exit(2);
    }
    if exps.iter().any(|e| e == "all") {
        exps = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    let capture = trace_path.is_some() || flame_path.is_some() || metrics_path.is_some();
    if capture {
        bns_telemetry::enable();
    }

    // A rejected training configuration panics with a typed
    // `ConfigError` payload; report it as a usage error (exit 2)
    // instead of a crash.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<ConfigError>().is_none() {
            default_hook(info);
        }
    }));
    for e in &exps {
        let t0 = std::time::Instant::now();
        println!("\n==== {e} (scale: {scale:?}) ====");
        if let Err(payload) = std::panic::catch_unwind(|| run_experiment(e, scale)) {
            match payload.downcast_ref::<ConfigError>() {
                Some(err) => {
                    eprintln!("{e}: invalid training configuration: {err}");
                    std::process::exit(2);
                }
                None => std::panic::resume_unwind(payload),
            }
        }
        println!("[{e} finished in {:.1}s]", t0.elapsed().as_secs_f64());
    }

    if capture {
        bns_telemetry::disable();
        let spans = bns_telemetry::drain_spans();
        if let Some(path) = &trace_path {
            write_or_die(path, &bns_telemetry::export::chrome_trace(&spans));
            println!("[trace: {} spans -> {path}]", spans.len());
        }
        if let Some(path) = &flame_path {
            write_or_die(path, &bns_telemetry::export::flame_summary(&spans));
            println!("[flame summary -> {path}]");
        }
        if let Some(path) = &metrics_path {
            let snapshot = bns_telemetry::metrics_snapshot();
            write_or_die(path, &bns_telemetry::export::csv_time_series(&snapshot));
            println!("[metrics csv -> {path}]");
        }
    }
}

fn write_or_die(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
}

const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig3",
    "fig4",
    "table4",
    "table5",
    "fig5",
    "table6",
    "fig6",
    "fig7",
    "fig8",
    "table7",
    "table8",
    "table9",
    "table10",
    "table11",
    "table12",
    "table13",
    "fig9",
    "ksweep",
    "quant",
    "ablations",
    "serve",
];

fn run_experiment(name: &str, scale: Scale) {
    match name {
        "table1" => exp_partition::table1(scale),
        "fig3" => exp_partition::fig3(scale),
        "table2" => exp_variance::table2(scale),
        "fig4" => exp_throughput::fig4(scale),
        "fig5" => exp_throughput::fig5(scale),
        "table6" => exp_throughput::table6(scale),
        "table12" => exp_throughput::table12(scale),
        "ksweep" => exp_throughput::ksweep(scale),
        "table4" => exp_accuracy::table4(scale),
        "table5" => exp_accuracy::table5(scale),
        "table7" => exp_accuracy::table7(scale),
        "table13" => exp_accuracy::table13(scale),
        "fig7" => exp_accuracy::convergence(scale, "fig7"),
        "fig9" => exp_accuracy::convergence(scale, "fig9"),
        "fig6" => exp_memory::fig6(scale),
        "fig8" => exp_memory::fig8(scale),
        "table9" => exp_edge::table9(scale),
        "table10" => exp_gat::table10(scale),
        "table11" => exp_sampling::table11(scale),
        "table8" => exp_sampling::table8(scale),
        "quant" => exp_quant::quant(scale),
        "ablations" => exp_ablation::all(scale),
        "serve" => exp_serve::serve(scale),
        other => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    }
}
