//! Wall-clock benchmark of the BNS-GCN trainer and server.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Runs one named workload in this process, built from `--seed`, for
//! about `--seconds` of measurement after set-up and warm-up. It drives
//! the program only through public functions and times each call from
//! outside. Every run checks the program's outputs; each check that
//! fails counts against the operations attempted. With `--trace 0` the
//! last line of standard output is a JSON object holding every
//! end-to-end metric; with `--trace 1` the run repeats its measurement
//! with telemetry capture on and the object holds every per-layer
//! metric instead. The line before it is the run manifest. See
//! `README.md` next to this crate for the workloads and metrics.

mod catalog;
mod inputs;
mod json;
mod probes;
mod serve;
mod trace;
mod train;

use json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// The seed the documented figures were taken with.
pub const DEFAULT_SEED: u64 = 1;
/// Measured seconds when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !catalog::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            catalog::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Samples behind each timing that is a median or percentile.
    samples: BTreeMap<String, usize>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Records a metric value and the number of samples behind it.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.values.insert(name.to_string(), value);
        self.samples.insert(name.to_string(), samples);
    }

    /// Records one checked operation; a failed check prints why.
    pub fn attempt(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", why());
        }
    }

    /// Records `n` checked operations of which `failed` failed.
    pub fn attempts(&mut self, n: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            eprintln!("check failed: {}", why());
        }
    }

    /// The result line: every metric the mode declares, with its unit.
    ///
    /// # Panics
    ///
    /// Panics if the run did not measure a declared metric, which is a
    /// bug in this benchmark.
    pub fn result_line(&self, trace: bool) -> Value {
        let declared: Vec<(String, &str)> = if trace {
            catalog::per_layer()
                .into_iter()
                .map(|m| (m.name, m.unit))
                .collect()
        } else {
            catalog::end_to_end()
                .into_iter()
                .map(|m| (m.name.to_string(), m.unit))
                .collect()
        };
        let mut finite = true;
        let metrics = declared.into_iter().map(|(name, unit)| {
            let value = *self
                .values
                .get(&name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            finite &= value.is_finite();
            let m = Value::obj([
                ("value".to_string(), Value::Num(value)),
                ("unit".to_string(), Value::str(unit)),
            ]);
            (name, m)
        });
        let metrics = Value::obj(metrics.collect::<Vec<_>>());
        Value::obj([
            (
                "correct".to_string(),
                Value::Bool(finite && self.failed == 0 && self.attempted > 0),
            ),
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("metrics".to_string(), metrics),
        ])
    }
}

/// Everything needed to reproduce a result: workload, seed, the
/// `BNS_*` knobs, core count, SIMD backend, source revision and the
/// sample count behind each reported timing.
fn manifest(args: &Args, report: &Report, elapsed_s: f64) -> Value {
    let knobs = ["BNS_THREADS", "BNS_WORKERS", "BNS_SIMD", "BNS_QUANT"]
        .iter()
        .map(|k| {
            let v = std::env::var(k).unwrap_or_else(|_| "default".into());
            (k.to_string(), Value::str(v))
        });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let samples = report
        .samples
        .iter()
        .map(|(k, &n)| (k.clone(), Value::Num(n as f64)));
    Value::obj([(
        "manifest".to_string(),
        Value::obj([
            ("workload".to_string(), Value::str(&args.workload)),
            ("seed".to_string(), Value::Num(args.seed as f64)),
            ("seconds".to_string(), Value::Num(args.seconds)),
            ("trace".to_string(), Value::Bool(args.trace)),
            ("bns_env".to_string(), Value::obj(knobs)),
            ("nproc".to_string(), Value::Num(nproc as f64)),
            (
                "workers".to_string(),
                Value::Num(bns_runtime::WorkerConfig::from_env().workers as f64),
            ),
            (
                "kernel_threads".to_string(),
                Value::Num(bns_tensor::ThreadConfig::from_env().threads as f64),
            ),
            (
                "simd".to_string(),
                Value::str(bns_tensor::simd::active().name()),
            ),
            ("git_rev".to_string(), Value::str(git_rev())),
            ("wall_s".to_string(), Value::Num(elapsed_s)),
            ("samples".to_string(), Value::obj(samples)),
        ]),
    )])
}

/// The checkout's revision, read from `.git` without running git;
/// `unknown` outside a git work tree.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// The process's resident-set high-water mark, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile of `v`, `q` in `[0, 1]`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let mut report = Report::default();
    match args.workload.as_str() {
        catalog::SERVE => serve::run(&args, &mut report),
        name => train::run(&train::workload(name), &args, &mut report),
    }
    println!(
        "{}",
        manifest(&args, &report, t0.elapsed().as_secs_f64()).render()
    );
    println!("{}", report.result_line(args.trace).render());
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::{end_to_end, per_layer, valid_name, valid_unit, WORKLOADS};

    #[test]
    fn every_metric_name_and_unit_is_legal_and_unique() {
        let mut names: Vec<String> = end_to_end().iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad metric name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
        assert!(end_to_end().iter().all(|m| valid_unit(m.unit)));
        assert!(per_layer().iter().all(|m| valid_unit(m.unit)));
        assert!(per_layer().len() <= 128);
        assert!(end_to_end()
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn every_per_layer_metric_names_the_end_to_end_metric_and_workload_it_moves() {
        let e2e: Vec<&str> = end_to_end().iter().map(|m| m.name).collect();
        for m in per_layer() {
            assert!(
                e2e.contains(&m.moves),
                "{} moves unknown {}",
                m.name,
                m.moves
            );
            assert!(!m.on.is_empty(), "{} names no workload", m.name);
            for w in m.on {
                assert!(
                    WORKLOADS.contains(w),
                    "{} names unknown workload {w}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let e2e = end_to_end();
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", catalog::Better::Lower));
        assert!(e2e.iter().all(|m| m.bound <= setup.bound));
    }

    fn full_report() -> Report {
        let mut r = Report::default();
        for m in end_to_end() {
            r.set(m.name, 1.25, 3);
        }
        for m in per_layer() {
            r.set(&m.name, 0.5, 1);
        }
        r.attempt(true, String::new);
        r
    }

    #[test]
    fn result_line_parses_and_lists_every_declared_metric() {
        let r = full_report();
        for (trace, declared) in [
            (
                false,
                end_to_end()
                    .into_iter()
                    .map(|m| (m.name.to_string(), m.unit))
                    .collect::<Vec<_>>(),
            ),
            (
                true,
                per_layer().into_iter().map(|m| (m.name, m.unit)).collect(),
            ),
        ] {
            let line = r.result_line(trace).render();
            assert!(!line.contains('\n'));
            let v = json::parse(&line).expect("result line parses");
            let Value::Obj(top) = &v else {
                panic!("not an object")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
            let Some(Value::Obj(metrics)) = v.get("metrics") else {
                panic!("metrics is not an object")
            };
            assert_eq!(metrics.len(), declared.len());
            for (name, unit) in declared {
                let m = &metrics[&name];
                assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit), "{name}");
            }
        }
    }

    #[test]
    fn a_failed_check_makes_the_result_incorrect() {
        let mut r = full_report();
        r.attempt(false, || "planted".into());
        let v = json::parse(&r.result_line(false).render()).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(2.0));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        Report::default().result_line(false);
    }

    /// `BNS_*`-free checks on the committed benchmark declaration: it
    /// must list exactly this catalog, with the same units, directions
    /// and bounds, and the workloads this binary accepts.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        let Value::Obj(top) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let workloads: Vec<&str> = v
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e = v.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(e2e.len(), end_to_end().len());
        for (j, m) in e2e.iter().zip(end_to_end()) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Value::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let pl = v.get("per_layer").unwrap().as_array().unwrap();
        assert_eq!(pl.len(), per_layer().len());
        for (j, m) in pl.iter().zip(per_layer()) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(m.name.as_str()));
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Value::as_str),
                Some(m.better.as_str())
            );
        }
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let a = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = a("--workload serve-reddit-k2 --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 3.0, true));
        assert_eq!(
            a("--workload train-reddit-k8-bns").unwrap().seed,
            DEFAULT_SEED
        );
        assert!(a("--workload nope").is_err());
        assert!(a("--seed 1").is_err());
        assert!(a("--workload serve-reddit-k2 --trace 2").is_err());
        assert!(a("--workload serve-reddit-k2 --seconds").is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert!(median(&[]).is_nan());
    }
}
