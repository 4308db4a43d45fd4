//! Accuracy experiments: Table 4 (BNS-GCN vs sampling baselines across
//! p and #partitions), Table 5 (time+accuracy on products-sim), Table 7
//! (random partition), Table 13 (intermediate p) and the convergence
//! curves of Figures 7 and 9.

use crate::{f3, print_table, Scale};
use bns_data::Dataset;
use bns_gcn::engine::{train_with_plan, ModelArch, TrainConfig, TrainRun};
use bns_gcn::minibatch::{train_minibatch, MiniBatchConfig, MiniBatchMethod};
use bns_gcn::plan::PartitionPlan;
use bns_gcn::sampling::BoundarySampling;
use bns_partition::{MetisLikePartitioner, Partitioner, Partitioning, RandomPartitioner};
use std::sync::Arc;

/// Per-dataset accuracy-training hyperparameters (scaled from the
/// paper's Section 4 model list).
pub struct AccuracySetup {
    /// Dataset name.
    pub name: &'static str,
    /// The dataset.
    pub ds: Arc<Dataset>,
    /// Hidden dims.
    pub hidden: Vec<usize>,
    /// Learning rate.
    pub lr: f32,
    /// Dropout.
    pub dropout: f32,
    /// Epochs.
    pub epochs: usize,
    /// Partition counts used in Table 4.
    pub parts: Vec<usize>,
}

/// The three accuracy datasets with scaled hyperparameters.
pub fn setups(scale: Scale) -> Vec<AccuracySetup> {
    vec![
        AccuracySetup {
            name: "reddit-sim",
            ds: crate::reddit(scale),
            hidden: vec![64, 64, 64], // paper: 4 layers, 256 hidden
            lr: 0.01,
            dropout: 0.3,
            epochs: scale.epochs(40, 120),
            parts: vec![2, 4, 8],
        },
        AccuracySetup {
            name: "products-sim",
            ds: crate::products(scale),
            hidden: vec![64, 64], // paper: 3 layers, 128 hidden
            lr: 0.01,
            dropout: 0.3,
            epochs: scale.epochs(40, 120),
            parts: vec![5, 8, 10],
        },
        AccuracySetup {
            name: "yelp-sim",
            ds: crate::yelp(scale),
            hidden: vec![64, 64], // paper: 4 layers, 512 hidden
            lr: 0.02,
            dropout: 0.1,
            // Multi-label BCE needs many full-batch Adam steps before
            // micro-F1 lifts off (the paper trains Yelp for 3000 epochs).
            epochs: scale.epochs(200, 400),
            parts: vec![3, 6, 10],
        },
    ]
}

fn engine_cfg(s: &AccuracySetup, sampling: BoundarySampling) -> TrainConfig {
    TrainConfig {
        arch: ModelArch::Sage,
        hidden: s.hidden.clone(),
        dropout: s.dropout,
        lr: s.lr,
        epochs: s.epochs,
        sampling,
        eval_every: 0,
        seed: 7,
        clip_norm: Some(1.0),
        pipeline: false,
        workers: None,
        wire_precision: None,
    }
}

/// Trains BNS-GCN on an existing partitioning and returns the run.
pub fn bns_run(s: &AccuracySetup, part: &Partitioning, p: f64) -> TrainRun {
    let plan = Arc::new(PartitionPlan::build(&s.ds, part));
    train_with_plan(&plan, &engine_cfg(s, BoundarySampling::Bns { p }))
}

/// Paper Table 4: test score of the sampling baselines and of BNS-GCN
/// across sampling rates and partition counts.
pub fn table4(scale: Scale) {
    for s in setups(scale) {
        // Sampling baselines (single-machine mini-batch methods).
        let mb_cfg = MiniBatchConfig {
            hidden: s.hidden.clone(),
            dropout: 0.0,
            lr: s.lr,
            epochs: s.epochs / 2,
            batch_size: 256,
            seed: 7,
        };
        let methods = [
            MiniBatchMethod::FastGcn { support: 400 },
            MiniBatchMethod::NeighborSampling { fanout: 10 },
            MiniBatchMethod::Ladies { support: 400 },
            MiniBatchMethod::VrGcn,
            MiniBatchMethod::ClusterGcn {
                clusters: 16,
                per_batch: 4,
            },
            MiniBatchMethod::GraphSaintWalk {
                roots: 200,
                length: 4,
            },
        ];
        let mut rows = Vec::new();
        for m in methods {
            let run = train_minibatch(&s.ds, m, &mb_cfg);
            rows.push(vec![run.method.to_string(), f3(run.final_test * 100.0)]);
        }
        print_table(
            &format!(
                "Table 4a: sampling-based baselines, {} (test score %)",
                s.name
            ),
            &["method", "score"],
            &rows,
        );

        let mut rows = Vec::new();
        for p in [1.0, 0.1, 0.01, 0.0] {
            let mut cells = vec![format!("BNS-GCN (p={p})")];
            for &k in &s.parts {
                let part = MetisLikePartitioner::default().partition(&s.ds.graph, k, 0);
                let run = bns_run(&s, &part, p);
                cells.push(f3(run.final_test * 100.0));
            }
            rows.push(cells);
        }
        let header: Vec<String> = std::iter::once("method".to_string())
            .chain(s.parts.iter().map(|k| format!("{k} parts")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        print_table(
            &format!("Table 4b: BNS-GCN, {} (test score %)", s.name),
            &header_refs,
            &rows,
        );
    }
}

/// Paper Table 5: total train time and test accuracy on products-sim,
/// sampling methods vs BNS-GCN at 10 partitions.
pub fn table5(scale: Scale) {
    let s = &setups(scale)[1];
    let mut rows = Vec::new();
    let mb_cfg = MiniBatchConfig {
        hidden: s.hidden.clone(),
        dropout: 0.0,
        lr: s.lr,
        epochs: s.epochs / 2,
        batch_size: 256,
        seed: 7,
    };
    for m in [
        MiniBatchMethod::ClusterGcn {
            clusters: 16,
            per_batch: 4,
        },
        MiniBatchMethod::NeighborSampling { fanout: 10 },
        MiniBatchMethod::GraphSaintWalk {
            roots: 200,
            length: 4,
        },
    ] {
        let run = train_minibatch(&s.ds, m, &mb_cfg);
        rows.push(vec![
            run.method.to_string(),
            format!("{:.1}s", run.total_s),
            f3(run.final_test * 100.0),
        ]);
    }
    let part = MetisLikePartitioner::default().partition(&s.ds.graph, 10, 0);
    for p in [1.0, 0.1, 0.01] {
        let t0 = std::time::Instant::now();
        let run = bns_run(s, &part, p);
        rows.push(vec![
            format!("BNS-GCN (p={p})"),
            format!("{:.1}s", t0.elapsed().as_secs_f64()),
            f3(run.final_test * 100.0),
        ]);
    }
    print_table(
        "Table 5: total train time and test accuracy, products-sim, 10 partitions",
        &["method", "total train time", "test acc (%)"],
        &rows,
    );
}

/// Paper Table 7: BNS-GCN accuracy on top of *random* partitioning,
/// with the difference from METIS-like partitioning.
pub fn table7(scale: Scale) {
    let mut rows = Vec::new();
    for s in setups(scale) {
        let k = *s.parts.last().unwrap();
        let metis = MetisLikePartitioner::default().partition(&s.ds.graph, k, 0);
        let random = RandomPartitioner.partition(&s.ds.graph, k, 0);
        for p in [1.0, 0.1, 0.0] {
            let rm = bns_run(&s, &metis, p);
            let rr = bns_run(&s, &random, p);
            rows.push(vec![
                format!("{} ({k} parts)", s.name),
                format!("Random+BNS (p={p})"),
                f3(rr.final_test * 100.0),
                format!("{:+.2}", (rr.final_test - rm.final_test) * 100.0),
            ]);
        }
    }
    print_table(
        "Table 7: BNS-GCN with random partition (diff vs METIS-like)",
        &["dataset", "method", "score (%)", "delta vs METIS"],
        &rows,
    );
}

/// Paper Table 13: test accuracy for intermediate sampling rates.
pub fn table13(scale: Scale) {
    let all = setups(scale);
    let cases = [(&all[0], 2usize), (&all[1], 5usize)];
    let ps = [0.1, 0.3, 0.5, 0.8, 1.0];
    let mut rows = Vec::new();
    for (s, k) in cases {
        let part = MetisLikePartitioner::default().partition(&s.ds.graph, k, 0);
        let mut cells = vec![format!("{} ({k} partitions)", s.name)];
        for &p in &ps {
            let run = bns_run(s, &part, p);
            cells.push(f3(run.final_test * 100.0));
        }
        rows.push(cells);
    }
    let header: Vec<String> = std::iter::once("dataset".to_string())
        .chain(ps.iter().map(|p| format!("p={p}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print_table(
        "Table 13: test accuracy vs sampling rate p",
        &header_refs,
        &rows,
    );
}

/// Convergence curves (test accuracy vs epoch): Figure 7 on
/// products-sim, Figure 9 on reddit-sim and yelp-sim.
pub fn convergence(scale: Scale, which: &str) {
    let all = setups(scale);
    let cases: Vec<(&AccuracySetup, Vec<usize>)> = match which {
        "fig7" => vec![(&all[1], vec![5, 10])],
        _ => vec![(&all[0], vec![2, 8]), (&all[2], vec![3, 10])],
    };
    for (s, ks) in cases {
        for k in ks {
            let part = MetisLikePartitioner::default().partition(&s.ds.graph, k, 0);
            let plan = Arc::new(PartitionPlan::build(&s.ds, &part));
            let eval_every = (s.epochs / 10).max(1);
            let mut series: Vec<(String, Vec<(usize, f64)>)> = Vec::new();
            for p in [1.0, 0.1, 0.01, 0.0] {
                let mut cfg = engine_cfg(s, BoundarySampling::Bns { p });
                cfg.eval_every = eval_every;
                let run = train_with_plan(&plan, &cfg);
                let pts: Vec<(usize, f64)> = run
                    .epochs
                    .iter()
                    .enumerate()
                    .filter_map(|(e, st)| st.test_score.map(|sc| (e + 1, sc)))
                    .collect();
                series.push((format!("p={p}"), pts));
            }
            let epochs: Vec<usize> = series[0].1.iter().map(|&(e, _)| e).collect();
            let mut rows = Vec::new();
            for (label, pts) in &series {
                let mut cells = vec![label.clone()];
                cells.extend(pts.iter().map(|&(_, sc)| f3(sc * 100.0)));
                rows.push(cells);
            }
            let header: Vec<String> = std::iter::once("series".to_string())
                .chain(epochs.iter().map(|e| format!("ep{e}")))
                .collect();
            let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
            print_table(
                &format!(
                    "{}: test-score convergence, {} ({k} partitions)",
                    if which == "fig7" {
                        "Figure 7"
                    } else {
                        "Figure 9"
                    },
                    s.name
                ),
                &header_refs,
                &rows,
            );
        }
    }
}
