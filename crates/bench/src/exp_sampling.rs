//! Table 11: per-epoch training time of the sampling-based methods vs
//! BNS-GCN on reddit-sim, and the Table 8 efficiency rows (throughput /
//! memory gains of BNS on METIS-like vs random partitions).

use crate::{f2, print_table, Scale};
use bns_comm::CostModel;
use bns_gcn::engine::{train_with_plan, ModelArch, TrainConfig};
use bns_gcn::minibatch::{train_minibatch, MiniBatchConfig, MiniBatchMethod};
use bns_gcn::plan::PartitionPlan;
use bns_gcn::sampling::BoundarySampling;
use bns_partition::{MetisLikePartitioner, Partitioner, RandomPartitioner};
use std::sync::Arc;

/// Paper Table 11 (appendix C): measured per-epoch train time,
/// sampling methods vs BNS-GCN under 8 partitions on reddit-sim.
pub fn table11(scale: Scale) {
    let ds = crate::reddit(scale);
    let mb_cfg = MiniBatchConfig {
        hidden: vec![64, 64],
        dropout: 0.0,
        lr: 0.01,
        epochs: 3,
        batch_size: 256,
        seed: 7,
    };
    let mut rows = Vec::new();
    let mut baseline = 0.0f64;
    for m in [
        MiniBatchMethod::NeighborSampling { fanout: 10 },
        MiniBatchMethod::FastGcn { support: 400 },
        MiniBatchMethod::VrGcn,
        MiniBatchMethod::ClusterGcn {
            clusters: 16,
            per_batch: 4,
        },
    ] {
        let run = train_minibatch(&ds, m, &mb_cfg);
        if baseline == 0.0 {
            baseline = run.avg_epoch_s;
        }
        rows.push(vec![
            run.method.to_string(),
            format!("{:.3}s", run.avg_epoch_s),
            format!("{}x", f2(baseline / run.avg_epoch_s)),
        ]);
    }
    let part = MetisLikePartitioner::default().partition(&ds.graph, 8, 0);
    let plan = Arc::new(PartitionPlan::build(&ds, &part));
    for p in [1.0, 0.1, 0.01] {
        let cfg = TrainConfig {
            arch: ModelArch::Sage,
            hidden: vec![64, 64],
            dropout: 0.0,
            lr: 0.01,
            epochs: 3,
            sampling: BoundarySampling::Bns { p },
            eval_every: 0,
            seed: 7,
            clip_norm: None,
            pipeline: false,
            workers: None,
            wire_precision: None,
        };
        let run = train_with_plan(&plan, &cfg);
        let t = run.avg_epoch_s();
        rows.push(vec![
            format!("BNS-GCN({p}) [8 parts]"),
            format!("{:.3}s", t),
            format!("{}x", f2(baseline / t)),
        ]);
    }
    print_table(
        "Table 11: measured per-epoch train time, reddit-sim",
        &["method", "epoch time", "speedup vs GraphSAGE"],
        &rows,
    );
    println!(
        "(BNS rows run k=8 threads on shared cores, so wall-clock \
         comparisons against single-process samplers understate the \
         paper's GPU-cluster speedups; see fig4 for the cost-model view)"
    );
}

/// Paper Table 8 (efficiency): BNS-GCN (p=0.1) throughput and memory
/// gains on METIS-like vs random partitions.
pub fn table8(scale: Scale) {
    let structure = crate::exp_partition::table8_partitions(scale);
    let cost = CostModel::pcie3();
    let datasets = [
        crate::reddit(scale),
        crate::products(scale),
        crate::yelp(scale),
    ];
    let ks = [8usize, 10, 10];
    let mut rows = Vec::new();
    for ((name, _, _), (ds, k)) in structure.iter().zip(datasets.iter().zip(ks)) {
        for (label, part) in [
            (
                "METIS",
                MetisLikePartitioner::default().partition(&ds.graph, k, 0),
            ),
            ("Random", RandomPartitioner.partition(&ds.graph, k, 0)),
        ] {
            let plan = Arc::new(PartitionPlan::build(ds, &part));
            let run_at = |p: f64| {
                let cfg = TrainConfig {
                    arch: ModelArch::Sage,
                    hidden: vec![64, 64],
                    dropout: 0.5,
                    lr: 0.01,
                    epochs: 3,
                    sampling: BoundarySampling::Bns { p },
                    eval_every: 0,
                    seed: 7,
                    clip_norm: None,
                    pipeline: false,
                    workers: None,
                    wire_precision: None,
                };
                train_with_plan(&plan, &cfg)
            };
            let full = run_at(1.0);
            let sampled = run_at(0.1);
            let s_w = crate::wscale(ds);
            let thr = full.avg_sim_epoch_scaled(&cost, s_w).total()
                / sampled.avg_sim_epoch_scaled(&cost, s_w).total();
            let mem = *sampled.peak_mem_per_rank.iter().max().unwrap() as f64
                / *full.peak_mem_per_rank.iter().max().unwrap() as f64;
            rows.push(vec![
                format!("{name}"),
                label.to_string(),
                format!("{}x", f2(thr)),
                format!("{}x", f2(mem)),
            ]);
        }
    }
    print_table(
        "Table 8 (efficiency): BNS-GCN(p=0.1) gains over p=1, by partitioner",
        &["dataset", "partitioner", "throughput gain", "memory ratio"],
        &rows,
    );
}
