//! Sampling showdown: BNS-GCN vs the classic sampling-based training
//! methods (neighbor, layer-wise and subgraph sampling) on the same
//! dataset and model family — the comparison behind the paper's
//! Tables 4, 5 and 11.
//!
//! ```text
//! cargo run --release --example sampling_showdown
//! ```

use bns_data::SyntheticSpec;
use bns_gcn::engine::{train, ModelArch, TrainConfig};
use bns_gcn::minibatch::{train_minibatch, MiniBatchConfig, MiniBatchMethod};
use bns_gcn::sampling::BoundarySampling;
use bns_partition::{MetisLikePartitioner, Partitioner};
use std::sync::Arc;

fn main() {
    let ds = Arc::new(SyntheticSpec::reddit_sim().with_nodes(4_000).generate(11));
    println!(
        "reddit-sim: {} nodes / {} edges / {} classes\n",
        ds.num_nodes(),
        ds.graph.num_edges(),
        ds.num_classes
    );

    let cfg = MiniBatchConfig {
        hidden: vec![64, 64],
        dropout: 0.0,
        lr: 0.01,
        epochs: 10,
        batch_size: 256,
        seed: 3,
    };
    println!("method             test acc   epoch time   sampling overhead");
    println!("-----------------  ---------  -----------  -----------------");
    for method in [
        MiniBatchMethod::NeighborSampling { fanout: 10 },
        MiniBatchMethod::FastGcn { support: 400 },
        MiniBatchMethod::Ladies { support: 400 },
        MiniBatchMethod::ClusterGcn {
            clusters: 12,
            per_batch: 3,
        },
        MiniBatchMethod::GraphSaintWalk {
            roots: 120,
            length: 4,
        },
        MiniBatchMethod::VrGcn,
    ] {
        let run = train_minibatch(&ds, method, &cfg);
        println!(
            "{:<18} {:<10.4} {:<12.3} {:.1}%",
            run.method,
            run.final_test,
            run.avg_epoch_s,
            100.0 * run.sampling_frac
        );
    }

    // BNS-GCN: distributed over 4 ranks with p = 0.1.
    let part = MetisLikePartitioner::default().partition(&ds.graph, 4, 0);
    let run = train(
        &ds,
        &part,
        &TrainConfig {
            arch: ModelArch::Sage,
            hidden: vec![64, 64],
            dropout: 0.0,
            lr: 0.01,
            epochs: 10,
            sampling: BoundarySampling::Bns { p: 0.1 },
            eval_every: 0,
            seed: 3,
            clip_norm: None,
            pipeline: false,
            workers: None,
            wire_precision: None,
        },
    );
    let sample_s: f64 = run.epochs.iter().map(|e| e.sample_s).sum();
    let total_s: f64 = run.epochs.iter().map(|e| e.total_s()).sum();
    println!(
        "{:<18} {:<10.4} {:<12.3} {:.1}%",
        "BNS-GCN(p=0.1) x4",
        run.final_test,
        run.avg_epoch_s(),
        100.0 * sample_s / total_s
    );
    println!(
        "\nBNS samples only the boundary region, so its sampling overhead \
         stays near zero while mini-batch samplers pay per batch."
    );
}
