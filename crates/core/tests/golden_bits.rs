//! The same-bits table: one row per trainer configuration, each an
//! FNV-1a hash over the run's per-epoch loss bits followed by its final
//! validation and test score bits. A change that keeps every row keeps
//! what the trainers compute, bit for bit; CI runs the suite under
//! `BNS_THREADS=1`, `BNS_SIMD=scalar`/`avx2` and `BNS_QUANT`, so the one
//! table also pins every kernel knob.
//!
//! The rows cover the single-rank full-graph reference and every
//! mini-batch baseline at dropout 0.3 with two hidden layers, so the
//! dropout stream, the block layouts and the optimizer all count.
//!
//! The hashes include libm's `exp`/`ln` bits (the losses), so they are
//! recorded for x86-64 Linux, the platform CI runs; other targets are
//! checked only for cross-backend equality within a run.
//!
//! On a mismatch the test prints the whole new table. A change that
//! alters training semantics on purpose pastes it in and says so.

use bns_comm::WirePrecision;
use bns_data::{Dataset, SyntheticSpec};
use bns_gcn::engine::{train, ModelArch, TrainConfig};
use bns_gcn::fullgraph::{train_full, FullGraphConfig};
use bns_gcn::minibatch::{train_minibatch, MiniBatchConfig, MiniBatchMethod};
use bns_gcn::sampling::BoundarySampling;
use bns_partition::{Partitioner, RandomPartitioner};
use std::sync::Arc;

/// FNV-1a (64-bit).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The row hash: loss bits per epoch, then the final val and test bits.
fn row_hash(losses: &[f64], val: f64, test: f64) -> u64 {
    let bytes: Vec<u8> = losses
        .iter()
        .chain([&val, &test])
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// `h` as a Rust literal grouped like the table's: `0x0123_4567_89ab_cdef`.
fn hex_literal(h: u64) -> String {
    let digits = format!("{h:016x}");
    let groups: Vec<&str> = (0..4).map(|i| &digits[4 * i..4 * i + 4]).collect();
    format!("0x{}", groups.join("_"))
}

const HIDDEN: [usize; 2] = [16, 16];

fn full_graph(ds: &Dataset) -> u64 {
    let cfg = FullGraphConfig {
        hidden: HIDDEN.to_vec(),
        dropout: 0.3,
        lr: 0.01,
        epochs: 4,
        seed: 11,
    };
    let run = train_full(ds, &cfg);
    row_hash(&run.losses, run.final_val, run.final_test)
}

fn mini_batch(ds: &Dataset, method: MiniBatchMethod) -> u64 {
    let cfg = MiniBatchConfig {
        hidden: HIDDEN.to_vec(),
        dropout: 0.3,
        lr: 0.01,
        epochs: 2,
        batch_size: 64,
        seed: 11,
    };
    let run = train_minibatch(ds, method, &cfg);
    row_hash(&run.losses, run.final_val, run.final_test)
}

#[test]
fn trainers_match_recorded_bits() {
    let reddit = SyntheticSpec::reddit_sim().with_nodes(400).generate(21);
    let yelp = SyntheticSpec::yelp_sim().with_nodes(300).generate(22);
    let methods = [
        MiniBatchMethod::NeighborSampling { fanout: 5 },
        MiniBatchMethod::FastGcn { support: 100 },
        MiniBatchMethod::Ladies { support: 100 },
        MiniBatchMethod::ClusterGcn {
            clusters: 8,
            per_batch: 2,
        },
        MiniBatchMethod::GraphSaintNode { nodes: 120 },
        MiniBatchMethod::GraphSaintEdge { edges: 120 },
        MiniBatchMethod::GraphSaintWalk {
            roots: 30,
            length: 3,
        },
        MiniBatchMethod::VrGcn { batch: 64 },
    ];
    let mut got: Vec<(String, u64)> = vec![
        ("full-graph reddit".into(), full_graph(&reddit)),
        ("full-graph yelp".into(), full_graph(&yelp)),
    ];
    for m in methods {
        got.push((format!("{} reddit", m.name()), mini_batch(&reddit, m)));
    }
    // The multi-label loss through a block and through a subgraph.
    for m in [methods[0], methods[4]] {
        got.push((format!("{} yelp", m.name()), mini_batch(&yelp, m)));
    }

    let want: &[(&str, u64)] = &[
        ("full-graph reddit", 0x9e54_6e14_e90a_aa9b),
        ("full-graph yelp", 0x6f6e_ad6f_f03a_a7cc),
        ("NeighborSampling reddit", 0x0aca_e64d_ecda_7073),
        ("FastGCN reddit", 0xf5e4_b629_4c47_00cf),
        ("LADIES reddit", 0x98b6_66ce_74d8_262b),
        ("ClusterGCN reddit", 0x39d5_b609_4f12_6dc9),
        ("GraphSAINT-Node reddit", 0x0416_d7e3_124a_cb1c),
        ("GraphSAINT-Edge reddit", 0xc2ab_a530_e1e7_d6c3),
        ("GraphSAINT-RW reddit", 0x0c86_d486_8d5d_6c89),
        ("VR-GCN reddit", 0x14bb_8897_51b1_61d7),
        ("NeighborSampling yelp", 0x8668_299e_ed45_64f8),
        ("GraphSAINT-Node yelp", 0x3fcc_943e_19f4_638a),
    ];
    let matches = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((name, hash), (w_name, w_hash))| name == w_name && hash == w_hash);
    if !matches {
        let table: String = got
            .iter()
            .map(|(name, hash)| format!("        ({name:?}, {}),\n", hex_literal(*hash)))
            .collect();
        panic!("the trainers' bits differ from the recorded table; new table:\n{table}");
    }
}

/// Vanilla partition parallelism is exact (the paper's premise), bit
/// for bit at `k = 1`: the engine trains the same layers as the
/// full-graph reference and scores them the same, dropout included.
/// The per-epoch losses are not compared: the engine's travels as an
/// `f32` in the all-reduce payload, so it agrees with the reference's
/// `f64` only to about 8 significant digits.
#[test]
fn engine_at_k1_trains_the_full_graph_model_bitwise() {
    let ds = Arc::new(SyntheticSpec::reddit_sim().with_nodes(400).generate(21));
    let cfg = TrainConfig {
        arch: ModelArch::Sage,
        hidden: HIDDEN.to_vec(),
        dropout: 0.3,
        lr: 0.01,
        epochs: 4,
        sampling: BoundarySampling::Bns { p: 1.0 },
        eval_every: 0,
        seed: 11,
        clip_norm: None,
        pipeline: false,
        workers: None,
        wire_precision: Some(WirePrecision::Exact),
    };
    let part = RandomPartitioner.partition(&ds.graph, 1, 0);
    let run = train(&ds, &part, &cfg);
    let full = train_full(
        &ds,
        &FullGraphConfig {
            hidden: cfg.hidden.clone(),
            dropout: cfg.dropout,
            lr: cfg.lr,
            epochs: cfg.epochs,
            seed: cfg.seed,
        },
    );
    assert_eq!(run.model.layers(), full.model.layers());
    assert_eq!(run.final_val.to_bits(), full.final_val.to_bits());
    assert_eq!(run.final_test.to_bits(), full.final_test.to_bits());
}
