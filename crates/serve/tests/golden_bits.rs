//! The serving rows of the same-bits table: per architecture, an FNV-1a
//! hash over the logits a [`ShardServer`](bns_serve::ShardServer)
//! returns for a fixed query batch on every shard. Each model is
//! trained by the partition-parallel engine first (dropout on, two
//! hidden layers), so a row pins the trainer's weights and the serving
//! forward together. CI runs the suite under `BNS_THREADS=1`,
//! `BNS_SIMD=scalar`/`avx2`, `BNS_WORKERS=2` and `BNS_QUANT`; every
//! training run fixes its wire precision, so no knob may move a row.
//!
//! The hashes include libm's `exp` bits (GAT's ELU and the trainer's
//! softmax), so they are recorded for x86-64 Linux, the platform CI
//! runs. On a mismatch the test prints the whole new table.

use bns_comm::WirePrecision;
use bns_data::SyntheticSpec;
use bns_gcn::engine::{train_with_plan, ModelArch, TrainConfig};
use bns_gcn::plan::PartitionPlan;
use bns_gcn::sampling::BoundarySampling;
use bns_partition::{MetisLikePartitioner, Partitioner, RandomPartitioner};
use bns_serve::{CacheConfig, ServePlan};
use std::sync::Arc;

/// FNV-1a (64-bit), as in core's `golden_bits.rs`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `h` as a Rust literal grouped like the table's: `0x0123_4567_89ab_cdef`.
fn hex_literal(h: u64) -> String {
    let digits = format!("{h:016x}");
    let groups: Vec<&str> = (0..4).map(|i| &digits[4 * i..4 * i + 4]).collect();
    format!("0x{}", groups.join("_"))
}

/// Trains `arch` on the engine at k = 2, then serves a fixed 24-query
/// batch (duplicates included) on each of two shards and hashes the
/// returned logits' bits, shard 0 first.
fn serving_hash(arch: ModelArch) -> u64 {
    let ds = Arc::new(SyntheticSpec::reddit_sim().with_nodes(300).generate(23));
    let part = RandomPartitioner.partition(&ds.graph, 2, 4);
    let plan = Arc::new(PartitionPlan::build(&ds, &part));
    let cfg = TrainConfig {
        arch,
        hidden: vec![16, 16],
        dropout: 0.3,
        lr: 0.01,
        epochs: 3,
        sampling: BoundarySampling::Bns { p: 0.5 },
        eval_every: 0,
        seed: 11,
        clip_norm: None,
        pipeline: false,
        workers: None,
        wire_precision: Some(WirePrecision::Exact),
    };
    let model = train_with_plan(&plan, &cfg).model;
    let shards = MetisLikePartitioner::default().partition(&ds.graph, 2, 3);
    let serve = ServePlan::build(&ds, &shards, model);
    let mut bytes = Vec::new();
    for rank in 0..serve.k {
        let mine: Vec<u32> = (0..ds.num_nodes() as u32)
            .filter(|&v| serve.owner_of(v) == rank)
            .step_by(7)
            .take(20)
            .collect();
        let batch: Vec<u32> = mine.iter().chain(&mine[..4]).copied().collect();
        let logits = serve
            .shard(rank, CacheConfig::default())
            .serve_batch(&batch);
        bytes.extend(
            logits
                .as_slice()
                .iter()
                .flat_map(|x| x.to_bits().to_le_bytes()),
        );
    }
    fnv1a(&bytes)
}

#[test]
fn serving_matches_recorded_bits() {
    let got: Vec<(String, u64)> = [
        (ModelArch::Sage, "sage"),
        (ModelArch::Gcn, "gcn"),
        (ModelArch::Gat, "gat"),
    ]
    .into_iter()
    .map(|(arch, name)| (format!("{name} served"), serving_hash(arch)))
    .collect();
    let want: &[(&str, u64)] = &[
        ("sage served", 0x431c_944f_f032_568f),
        ("gcn served", 0x9119_966e_2cb1_e96a),
        ("gat served", 0x00f1_3087_2433_d4c2),
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
        panic!("the served logits differ from the recorded table; new table:\n{table}");
    }
}
