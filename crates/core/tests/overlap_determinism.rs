//! Bitwise equivalence of the overlapped, arena-backed exchange against
//! the retained serial reference, over random partitionings, sampling
//! rates and kernel-pool sizes.
//!
//! The overlapped path receives boundary blocks in *arrival* order
//! ([`bns_comm::RankComm::recv_any`]) but writes them into fixed
//! per-owner row ranges, and applies gradient contributions in fixed
//! ascending peer order — so it promises results bit-identical to the
//! head-of-line-blocking serial exchange. These tests hold that promise
//! across: the feature exchange itself, the segmented
//! inner-partial/boundary-fold forward composed on top of it (dropout
//! RNG stream included), the gradient scatter-add direction, and arena
//! buffer reuse across rounds.

use bns_comm::{run_ranks, WirePrecision};
use bns_data::SyntheticSpec;
use bns_gcn::engine::{train_with_plan, ModelArch, TrainConfig};
use bns_gcn::exchange::{
    exchange_features_serial, exchange_gradients, exchange_gradients_serial, recv_boundary_blocks,
    send_boundary_rows, EpochExchange, ExchangeArena,
};
use bns_gcn::plan::PartitionPlan;
use bns_gcn::sampling::{build_epoch_topology, BoundarySampling};
use bns_nn::{Activation, SageLayer, SageSegCache, SegScratch};
use bns_partition::{Partitioner, RandomPartitioner};
use bns_runtime::block_on;
use bns_tensor::pool::{self, ThreadPool};
use bns_tensor::{Matrix, SeededRng};
use proptest::prelude::*;
use std::sync::Arc;

fn assert_bitwise(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at flat index {i}: {x} vs {y}"
        );
    }
}

/// Every rank runs three rounds (same arena throughout, so rounds 2+
/// exercise buffer recycling) of: serial feature exchange vs
/// send/compute/recv overlapped exchange, fused forward on the serial
/// halo vs segmented forward on the overlapped halo, and serial vs
/// overlapped gradient exchange.
fn check_world(k: usize, p: f64, seed: u64, threads: usize) {
    let ds = Arc::new(SyntheticSpec::reddit_sim().with_nodes(260).generate(7));
    let part = RandomPartitioner.partition(&ds.graph, k, seed);
    let plan = Arc::new(PartitionPlan::build(&ds, &part));
    let plan2 = Arc::clone(&plan);
    run_ranks(k, move |mut comm| {
        let me = comm.rank();
        let _guard = (threads > 1).then(|| pool::install(ThreadPool::new(threads)));
        let lp = Arc::clone(&plan2.parts[me]);
        let sampling = BoundarySampling::Bns { p };
        let topo = build_epoch_topology(&lp, &sampling, 0, seed);
        let mut ex = EpochExchange::default();
        ex.rebuild(&lp, &sampling, 0, seed, &topo.selected);
        let n_in = lp.n_inner();
        let n_sel = topo.selected.len();
        let scale = topo.feature_scale;
        let mut arena = ExchangeArena::new();
        for round in 0..3u64 {
            let d = 2 + ((seed + round) % 6) as usize;
            let mut data_rng = SeededRng::new(seed ^ (round << 8)).fork(me as u64);
            let h_inner = Matrix::random_normal(n_in, d, 0.0, 1.0, &mut data_rng);
            let tag = 10 + round * 5;

            // Feature exchange: serial reference vs overlapped.
            let h_full = exchange_features_serial(&mut comm, &ex, &h_inner, n_sel, scale, tag);
            send_boundary_rows(
                &mut comm,
                &ex,
                &h_inner,
                tag + 1,
                &mut arena,
                WirePrecision::Exact,
            );
            block_on(recv_boundary_blocks(
                &mut comm,
                &ex,
                n_sel,
                d,
                scale,
                tag + 1,
                &mut arena,
                None,
                WirePrecision::Exact,
            ));
            assert_bitwise(
                &h_full,
                &h_inner.vstack(arena.boundary()),
                "feature exchange",
            );

            // Segmented forward composed on the overlapped halo vs the
            // fused forward on the serial halo, identical RNG streams
            // (dropout draws must line up row for row).
            let mut init = SeededRng::new(seed ^ 0x1a7e).fork(me as u64);
            let layer = SageLayer::new(d, 4, Activation::Relu, 0.4, &mut init);
            let mut rng_fused = SeededRng::new(seed ^ (round << 16)).fork(me as u64);
            let mut rng_seg = rng_fused.clone();
            let (out_fused, _) = layer.forward(
                &topo.graph,
                &h_full,
                n_in,
                &topo.row_scale,
                true,
                &mut rng_fused,
            );
            let (mut cache, mut scratch) = (SageSegCache::default(), SegScratch::default());
            let mut out_seg = Matrix::default();
            layer.forward_inner_into(&topo.graph, &h_inner, true, &mut rng_seg, &mut cache);
            layer.forward_boundary_into(
                &topo.graph,
                &mut cache,
                arena.boundary(),
                &topo.row_scale,
                true,
                &mut rng_seg,
                &mut scratch,
                &mut out_seg,
            );
            assert_bitwise(&out_fused, &out_seg, "segmented forward");

            // Gradient exchange: peers' scatter-add contributions must
            // land identically whichever order their blocks arrive in.
            let d_bd = Matrix::random_normal(n_sel, d, 0.0, 1.0, &mut data_rng);
            let base = Matrix::random_normal(n_in, d, 0.0, 1.0, &mut data_rng);
            let mut g_serial = base.clone();
            exchange_gradients_serial(&mut comm, &ex, &mut g_serial, &d_bd, scale, tag + 2);
            let mut g_ovl = base;
            block_on(exchange_gradients(
                &mut comm,
                &ex,
                Some(&mut g_ovl),
                &d_bd,
                scale,
                tag + 3,
                &mut arena,
                None,
                WirePrecision::Exact,
                0,
            ));
            assert_bitwise(&g_serial, &g_ovl, "gradient exchange");
        }
        true
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn overlapped_exchange_is_bitwise_serial(
        k in 2usize..5,
        p in 0.0f64..=1.0,
        seed in 0u64..1000,
        threads_idx in 0usize..3,
    ) {
        check_world(k, p, seed, [1, 2, 4][threads_idx]);
    }

    /// p = 0 (nothing selected) and p = 1 (everything selected) are the
    /// exchange's degenerate/maximal cases; pin them explicitly.
    #[test]
    fn overlapped_exchange_static_endpoints(
        k in 2usize..5,
        seed in 0u64..1000,
    ) {
        check_world(k, 0.0, seed, 2);
        check_world(k, 1.0, seed, 2);
    }
}

/// Whole-run determinism through the overlapped engine: identical
/// configs give bit-identical loss curves, including the pipelined
/// (stale-exchange) path.
#[test]
fn training_curves_are_run_to_run_deterministic() {
    let ds = Arc::new(SyntheticSpec::reddit_sim().with_nodes(300).generate(9));
    let part = RandomPartitioner.partition(&ds.graph, 3, 4);
    let plan = Arc::new(PartitionPlan::build(&ds, &part));
    for (p, pipeline) in [(0.5, false), (1.0, false), (1.0, true)] {
        let cfg = TrainConfig {
            arch: ModelArch::Sage,
            hidden: vec![12],
            dropout: 0.3,
            lr: 0.01,
            epochs: 4,
            sampling: BoundarySampling::Bns { p },
            eval_every: 2,
            seed: 11,
            clip_norm: Some(5.0),
            pipeline,
            workers: None,
            wire_precision: None,
        };
        let a = train_with_plan(&plan, &cfg);
        let b = train_with_plan(&plan, &cfg);
        for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(
                ea.loss.to_bits(),
                eb.loss.to_bits(),
                "p={p} pipeline={pipeline}: loss diverged between runs"
            );
            assert_eq!(
                ea.val_score.map(f64::to_bits),
                eb.val_score.map(f64::to_bits)
            );
        }
    }
}
