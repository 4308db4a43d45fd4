//! Serial vs overlapped boundary-exchange benchmarks at 2/4/8 ranks.
//!
//! Each iteration runs a full simulated world (`run_ranks`) in which
//! every rank performs one feature exchange per "layer" plus the
//! aggregation compute that the overlapped path hides behind the
//! transfer: the serial variant exchanges first and aggregates after
//! (the pre-overlap engine structure), the overlapped variant issues
//! sends, runs the inner-edge partial while blocks are in flight, then
//! folds boundary contributions as they arrive.

use bns_comm::{run_ranks, WirePrecision};
use bns_data::SyntheticSpec;
use bns_gcn::exchange::{
    exchange_features_serial, recv_boundary_blocks, send_boundary_rows, EpochExchange,
    ExchangeArena,
};
use bns_gcn::plan::PartitionPlan;
use bns_gcn::sampling::{build_epoch_topology, BoundarySampling, EpochTopology};
use bns_nn::aggregate::{
    scaled_sum_aggregate, scaled_sum_aggregate_inner, scaled_sum_fold_boundary,
};
use bns_runtime::block_on;
use bns_tensor::{Matrix, SeededRng};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

const DIM: usize = 64;
const LAYERS: usize = 3;

fn rank_state(plan: &PartitionPlan, me: usize) -> (EpochTopology, EpochExchange, Matrix) {
    let lp = &plan.parts[me];
    let mut rng = SeededRng::new(17).fork(me as u64 + 1);
    let full = BoundarySampling::Bns { p: 1.0 };
    let topo = build_epoch_topology(lp, &full, 0, 0);
    let mut ex = EpochExchange::default();
    ex.rebuild(lp, &full, 0, 0, &topo.selected);
    let h = Matrix::random_normal(lp.n_inner(), DIM, 0.0, 1.0, &mut rng);
    (topo, ex, h)
}

fn bench_exchange(c: &mut Criterion) {
    let ds = Arc::new(SyntheticSpec::reddit_sim().with_nodes(2_000).generate(1));
    for k in [2usize, 4, 8] {
        let part = {
            use bns_partition::Partitioner;
            bns_partition::MetisLikePartitioner::default().partition(&ds.graph, k, 0)
        };
        let plan = Arc::new(PartitionPlan::build(&ds, &part));

        let plan_s = Arc::clone(&plan);
        c.bench_function(&format!("exchange_serial_k{k}"), |bch| {
            bch.iter(|| {
                let plan = Arc::clone(&plan_s);
                let out = run_ranks(k, move |mut comm| {
                    let me = comm.rank();
                    let (topo, ex, h) = rank_state(&plan, me);
                    let n_in = plan.parts[me].n_inner();
                    let mut acc = 0.0f32;
                    for l in 0..LAYERS {
                        let h_full = exchange_features_serial(
                            &mut comm,
                            &ex,
                            &h,
                            topo.selected.len(),
                            topo.feature_scale,
                            1 + l as u64,
                        );
                        let z = scaled_sum_aggregate(&topo.graph, &h_full, n_in, &topo.row_scale);
                        acc += z.as_slice().first().copied().unwrap_or(0.0);
                    }
                    acc
                });
                black_box(out)
            });
        });

        let plan_o = Arc::clone(&plan);
        c.bench_function(&format!("exchange_overlapped_k{k}"), |bch| {
            bch.iter(|| {
                let plan = Arc::clone(&plan_o);
                let out = run_ranks(k, move |mut comm| {
                    let me = comm.rank();
                    let (topo, ex, h) = rank_state(&plan, me);
                    let n_in = plan.parts[me].n_inner();
                    let mut arena = ExchangeArena::new();
                    let mut acc = 0.0f32;
                    for l in 0..LAYERS {
                        send_boundary_rows(
                            &mut comm,
                            &ex,
                            &h,
                            1 + l as u64,
                            &mut arena,
                            WirePrecision::Exact,
                        );
                        let mut z = scaled_sum_aggregate_inner(&topo.graph, &h, n_in);
                        block_on(recv_boundary_blocks(
                            &mut comm,
                            &ex,
                            topo.selected.len(),
                            DIM,
                            topo.feature_scale,
                            1 + l as u64,
                            &mut arena,
                            None,
                            WirePrecision::Exact,
                        ));
                        scaled_sum_fold_boundary(
                            &topo.graph,
                            &mut z,
                            arena.boundary(),
                            n_in,
                            &topo.row_scale,
                        );
                        acc += z.as_slice().first().copied().unwrap_or(0.0);
                    }
                    acc
                });
                black_box(out)
            });
        });
    }
}

criterion_group!(
    name = exchange;
    config = Criterion::default().sample_size(10);
    targets = bench_exchange
);
criterion_main!(exchange);
