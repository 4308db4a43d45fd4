//! Overlapped boundary-exchange benchmarks at 2/4/8 ranks.
//!
//! Each iteration runs a full simulated world, one `run_tasks` task per
//! rank, in which every rank performs one feature exchange per "layer"
//! the way the engine does: it issues the sends, runs the inner-edge
//! partial aggregation while blocks are in flight, then folds boundary
//! contributions as they arrive.

use bns_comm::{create_world, RankComm, WirePrecision};
use bns_data::SyntheticSpec;
use bns_gcn::exchange::{recv_boundary_blocks, send_boundary_rows, EpochExchange, ExchangeArena};
use bns_gcn::plan::PartitionPlan;
use bns_gcn::sampling::{build_epoch_topology, BoundarySampling, EpochTopology};
use bns_nn::aggregate::{scaled_sum_aggregate_inner, scaled_sum_fold_boundary};
use bns_runtime::{future_task, run_tasks, Task, WorkerConfig};
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
        let plan = PartitionPlan::build(&ds, &part);
        c.bench_function(&format!("exchange_overlapped_k{k}"), |bch| {
            bch.iter(|| {
                let mut out = vec![0.0f32; k];
                let tasks: Vec<Box<dyn Task + '_>> = create_world(k)
                    .into_iter()
                    .zip(&mut out)
                    .map(|(comm, acc)| future_task(overlapped_rank(comm, &plan, acc)))
                    .collect();
                run_tasks(tasks, WorkerConfig::from_env().workers, |_| ());
                black_box(out)
            });
        });
    }
}

/// One rank's `LAYERS` overlapped exchanges, each with the inner-edge
/// partial aggregation running while the boundary blocks are in flight.
async fn overlapped_rank(mut comm: RankComm, plan: &PartitionPlan, acc: &mut f32) {
    let me = comm.rank();
    let (topo, ex, h) = rank_state(plan, me);
    let n_in = plan.parts[me].n_inner();
    let mut arena = ExchangeArena::new();
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
        recv_boundary_blocks(
            &mut comm,
            &ex,
            topo.selected.len(),
            DIM,
            topo.feature_scale,
            1 + l as u64,
            &mut arena,
            None,
            WirePrecision::Exact,
        )
        .await;
        scaled_sum_fold_boundary(&topo.graph, &mut z, arena.boundary(), n_in, &topo.row_scale);
        *acc += z.as_slice().first().copied().unwrap_or(0.0);
    }
}

criterion_group!(
    name = exchange;
    config = Criterion::default().sample_size(10);
    targets = bench_exchange
);
criterion_main!(exchange);
