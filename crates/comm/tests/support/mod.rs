//! Runs one rank future per endpoint of a fresh world on the
//! cooperative scheduler, the way the engine runs its rank programs.

use bns_comm::{create_world, RankComm};
use bns_runtime::{future_task, run_tasks, Task};
use std::future::Future;

/// Runs `rank(comm)` for every endpoint of a `k`-rank world as
/// `run_tasks` tasks on `workers` workers and returns the outputs in
/// rank order. A panic in any rank resurfaces here.
pub fn run_world<T, Fut>(k: usize, workers: usize, rank: impl Fn(RankComm) -> Fut) -> Vec<T>
where
    T: Send,
    Fut: Future<Output = T> + Send,
{
    let mut out: Vec<Option<T>> = (0..k).map(|_| None).collect();
    let tasks: Vec<Box<dyn Task + '_>> = create_world(k)
        .into_iter()
        .zip(&mut out)
        .map(|(comm, slot)| {
            let fut = rank(comm);
            future_task(async move { *slot = Some(fut.await) })
        })
        .collect();
    run_tasks(tasks, workers, |_| ());
    out.into_iter()
        .map(|o| o.expect("rank ran to completion"))
        .collect()
}
