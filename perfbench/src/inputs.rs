//! Workload inputs: a synthetic graph, its partitioning and the
//! per-partition plan, each built and timed through the public API.

use bns_data::{Dataset, SyntheticSpec};
use bns_gcn::plan::PartitionPlan;
use bns_partition::{MetisLikePartitioner, Partitioner, Partitioning};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The generated inputs of one workload.
pub struct Inputs {
    pub ds: Arc<Dataset>,
    pub part: Partitioning,
    pub plan: Arc<PartitionPlan>,
}

/// Wall time of each set-up step, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub partition_s: f64,
    pub plan_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate_s + self.partition_s + self.plan_s
    }
}

/// Seed of every workload's graph, features, labels and partitioning.
///
/// A workload trains or serves one fixed dataset, as the paper's runs
/// do; the run's `--seed` drives everything stochastic on top of it:
/// model initialisation, dropout, boundary sampling and query streams.
/// Runs with different seeds therefore do the same amount of work, and
/// their spread measures the program and the host, not the generator.
pub const DATA_SEED: u64 = 2022;

/// Generates the dataset, partitions it METIS-like into `k` parts and
/// builds the partition plan.
pub fn build(spec: &SyntheticSpec, k: usize) -> (Inputs, SetupTimes) {
    let seed = DATA_SEED;
    let t = Instant::now();
    let ds = Arc::new(black_box(spec.generate(seed)));
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let part = black_box(MetisLikePartitioner::default().partition(&ds.graph, k, seed));
    let partition_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let plan = Arc::new(black_box(PartitionPlan::build(&ds, &part)));
    let plan_s = t.elapsed().as_secs_f64();
    (
        Inputs { ds, part, plan },
        SetupTimes {
            generate_s,
            partition_s,
            plan_s,
        },
    )
}

/// The largest number of rows one partition sends to one peer in a
/// layer: the shape of one boundary block on the wire.
pub fn largest_block_rows(plan: &PartitionPlan) -> usize {
    plan.parts
        .iter()
        .flat_map(|p| p.send_lists.iter().map(Vec::len))
        .max()
        .unwrap_or(1)
        .max(1)
}
