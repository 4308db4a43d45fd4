//! Steady-state epochs allocate (almost) nothing: every rank owns its
//! layer buffers for the whole run and overwrites them each epoch, so
//! the only per-epoch allocations left are small bookkeeping (message
//! envelopes, worklists, pointer lists) and, under dynamic sampling,
//! the epoch's sampled topology.
//!
//! A counting global allocator measures the bytes requested by a run of
//! `E` epochs and one of `E + 4`; the difference is what the extra
//! epochs allocate. Each extra epoch must stay under 5% of the config's
//! activation memory (`epoch_activation_bytes`, summed over ranks) — a
//! build that allocates its activations afresh each epoch requests
//! more than 100% of it.

use bns_data::SyntheticSpec;
use bns_gcn::engine::{train_with_plan, ModelArch, TrainConfig};
use bns_gcn::plan::PartitionPlan;
use bns_gcn::sampling::BoundarySampling;
use bns_partition::{MetisLikePartitioner, Partitioner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Forwards to [`System`], counting every byte requested (a `realloc`
/// counts its new size: it may move the whole block).
struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s contract is upheld unchanged.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: callers uphold `GlobalAlloc`'s contract, passed on as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc`'s contract, passed on as is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc`'s contract, passed on as is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: callers uphold `GlobalAlloc`'s contract, passed on as is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes allocated by one training run, and the run's summed
/// activation memory.
fn run_bytes(plan: &Arc<PartitionPlan>, cfg: &TrainConfig) -> (u64, u64) {
    let before = BYTES.load(Ordering::Relaxed);
    let run = train_with_plan(plan, cfg);
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    (bytes, run.peak_mem_per_rank.iter().sum())
}

/// One test, so no other test's allocations land in the counter.
#[test]
fn extra_epochs_allocate_under_five_percent_of_activation_memory() {
    const E: usize = 6;
    const EXTRA: usize = 4;
    let ds = Arc::new(SyntheticSpec::reddit_sim().with_nodes(1_200).generate(3));
    for k in [2usize, 4] {
        let part = MetisLikePartitioner::default().partition(&ds.graph, k, 1);
        let plan = Arc::new(PartitionPlan::build(&ds, &part));
        for p in [1.0, 0.3] {
            let cfg = TrainConfig {
                arch: ModelArch::Sage,
                hidden: vec![32, 32],
                dropout: 0.5,
                epochs: E,
                eval_every: 0,
                sampling: BoundarySampling::Bns { p },
                workers: Some(2),
                ..TrainConfig::quick_test()
            };
            let (short, act) = run_bytes(&plan, &cfg);
            let long_cfg = TrainConfig {
                epochs: E + EXTRA,
                ..cfg
            };
            let (long, _) = run_bytes(&plan, &long_cfg);
            let per_epoch = long.saturating_sub(short) / EXTRA as u64;
            let share = per_epoch as f64 / act as f64;
            println!("k {k} p {p}: {per_epoch} B per extra epoch, {share:.4} of {act} B");
            assert!(
                share < 0.05,
                "k {k} p {p}: each extra epoch allocates {per_epoch} B, {:.1}% of the {act} B \
                 activation memory (limit 5%)",
                100.0 * share
            );
        }
    }
}
