//! Steady-state batches allocate (almost) nothing: a shard keeps its
//! gathered features, layer outputs and layer temporaries across
//! batches, so once it has served a stream of batches, serving the same
//! stream again only allocates small bookkeeping (the request-order row
//! list and the `batch x classes` answer).
//!
//! A counting global allocator measures the bytes requested by the
//! second pass over a stream of batches. They must stay under 5% of the
//! gathered input features of that pass (closure rows x feature dim x
//! 4 bytes) — a shard that allocates its features and layer buffers
//! afresh per batch requests well over 100% of it. This holds for SAGE
//! and GCN; GAT's fused forward still allocates its temporaries.

use bns_data::SyntheticSpec;
use bns_gcn::engine::{ModelArch, TrainedModel};
use bns_partition::{MetisLikePartitioner, Partitioner};
use bns_serve::{CacheConfig, NodeMix, ServePlan};
use bns_tensor::SeededRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// One test, so no other test's allocations land in the counter.
#[test]
fn a_repeated_stream_allocates_under_five_percent_of_its_input() {
    const BATCH: usize = 32;
    let ds = SyntheticSpec::reddit_sim().with_nodes(1_500).generate(3);
    let part = MetisLikePartitioner::default().partition(&ds.graph, 2, 1);
    for arch in [ModelArch::Sage, ModelArch::Gcn] {
        let dims = [ds.feat_dim(), 16, ds.num_classes];
        let model = TrainedModel::new(arch, &dims, 0.0, &mut SeededRng::new(7));
        let plan = ServePlan::build(&ds, &part, model);
        let mut server = plan.shard(0, CacheConfig::default());
        let queries: Vec<u32> = NodeMix::DegreeProportional
            .sample(&ds.graph, 16 * BATCH, &mut SeededRng::new(11))
            .into_iter()
            .filter(|&v| plan.owner_of(v) == 0)
            .collect();
        let batches: Vec<&[u32]> = queries.chunks(BATCH).collect();
        for b in &batches {
            server.serve_batch(b);
        }
        let rows_before = server.row_stats().closure_rows;
        let before = BYTES.load(Ordering::Relaxed);
        for b in &batches {
            server.serve_batch(b);
        }
        let bytes = BYTES.load(Ordering::Relaxed) - before;
        let input = (server.row_stats().closure_rows - rows_before) * ds.feat_dim() as u64 * 4;
        let share = bytes as f64 / input as f64;
        println!(
            "{arch:?}: {} batches, {bytes} B allocated, {share:.4} of {input} B of input",
            batches.len()
        );
        assert!(
            share < 0.05,
            "{arch:?}: a repeated pass allocates {bytes} B, {:.1}% of its {input} B of gathered \
             input features (limit 5%)",
            100.0 * share
        );
    }
}
