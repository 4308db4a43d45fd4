//! Per-epoch boundary communication: the epoch's traffic plan
//! ([`EpochExchange`]), the serial reference feature/gradient exchange,
//! and the overlap-capable, allocation-free exchange the engine's hot
//! path uses.
//!
//! ## Selection without a message
//!
//! Algorithm 1 has each partition sample its boundary nodes and then
//! broadcast the selection so that owners know which rows to send.
//! Here the selection is a counter hash of (run seed, epoch, receiver,
//! node) — [`BoundarySampling::keeps`] — that the owner evaluates over
//! its send list exactly as the receiver evaluates it over its boundary
//! list, so [`EpochExchange::rebuild`] derives both directions locally.
//! The first feature send of an epoch waits on no peer.
//!
//! ## Overlap architecture
//!
//! The serial path ([`exchange_features_serial`]) blocks on peers in
//! fixed owner order and materializes the halo as `vstack(h_inner,
//! h_bd)` — a full copy of the inner activation matrix per layer. The
//! overlapped path splits that into [`send_boundary_rows`] (issue all
//! sends, non-blocking) and [`recv_boundary_blocks`] (await arrivals
//! with [`RankComm::poll_recv_any`]), so the engine can run the
//! inner-edge partial aggregation between the two while boundary blocks
//! are in flight.
//!
//! Every operation that waits on peers ([`recv_boundary_blocks`],
//! [`exchange_gradients`]) is an `async fn`.
//! The engine's rank program awaits them on the cooperative scheduler,
//! where a rank with nothing to receive parks and frees its worker;
//! tests and benches drive the same futures with
//! `bns_runtime::block_on`.
//!
//! ## Determinism
//!
//! Blocks are *received* in arrival order but *written* to fixed,
//! disjoint row ranges of the boundary block (and gradient blocks are
//! *applied* in fixed ascending peer order), so the result is bitwise
//! identical to the serial path no matter which peer delivers first.
//! The proptests in `tests/overlap_determinism.rs` enforce this.
//!
//! ## Allocation-freedom
//!
//! [`ExchangeArena`] recycles every `Vec<f32>` that arrives as a
//! message payload into a free list used for subsequent gather/send
//! staging, and reuses the boundary-block matrix capacity across layers
//! and epochs. In steady state the per-layer comm path performs no
//! heap allocation; `comm.arena.*` counters report bytes reused vs
//! freshly allocated.
//!
//! ## Wire precision
//!
//! Every overlapped send/recv takes a [`WirePrecision`]. `Exact` is the
//! historical raw-f32 path, byte for byte. The quantized modes pack the
//! staged rows through the `bns_tensor::simd::codec` kernels into
//! `Vec<u8>` payloads — so [`bns_comm::TrafficStats`] and the α–β cost
//! model automatically see the *compressed* volume — and unpack on
//! arrival (features fold `feature_scale` into the dequant pass; the
//! gradient return path packs with seeded, per-row **stochastic
//! rounding** and dequantizes into the same staging slots the exact
//! path uses, so the fixed-order scatter-add downstream is untouched).
//! The serial reference functions stay exact-only. See DESIGN.md §13.

use crate::plan::LocalPartition;
use crate::sampling::BoundarySampling;
use bns_comm::{RankComm, TrafficClass, WirePrecision};
use bns_tensor::simd::{self, codec};
use bns_tensor::Matrix;
use std::future::poll_fn;
use std::ops::Range;

/// One epoch's boundary traffic plan: what to send to and expect from
/// each peer. Built locally on both ends of every boundary from the
/// same pure selection rule ([`BoundarySampling::keeps`]), so no rank
/// tells another what it selected.
#[derive(Debug, Clone, Default)]
pub struct EpochExchange {
    /// For each peer `j`: local inner rows to send each layer.
    pub rows_to_send: Vec<Vec<usize>>,
    /// Per-owner ranges into this rank's selected-boundary list (the
    /// row ranges of the boundary block each owner fills).
    pub owner_sel: Vec<(usize, Range<usize>)>,
}

impl EpochExchange {
    /// Rebuilds the exchange for `epoch` in place, reusing its buffers.
    /// `selected` is this rank's own selection (the epoch topology's);
    /// each peer's is re-derived here: the rows sent to `j` are the
    /// entries of `send_lists[j]` that [`BoundarySampling::keeps`]
    /// selects with `j` as the receiver — the cut edges of an edge
    /// strategy read from this rank's own `local_graph` row — which is
    /// exactly what `j` selected from this rank's owner range.
    pub fn rebuild(
        &mut self,
        lp: &LocalPartition,
        sampling: &BoundarySampling,
        epoch: usize,
        seed: u64,
        selected: &[usize],
    ) {
        let n_in = lp.n_inner();
        let at = |pos| selected.partition_point(|&p| p < pos);
        self.owner_sel.clear();
        for (owner, &(s, e)) in lp.owner_ranges.iter().enumerate() {
            if owner != lp.rank {
                self.owner_sel.push((owner, at(s)..at(e)));
            }
        }
        self.rows_to_send
            .resize_with(lp.owner_ranges.len(), Vec::new);
        for (j, rows) in self.rows_to_send.iter_mut().enumerate() {
            // The local ids of the boundary nodes `j` owns.
            let (s, e) = lp.owner_ranges[j];
            let owned_by_j = n_in + s..n_in + e;
            rows.clear();
            rows.extend(lp.send_lists[j].iter().copied().filter(|&v| {
                let cut = lp.local_graph.neighbors(v).iter().map(|&x| x as usize);
                let cut = cut
                    .filter(|x| owned_by_j.contains(x))
                    .map(|x| lp.boundary[x - n_in]);
                sampling.keeps(seed, epoch, j, lp.inner[v], cut)
            }));
        }
    }

    /// True when this rank neither sends nor receives boundary rows.
    pub fn is_trivial(&self) -> bool {
        self.owner_sel.iter().all(|(_, r)| r.is_empty())
            && self.rows_to_send.iter().all(|r| r.is_empty())
    }
}

/// Reusable per-rank buffers for the overlapped exchange, plus overlap
/// telemetry. One arena lives for the whole training run; buffers are
/// recycled across layers and epochs.
#[derive(Debug, Default)]
pub struct ExchangeArena {
    /// The received (scaled) boundary block for the current layer.
    h_bd: Matrix,
    /// Recycled payload buffers, reused for gather/send staging.
    free: Vec<Vec<f32>>,
    /// Recycled quantized wire buffers (pack staging and received
    /// payloads).
    free_u8: Vec<Vec<u8>>,
    /// Reusable per-peer gradient staging slots.
    grad_slots: Vec<Vec<f32>>,
    /// Bytes served from the free list.
    pub bytes_reused: u64,
    /// Bytes that needed a fresh allocation.
    pub bytes_alloc: u64,
    /// Boundary/gradient blocks received in total.
    pub blocks: u64,
    /// Blocks serviced ahead of a lower-ranked owner still in flight —
    /// receives the serial path would have head-of-line blocked on.
    pub out_of_order_blocks: u64,
}

/// Bound on recycled buffers kept around (layer dims recur every epoch,
/// so a small pool reaches steady state quickly).
const ARENA_MAX_FREE: usize = 32;

impl ExchangeArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The boundary block assembled by the latest
    /// [`recv_boundary_blocks`] call.
    pub fn boundary(&self) -> &Matrix {
        &self.h_bd
    }

    /// A zeroed buffer of exactly `len` floats, served from the free
    /// list when a large-enough recycled buffer exists.
    fn take_buf(&mut self, len: usize) -> Vec<f32> {
        if let Some(pos) = self.free.iter().position(|b| b.capacity() >= len) {
            let mut buf = self.free.swap_remove(pos);
            self.bytes_reused += 4 * len as u64;
            buf.clear();
            buf.resize(len, 0.0);
            return buf;
        }
        self.bytes_alloc += 4 * len as u64;
        vec![0.0; len]
    }

    /// Returns a payload buffer to the free list.
    fn recycle(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 && self.free.len() < ARENA_MAX_FREE {
            self.free.push(buf);
        }
    }

    /// A zeroed wire buffer of exactly `len` bytes, recycled like
    /// [`ExchangeArena::take_buf`].
    fn take_u8(&mut self, len: usize) -> Vec<u8> {
        if let Some(pos) = self.free_u8.iter().position(|b| b.capacity() >= len) {
            let mut buf = self.free_u8.swap_remove(pos);
            self.bytes_reused += len as u64;
            buf.clear();
            buf.resize(len, 0);
            return buf;
        }
        self.bytes_alloc += len as u64;
        vec![0; len]
    }

    /// Returns a wire buffer to the free list.
    fn recycle_u8(&mut self, buf: Vec<u8>) {
        if buf.capacity() > 0 && self.free_u8.len() < ARENA_MAX_FREE {
            self.free_u8.push(buf);
        }
    }

    /// Resets the boundary block to a zeroed `rows x cols` matrix,
    /// reusing its existing capacity.
    fn reset_h_bd(&mut self, rows: usize, cols: usize) {
        let mut data = std::mem::take(&mut self.h_bd).into_vec();
        data.clear();
        data.resize(rows * cols, 0.0);
        self.h_bd = Matrix::from_vec(rows, cols, data);
    }

    /// Flushes the arena's counters to telemetry (call once per rank at
    /// the end of a run).
    pub fn flush_counters(&self) {
        bns_telemetry::counter_add("comm.arena.bytes_reused", self.bytes_reused);
        bns_telemetry::counter_add("comm.arena.bytes_alloc", self.bytes_alloc);
        bns_telemetry::counter_add("comm.overlap.blocks", self.blocks);
        bns_telemetry::counter_add("comm.overlap.out_of_order_blocks", self.out_of_order_blocks);
    }
}

/// A received boundary/gradient payload: raw f32 rows (`Exact`) or a
/// quantized wire buffer to run through the codec.
enum BlockPayload {
    Exact(Vec<f32>),
    Wire(Vec<u8>),
}

/// Packs a staged f32 block into a recycled wire buffer under a
/// non-exact precision. `sr` selects the stochastic-rounding kernels
/// (the gradient path) with the given per-destination stream seed.
fn pack_block(
    arena: &mut ExchangeArena,
    src: &[f32],
    d: usize,
    precision: WirePrecision,
    sr: Option<u64>,
) -> Vec<u8> {
    let rows = src.len() / d;
    let mut wire = arena.take_u8(precision.payload_bytes(rows, d));
    let bk = simd::begin_kernel();
    match (precision, sr) {
        (WirePrecision::F16, None) => codec::pack_f16(bk, &mut wire, src),
        (WirePrecision::F16, Some(seed)) => codec::pack_f16_sr(bk, &mut wire, src, d, seed),
        (WirePrecision::Bf16, None) => codec::pack_bf16(bk, &mut wire, src),
        (WirePrecision::Bf16, Some(seed)) => codec::pack_bf16_sr(bk, &mut wire, src, d, seed),
        (WirePrecision::Int8, None) => codec::pack_int8(bk, &mut wire, src, d),
        (WirePrecision::Int8, Some(seed)) => codec::pack_int8_sr(bk, &mut wire, src, d, seed),
        (WirePrecision::Exact, _) => unreachable!("exact payloads are sent unpacked"),
    }
    wire
}

/// Dequantizes a received wire buffer into `dst`, multiplying by
/// `scale` (the feature path folds `feature_scale` in here; the
/// gradient path passes `1.0` because its sends are pre-scaled).
fn unpack_block(dst: &mut [f32], wire: &[u8], d: usize, scale: f32, precision: WirePrecision) {
    let bk = simd::begin_kernel();
    match precision {
        WirePrecision::F16 => codec::unpack_f16(bk, dst, wire, scale),
        WirePrecision::Bf16 => codec::unpack_bf16(bk, dst, wire, scale),
        WirePrecision::Int8 => codec::unpack_int8(bk, dst, wire, d, scale),
        WirePrecision::Exact => unreachable!("exact payloads arrive unpacked"),
    }
}

/// Serial reference exchange (the bitwise ground truth the overlapped
/// path is tested against): sends the
/// requested feature rows to every peer, receives blocks in fixed owner
/// order, and returns the stacked `vstack(h_inner, h_bd)`.
pub fn exchange_features_serial(
    comm: &mut RankComm,
    ex: &EpochExchange,
    h_inner: &Matrix,
    n_selected: usize,
    feature_scale: f32,
    tag: u64,
) -> Matrix {
    let d = h_inner.cols();
    for (j, rows) in ex.rows_to_send.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        let block = h_inner.gather_rows(rows);
        comm.send(j, tag, block.into_vec(), TrafficClass::Boundary);
    }
    let mut h_bd = Matrix::zeros(n_selected, d);
    for (owner, range) in &ex.owner_sel {
        if range.is_empty() {
            continue;
        }
        let data: Vec<f32> = comm.recv(*owner, tag);
        debug_assert_eq!(data.len(), range.len() * d);
        h_bd.as_mut_slice()[range.start * d..range.end * d].copy_from_slice(&data);
    }
    if feature_scale != 1.0 {
        h_bd.scale(feature_scale);
    }
    h_inner.vstack(&h_bd)
}

/// Serial reference gradient exchange: sends boundary-row gradients
/// back to their owners (scaled by `feature_scale`, the chain rule
/// through the `H/p` rescale) and accumulates peers' contributions in
/// fixed ascending peer order.
pub fn exchange_gradients_serial(
    comm: &mut RankComm,
    ex: &EpochExchange,
    d_inner: &mut Matrix,
    d_bd: &Matrix,
    feature_scale: f32,
    tag: u64,
) {
    let d = d_inner.cols();
    for (owner, range) in &ex.owner_sel {
        if range.is_empty() {
            continue;
        }
        let mut block: Vec<f32> = d_bd.as_slice()[range.start * d..range.end * d].to_vec();
        if feature_scale != 1.0 {
            for x in &mut block {
                *x *= feature_scale;
            }
        }
        comm.send(*owner, tag, block, TrafficClass::Boundary);
    }
    for (j, rows) in ex.rows_to_send.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        let data: Vec<f32> = comm.recv(j, tag);
        let block = Matrix::from_vec(rows.len(), d, data);
        d_inner.scatter_add_rows(rows, &block);
    }
}

/// Overlapped-path phase 1: stages the requested feature rows into
/// arena buffers and issues every send. Returns immediately (sends are
/// non-blocking); call [`recv_boundary_blocks`] after running whatever
/// compute should overlap the transfer.
///
/// Non-exact precisions pack the staged rows (round-to-nearest-even —
/// the feature path is deterministic, no stochastic rounding) and send
/// the wire buffer instead, so the traffic counters record the
/// compressed size.
pub fn send_boundary_rows(
    comm: &mut RankComm,
    ex: &EpochExchange,
    h_inner: &Matrix,
    tag: u64,
    arena: &mut ExchangeArena,
    precision: WirePrecision,
) {
    let d = h_inner.cols();
    for (j, rows) in ex.rows_to_send.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        let mut buf = arena.take_buf(rows.len() * d);
        for (chunk, &r) in buf.chunks_exact_mut(d).zip(rows) {
            chunk.copy_from_slice(h_inner.row(r));
        }
        if precision == WirePrecision::Exact {
            comm.send(j, tag, buf, TrafficClass::Boundary);
        } else {
            let wire = pack_block(arena, &buf, d, precision, None);
            arena.recycle(buf);
            comm.send(j, tag, wire, TrafficClass::Boundary);
        }
    }
}

/// Awaits the next boundary or gradient block from any of `from`, in
/// arrival order, and counts it as overlapped (`comm.recv_any_ready`:
/// it had landed by the time it was asked for) or waited for
/// (`comm.recv_any_waited`: the rank parked first).
async fn next_block(
    comm: &mut RankComm,
    tag: u64,
    from: &[usize],
    precision: WirePrecision,
) -> (usize, BlockPayload) {
    let mut waited = false;
    let block = poll_fn(|cx| {
        let polled = if precision == WirePrecision::Exact {
            comm.poll_recv_any::<Vec<f32>>(cx, tag, from)
                .map(|(s, v)| (s, BlockPayload::Exact(v)))
        } else {
            comm.poll_recv_any::<Vec<u8>>(cx, tag, from)
                .map(|(s, v)| (s, BlockPayload::Wire(v)))
        };
        waited |= polled.is_pending();
        polled
    })
    .await;
    bns_telemetry::counter_add(
        if waited {
            "comm.recv_any_waited"
        } else {
            "comm.recv_any_ready"
        },
        1,
    );
    block
}

/// Overlapped-path phase 2: receives boundary blocks in **arrival**
/// order into their fixed disjoint row ranges of the arena's boundary
/// block, applying `feature_scale` during the copy — bitwise identical
/// to receive-in-owner-order + whole-matrix scale, with no head-of-line
/// blocking. Received payload buffers are recycled into the arena.
/// `precision` must match what the peers passed to
/// [`send_boundary_rows`]: it decides the payload type received.
///
/// With `stale` (PipeGCN pipelining), the fresh block is swapped into
/// the cache and the *previous* epoch's block becomes current (first
/// epoch: fresh is used directly and cached). Access the result via
/// [`ExchangeArena::boundary`].
#[allow(clippy::too_many_arguments)]
pub async fn recv_boundary_blocks(
    comm: &mut RankComm,
    ex: &EpochExchange,
    n_selected: usize,
    d: usize,
    feature_scale: f32,
    tag: u64,
    arena: &mut ExchangeArena,
    stale: Option<&mut Option<Matrix>>,
    precision: WirePrecision,
) {
    arena.reset_h_bd(n_selected, d);
    let mut remaining: Vec<usize> = ex
        .owner_sel
        .iter()
        .filter(|(_, r)| !r.is_empty())
        .map(|(o, _)| *o)
        // bns-allow(BNS-A005): pending-owner worklist, once per epoch, world-size bounded
        .collect();
    while !remaining.is_empty() {
        let (src, payload) = next_block(comm, tag, &remaining, precision).await;
        arena.blocks += 1;
        if src != remaining[0] {
            arena.out_of_order_blocks += 1;
        }
        remaining.retain(|&o| o != src);
        let range = &ex
            .owner_sel
            .iter()
            .find(|(o, _)| *o == src)
            .expect("unexpected source")
            .1;
        let dst = &mut arena.h_bd.as_mut_slice()[range.start * d..range.end * d];
        match payload {
            BlockPayload::Exact(data) => {
                debug_assert_eq!(data.len(), range.len() * d);
                if feature_scale != 1.0 {
                    for (a, b) in dst.iter_mut().zip(&data) {
                        *a = b * feature_scale;
                    }
                } else {
                    dst.copy_from_slice(&data);
                }
                arena.recycle(data);
            }
            BlockPayload::Wire(wire) => {
                debug_assert_eq!(wire.len(), precision.payload_bytes(range.len(), d));
                unpack_block(dst, &wire, d, feature_scale, precision);
                arena.recycle_u8(wire);
            }
        }
    }
    swap_boundary_stale(arena, stale);
}

/// The PipeGCN staleness swap applied after a boundary receive
/// completes: the fresh block is cached and the previous epoch's block
/// becomes current (first epoch: fresh is used directly and cached).
/// `stale = None` is a no-op.
fn swap_boundary_stale(arena: &mut ExchangeArena, stale: Option<&mut Option<Matrix>>) {
    if let Some(cache) = stale {
        match cache.take() {
            Some(mut prev) => {
                std::mem::swap(&mut arena.h_bd, &mut prev);
                *cache = Some(prev);
            }
            None => {
                // Every later epoch swaps buffers instead of cloning.
                // bns-allow(BNS-A005): one-time seed of the stale-boundary cache
                *cache = Some(arena.h_bd.clone());
            }
        }
    }
}

/// Overlapped gradient exchange: issues all sends (scaled by
/// `feature_scale`, the chain rule through the `H/p` rescale, into
/// arena buffers), receives peers' contributions in arrival order into
/// per-peer staging slots, then applies them to `d_inner` in **fixed
/// ascending peer order** — the scatter-add targets of different peers
/// can overlap, so arrival-order application would not be
/// deterministic.
///
/// With `stale` (PipeGCN), fresh contributions are cached per peer and
/// the previous epoch's are applied instead (first epoch applies
/// fresh).
///
/// `d_inner = None` (the first layer, whose input gradient nobody
/// reads) still sends every block and receives and drains every peer's
/// — the same messages and bytes, and the same stale cache — and skips
/// only the scatter-add.
///
/// Non-exact precisions pack each scaled block with stochastic
/// rounding. The per-destination stream seed is
/// `codec::rand_at(sr_seed, tag, owner)` — `tag` already encodes epoch
/// and layer, so every (epoch, layer, destination) block gets an
/// independent stream that is a pure function of the run seed, bitwise
/// reproducible at any thread/worker/lane count.
#[allow(clippy::too_many_arguments)]
pub async fn exchange_gradients(
    comm: &mut RankComm,
    ex: &EpochExchange,
    mut d_inner: Option<&mut Matrix>,
    d_bd: &Matrix,
    feature_scale: f32,
    tag: u64,
    arena: &mut ExchangeArena,
    stale: Option<&mut Option<Vec<Vec<f32>>>>,
    precision: WirePrecision,
    sr_seed: u64,
) {
    let d = d_bd.cols();
    for (owner, range) in &ex.owner_sel {
        if range.is_empty() {
            continue;
        }
        let mut buf = arena.take_buf(range.len() * d);
        let src = &d_bd.as_slice()[range.start * d..range.end * d];
        if feature_scale != 1.0 {
            for (a, b) in buf.iter_mut().zip(src) {
                *a = b * feature_scale;
            }
        } else {
            buf.copy_from_slice(src);
        }
        if precision == WirePrecision::Exact {
            comm.send(*owner, tag, buf, TrafficClass::Boundary);
        } else {
            let stream = codec::rand_at(sr_seed, tag, *owner as u64);
            let wire = pack_block(arena, &buf, d, precision, Some(stream));
            arena.recycle(buf);
            comm.send(*owner, tag, wire, TrafficClass::Boundary);
        }
    }
    let mut slots = std::mem::take(&mut arena.grad_slots);
    slots.resize_with(comm.world_size(), Vec::new);
    let mut remaining: Vec<usize> = ex
        .rows_to_send
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_empty())
        .map(|(j, _)| j)
        // bns-allow(BNS-A005): pending-peer worklist, once per epoch, world-size bounded
        .collect();
    while !remaining.is_empty() {
        let (src, payload) = next_block(comm, tag, &remaining, precision).await;
        arena.blocks += 1;
        if src != remaining[0] {
            arena.out_of_order_blocks += 1;
        }
        remaining.retain(|&j| j != src);
        let rows = ex.rows_to_send[src].len();
        slots[src] = match payload {
            BlockPayload::Exact(data) => {
                debug_assert_eq!(data.len(), rows * d);
                data
            }
            BlockPayload::Wire(wire) => {
                // Dequantize into an f32 staging slot so the fixed-order
                // scatter-add below (and the PipeGCN stale cache) are
                // precision-agnostic.
                debug_assert_eq!(wire.len(), precision.payload_bytes(rows, d));
                let mut data = arena.take_buf(rows * d);
                unpack_block(&mut data, &wire, d, 1.0, precision);
                arena.recycle_u8(wire);
                data
            }
        };
    }
    // Applies the per-peer blocks `data` to `d_inner` in ascending
    // peer order.
    let mut apply = |data: &[Vec<f32>]| {
        if let Some(d_inner) = d_inner.as_deref_mut() {
            for (rows, block) in ex.rows_to_send.iter().zip(data) {
                if !rows.is_empty() {
                    d_inner.scatter_add_rows_slice(rows, block);
                }
            }
        }
    };
    match stale {
        None => {
            apply(&slots);
            for (rows, data) in ex.rows_to_send.iter().zip(&mut slots) {
                if !rows.is_empty() {
                    arena.recycle(std::mem::take(data));
                }
            }
            arena.grad_slots = slots;
        }
        Some(cache) => {
            match cache.take() {
                Some(prev) => {
                    apply(&prev);
                    for buf in prev {
                        arena.recycle(buf);
                    }
                }
                None => apply(&slots),
            }
            *cache = Some(slots);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PartitionPlan;
    use crate::sampling::build_epoch_topology;
    use bns_data::SyntheticSpec;
    use bns_partition::{Partitioner, RandomPartitioner};

    /// Both ends of every boundary derive the same selection: the rows
    /// an owner sends each peer are exactly the peer's selected
    /// positions in the owner's range, mapped through `send_lists`, and
    /// the peer expects them in the matching `owner_sel` range.
    #[test]
    fn owner_and_receiver_agree_on_the_selection() {
        let ds = SyntheticSpec::reddit_sim().with_nodes(400).generate(5);
        let strategies = [
            BoundarySampling::Bns { p: 0.1 },
            BoundarySampling::Bns { p: 0.37 },
            BoundarySampling::Bns { p: 0.5 },
            BoundarySampling::BnsUnscaled { p: 0.1 },
            BoundarySampling::BnsUnscaled { p: 0.37 },
            BoundarySampling::BnsUnscaled { p: 0.5 },
            BoundarySampling::BoundaryEdge { keep: 0.4 },
            BoundarySampling::DropEdge { keep: 0.7 },
        ];
        for k in [2usize, 3, 5] {
            let part = RandomPartitioner.partition(&ds.graph, k, k as u64);
            let plan = PartitionPlan::build(&ds, &part);
            for sampling in &strategies {
                let (mut kept, mut total) = (0usize, 0usize);
                for epoch in 0..4 {
                    let seed = 0x5eed + k as u64;
                    let topos: Vec<_> = plan
                        .parts
                        .iter()
                        .map(|lp| build_epoch_topology(lp, sampling, epoch, seed))
                        .collect();
                    let exs: Vec<_> = plan
                        .parts
                        .iter()
                        .zip(&topos)
                        .map(|(lp, t)| {
                            let mut ex = EpochExchange::default();
                            ex.rebuild(lp, sampling, epoch, seed, &t.selected);
                            ex
                        })
                        .collect();
                    for (j, receiver) in plan.parts.iter().enumerate() {
                        kept += topos[j].selected.len();
                        total += receiver.n_boundary();
                        for (i, owner) in plan.parts.iter().enumerate().filter(|&(i, _)| i != j) {
                            let (s, e) = receiver.owner_ranges[i];
                            let picked: Vec<usize> = topos[j]
                                .selected
                                .iter()
                                .filter(|&&pos| (s..e).contains(&pos))
                                .map(|&pos| owner.send_lists[j][pos - s])
                                .collect();
                            let label = sampling.label();
                            assert_eq!(
                                exs[i].rows_to_send[j], picked,
                                "{label} k={k} epoch {epoch}: owner {i} -> receiver {j}"
                            );
                            let range = &exs[j].owner_sel.iter().find(|(o, _)| *o == i).unwrap().1;
                            assert_eq!(range.len(), picked.len(), "{label} k={k} epoch {epoch}");
                            assert!(topos[j].selected[range.clone()]
                                .iter()
                                .all(|p| (s..e).contains(p)));
                        }
                    }
                }
                // Every strategy here samples: some nodes kept, some not.
                assert!(
                    0 < kept && kept < total,
                    "{} k={k}: {kept}/{total}",
                    sampling.label()
                );
            }
        }
    }
}
