//! Per-rank communication handles, point-to-point messaging and
//! collectives.

// The mailbox transport (channels, rank threads) goes through
// `crate::sync`, which resolves to `std` normally and to the vendored
// loom shims under `--cfg loom` so the protocol can be model-checked
// exhaustively (tests/loom_mailbox.rs).
use crate::sync::mpsc::{channel, Receiver, Sender};
use crate::sync::thread;
use crate::{TrafficClass, TrafficStats};
use std::any::Any;
use std::collections::VecDeque;
use std::future::poll_fn;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// Anything that can be sent between ranks with a well-defined wire size.
///
/// The wire size drives [`TrafficStats`]; it is the number of bytes the
/// payload would occupy on a real interconnect.
pub trait Wire: Send + 'static {
    /// Serialized size in bytes.
    fn wire_bytes(&self) -> usize;
}

impl<T: Copy + Send + 'static> Wire for Vec<T> {
    fn wire_bytes(&self) -> usize {
        std::mem::size_of::<T>() * self.len()
    }
}

struct Message {
    tag: u64,
    payload: Box<dyn Any + Send>,
    bytes: usize,
    /// Position in the sender's per-destination send order; drives the
    /// `debug_assertions`-gated per-`(source, tag)` FIFO delivery check.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    seq: u64,
}

/// A tagged message in flight: `(source rank, message)`.
type Envelope = (usize, Message);

/// Shared waker slot for one rank's inbox: the waker of the last
/// [`RankComm::poll_recv_any`] that came up empty. Senders hold clones
/// of the *destination's* slot and wake it after enqueuing.
/// Deliberately plain `std` sync even under `--cfg loom`: the loom
/// mailbox models use the blocking receives, which never register a
/// waker, and a modeled mutex here would only inflate the checked state
/// space (same policy as the telemetry counters, DESIGN.md §9).
type WakerCell = std::sync::Mutex<Option<Waker>>;

/// One outgoing edge of the mailbox mesh: the destination's inbox
/// sender plus the destination's waker slot.
struct Peer {
    tx: Sender<Envelope>,
    waker: Arc<WakerCell>,
}

/// One rank's endpoint in a simulated world of `world_size` ranks.
///
/// Create a full world with [`create_world`] or spawn threads directly
/// with [`run_ranks`]. Point-to-point messages are matched by `(source,
/// tag)`; collectives must be invoked by **all ranks in the same order**
/// (they synchronize internally via sequence-numbered tags).
///
/// Delivery uses a single shared inbox per rank (every peer holds a
/// clone of the same sender), so [`RankComm::recv_any`] can hand back
/// whichever peer's message lands first. Per-peer FIFO order is still
/// guaranteed: an mpsc channel preserves the send order of each
/// individual producer.
pub struct RankComm {
    rank: usize,
    world: usize,
    to_peer: Vec<Option<Peer>>,
    inbox: Receiver<Envelope>,
    /// This rank's own waker slot (peers hold clones via [`Peer`]).
    waker: Arc<WakerCell>,
    pending: Vec<VecDeque<Message>>,
    stats: TrafficStats,
    coll_seq: u64,
    /// The chunk buffer the last ring all-reduce ended holding, reused
    /// by the next one's first send.
    coll_spare: Vec<f32>,
    /// Per-destination count of messages sent (assigns `Message::seq`).
    send_seq: Vec<u64>,
    /// Highest `seq` delivered so far per `(source, tag)` stream, used
    /// by the FIFO invariant check. Only populated in debug builds.
    #[cfg(debug_assertions)]
    delivered_seq: std::collections::HashMap<(usize, u64), u64>,
    /// Bytes enqueued into peers' mailboxes (mailbox-side accounting).
    #[cfg(debug_assertions)]
    mailbox_bytes: u64,
    /// Bytes recorded into [`TrafficStats`] (stats-side accounting).
    /// Shadowed separately from the stats themselves because callers
    /// may reset those between epochs; the two shadow streams must
    /// agree byte-for-byte after every send.
    #[cfg(debug_assertions)]
    recorded_bytes: u64,
}

impl std::fmt::Debug for RankComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RankComm {{ rank: {}/{} }}", self.rank, self.world)
    }
}

/// Creates all `world_size` communication endpoints.
///
/// # Panics
///
/// Panics if `world_size == 0`.
pub fn create_world(world_size: usize) -> Vec<RankComm> {
    assert!(world_size > 0, "world_size must be positive");
    // One shared inbox (and waker slot) per rank; senders[i][j] carries
    // i -> j and is a clone of rank j's inbox sender.
    let mut senders: Vec<Vec<Option<Peer>>> = (0..world_size)
        .map(|_| (0..world_size).map(|_| None).collect())
        .collect();
    let mut inboxes: Vec<Receiver<Envelope>> = Vec::with_capacity(world_size);
    let mut wakers: Vec<Arc<WakerCell>> = Vec::with_capacity(world_size);
    for j in 0..world_size {
        let (s, r) = channel();
        let w: Arc<WakerCell> = Arc::new(std::sync::Mutex::new(None));
        inboxes.push(r);
        for (i, row) in senders.iter_mut().enumerate() {
            if i != j {
                row[j] = Some(Peer {
                    tx: s.clone(),
                    waker: Arc::clone(&w),
                });
            }
        }
        wakers.push(w);
    }
    senders
        .into_iter()
        .zip(inboxes)
        .zip(wakers)
        .enumerate()
        .map(|(rank, ((to_peer, inbox), waker))| RankComm {
            rank,
            world: world_size,
            to_peer,
            inbox,
            waker,
            pending: (0..world_size).map(|_| VecDeque::new()).collect(),
            stats: TrafficStats::new(),
            coll_seq: 0,
            coll_spare: Vec::new(),
            send_seq: vec![0; world_size],
            #[cfg(debug_assertions)]
            delivered_seq: std::collections::HashMap::new(),
            #[cfg(debug_assertions)]
            mailbox_bytes: 0,
            #[cfg(debug_assertions)]
            recorded_bytes: 0,
        })
        .collect()
}

/// Spawns one thread per rank, runs `f` on each, and returns the results
/// in rank order. Panics in any rank propagate.
pub fn run_ranks<T, F>(world_size: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(RankComm) -> T + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let comms = create_world(world_size);
    let handles: Vec<_> = comms
        .into_iter()
        .map(|comm| {
            let f = Arc::clone(&f);
            thread::spawn(move || {
                // One trace timeline (tid) per rank.
                bns_telemetry::set_thread_rank(comm.rank());
                f(comm)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("rank thread panicked"))
        .collect()
}

impl RankComm {
    /// This endpoint's rank id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn world_size(&self) -> usize {
        self.world
    }

    /// Traffic sent by this rank so far.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Mutable access to the traffic counters (to reset between epochs).
    pub fn stats_mut(&mut self) -> &mut TrafficStats {
        &mut self.stats
    }

    /// Sends `payload` to rank `to` with a user tag.
    ///
    /// User tags must be below `2^60`; higher tags are reserved for
    /// collectives.
    ///
    /// # Panics
    ///
    /// Panics on self-send, out-of-bounds rank, reserved tag, or if the
    /// peer has disconnected.
    pub fn send<T: Wire>(&mut self, to: usize, tag: u64, payload: T, class: TrafficClass) {
        assert!(tag < COLL_BASE, "tag {tag} is reserved for collectives");
        self.send_raw(to, tag, payload, class)
    }

    fn send_raw<T: Wire>(&mut self, to: usize, tag: u64, payload: T, class: TrafficClass) {
        assert!(to < self.world, "send to rank {to} out of bounds");
        assert_ne!(to, self.rank, "self-send is not allowed");
        let bytes = payload.wire_bytes();
        self.stats.record(class, bytes);
        #[cfg(debug_assertions)]
        {
            self.recorded_bytes += bytes as u64;
        }
        bns_telemetry::counter_add("comm.bytes_sent", bytes as u64);
        bns_telemetry::counter_add(class.counter_name(), bytes as u64);
        bns_telemetry::counter_add("comm.msgs_sent", 1);
        let seq = self.send_seq[to];
        self.send_seq[to] += 1;
        let msg = Message {
            tag,
            payload: Box::new(payload),
            bytes,
            seq,
        };
        #[cfg(debug_assertions)]
        {
            self.mailbox_bytes += msg.bytes as u64;
            // Exact byte agreement between the two accounting paths:
            // what TrafficStats recorded and what the mailbox carries.
            debug_assert_eq!(
                self.mailbox_bytes, self.recorded_bytes,
                "rank {}: mailbox accounting ({} B) diverged from TrafficStats ({} B)",
                self.rank, self.mailbox_bytes, self.recorded_bytes
            );
        }
        let peer = self.to_peer[to].as_ref().expect("sender missing");
        peer.tx.send((self.rank, msg)).expect("peer disconnected");
        // Wake the destination *after* the enqueue so a woken task is
        // guaranteed to observe the message on its next drain. The waker
        // is cloned out of the slot first, so no lock is held while
        // scheduler code runs.
        let cell = peer.waker.lock().unwrap_or_else(|e| e.into_inner());
        let waker = cell.clone();
        drop(cell);
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Receives the next message from rank `from` with tag `tag`,
    /// blocking until it arrives. Messages with other tags from the same
    /// peer are buffered.
    ///
    /// # Panics
    ///
    /// Panics on self-receive, out-of-bounds rank, payload type mismatch,
    /// or if the peer disconnected before sending.
    pub fn recv<T: Wire>(&mut self, from: usize, tag: u64) -> T {
        self.check_sources(&[from]);
        let msg = match self.take_pending(from, tag) {
            Some(msg) => msg,
            None => self.recv_blocking(|src, t| src == from && t == tag).1,
        };
        self.downcast_msg(msg, from, tag)
    }

    /// Receives a message with tag `tag` from **whichever** candidate in
    /// `from` delivers first, returning `(source, payload)`. Buffered
    /// (pending) messages win over fresh arrivals, scanned in `from`
    /// order; messages from other peers or with other tags are buffered
    /// as in [`RankComm::recv`].
    ///
    /// Emits `comm.recv_any_ready` when a match was already buffered
    /// (the wait was fully overlapped by compute) and
    /// `comm.recv_any_waited` when it had to block — the ratio of the
    /// two is the overlap hit rate.
    ///
    /// # Panics
    ///
    /// Panics if `from` is empty, contains this rank or an out-of-bounds
    /// rank, on payload type mismatch, or if a peer disconnected.
    pub fn recv_any<T: Wire>(&mut self, tag: u64, from: &[usize]) -> (usize, T) {
        self.check_sources(from);
        let (src, msg) = match self.take_pending_any(tag, from) {
            Some(found) => {
                bns_telemetry::counter_add("comm.recv_any_ready", 1);
                found
            }
            None => {
                bns_telemetry::counter_add("comm.recv_any_waited", 1);
                self.recv_blocking(|src, t| t == tag && from.contains(&src))
            }
        };
        (src, self.downcast_msg(msg, src, tag))
    }

    /// `debug_assertions`-gated delivery invariant: within one
    /// `(source, tag)` stream, messages must reach the application in
    /// strictly increasing send order. `seq` is numbered per
    /// destination across all tags, so within a stream it is monotone
    /// but not contiguous.
    #[cfg(debug_assertions)]
    fn note_delivery(&mut self, src: usize, msg: &Message) {
        use std::collections::hash_map::Entry;
        match self.delivered_seq.entry((src, msg.tag)) {
            Entry::Occupied(mut e) => {
                assert!(
                    msg.seq > *e.get(),
                    "rank {}: FIFO violation on (source {src}, tag {}): \
                     delivered seq {} after seq {}",
                    self.rank,
                    msg.tag,
                    msg.seq,
                    e.get()
                );
                e.insert(msg.seq);
            }
            Entry::Vacant(e) => {
                e.insert(msg.seq);
            }
        }
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn note_delivery(&mut self, _src: usize, _msg: &Message) {}

    /// Receive-side argument checks: a non-empty candidate list of
    /// in-bounds peers, never this rank.
    fn check_sources(&self, from: &[usize]) {
        assert!(!from.is_empty(), "recv_any needs at least one candidate");
        for &src in from {
            assert!(src < self.world, "recv from rank {src} out of bounds");
            assert_ne!(src, self.rank, "self-receive is not allowed");
        }
    }

    /// Blocks on the inbox until an envelope satisfying `wanted(source,
    /// tag)` arrives, buffering every other envelope into the pending
    /// queues on the way.
    fn recv_blocking(&mut self, wanted: impl Fn(usize, u64) -> bool) -> (usize, Message) {
        loop {
            let (src, msg) = self.inbox.recv().expect("peer disconnected");
            if wanted(src, msg.tag) {
                self.note_delivery(src, &msg);
                return (src, msg);
            }
            self.pending[src].push_back(msg);
        }
    }

    /// Pops the first pending message matching `(from, tag)`, if any.
    fn take_pending(&mut self, from: usize, tag: u64) -> Option<Message> {
        let pos = self.pending[from].iter().position(|m| m.tag == tag)?;
        let msg = self.pending[from].remove(pos).unwrap();
        self.note_delivery(from, &msg);
        Some(msg)
    }

    /// The first pending message with tag `tag`, scanning candidates in
    /// `from` order.
    fn take_pending_any(&mut self, tag: u64, from: &[usize]) -> Option<(usize, Message)> {
        from.iter()
            .find_map(|&src| self.take_pending(src, tag).map(|m| (src, m)))
    }

    /// Moves every queued inbox envelope into the per-source pending
    /// queues without blocking. Returns `true` if the channel is
    /// disconnected (all peers dropped) *and* fully drained.
    fn drain_inbox(&mut self) -> bool {
        use crate::sync::mpsc::TryRecvError;
        loop {
            match self.inbox.try_recv() {
                Ok((src, msg)) => self.pending[src].push_back(msg),
                Err(TryRecvError::Empty) => return false,
                Err(TryRecvError::Disconnected) => return true,
            }
        }
    }

    fn downcast_msg<T: Wire>(&self, msg: Message, from: usize, tag: u64) -> T {
        let bytes = msg.bytes;
        let v = *msg.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "rank {}: type mismatch receiving tag {tag} from {from}",
                self.rank
            )
        });
        // The type-erased transport must preserve accounted wire size.
        debug_assert_eq!(
            v.wire_bytes(),
            bytes,
            "rank {}: wire size changed in transit (tag {tag} from {from})",
            self.rank
        );
        v
    }

    /// Polls for a message with tag `tag` from **whichever** candidate
    /// in `from` delivers first: the asynchronous [`RankComm::recv_any`],
    /// on the same pending-queue matching (buffered messages win, in
    /// `from` order; everything else is buffered, never dropped).
    ///
    /// On an empty mailbox it registers `cx.waker()` in this rank's
    /// waker cell and drains the inbox once more before returning
    /// `Pending`, so a message a peer enqueues at any point either
    /// matches here or wakes the task. Await it through
    /// [`std::future::poll_fn`].
    ///
    /// # Panics
    ///
    /// Panics if `from` is empty, contains this rank or an out-of-bounds
    /// rank, on payload type mismatch, or if every peer disconnected
    /// with no match queued.
    pub fn poll_recv_any<T: Wire>(
        &mut self,
        cx: &mut Context<'_>,
        tag: u64,
        from: &[usize],
    ) -> Poll<(usize, T)> {
        self.check_sources(from);
        let mut found = self.take_pending_any(tag, from);
        let mut disconnected = false;
        if found.is_none() {
            disconnected = self.drain_inbox();
            found = self.take_pending_any(tag, from);
        }
        if found.is_none() && !disconnected {
            {
                let mut cell = self.waker.lock().unwrap_or_else(|e| e.into_inner());
                if !cell.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
                    *cell = Some(cx.waker().clone());
                }
            }
            disconnected = self.drain_inbox();
            found = self.take_pending_any(tag, from);
        }
        match found {
            Some((src, msg)) => Poll::Ready((src, self.downcast_msg(msg, src, tag))),
            None => {
                assert!(!disconnected, "rank {}: peer disconnected", self.rank);
                Poll::Pending
            }
        }
    }

    /// Ring AllReduce (sum) over an `f32` buffer: reduce-scatter followed
    /// by all-gather. Every rank must pass a buffer of the same length,
    /// and all ranks must run their collectives in the same order.
    /// Per-rank traffic is `2·(k-1)/k · len · 4` bytes, the standard ring
    /// cost the paper assumes for gradient sharing.
    ///
    /// Chunk `c` is `c*len/k..(c+1)*len/k`, and additions happen in ring
    /// order, so the result is the same bits however the waiting is
    /// done. Each step stages its outgoing chunk in the buffer the
    /// previous step received (the last one is kept for the next call),
    /// so a steady-state all-reduce allocates no chunks.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths disagree across ranks (detected as a
    /// chunk-size mismatch).
    pub async fn all_reduce_sum(&mut self, buf: &mut [f32]) {
        let k = self.world;
        let seq = self.coll_seq;
        self.coll_seq += 1;
        if k == 1 || buf.is_empty() {
            return;
        }
        let r = self.rank;
        let next = (r + 1) % k;
        let prev = [(r + k - 1) % k];
        let len = buf.len();
        let chunk = |c: usize| (c * len / k)..((c + 1) * len / k);
        let mut out = std::mem::take(&mut self.coll_spare);
        // Reduce-scatter steps (`step < k-1`) send chunk `(r+k-step)%k`
        // and add in chunk `(r+k-step-1)%k`; all-gather steps (`s =
        // step-(k-1)`) send chunk `(r+1+k-s)%k` and copy in `(r+k-s)%k`.
        for step in 0..2 * (k - 1) {
            let tag = COLL_BASE + seq * MAX_COLL_STEPS + step as u64;
            let (send_c, recv_c) = if step < k - 1 {
                ((r + k - step) % k, (r + k - step - 1) % k)
            } else {
                let s = step - (k - 1);
                ((r + 1 + k - s) % k, (r + k - s) % k)
            };
            out.clear();
            out.extend_from_slice(&buf[chunk(send_c)]);
            self.send_raw(next, tag, out, TrafficClass::AllReduce);
            let (_, inc): (usize, Vec<f32>) =
                poll_fn(|cx| self.poll_recv_any(cx, tag, &prev)).await;
            let dst = &mut buf[chunk(recv_c)];
            assert_eq!(inc.len(), dst.len(), "all_reduce_sum length mismatch");
            if step < k - 1 {
                for (d, s) in dst.iter_mut().zip(&inc) {
                    *d += s;
                }
            } else {
                dst.copy_from_slice(&inc);
            }
            out = inc;
        }
        self.coll_spare = out;
    }
}

const COLL_BASE: u64 = 1 << 60;
const MAX_COLL_STEPS: u64 = 1 << 20;

#[cfg(test)]
mod tests {
    use super::*;
    use bns_runtime::block_on;

    #[test]
    fn point_to_point_roundtrip() {
        let out = run_ranks(2, |mut c| {
            let peer = 1 - c.rank();
            c.send(peer, 1, vec![c.rank() as u32 * 10], TrafficClass::Control);
            let got: Vec<u32> = c.recv(peer, 1);
            got[0]
        });
        assert_eq!(out, vec![10, 0]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let out = run_ranks(2, |mut c| {
            if c.rank() == 0 {
                c.send(1, 5, vec![5.0f32], TrafficClass::Control);
                c.send(1, 6, vec![6.0f32], TrafficClass::Control);
                0.0
            } else {
                // Receive in reverse order of sending.
                let b: Vec<f32> = c.recv(0, 6);
                let a: Vec<f32> = c.recv(0, 5);
                a[0] * 10.0 + b[0]
            }
        });
        assert_eq!(out[1], 56.0);
    }

    #[test]
    fn recv_any_returns_first_arrival() {
        // Rank 2 sends immediately; rank 1 only sends after rank 0's
        // go-signal, so rank 0's first recv_any can only ever see rank 2.
        let out = run_ranks(3, |mut c| match c.rank() {
            0 => {
                let (first, a): (usize, Vec<u32>) = c.recv_any(7, &[1, 2]);
                c.send(1, 9, vec![0u8], TrafficClass::Control); // go
                let (second, b): (usize, Vec<u32>) = c.recv_any(7, &[1, 2]);
                vec![first as u32, a[0], second as u32, b[0]]
            }
            1 => {
                let _: Vec<u8> = c.recv(0, 9);
                c.send(0, 7, vec![100u32], TrafficClass::Control);
                vec![]
            }
            _ => {
                c.send(0, 7, vec![200u32], TrafficClass::Control);
                vec![]
            }
        });
        assert_eq!(out[0], vec![2, 200, 1, 100]);
    }

    #[test]
    fn recv_any_buffers_unrelated_messages() {
        let out = run_ranks(3, |mut c| match c.rank() {
            0 => {
                // Wait until everything is in flight before receiving.
                let _: Vec<u8> = c.recv(1, 99);
                let (src, v): (usize, Vec<u32>) = c.recv_any(7, &[2]);
                assert_eq!((src, v[0]), (2, 5));
                // The candidate's *other*-tag message and the non-candidate
                // message must both have been buffered, not dropped.
                let other: Vec<u32> = c.recv(2, 8);
                let non_candidate: Vec<u32> = c.recv(1, 7);
                other[0] * 10 + non_candidate[0]
            }
            1 => {
                c.send(0, 7, vec![3u32], TrafficClass::Control);
                c.send(0, 99, vec![0u8], TrafficClass::Control);
                0
            }
            _ => {
                c.send(0, 8, vec![4u32], TrafficClass::Control);
                c.send(0, 7, vec![5u32], TrafficClass::Control);
                0
            }
        });
        assert_eq!(out[0], 43);
    }

    #[test]
    fn recv_any_prefers_pending_in_candidate_order() {
        let out = run_ranks(3, |mut c| match c.rank() {
            0 => {
                // Make sure both peer messages are buffered first.
                let _: Vec<u8> = c.recv(1, 99);
                let _: Vec<u8> = c.recv(2, 99);
                let warm: Vec<u32> = c.recv(1, 7);
                assert_eq!(warm[0], 1);
                c.send(1, 7, vec![warm[0]], TrafficClass::Control);
                // Both rank-1 and rank-2 tag-8 messages are now pending;
                // candidate order [2, 1] must pick rank 2 first.
                let (first, _): (usize, Vec<u32>) = c.recv_any(8, &[2, 1]);
                let (second, _): (usize, Vec<u32>) = c.recv_any(8, &[2, 1]);
                (first * 10 + second) as u32
            }
            1 => {
                c.send(0, 7, vec![1u32], TrafficClass::Control);
                c.send(0, 8, vec![11u32], TrafficClass::Control);
                c.send(0, 99, vec![0u8], TrafficClass::Control);
                let _: Vec<u32> = c.recv(0, 7);
                0
            }
            _ => {
                c.send(0, 8, vec![22u32], TrafficClass::Control);
                c.send(0, 99, vec![0u8], TrafficClass::Control);
                0
            }
        });
        assert_eq!(out[0], 21);
    }

    #[test]
    fn recv_any_traffic_accounting_unchanged() {
        let out = run_ranks(2, |mut c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![0f32; 64], TrafficClass::Boundary);
            } else {
                let (_, v): (usize, Vec<f32>) = c.recv_any(1, &[0]);
                assert_eq!(v.len(), 64);
            }
            c.stats().clone()
        });
        assert_eq!(out[0].bytes(TrafficClass::Boundary), 256);
        assert_eq!(out[1].total_bytes(), 0);
    }

    #[test]
    fn all_reduce_sum_is_correct_for_various_world_sizes() {
        for k in [1usize, 2, 3, 4, 7] {
            for len in [0usize, 1, 5, 16, 33] {
                let out = run_ranks(k, move |mut c| {
                    let mut buf: Vec<f32> = (0..len)
                        .map(|i| (c.rank() + 1) as f32 * (i + 1) as f32)
                        .collect();
                    block_on(c.all_reduce_sum(&mut buf));
                    buf
                });
                let total_rank: f32 = (1..=k).map(|r| r as f32).sum();
                for buf in &out {
                    for (i, &x) in buf.iter().enumerate() {
                        let expect = total_rank * (i + 1) as f32;
                        assert!(
                            (x - expect).abs() < 1e-4,
                            "k={k} len={len} i={i}: {x} != {expect}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_reduce_ring_traffic_volume() {
        let k = 4usize;
        let len = 1024usize;
        let out = run_ranks(k, move |mut c| {
            let mut buf = vec![1.0f32; len];
            block_on(c.all_reduce_sum(&mut buf));
            c.stats().bytes(TrafficClass::AllReduce)
        });
        // Ring: each rank sends 2*(k-1) chunks of len/k floats.
        let expect = (2 * (k - 1) * (len / k) * 4) as u64;
        for &b in &out {
            assert_eq!(b, expect);
        }
    }

    #[test]
    fn traffic_counts_point_to_point() {
        let out = run_ranks(2, |mut c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![0f32; 100], TrafficClass::Boundary);
            } else {
                let _: Vec<f32> = c.recv(0, 1);
            }
            c.stats().clone()
        });
        assert_eq!(out[0].bytes(TrafficClass::Boundary), 400);
        assert_eq!(out[1].total_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_tags_rejected() {
        let mut world = create_world(2);
        let mut c = world.remove(0);
        c.send(1, COLL_BASE, vec![0u8], TrafficClass::Control);
    }
}
