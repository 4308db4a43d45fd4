//! Per-rank communication handles, point-to-point messaging and
//! collectives.

// The mailbox transport (the inbox channel and the waker cell) goes
// through `crate::sync`, which resolves to `std` normally and to the
// vendored loom shims under `--cfg loom` so the protocol can be
// model-checked (tests/loom_mailbox.rs).
use crate::sync::mpsc::{channel, Receiver, Sender};
use crate::sync::{poisoned, Mutex};
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
/// of the *destination's* slot and wake it after enqueuing. A loom
/// `Mutex` under `--cfg loom`, so the models check the register/wake
/// race itself.
type WakerCell = Mutex<Option<Waker>>;

/// One outgoing edge of the mailbox mesh: the destination's inbox
/// sender plus the destination's waker slot.
struct Peer {
    tx: Sender<Envelope>,
    waker: Arc<WakerCell>,
}

/// One rank's endpoint in a simulated world of `world_size` ranks.
///
/// Create a full world with [`create_world`] and run each endpoint's
/// rank program as a `bns_runtime` task. Point-to-point messages are
/// matched by `(source, tag)`; collectives must be invoked by **all
/// ranks in the same order** (they synchronize internally via
/// sequence-numbered tags).
///
/// Delivery uses a single shared inbox per rank (every peer holds a
/// clone of the same sender), so [`RankComm::poll_recv_any`] can hand back
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
        let w: Arc<WakerCell> = Arc::new(Mutex::new(None));
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
        let cell = peer.waker.lock().unwrap_or_else(poisoned);
        let waker = cell.clone();
        drop(cell);
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Receives the next message from rank `from` with tag `tag`,
    /// blocking the calling thread until it arrives: one-candidate
    /// [`RankComm::poll_recv_any`] under `bns_runtime::block_on`.
    /// Messages with other tags or from other peers are buffered. Rank
    /// tasks await `poll_recv_any` instead, so they park rather than
    /// block a scheduler worker.
    ///
    /// # Panics
    ///
    /// As [`RankComm::poll_recv_any`].
    pub fn recv<T: Wire>(&mut self, from: usize, tag: u64) -> T {
        bns_runtime::block_on(poll_fn(|cx| self.poll_recv_any(cx, tag, &[from]))).1
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
        assert!(!from.is_empty(), "a receive needs at least one candidate");
        for &src in from {
            assert!(src < self.world, "recv from rank {src} out of bounds");
            assert_ne!(src, self.rank, "self-receive is not allowed");
        }
    }

    /// Pops the first pending message with tag `tag`, scanning
    /// candidates in `from` order.
    fn take_pending_any(&mut self, tag: u64, from: &[usize]) -> Option<(usize, Message)> {
        let (src, pos) = from.iter().find_map(|&src| {
            let pos = self.pending[src].iter().position(|m| m.tag == tag)?;
            Some((src, pos))
        })?;
        let msg = self.pending[src].remove(pos).unwrap();
        self.note_delivery(src, &msg);
        Some((src, msg))
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
    /// in `from` delivers first, returning `(source, payload)`. Buffered
    /// (pending) messages win, scanned in `from` order; messages from
    /// other peers or with other tags are buffered, never dropped.
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
                let mut cell = self.waker.lock().unwrap_or_else(poisoned);
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

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_tags_rejected() {
        let mut world = create_world(2);
        let mut c = world.remove(0);
        c.send(1, COLL_BASE, vec![0u8], TrafficClass::Control);
    }
}
