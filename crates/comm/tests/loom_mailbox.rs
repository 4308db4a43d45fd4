//! Loom model checking of the asynchronous `RankComm` mailbox
//! (`src/rank.rs`): the `poll_recv_any` that every rank program awaits.
//!
//! Run with (one test thread, so each model's wall time is its own):
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p bns-comm --test loom_mailbox --release \
//!     -- --nocapture --test-threads=1
//! ```
//!
//! Under `--cfg loom` the inbox channel and the per-rank waker cell
//! resolve to the vendored loom shims, so each model explores the
//! interleavings of a sender's enqueue-then-wake against the receiver's
//! drain-register-drain. The receiver runs on the model's main thread
//! and is driven by a `block_on` over loom's `Mutex` and `Condvar`: a
//! wakeup the protocol loses leaves it waiting on the condvar with
//! every sender finished, which loom reports as a deadlock. Each sender
//! is a spawned model thread, and no model sends more than two
//! messages. The k = 2 models explore every schedule; the k = 3 models
//! explore every schedule with at most [`K3_PREEMPTIONS`] preemptions,
//! because their full search runs past loom's 1,000,000-schedule cap.
//! Each model prints its schedule count and wall time.
//!
//! What the models verify:
//! * a receiver that parks before the message lands is woken;
//! * per-`(source, tag)` FIFO: two same-tag messages arrive in send
//!   order;
//! * a message with another tag that lands first is buffered in the
//!   pending queue and still receivable afterwards;
//! * with two candidate senders racing, each message is delivered
//!   exactly once with the right source;
//! * traffic from a non-candidate source is buffered, not dropped.

#![cfg(loom)]

use bns_comm::{create_world, RankComm, TrafficClass};
use loom::sync::{Arc, Condvar, Mutex};
use std::future::{poll_fn, Future};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Instant;

/// Preemption bound of the k = 3 models.
const K3_PREEMPTIONS: usize = 6;

/// The receiver's wake flag: set by the waker, awaited on the condvar.
struct Signal {
    woken: Mutex<bool>,
    cv: Condvar,
}

impl Wake for Signal {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        *self.woken.lock().unwrap() = true;
        self.cv.notify_one();
    }
}

/// Polls `fut` until it is ready, waiting on the condvar between polls
/// until a wake has been signalled.
fn block_on<F: Future>(fut: F) -> F::Output {
    let signal = Arc::new(Signal {
        woken: Mutex::new(false),
        cv: Condvar::new(),
    });
    let waker = Waker::from(Arc::clone(&signal));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
            return out;
        }
        let mut woken = signal.woken.lock().unwrap();
        while !*woken {
            woken = signal.cv.wait(woken).unwrap();
        }
        *woken = false;
    }
}

/// Receives one `Vec<u32>` with `tag` from any of `from` through
/// `poll_recv_any`, returning `(source, first element)`.
fn recv(comm: &mut RankComm, tag: u64, from: &[usize]) -> (usize, u32) {
    let (src, v): (usize, Vec<u32>) = block_on(poll_fn(|cx| comm.poll_recv_any(cx, tag, from)));
    (src, v[0])
}

/// Runs the model `f` with a world of `sends.len() + 1` ranks: rank 0
/// stays on the main thread and is passed to `f`, and each other rank
/// is a spawned model thread that sends `sends[rank - 1]` to rank 0 as
/// `(tag, value)`. Worlds of more than two ranks bound the preemptions
/// at [`K3_PREEMPTIONS`].
fn model(name: &str, sends: &'static [&'static [(u64, u32)]], f: fn(&mut RankComm)) {
    let k = sends.len() + 1;
    let preemption_bound = (k > 2).then_some(K3_PREEMPTIONS);
    let start = Instant::now();
    loom::model::Builder { preemption_bound }.check(move || {
        let mut world = create_world(k).into_iter();
        let mut receiver = world.next().unwrap();
        let senders: Vec<_> = world
            .zip(sends)
            .map(|(mut comm, msgs)| {
                loom::thread::spawn(move || {
                    for &(tag, v) in msgs.iter() {
                        comm.send(0, tag, vec![v], TrafficClass::Control);
                    }
                })
            })
            .collect();
        f(&mut receiver);
        for s in senders {
            s.join().unwrap();
        }
    });
    eprintln!(
        "{name}: {} schedules in {:.2?}",
        loom::last_iteration_count(),
        start.elapsed()
    );
}

#[test]
fn one_message_wakes_the_receiver() {
    model("one message, k = 2", &[&[(7, 5)]], |c| {
        assert_eq!(recv(c, 7, &[1]), (1, 5));
    });
}

#[test]
fn same_tag_messages_arrive_in_send_order() {
    model("same-tag FIFO, k = 2", &[&[(7, 1), (7, 2)]], |c| {
        assert_eq!(recv(c, 7, &[1]), (1, 1));
        assert_eq!(recv(c, 7, &[1]), (1, 2));
    });
}

#[test]
fn other_tag_detours_through_the_pending_queue() {
    // Tag 9 is sent first but asked for last: whenever it has landed,
    // the tag-7 receive must buffer it, and it must still be there.
    model("tag 9 before tag 7, k = 2", &[&[(9, 1), (7, 2)]], |c| {
        assert_eq!(recv(c, 7, &[1]), (1, 2));
        assert_eq!(recv(c, 9, &[1]), (1, 1));
    });
}

#[test]
fn racing_senders_each_deliver_exactly_once() {
    model("k = 3 race", &[&[(7, 100)], &[(7, 200)]], |c| {
        let (s1, v1) = recv(c, 7, &[1, 2]);
        let (s2, v2) = recv(c, 7, &[1, 2]);
        assert_ne!(s1, s2, "a sender was delivered twice");
        assert_eq!(v1 as usize, s1 * 100);
        assert_eq!(v2 as usize, s2 * 100);
    });
}

#[test]
fn non_candidate_traffic_is_buffered() {
    // Only rank 2 is a candidate at first; rank 1's same-tag message
    // must be parked in the pending queue, not dropped, in every
    // arrival order.
    model(
        "non-candidate buffering, k = 3",
        &[&[(7, 3)], &[(7, 5)]],
        |c| {
            assert_eq!(recv(c, 7, &[2]), (2, 5));
            assert_eq!(recv(c, 7, &[1]), (1, 3));
        },
    );
}
