//! A lost message fails the run instead of hanging it: once every live
//! task is parked and none is left to wake another, `run_tasks` panics
//! with the parked tasks' indices.
//!
//! The runs happen on a helper thread under a watchdog (as in
//! `end_of_run.rs`), so a regression that hangs fails the test instead
//! of stalling the suite.

use bns_runtime::{future_task, run_tasks, Task};
use std::future::poll_fn;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::task::{Poll, Waker};
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(120);

/// A one-message mailbox: the receiver parks on it with its waker
/// registered, the sender fills it and wakes the receiver.
#[derive(Default)]
struct Mailbox(Mutex<(Option<u32>, Option<Waker>)>);

impl Mailbox {
    async fn recv(&self) -> u32 {
        poll_fn(|cx| {
            let mut slot = self.0.lock().unwrap();
            match slot.0.take() {
                Some(v) => Poll::Ready(v),
                None => {
                    slot.1 = Some(cx.waker().clone());
                    Poll::Pending
                }
            }
        })
        .await
    }

    fn send(&self, v: u32) {
        let mut slot = self.0.lock().unwrap();
        slot.0 = Some(v);
        if let Some(w) = slot.1.take() {
            w.wake();
        }
    }
}

/// Runs `tasks` on a helper thread; returns the panic message, `None`
/// if the run completed, and fails the test if it hangs.
fn run_watched(
    tasks: impl FnOnce() -> Vec<Box<dyn Task>> + Send + 'static,
    workers: usize,
) -> Option<String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| run_tasks(tasks(), workers, |_| ())));
        let msg = outcome.err().map(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic".into())
        });
        tx.send(msg).unwrap();
    });
    rx.recv_timeout(WATCHDOG)
        .expect("run_tasks hung instead of failing the run")
}

#[test]
fn messages_never_sent_fail_the_run() {
    for workers in [1usize, 2] {
        let msg = run_watched(
            || {
                (0..2)
                    .map(|_| {
                        let mbox = Arc::new(Mailbox::default());
                        future_task(async move {
                            mbox.recv().await;
                        })
                    })
                    .collect()
            },
            workers,
        )
        .expect("a run whose tasks all wait forever must fail");
        assert!(msg.contains("[0, 1]"), "lists both parked tasks: {msg}");
    }
}

#[test]
fn a_delivered_message_is_not_reported_lost() {
    for run in 0..500 {
        let msg = run_watched(
            || {
                let mbox = Arc::new(Mailbox::default());
                let rx = Arc::clone(&mbox);
                vec![
                    future_task(async move {
                        assert_eq!(rx.recv().await, 7);
                    }),
                    future_task(async move { mbox.send(7) }),
                ]
            },
            1 + run % 2,
        );
        assert_eq!(msg, None, "run {run}");
    }
}
