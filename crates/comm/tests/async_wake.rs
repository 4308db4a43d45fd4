//! The async receive's wake path under contention: k = 8 rank futures
//! on 1, 2 and 3 scheduler workers, every round an all-to-all of tagged
//! messages received with `poll_recv_any`. A receive that parks must be
//! woken by the message that lands after its last drain, so each run
//! has to finish; the watchdog turns a lost wakeup into a failure
//! instead of a hang.

use bns_comm::{create_world, TrafficClass};
use bns_runtime::{future_task, run_tasks, Task};
use std::future::poll_fn;
use std::sync::mpsc;
use std::time::Duration;

const K: usize = 8;
const ROUNDS: u64 = 300;
const WATCHDOG: Duration = Duration::from_secs(120);

#[test]
fn all_to_all_rounds_finish_at_any_worker_count() {
    for workers in [1usize, 2, 3] {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut sums = vec![0u64; K];
            let tasks: Vec<Box<dyn Task + '_>> = create_world(K)
                .into_iter()
                .zip(&mut sums)
                .map(|(mut comm, sum)| {
                    future_task(async move {
                        let me = comm.rank();
                        for round in 0..ROUNDS {
                            for peer in (0..K).filter(|&p| p != me) {
                                let v = vec![(me as u64) * 1_000_000 + round];
                                comm.send(peer, round, v, TrafficClass::Control);
                            }
                            let mut from: Vec<usize> = (0..K).filter(|&p| p != me).collect();
                            while !from.is_empty() {
                                let (src, v): (usize, Vec<u64>) =
                                    poll_fn(|cx| comm.poll_recv_any(cx, round, &from)).await;
                                assert_eq!(v[0], (src as u64) * 1_000_000 + round);
                                *sum += v[0];
                                from.retain(|&p| p != src);
                            }
                        }
                    })
                })
                .collect();
            run_tasks(tasks, workers, |_| ());
            tx.send(sums).unwrap();
        });
        let sums = rx
            .recv_timeout(WATCHDOG)
            .unwrap_or_else(|_| panic!("{workers} workers: a parked receive was never woken"));
        let all: u64 = (0..K as u64)
            .map(|r| ROUNDS * r * 1_000_000 + ROUNDS * (ROUNDS - 1) / 2)
            .sum();
        for (me, s) in sums.iter().enumerate() {
            let own = ROUNDS * me as u64 * 1_000_000 + ROUNDS * (ROUNDS - 1) / 2;
            assert_eq!(*s, all - own, "rank {me} with {workers} workers");
        }
    }
}
