//! The receive's wake path under contention, with a watchdog that turns
//! a lost wakeup into a failure instead of a hang:
//! * k = 8 rank futures on 1, 2 and 3 scheduler workers, every round an
//!   all-to-all of tagged messages received with `poll_recv_any`; a
//!   receive that parks must be woken by the message that lands after
//!   its last drain;
//! * the blocking `RankComm::recv` (`poll_recv_any` under
//!   `bns_runtime::block_on`) ping-ponging between two OS threads, so
//!   nearly every receive parks its thread before the peer's send.

mod support;

use bns_comm::{create_world, TrafficClass};
use std::future::poll_fn;
use std::sync::mpsc;
use std::time::Duration;
use support::run_world;

const K: usize = 8;
const ROUNDS: u64 = 300;
const WATCHDOG: Duration = Duration::from_secs(120);

#[test]
fn all_to_all_rounds_finish_at_any_worker_count() {
    for workers in [1usize, 2, 3] {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let sums = run_world(K, workers, |mut comm| async move {
                let me = comm.rank();
                let mut sum = 0u64;
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
                        sum += v[0];
                        from.retain(|&p| p != src);
                    }
                }
                sum
            });
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

#[test]
fn blocking_recv_is_woken_by_a_sender_on_another_thread() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut world = create_world(2);
        let mut pong = world.pop().unwrap();
        let mut ping = world.pop().unwrap();
        let echo = std::thread::spawn(move || {
            for round in 0..ROUNDS {
                let v: Vec<u64> = pong.recv(0, round);
                pong.send(0, round, vec![v[0] + 1], TrafficClass::Control);
            }
        });
        let mut sum = 0u64;
        for round in 0..ROUNDS {
            ping.send(1, round, vec![round], TrafficClass::Control);
            sum += ping.recv::<Vec<u64>>(1, round)[0];
        }
        echo.join().unwrap();
        tx.send(sum).unwrap();
    });
    let sum = rx
        .recv_timeout(WATCHDOG)
        .expect("a blocked recv was never woken");
    assert_eq!(sum, ROUNDS * (ROUNDS + 1) / 2);
}
