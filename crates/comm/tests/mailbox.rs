//! Point-to-point matching, any-source receives and the ring all-reduce,
//! with every rank a future on `run_tasks` that awaits
//! `RankComm::poll_recv_any`, as the engine's rank programs do.

mod support;

use bns_comm::TrafficClass;
use std::future::poll_fn;
use support::run_world;

#[test]
fn point_to_point_roundtrip() {
    let out = run_world(2, 2, |mut c| async move {
        let peer = 1 - c.rank();
        c.send(peer, 1, vec![c.rank() as u32 * 10], TrafficClass::Control);
        let (_, got): (usize, Vec<u32>) = poll_fn(|cx| c.poll_recv_any(cx, 1, &[peer])).await;
        got[0]
    });
    assert_eq!(out, vec![10, 0]);
}

#[test]
fn out_of_order_tags_are_buffered() {
    let out = run_world(2, 2, |mut c| async move {
        if c.rank() == 0 {
            c.send(1, 5, vec![5.0f32], TrafficClass::Control);
            c.send(1, 6, vec![6.0f32], TrafficClass::Control);
            0.0
        } else {
            // Receive in reverse order of sending.
            let (_, b): (usize, Vec<f32>) = poll_fn(|cx| c.poll_recv_any(cx, 6, &[0])).await;
            let (_, a): (usize, Vec<f32>) = poll_fn(|cx| c.poll_recv_any(cx, 5, &[0])).await;
            a[0] * 10.0 + b[0]
        }
    });
    assert_eq!(out[1], 56.0);
}

#[test]
fn poll_recv_any_returns_first_arrival() {
    // Rank 2 sends immediately; rank 1 only sends after rank 0's
    // go-signal, so rank 0's first receive can only ever see rank 2.
    let out = run_world(3, 2, |mut c| async move {
        match c.rank() {
            0 => {
                let (first, a): (usize, Vec<u32>) =
                    poll_fn(|cx| c.poll_recv_any(cx, 7, &[1, 2])).await;
                c.send(1, 9, vec![0u8], TrafficClass::Control); // go
                let (second, b): (usize, Vec<u32>) =
                    poll_fn(|cx| c.poll_recv_any(cx, 7, &[1, 2])).await;
                vec![first as u32, a[0], second as u32, b[0]]
            }
            1 => {
                let _: (usize, Vec<u8>) = poll_fn(|cx| c.poll_recv_any(cx, 9, &[0])).await;
                c.send(0, 7, vec![100u32], TrafficClass::Control);
                vec![]
            }
            _ => {
                c.send(0, 7, vec![200u32], TrafficClass::Control);
                vec![]
            }
        }
    });
    assert_eq!(out[0], vec![2, 200, 1, 100]);
}

#[test]
fn poll_recv_any_buffers_unrelated_messages() {
    let out = run_world(3, 2, |mut c| async move {
        match c.rank() {
            0 => {
                // Wait until everything is in flight before receiving.
                let _: (usize, Vec<u8>) = poll_fn(|cx| c.poll_recv_any(cx, 99, &[1])).await;
                let (src, v): (usize, Vec<u32>) = poll_fn(|cx| c.poll_recv_any(cx, 7, &[2])).await;
                assert_eq!((src, v[0]), (2, 5));
                // The candidate's *other*-tag message and the
                // non-candidate message must both have been buffered,
                // not dropped.
                let other: Vec<u32> = poll_fn(|cx| c.poll_recv_any(cx, 8, &[2])).await.1;
                let non_candidate: Vec<u32> = poll_fn(|cx| c.poll_recv_any(cx, 7, &[1])).await.1;
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
        }
    });
    assert_eq!(out[0], 43);
}

#[test]
fn poll_recv_any_prefers_pending_in_candidate_order() {
    let out = run_world(3, 2, |mut c| async move {
        match c.rank() {
            0 => {
                // Make sure both peer messages are buffered first.
                let _: (usize, Vec<u8>) = poll_fn(|cx| c.poll_recv_any(cx, 99, &[1])).await;
                let _: (usize, Vec<u8>) = poll_fn(|cx| c.poll_recv_any(cx, 99, &[2])).await;
                let (_, warm): (usize, Vec<u32>) = poll_fn(|cx| c.poll_recv_any(cx, 7, &[1])).await;
                assert_eq!(warm[0], 1);
                c.send(1, 7, vec![warm[0]], TrafficClass::Control);
                // Both rank-1 and rank-2 tag-8 messages are now pending;
                // candidate order [2, 1] must pick rank 2 first.
                let (first, _): (usize, Vec<u32>) =
                    poll_fn(|cx| c.poll_recv_any(cx, 8, &[2, 1])).await;
                let (second, _): (usize, Vec<u32>) =
                    poll_fn(|cx| c.poll_recv_any(cx, 8, &[2, 1])).await;
                (first * 10 + second) as u32
            }
            1 => {
                c.send(0, 7, vec![1u32], TrafficClass::Control);
                c.send(0, 8, vec![11u32], TrafficClass::Control);
                c.send(0, 99, vec![0u8], TrafficClass::Control);
                let _: (usize, Vec<u32>) = poll_fn(|cx| c.poll_recv_any(cx, 7, &[0])).await;
                0
            }
            _ => {
                c.send(0, 8, vec![22u32], TrafficClass::Control);
                c.send(0, 99, vec![0u8], TrafficClass::Control);
                0
            }
        }
    });
    assert_eq!(out[0], 21);
}

#[test]
fn receives_leave_traffic_accounting_to_the_sender() {
    let out = run_world(2, 2, |mut c| async move {
        if c.rank() == 0 {
            c.send(1, 1, vec![0f32; 100], TrafficClass::Boundary);
        } else {
            let (_, v): (usize, Vec<f32>) = poll_fn(|cx| c.poll_recv_any(cx, 1, &[0])).await;
            assert_eq!(v.len(), 100);
        }
        c.stats().clone()
    });
    assert_eq!(out[0].bytes(TrafficClass::Boundary), 400);
    assert_eq!(out[1].total_bytes(), 0);
}

#[test]
fn all_reduce_sum_is_correct_for_various_world_sizes() {
    for k in [1usize, 2, 3, 4, 7] {
        for len in [0usize, 1, 5, 16, 33] {
            let out = run_world(k, 2, |mut c| async move {
                let mut buf: Vec<f32> = (0..len)
                    .map(|i| (c.rank() + 1) as f32 * (i + 1) as f32)
                    .collect();
                c.all_reduce_sum(&mut buf).await;
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
    let out = run_world(k, 2, |mut c| async move {
        let mut buf = vec![1.0f32; len];
        c.all_reduce_sum(&mut buf).await;
        c.stats().bytes(TrafficClass::AllReduce)
    });
    // Ring: each rank sends 2*(k-1) chunks of len/k floats.
    let expect = (2 * (k - 1) * (len / k) * 4) as u64;
    for &b in &out {
        assert_eq!(b, expect);
    }
}
