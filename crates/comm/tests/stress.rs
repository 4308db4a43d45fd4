//! Stress and failure-mode tests for the communicator.

mod support;

use bns_comm::{create_world, CostModel, TrafficClass};
use bns_tensor::SeededRng;
use std::future::poll_fn;
use support::run_world;

/// Many interleaved tags and peers: tag matching must never cross wires.
#[test]
fn interleaved_tags_across_many_ranks() {
    let k = 6;
    let out = run_world(k, 2, |mut c| async move {
        let me = c.rank();
        // Send a distinct payload per (peer, tag) pair...
        for peer in 0..k {
            if peer == me {
                continue;
            }
            for tag in 0..5u64 {
                let val = (me * 100 + peer * 10) as u32 + tag as u32;
                c.send(peer, tag, vec![val], TrafficClass::Control);
            }
        }
        // ...and receive them in a rank-dependent scrambled order.
        let mut sum = 0u64;
        let mut rng = SeededRng::new(me as u64);
        let mut pairs: Vec<(usize, u64)> = (0..k)
            .filter(|&p| p != me)
            .flat_map(|p| (0..5u64).map(move |t| (p, t)))
            .collect();
        rng.shuffle(&mut pairs);
        for (peer, tag) in pairs {
            let (_, v): (usize, Vec<u32>) = poll_fn(|cx| c.poll_recv_any(cx, tag, &[peer])).await;
            assert_eq!(v[0] as u64, (peer * 100 + me * 10) as u64 + tag);
            sum += v[0] as u64;
        }
        sum
    });
    assert_eq!(out.len(), k);
}

/// Repeated collectives keep working and stay consistent (sequence
/// numbers must not collide).
#[test]
fn thousand_collectives() {
    let out = run_world(3, 2, |mut c| async move {
        let mut acc = 0.0f32;
        for i in 0..1000 {
            let mut buf = vec![(c.rank() + i) as f32];
            c.all_reduce_sum(&mut buf).await;
            acc += buf[0];
        }
        acc
    });
    // Σ_i (0+i)+(1+i)+(2+i) = Σ_i (3+3i) = 3*1000 + 3*999*1000/2
    let expect = 3.0 * 1000.0 + 3.0 * 499_500.0;
    for v in out {
        assert!((v - expect).abs() < 1.0, "{v} != {expect}");
    }
}

/// Large payloads round-trip intact.
#[test]
fn megabyte_payload() {
    let out = run_world(2, 2, |mut c| async move {
        let peer = 1 - c.rank();
        let data: Vec<f32> = (0..262_144).map(|i| i as f32).collect();
        c.send(peer, 0, data, TrafficClass::Boundary);
        let (_, got): (usize, Vec<f32>) = poll_fn(|cx| c.poll_recv_any(cx, 0, &[peer])).await;
        (got.len(), got[1000])
    });
    for (len, v) in out {
        assert_eq!(len, 262_144);
        assert_eq!(v, 1000.0);
    }
}

/// Mixed payload types on different tags coexist.
#[test]
fn mixed_payload_types() {
    let out = run_world(2, 2, |mut c| async move {
        let peer = 1 - c.rank();
        c.send(peer, 1, vec![1u8, 2, 3], TrafficClass::Control);
        c.send(peer, 2, vec![7u64], TrafficClass::Control);
        c.send(peer, 3, vec![0.5f32], TrafficClass::Boundary);
        let (_, a): (usize, Vec<u8>) = poll_fn(|cx| c.poll_recv_any(cx, 1, &[peer])).await;
        let (_, b): (usize, Vec<u64>) = poll_fn(|cx| c.poll_recv_any(cx, 2, &[peer])).await;
        let (_, f): (usize, Vec<f32>) = poll_fn(|cx| c.poll_recv_any(cx, 3, &[peer])).await;
        (a.len(), b[0], f[0])
    });
    assert_eq!(out[0], (3, 7, 0.5));
    // Wire accounting: 3 + 8 + 4 bytes per rank.
}

/// Wire sizes are element-size accurate per type.
#[test]
fn wire_size_accounting() {
    let out = run_world(2, 2, |mut c| async move {
        let peer = 1 - c.rank();
        c.send(peer, 1, vec![1u8, 2, 3], TrafficClass::Control);
        c.send(peer, 2, vec![7u64, 8], TrafficClass::Control);
        let _: (usize, Vec<u8>) = poll_fn(|cx| c.poll_recv_any(cx, 1, &[peer])).await;
        let _: (usize, Vec<u64>) = poll_fn(|cx| c.poll_recv_any(cx, 2, &[peer])).await;
        c.stats().bytes(TrafficClass::Control)
    });
    assert_eq!(out, vec![19, 19]); // 3*1 + 2*8
}

/// Self-send must panic.
#[test]
#[should_panic(expected = "self-send")]
fn self_send_panics() {
    let mut world = create_world(2);
    let c = &mut world[0];
    c.send(0, 1, vec![0u8], TrafficClass::Control);
}

/// Type confusion inside a rank panics; `run_tasks` propagates it.
#[test]
#[should_panic(expected = "type mismatch")]
fn type_mismatch_panics() {
    run_world(2, 2, |mut c| async move {
        let peer = 1 - c.rank();
        c.send(peer, 1, vec![1.0f32], TrafficClass::Control);
        // Wrong type.
        let _: (usize, Vec<u64>) = poll_fn(|cx| c.poll_recv_any(cx, 1, &[peer])).await;
    });
}

/// The cost model is monotone in every input.
#[test]
fn cost_model_monotonicity() {
    let m = CostModel::pcie3();
    assert!(m.comm_time(2_000, 1) > m.comm_time(1_000, 1));
    assert!(m.comm_time(1_000, 2) > m.comm_time(1_000, 1));
    assert!(m.compute_time(2e9) > m.compute_time(1e9));
}
