//! The serial boundary exchange: the head-of-line-blocking reference
//! that the overlapped exchange in `bns_gcn::exchange` must match bit
//! for bit. Each function sends everything first, then awaits the
//! peers' blocks one at a time in fixed ascending peer order.

use bns_comm::{RankComm, TrafficClass};
use bns_gcn::exchange::EpochExchange;
use bns_tensor::Matrix;
use std::future::poll_fn;

/// Awaits the next `Vec<f32>` with `tag` from `from` alone.
async fn recv_from(comm: &mut RankComm, from: usize, tag: u64) -> Vec<f32> {
    poll_fn(|cx| comm.poll_recv_any(cx, tag, &[from])).await.1
}

/// Sends the requested feature rows to every peer, receives the blocks
/// in fixed owner order, and returns the stacked `vstack(h_inner, h_bd)`.
pub async fn exchange_features_serial(
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
        let data = recv_from(comm, *owner, tag).await;
        assert_eq!(data.len(), range.len() * d);
        h_bd.as_mut_slice()[range.start * d..range.end * d].copy_from_slice(&data);
    }
    if feature_scale != 1.0 {
        h_bd.scale(feature_scale);
    }
    h_inner.vstack(&h_bd)
}

/// Sends boundary-row gradients back to their owners (scaled by
/// `feature_scale`, the chain rule through the `H/p` rescale) and
/// accumulates peers' contributions in fixed ascending peer order.
pub async fn exchange_gradients_serial(
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
        let data = recv_from(comm, j, tag).await;
        let block = Matrix::from_vec(rows.len(), d, data);
        d_inner.scatter_add_rows(rows, &block);
    }
}
