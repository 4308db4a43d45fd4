//! A simulated multi-rank communication layer.
//!
//! The BNS-GCN paper trains with one GPU per graph partition, exchanging
//! boundary-node features over Gloo/NCCL. This machine has no GPUs, so the
//! reproduction runs **one logical endpoint per partition ("rank")** —
//! a cooperative task multiplexed onto a fixed worker pool (the
//! `bns-runtime` scheduler; see DESIGN.md §12) — and routes all
//! inter-partition traffic through this crate, which provides:
//!
//! * typed point-to-point [`RankComm::send`] over std::sync::mpsc
//!   channels with tag matching, and [`RankComm::poll_recv_any`], the
//!   one receive: a rank task awaits it, and on an empty mailbox it
//!   registers the task's `std::task::Waker`, which the next sender to
//!   this rank wakes ([`RankComm::recv`] blocks a plain thread on it),
//! * the ring [`RankComm::all_reduce_sum`] (an `async fn`) the training
//!   loop uses for gradient sharing,
//! * byte-accurate [`TrafficStats`] per rank, split by [`TrafficClass`]
//!   (boundary-feature exchange vs. gradient all-reduce vs. control), and
//! * an α–β [`CostModel`] that converts measured traffic into simulated
//!   wall-clock time, making throughput experiments deterministic and
//!   hardware-independent.
//!
//! The paper's communication-volume identity (its Eq. 3: total volume =
//! total number of boundary nodes) is validated against the byte counters
//! recorded here.
//!
//! # Example
//!
//! ```
//! use bns_comm::{create_world, TrafficClass};
//! use bns_runtime::{future_task, run_tasks};
//! use std::future::poll_fn;
//!
//! // Two rank tasks exchange a value and all-reduce a vector.
//! let mut results = [(0.0f32, 0.0f32); 2];
//! let tasks = create_world(2)
//!     .into_iter()
//!     .zip(&mut results)
//!     .map(|(mut comm, out)| {
//!         future_task(async move {
//!             let peer = 1 - comm.rank();
//!             comm.send(peer, 7, vec![comm.rank() as f32], TrafficClass::Control);
//!             let (_, got): (usize, Vec<f32>) =
//!                 poll_fn(|cx| comm.poll_recv_any(cx, 7, &[peer])).await;
//!             let mut buf = vec![1.0f32, 2.0];
//!             comm.all_reduce_sum(&mut buf).await;
//!             *out = (got[0], buf[0]);
//!         })
//!     })
//!     .collect();
//! run_tasks(tasks, 2, |_| ());
//! assert_eq!(results, [(1.0, 2.0), (0.0, 2.0)]);
//! ```

// No unsafe here, enforced at compile time (the audited unsafe lives in
// bns-tensor, bns-nn and the vendored loom shim; see UNSAFE_LEDGER.md).
#![forbid(unsafe_code)]
mod cost;
mod precision;
mod rank;
mod sync;
mod traffic;

pub use cost::CostModel;
pub use precision::{WirePrecision, ENV_QUANT};
pub use rank::{create_world, RankComm};
pub use traffic::{TrafficClass, TrafficStats};
