//! A simulated multi-rank communication layer.
//!
//! The BNS-GCN paper trains with one GPU per graph partition, exchanging
//! boundary-node features over Gloo/NCCL. This machine has no GPUs, so the
//! reproduction runs **one logical endpoint per partition ("rank")** —
//! scheduled either as dedicated OS threads ([`run_ranks`]) or as
//! cooperative tasks multiplexed onto a fixed worker pool (the engine's
//! `bns-runtime` scheduler; see DESIGN.md §12) — and routes all
//! inter-partition traffic through this crate, which provides:
//!
//! * typed point-to-point [`RankComm::send`]/[`RankComm::recv`] over
//!   std::sync::mpsc channels with tag matching, plus
//!   [`RankComm::poll_recv_any`], the asynchronous receive a cooperative
//!   rank task awaits: on an empty mailbox it registers the task's
//!   `std::task::Waker`, which the next sender to this rank wakes,
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
//! use bns_comm::{run_ranks, TrafficClass};
//! use bns_runtime::block_on;
//!
//! // Two ranks exchange a value and all-reduce a vector.
//! let results = run_ranks(2, |mut comm| {
//!     let peer = 1 - comm.rank();
//!     comm.send(peer, 7, vec![comm.rank() as f32], TrafficClass::Control);
//!     let got: Vec<f32> = comm.recv(peer, 7);
//!     let mut buf = vec![1.0f32, 2.0];
//!     block_on(comm.all_reduce_sum(&mut buf));
//!     (got[0], buf[0])
//! });
//! assert_eq!(results[0], (1.0, 2.0));
//! assert_eq!(results[1], (0.0, 2.0));
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
pub use rank::{create_world, run_ranks, RankComm};
pub use traffic::{TrafficClass, TrafficStats};
