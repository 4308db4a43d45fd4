//! Switched synchronization primitives for the mailbox transport.
//!
//! Normal builds re-export `std`; under `--cfg loom` the same names
//! resolve to the vendored loom shims so `cargo test --test
//! loom_mailbox` can exhaustively model-check the `RankComm` mailbox
//! protocol — the inbox channel and the waker cell that
//! `poll_recv_any` registers in and senders wake (see
//! `tests/loom_mailbox.rs` and DESIGN.md §9).

#[cfg(loom)]
pub(crate) use loom::sync::{mpsc, Mutex};

#[cfg(not(loom))]
pub(crate) use std::sync::{mpsc, Mutex};

/// The error arm of `Mutex::lock`, for `lock().unwrap_or_else(poisoned)`:
/// std's poison flag is ignored, because the guarded waker slot has no
/// invariant a panicking holder can break; loom's lock cannot fail.
#[cfg(not(loom))]
pub(crate) fn poisoned<G>(e: std::sync::PoisonError<G>) -> G {
    e.into_inner()
}

/// The error arm of `Mutex::lock`, for `lock().unwrap_or_else(poisoned)`:
/// loom's lock cannot fail.
#[cfg(loom)]
pub(crate) fn poisoned<G>(e: std::convert::Infallible) -> G {
    match e {}
}
