//! Layer stacks: the per-layer activation pattern every model shares.

use crate::activation::Activation;

/// Builds one layer per consecutive pair of `dims` (input, hidden...,
/// output), in order, with `layer(d_in, d_out, act)`: `act` is
/// `hidden` between layers and identity on the last.
///
/// # Panics
///
/// Panics if fewer than two dims are given.
pub fn layer_stack<L>(
    dims: &[usize],
    hidden: Activation,
    mut layer: impl FnMut(usize, usize, Activation) -> L,
) -> Vec<L> {
    assert!(dims.len() >= 2, "need at least input and output dims");
    let last = dims.len() - 2;
    (0..=last)
        .map(|l| {
            let act = if l == last {
                Activation::Identity
            } else {
                hidden
            };
            layer(dims[l], dims[l + 1], act)
        })
        .collect()
}
