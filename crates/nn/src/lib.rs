//! Neural-network building blocks for graph convolutional networks, with
//! hand-derived gradients (no autograd framework exists in this stack).
//!
//! The BNS-GCN paper trains GraphSAGE models (mean aggregator) and, for
//! one ablation, GAT. This crate provides exactly those layers plus the
//! losses, optimizer and metrics the experiments need:
//!
//! * [`SageLayer`] / [`GatLayer`] / [`GcnLayer`] — forward/backward pairs
//!   designed for *layer-at-a-time* execution, so the partition-parallel
//!   engine in `bns-gcn` can interleave communication between layers
//!   (Algorithm 1 of the paper),
//! * [`Layer`] — one layer of any [`ModelArch`], the single place that
//!   decides per architecture for training, evaluation and serving,
//! * [`aggregate`] — sparse neighbor aggregation kernels shared by the
//!   layers, parameterized by per-row scales so the engine can implement
//!   the paper's unbiased `H/p` boundary rescaling,
//! * [`loss`] — masked softmax cross-entropy (Reddit/ogbn-products-style
//!   single-label) and sigmoid BCE (Yelp-style multi-label),
//! * [`Adam`] — the optimizer the paper uses throughout,
//! * [`metrics`] — accuracy and micro-F1, the paper's two test scores.
//!
//! Every backward pass is validated against finite differences in the
//! test suite (see [`gradcheck`]).

pub mod activation;
pub mod aggregate;
pub mod gradcheck;
mod layers;
pub mod loss;
pub mod metrics;
mod models;
mod optim;

pub use activation::Activation;
pub use layers::{
    DropMask, EvalScratch, GatCache, GatGrads, GatLayer, GcnCache, GcnGrads, GcnLayer, GcnSegCache,
    Layer, LayerSlot, LinearCache, LinearGrads, LinearLayer, ModelArch, SageCache, SageGrads,
    SageLayer, SageSegCache, SegScratch,
};
pub use models::layer_stack;
pub use optim::{Adam, AdamStep};
