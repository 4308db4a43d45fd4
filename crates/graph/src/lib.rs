//! Compressed-sparse-row graphs, synthetic graph generators and graph
//! statistics for the BNS-GCN reproduction.
//!
//! The paper's experiments run on four large real-world graphs (Reddit,
//! ogbn-products, Yelp, ogbn-papers100M). Those datasets are not available
//! here, so `bns-data` synthesizes stand-ins with the same *structural*
//! properties (power-law degrees, community structure) using the generators
//! in this crate, and every downstream component (partitioner, trainer)
//! consumes the [`CsrGraph`] type defined here.
//!
//! # Example
//!
//! ```
//! use bns_graph::{CsrGraph, GraphBuilder};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 3);
//! let g: CsrGraph = b.build();
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.neighbors(1), &[0, 2]);
//! ```

// No unsafe here, enforced at compile time (the audited unsafe lives in
// bns-tensor, bns-nn and the vendored loom shim; see UNSAFE_LEDGER.md).
#![forbid(unsafe_code)]
pub mod algo;
mod block;
mod csr;
pub mod generators;
mod sampler;
mod stats;

pub use block::{Adjacency, Block};
pub use csr::{CsrGraph, GraphBuilder, Subgraph};
pub use sampler::WeightedSampler;
pub use stats::{DegreeStats, GraphStats};
