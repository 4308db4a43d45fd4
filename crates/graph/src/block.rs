//! Read-only adjacency access and the per-layer block a minibatch
//! forward aggregates over.

use crate::CsrGraph;

/// Neighbor lists as the aggregation kernels and the fused layer
/// forwards read them: row `v` names the source rows whose features
/// are summed into output row `v`, in summation order.
///
/// Output row `v` is also source row `v` (the output rows are a prefix
/// of the source rows), which the GCN self-loop and the GAT
/// self-attention term rely on. `Sync`, because the kernels read it
/// from every pool thread.
pub trait Adjacency: Sync {
    /// Rows that carry a neighbor list: the most output rows a kernel
    /// may update.
    fn num_rows(&self) -> usize;

    /// Exclusive bound on every id in every neighbor list: the input
    /// feature rows a kernel reads.
    fn num_sources(&self) -> usize;

    /// Row `v`'s neighbor list, in summation order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.num_rows()`.
    fn neighbors(&self, v: usize) -> &[u32];
}

impl Adjacency for CsrGraph {
    fn num_rows(&self) -> usize {
        self.num_nodes()
    }

    fn num_sources(&self) -> usize {
        self.num_nodes()
    }

    fn neighbors(&self, v: usize) -> &[u32] {
        CsrGraph::neighbors(self, v)
    }
}

/// One layer's slice of a minibatch: `num_rows` output rows over
/// `num_sources >= num_rows` source rows.
///
/// Unlike a [`CsrGraph`] it is not a graph on its own rows: ids index
/// source rows, a neighbor list keeps whatever order the caller gives
/// it (the serving path lists each row's neighbors in the full graph's
/// CSR order, so sums keep their full-graph bits), and nothing makes
/// it symmetric. [`CsrGraph::validate`] would reject it, so it has
/// its own type.
#[derive(Debug, Default)]
pub struct Block {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    num_sources: usize,
}

impl Block {
    /// Rebuilds the block in place with `rows` output rows over
    /// `num_sources` source rows, reusing its buffers: `row(v, indices)`
    /// appends row `v`'s neighbor list.
    ///
    /// # Panics
    ///
    /// Panics if `rows > num_sources` or a listed id is not below
    /// `num_sources`.
    pub fn refill(
        &mut self,
        rows: usize,
        num_sources: usize,
        mut row: impl FnMut(usize, &mut Vec<u32>),
    ) {
        assert!(
            rows <= num_sources,
            "block: {rows} rows over {num_sources} sources"
        );
        self.indptr.clear();
        self.indices.clear();
        self.indptr.push(0);
        for v in 0..rows {
            row(v, &mut self.indices);
            self.indptr.push(self.indices.len());
        }
        self.num_sources = num_sources;
        self.check_sources();
    }

    /// Keeps only the first `rows` rows and lowers the source bound to
    /// `num_sources` — the block of the next layer up, whose output
    /// rows are a prefix of this one's.
    ///
    /// # Panics
    ///
    /// Panics if either bound grows, `rows > num_sources`, or a kept
    /// row lists an id not below `num_sources`.
    pub fn truncate(&mut self, rows: usize, num_sources: usize) {
        assert!(
            rows <= self.num_rows() && num_sources <= self.num_sources,
            "block: truncate may only shrink"
        );
        assert!(
            rows <= num_sources,
            "block: {rows} rows over {num_sources} sources"
        );
        self.indptr.truncate(rows + 1);
        self.indices.truncate(self.indptr[rows]);
        self.num_sources = num_sources;
        self.check_sources();
    }

    fn check_sources(&self) {
        assert!(
            self.indices
                .iter()
                .all(|&u| (u as usize) < self.num_sources),
            "block: a neighbor id is not below {} sources",
            self.num_sources
        );
    }
}

impl Adjacency for Block {
    fn num_rows(&self) -> usize {
        self.indptr.len().saturating_sub(1)
    }

    fn num_sources(&self) -> usize {
        self.num_sources
    }

    fn neighbors(&self, v: usize) -> &[u32] {
        &self.indices[self.indptr[v]..self.indptr[v + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_graph_is_its_own_source_set() {
        let g = CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(Adjacency::num_rows(&g), 4);
        assert_eq!(g.num_sources(), 4);
        assert_eq!(Adjacency::neighbors(&g, 1), &[0, 2]);
    }

    #[test]
    fn refill_keeps_the_given_order_and_truncate_takes_a_prefix() {
        let mut b = Block::default();
        assert_eq!(b.num_rows(), 0);
        let lists: [&[u32]; 3] = [&[3, 1], &[0, 2], &[1]];
        b.refill(3, 4, |v, out| out.extend_from_slice(lists[v]));
        assert_eq!((b.num_rows(), b.num_sources()), (3, 4));
        assert_eq!(b.neighbors(0), &[3, 1]);
        assert_eq!(b.neighbors(2), &[1]);
        b.truncate(2, 4);
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.neighbors(1), &[0, 2]);
        b.truncate(1, 4);
        assert_eq!((b.num_rows(), b.num_sources()), (1, 4));
        assert_eq!(b.neighbors(0), &[3, 1]);
        b.truncate(0, 0);
        assert_eq!((b.num_rows(), b.num_sources()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "not below 3 sources")]
    fn refill_rejects_an_id_past_the_sources() {
        Block::default().refill(1, 3, |_, out| out.push(3));
    }

    #[test]
    #[should_panic(expected = "not below 2 sources")]
    fn truncate_rejects_a_kept_id_past_the_new_bound() {
        let mut b = Block::default();
        b.refill(2, 3, |v, out| out.push(2 - v as u32));
        b.truncate(2, 2);
    }
}
