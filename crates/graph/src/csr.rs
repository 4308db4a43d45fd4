//! The core compressed-sparse-row graph type and its builder.

use std::fmt;

/// An undirected simple graph in compressed-sparse-row form.
///
/// Node ids are `usize` in the public API; internally neighbor lists store
/// `u32`, which comfortably covers the graph sizes in this workspace while
/// halving memory traffic. Adjacency lists are sorted, enabling
/// binary-search edge queries and deterministic iteration.
///
/// Construct via [`GraphBuilder`] or [`CsrGraph::from_edges`].
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    indptr: Vec<usize>,
    indices: Vec<u32>,
}

impl Default for CsrGraph {
    /// The graph with no nodes.
    fn default() -> Self {
        Self::empty(0)
    }
}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrGraph {{ nodes: {}, edges: {} }}",
            self.num_nodes(),
            self.num_edges()
        )
    }
}

impl CsrGraph {
    /// Builds a graph with `n` nodes from an iterator of undirected edges.
    /// Self-loops and duplicate edges are dropped.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// A graph with `n` nodes and no edges.
    pub fn empty(n: usize) -> Self {
        Self {
            indptr: vec![0; n + 1],
            indices: Vec::new(),
        }
    }

    /// Rebuilds the graph in place with `n` nodes, reusing its buffers:
    /// `row(v, indices)` appends node `v`'s neighbor list. The caller
    /// keeps the CSR invariants — every row strictly ascending, no
    /// self-loops, and `u` in row `v` iff `v` in row `u` — which are
    /// what [`GraphBuilder::build`] produces, so a row-by-row filter of
    /// a valid graph yields bit for bit the graph `GraphBuilder` would.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a row is unsorted, has a duplicate,
    /// a self-loop or an out-of-range id.
    pub fn refill(&mut self, n: usize, mut row: impl FnMut(usize, &mut Vec<u32>)) {
        self.indptr.clear();
        self.indices.clear();
        self.indptr.push(0);
        for v in 0..n {
            let start = self.indices.len();
            row(v, &mut self.indices);
            debug_assert!(
                self.indices[start..].windows(2).all(|w| w[0] < w[1])
                    && self.indices[start..]
                        .iter()
                        .all(|&u| (u as usize) < n && u as usize != v),
                "refill: row {v} breaks the CSR invariants"
            );
            self.indptr.push(self.indices.len());
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.indices.len() / 2
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn degree(&self, v: usize) -> usize {
        self.indptr[v + 1] - self.indptr[v]
    }

    /// The sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.indices[self.indptr[v]..self.indptr[v + 1]]
    }

    /// Whether the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Average degree (`2m / n`); zero for the empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.indices.len() as f64 / self.num_nodes() as f64
        }
    }

    /// Iterates every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.num_nodes()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .map(|&v| v as usize)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The raw CSR index pointer array (length `n + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The raw CSR adjacency array (length `2m`).
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The node-induced subgraph on `nodes`.
    ///
    /// Returns a [`Subgraph`] holding the new graph plus the
    /// local-to-global mapping. `nodes` may be in any order; local ids
    /// follow the given order. Duplicate entries panic.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` contains duplicates or out-of-bounds ids.
    pub fn induced_subgraph(&self, nodes: &[usize]) -> Subgraph {
        let n_total = self.num_nodes();
        // usize::MAX marks "not in the subgraph".
        let mut global_to_local = vec![usize::MAX; n_total];
        for (local, &g) in nodes.iter().enumerate() {
            assert!(g < n_total, "induced_subgraph: node {g} out of bounds");
            assert!(
                global_to_local[g] == usize::MAX,
                "induced_subgraph: duplicate node {g}"
            );
            global_to_local[g] = local;
        }
        let mut indptr = Vec::with_capacity(nodes.len() + 1);
        indptr.push(0usize);
        let mut indices: Vec<u32> = Vec::new();
        for &g in nodes {
            let start = indices.len();
            for &nb in self.neighbors(g) {
                let l = global_to_local[nb as usize];
                if l != usize::MAX {
                    indices.push(l as u32);
                }
            }
            indices[start..].sort_unstable();
            indptr.push(indices.len());
        }
        Subgraph {
            graph: CsrGraph { indptr, indices },
            local_to_global: nodes.to_vec(),
        }
    }

    /// Connected components; returns `(component_id_per_node,
    /// num_components)`.
    pub fn connected_components(&self) -> (Vec<usize>, usize) {
        let n = self.num_nodes();
        let mut comp = vec![usize::MAX; n];
        let mut next = 0usize;
        let mut queue = std::collections::VecDeque::new();
        for s in 0..n {
            if comp[s] != usize::MAX {
                continue;
            }
            comp[s] = next;
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for &v in self.neighbors(u) {
                    let v = v as usize;
                    if comp[v] == usize::MAX {
                        comp[v] = next;
                        queue.push_back(v);
                    }
                }
            }
            next += 1;
        }
        (comp, next)
    }

    /// Checks internal invariants (sorted unique neighbor lists, symmetric
    /// adjacency, no self-loops). Intended for tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes();
        if self.indptr[0] != 0 || *self.indptr.last().unwrap() != self.indices.len() {
            return Err("indptr endpoints invalid".into());
        }
        for v in 0..n {
            let nbrs = self.neighbors(v);
            for w in nbrs.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("neighbors of {v} not sorted-unique"));
                }
            }
            for &u in nbrs {
                let u = u as usize;
                if u >= n {
                    return Err(format!("edge endpoint {u} out of bounds"));
                }
                if u == v {
                    return Err(format!("self-loop at {v}"));
                }
                if !self.has_edge(u, v) {
                    return Err(format!("asymmetric edge ({v}, {u})"));
                }
            }
        }
        Ok(())
    }
}

/// The result of [`CsrGraph::induced_subgraph`]: the induced graph plus the
/// mapping from its local node ids back to the parent graph's ids.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// The induced graph; node `i` corresponds to
    /// `local_to_global[i]` in the parent.
    pub graph: CsrGraph,
    /// Local-to-global node id mapping.
    pub local_to_global: Vec<usize>,
}

/// Incremental builder for [`CsrGraph`].
///
/// Accepts edges in any order, ignores self-loops, and deduplicates.
///
/// # Example
///
/// ```
/// use bns_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 0); // duplicate, ignored
/// b.add_edge(2, 2); // self-loop, ignored
/// let g = b.build();
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "graph too large for u32 node ids");
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are silently dropped;
    /// duplicates are removed at build time.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of bounds.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of bounds (n={})",
            self.n
        );
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a as u32, b as u32));
    }

    /// Number of edges added so far (before dedup).
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the CSR structure.
    pub fn build(mut self) -> CsrGraph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut degree = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut indptr = Vec::with_capacity(self.n + 1);
        indptr.push(0usize);
        for d in &degree {
            indptr.push(indptr.last().unwrap() + d);
        }
        let mut cursor = indptr.clone();
        let mut indices = vec![0u32; self.edges.len() * 2];
        for &(u, v) in &self.edges {
            indices[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            indices[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Each row was filled in ascending "other endpoint" order only for
        // the u side; the v side appends sources ascending too because
        // edges are sorted by (u, v). Rows may interleave the two though,
        // so sort each row to guarantee the sorted invariant.
        let g = CsrGraph { indptr, indices };
        let mut g = g;
        for v in 0..self.n {
            let (s, e) = (g.indptr[v], g.indptr[v + 1]);
            g.indices[s..e].sort_unstable();
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> CsrGraph {
        CsrGraph::from_edges(n, (0..n - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn builder_dedups_and_drops_self_loops() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 0);
        b.add_edge(2, 3);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = CsrGraph::from_edges(5, [(3, 1), (3, 0), (3, 4), (2, 3)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4]);
        assert_eq!(g.degree(3), 4);
        assert!(g.has_edge(0, 3) && g.has_edge(3, 0));
        assert!(!g.has_edge(0, 1));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn edges_iterator_yields_each_once() {
        let g = path_graph(6);
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        // Triangle 0-1-2 plus pendant 3.
        let g = CsrGraph::from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let sub = g.induced_subgraph(&[2, 0, 1]);
        assert_eq!(sub.graph.num_nodes(), 3);
        assert_eq!(sub.graph.num_edges(), 3); // the triangle survives
        assert_eq!(sub.local_to_global, vec![2, 0, 1]);
        // local 0 = global 2; its neighbors are global {0,1} = local {1,2}
        assert_eq!(sub.graph.neighbors(0), &[1, 2]);
        assert!(sub.graph.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn induced_subgraph_rejects_duplicates() {
        path_graph(3).induced_subgraph(&[0, 0]);
    }

    #[test]
    fn connected_components_counts() {
        let g = CsrGraph::from_edges(6, [(0, 1), (1, 2), (4, 5)]);
        let (comp, k) = g.connected_components();
        assert_eq!(k, 3); // {0,1,2}, {3}, {4,5}
        assert_eq!(comp[0], comp[2]);
        assert_ne!(comp[0], comp[3]);
        assert_eq!(comp[4], comp[5]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert!(g.validate().is_ok());
        let g0 = CsrGraph::empty(0);
        assert_eq!(g0.average_degree(), 0.0);
    }

    #[test]
    fn average_degree_of_path() {
        let g = path_graph(5);
        assert!((g.average_degree() - 8.0 / 5.0).abs() < 1e-12);
    }
}
