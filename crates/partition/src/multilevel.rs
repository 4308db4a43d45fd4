//! Multilevel k-way partitioner in the style of METIS (Karypis & Kumar,
//! 1998): heavy-edge-matching coarsening, greedy region-growing initial
//! partitioning, and FM-style boundary refinement during uncoarsening.
//!
//! The paper configures METIS to minimize **communication volume** (=
//! total boundary nodes, its Eq. 3) rather than edge cut. This
//! implementation supports both objectives: coarse levels always refine
//! on (weighted) edge cut — the standard proxy — and, when
//! [`Objective::CommVolume`] is selected, the finest level refines on the
//! true boundary-node delta.

use crate::{Partitioner, Partitioning};
use bns_graph::CsrGraph;
use bns_tensor::SeededRng;

/// What the refinement phase minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Minimize the number of cut edges (classic METIS default).
    EdgeCut,
    /// Minimize total boundary nodes (the paper's configuration).
    #[default]
    CommVolume,
}

/// Multilevel METIS-like partitioner.
///
/// # Example
///
/// ```
/// use bns_graph::generators::grid;
/// use bns_partition::{metrics, MetisLikePartitioner, Partitioner, RandomPartitioner};
///
/// let g = grid(16, 16);
/// let ml = MetisLikePartitioner::default().partition(&g, 4, 0);
/// let rnd = RandomPartitioner.partition(&g, 4, 0);
/// assert!(metrics::comm_volume(&g, &ml) < metrics::comm_volume(&g, &rnd));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MetisLikePartitioner {
    /// Refinement objective.
    pub objective: Objective,
    /// Balance tolerance: max part weight ≤ `(1 + epsilon) · n / k`.
    pub epsilon: f64,
    /// Stop coarsening once the graph has at most
    /// `max(coarsen_floor, 8·k)` nodes.
    pub coarsen_floor: usize,
    /// Refinement passes per level.
    pub refine_passes: usize,
}

impl Default for MetisLikePartitioner {
    fn default() -> Self {
        Self {
            objective: Objective::CommVolume,
            epsilon: 0.05,
            coarsen_floor: 96,
            refine_passes: 4,
        }
    }
}

impl Partitioner for MetisLikePartitioner {
    fn partition(&self, g: &CsrGraph, k: usize, seed: u64) -> Partitioning {
        assert!(k > 0, "k must be positive");
        assert!(
            k <= g.num_nodes(),
            "cannot split {} nodes into {k} partitions",
            g.num_nodes()
        );
        if k == 1 {
            return Partitioning::new(vec![0; g.num_nodes()], 1);
        }
        let mut rng = SeededRng::new(seed);
        let base = WGraph::from_csr(g);

        // ---- Coarsening ----
        let floor = self.coarsen_floor.max(8 * k);
        let mut levels: Vec<WGraph> = vec![base];
        let mut maps: Vec<Vec<usize>> = Vec::new();
        loop {
            let top = levels.last().unwrap();
            if top.num_nodes() <= floor {
                break;
            }
            let (coarse, map) = top.coarsen(&mut rng);
            // Stalled coarsening (e.g. star graphs) — stop to avoid loops.
            if coarse.num_nodes() as f64 > 0.95 * top.num_nodes() as f64 {
                break;
            }
            levels.push(coarse);
            maps.push(map);
        }

        // ---- Initial partition on the coarsest graph ----
        let coarsest = levels.last().unwrap();
        let mut part = coarsest.region_grow(k, &mut rng);
        coarsest.refine_edge_cut(&mut part, k, self.refine_passes, self.epsilon, &mut rng);

        // ---- Uncoarsen + refine ----
        for level in (0..maps.len()).rev() {
            let fine = &levels[level];
            let map = &maps[level];
            let mut fine_part = vec![0usize; fine.num_nodes()];
            for (v, &c) in map.iter().enumerate() {
                fine_part[v] = part[c];
            }
            part = fine_part;
            let is_finest = level == 0;
            if is_finest && self.objective == Objective::CommVolume {
                fine.refine_edge_cut(&mut part, k, self.refine_passes, self.epsilon, &mut rng);
                refine_comm_volume(g, &mut part, k, self.refine_passes, self.epsilon, &mut rng);
            } else {
                fine.refine_edge_cut(&mut part, k, self.refine_passes, self.epsilon, &mut rng);
            }
        }
        // If no coarsening happened, `part` is already at the finest level
        // but comm-volume refinement may still be requested.
        if maps.is_empty() && self.objective == Objective::CommVolume {
            refine_comm_volume(g, &mut part, k, self.refine_passes, self.epsilon, &mut rng);
        }
        Partitioning::new(part, k)
    }

    fn name(&self) -> &'static str {
        match self.objective {
            Objective::EdgeCut => "metis-like(cut)",
            Objective::CommVolume => "metis-like(vol)",
        }
    }
}

/// Weighted graph used internally across coarsening levels.
#[derive(Debug, Clone)]
struct WGraph {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    eweight: Vec<u64>,
    nweight: Vec<u64>,
}

impl WGraph {
    fn from_csr(g: &CsrGraph) -> Self {
        Self {
            indptr: g.indptr().to_vec(),
            indices: g.indices().to_vec(),
            eweight: vec![1; g.indices().len()],
            nweight: vec![1; g.num_nodes()],
        }
    }

    fn num_nodes(&self) -> usize {
        self.nweight.len()
    }

    fn neighbors(&self, v: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let r = self.indptr[v]..self.indptr[v + 1];
        // bns-allow(BNS-A005): a Range clone, no heap; reached via the CsrGraph::neighbors name
        self.indices[r.clone()]
            .iter()
            .zip(&self.eweight[r])
            .map(|(&u, &w)| (u as usize, w))
    }

    fn total_weight(&self) -> u64 {
        self.nweight.iter().sum()
    }

    /// Heavy-edge matching followed by contraction. Returns the coarse
    /// graph and the fine→coarse node map.
    fn coarsen(&self, rng: &mut SeededRng) -> (WGraph, Vec<usize>) {
        let n = self.num_nodes();
        let order = rng.permutation(n);
        let mut mate = vec![usize::MAX; n];
        for &v in &order {
            if mate[v] != usize::MAX {
                continue;
            }
            let mut best = usize::MAX;
            let mut best_w = 0u64;
            for (u, w) in self.neighbors(v) {
                if mate[u] == usize::MAX && u != v && w > best_w {
                    best = u;
                    best_w = w;
                }
            }
            if best != usize::MAX {
                mate[v] = best;
                mate[best] = v;
            } else {
                mate[v] = v; // singleton
            }
        }
        // Assign coarse ids: the smaller endpoint of each pair owns the id.
        let mut map = vec![usize::MAX; n];
        let mut next = 0usize;
        for v in 0..n {
            if map[v] != usize::MAX {
                continue;
            }
            let m = mate[v];
            map[v] = next;
            if m != v {
                map[m] = next;
            }
            next += 1;
        }
        // Contract.
        let nc = next;
        let mut nweight = vec![0u64; nc];
        for v in 0..n {
            nweight[map[v]] += self.nweight[v];
        }
        // Deterministic aggregation: bucket edges per coarse source.
        let mut coarse_edges: Vec<Vec<(u32, u64)>> = vec![Vec::new(); nc];
        for v in 0..n {
            let cv = map[v];
            for (u, w) in self.neighbors(v) {
                let cu = map[u];
                if cu != cv {
                    coarse_edges[cv].push((cu as u32, w));
                }
            }
        }
        let mut indptr = Vec::with_capacity(nc + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut eweight = Vec::new();
        for row in &mut coarse_edges {
            row.sort_unstable_by_key(|&(u, _)| u);
            let mut i = 0;
            while i < row.len() {
                let u = row[i].0;
                let mut w = 0u64;
                while i < row.len() && row[i].0 == u {
                    w += row[i].1;
                    i += 1;
                }
                indices.push(u);
                eweight.push(w);
            }
            indptr.push(indices.len());
        }
        (
            WGraph {
                indptr,
                indices,
                eweight,
                nweight,
            },
            map,
        )
    }

    /// Balanced region growing by node weight.
    fn region_grow(&self, k: usize, rng: &mut SeededRng) -> Vec<usize> {
        let n = self.num_nodes();
        let order = rng.permutation(n);
        let mut part = vec![usize::MAX; n];
        let total = self.total_weight();
        let mut assigned_w = 0u64;
        let mut current = 0usize;
        let mut cap = (total - assigned_w).div_ceil((k - current) as u64);
        let mut cur_w = 0u64;
        let mut queue = std::collections::VecDeque::new();
        let mut cursor = 0usize;
        let mut assigned_n = 0usize;
        while assigned_n < n {
            while cursor < n && part[order[cursor]] != usize::MAX {
                cursor += 1;
            }
            if cursor >= n {
                break;
            }
            queue.push_back(order[cursor]);
            while let Some(v) = queue.pop_front() {
                if part[v] != usize::MAX {
                    continue;
                }
                part[v] = current;
                cur_w += self.nweight[v];
                assigned_w += self.nweight[v];
                assigned_n += 1;
                if cur_w >= cap {
                    queue.clear();
                    break;
                }
                for (u, _) in self.neighbors(v) {
                    if part[u] == usize::MAX {
                        queue.push_back(u);
                    }
                }
            }
            if cur_w >= cap && current + 1 < k {
                current += 1;
                cur_w = 0;
                cap = (total - assigned_w).div_ceil((k - current) as u64);
            }
        }
        part
    }

    /// Greedy FM-style boundary refinement on weighted edge cut.
    fn refine_edge_cut(
        &self,
        part: &mut [usize],
        k: usize,
        passes: usize,
        epsilon: f64,
        rng: &mut SeededRng,
    ) {
        let n = self.num_nodes();
        let total = self.total_weight() as f64;
        let max_allowed = ((1.0 + epsilon) * total / k as f64).ceil() as u64;
        let mut part_w = vec![0u64; k];
        for v in 0..n {
            part_w[part[v]] += self.nweight[v];
        }
        let mut w_to: Vec<u64> = vec![0; k];
        let mut touched: Vec<usize> = Vec::new();
        for _ in 0..passes {
            let mut boundary: Vec<usize> = (0..n)
                .filter(|&v| self.neighbors(v).any(|(u, _)| part[u] != part[v]))
                .collect();
            rng.shuffle(&mut boundary);
            let mut moves = 0usize;
            for &v in &boundary {
                let own = part[v];
                // Tally edge weight toward each adjacent partition.
                for &(u, w) in self.indices[self.indptr[v]..self.indptr[v + 1]]
                    .iter()
                    .zip(&self.eweight[self.indptr[v]..self.indptr[v + 1]])
                    .map(|(&u, &w)| (u as usize, w))
                    .collect::<Vec<_>>()
                    .iter()
                {
                    let p = part[u];
                    if w_to[p] == 0 {
                        touched.push(p);
                    }
                    w_to[p] += w;
                }
                let mut best = own;
                let mut best_gain = 0i64;
                for &p in &touched {
                    if p == own {
                        continue;
                    }
                    let gain = w_to[p] as i64 - w_to[own] as i64;
                    let fits = part_w[p] + self.nweight[v] <= max_allowed;
                    let keeps_src = part_w[own] > self.nweight[v];
                    if gain > best_gain && fits && keeps_src {
                        best = p;
                        best_gain = gain;
                    }
                }
                for &p in &touched {
                    w_to[p] = 0;
                }
                touched.clear();
                if best != own {
                    part_w[own] -= self.nweight[v];
                    part_w[best] += self.nweight[v];
                    part[v] = best;
                    moves += 1;
                }
            }
            if moves == 0 {
                break;
            }
        }
        self.rebalance(part, k, max_allowed, &mut part_w);
    }

    /// Forces every part under `max_allowed` by evicting boundary nodes
    /// from overweight parts toward their least-connected underweight
    /// neighbors, accepting negative-gain moves. Coarse levels can leave
    /// parts overweight because a single coarse node may be heavy; this
    /// cleans that up as granularity allows.
    fn rebalance(&self, part: &mut [usize], k: usize, max_allowed: u64, part_w: &mut [u64]) {
        let n = self.num_nodes();
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > n {
                break;
            }
            let Some(heavy) = (0..k).find(|&p| part_w[p] > max_allowed) else {
                break;
            };
            // Cheapest eviction: the boundary node of `heavy` with the
            // least edge weight into `heavy`-internal neighbors, moved to
            // its best external partition that fits.
            let mut best: Option<(usize, usize, i64)> = None; // (node, to, gain)
            for v in 0..n {
                if part[v] != heavy {
                    continue;
                }
                let mut w_own = 0u64;
                let mut w_best_ext = 0u64;
                let mut p_best = usize::MAX;
                let mut ext: Vec<(usize, u64)> = Vec::new();
                for (u, w) in self.neighbors(v) {
                    if part[u] == heavy {
                        w_own += w;
                    } else {
                        ext.push((part[u], w));
                    }
                }
                ext.sort_unstable_by_key(|&(p, _)| p);
                let mut i = 0;
                while i < ext.len() {
                    let p = ext[i].0;
                    let mut w = 0u64;
                    while i < ext.len() && ext[i].0 == p {
                        w += ext[i].1;
                        i += 1;
                    }
                    if w >= w_best_ext && part_w[p] + self.nweight[v] <= max_allowed {
                        w_best_ext = w;
                        p_best = p;
                    }
                }
                if p_best == usize::MAX {
                    // Allow moving isolated-from-outside nodes to the
                    // lightest fitting part.
                    if let Some(p) = (0..k)
                        .filter(|&p| p != heavy && part_w[p] + self.nweight[v] <= max_allowed)
                        .min_by_key(|&p| part_w[p])
                    {
                        p_best = p;
                    } else {
                        continue;
                    }
                }
                let gain = w_best_ext as i64 - w_own as i64;
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((v, p_best, gain));
                }
            }
            let Some((v, to, _)) = best else { break };
            part_w[heavy] -= self.nweight[v];
            part_w[to] += self.nweight[v];
            part[v] = to;
        }
    }
}

/// Boundary refinement on the *true* comm-volume objective (total
/// boundary nodes) over the unweighted fine graph. Hub moves whose
/// neighborhood scan would exceed `WORK_CAP` adjacency entries are
/// skipped — they are rarely profitable and quadratic to evaluate.
fn refine_comm_volume(
    g: &CsrGraph,
    part: &mut [usize],
    k: usize,
    passes: usize,
    epsilon: f64,
    rng: &mut SeededRng,
) {
    const WORK_CAP: usize = 4096;
    let n = g.num_nodes();
    let total = n as f64;
    let max_allowed = ((1.0 + epsilon) * total / k as f64).ceil() as u64;
    let mut part_w = vec![0u64; k];
    for v in 0..n {
        part_w[part[v]] += 1;
    }
    // d_contrib(u) = #distinct partitions among u's neighbors, excluding
    // part[u]; comm volume = Σ_u d_contrib(u).
    let mut stamp = vec![usize::MAX; k];
    let mut stamp_token = 0usize;
    let d_contrib = |part: &[usize], u: usize, stamp: &mut Vec<usize>, tok: &mut usize| {
        *tok += 1;
        let mut d = 0usize;
        for &w in g.neighbors(u) {
            let p = part[w as usize];
            if p != part[u] && stamp[p] != *tok {
                stamp[p] = *tok;
                d += 1;
            }
        }
        d
    };
    for _ in 0..passes {
        let mut boundary: Vec<usize> = (0..n)
            .filter(|&v| g.neighbors(v).iter().any(|&u| part[u as usize] != part[v]))
            .collect();
        rng.shuffle(&mut boundary);
        let mut moves = 0usize;
        for &v in &boundary {
            let own = part[v];
            let work: usize = g.degree(v)
                + g.neighbors(v)
                    .iter()
                    .map(|&u| g.degree(u as usize))
                    .sum::<usize>();
            if work > WORK_CAP {
                continue;
            }
            // Candidate target partitions = those among v's neighbors.
            let mut cands: Vec<usize> = g
                .neighbors(v)
                .iter()
                .map(|&u| part[u as usize])
                .filter(|&p| p != own)
                .collect();
            cands.sort_unstable();
            cands.dedup();
            // Current local contribution.
            let mut before = d_contrib(part, v, &mut stamp, &mut stamp_token);
            for &u in g.neighbors(v) {
                before += d_contrib(part, u as usize, &mut stamp, &mut stamp_token);
            }
            let mut best = own;
            let mut best_delta = 0i64;
            for &p in &cands {
                if part_w[p] + 1 > max_allowed || part_w[own] <= 1 {
                    continue;
                }
                part[v] = p;
                let mut after = d_contrib(part, v, &mut stamp, &mut stamp_token);
                for &u in g.neighbors(v) {
                    after += d_contrib(part, u as usize, &mut stamp, &mut stamp_token);
                }
                part[v] = own;
                let delta = after as i64 - before as i64;
                if delta < best_delta {
                    best_delta = delta;
                    best = p;
                }
            }
            if best != own {
                part[v] = best;
                part_w[own] -= 1;
                part_w[best] += 1;
                moves += 1;
            }
        }
        if moves == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, RandomPartitioner};
    use bns_graph::generators::{dc_sbm, grid, power_law_degrees, ring, DcSbmParams};

    fn assert_valid(g: &CsrGraph, p: &Partitioning, k: usize) {
        assert_eq!(p.num_parts(), k);
        assert_eq!(p.num_nodes(), g.num_nodes());
        assert!(
            p.sizes().iter().all(|&s| s > 0),
            "empty part: {:?}",
            p.sizes()
        );
    }

    #[test]
    fn ring_gets_contiguous_arcs() {
        let g = ring(256);
        let p = MetisLikePartitioner::default().partition(&g, 4, 1);
        assert_valid(&g, &p, 4);
        // Optimal cut on a ring is k; allow slack but far below random.
        let cut = metrics::edge_cut(&g, &p);
        assert!(cut <= 16, "ring cut {cut}");
        assert!(p.imbalance() <= 1.06, "imbalance {}", p.imbalance());
    }

    #[test]
    fn grid_cut_beats_random_by_far() {
        let g = grid(32, 32);
        let ml = MetisLikePartitioner::default().partition(&g, 8, 2);
        let rnd = RandomPartitioner.partition(&g, 8, 2);
        assert_valid(&g, &ml, 8);
        let cut_ml = metrics::edge_cut(&g, &ml);
        let cut_rnd = metrics::edge_cut(&g, &rnd);
        assert!(
            (cut_ml as f64) < 0.3 * cut_rnd as f64,
            "ml {cut_ml} vs random {cut_rnd}"
        );
    }

    #[test]
    fn comm_volume_objective_reduces_boundary_nodes_on_sbm() {
        let mut rng = SeededRng::new(3);
        let n = 3000;
        let block_of: Vec<usize> = (0..n).map(|v| v * 8 / n).collect();
        let deg = power_law_degrees(n, 3.0, 60.0, 2.3, &mut rng);
        let g = dc_sbm(
            &DcSbmParams {
                block_of,
                expected_degrees: deg,
                p_within: 0.85,
            },
            &mut rng,
        );
        let ml = MetisLikePartitioner::default().partition(&g, 8, 4);
        let rnd = RandomPartitioner.partition(&g, 8, 4);
        assert_valid(&g, &ml, 8);
        let vol_ml = metrics::comm_volume(&g, &ml);
        let vol_rnd = metrics::comm_volume(&g, &rnd);
        assert!(
            (vol_ml as f64) < 0.6 * vol_rnd as f64,
            "ml vol {vol_ml} vs random vol {vol_rnd}"
        );
        assert!(ml.imbalance() <= 1.08, "imbalance {}", ml.imbalance());
    }

    #[test]
    fn comm_volume_objective_at_least_matches_edge_cut_objective() {
        let mut rng = SeededRng::new(5);
        let n = 1500;
        let block_of: Vec<usize> = (0..n).map(|v| v * 4 / n).collect();
        let deg = power_law_degrees(n, 3.0, 80.0, 2.2, &mut rng);
        let g = dc_sbm(
            &DcSbmParams {
                block_of,
                expected_degrees: deg,
                p_within: 0.8,
            },
            &mut rng,
        );
        let vol_obj = MetisLikePartitioner {
            objective: Objective::CommVolume,
            ..Default::default()
        }
        .partition(&g, 4, 6);
        let cut_obj = MetisLikePartitioner {
            objective: Objective::EdgeCut,
            ..Default::default()
        }
        .partition(&g, 4, 6);
        let v1 = metrics::comm_volume(&g, &vol_obj);
        let v2 = metrics::comm_volume(&g, &cut_obj);
        assert!(
            v1 as f64 <= 1.05 * v2 as f64,
            "vol objective {v1} worse than cut objective {v2}"
        );
    }

    #[test]
    fn k_equals_one_is_trivial() {
        let g = ring(16);
        let p = MetisLikePartitioner::default().partition(&g, 1, 0);
        assert_eq!(p.sizes(), vec![16]);
        assert_eq!(metrics::comm_volume(&g, &p), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = grid(10, 10);
        let a = MetisLikePartitioner::default().partition(&g, 4, 9);
        let b = MetisLikePartitioner::default().partition(&g, 4, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn small_graphs_and_large_k() {
        let g = ring(12);
        let p = MetisLikePartitioner::default().partition(&g, 6, 0);
        assert_valid(&g, &p, 6);
    }
}
