//! Immutable undirected graphs in compressed sparse row (CSR) form.

use crate::NodeId;

/// Error building a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint was `>= n`.
    EndpointOutOfRange {
        /// The offending endpoint.
        endpoint: usize,
        /// The number of vertices the graph was declared with.
        n: usize,
    },
    /// An edge connected a vertex to itself; the radio model has no self-loops.
    SelfLoop(usize),
    /// The graph must have at least one vertex.
    Empty,
}

impl core::fmt::Display for GraphError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GraphError::EndpointOutOfRange { endpoint, n } => {
                write!(f, "edge endpoint {endpoint} out of range for n = {n}")
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop at vertex {v}"),
            GraphError::Empty => write!(f, "graph must have at least one vertex"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable, undirected, simple graph stored in CSR form.
///
/// Vertices are `0..n`. Parallel edges are deduplicated at construction.
/// Neighbor lists are sorted, so membership tests are `O(log deg)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
}

impl Graph {
    /// Builds a graph on `n` vertices from an edge list.
    ///
    /// Edges may appear in either orientation and duplicates are removed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if `n == 0`, an endpoint is out of range, or an
    /// edge is a self-loop.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(u, v) in edges {
            if u >= n {
                return Err(GraphError::EndpointOutOfRange { endpoint: u, n });
            }
            if v >= n {
                return Err(GraphError::EndpointOutOfRange { endpoint: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            adj[u].push(v as u32);
            adj[v].push(u as u32);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0u32);
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len() as u32);
        }
        Ok(Graph {
            n,
            offsets,
            neighbors,
        })
    }

    /// The number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The number of undirected edges.
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// The neighbors of `v`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbor_row(v).iter().map(|&u| u as NodeId)
    }

    /// The CSR row of `v`: its neighbors as a sorted `&[u32]` slice.
    ///
    /// This is the slot engine's collision-resolution entry point —
    /// callers test each row entry against per-node state instead of
    /// driving the [`neighbors`] iterator, and the sorted order means the
    /// first transmitting entry found is the lowest-id one.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    ///
    /// [`neighbors`]: Graph::neighbors
    #[inline]
    pub fn neighbor_row(&self, v: NodeId) -> &[u32] {
        let lo = self.offsets[v] as usize;
        let hi = self.offsets[v + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// The degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The maximum degree Δ.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Whether `{u, v}` is an edge. `O(log deg(u))`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let lo = self.offsets[u] as usize;
        let hi = self.offsets[u + 1] as usize;
        self.neighbors[lo..hi].binary_search(&(v as u32)).is_ok()
    }

    /// BFS distances from `src`; unreachable vertices get `u32::MAX`.
    pub fn bfs(&self, src: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.n];
        let mut queue = std::collections::VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u];
            for w in self.neighbors(u) {
                if dist[w] == u32::MAX {
                    dist[w] = du + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// The eccentricity of `v` (max distance to any vertex); `None` if the
    /// graph is disconnected.
    pub fn eccentricity(&self, v: NodeId) -> Option<u32> {
        let dist = self.bfs(v);
        let mx = *dist.iter().max()?;
        if mx == u32::MAX {
            None
        } else {
            Some(mx)
        }
    }

    /// The exact diameter, by running BFS from every vertex.
    ///
    /// `O(n (n + m))` — intended for test- and bench-scale graphs. Returns
    /// `None` if disconnected.
    pub fn diameter_exact(&self) -> Option<u32> {
        let mut d = 0u32;
        for v in 0..self.n {
            d = d.max(self.eccentricity(v)?);
        }
        Some(d)
    }

    /// A fast diameter *lower bound* via double-sweep BFS (exact on trees).
    ///
    /// Returns `None` if disconnected.
    pub fn diameter_double_sweep(&self) -> Option<u32> {
        let d0 = self.bfs(0);
        let (far, &mx) = d0
            .iter()
            .enumerate()
            .max_by_key(|&(_, d)| *d)
            .expect("graph is nonempty");
        if mx == u32::MAX {
            return None;
        }
        self.eccentricity(far)
    }

    /// Whether the graph is connected.
    pub fn is_connected(&self) -> bool {
        self.bfs(0).iter().all(|&d| d != u32::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Graph::from_edges(0, &[]), Err(GraphError::Empty));
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            Graph::from_edges(2, &[(0, 2)]),
            Err(GraphError::EndpointOutOfRange { endpoint: 2, n: 2 })
        ));
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(3, &[(1, 1)]),
            Err(GraphError::SelfLoop(1))
        );
    }

    #[test]
    fn dedups_parallel_edges() {
        let g = Graph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(4, &[(2, 0), (2, 3), (2, 1)]).unwrap();
        let nb: Vec<_> = g.neighbors(2).collect();
        assert_eq!(nb, vec![0, 1, 3]);
    }

    #[test]
    fn path_distances() {
        let g = path(5);
        assert_eq!(g.bfs(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(g.diameter_exact(), Some(4));
        assert_eq!(g.diameter_double_sweep(), Some(4));
        assert!(g.is_connected());
    }

    #[test]
    fn disconnected_detected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.diameter_exact(), None);
        assert_eq!(g.eccentricity(0), None);
    }

    #[test]
    fn neighbor_row_matches_iterator_and_offsets() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 3), (2, 4), (1, 3)]).unwrap();
        for v in 0..5 {
            let row: Vec<NodeId> = g.neighbor_row(v).iter().map(|&u| u as NodeId).collect();
            let it: Vec<NodeId> = g.neighbors(v).collect();
            assert_eq!(row, it, "row/iterator mismatch at {v}");
            assert_eq!(row.len(), g.degree(v), "row/degree mismatch at {v}");
        }
        let total: usize = (0..5).map(|v| g.neighbor_row(v).len()).sum();
        assert_eq!(total, 2 * g.m());
    }

    #[test]
    fn has_edge_both_orientations() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn singleton_graph() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert_eq!(g.n(), 1);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.diameter_exact(), Some(0));
    }
}
