//! Graph statistics: the quantities the paper's hybrid workload heuristic
//! and dataset table speak in.

use crate::csr::Csr;

/// Summary statistics of one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Vertex count.
    pub vertices: usize,
    /// Directed edge count.
    pub edges: usize,
    /// Average degree.
    pub avg_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Fraction of vertices with zero degree.
    pub isolated_fraction: f64,
    /// Gini coefficient of the degree distribution (0 = perfectly even,
    /// → 1 = all edges on one vertex). A robust skew measure.
    pub degree_gini: f64,
}

impl GraphStats {
    /// Compute statistics for a graph.
    pub fn of(g: &Csr) -> Self {
        let n = g.num_vertices();
        let mut degrees: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
        let isolated = degrees.iter().filter(|&&d| d == 0).count();
        degrees.sort_unstable();
        let m: usize = g.num_edges();
        // Gini = (2 * Σ i*d_i / (n * Σ d_i)) - (n + 1) / n, with d sorted
        // ascending and i 1-based.
        let gini = if m == 0 || n == 0 {
            0.0
        } else {
            let weighted: f64 = degrees
                .iter()
                .enumerate()
                .map(|(i, &d)| (i as f64 + 1.0) * d as f64)
                .sum();
            (2.0 * weighted) / (n as f64 * m as f64) - (n as f64 + 1.0) / n as f64
        };
        Self {
            vertices: n,
            edges: m,
            avg_degree: g.avg_degree(),
            max_degree: g.max_degree(),
            isolated_fraction: if n == 0 {
                0.0
            } else {
                isolated as f64 / n as f64
            },
            degree_gini: gini,
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|V|={} |E|={} avg_deg={:.1} max_deg={} gini={:.2}",
            self.vertices, self.edges, self.avg_degree, self.max_degree, self.degree_gini
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn regular_graph_has_zero_gini() {
        let g = generators::ring_lattice(100, 4);
        let s = GraphStats::of(&g);
        assert!(s.degree_gini.abs() < 1e-9);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.isolated_fraction, 0.0);
    }

    #[test]
    fn star_graph_has_high_gini() {
        let g = generators::star(100);
        let s = GraphStats::of(&g);
        assert!(s.degree_gini > 0.9, "gini = {}", s.degree_gini);
        assert!((s.isolated_fraction - 0.99).abs() < 1e-9);
    }

    #[test]
    fn rmat_more_skewed_than_er() {
        let er = GraphStats::of(&generators::erdos_renyi(1000, 8000, 2));
        let rm = GraphStats::of(&generators::rmat_default(1000, 8000, 2));
        assert!(rm.degree_gini > er.degree_gini);
    }

    #[test]
    fn display_is_informative() {
        let s = GraphStats::of(&generators::path(5));
        let out = format!("{s}");
        assert!(out.contains("|V|=5"));
        assert!(out.contains("|E|=4"));
    }
}
