//! Synthetic dynamic-graph generator.
//!
//! Chung-Lu-style skewed static structure + slow edge-replacement evolution:
//! per snapshot a `change_rate` fraction of edges is dropped and replaced by
//! freshly sampled ones, so adjacent snapshots overlap by roughly
//! `1 - change_rate` — matching the ~10 % average change rate the paper
//! measures on its real datasets (§3.1).

use crate::snapshot::{DynamicGraph, Snapshot};
use pipad_sparse::Csr;
use pipad_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Parameters of one synthetic dynamic graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GenConfig {
    /// Human-readable name.
    pub name: String,
    /// Vertex count (fixed over time; DTDG snapshots share the vertex set).
    pub n_vertices: usize,
    /// Undirected edges per snapshot (directed nnz is twice this).
    pub edges_per_snapshot: usize,
    /// Snapshot count.
    pub n_snapshots: usize,
    /// Node feature dimension.
    pub feature_dim: usize,
    /// Fraction of edges replaced between consecutive snapshots.
    pub change_rate: f64,
    /// Power-law exponent for vertex sampling weights; 0 = uniform, larger
    /// values concentrate edges on hub vertices (social-network skew).
    pub skew: f64,
    /// RNG seed (every quantity is derived deterministically from it).
    pub seed: u64,
}

impl GenConfig {
    /// Generate the full snapshot sequence deterministically from `seed`.
    pub fn generate(&self) -> DynamicGraph {
        assert!(self.n_vertices >= 2, "need at least two vertices");
        assert!(self.n_snapshots >= 1);
        assert!((0.0..=1.0).contains(&self.change_rate));
        let mut rng = StdRng::seed_from_u64(self.seed);
        let sampler = VertexSampler::new(self.n_vertices, self.skew);

        // Initial undirected edge set.
        let mut edge_set: HashSet<(u32, u32)> = HashSet::with_capacity(self.edges_per_snapshot);
        let mut edge_vec: Vec<(u32, u32)> = Vec::with_capacity(self.edges_per_snapshot);
        self.fill_edges(&mut rng, &sampler, &mut edge_set, &mut edge_vec);

        // Initial features, smoothly evolving afterwards.
        let mut features = Matrix::from_fn(self.n_vertices, self.feature_dim, |_, _| {
            rng.gen_range(-1.0..=1.0)
        });

        let mut snapshots = Vec::with_capacity(self.n_snapshots);
        for t in 0..self.n_snapshots {
            if t > 0 {
                self.evolve(&mut rng, &sampler, &mut edge_set, &mut edge_vec);
                features = features
                    .map(|x| 0.9 * x) // decay toward zero…
                    .zip(
                        &Matrix::from_fn(self.n_vertices, self.feature_dim, |_, _| {
                            rng.gen_range(-1.0..=1.0)
                        }),
                        |x, n| x + 0.1 * n, // …plus fresh signal
                    );
            }
            snapshots.push(Snapshot::new(
                symmetric_csr(self.n_vertices, &edge_vec),
                features.clone(),
            ));
        }
        DynamicGraph::new(self.name.clone(), snapshots)
    }

    fn fill_edges(
        &self,
        rng: &mut StdRng,
        sampler: &VertexSampler,
        set: &mut HashSet<(u32, u32)>,
        vec: &mut Vec<(u32, u32)>,
    ) {
        let max_possible = self.n_vertices * (self.n_vertices - 1) / 2;
        let target = self.edges_per_snapshot.min(max_possible);
        let mut attempts = 0usize;
        let budget = target * 50 + 1000;
        while vec.len() < target && attempts < budget {
            attempts += 1;
            let u = sampler.sample(rng);
            let v = sampler.sample(rng);
            if u == v {
                continue;
            }
            let e = (u.min(v), u.max(v));
            if set.insert(e) {
                vec.push(e);
            }
        }
    }

    fn evolve(
        &self,
        rng: &mut StdRng,
        sampler: &VertexSampler,
        set: &mut HashSet<(u32, u32)>,
        vec: &mut Vec<(u32, u32)>,
    ) {
        let k = ((vec.len() as f64) * self.change_rate).round() as usize;
        for _ in 0..k.min(vec.len().saturating_sub(1)) {
            let i = rng.gen_range(0..vec.len());
            let e = vec.swap_remove(i);
            set.remove(&e);
        }
        self.fill_edges(rng, sampler, set, vec);
    }

    /// Descriptive statistics of a generated graph (Table 1 analogue).
    pub fn stats(&self, g: &DynamicGraph) -> DatasetStats {
        DatasetStats {
            name: g.name.clone(),
            n_vertices: g.n(),
            n_snapshots: g.len(),
            feature_dim: g.feature_dim(),
            total_directed_edges: g.total_edges(),
            mean_snapshot_edges: g.total_edges() / g.len(),
            mean_adjacent_overlap: g.mean_adjacent_overlap(),
        }
    }
}

/// Weighted vertex sampler over `w_i ∝ (i+1)^-skew` via binary search on
/// the cumulative distribution.
struct VertexSampler {
    cumulative: Vec<f64>,
}

impl VertexSampler {
    fn new(n: usize, skew: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += ((i + 1) as f64).powf(-skew);
            cumulative.push(acc);
        }
        VertexSampler { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> u32 {
        let total = *self.cumulative.last().unwrap();
        let x = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= x) as u32
    }
}

fn symmetric_csr(n: usize, undirected: &[(u32, u32)]) -> Csr {
    let mut edges = Vec::with_capacity(undirected.len() * 2);
    for &(u, v) in undirected {
        edges.push((u, v));
        edges.push((v, u));
    }
    Csr::from_edges(n, n, &edges)
}

/// Structural statistics of a generated dataset.
#[derive(Clone, Debug)]
pub struct DatasetStats {
    /// Human-readable name.
    pub name: String,
    /// Vertex count.
    pub n_vertices: usize,
    /// Snapshot count.
    pub n_snapshots: usize,
    /// Node feature dimension.
    pub feature_dim: usize,
    /// Directed nnz summed over all snapshots (Table 1's #E-S analogue).
    pub total_directed_edges: usize,
    /// Mean directed edges per snapshot.
    pub mean_snapshot_edges: usize,
    /// Mean adjacent-snapshot topology overlap rate.
    pub mean_adjacent_overlap: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GenConfig {
        GenConfig {
            name: "test".into(),
            n_vertices: 300,
            edges_per_snapshot: 900,
            n_snapshots: 6,
            feature_dim: 4,
            change_rate: 0.1,
            skew: 0.6,
            seed: 1,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = cfg().generate();
        let b = cfg().generate();
        for (sa, sb) in a.snapshots.iter().zip(&b.snapshots) {
            assert_eq!(sa.adj, sb.adj);
            assert_eq!(sa.features, sb.features);
        }
    }

    #[test]
    fn different_seed_differs() {
        let a = cfg().generate();
        let mut c2 = cfg();
        c2.seed = 2;
        let b = c2.generate();
        assert_ne!(a.snapshots[0].adj, b.snapshots[0].adj);
    }

    #[test]
    fn snapshots_are_symmetric_without_self_loops() {
        let g = cfg().generate();
        for s in &g.snapshots {
            assert!(s.adj.is_symmetric());
            for v in 0..s.n() as u32 {
                assert!(!s.adj.contains(v, v));
            }
        }
    }

    #[test]
    fn edge_budget_hit() {
        let g = cfg().generate();
        for s in &g.snapshots {
            // directed nnz = 2 × undirected target (sampling always reaches
            // the budget on this sparse config)
            assert_eq!(s.n_edges(), 1800);
        }
    }

    #[test]
    fn adjacent_overlap_tracks_change_rate() {
        let g = cfg().generate();
        let or = g.mean_adjacent_overlap();
        assert!(
            (0.80..0.96).contains(&or),
            "10% replacement should leave ~90% overlap, got {or}"
        );
    }

    #[test]
    fn skew_creates_hubs() {
        let mut c = cfg();
        c.skew = 1.0;
        let skewed = c.generate();
        let mut c2 = cfg();
        c2.skew = 0.0;
        let flat = c2.generate();
        let max_deg =
            |g: &DynamicGraph| g.snapshots[0].adj.degrees().into_iter().max().unwrap_or(0);
        assert!(max_deg(&skewed) > 2 * max_deg(&flat));
    }

    #[test]
    fn features_evolve_smoothly() {
        let g = cfg().generate();
        let a = &g.snapshots[0].features;
        let b = &g.snapshots[1].features;
        let diff = a.max_abs_diff(b);
        assert!(diff > 0.0, "features must change");
        assert!(diff < 0.5, "but slowly (decay 0.9 + 0.1 noise)");
    }

    #[test]
    fn stats_report() {
        let c = cfg();
        let g = c.generate();
        let s = c.stats(&g);
        assert_eq!(s.n_vertices, 300);
        assert_eq!(s.n_snapshots, 6);
        assert_eq!(s.mean_snapshot_edges, 1800);
        assert!(s.mean_adjacent_overlap > 0.5);
    }

    #[test]
    fn dense_saturation_is_handled() {
        // Ask for more edges than the complete graph holds.
        let c = GenConfig {
            name: "dense".into(),
            n_vertices: 10,
            edges_per_snapshot: 500,
            n_snapshots: 2,
            feature_dim: 2,
            change_rate: 0.2,
            skew: 0.0,
            seed: 3,
        };
        let g = c.generate();
        assert!(g.snapshots[0].n_edges() <= 90);
    }
}
