//! The seven evaluation datasets of the paper's Table 1, reproduced as
//! synthetic generator configurations.
//!
//! Table 1's own numbers (vertices, edges after edge-life smoothing,
//! feature dimension, snapshot count) are kept as [`PaperRow`]s for
//! reporting beside the analogue. The `Laptop` scale divides the two
//! social-network giants by 64 and the mid-size graphs by smaller factors
//! so the whole evaluation grid runs on a laptop; `Tiny` is for unit
//! tests. Each scale preserves the statistics the performance story
//! depends on: relative density ordering (Epinions and HepTh dense,
//! Youtube hypersparse), degree skew, feature dimensions (2 for large
//! graphs, 16 for small ones — §5.1), and the ~10 % change rate.

use crate::generator::GenConfig;

/// The seven datasets of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// Social network; 2.3 M vertices, dense after smoothing.
    Flickr,
    /// Social network; 3.2 M vertices but hypersparse (many empty rows).
    Youtube,
    /// E-commerce; 1.1 M vertices, sparse.
    AmzAutomotive,
    /// E-commerce; 727 K vertices, dense.
    Epinions,
    /// Citation network; 22 K vertices, dense, 16-dim features.
    HepTh,
    /// Traffic network; 170 sensors, 16-dim features.
    Pems08,
    /// Disease transmission; 130 regions, 16-dim features.
    Covid19England,
}

/// All datasets in the paper's presentation order.
pub const ALL_DATASETS: [DatasetId; 7] = [
    DatasetId::AmzAutomotive,
    DatasetId::Epinions,
    DatasetId::Flickr,
    DatasetId::Youtube,
    DatasetId::HepTh,
    DatasetId::Covid19England,
    DatasetId::Pems08,
];

/// How big to instantiate a dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-sized: big graphs ÷64, snapshots capped at 24.
    Laptop,
    /// Unit-test sized.
    Tiny,
}

impl Scale {
    /// The scale a label names (`tiny` or `laptop`), if any.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "laptop" => Some(Scale::Laptop),
            _ => None,
        }
    }

    /// The label [`Scale::parse`] reads, as written into results.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Laptop => "laptop",
        }
    }
}

/// One row of the paper's Table 1, for reporting alongside our analogue.
#[derive(Clone, Copy, Debug)]
pub struct PaperRow {
    pub name: &'static str,
    pub category: &'static str,
    pub n_vertices: u64,
    pub n_edges: u64,
    pub feature_dim: u32,
    pub n_snapshots: u32,
    pub edges_smoothed: u64,
}

impl DatasetId {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Flickr => "Flickr",
            DatasetId::Youtube => "Youtube",
            DatasetId::AmzAutomotive => "amz-Automotive",
            DatasetId::Epinions => "Epinions",
            DatasetId::HepTh => "HepTh",
            DatasetId::Pems08 => "PEMS08",
            DatasetId::Covid19England => "Covid19-England",
        }
    }

    /// Two-letter abbreviation used by the paper's Table 2.
    pub fn abbrev(self) -> &'static str {
        match self {
            DatasetId::Flickr => "FL",
            DatasetId::Youtube => "YT",
            DatasetId::AmzAutomotive => "AA",
            DatasetId::Epinions => "EP",
            DatasetId::HepTh => "HT",
            DatasetId::Pems08 => "PE",
            DatasetId::Covid19England => "CE",
        }
    }

    /// The paper classifies HepTh, PEMS08 and Covid19-England as the
    /// "small-scale" datasets (16-dim features, hidden 32); the rest are
    /// "large-scale" (2-dim features, hidden 6) — §5.1.
    pub fn is_small_scale(self) -> bool {
        matches!(
            self,
            DatasetId::HepTh | DatasetId::Pems08 | DatasetId::Covid19England
        )
    }

    /// Input feature dimension per §5.1.
    pub fn feature_dim(self) -> usize {
        if self.is_small_scale() {
            16
        } else {
            2
        }
    }

    /// Hidden dimension per §5.1.
    pub fn hidden_dim(self) -> usize {
        if self.is_small_scale() {
            32
        } else {
            6
        }
    }

    /// The verbatim Table 1 row.
    pub fn paper_row(self) -> PaperRow {
        match self {
            DatasetId::Flickr => PaperRow {
                name: "Flickr",
                category: "Social Network",
                n_vertices: 2_300_000,
                n_edges: 33_100_000,
                feature_dim: 2,
                n_snapshots: 132,
                edges_smoothed: 480_000_000,
            },
            DatasetId::Youtube => PaperRow {
                name: "Youtube",
                category: "Social Network",
                n_vertices: 3_200_000,
                n_edges: 602_000,
                feature_dim: 2,
                n_snapshots: 198,
                edges_smoothed: 11_000_000,
            },
            DatasetId::AmzAutomotive => PaperRow {
                name: "amz-Automotive",
                category: "E-commerce",
                n_vertices: 1_100_000,
                n_edges: 1_300_000,
                feature_dim: 2,
                n_snapshots: 524,
                edges_smoothed: 55_000_000,
            },
            DatasetId::Epinions => PaperRow {
                name: "Epinions",
                category: "E-commerce",
                n_vertices: 727_000,
                n_edges: 13_600_000,
                feature_dim: 2,
                n_snapshots: 99,
                edges_smoothed: 78_000_000,
            },
            DatasetId::HepTh => PaperRow {
                name: "HepTh",
                category: "Citation Network",
                n_vertices: 22_000,
                n_edges: 2_600_000,
                feature_dim: 16,
                n_snapshots: 214,
                edges_smoothed: 18_000_000,
            },
            DatasetId::Pems08 => PaperRow {
                name: "PEMS08",
                category: "Traffic Network",
                n_vertices: 170,
                n_edges: 7_202,
                feature_dim: 16,
                n_snapshots: 90,
                edges_smoothed: 7_202,
            },
            DatasetId::Covid19England => PaperRow {
                name: "Covid19-England",
                category: "Disease Transmission",
                n_vertices: 130,
                n_edges: 82_000,
                feature_dim: 16,
                n_snapshots: 61,
                edges_smoothed: 108_000,
            },
        }
    }

    /// Generator configuration at the requested scale.
    ///
    /// Per-snapshot edge budgets derive from Table 1's smoothed edge count
    /// divided by the snapshot count (training operates on the smoothed
    /// sequence, as in ESDG), then divided by the scale factor.
    pub fn gen_config(self, scale: Scale) -> GenConfig {
        // (vertices, undirected edges/snapshot, snapshots, skew) at laptop scale
        let (n, e, s, skew) = match self {
            DatasetId::Flickr => (36_000, 28_000, 24, 0.8),
            DatasetId::Youtube => (50_000, 4_300, 24, 0.6),
            DatasetId::AmzAutomotive => (17_000, 8_000, 24, 0.5),
            DatasetId::Epinions => (11_400, 30_000, 24, 0.7),
            DatasetId::HepTh => (5_500, 21_000, 24, 0.4),
            DatasetId::Pems08 => (170, 3_600, 24, 0.1),
            DatasetId::Covid19England => (130, 900, 24, 0.2),
        };
        let (n, e, s) = match scale {
            Scale::Laptop => (n, e, s),
            Scale::Tiny => ((n / 32).max(40), (e / 32).max(60), 20),
        };
        GenConfig {
            name: self.name().to_string(),
            n_vertices: n,
            edges_per_snapshot: e,
            n_snapshots: s,
            feature_dim: self.feature_dim(),
            change_rate: 0.1,
            skew,
            seed: 0x9157 + self as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rows_match_table1() {
        let r = DatasetId::Flickr.paper_row();
        assert_eq!(r.n_vertices, 2_300_000);
        assert_eq!(r.n_snapshots, 132);
        let r = DatasetId::Covid19England.paper_row();
        assert_eq!(r.feature_dim, 16);
        assert_eq!(r.edges_smoothed, 108_000);
    }

    #[test]
    fn scale_parse_round_trip() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("laptop"), Some(Scale::Laptop));
        assert_eq!(Scale::parse("paper"), None);
        assert_eq!(Scale::Tiny.label(), "tiny");
    }

    #[test]
    fn dims_follow_section_5_1() {
        for d in ALL_DATASETS {
            if d.is_small_scale() {
                assert_eq!((d.feature_dim(), d.hidden_dim()), (16, 32));
            } else {
                assert_eq!((d.feature_dim(), d.hidden_dim()), (2, 6));
            }
        }
    }

    #[test]
    fn tiny_configs_generate_quickly() {
        for d in ALL_DATASETS {
            let g = d.gen_config(Scale::Tiny).generate();
            assert_eq!(g.len(), 20, "{}", d.name());
            assert!(g.n() >= 40);
            assert_eq!(g.feature_dim(), d.feature_dim());
        }
    }

    #[test]
    fn youtube_is_hypersparse_epinions_dense() {
        let yt = DatasetId::Youtube.gen_config(Scale::Tiny).generate();
        let ep = DatasetId::Epinions.gen_config(Scale::Tiny).generate();
        let density = |g: &crate::DynamicGraph| g.snapshots[0].n_edges() as f64 / g.n() as f64;
        assert!(density(&ep) > 4.0 * density(&yt));
        // Youtube's signature: lots of empty rows
        let empty_frac = yt.snapshots[0].adj.empty_rows() as f64 / yt.n() as f64;
        assert!(empty_frac > 0.3, "empty_frac={empty_frac}");
    }

    #[test]
    fn seeds_differ_between_datasets() {
        let a = DatasetId::Flickr.gen_config(Scale::Tiny);
        let b = DatasetId::Youtube.gen_config(Scale::Tiny);
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn abbrevs_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in ALL_DATASETS {
            assert!(seen.insert(d.abbrev()));
        }
    }
}
