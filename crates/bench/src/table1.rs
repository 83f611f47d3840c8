//! Table 1: the evaluation datasets — paper numbers side by side with the
//! synthetic analogues actually generated at the chosen scale.

use crate::util::{dataset, header, pad};
use pipad_dyngraph::{DatasetId, Scale, ALL_DATASETS};
use std::fmt::Write;

/// Render Table 1.
pub fn run(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str(&header("Table 1: Graph Datasets for Evaluation"));
    writeln!(
        out,
        "{} {} {} {} {} {}  ||  generated analogue ({} scale)",
        pad("Dataset", 17),
        pad("#N", 10),
        pad("#E", 12),
        pad("D", 3),
        pad("#S", 4),
        pad("#E-S", 12),
        scale.label(),
    )
    .unwrap();
    writeln!(
        out,
        "{} {} {} {} {} {}  ||  {} {} {} {} {}",
        pad("", 17),
        pad("(paper)", 10),
        pad("(paper)", 12),
        pad("", 3),
        pad("", 4),
        pad("(paper)", 12),
        pad("#N", 8),
        pad("#E/snap", 9),
        pad("D", 3),
        pad("#S", 4),
        pad("adj-OR", 7),
    )
    .unwrap();
    for id in ALL_DATASETS {
        let row = id.paper_row();
        let g = dataset(id, scale);
        let cfg = id.gen_config(scale);
        let stats = cfg.stats(&g);
        writeln!(
            out,
            "{} {} {} {} {} {}  ||  {} {} {} {} {:.2}",
            pad(row.name, 17),
            pad(&fmt_big(row.n_vertices), 10),
            pad(&fmt_big(row.n_edges), 12),
            pad(&row.feature_dim.to_string(), 3),
            pad(&row.n_snapshots.to_string(), 4),
            pad(&fmt_big(row.edges_smoothed), 12),
            pad(&fmt_big(stats.n_vertices as u64), 8),
            pad(&fmt_big(stats.mean_snapshot_edges as u64), 9),
            pad(&stats.feature_dim.to_string(), 3),
            pad(&stats.n_snapshots.to_string(), 4),
            stats.mean_adjacent_overlap,
        )
        .unwrap();
    }
    out.push_str(
        "\nadj-OR: mean adjacent-snapshot topology overlap; the paper reports ~10% change\n\
         (OR ≈ 0.9) on average across its datasets (§3.1).\n",
    );
    out
}

fn fmt_big(v: u64) -> String {
    if v >= 1_000_000 {
        format!("{:.1}M", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.1}K", v as f64 / 1e3)
    } else {
        v.to_string()
    }
}

/// Verify the analogue preserves the relative density ordering the
/// performance story depends on.
pub fn density_ordering_holds(scale: Scale) -> bool {
    let density = |id: DatasetId| {
        let g = dataset(id, scale);
        g.snapshots[0].n_edges() as f64 / g.n() as f64
    };
    let yt = density(DatasetId::Youtube);
    let ep = density(DatasetId::Epinions);
    let ht = density(DatasetId::HepTh);
    yt < ep && yt < ht
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_rows() {
        let s = run(Scale::Tiny);
        for id in ALL_DATASETS {
            assert!(s.contains(id.paper_row().name), "missing {}", id.name());
        }
        assert!(s.contains("2.3M")); // Flickr paper vertices
    }

    #[test]
    fn density_ordering() {
        assert!(density_ordering_holds(Scale::Tiny));
    }

    #[test]
    fn big_number_formatting() {
        assert_eq!(fmt_big(42), "42");
        assert_eq!(fmt_big(7_202), "7.2K");
        assert_eq!(fmt_big(2_300_000), "2.3M");
    }
}
