//! The experiment table: every name `repro` accepts, what it regenerates
//! and the files it writes. `repro`'s dispatch, `--help`, the
//! unknown-experiment error and `all` are all read from [`EXPERIMENTS`].

use crate::util::Artifact;
use crate::{
    ablation, breakdown, fig11, fig12, fig5, fig9, grid, multigpu, profile, serve, table1, trace,
};
use pipad_dyngraph::Scale;
use std::fmt::Write as _;

/// One file an experiment writes into the `--out` directory. `.txt`
/// bodies are also printed to stdout.
pub struct Output {
    pub file: &'static str,
    pub body: String,
}

impl Output {
    pub fn new(file: &'static str, body: String) -> Output {
        Output { file, body }
    }
}

/// One row of the experiment table.
pub struct Experiment {
    pub name: &'static str,
    /// Other CLI names for the same run; an alias writes every file of
    /// the entry, its siblings' included.
    pub aliases: &'static [&'static str],
    /// One help line.
    pub about: &'static str,
    /// Whether `repro all` runs it: the paper's tables and figures plus
    /// `ablation`, not the other extension experiments.
    pub in_all: bool,
    pub run: fn(Scale) -> Vec<Output>,
}

fn report(txt: &'static str, json: &'static str, art: Artifact) -> Vec<Output> {
    vec![Output::new(txt, art.summary), Output::new(json, art.json)]
}

fn grid_pass(scale: Scale) -> Vec<Output> {
    eprintln!("[repro] running the 5x3x7 grid (this is the long step)...");
    let g = grid::measure(scale);
    match grid::headline_shape_holds(&g) {
        Err(e) => eprintln!("[repro] WARNING: headline shape check failed: {e}"),
        Ok(()) => eprintln!(
            "[repro] headline shape check passed (PiPAD wins everywhere; small-scale wins bigger)"
        ),
    }
    vec![
        Output::new("fig10.txt", grid::render_fig10(&g)),
        Output::new("table2.txt", grid::render_table2(&g)),
        Output::new("grid.json", grid::render_json(&g)),
    ]
}

/// Every experiment, in the order `repro all` and `--help` walk them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        aliases: &[],
        about: "Table 1 — dataset statistics (paper values + our synthetic analogues)",
        in_all: true,
        run: |s| vec![Output::new("table1.txt", table1::run(s))],
    },
    Experiment {
        name: "fig3",
        aliases: &["fig4"],
        about: "Figure 3 — PyGT latency breakdown + SM utilization; \
                Figure 4 — GPU computation-time breakdown (one measurement)",
        in_all: true,
        run: |s| {
            let rows = breakdown::measure(s);
            vec![
                Output::new("fig3.txt", breakdown::render_fig3(&rows)),
                Output::new("fig4.txt", breakdown::render_fig4(&rows)),
            ]
        },
    },
    Experiment {
        name: "fig5",
        aliases: &[],
        about: "Figure 5 — global-memory requests/transactions vs feature dimension",
        in_all: true,
        run: |_| vec![Output::new("fig5.txt", fig5::run())],
    },
    Experiment {
        name: "fig9",
        aliases: &[],
        about: "Figure 9 — offline parallel-GNN analysis (tuner table source)",
        in_all: true,
        run: |_| vec![Output::new("fig9.txt", fig9::run())],
    },
    Experiment {
        name: "grid",
        aliases: &["fig10", "table2"],
        about: "Figure 10 — end-to-end speedup over PyGT; Table 2 — GPU utilization \
                (one 5x3x7 grid pass)",
        in_all: true,
        run: grid_pass,
    },
    Experiment {
        name: "fig11",
        aliases: &[],
        about: "Figure 11 — parallel-GNN speedup, memory efficiency, dimension sensitivity; \
                §5.3 thread utilization",
        in_all: true,
        run: |s| {
            vec![
                Output::new("fig11a.txt", fig11::run_fig11a(s)),
                Output::new("fig11b.txt", fig11::run_fig11b(s)),
                Output::new("thread_util.txt", fig11::run_thread_util(s)),
            ]
        },
    },
    Experiment {
        name: "fig12",
        aliases: &[],
        about: "Figure 12 — sliced-CSR load balance + overall speedup",
        in_all: true,
        run: |s| vec![Output::new("fig12.txt", fig12::run(s))],
    },
    Experiment {
        name: "ablation",
        aliases: &[],
        about: "extension: hardware-sensitivity + per-mechanism ablations",
        in_all: true,
        run: |s| vec![Output::new("ablation.txt", ablation::run(s))],
    },
    Experiment {
        name: "trace",
        aliases: &[],
        about: "extension: Chrome-trace timeline of one pipelined run (open in Perfetto)",
        in_all: false,
        run: |s| report("trace_fig11.txt", "trace_fig11.json", trace::run(s)),
    },
    Experiment {
        name: "multigpu",
        aliases: &[],
        about: "extension: data-parallel scaling — halo traffic, allreduce, SM utilization (§4.5)",
        in_all: false,
        run: |s| report("multigpu.txt", "multigpu.json", multigpu::run(s)),
    },
    Experiment {
        name: "serve",
        aliases: &[],
        about: "extension: online inference serving — latency percentiles, throughput, batching",
        in_all: false,
        run: |s| report("serve.txt", "serve.json", serve::run(s)),
    },
    Experiment {
        name: "profile",
        aliases: &[],
        about: "extension: unified metrics registry + pipeline health (Prometheus/JSON/table)",
        in_all: false,
        run: |s| profile::run(s).outputs(),
    },
];

/// Look an experiment up by name or alias.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name || e.aliases.contains(&name))
}

/// The `repro --help` text.
pub fn help() -> String {
    let mut out = String::from(
        "usage: repro <experiment> [--scale tiny|laptop] [--out dir]\n\n\
         experiments (* = not run by `all`):\n",
    );
    for e in EXPERIMENTS {
        let mut names = e.name.to_string();
        for alias in e.aliases {
            let _ = write!(names, "|{alias}");
        }
        let mark = if e.in_all { ' ' } else { '*' };
        let _ = writeln!(out, " {mark}{names:<18} {}", e.about);
    }
    let _ = writeln!(
        out,
        "  {:<18} every unmarked experiment: the paper's tables and figures + ablation (default)",
        "all"
    );
    out.push_str("\nResults print to stdout and are written to <out>/ (default results/).\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_aliases_are_unique_and_resolve_to_their_entry() {
        let mut seen = BTreeSet::new();
        for e in EXPERIMENTS {
            for name in std::iter::once(&e.name).chain(e.aliases) {
                assert!(seen.insert(*name), "duplicate experiment name {name}");
                assert_ne!(*name, "all", "`all` is reserved");
                let found = find(name).unwrap_or_else(|| panic!("{name} is unreachable"));
                assert_eq!(found.name, e.name, "{name} resolves to the wrong entry");
            }
        }
        assert_eq!(seen.len(), 15, "the CLI surface is 15 names + `all`");
        assert!(find("nonesuch").is_none());
    }

    #[test]
    fn all_is_the_paper_plus_ablation() {
        let in_all: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.in_all)
            .map(|e| e.name)
            .collect();
        assert_eq!(
            in_all,
            ["table1", "fig3", "fig5", "fig9", "grid", "fig11", "fig12", "ablation"]
        );
    }

    #[test]
    fn help_lists_every_name() {
        let help = help();
        for e in EXPERIMENTS {
            for name in std::iter::once(&e.name).chain(e.aliases) {
                assert!(help.contains(name), "--help omits {name}");
            }
            let mark = if e.in_all { ' ' } else { '*' };
            assert!(
                help.contains(&format!("\n {mark}{}", e.name)),
                "--help mis-marks {}",
                e.name
            );
        }
        assert!(help.contains("\n  all "));
    }
}
