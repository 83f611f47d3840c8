//! `repro` — regenerate every table and figure of the PiPAD paper.
//!
//! ```text
//! repro <experiment> [--scale tiny|laptop] [--out <dir>]
//!
//! experiments:
//!   table1   dataset statistics
//!   fig3     PyGT latency breakdown + SM utilization
//!   fig4     GPU computation-time breakdown
//!   fig5     #requests/#transactions vs feature dimension
//!   fig9     offline parallel-GNN analysis (tuner table source)
//!   fig10    end-to-end speedups over PyGT        (runs the full grid)
//!   table2   GPU utilization                      (runs the full grid)
//!   grid     fig10 + table2 in one grid pass
//!   fig11    parallel-GNN detailed analysis + thread utilization
//!   fig12    sliced-CSR load balance + ablation speedup
//!   ablation hardware-sensitivity + per-mechanism ablations (extension)
//!   trace    Chrome-trace timeline of one pipelined run (Perfetto-loadable)
//!   chaos    deterministic fault injection + recovery demonstration
//!   resume   kill-and-resume determinism (checkpoint/restore bit-identity)
//!   alloc    host allocation profile (heap + buffer-pool counters per epoch)
//!   multigpu data-parallel scaling curve (halo traffic, allreduce, SM utilization)
//!   serve    online inference serving (latency percentiles, throughput, batching)
//!   profile  unified metrics registry + pipeline-health analysis + regression sentinel
//!   all      everything (one grid pass shared by fig10/table2)
//! ```
//!
//! `profile` additionally accepts `--baseline <file.json>`: the run's key
//! metrics are compared against the committed sentinel baseline and the
//! process exits nonzero on drift beyond the per-metric tolerances
//! (`UPDATE_BASELINE=1` rewrites the file instead).
//!
//! Results print to stdout and are written to `<out>/<name>.txt`
//! (default `results/`).

use pipad_bench::{
    ablation, alloc, breakdown, chaos, fig11, fig12, fig5, fig9, grid, multigpu, profile, resume,
    serve, table1, trace, RunScale,
};
use pipad_tensor::CountingAllocator;

/// Count host heap traffic so `repro alloc` (and the per-epoch `alloc`
/// columns of every report) can attribute allocator calls to preparing
/// vs steady-state epochs.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    experiment: String,
    scale: RunScale,
    out_dir: PathBuf,
    baseline: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut experiment = "all".to_string();
    let mut scale = RunScale::Laptop;
    let mut out_dir = PathBuf::from("results");
    let mut baseline = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                scale = RunScale::parse(argv.get(i).map(String::as_str).unwrap_or(""))
                    .unwrap_or_else(|| {
                        eprintln!("unknown scale; use tiny|laptop");
                        std::process::exit(2);
                    });
            }
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(argv.get(i).cloned().unwrap_or_default());
            }
            "--baseline" => {
                i += 1;
                baseline = Some(PathBuf::from(argv.get(i).cloned().unwrap_or_default()));
            }
            "--help" | "-h" => {
                println!("usage: repro <table1|fig3|fig4|fig5|fig9|fig10|table2|grid|fig11|fig12|trace|chaos|resume|alloc|multigpu|serve|profile|all> [--scale tiny|laptop] [--out dir] [--baseline file.json]");
                std::process::exit(0);
            }
            other => experiment = other.to_string(),
        }
        i += 1;
    }
    Args {
        experiment,
        scale,
        out_dir,
        baseline,
    }
}

fn emit(out_dir: &PathBuf, name: &str, content: &str) {
    println!("{content}");
    fs::create_dir_all(out_dir).expect("create results dir");
    let path = out_dir.join(format!("{name}.txt"));
    fs::write(&path, content).expect("write result file");
    eprintln!("[repro] wrote {}", path.display());
}

fn main() {
    let args = parse_args();
    let t0 = Instant::now();
    eprintln!(
        "[repro] experiment={} scale={}",
        args.experiment,
        args.scale.label()
    );

    let run_grid_pair = |out_dir: &PathBuf| {
        eprintln!("[repro] running the 5x3x7 grid (this is the long step)...");
        let g = grid::measure(args.scale);
        emit(out_dir, "fig10", &grid::render_fig10(&g));
        emit(out_dir, "table2", &grid::render_table2(&g));
        fs::create_dir_all(out_dir).ok();
        fs::write(out_dir.join("grid.json"), grid::render_json(&g)).expect("write grid.json");
        eprintln!("[repro] wrote {}", out_dir.join("grid.json").display());
        if let Err(e) = grid::headline_shape_holds(&g) {
            eprintln!("[repro] WARNING: headline shape check failed: {e}");
        } else {
            eprintln!("[repro] headline shape check passed (PiPAD wins everywhere; small-scale wins bigger)");
        }
    };

    match args.experiment.as_str() {
        "table1" => emit(&args.out_dir, "table1", &table1::run(args.scale)),
        "fig3" | "fig4" => {
            let rows = breakdown::measure(args.scale);
            if args.experiment == "fig3" {
                emit(&args.out_dir, "fig3", &breakdown::render_fig3(&rows));
            } else {
                emit(&args.out_dir, "fig4", &breakdown::render_fig4(&rows));
            }
        }
        "fig5" => emit(&args.out_dir, "fig5", &fig5::run()),
        "fig9" => emit(&args.out_dir, "fig9", &fig9::run()),
        "fig10" | "table2" | "grid" => run_grid_pair(&args.out_dir),
        "fig11" => {
            emit(&args.out_dir, "fig11a", &fig11::run_fig11a(args.scale));
            emit(&args.out_dir, "fig11b", &fig11::run_fig11b(args.scale));
            emit(
                &args.out_dir,
                "thread_util",
                &fig11::run_thread_util(args.scale),
            );
        }
        "fig12" => emit(&args.out_dir, "fig12", &fig12::run(args.scale)),
        "ablation" => emit(&args.out_dir, "ablation", &ablation::run(args.scale)),
        "trace" => {
            let art = trace::run(args.scale);
            emit(&args.out_dir, "trace_fig11", &art.summary);
            let path = args.out_dir.join("trace_fig11.json");
            fs::write(&path, &art.json).expect("write trace_fig11.json");
            eprintln!("[repro] wrote {}", path.display());
        }
        "chaos" => {
            let art = chaos::run(args.scale);
            emit(&args.out_dir, "chaos", &art.summary);
            let path = args.out_dir.join("chaos.json");
            fs::write(&path, &art.json).expect("write chaos.json");
            eprintln!("[repro] wrote {}", path.display());
        }
        "resume" => {
            let art = resume::run(args.scale);
            emit(&args.out_dir, "resume", &art.summary);
            let path = args.out_dir.join("resume.json");
            fs::write(&path, &art.json).expect("write resume.json");
            eprintln!("[repro] wrote {}", path.display());
        }
        "alloc" => {
            let models = alloc::measure(args.scale);
            emit(&args.out_dir, "alloc", &alloc::render(&models));
            let path = args.out_dir.join("alloc.json");
            fs::write(&path, alloc::render_json(&models)).expect("write alloc.json");
            eprintln!("[repro] wrote {}", path.display());
        }
        "multigpu" => {
            let art = multigpu::run(args.scale);
            emit(&args.out_dir, "multigpu", &art.summary);
            let path = args.out_dir.join("multigpu.json");
            fs::write(&path, &art.json).expect("write multigpu.json");
            eprintln!("[repro] wrote {}", path.display());
        }
        "profile" => {
            let art = profile::run(args.scale);
            emit(&args.out_dir, "profile", &art.table);
            for (name, body) in [("profile.json", &art.json), ("profile.prom", &art.prom)] {
                let path = args.out_dir.join(name);
                fs::write(&path, body).expect("write profile export");
                eprintln!("[repro] wrote {}", path.display());
            }
            if let Some(bp) = &args.baseline {
                if std::env::var_os("UPDATE_BASELINE").is_some() {
                    fs::write(bp, art.render_baseline()).expect("write sentinel baseline");
                    eprintln!("[repro] wrote sentinel baseline {}", bp.display());
                } else {
                    let src = fs::read_to_string(bp).unwrap_or_else(|e| {
                        eprintln!("[repro] cannot read baseline {}: {e}", bp.display());
                        std::process::exit(2);
                    });
                    match art.check_baseline(&src) {
                        Err(e) => {
                            eprintln!("[repro] baseline parse error: {e}");
                            std::process::exit(2);
                        }
                        Ok(failures) if !failures.is_empty() => {
                            for f in &failures {
                                eprintln!("[repro] {f}");
                            }
                            eprintln!(
                                "[repro] sentinel FAILED: {} metric(s) drifted beyond tolerance \
                                 (if intentional, rerun with UPDATE_BASELINE=1 and review the diff)",
                                failures.len()
                            );
                            std::process::exit(1);
                        }
                        Ok(_) => eprintln!(
                            "[repro] sentinel passed: all guarded metrics within tolerance"
                        ),
                    }
                }
            }
        }
        "serve" => {
            let art = serve::run(args.scale);
            emit(&args.out_dir, "serve", &art.summary);
            let path = args.out_dir.join("serve.json");
            fs::write(&path, &art.json).expect("write serve.json");
            eprintln!("[repro] wrote {}", path.display());
        }
        "all" => {
            emit(&args.out_dir, "table1", &table1::run(args.scale));
            let rows = breakdown::measure(args.scale);
            emit(&args.out_dir, "fig3", &breakdown::render_fig3(&rows));
            emit(&args.out_dir, "fig4", &breakdown::render_fig4(&rows));
            emit(&args.out_dir, "fig5", &fig5::run());
            emit(&args.out_dir, "fig9", &fig9::run());
            run_grid_pair(&args.out_dir);
            emit(&args.out_dir, "fig11a", &fig11::run_fig11a(args.scale));
            emit(&args.out_dir, "fig11b", &fig11::run_fig11b(args.scale));
            emit(
                &args.out_dir,
                "thread_util",
                &fig11::run_thread_util(args.scale),
            );
            emit(&args.out_dir, "fig12", &fig12::run(args.scale));
            emit(&args.out_dir, "ablation", &ablation::run(args.scale));
        }
        other => {
            eprintln!("unknown experiment '{other}'; see --help");
            std::process::exit(2);
        }
    }
    eprintln!("[repro] done in {:.1}s", t0.elapsed().as_secs_f64());
}
