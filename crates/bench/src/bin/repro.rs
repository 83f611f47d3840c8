//! `repro` — regenerate every table and figure of the PiPAD paper.
//!
//! ```text
//! repro <experiment> [--scale tiny|laptop] [--out <dir>] [--baseline <file.json>]
//! ```
//!
//! The experiments, their aliases and the files each writes are the
//! [`pipad_bench::EXPERIMENTS`] table; `repro --help` prints it. Results
//! print to stdout and are written into `<out>/` (default `results/`).
//!
//! `profile` additionally accepts `--baseline <file.json>`: the run's key
//! metrics are compared against the committed sentinel baseline and the
//! process exits nonzero on drift beyond the per-metric tolerances
//! (`UPDATE_BASELINE=1` rewrites the file instead).

use pipad_bench::experiments::{find, help};
use pipad_bench::profile::{self, ProfileArtifact};
use pipad_bench::{Experiment, Output, RunScale, EXPERIMENTS};
use std::fs;
use std::path::{Path, PathBuf};
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
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().unwrap_or_default();
        match arg.as_str() {
            "--scale" => {
                scale = RunScale::parse(&value()).unwrap_or_else(|| {
                    eprintln!("unknown scale; use tiny|laptop");
                    std::process::exit(2);
                })
            }
            "--out" => out_dir = PathBuf::from(value()),
            "--baseline" => baseline = Some(PathBuf::from(value())),
            "--help" | "-h" => {
                print!("{}", help());
                std::process::exit(0);
            }
            other => experiment = other.to_string(),
        }
    }
    Args {
        experiment,
        scale,
        out_dir,
        baseline,
    }
}

fn write(out_dir: &Path, o: &Output) {
    if o.file.ends_with(".txt") {
        println!("{}", o.body);
    }
    fs::create_dir_all(out_dir).expect("create results dir");
    let path = out_dir.join(o.file);
    fs::write(&path, &o.body).expect("write result file");
    eprintln!("[repro] wrote {}", path.display());
}

/// `profile --baseline`: compare the run against the committed sentinel
/// baseline (or rewrite it under `UPDATE_BASELINE`); exits 1 on drift.
fn sentinel(art: &ProfileArtifact, baseline: &Path) {
    if std::env::var_os("UPDATE_BASELINE").is_some() {
        fs::write(baseline, art.render_baseline()).expect("write sentinel baseline");
        eprintln!("[repro] wrote sentinel baseline {}", baseline.display());
        return;
    }
    let src = fs::read_to_string(baseline).unwrap_or_else(|e| {
        eprintln!("[repro] cannot read baseline {}: {e}", baseline.display());
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
        Ok(_) => eprintln!("[repro] sentinel passed: all guarded metrics within tolerance"),
    }
}

fn main() {
    let args = parse_args();
    let t0 = Instant::now();
    eprintln!(
        "[repro] experiment={} scale={}",
        args.experiment,
        args.scale.label()
    );

    let selected: Vec<&Experiment> = if args.experiment == "all" {
        EXPERIMENTS.iter().filter(|e| e.in_all).collect()
    } else {
        vec![find(&args.experiment).unwrap_or_else(|| {
            eprintln!("unknown experiment '{}'; see --help", args.experiment);
            std::process::exit(2);
        })]
    };
    for exp in selected {
        // The one special case: the sentinel needs the profile artifact's
        // flat metric map, not just the files the table entry returns.
        if let ("profile", Some(baseline)) = (exp.name, &args.baseline) {
            let art = profile::run(args.scale);
            art.outputs().iter().for_each(|o| write(&args.out_dir, o));
            sentinel(&art, baseline);
        } else {
            (exp.run)(args.scale)
                .iter()
                .for_each(|o| write(&args.out_dir, o));
        }
    }
    eprintln!("[repro] done in {:.1}s", t0.elapsed().as_secs_f64());
}
