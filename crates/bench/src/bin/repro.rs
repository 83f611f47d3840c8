//! `repro` — regenerate every table and figure of the PiPAD paper.
//!
//! ```text
//! repro <experiment> [--scale tiny|laptop] [--out <dir>]
//! ```
//!
//! The experiments, their aliases and the files each writes are the
//! [`pipad_bench::EXPERIMENTS`] table; `repro --help` prints it. Results
//! print to stdout and are written into `<out>/` (default `results/`).

use pipad_bench::experiments::{find, help};
use pipad_bench::{Experiment, Output, EXPERIMENTS};
use pipad_dyngraph::Scale;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Args {
    experiment: String,
    scale: Scale,
    out_dir: PathBuf,
}

fn parse_args() -> Args {
    let mut experiment = "all".to_string();
    let mut scale = Scale::Laptop;
    let mut out_dir = PathBuf::from("results");
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().unwrap_or_default();
        match arg.as_str() {
            "--scale" => {
                scale = Scale::parse(&value()).unwrap_or_else(|| {
                    eprintln!("unknown scale; use tiny|laptop");
                    std::process::exit(2);
                })
            }
            "--out" => out_dir = PathBuf::from(value()),
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
        (exp.run)(args.scale)
            .iter()
            .for_each(|o| write(&args.out_dir, o));
    }
    eprintln!("[repro] done in {:.1}s", t0.elapsed().as_secs_f64());
}
