//! Suite mode: every workload, untraced then traced, each run in its own
//! child process (clean RSS, clean thread-local pools), with a wall-time
//! budget guard; and `--check-repeat`, which runs the suite twice and
//! compares the two.

use crate::catalog::{END_TO_END, RUN_SECONDS};
use crate::workloads::WORKLOADS;
use crate::{Args, UNVALIDATED};
use pipad_metrics::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The driver makes `4 + 22 × workloads` runs and two builds in 3420 s.
const DRIVER_BUDGET_S: f64 = 3420.0;
const BUILD_ALLOWANCE_S: f64 = 60.0;
/// No single run may take longer than this.
const RUN_CAP_S: f64 = 180.0;
const RESULTS_DIR: &str = "benchmark/results";

/// Mean wall time one driver run may take for the whole schedule to fit.
fn mean_run_budget_s() -> f64 {
    let runs = 4 + 22 * WORKLOADS.len();
    (DRIVER_BUDGET_S - 2.0 * BUILD_ALLOWANCE_S) / runs as f64
}

/// One child run: its parsed result line and how long it took.
struct ChildRun {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    result_line: String,
    wall_s: f64,
}

fn run_child(workload: &str, args: &Args, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("child stdout: {e}"))?;
        // The result object is long; the metric lines above it say the same.
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let doc =
        Json::parse(&last).map_err(|e| format!("{workload}: no result line ({status}): {e}"))?;
    let correct = doc.get("correct") == Some(&Json::Bool(true)) && status.success();
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(fields)) = doc.get("metrics") {
        for (name, m) in fields {
            if let Some(Json::Num(v)) = m.get("value") {
                metrics.insert(name.clone(), *v);
            }
        }
    }
    Ok(ChildRun {
        correct,
        metrics,
        result_line: last,
        wall_s,
    })
}

/// Both passes of every selected workload.
struct SuiteRun {
    /// `(workload, untraced, traced)`.
    runs: Vec<(&'static str, ChildRun, ChildRun)>,
    problems: Vec<String>,
}

fn run_suite(args: &Args) -> Result<SuiteRun, String> {
    let mut runs = Vec::new();
    let mut problems = Vec::new();
    let selected = WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name));
    for w in selected {
        let untraced = run_child(w.name, args, false)?;
        let traced = run_child(w.name, args, true)?;
        println!(
            "# {} wall time: untraced {:.1} s, traced {:.1} s",
            w.name, untraced.wall_s, traced.wall_s
        );
        for (pass, run) in [("untraced", &untraced), ("traced", &traced)] {
            if !run.correct {
                problems.push(format!("{} ({pass}): an output check failed", w.name));
            }
            if run.wall_s > RUN_CAP_S {
                problems.push(format!(
                    "{} ({pass}) took {:.1} s, over the {RUN_CAP_S} s cap of one run",
                    w.name, run.wall_s
                ));
            }
        }
        runs.push((w.name, untraced, traced));
    }
    if runs.is_empty() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    // The driver's schedule is almost all untraced runs, so their mean is
    // what has to fit its budget. Cut reps to shrink, never shapes.
    let total: f64 = runs.iter().map(|(_, u, t)| u.wall_s + t.wall_s).sum();
    let mean = runs.iter().map(|(_, u, _)| u.wall_s).sum::<f64>() / runs.len() as f64;
    let budget = mean_run_budget_s();
    println!(
        "# suite wall time {total:.1} s; mean untraced run {mean:.1} s of {budget:.1} s allowed"
    );
    if args.seconds == RUN_SECONDS && mean > budget {
        problems.push(format!(
            "mean untraced run {mean:.1} s exceeds the {budget:.1} s the driver's schedule allows"
        ));
    }
    Ok(SuiteRun { runs, problems })
}

/// Host-side metrics vary from run to run; everything else is a function
/// of the seed alone and must repeat exactly.
fn is_host_metric(name: &str) -> bool {
    name.contains("host")
        || name == "setup_s"
        || name.starts_with("tensor.heap_")
        || name == "tensor.bufpool_hit_share"
        || name == "bench.trace_overhead_share"
}

fn compare(a: &SuiteRun, b: &SuiteRun) -> Vec<String> {
    let mut problems = Vec::new();
    for ((name, ua, ta), (_, ub, tb)) in a.runs.iter().zip(&b.runs) {
        for (ma, mb) in [(&ua.metrics, &ub.metrics), (&ta.metrics, &tb.metrics)] {
            for (metric, &va) in ma {
                let vb = mb.get(metric).copied().unwrap_or(f64::NAN);
                if is_host_metric(metric) {
                    let bound = END_TO_END.iter().find(|(d, _)| d.name == metric);
                    if let Some((_, bound)) = bound {
                        let drift = (vb - va).abs() / va;
                        if drift.is_nan() || drift > *bound {
                            problems.push(format!(
                                "{name}: {metric} moved {va} -> {vb}, more than its bound {bound}"
                            ));
                        }
                    }
                } else if va.to_bits() != vb.to_bits() {
                    problems.push(format!(
                        "{name}: {metric} must repeat exactly but read {va} then {vb}"
                    ));
                }
            }
        }
    }
    problems
}

fn results_json(run: &SuiteRun, args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n");
    // No end-to-end number here is presented as a gain.
    out.push_str("  \"claim\": null,\n");
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let _ = writeln!(out, "  \"seconds\": {},", args.seconds);
    let _ = writeln!(out, "  \"available_parallelism\": {nproc},");
    let _ = writeln!(out, "  \"pool_threads\": {},", pipad_pool::max_threads());
    let _ = writeln!(out, "  \"note\": \"{UNVALIDATED}\",");
    out.push_str("  \"workloads\": {\n");
    for (i, (name, untraced, traced)) in run.runs.iter().enumerate() {
        let sep = if i + 1 < run.runs.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    \"{name}\": {{\"untraced_wall_s\": {}, \"traced_wall_s\": {},\n      \
             \"untraced\": {},\n      \"traced\": {}}}{sep}",
            untraced.wall_s, traced.wall_s, untraced.result_line, traced.result_line
        );
    }
    out.push_str("  }\n}\n");
    out
}

fn write_results(label: &str, run: &SuiteRun, args: &Args) -> Result<(), String> {
    let doc = results_json(run, args);
    pipad_gpu_sim::validate_json(&doc).map_err(|e| format!("results document: {e}"))?;
    std::fs::create_dir_all(RESULTS_DIR).map_err(|e| e.to_string())?;
    let path = format!("{RESULTS_DIR}/seed_run_{label}.json");
    std::fs::write(&path, doc).map_err(|e| format!("{path}: {e}"))?;
    println!("# wrote {path}");
    Ok(())
}

pub fn run(args: &Args) -> ExitCode {
    let outcome = (|| -> Result<Vec<String>, String> {
        let a = run_suite(args)?;
        let mut problems = Vec::new();
        problems.extend(a.problems.iter().cloned());
        if args.check_repeat {
            let b = run_suite(args)?;
            problems.extend(b.problems.iter().cloned());
            problems.extend(compare(&a, &b));
            write_results("a", &a, args)?;
            write_results("b", &b, args)?;
        }
        Ok(problems)
    })();
    match outcome {
        Ok(problems) if problems.is_empty() => {
            println!("# all output checks passed");
            ExitCode::SUCCESS
        }
        Ok(problems) => {
            for p in problems {
                eprintln!("FAILED: {p}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child(metrics: &[(&str, f64)]) -> ChildRun {
        ChildRun {
            correct: true,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            result_line: String::new(),
            wall_s: 1.0,
        }
    }

    fn suite(untraced: &[(&str, f64)], traced: &[(&str, f64)]) -> SuiteRun {
        SuiteRun {
            runs: vec![("w", child(untraced), child(traced))],
            problems: Vec::new(),
        }
    }

    #[test]
    fn simulated_metrics_must_repeat_exactly_and_host_metrics_within_bounds() {
        let a = suite(
            &[("host_time_s", 10.0), ("result_sim_ns", 5.0)],
            &[("kernels.add_host_ns", 100.0), ("final_loss", 0.5)],
        );
        let same = suite(
            &[("host_time_s", 10.9), ("result_sim_ns", 5.0)],
            &[("kernels.add_host_ns", 900.0), ("final_loss", 0.5)],
        );
        assert_eq!(compare(&a, &same), Vec::<String>::new());
        let drifted = suite(
            &[("host_time_s", 13.0), ("result_sim_ns", 5.000001)],
            &[("kernels.add_host_ns", 100.0), ("final_loss", 0.25)],
        );
        let problems = compare(&a, &drifted);
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert!(problems[0].contains("host_time_s"));
        assert!(problems[1].contains("result_sim_ns"));
        assert!(problems[2].contains("final_loss"));
    }

    #[test]
    fn the_driver_schedule_leaves_about_35_s_per_run() {
        let b = mean_run_budget_s();
        assert!((35.0..37.0).contains(&b), "{b}");
    }

    #[test]
    fn results_document_is_valid_json_with_a_null_claim() {
        let mut run = suite(&[], &[]);
        let (_, untraced, traced) = &mut run.runs[0];
        untraced.result_line = "{\"correct\": true}".into();
        traced.result_line = "{\"correct\": false}".into();
        let args = crate::parse_args(&[]).unwrap();
        let doc = Json::parse(&results_json(&run, &args)).unwrap();
        assert_eq!(doc.get("claim"), Some(&Json::Null));
        assert!(doc.get("workloads").and_then(|w| w.get("w")).is_some());
    }
}
