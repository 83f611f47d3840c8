//! Two-clock benchmark of the PiPAD reproduction.
//!
//! `*_sim_*` metrics are *simulated* device time (exact for a fixed seed);
//! `host_*`, `*_host_*` and `setup_s` are the *wall-clock* cost of the
//! Rust that produced it. Every crate is measured from outside, through
//! its public functions and accessors. See `benchmark/README.md`.

mod catalog;
mod probes;
mod spans;
mod stats;
mod suite;
mod workloads;

use catalog::Metrics;
use spans::Recorder;
use stats::median;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Kind, Outcome, Rep, Workload, OUT_DIR};

/// Heap activity is a per-layer metric (`tensor.heap_*`), so the counting
/// allocator is always installed; it is a pass-through with two relaxed
/// atomic adds per allocation.
#[global_allocator]
static ALLOC: pipad_tensor::CountingAllocator = pipad_tensor::CountingAllocator;

pub const UNVALIDATED: &str = "The cost model is unvalidated against a real V100: the repository \
    holds no reference measurements, so no error figure is given for any simulated time.";

const USAGE: &str =
    "usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
       benchmark/run.sh --check-repeat [--seed N]
       benchmark/run.sh --emit-contract
With --workload: one run of that workload; the last line of output is the result object.
Without: every workload, untraced then traced, each in its own child process.";

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub check_repeat: bool,
    pub emit_contract: bool,
}

pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: catalog::RUN_SECONDS,
        trace: false,
        check_repeat: false,
        emit_contract: false,
    };
    let mut it = argv.iter().peekable();
    let number = |flag: &str, v: Option<&String>| -> Result<u64, String> {
        v.and_then(|s| s.parse().ok())
            .ok_or(format!("{flag} needs a whole number"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                args.workload = Some(it.next().ok_or("--workload needs a name")?.clone());
            }
            "--seed" => args.seed = number("--seed", it.next())?,
            "--seconds" => args.seconds = number("--seconds", it.next())?,
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--check-repeat" => args.check_repeat = true,
            "--emit-contract" => args.emit_contract = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// What one run of one workload established.
struct RunResult {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Failed output checks, one line each; empty = correct.
    failures: Vec<String>,
}

/// Simulated results every workload prints in both passes. The untraced
/// result object only carries the contract's end-to-end metrics; these
/// ride in the traced one.
fn put_simulated_results(m: &mut Metrics, w: &Workload, rep: &Rep, prepared: &workloads::Prepared) {
    if let Some((_, steady)) = rep.training() {
        m.put("steady_epoch_sim_ns", steady.as_nanos() as f64);
    }
    if let Some(loss) = rep.final_loss().or(prepared.served_final_loss()) {
        m.put("final_loss", loss as f64);
    }
    m.put(
        "failed_op_share",
        rep.failed_ops() as f64 / w.ops_per_rep() as f64,
    );
    if let Outcome::Serve(legs) = &rep.outcome {
        for l in legs {
            let (lat, rate) = (&l.report.latency, l.rate);
            m.put(
                &format!("serve_p50_sim_ns_{rate}"),
                lat.p50.as_nanos() as f64,
            );
            m.put(
                &format!("serve_p99_sim_ns_{rate}"),
                lat.p99.as_nanos() as f64,
            );
        }
    }
}

fn run_workload(w: &Workload, args: &Args) -> Result<RunResult, String> {
    let mut rec = Recorder::new(args.trace, w.name);
    let mut m = Metrics::default();
    let mut failures = Vec::new();
    println!(
        "# workload {} seed {} trace {}",
        w.name, args.seed, args.trace as u8
    );
    println!("# {UNVALIDATED}");
    if w.kind == Kind::Serve {
        println!(
            "# open loop on the simulated clock: arrivals are simulated timestamps, so the \
             generator is never late (lateness 0 by construction); {} requests per rate",
            workloads::SERVE_REQUESTS
        );
    }

    // Set-up: PiPAD's own one-off phase, several times over so that its
    // median is steady. The traced pass needs it once.
    let setups = if args.trace { 1 } else { w.setups };
    let mut setup_s = Vec::with_capacity(setups);
    let mut prepared = None;
    for _ in 0..setups {
        drop(prepared.take());
        let t = Instant::now();
        let span = rec.begin("setup");
        prepared = Some(w.setup(args.seed, &mut rec)?);
        rec.end(span);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one set-up");

    // Timed reps for `--seconds`. The traced pass runs exactly two: one
    // without spans and one with, whose difference is the tracing overhead.
    let mut host_s: Vec<f64> = Vec::new();
    let mut digest: Option<Vec<u64>> = None;
    let mut rss_mb = 0.0;
    let mut failed = 0;
    let mut last: Option<Rep> = None;
    let started = Instant::now();
    loop {
        let reps = host_s.len();
        let done = if args.trace {
            reps == 2
        } else {
            reps >= 1 && started.elapsed().as_secs_f64() >= args.seconds as f64
        };
        if done {
            break;
        }
        drop(last.take());
        let span = (args.trace && reps == 1).then(|| rec.begin("timed_call"));
        let rep = w.timed_rep(&prepared, args.seed)?;
        if let Some(span) = span {
            rec.end(span);
        }
        if reps == 0 {
            // After a fixed amount of work (the set-ups and one rep), so
            // the peak does not depend on how many reps fit in the budget.
            rss_mb = peak_rss_mb()?;
        }
        failures.extend(rep.check(w));
        failed += rep.failed_ops();
        let d = rep.digest();
        if digest.get_or_insert_with(|| d.clone()) != &d {
            failures.push(format!(
                "rep {reps} differs from rep 0 in a simulated result"
            ));
        }
        host_s.push(rep.host_s);
        last = Some(rep);
    }
    let rep = last.expect("at least one rep");
    let attempted = w.ops_per_rep() * host_s.len() as u64;

    if args.trace {
        m.put(
            "bench.trace_overhead_share",
            (host_s[1] - host_s[0]) / host_s[0],
        );
        put_simulated_results(&mut m, w, &rep, &prepared);
        failures.extend(probes::run(
            w, args.seed, &prepared, &rep, &mut rec, &mut m,
        )?);
        let doc = rec.chrome_trace();
        pipad_gpu_sim::validate_json(&doc).map_err(|e| format!("span export: {e}"))?;
        let path = format!("{OUT_DIR}/{}.spans.json", w.name);
        std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
        std::fs::write(&path, doc).map_err(|e| format!("{path}: {e}"))?;
        print_self_times(&rec);
    } else {
        let (min, max) = host_s
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        println!(
            "# host_time_s over R={} reps: min {min} max {max}",
            host_s.len()
        );
        m.put("setup_s", median(&setup_s));
        m.put("host_time_s", median(&host_s));
        m.put("host_peak_rss_mb", rss_mb);
        m.put("result_sim_ns", rep.result_sim_ns() as f64);
        put_simulated_results(&mut m, w, &rep, &prepared);
    }
    Ok(RunResult {
        metrics: m,
        attempted,
        failed,
        failures,
    })
}

fn print_self_times(rec: &Recorder) {
    let self_ns = spans::self_times(rec.spans());
    println!("# spans (self time = span minus child cover):");
    for (s, own) in rec.spans().iter().zip(self_ns) {
        let depth = std::iter::successors(s.parent, |&p| rec.spans()[p].parent).count();
        println!(
            "#   {:indent$}{} total {:.3} ms self {:.3} ms",
            "",
            s.name,
            s.duration_ns() as f64 / 1e6,
            own as f64 / 1e6,
            indent = 2 * depth
        );
    }
}

/// One run of one workload; prints the result object as the last line.
fn single(name: &str, args: &Args) -> ExitCode {
    let Some(w) = workloads::find(name) else {
        eprintln!("unknown workload `{name}`");
        return ExitCode::from(2);
    };
    let result = run_workload(w, args).and_then(|r| {
        let object = r.metrics.result_object(args.trace)?;
        Ok((r, object))
    });
    match result {
        Ok((r, object)) => {
            for f in &r.failures {
                eprintln!("CHECK FAILED: {f}");
            }
            let correct = r.failures.is_empty();
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {object}}}",
                r.attempted, r.failed
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        // The program under test failed a call that no workload expects to
        // fail: no result line.
        Err(e) => {
            eprintln!("FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.emit_contract {
        print!("{}", catalog::contract_json());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) if !args.check_repeat => single(name, &args),
        _ => suite::run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_human_forms_of_the_flags_both_parse() {
        let a = parse("--workload train_dense_small --seed 7 --seconds 3 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("train_dense_small"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, false));
        assert!(parse("--trace 1").unwrap().trace);
        assert!(parse("--trace").unwrap().trace);
        assert!(parse("--trace --seed 2").unwrap().trace);
        let d = parse("").unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (1, catalog::RUN_SECONDS, false)
        );
        assert!(parse("--seed x").is_err());
        assert!(parse("--bogus").is_err());
    }

    #[test]
    fn peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
