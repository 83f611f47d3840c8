//! Every metric the benchmark can print, and the contract file built from
//! them. `BENCHMARK.json` at the repository root is `contract_json()`
//! verbatim; a unit test keeps the two in step.

use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one run measures for (the contract's `run_seconds`).
pub const RUN_SECONDS: u64 = 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen. Every one is defined, non-zero and seed-dependent on all
/// four workloads; the contract requires that of this list.
///
/// `result_sim_ns` is the simulated time a user of the *modelled* system
/// waits for the result: the whole training run (preparing + steady
/// epochs) on the training workloads, the mean latency over the served
/// requests of both replays on `serve_two_rates`. (Across seeds the
/// serving p99 spreads by a fifth and the p50 not at all; both are
/// per-layer metrics, exact per seed.)
pub const END_TO_END: &[(MetricDef, f64)] = &[
    (lo("setup_s", "s"), 0.25),
    (lo("host_time_s", "s"), 0.25),
    (lo("host_peak_rss_mb", "MB"), 0.10),
    (lo("result_sim_ns", "ns"), 0.10),
];

/// Per-layer metrics (layer = crate name) plus the simulated results that
/// are exact per seed. A metric that does not apply to a workload is left
/// out of the printed lines and reads 0 in the result object.
pub const PER_LAYER: &[MetricDef] = &[
    // Simulated results and failures; deterministic for a fixed seed.
    lo("steady_epoch_sim_ns", "ns"),
    lo("final_loss", "loss"),
    lo("failed_op_share", "ratio"),
    lo("serve_p50_sim_ns_lo", "ns"),
    lo("serve_p99_sim_ns_lo", "ns"),
    lo("serve_p50_sim_ns_hi", "ns"),
    lo("serve_p99_sim_ns_hi", "ns"),
    lo("bench.trace_overhead_share", "ratio"),
    hi("pool.threads", "count"),
    lo("pool.dispatch_host_ns", "ns"),
    lo("tensor.gemm_update_host_ns", "ns"),
    hi("tensor.bufpool_hit_share", "ratio"),
    lo("tensor.heap_allocs_per_steady_epoch", "count"),
    lo("tensor.heap_bytes_per_steady_epoch", "B"),
    lo("sparse.sliced_build_host_ns", "ns"),
    lo("sparse.overlap_extract_host_ns", "ns"),
    lo("sparse.spmm_dense_host_ns", "ns"),
    lo("sparse.partition_balance_host_ns", "ns"),
    hi("sparse.overlap_rate_milli", "milli"),
    lo("dyngraph.generate_host_s", "s"),
    lo("dyngraph.n_vertices", "count"),
    lo("dyngraph.nnz_per_snapshot", "count"),
    lo("gpu-sim.kernel_launches_per_steady_epoch", "count"),
    lo("gpu-sim.device_allocs_per_steady_epoch", "count"),
    lo("gpu-sim.h2d_bytes_per_steady_epoch", "B"),
    lo("gpu-sim.peak_mem_bytes", "B"),
    hi("gpu-sim.sm_util_milli", "milli"),
    lo("gpu-sim.bubble_milli", "milli"),
    hi("gpu-sim.overlap_milli", "milli"),
    lo("gpu-sim.trace_events", "count"),
    lo("gpu-sim.launch_host_ns", "ns"),
    lo("gpu-sim.alloc_free_host_ns", "ns"),
    lo("gpu-sim.host_ns_per_launch", "ns"),
    hi("gpu-sim.sim_ns_per_host_ns", "ratio"),
    lo("kernels.spmm_sliced_host_ns", "ns"),
    lo("kernels.spmm_sliced_sim_ns", "ns"),
    lo("kernels.gespmm_host_ns", "ns"),
    lo("kernels.gespmm_sim_ns", "ns"),
    lo("kernels.add_host_ns", "ns"),
    lo("kernels.add_sim_ns", "ns"),
    lo("kernels.upload_matrix_host_ns", "ns"),
    lo("kernels.upload_matrix_sim_ns", "ns"),
    lo("kernels.gemm_device_host_ns", "ns"),
    lo("kernels.gemm_device_sim_ns", "ns"),
    lo("kernels.launches.spmm", "count"),
    lo("kernels.launches.gemm", "count"),
    lo("kernels.launches.elementwise", "count"),
    lo("kernels.sim_ns.spmm", "ns"),
    lo("kernels.sim_ns.gemm", "ns"),
    lo("kernels.sim_ns.elementwise", "ns"),
    lo("autograd.frame_fwd_bwd_host_ns", "ns"),
    lo("autograd.frame_launches", "count"),
    lo("models.build_host_ns", "ns"),
    lo("models.param_bytes", "B"),
    lo("core.analyzer_host_ns", "ns"),
    lo("core.catalog_host_ns", "ns"),
    lo("core.steady_epoch_host_ms", "ms"),
    hi("core.reuse_cpu_hit_share", "ratio"),
    hi("core.reuse_gpu_hit_share", "ratio"),
    hi("core.s_per_mean", "count"),
    hi("core.speedup_over_pygta_x", "x"),
    lo("core.multigpu.halo_bytes_per_epoch", "B"),
    lo("core.multigpu.allreduce_ns_per_epoch", "ns"),
    hi("core.multigpu.scaling_x", "x"),
    lo("baselines.pygta_steady_epoch_sim_ns", "ns"),
    lo("baselines.pygta_host_time_s", "s"),
    lo("baselines.pygta_final_loss", "loss"),
    lo("ckpt.write_host_ns", "ns"),
    lo("ckpt.read_host_ns", "ns"),
    lo("ckpt.bytes", "B"),
    lo("serve.restore_host_ns", "ns"),
    lo("serve.form_batches_host_ns", "ns"),
    lo("serve.forward_frame_host_ns", "ns"),
    lo("serve.forward_frame_sim_ns", "ns"),
    lo("serve.batches_lo", "count"),
    lo("serve.batches_hi", "count"),
    hi("serve.mean_batch_milli_lo", "milli"),
    hi("serve.mean_batch_milli_hi", "milli"),
    lo("serve.queue_high_water_lo", "count"),
    lo("serve.queue_high_water_hi", "count"),
    lo("serve.rejected_lo", "count"),
    lo("serve.rejected_hi", "count"),
    lo("serve.slo_miss_share_lo", "ratio"),
    lo("serve.slo_miss_share_hi", "ratio"),
    hi("serve.gpu_reuse_hit_share", "ratio"),
    hi("serve.sim_throughput_rps_lo", "1/s"),
    hi("serve.sim_throughput_rps_hi", "1/s"),
    lo("metrics.analyze_host_ns", "ns"),
];

fn def_of(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .map(|(d, _)| *d)
        .chain(PER_LAYER.iter().copied())
        .find(|d| d.name == name)
}

/// Values measured in one run, keyed by catalogued metric name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `value` and print it as `name value unit`.
    pub fn put(&mut self, name: &str, value: f64) {
        let def = def_of(name).unwrap_or_else(|| panic!("metric `{name}` is not catalogued"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        println!("{name} {value} {}", def.unit);
        assert!(
            self.values.insert(def.name, value).is_none(),
            "metric `{name}` recorded twice"
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object of the result line: every end-to-end metric
    /// (all must have been measured) or every per-layer metric (0 where
    /// the workload has none).
    pub fn result_object(&self, traced: bool) -> Result<String, String> {
        let defs: Vec<MetricDef> = if traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|(d, _)| *d).collect()
        };
        let mut out = String::from("{");
        for (i, d) in defs.iter().enumerate() {
            let value = match self.get(d.name) {
                Some(v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric `{}` was not measured", d.name)),
            };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// The contract file, generated from the catalogue and the workload table.
pub fn contract_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (d, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{sep}",
            d.name,
            d.unit,
            d.better.label()
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            d.name,
            d.unit,
            d.better.label()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_metrics::Json;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for d in END_TO_END.iter().map(|(d, _)| d).chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{} has unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        let (setup, bound) = END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Better::Lower)
        );
        assert!(END_TO_END.iter().all(|(_, b)| *b <= bound));
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("`{key}` is not an array")
        };
        items
            .iter()
            .map(|m| match m.get("name") {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("`{key}` entry without a name: {other:?}"),
            })
            .collect()
    }

    /// Every name the binary can print is listed in `BENCHMARK.json` and
    /// vice versa — the binary can only `put` catalogued names, and the
    /// committed file is the catalogue rendered.
    #[test]
    fn committed_contract_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&committed).expect("BENCHMARK.json parses");
        let listed = |key| names(&doc, key);
        let catalogued = |defs: Vec<&str>| defs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            listed("workloads"),
            catalogued(WORKLOADS.iter().map(|w| w.name).collect())
        );
        assert_eq!(
            listed("end_to_end"),
            catalogued(END_TO_END.iter().map(|(d, _)| d.name).collect())
        );
        assert_eq!(
            listed("per_layer"),
            catalogued(PER_LAYER.iter().map(|d| d.name).collect())
        );
        assert_eq!(
            committed,
            contract_json(),
            "regenerate with `benchmark/run.sh --emit-contract > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn result_object_lists_exactly_the_contract_metrics() {
        let mut m = Metrics::default();
        assert!(m.result_object(false).is_err(), "missing end-to-end metric");
        for (d, _) in END_TO_END {
            m.put(d.name, 1.5);
        }
        m.put("pool.threads", 2.0);
        for traced in [false, true] {
            let obj = Json::parse(&m.result_object(traced).unwrap()).unwrap();
            let Json::Obj(fields) = &obj else { panic!() };
            let want: Vec<&str> = if traced {
                PER_LAYER.iter().map(|d| d.name).collect()
            } else {
                END_TO_END.iter().map(|(d, _)| d.name).collect()
            };
            let got: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, want);
        }
        let obj = Json::parse(&m.result_object(true).unwrap()).unwrap();
        let value = |name: &str| obj.get(name).and_then(|m| m.get("value")).cloned();
        assert_eq!(value("pool.threads"), Some(Json::Num(2.0)));
        assert_eq!(value("serve.rejected_hi"), Some(Json::Num(0.0)));
    }
}
