//! Metrics-layer gates: golden exports and thread/pool invariance.
//!
//! Two layers of pinning:
//!
//! 1. a tiny-scale `repro profile` run whose three exports (JSON,
//!    Prometheus text, human table) are checked byte-for-byte against
//!    `tests/golden/profile_tiny.{json,prom,txt}` — every counter, gauge
//!    and histogram field is exact, and a JSON mismatch fails with each
//!    drifted key as `key: old → new` (rerun with `UPDATE_GOLDEN=1` when
//!    the change is intentional);
//! 2. the same run re-measured under 1-/4-thread host pools and with the
//!    host buffer pool disabled must produce byte-identical exports
//!    (asserted inside `profile::run`).

use pipad_bench::profile;
use pipad_dyngraph::Scale;
use pipad_gpu_sim::{validate_json, Json};
use std::collections::{BTreeMap, BTreeSet};

fn check_golden(name: &str, got: &str, want: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    if name.ends_with(".json") && got != want {
        panic!(
            "profile export diverged from tests/golden/{name}; if the change is \
             intentional, rerun with UPDATE_GOLDEN=1 and review the diff:\n{}",
            json_drift(want, got).join("\n")
        );
    }
    assert_eq!(
        got, want,
        "profile export diverged from tests/golden/{name}; if the change is \
         intentional, rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}

/// Every leaf of a profile JSON export: counters and gauges under their
/// metric key, histogram fields as `key.field`.
fn leaves(doc: &str) -> BTreeMap<String, String> {
    fn render(v: &Json) -> String {
        match v {
            Json::Num(n) => n.to_string(),
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(render).collect();
                format!("[{}]", items.join(","))
            }
            other => format!("{other:?}"),
        }
    }
    let root = Json::parse(doc).expect("profile JSON parses");
    let mut out = BTreeMap::new();
    for section in ["counters", "gauges", "histograms"] {
        let Some(Json::Obj(metrics)) = root.get(section) else {
            panic!("profile JSON has no {section} object");
        };
        for (key, value) in metrics {
            match value {
                Json::Obj(fields) => {
                    for (field, v) in fields {
                        out.insert(format!("{key}.{field}"), render(v));
                    }
                }
                v => {
                    out.insert(key.clone(), render(v));
                }
            }
        }
    }
    out
}

/// One line per leaf that differs between the golden `want` and the run
/// `got`, in key order, as `key: old → new`; a key on one side only reads
/// `(absent)` on the other. Empty when the two differ in layout only.
fn json_drift(want: &str, got: &str) -> Vec<String> {
    let (old, new) = (leaves(want), leaves(got));
    let show = |v: Option<&String>| v.map_or("(absent)", String::as_str).to_string();
    let keys: BTreeSet<&String> = old.keys().chain(new.keys()).collect();
    keys.into_iter()
        .filter(|&k| old.get(k) != new.get(k))
        .map(|k| format!("{k}: {} → {}", show(old.get(k)), show(new.get(k))))
        .collect()
}

#[test]
fn json_drift_names_changed_missing_and_extra_keys() {
    let golden = r#"{"counters":{"a":1,"b{t=\"gpu\"}":90},"gauges":{"g":0.5},
        "histograms":{"h":{"count":3,"buckets":[[7,3]]}}}"#;
    let run = r#"{"counters":{"a":1,"c":4},"gauges":{"g":0.75},
        "histograms":{"h":{"count":3,"buckets":[[7,2],[15,1]]}}}"#;
    assert_eq!(
        json_drift(golden, run),
        [
            "b{t=\"gpu\"}: 90 → (absent)",
            "c: (absent) → 4",
            "g: 0.5 → 0.75",
            "h.buckets: [[7,3]] → [[7,2],[15,1]]",
        ]
    );
    assert!(json_drift(golden, golden).is_empty());
}

#[test]
fn profile_exports_match_goldens_and_survive_thread_and_pool_sweeps() {
    // `run` measures under the default pool, 1 thread, 4 threads and with
    // the buffer pool disabled, asserting byte-identity internally.
    let art = profile::run(Scale::Tiny);
    validate_json(&art.json).expect("profile JSON is well-formed");

    check_golden(
        "profile_tiny.json",
        &art.json,
        include_str!("golden/profile_tiny.json"),
    );
    check_golden(
        "profile_tiny.prom",
        &art.prom,
        include_str!("golden/profile_tiny.prom"),
    );
    check_golden(
        "profile_tiny.txt",
        &art.table,
        include_str!("golden/profile_tiny.txt"),
    );
}

#[test]
fn profile_prom_export_is_prometheus_shaped() {
    let art = profile::measure(Scale::Tiny);
    // Every family is typed before its first sample, and histogram series
    // end with the +Inf bucket.
    assert!(art
        .prom
        .contains("# TYPE pipad_overlap_fraction_milli gauge"));
    assert!(art.prom.contains("# TYPE pipad_kernel_ns histogram"));
    assert!(art.prom.contains("le=\"+Inf\""));
    assert!(art.prom.contains("pipad_serve_latency_ns_count"));
    // The table export carries all three sections.
    for section in ["== counters ==", "== gauges ==", "== histograms =="] {
        assert!(art.table.contains(section), "table missing {section}");
    }
}
