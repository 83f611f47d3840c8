//! Perf-regression sentinel: a committed baseline of key metrics with
//! per-metric tolerances, and a comparator that turns metric drift into a
//! hard `scripts/check.sh` failure.
//!
//! The baseline is a JSON document:
//!
//! ```json
//! {"metrics":[
//!   {"key":"pipad_overlap_fraction_milli{...}","value":625.0,
//!    "tol_abs":25.0,"tol_rel":0.05},
//!   ...
//! ]}
//! ```
//!
//! A current value passes iff `|cur − base| ≤ tol_abs + tol_rel·|base|`.
//! A key present in the baseline but missing from the current run is a
//! failure (a silently vanished metric is itself a regression); extra
//! current keys are ignored so the profile can grow without churning the
//! baseline. Parsing goes through the workspace's one JSON reader,
//! [`pipad_gpu_sim::Json`].

use pipad_gpu_sim::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One guarded metric in the baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineEntry {
    /// Flat metric key (Prometheus rendering, as produced by
    /// [`crate::MetricsRegistry::flat`]).
    pub key: String,
    /// Expected value.
    pub value: f64,
    /// Absolute tolerance.
    pub tol_abs: f64,
    /// Relative tolerance (fraction of `|value|`).
    pub tol_rel: f64,
}

impl BaselineEntry {
    /// Whether `cur` is within tolerance of this entry.
    pub fn accepts(&self, cur: f64) -> bool {
        (cur - self.value).abs() <= self.tol_abs + self.tol_rel * self.value.abs()
    }
}

/// A parsed sentinel baseline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Baseline {
    /// Guarded metrics in file order.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Render as the canonical baseline JSON (stable field order, `{:?}`
    /// float formatting — byte-deterministic for a given entry list).
    pub fn render(&self) -> String {
        let mut out = String::from("{\"metrics\":[\n");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"key\":\"{}\",\"value\":{:?},\"tol_abs\":{:?},\"tol_rel\":{:?}}}",
                pipad_gpu_sim::json_escape(&e.key),
                e.value,
                e.tol_abs,
                e.tol_rel
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Parse a baseline document. Errors on malformed JSON, a missing
    /// `metrics` array, or entries without the required fields.
    pub fn parse(src: &str) -> Result<Baseline, String> {
        let root = Json::parse(src)?;
        let metrics = root
            .get("metrics")
            .ok_or("baseline: missing top-level \"metrics\" array")?;
        let Json::Arr(items) = metrics else {
            return Err("baseline: \"metrics\" is not an array".to_string());
        };
        let mut entries = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let field = |name: &str| -> Result<&Json, String> {
                item.get(name)
                    .ok_or(format!("baseline: entry {i} missing \"{name}\""))
            };
            let num = |name: &str| -> Result<f64, String> {
                match field(name)? {
                    Json::Num(v) => Ok(*v),
                    _ => Err(format!("baseline: entry {i} \"{name}\" is not a number")),
                }
            };
            let key = match field("key")? {
                Json::Str(s) => s.clone(),
                _ => return Err(format!("baseline: entry {i} \"key\" is not a string")),
            };
            entries.push(BaselineEntry {
                key,
                value: num("value")?,
                tol_abs: num("tol_abs")?,
                tol_rel: num("tol_rel")?,
            });
        }
        Ok(Baseline { entries })
    }

    /// Compare a current flat metric map against this baseline. Returns
    /// the list of violations (empty = pass), one human-readable line
    /// each, in baseline order.
    pub fn check(&self, current: &BTreeMap<String, f64>) -> Vec<String> {
        let mut failures = Vec::new();
        for e in &self.entries {
            match current.get(&e.key) {
                None => failures.push(format!(
                    "sentinel: metric `{}` missing from current profile (baseline {:?})",
                    e.key, e.value
                )),
                Some(&cur) if !e.accepts(cur) => failures.push(format!(
                    "sentinel: metric `{}` drifted: current {:?}, baseline {:?} (tolerance ±{:?} abs, ±{:?} rel)",
                    e.key, cur, e.value, e.tol_abs, e.tol_rel
                )),
                Some(_) => {}
            }
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_roundtrips() {
        let b = Baseline {
            entries: vec![
                BaselineEntry {
                    key: "pipad_overlap_fraction_milli{window=\"steady\"}".to_string(),
                    value: 625.0,
                    tol_abs: 25.0,
                    tol_rel: 0.0,
                },
                BaselineEntry {
                    key: "pipad_device_allocs{window=\"steady\"}".to_string(),
                    value: 40.0,
                    tol_abs: 0.0,
                    tol_rel: 0.1,
                },
            ],
        };
        let rendered = b.render();
        pipad_gpu_sim::validate_json(&rendered).expect("well-formed");
        let parsed = Baseline::parse(&rendered).expect("parse");
        assert_eq!(parsed, b);
        assert_eq!(rendered, parsed.render(), "render is a fixed point");
    }

    #[test]
    fn check_passes_within_and_fails_outside_tolerance() {
        let b = Baseline {
            entries: vec![BaselineEntry {
                key: "m".to_string(),
                value: 100.0,
                tol_abs: 5.0,
                tol_rel: 0.05,
            }],
        };
        let mut cur = BTreeMap::new();
        cur.insert("m".to_string(), 109.0);
        assert!(b.check(&cur).is_empty(), "5 abs + 5 rel = ±10 window");
        cur.insert("m".to_string(), 111.0);
        let fails = b.check(&cur);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("drifted"), "{fails:?}");
        cur.remove("m");
        let fails = b.check(&cur);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("missing"), "{fails:?}");
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("{\"metrics\":1}").is_err());
        assert!(Baseline::parse("{\"metrics\":[{\"key\":\"k\"}]}").is_err());
        assert!(Baseline::parse(
            "{\"metrics\":[{\"key\":1,\"value\":1,\"tol_abs\":0,\"tol_rel\":0}]}"
        )
        .is_err());
    }
}
