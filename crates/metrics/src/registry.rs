//! The metrics registry: named counters, gauges and histograms.
//!
//! Everything is keyed on a [`MetricKey`] — a metric name plus an ordered
//! label list — and stored in `BTreeMap`s, so iteration order (and hence
//! every export) is deterministic regardless of registration order,
//! `PIPAD_THREADS`, or buffer-pool state. No interior mutability, no
//! globals: a registry is an explicit value the caller owns and threads
//! through, which keeps the determinism contract auditable.

use crate::hist::Log2Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric identity: name plus ordered `(label, value)` pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, e.g. `pipad_overlap_fraction_milli`.
    pub name: String,
    /// Label pairs in caller-supplied order (kept stable for rendering).
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Key with no labels.
    pub fn plain(name: &str) -> MetricKey {
        MetricKey {
            name: name.to_string(),
            labels: Vec::new(),
        }
    }

    /// Key with labels.
    pub fn with_labels(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        MetricKey {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Prometheus-style rendering: `name` or `name{k="v",k2="v2"}`.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let mut out = self.name.clone();
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{v}\"");
        }
        out.push('}');
        out
    }
}

/// Deterministic container of counters, gauges and log2 histograms.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Log2Histogram>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `by` to an (auto-registered) unlabeled counter.
    pub fn inc_counter(&mut self, name: &str, by: u64) {
        self.inc_counter_with(name, &[], by);
    }

    /// Add `by` to an (auto-registered) labeled counter.
    pub fn inc_counter_with(&mut self, name: &str, labels: &[(&str, &str)], by: u64) {
        *self
            .counters
            .entry(MetricKey::with_labels(name, labels))
            .or_insert(0) += by;
    }

    /// Set an unlabeled gauge (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.set_gauge_with(name, &[], value);
    }

    /// Set a labeled gauge (last write wins).
    pub fn set_gauge_with(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.gauges
            .insert(MetricKey::with_labels(name, labels), value);
    }

    /// Record one observation into an (auto-registered) unlabeled histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.observe_with(name, &[], value);
    }

    /// Record one observation into an (auto-registered) labeled histogram.
    pub fn observe_with(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.histograms
            .entry(MetricKey::with_labels(name, labels))
            .or_default()
            .observe(value);
    }

    /// Merge a prebuilt histogram into an (auto-registered) labeled slot —
    /// exact, because every [`Log2Histogram`] shares the same fixed
    /// bucket layout.
    pub fn merge_histogram(&mut self, name: &str, labels: &[(&str, &str)], hist: &Log2Histogram) {
        self.histograms
            .entry(MetricKey::with_labels(name, labels))
            .or_default()
            .merge(hist);
    }

    /// Counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// Gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricKey, f64)> + '_ {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// Histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricKey, &Log2Histogram)> + '_ {
        self.histograms.iter()
    }

    /// An unlabeled histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms.get(&MetricKey::plain(name))
    }

    /// Flatten every metric into `rendered key → f64` for lookups by
    /// key: counters and gauges directly, histograms as derived
    /// `_count` / `_sum` / `_p95` series. Keys are the Prometheus
    /// renderings, so a lookup reads like the `.prom` export.
    pub fn flat(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (k, v) in &self.counters {
            out.insert(k.render(), *v as f64);
        }
        for (k, v) in &self.gauges {
            out.insert(k.render(), *v);
        }
        for (k, h) in &self.histograms {
            let mut base = k.clone();
            for (suffix, v) in [
                ("_count", h.count()),
                ("_sum", h.sum()),
                ("_p95", h.quantile_milli(950)),
            ] {
                base.name = format!("{}{suffix}", k.name);
                out.insert(base.render(), v as f64);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_render_prometheus_style() {
        assert_eq!(MetricKey::plain("a_b").render(), "a_b");
        assert_eq!(
            MetricKey::with_labels("lat", &[("stage", "serve"), ("gpu", "0")]).render(),
            "lat{stage=\"serve\",gpu=\"0\"}"
        );
    }

    #[test]
    fn registry_accumulates_and_is_ordered() {
        let mut r = MetricsRegistry::new();
        r.inc_counter("z_counter", 2);
        r.inc_counter("a_counter", 1);
        r.inc_counter("z_counter", 3);
        r.set_gauge("g", 0.5);
        r.set_gauge("g", 0.75);
        r.observe("h", 10);
        r.observe("h", 1000);
        let flat = r.flat();
        assert_eq!(flat["z_counter"], 5.0);
        assert_eq!(flat["g"], 0.75);
        assert_eq!(r.histogram("h").unwrap().count(), 2);
        let names: Vec<&str> = r.counters().map(|(k, _)| k.name.as_str()).collect();
        assert_eq!(names, ["a_counter", "z_counter"], "sorted iteration");
    }

    #[test]
    fn flat_exposes_histogram_derivatives() {
        let mut r = MetricsRegistry::new();
        r.observe_with("lat", &[("stage", "serve")], 100);
        r.inc_counter("c", 1);
        let flat = r.flat();
        assert_eq!(flat["c"], 1.0);
        assert_eq!(flat["lat_count{stage=\"serve\"}"], 1.0);
        assert_eq!(flat["lat_sum{stage=\"serve\"}"], 100.0);
        assert!(flat.contains_key("lat_p95{stage=\"serve\"}"));
    }
}
