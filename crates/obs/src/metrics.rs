//! Metrics registry: named counters, gauges, and log-scale histograms.
//!
//! All metric families are keyed by dotted string names
//! (`kernel.gpucalc_global.mean_occupancy`) and stored in `BTreeMap`s so
//! exports are deterministically ordered. The registry is behind one
//! mutex — metric updates happen at batch/stage granularity (tens to
//! thousands per run), nowhere near contention territory.

use crate::json::JsonWriter;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Number of histogram buckets: values are bucketed by `ceil(log2(v))`
/// clamped to `[0, N_BUCKETS-1]`, so bucket `k` covers `(2^(k-1), 2^k]`.
const N_BUCKETS: usize = 64;

#[derive(Debug, Clone)]
pub struct Histogram {
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            counts: vec![0; N_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_for(v: f64) -> usize {
        // NaN, negatives, and everything up to 1.0 land in bucket 0.
        if v.is_nan() || v <= 1.0 {
            return 0;
        }
        (v.log2().ceil() as usize).min(N_BUCKETS - 1)
    }

    fn observe(&mut self, v: f64) {
        self.counts[Self::bucket_for(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Upper bound of bucket `k` (`2^k`), for export labelling.
    pub fn bucket_upper(k: usize) -> f64 {
        (k as f64).exp2()
    }

    /// Approximate `p`-quantile (`p` in `[0, 1]`) from the log-scale
    /// buckets: the upper bound of the first bucket whose cumulative count
    /// reaches `ceil(p * count)`, clamped into the observed `[min, max]`
    /// range so single-sample and narrow histograms report exact values.
    /// Returns 0 on an empty histogram. Used by the benchmark summaries
    /// (`repro bench`) for per-batch distribution percentiles.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 1.0);
        let target = ((p * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::bucket_upper(k).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Thread-safe metrics registry.
#[derive(Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().unwrap();
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap();
        inner.gauges.insert(name.to_string(), value);
    }

    pub fn observe(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::new)
            .observe(value);
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }
}

/// A point-in-time copy of every metric, for export.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// JSON document: `{"counters": {...}, "gauges": {...},
    /// "histograms": {name: {count, sum, mean, min, max, buckets: [...]}}}`.
    /// Histogram buckets are exported sparsely as `[upper_bound, count]`
    /// pairs.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();

        w.key("counters");
        w.begin_object();
        for (name, v) in &self.counters {
            w.field_uint(name, *v);
        }
        w.end_object();

        w.key("gauges");
        w.begin_object();
        for (name, v) in &self.gauges {
            w.field_float(name, *v);
        }
        w.end_object();

        w.key("histograms");
        w.begin_object();
        for (name, h) in &self.histograms {
            w.key(name);
            w.begin_object();
            w.field_uint("count", h.count);
            w.field_float("sum", h.sum);
            w.field_float("mean", h.mean());
            w.field_float("min", if h.count == 0 { 0.0 } else { h.min });
            w.field_float("max", if h.count == 0 { 0.0 } else { h.max });
            w.key("buckets");
            w.begin_array();
            for (k, &c) in h.counts.iter().enumerate() {
                if c > 0 {
                    w.begin_array();
                    w.float(Histogram::bucket_upper(k));
                    w.uint(c);
                    w.end_array();
                }
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();

        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.counter_add("a", 2);
        m.counter_add("a", 3);
        m.counter_add("b", 1);
        let s = m.snapshot();
        assert_eq!(s.counters["a"], 5);
        assert_eq!(s.counters["b"], 1);
    }

    #[test]
    fn gauges_overwrite() {
        let m = Metrics::new();
        m.gauge_set("g", 1.0);
        m.gauge_set("g", 7.5);
        assert_eq!(m.snapshot().gauges["g"], 7.5);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_for(0.0), 0);
        assert_eq!(Histogram::bucket_for(1.0), 0);
        assert_eq!(Histogram::bucket_for(2.0), 1);
        assert_eq!(Histogram::bucket_for(3.0), 2);
        assert_eq!(Histogram::bucket_for(1024.0), 10);
        assert_eq!(Histogram::bucket_for(f64::MAX), N_BUCKETS - 1);
        // Negative and NaN inputs land in bucket 0 rather than panicking.
        assert_eq!(Histogram::bucket_for(-5.0), 0);
        assert_eq!(Histogram::bucket_for(f64::NAN), 0);
    }

    #[test]
    fn histogram_stats() {
        let m = Metrics::new();
        for v in [1.0, 2.0, 3.0, 10.0] {
            m.observe("h", v);
        }
        let s = m.snapshot();
        let h = &s.histograms["h"];
        assert_eq!(h.count, 4);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 10.0);
    }

    #[test]
    fn bucket_upper_edges() {
        // Bucket 0 covers everything up to 1.0; its upper bound is 2^0.
        assert_eq!(Histogram::bucket_upper(0), 1.0);
        assert_eq!(Histogram::bucket_upper(1), 2.0);
        assert_eq!(Histogram::bucket_upper(10), 1024.0);
        // The clamp bucket: huge values all land here and its bound is
        // finite (2^63), so exports never print inf.
        let top = Histogram::bucket_upper(N_BUCKETS - 1);
        assert!(top.is_finite());
        assert_eq!(top, (N_BUCKETS as f64 - 1.0).exp2());
        assert_eq!(Histogram::bucket_for(f64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn mean_on_empty_and_single_sample() {
        let empty = Metrics::new().snapshot();
        assert!(empty.histograms.is_empty());
        let m = Metrics::new();
        m.observe("h", 0.0);
        let s0 = m.snapshot();
        assert_eq!(s0.histograms["h"].mean(), 0.0);
        assert_eq!(s0.histograms["h"].count, 1);

        let m = Metrics::new();
        m.observe("one", 42.0);
        let h = m.snapshot().histograms["one"].clone();
        assert_eq!(h.mean(), 42.0);
        assert_eq!(h.min, 42.0);
        assert_eq!(h.max, 42.0);
    }

    #[test]
    fn percentile_empty_single_and_spread() {
        let m = Metrics::new();
        assert_eq!(Histogram::new().percentile(0.5), 0.0);

        // Single sample: every percentile is that sample (the [min, max]
        // clamp makes the bucket bound exact).
        m.observe("one", 42.0);
        let h = m.snapshot().histograms["one"].clone();
        for p in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.percentile(p), 42.0, "p={p}");
        }

        // Spread samples across distinct buckets: 10 values 2^1..2^10.
        let m = Metrics::new();
        for k in 1..=10 {
            m.observe("h", (k as f64).exp2());
        }
        let h = m.snapshot().histograms["h"].clone();
        assert_eq!(h.percentile(0.1), 2.0);
        assert_eq!(h.percentile(0.5), 32.0);
        assert_eq!(h.percentile(1.0), 1024.0);
        // Out-of-range p clamps rather than panicking.
        assert_eq!(h.percentile(-1.0), 2.0);
        assert_eq!(h.percentile(2.0), 1024.0);
        // Monotone in p.
        let ps: Vec<f64> = (0..=20).map(|i| h.percentile(i as f64 / 20.0)).collect();
        assert!(ps.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn json_export_shape() {
        let m = Metrics::new();
        m.counter_add("c", 1);
        m.gauge_set("g", 0.5);
        m.observe("h", 4.0);
        let json = m.snapshot().to_json();
        assert!(json.contains(r#""counters":{"c":1}"#), "{json}");
        assert!(json.contains(r#""g":0.500"#), "{json}");
        assert!(json.contains(r#""histograms""#), "{json}");
        assert!(json.contains(r#""count":1"#), "{json}");
    }

    #[test]
    fn empty_snapshot_renders() {
        let m = Metrics::new();
        let s = m.snapshot();
        assert!(s.to_json().contains("counters"));
    }
}
