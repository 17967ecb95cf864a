//! Order statistics and the per-layer value table.

use std::collections::BTreeMap;

use crate::trace::Span;

/// Linear-interpolated quantile `q` in [0, 1] of unsorted samples
/// (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The three cut points of Python's `statistics.quantiles(data, n=4)`
/// (its default, exclusive method). Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *slot = (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0;
    }
    out
}

/// Tag of spans and layer values recorded in a warm-up round; they are
/// left out of every median.
pub const WARMUP: u64 = u64::MAX;
/// Tags at and above this value name set-up repetitions.
pub const SETUP_TAG: u64 = 1 << 40;

/// Per-layer values, keyed by metric name, each a map from tag (round,
/// set-up repetition or request) to the value accumulated under that tag.
/// A metric's reported value is the median over its tags.
#[derive(Default)]
pub struct Layers(BTreeMap<String, BTreeMap<u64, f64>>);

impl Layers {
    /// Adds `v` to the value of `key` under `tag`.
    pub fn add(&mut self, key: &str, tag: u64, v: f64) {
        if tag != WARMUP {
            *self
                .0
                .entry(key.to_string())
                .or_default()
                .entry(tag)
                .or_insert(0.0) += v;
        }
    }

    /// Raises the value of `key` under `tag` to at least `v`.
    pub fn max(&mut self, key: &str, tag: u64, v: f64) {
        if tag != WARMUP {
            let slot = self
                .0
                .entry(key.to_string())
                .or_default()
                .entry(tag)
                .or_insert(0.0);
            *slot = slot.max(v);
        }
    }

    /// Sets a single value for `key`, replacing any per-tag values.
    pub fn set(&mut self, key: &str, v: f64) {
        self.0.insert(key.to_string(), BTreeMap::from([(0, v)]));
    }

    /// Folds spans in: the spans named `n` become the metric `n_ms`, the
    /// per-tag sum of their durations.
    pub fn absorb_spans(&mut self, spans: &[Span]) {
        for s in spans {
            self.add(&format!("{}_ms", s.name), s.tag, s.ms());
        }
    }

    /// Median over tags of `key`, 0 when it was never recorded.
    pub fn value(&self, key: &str) -> f64 {
        self.0.get(key).map_or(0.0, |tags| {
            median(&tags.values().copied().collect::<Vec<_>>())
        })
    }
}
