//! Sample summaries and the in-memory span recorder.

use std::fmt::Write as _;
use std::time::Instant;

use apdm_telemetry::{bucket_upper_edge, BUCKETS};

/// Nanoseconds between two instants.
pub fn ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank quantile (`q` in `[0, 1]`) of `samples`; 0 when empty.
/// Reorders the slice.
pub fn quantile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let (_, v, _) = samples.select_nth_unstable(rank - 1);
    *v as f64
}

/// Median of floats; 0 when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Bucket counts of a telemetry histogram, summable across rounds.
pub type Buckets = [u64; BUCKETS];

/// Buckets of histogram `name` in this thread's telemetry registry (all
/// zero when no dispatch is installed).
pub fn registry_buckets(name: &str) -> Buckets {
    apdm_telemetry::current_registry()
        .map(|reg| reg.histogram(name).bucket_counts())
        .unwrap_or([0; BUCKETS])
}

/// Add `b` into `acc`.
pub fn add_buckets(acc: &mut Buckets, b: &Buckets) {
    acc.iter_mut().zip(b).for_each(|(a, x)| *a += x);
}

/// Quantile of log2-bucketed counts, interpolated linearly inside the
/// bucket holding the rank (the telemetry crate's own `percentile` returns
/// the bucket's upper edge, which hides any change smaller than 2×).
pub fn bucket_quantile(b: &Buckets, q: f64) -> f64 {
    let total: u64 = b.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).max(1.0);
    let mut seen = 0u64;
    for (i, &count) in b.iter().enumerate() {
        if count > 0 && (seen + count) as f64 >= rank {
            let lo = if i == 0 {
                0.0
            } else {
                (1u64 << (i - 1)) as f64
            };
            let hi = bucket_upper_edge(i) as f64 + 1.0;
            return lo + (rank - seen as f64) / count as f64 * (hi - lo);
        }
        seen += count;
    }
    bucket_upper_edge(BUCKETS - 1) as f64
}

/// One benchmark-side span: a call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub trace: u64,
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// Spans held in memory until the run ends, capped so a long run cannot
/// grow without bound.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    cap: usize,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    pub fn new(cap: usize) -> Spans {
        Spans {
            epoch: Instant::now(),
            cap,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Span id `kind` of trace `trace`: ids are derived, so a child can
    /// name its parent before the parent's span closes.
    pub fn id(trace: u64, kind: u64) -> u64 {
        trace * 8 + kind + 1
    }

    pub fn record(&mut self, span: Span) {
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// One JSON object per line: trace, span, parent, name, start and end
    /// in nanoseconds since the recorder was created.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                r#"{{"trace":{},"span":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.trace,
                s.id,
                s.parent,
                s.name,
                ns(self.epoch, s.start),
                ns(self.epoch, s.end)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn bucket_quantiles_interpolate_inside_the_bucket() {
        let mut b = [0u64; BUCKETS];
        // Bucket 11 holds [1024, 2047].
        b[11] = 4;
        let q = bucket_quantile(&b, 0.5);
        assert!(q > 1024.0 && q < 2048.0, "{q}");
        assert_eq!(bucket_quantile(&[0; BUCKETS], 0.5), 0.0);
    }
}
