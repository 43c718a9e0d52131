//! Exact-sample statistics and span self-time.
//!
//! Every figure the benchmark reports is computed from the full list
//! of samples, sorted — never from buckets: a regression bound of 10%
//! cannot be resolved by a histogram whose neighbouring buckets are a
//! factor of two apart.

/// Order statistics of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
}

impl Summary {
    /// Summarise `samples`; `None` when there are none.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let s = sorted(samples);
        let median = quantile(&s, 0.5);
        let dev: Vec<f64> = s.iter().map(|v| (v - median).abs()).collect();
        Some(Summary {
            n: s.len(),
            min: s[0],
            q1: quantile(&s, 0.25),
            median,
            q3: quantile(&s, 0.75),
            max: s[s.len() - 1],
            mad: quantile(&sorted(&dev), 0.5),
        })
    }

    /// Interquartile range as a share of the median — the run-to-run
    /// spread the acceptance rule compares with a metric's bound.
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// A sorted copy of `samples` (total order, so NaN cannot panic).
#[must_use]
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median of `samples`, or 0 when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// Quantile `q ∈ [0, 1]` of an ascending slice, interpolated between
/// the two neighbouring samples at position `q·(n+1)` — the same rule
/// as Python's `statistics.quantiles` (exclusive method), so quartiles
/// computed here and by the driver agree.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of an empty sample set");
    if n == 1 {
        return sorted[0];
    }
    let pos = (q * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo >= n {
        sorted[n - 1]
    } else {
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    }
}

/// Nearest-rank percentile `p ∈ (0, 100]` of an ascending slice: the
/// smallest sample with at least `p`% of the set at or below it. An
/// actual sample, never an interpolation — the figure to quote for a
/// latency tail.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "percentile of an empty sample set");
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p` — a tail figure is worth quoting only when this is
/// at least ten.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - (((p / 100.0) * n as f64).ceil() as usize)
        .clamp(1, n.max(1))
        .min(n)
}

/// One recorded span: a half-open interval on one timeline plus the
/// index of the span that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start, nanoseconds.
    pub start: u64,
    /// End, nanoseconds (≥ start).
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its direct children. Children may overlap one
/// another (concurrent work); covered time is counted once.
#[must_use]
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start, spans[p].end);
            // Clip to the parent: a child that outlives its parent only
            // covers the part inside it.
            let (a, b) = (s.start.max(ps), s.end.min(pe));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5] before
        // clamping; a quartile outside the sample range is clamped to it.
        let s = Summary::of(&[10.0, 20.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (10.0, 15.0, 20.0));
    }

    #[test]
    fn single_sample_and_empty() {
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.mad), (4.0, 4.0, 4.0, 0.0));
        assert_eq!(s.spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mad_and_spread() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mad, 1.0); // deviations 2,1,0,1,97 → median 1
        let s = Summary::of(&[90.0, 100.0, 110.0]).unwrap();
        assert!((s.spread() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v[..10], 99.0), 10.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_sample_counts() {
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(190_000, 99.0), 1900);
        assert_eq!(samples_beyond(25, 99.0), 0);
        assert_eq!(samples_beyond(0, 99.0), 0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let iv = |start, end, parent| Interval { start, end, parent };
        let spans = [
            iv(0, 100, None),     // 0: root
            iv(10, 40, Some(0)),  // 1
            iv(30, 60, Some(0)),  // 2: overlaps 1 — union 10..60
            iv(15, 20, Some(1)),  // 3: grandchild, not subtracted from root
            iv(90, 120, Some(0)), // 4: outlives the root, clipped to 90..100
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 30]);
    }

    #[test]
    fn self_time_of_leaf_is_its_duration() {
        let spans = [Interval {
            start: 5,
            end: 9,
            parent: None,
        }];
        assert_eq!(self_times(&spans), vec![4]);
    }
}
