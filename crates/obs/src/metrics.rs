//! The metrics registry: monotonic [`Counter`]s, [`Gauge`]s with peak
//! tracking, and fixed-bucket [`Histogram`]s, addressed by name, plus
//! the [`MetricsObserver`] that populates the registry's well-known
//! metric families from observer callbacks:
//!
//! * `events.total` and `events.<kind>` — per-kind event counters;
//! * `loc.<p>.events` — per-location event rates;
//! * `chan.<from>-><to>.in_flight` — per-channel in-flight depth over
//!   time (current value + peak);
//! * `wire.<from>-><to>.in_flight` — frame-level in-flight depth of
//!   adversarial wires (`WireSend`/`WireRecv`);
//! * `rel.retransmissions` / `rel.dup_frames` — reliable-layer work:
//!   repeated `Data` frame sends (stubborn retransmission) and repeated
//!   `Data` frame deliveries (duplicates the receiver must mask);
//! * `fd.query_latency_events` / `fd.query_latency_ns` — query→reply
//!   latency of query-based detectors, in schedule events and (when
//!   wall time is available) nanoseconds;
//! * `crashes` — crash counter.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-shared and
//! lock-free to update. The observer resolves each name once, into
//! `OnceLock` tables by action kind ([`Action::kind_index`]), location
//! and channel; a channel slot also keeps that channel's bounded
//! reliable-layer seen-sets ([`SeenSeqs`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use afd_core::{Action, Frame, Loc, Stamped};

use crate::json::Json;
use crate::observer::Observer;
use crate::seen::SeenSeqs;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `by`.
    pub fn inc_by(&self, by: u64) {
        self.0.fetch_add(by, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.inc_by(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value with an all-time peak.
#[derive(Debug, Default)]
pub struct Gauge {
    cur: AtomicI64,
    peak: AtomicI64,
}

impl Gauge {
    /// Add `delta` (may be negative) and update the peak.
    pub fn add(&self, delta: i64) {
        let now = self.cur.fetch_add(delta, Ordering::Relaxed) + delta;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Set the value outright and update the peak.
    pub fn set(&self, v: i64) {
        self.cur.store(v, Ordering::Relaxed);
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.cur.load(Ordering::Relaxed)
    }

    /// Highest value ever held.
    #[must_use]
    pub fn peak(&self) -> i64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram: bucket `k` counts observations
/// `<= bounds[k]`, with an implicit overflow bucket, plus count / sum /
/// max for mean and upper-bound queries.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds (an overflow
    /// bucket is added implicitly).
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    #[must_use]
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Power-of-two buckets from 1 to 2^16 — suits event-count
    /// latencies.
    #[must_use]
    pub fn latency_events() -> Self {
        Histogram::new((0..=16).map(|k| 1u64 << k).collect())
    }

    /// Power-of-ten buckets from 1µs to 10s (in ns) — suits wall-clock
    /// latencies.
    #[must_use]
    pub fn latency_ns() -> Self {
        Histogram::new((3..=10).map(|k| 10u64.pow(k)).collect())
    }

    /// 1-2-5 ladder from 1µs to 10s (in ns) — three buckets per decade,
    /// tight enough for interpolated p50/p99 quantiles on request
    /// latencies.
    #[must_use]
    pub fn latency_ns_fine() -> Self {
        let mut bounds = Vec::new();
        for k in 3..=9u32 {
            let base = 10u64.pow(k);
            bounds.extend([base, 2 * base, 5 * base]);
        }
        bounds.push(10u64.pow(10));
        Histogram::new(bounds)
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean observation, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum.load(Ordering::Relaxed) as f64 / n as f64)
    }

    /// Largest observation.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) estimated by linear
    /// interpolation inside the owning bucket, or `None` if empty.
    /// Observations landing in the overflow bucket are attributed to
    /// [`Histogram::max`], so `quantile(1.0)` is exact.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let rank = (q * n as f64).max(1.0);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let hi = if idx < self.bounds.len() {
                    self.bounds[idx] as f64
                } else {
                    return Some(self.max() as f64);
                };
                let lo = if idx == 0 {
                    0.0
                } else {
                    self.bounds[idx - 1] as f64
                };
                let frac = (rank - seen as f64) / c as f64;
                return Some((lo + frac * (hi - lo)).min(self.max() as f64));
            }
            seen += c;
        }
        Some(self.max() as f64)
    }

    /// Per-bucket `(upper_bound, count)` pairs; the overflow bucket
    /// reports `u64::MAX` as its bound.
    #[must_use]
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.buckets.iter().map(|b| b.load(Ordering::Relaxed)))
            .collect()
    }
}

/// The registry: named counters, gauges, and histograms, created on
/// first use.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Metrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// The counter named `name`, created zeroed on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut g = self.counters.lock().expect("metrics poisoned");
        g.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created zeroed on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut g = self.gauges.lock().expect("metrics poisoned");
        g.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created with `make` on first use.
    #[must_use]
    pub fn histogram(&self, name: &str, make: impl FnOnce() -> Histogram) -> Arc<Histogram> {
        let mut g = self.histograms.lock().expect("metrics poisoned");
        g.entry(name.to_string())
            .or_insert_with(|| Arc::new(make()))
            .clone()
    }

    /// A point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metrics poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("metrics poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), (v.get(), v.peak())))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("metrics poisoned")
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            count: v.count(),
                            mean: v.mean(),
                            max: v.max(),
                            buckets: v.buckets(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// A frozen histogram: count, mean, max, and per-bucket counts.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Mean observation (`None` if empty).
    pub mean: Option<f64>,
    /// Largest observation.
    pub max: u64,
    /// `(upper_bound, count)` per bucket; overflow bound is `u64::MAX`.
    pub buckets: Vec<(u64, u64)>,
}

/// A point-in-time copy of a [`Metrics`] registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge `(current, peak)` by name.
    pub gauges: BTreeMap<String, (i64, i64)>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The snapshot as a JSON document:
    /// `{"counters":{..},"gauges":{..:{"value":..,"peak":..}},"histograms":{..}}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, &(cur, peak))| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(cur as f64)),
                        ("peak".into(), Json::Num(peak as f64)),
                    ]),
                )
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|&(bound, count)| {
                        let le = match bound {
                            u64::MAX => Json::Str("inf".into()),
                            _ => Json::Num(bound as f64),
                        };
                        Json::Obj(vec![
                            ("le".into(), le),
                            ("count".into(), Json::Num(count as f64)),
                        ])
                    })
                    .collect();
                let doc = Json::Obj(vec![
                    ("count".into(), Json::Num(h.count as f64)),
                    ("mean".into(), h.mean.map_or(Json::Null, Json::Num)),
                    ("max".into(), Json::Num(h.max as f64)),
                    ("buckets".into(), Json::Arr(buckets)),
                ]);
                (k.clone(), doc)
            })
            .collect();
        Json::Obj(vec![
            ("counters".into(), Json::Obj(counters)),
            ("gauges".into(), Json::Obj(gauges)),
            ("histograms".into(), Json::Obj(histograms)),
        ])
    }
}

/// Slots in the observer's per-location tables: one per [`Loc`] value.
const LOCS: usize = 1 << u8::BITS;

/// One channel's in-flight gauges and the `Data` seqs it has sent /
/// delivered at least once (repeats are retransmissions / duplicates).
#[derive(Default)]
struct ChanSlot {
    chan: OnceLock<Arc<Gauge>>,
    wire: OnceLock<Arc<Gauge>>,
    sent: Mutex<SeenSeqs>,
    rcvd: Mutex<SeenSeqs>,
}

/// `(seq, wall_ns)` of a `Query`.
type QueryStamp = (u64, Option<u64>);

/// Populates a [`Metrics`] registry from observer callbacks (see the
/// module docs for the metric families).
pub struct MetricsObserver {
    metrics: Arc<Metrics>,
    total: Arc<Counter>,
    crashes: Arc<Counter>,
    query_latency_events: Arc<Histogram>,
    query_latency_ns: Arc<Histogram>,
    retransmissions: Arc<Counter>,
    dup_frames: Arc<Counter>,
    /// `events.<kind>` by [`Action::kind_index`].
    kinds: [OnceLock<Arc<Counter>>; Action::KIND_COUNT],
    /// `loc.<p>.events` by location.
    locs: Box<[OnceLock<Arc<Counter>>]>,
    /// Channel slots: a row per sender, allocated on first use.
    chans: Box<[OnceLock<Box<[ChanSlot]>>]>,
    /// Outstanding `Query` per location.
    pending_queries: Mutex<Box<[Option<QueryStamp>]>>,
}

impl MetricsObserver {
    /// An observer feeding `metrics`.
    #[must_use]
    pub fn new(metrics: Arc<Metrics>) -> Self {
        MetricsObserver {
            total: metrics.counter("events.total"),
            crashes: metrics.counter("crashes"),
            query_latency_events: metrics
                .histogram("fd.query_latency_events", Histogram::latency_events),
            query_latency_ns: metrics.histogram("fd.query_latency_ns", Histogram::latency_ns),
            retransmissions: metrics.counter("rel.retransmissions"),
            dup_frames: metrics.counter("rel.dup_frames"),
            kinds: std::array::from_fn(|_| OnceLock::new()),
            locs: (0..LOCS).map(|_| OnceLock::new()).collect(),
            chans: (0..LOCS).map(|_| OnceLock::new()).collect(),
            pending_queries: Mutex::new(vec![None; LOCS].into_boxed_slice()),
            metrics,
        }
    }

    /// The registry this observer feeds.
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }
}

impl Observer for MetricsObserver {
    fn on_commit(&self, ev: Stamped) {
        let a = ev.action;
        self.total.inc();
        self.kinds[a.kind_index()]
            .get_or_init(|| self.metrics.counter(&format!("events.{}", a.kind_name())))
            .inc();
        let l = a.loc();
        self.locs[l.index()]
            .get_or_init(|| self.metrics.counter(&format!("loc.{l}.events")))
            .inc();
        let (from, to, wire, sending) = match a {
            Action::Send { from, to, .. } => (from, to, false, true),
            Action::Receive { from, to, .. } => (from, to, false, false),
            Action::WireSend { from, to, .. } => (from, to, true, true),
            Action::WireRecv { from, to, .. } => (from, to, true, false),
            Action::Query { at } => {
                self.pending_queries.lock().expect("metrics poisoned")[at.index()] =
                    Some((ev.seq, ev.wall_ns));
                return;
            }
            Action::QueryReply { at, .. } => {
                let pending =
                    self.pending_queries.lock().expect("metrics poisoned")[at.index()].take();
                if let Some((q_seq, q_ns)) = pending {
                    self.query_latency_events
                        .observe(ev.seq.saturating_sub(q_seq));
                    if let (Some(t0), Some(t1)) = (q_ns, ev.wall_ns) {
                        self.query_latency_ns.observe(t1.saturating_sub(t0));
                    }
                }
                return;
            }
            _ => return,
        };
        let row = self.chans[from.index()]
            .get_or_init(|| (0..LOCS).map(|_| ChanSlot::default()).collect());
        let c = &row[to.index()];
        let (gauge, family) = if wire {
            (&c.wire, "wire")
        } else {
            (&c.chan, "chan")
        };
        gauge
            .get_or_init(|| {
                self.metrics
                    .gauge(&format!("{family}.{from}->{to}.in_flight"))
            })
            .add(if sending { 1 } else { -1 });
        if let Some(Frame::Data { seq, .. }) = a.frame() {
            let (seen, repeats) = if sending {
                (&c.sent, &self.retransmissions)
            } else {
                (&c.rcvd, &self.dup_frames)
            };
            if !seen.lock().expect("metrics poisoned").insert(seq) {
                repeats.inc();
            }
        }
    }

    fn on_crash(&self, _ev: Stamped, _loc: Loc) {
        self.crashes.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::dispatch;
    use afd_core::{FdOutput, Msg};

    #[test]
    fn counter_gauge_histogram_primitives() {
        let c = Counter::default();
        c.inc();
        c.inc_by(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::default();
        g.add(3);
        g.add(-2);
        assert_eq!(g.get(), 1);
        assert_eq!(g.peak(), 3);
        g.set(7);
        assert_eq!(g.peak(), 7);

        let h = Histogram::new(vec![1, 10, 100]);
        for v in [0, 1, 5, 50, 500] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 500);
        assert!((h.mean().unwrap() - 111.2).abs() < 1e-9);
        assert_eq!(h.buckets(), vec![(1, 2), (10, 1), (100, 1), (u64::MAX, 1)]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(vec![10, 5]);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let h = Histogram::new(vec![10, 100, 1000]);
        assert_eq!(h.quantile(0.5), None);
        for v in 1..=100u64 {
            h.observe(v);
        }
        // 10 observations land in (0,10], 90 in (10,100].
        let p50 = h.quantile(0.5).unwrap();
        assert!((40.0..=60.0).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((90.0..=100.0).contains(&p99), "p99 = {p99}");
        assert!((h.quantile(1.0).unwrap() - 100.0).abs() < f64::EPSILON);
        // Overflow observations are pinned to the recorded max.
        h.observe(5000);
        assert!((h.quantile(1.0).unwrap() - 5000.0).abs() < f64::EPSILON);
    }

    #[test]
    fn fine_ladder_is_strictly_ascending() {
        let h = Histogram::latency_ns_fine();
        h.observe(1_500_000); // 1.5ms → (1ms, 2ms] bucket
        let p50 = h.quantile(0.5).unwrap();
        assert!((1_000_000.0..=2_000_000.0).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn registry_reuses_handles_by_name() {
        let m = Metrics::new();
        m.counter("x").inc();
        m.counter("x").inc();
        assert_eq!(m.counter("x").get(), 2);
        let snap = m.snapshot();
        assert_eq!(snap.counters["x"], 2);
    }

    #[test]
    fn observer_populates_well_known_families() {
        let metrics = Arc::new(Metrics::new());
        let obs = MetricsObserver::new(metrics.clone());
        let trace = [
            Action::Send {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(1),
            },
            Action::Send {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(2),
            },
            Action::Receive {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(1),
            },
            Action::Crash(Loc(2)),
            Action::Query { at: Loc(1) },
            Action::QueryReply {
                at: Loc(1),
                out: FdOutput::Leader(Loc(0)),
            },
        ];
        for (k, a) in trace.into_iter().enumerate() {
            dispatch(&obs, Stamped::walled(k as u64, 100 * k as u64, a));
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["events.total"], 6);
        assert_eq!(snap.counters["events.send"], 2);
        assert_eq!(snap.counters["crashes"], 1);
        assert_eq!(snap.counters["loc.p0.events"], 2);
        assert_eq!(snap.gauges["chan.p0->p1.in_flight"], (1, 2));
        let h = &snap.histograms["fd.query_latency_events"];
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 1);
        assert_eq!(snap.histograms["fd.query_latency_ns"].max, 100);
    }

    #[test]
    fn observer_tracks_reliable_layer_work() {
        let metrics = Arc::new(Metrics::new());
        let obs = MetricsObserver::new(metrics.clone());
        let data = Frame::Data {
            seq: 0,
            msg: Msg::Token(9),
        };
        let trace = [
            Action::WireSend {
                from: Loc(0),
                to: Loc(1),
                frame: data,
            },
            // Stubborn retransmission of the same sequence number.
            Action::WireSend {
                from: Loc(0),
                to: Loc(1),
                frame: data,
            },
            Action::WireRecv {
                from: Loc(0),
                to: Loc(1),
                frame: data,
            },
            // The duplicate delivery the receiver must mask.
            Action::WireRecv {
                from: Loc(0),
                to: Loc(1),
                frame: data,
            },
            // Acks never count as retransmissions.
            Action::WireSend {
                from: Loc(1),
                to: Loc(0),
                frame: Frame::Ack { cum: 1 },
            },
        ];
        for (k, a) in trace.into_iter().enumerate() {
            dispatch(&obs, Stamped::logical(k as u64, a));
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["rel.retransmissions"], 1);
        assert_eq!(snap.counters["rel.dup_frames"], 1);
        assert_eq!(snap.gauges["wire.p0->p1.in_flight"], (0, 2));
        assert_eq!(snap.gauges["wire.p1->p0.in_flight"], (1, 1));
    }

    /// Members the observer's seen-sets hold above their floors.
    fn retained_seen_state(obs: &MetricsObserver) -> usize {
        obs.chans
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|row| row.iter())
            .map(|c| c.sent.lock().unwrap().retained() + c.rcvd.lock().unwrap().retained())
            .sum()
    }

    #[test]
    fn seen_state_stays_bounded_over_a_million_frames() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::{BTreeSet, VecDeque};

        const WINDOW: u32 = 8; // ReliableLink's SEND_WINDOW; also the reorder bound
        struct Link {
            from: Loc,
            to: Loc,
            /// Lowest unacked seq and one past the highest queued.
            base: u32,
            top: u32,
            wire: VecDeque<u32>,
            delivered: BTreeSet<u32>,
            next_deliver: u32,
        }
        let metrics = Arc::new(Metrics::new());
        let obs = MetricsObserver::new(metrics.clone());
        let mut rng = StdRng::seed_from_u64(36);
        let mut links: Vec<Link> = [(0, 1), (1, 0)]
            .map(|(f, t)| Link {
                from: Loc(f),
                to: Loc(t),
                base: 0,
                top: 0,
                wire: VecDeque::new(),
                delivered: BTreeSet::new(),
                next_deliver: 0,
            })
            .into();
        let (mut sent, mut rcvd) = (BTreeSet::new(), BTreeSet::new());
        let (mut retransmissions, mut dups) = (0u64, 0u64);
        let mut frames = 0u64;
        while frames < 1_000_000 {
            let l = &mut links[rng.gen_range(0..2usize)];
            let (from, to) = (l.from, l.to);
            let action = if l.wire.is_empty() || (l.wire.len() < 16 && rng.gen_bool(0.5)) {
                if l.top - l.base < WINDOW && rng.gen_bool(0.5) {
                    l.top += 1; // the application queues a message
                }
                if l.top == l.base {
                    continue;
                }
                // Stubborn (re)transmission of any frame in the window,
                // so first sends leave out of seq order.
                let seq = rng.gen_range(l.base..l.top.min(l.base + WINDOW));
                l.wire.push_back(seq);
                retransmissions += u64::from(!sent.insert((from, seq)));
                Action::WireSend {
                    from,
                    to,
                    frame: Frame::Data {
                        seq,
                        msg: Msg::Token(seq.into()),
                    },
                }
            } else {
                // Reorder within the first WINDOW frames; duplicate 10%.
                let k = rng.gen_range(0..l.wire.len().min(WINDOW as usize));
                let seq = if rng.gen_bool(0.1) {
                    l.wire[k]
                } else {
                    l.wire.remove(k).unwrap()
                };
                l.delivered.insert(seq);
                while l.delivered.remove(&l.next_deliver) {
                    l.next_deliver += 1;
                }
                l.base = l.next_deliver; // the cumulative ack gets through
                dups += u64::from(!rcvd.insert((from, seq)));
                Action::WireRecv {
                    from,
                    to,
                    frame: Frame::Data {
                        seq,
                        msg: Msg::Token(seq.into()),
                    },
                }
            };
            dispatch(&obs, Stamped::logical(frames, action));
            frames += 1;
            if frames.is_multiple_of(1_000) {
                // Per set, the members above the floor lie inside one
                // send window: 2 links × 2 sets × WINDOW.
                let retained = retained_seen_state(&obs);
                assert!(
                    retained <= 4 * WINDOW as usize,
                    "{retained} seqs retained after {frames} frames"
                );
            }
        }
        assert!(
            links.iter().all(|l| l.next_deliver > 10_000),
            "the links made progress"
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["rel.retransmissions"], retransmissions);
        assert_eq!(snap.counters["rel.dup_frames"], dups);
        assert!(retransmissions > 0 && dups > 0);
    }

    #[test]
    fn concurrent_observers_count_every_event() {
        const THREADS: u8 = 4;
        const PER_THREAD: u32 = 2_000;
        let metrics = Arc::new(Metrics::new());
        let obs = MetricsObserver::new(metrics.clone());
        let start = std::sync::Barrier::new(THREADS.into());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (obs, start) = (&obs, &start);
                s.spawn(move || {
                    let me = Loc(t);
                    let (from, to) = (Loc(0), Loc(1));
                    start.wait();
                    for k in 0..PER_THREAD {
                        let msg = Msg::Token(k.into());
                        let frame = Frame::Data { seq: k, msg };
                        for a in [
                            // Shared by every thread: the same slots race to register.
                            Action::Send { from, to, msg },
                            Action::WireSend { from, to, frame },
                            Action::WireRecv { from, to, frame },
                            // One thread's own, at a location far above Π's usual size.
                            Action::Send {
                                from: me,
                                to: Loc(200 + t),
                                msg,
                            },
                            Action::Receive {
                                from: me,
                                to: Loc(200 + t),
                                msg,
                            },
                        ] {
                            dispatch(obs, Stamped::logical(0, a));
                        }
                    }
                });
            }
        });
        let snap = metrics.snapshot();
        let (n, per) = (u64::from(THREADS), u64::from(PER_THREAD));
        assert_eq!(snap.counters["events.total"], 5 * n * per);
        assert_eq!(snap.counters["events.send"], 2 * n * per);
        assert_eq!(snap.counters["events.receive"], n * per);
        assert_eq!(snap.counters["events.wire_send"], n * per);
        assert_eq!(snap.counters["events.wire_recv"], n * per);
        // Each seq's first send and first delivery are fresh; the
        // other threads' copies are repeats.
        assert_eq!(snap.counters["rel.retransmissions"], (n - 1) * per);
        assert_eq!(snap.counters["rel.dup_frames"], (n - 1) * per);
        assert_eq!(snap.gauges["chan.p0->p1.in_flight"].0, (n * per) as i64);
        assert_eq!(snap.gauges["wire.p0->p1.in_flight"].0, 0);
        for t in 0..THREADS {
            let p = Loc(200 + t);
            assert_eq!(snap.counters[&format!("loc.{p}.events")], per);
            assert_eq!(snap.gauges[&format!("chan.p{t}->{p}.in_flight")].0, 0);
        }
        // Shared sends and wire sends at p0, shared wire receipts at
        // p1, plus each one's own sends.
        assert_eq!(snap.counters["loc.p0.events"], 2 * n * per + per);
        assert_eq!(snap.counters["loc.p1.events"], n * per + per);
    }

    #[test]
    fn snapshot_to_json_parses() {
        let metrics = Arc::new(Metrics::new());
        let obs = MetricsObserver::new(metrics.clone());
        dispatch(&obs, Stamped::logical(0, Action::Crash(Loc(0))));
        let doc = metrics.snapshot().to_json().render();
        let v = Json::parse(&doc).unwrap();
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("events.total")
                .unwrap()
                .as_num(),
            Some(1.0)
        );
        assert!(v
            .get("histograms")
            .unwrap()
            .get("fd.query_latency_events")
            .unwrap()
            .get("mean")
            .unwrap()
            .is_null());
    }
}
