//! afd-prof: a low-overhead, span-based internal profiler for the
//! execution engines.
//!
//! PR 2's afd-obs observes the *linearized schedule* — what the system
//! did. This crate measures the *engines themselves* — where the wall
//! time went while doing it: how long a worker waited on its input
//! queue, how long an automaton step took, how long the commit path
//! waited for (and then held) the sink lock, what the distributed
//! commit round trip cost.
//!
//! # Hot-path rules
//!
//! * **No locks, no allocation on the hot path.** Each thread records
//!   into a pre-allocated thread-local buffer ([`BUF_CAP`] records).
//!   The buffer flushes to the global collector — one mutex
//!   acquisition — only when full (an *epoch flush*), on
//!   [`flush_local`], or at thread exit.
//! * **Disabled means gone.** Every probe first reads one relaxed
//!   atomic; when the profiler is disabled the probe neither reads the
//!   clock nor touches the buffer. With the `off` cargo feature the
//!   check is a compile-time constant and the probes fold away
//!   entirely.
//! * **Wall timestamps are unix-anchored.** Span start times are
//!   nanoseconds since the unix epoch (captured once per process, then
//!   advanced by a monotonic clock), so buffers recorded by different
//!   OS processes on one machine merge into a single coherent
//!   timeline without a handshake protocol.
//!
//! # What gets recorded
//!
//! Two record kinds, both 26 bytes on the wire (see `afd-net`'s
//! `Telemetry` frame):
//!
//! * **Spans** ([`Stage`]): a start timestamp plus a duration, scoped
//!   by the RAII [`SpanGuard`] returned from [`span`].
//! * **Gauges** ([`GaugeKind`]): a sampled value at a timestamp —
//!   sink queue depth, ready-queue depth —
//!   recorded by [`gauge`] or decimated by [`gauge_sampled`].
//!
//! [`drain`] collects everything into a [`Report`]; [`merge`] combines
//! reports from several processes into one time-sorted [`Merged`]
//! view; [`chrome_merged`] renders that as a `chrome://tracing` /
//! Perfetto timeline with one lane per process/thread.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime};

use afd_obs::Json;

/// A named engine stage a span can attribute time to.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Worker blocked on its input queue (`recv_timeout`).
    RecvWait = 0,
    /// Automaton `step` — including `enabled` scans and, in the pooled
    /// engine, the activation's inbox/lock bookkeeping (the span tiles
    /// the whole activation, pausing around other-stage regions).
    Step = 1,
    /// Commit path: waiting to acquire the sink lock.
    CommitWait = 2,
    /// Commit path: holding the sink lock.
    LockHold = 3,
    /// Observer / stop-predicate dispatch on the sink's in-order drain.
    ObserverDispatch = 4,
    /// Retired: the engine's chaos activation, now the channel
    /// automaton's own `step`, timed as [`Stage::Step`]. The id stays
    /// reserved so the Telemetry wire format keeps its numbering.
    ChaosDecision = 5,
    /// Wire-frame pacing and retransmission work (ReliableLink).
    Retransmit = 6,
    /// Node side: encoding a wire frame.
    NetEncode = 7,
    /// Node side: writing the frame to the socket.
    NetSocket = 8,
    /// Node side: waiting for the commit response (the ack).
    NetAckWait = 9,
    /// Coordinator side: from socket read to sink commit start.
    CoordQueue = 10,
    /// Retired: the coordinator's fan-out of a node's commit, now
    /// [`Stage::Route`] like every other. The id stays reserved so the
    /// Telemetry wire format and recorded traces keep their numbering.
    SinkCommit = 11,
    /// Deliberate throttling sleeps: FD-output pacing, link
    /// delay/jitter, partition holds.
    Pacing = 12,
    /// Pool worker parked on its shard's ready queue (condvar wait).
    SchedWait = 13,
    /// Routing a committed action: fan-out into target inboxes plus
    /// executor enqueue.
    Route = 14,
    /// Node side (UDP transport): fragmenting + transmitting a
    /// committed send as datagrams.
    NetDgramSend = 15,
    /// Node side (UDP transport): reassembling + decoding a received
    /// datagram into a channel input.
    NetDgramRecv = 16,
}

/// Number of distinct [`Stage`]s.
pub const STAGE_COUNT: usize = 17;

impl Stage {
    /// All stages, in discriminant order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::RecvWait,
        Stage::Step,
        Stage::CommitWait,
        Stage::LockHold,
        Stage::ObserverDispatch,
        Stage::ChaosDecision,
        Stage::Retransmit,
        Stage::NetEncode,
        Stage::NetSocket,
        Stage::NetAckWait,
        Stage::CoordQueue,
        Stage::SinkCommit,
        Stage::Pacing,
        Stage::SchedWait,
        Stage::Route,
        Stage::NetDgramSend,
        Stage::NetDgramRecv,
    ];

    /// Stable, human-readable stage name (used in tables and traces).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::RecvWait => "recv-wait",
            Stage::Step => "step",
            Stage::CommitWait => "commit-wait",
            Stage::LockHold => "lock-hold",
            Stage::ObserverDispatch => "observer-dispatch",
            Stage::ChaosDecision => "chaos-decision",
            Stage::Retransmit => "retransmit",
            Stage::NetEncode => "net-encode",
            Stage::NetSocket => "net-socket",
            Stage::NetAckWait => "net-ack-wait",
            Stage::CoordQueue => "coord-queue",
            Stage::SinkCommit => "sink-commit",
            Stage::Pacing => "pacing",
            Stage::SchedWait => "sched-wait",
            Stage::Route => "route",
            Stage::NetDgramSend => "net-dgram-send",
            Stage::NetDgramRecv => "net-dgram-recv",
        }
    }

    /// Decode a wire discriminant.
    #[must_use]
    pub fn from_u8(b: u8) -> Option<Stage> {
        Stage::ALL.get(usize::from(b)).copied()
    }
}

/// A sampled quantity (not a duration).
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GaugeKind {
    /// Committed-but-undrained backlog in the event sink.
    SinkDepth = 0,
    /// Ready components queued on one executor shard at pop time.
    ReadyQueueDepth = 1,
}

/// Number of distinct [`GaugeKind`]s.
pub const GAUGE_COUNT: usize = 2;

impl GaugeKind {
    /// All gauges, in discriminant order.
    pub const ALL: [GaugeKind; GAUGE_COUNT] = [GaugeKind::SinkDepth, GaugeKind::ReadyQueueDepth];

    /// Stable, human-readable gauge name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GaugeKind::SinkDepth => "sink-depth",
            GaugeKind::ReadyQueueDepth => "ready-queue-depth",
        }
    }

    /// Decode a wire discriminant.
    #[must_use]
    pub fn from_u8(b: u8) -> Option<GaugeKind> {
        GaugeKind::ALL.get(usize::from(b)).copied()
    }
}

/// Record kind discriminant: a timed span.
pub const REC_SPAN: u8 = 0;
/// Record kind discriminant: a sampled gauge.
pub const REC_GAUGE: u8 = 1;

/// One profiler record. `kind` is [`REC_SPAN`] (then `id` is a
/// [`Stage`], `v` a duration in ns) or [`REC_GAUGE`] (then `id` is a
/// [`GaugeKind`], `v` the sampled value). `t_ns` is unix nanoseconds;
/// `lane` identifies the recording thread within its process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    /// [`REC_SPAN`] or [`REC_GAUGE`].
    pub kind: u8,
    /// Stage or gauge discriminant.
    pub id: u8,
    /// Recording thread's lane id (process-local).
    pub lane: u32,
    /// Unix nanoseconds at span start / gauge sample.
    pub t_ns: u64,
    /// Span duration in ns, or gauge value.
    pub v: u64,
}

/// Everything one process recorded: lane names plus records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// `(lane id, name)` for every lane that flushed or named itself.
    pub lanes: Vec<(u32, String)>,
    /// The records, in per-thread flush order (not globally sorted).
    pub recs: Vec<Rec>,
}

impl Report {
    /// True iff nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty() && self.recs.is_empty()
    }
}

/// Thread-local buffer capacity: records between epoch flushes.
pub const BUF_CAP: usize = 4096;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: AtomicU64 = AtomicU64::new(1);
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
/// Calibrated cost of recording one span (two clock reads plus the
/// thread-local push), measured once on first [`enable`].
static RECORD_COST_NS: AtomicU64 = AtomicU64::new(0);

struct Shared {
    /// `(monotonic anchor, unix ns at that instant)` — fixed per process.
    origin: (Instant, u64),
    sink: Mutex<Report>,
}

fn shared() -> &'static Shared {
    static S: OnceLock<Shared> = OnceLock::new();
    S.get_or_init(|| {
        let unix = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        Shared {
            origin: (Instant::now(), unix),
            sink: Mutex::new(Report::default()),
        }
    })
}

struct Local {
    epoch: u64,
    lane: u32,
    name: Option<String>,
    registered: bool,
    buf: Vec<Rec>,
    decim: [u32; GAUGE_COUNT],
}

impl Local {
    fn new() -> Local {
        Local {
            epoch: 0,
            lane: NEXT_LANE.fetch_add(1, Ordering::Relaxed),
            name: None,
            registered: false,
            buf: Vec::new(),
            decim: [0; GAUGE_COUNT],
        }
    }

    /// Keep the buffer aligned with the current epoch; stale records
    /// from a previous run are discarded, not merged.
    fn sync_epoch(&mut self) {
        let now = EPOCH.load(Ordering::Relaxed);
        if self.epoch != now {
            self.epoch = now;
            self.buf.clear();
            self.registered = false;
        }
        if self.buf.capacity() == 0 {
            self.buf.reserve_exact(BUF_CAP);
        }
    }

    fn flush(&mut self) {
        if self.epoch != EPOCH.load(Ordering::Relaxed) {
            self.buf.clear();
            self.registered = false;
            return;
        }
        if self.buf.is_empty() && self.registered {
            return;
        }
        let mut sink = shared().sink.lock().unwrap_or_else(|e| e.into_inner());
        if !self.registered {
            let name = self
                .name
                .clone()
                .unwrap_or_else(|| format!("lane{}", self.lane));
            sink.lanes.push((self.lane, name));
            self.registered = true;
        }
        sink.recs.append(&mut self.buf);
    }

    fn push(&mut self, mut rec: Rec) {
        self.sync_epoch();
        rec.lane = self.lane;
        self.buf.push(rec);
        if self.buf.len() >= BUF_CAP {
            self.flush();
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            self.flush();
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::new());
}

/// Is the profiler recording?
#[inline]
#[must_use]
pub fn is_enabled() -> bool {
    !cfg!(feature = "off") && ENABLED.load(Ordering::Relaxed)
}

/// Start recording (initialises the process clock anchor on first use).
///
/// The first call also calibrates the per-record cost of the profiler
/// itself — a short timed loop of no-op spans, discarded afterwards —
/// which [`Coverage`] uses to attribute profiler self-time instead of
/// leaving it as unexplained gaps between spans.
pub fn enable() {
    if cfg!(feature = "off") {
        return;
    }
    let _ = shared();
    if RECORD_COST_NS.load(Ordering::Relaxed) == 0 {
        ENABLED.store(true, Ordering::Release);
        let n = 2048u64;
        let t0 = Instant::now();
        for _ in 0..n {
            span(Stage::Step).done();
        }
        let per = (t0.elapsed().as_nanos() as u64 / n).max(1);
        RECORD_COST_NS.store(per, Ordering::Relaxed);
        reset(); // drop the calibration records
    }
    ENABLED.store(true, Ordering::Release);
}

/// Calibrated cost of recording one span, in ns (0 before the first
/// [`enable`]).
#[must_use]
pub fn record_cost_ns() -> u64 {
    RECORD_COST_NS.load(Ordering::Relaxed)
}

/// Stop recording. Buffers keep their contents until [`drain`]/[`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Discard everything recorded so far (all thread buffers
/// self-invalidate on their next probe).
pub fn reset() {
    EPOCH.fetch_add(1, Ordering::Relaxed);
    let mut sink = shared().sink.lock().unwrap_or_else(|e| e.into_inner());
    sink.lanes.clear();
    sink.recs.clear();
}

/// Name the calling thread's timeline lane (e.g. `"worker:p3"`).
/// Call once at thread start — it is not a hot-path probe.
pub fn set_lane(name: &str) {
    let _ = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        l.name = Some(name.to_string());
        l.registered = false;
    });
}

/// Unix nanoseconds on the profiler's process clock (0 before
/// [`enable`] has ever run).
#[must_use]
pub fn now_ns() -> u64 {
    let o = shared().origin;
    o.1.saturating_add(o.0.elapsed().as_nanos() as u64)
}

/// RAII span: records `stage` from construction to drop. Inert (no
/// clock read) when the profiler is disabled.
#[must_use = "a span measures until dropped"]
pub struct SpanGuard {
    stage: Stage,
    start: Option<Instant>,
}

impl SpanGuard {
    /// End the span now (idempotent; drop does the same).
    pub fn done(mut self) {
        self.finish();
    }

    /// End this span and immediately open one for `next`, sharing a
    /// single clock read for the boundary — for back-to-back stages on
    /// a hot path (e.g. commit-wait → lock-hold) where the extra
    /// `Instant::now` would land inside a critical section.
    #[must_use = "dropping the returned guard ends the next stage immediately"]
    pub fn handoff(mut self, next: Stage) -> SpanGuard {
        match self.start.take() {
            Some(start) => {
                let end = Instant::now();
                record_between(self.stage, start, end);
                SpanGuard {
                    stage: next,
                    start: Some(end),
                }
            }
            None => SpanGuard {
                stage: next,
                start: None,
            },
        }
    }

    fn finish(&mut self) {
        if let Some(start) = self.start.take() {
            let end = Instant::now();
            record_between(self.stage, start, end);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Open a span for `stage` on the calling thread.
#[inline]
pub fn span(stage: Stage) -> SpanGuard {
    SpanGuard {
        stage,
        start: if is_enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

fn record_between(stage: Stage, start: Instant, end: Instant) {
    let origin = shared().origin;
    let t_ns = origin
        .1
        .saturating_add(start.saturating_duration_since(origin.0).as_nanos() as u64);
    let v = end.saturating_duration_since(start).as_nanos() as u64;
    let _ = LOCAL.try_with(|l| {
        l.borrow_mut().push(Rec {
            kind: REC_SPAN,
            id: stage as u8,
            lane: 0,
            t_ns,
            v,
        });
    });
}

/// Record a gauge sample.
#[inline]
pub fn gauge(g: GaugeKind, v: u64) {
    if !is_enabled() {
        return;
    }
    let t_ns = now_ns();
    let _ = LOCAL.try_with(|l| {
        l.borrow_mut().push(Rec {
            kind: REC_GAUGE,
            id: g as u8,
            lane: 0,
            t_ns,
            v,
        });
    });
}

/// Record every `every`-th call per thread (decimated sampling for
/// per-commit quantities). `every = 0` is treated as 1.
#[inline]
pub fn gauge_sampled(g: GaugeKind, v: u64, every: u32) {
    if !is_enabled() {
        return;
    }
    let fire = LOCAL
        .try_with(|l| {
            let mut l = l.borrow_mut();
            let c = &mut l.decim[g as usize];
            *c += 1;
            if *c >= every.max(1) {
                *c = 0;
                true
            } else {
                false
            }
        })
        .unwrap_or(false);
    if fire {
        gauge(g, v);
    }
}

/// Flush the calling thread's buffer to the global collector.
pub fn flush_local() {
    let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
}

/// Records buffered in the global collector (excludes other threads'
/// un-flushed local buffers). Cheap enough to poll for streaming.
#[must_use]
pub fn pending() -> usize {
    shared()
        .sink
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .recs
        .len()
}

/// Take whatever has been flushed to the global collector so far,
/// leaving it empty — the streaming primitive (node → coordinator).
/// Flushes the calling thread's own buffer first.
#[must_use]
pub fn take() -> Report {
    flush_local();
    let mut sink = shared().sink.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Report::default();
    std::mem::swap(&mut *sink, &mut out);
    out
}

/// Stop-and-collect: flush the calling thread, take the collector.
/// Threads that already exited flushed on exit; call after joining
/// workers for a complete picture.
#[must_use]
pub fn drain() -> Report {
    take()
}

/// Per-stage span totals over a record slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStat {
    /// The stage.
    pub stage: Stage,
    /// Number of spans.
    pub count: u64,
    /// Total duration in ns.
    pub total_ns: u64,
}

/// Aggregate span records by stage (gauges are ignored). Every stage
/// appears, including zero rows, in discriminant order.
#[must_use]
pub fn stage_stats(recs: &[Rec]) -> [StageStat; STAGE_COUNT] {
    let mut out = Stage::ALL.map(|stage| StageStat {
        stage,
        count: 0,
        total_ns: 0,
    });
    for r in recs {
        if r.kind == REC_SPAN {
            if let Some(s) = Stage::from_u8(r.id) {
                out[s as usize].count += 1;
                out[s as usize].total_ns += r.v;
            }
        }
    }
    out
}

/// Per-gauge summary over a record slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeStat {
    /// The gauge.
    pub gauge: GaugeKind,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (for means).
    pub sum: u64,
    /// Maximum sample.
    pub max: u64,
}

/// Aggregate gauge records (spans are ignored).
#[must_use]
pub fn gauge_stats(recs: &[Rec]) -> [GaugeStat; GAUGE_COUNT] {
    let mut out = GaugeKind::ALL.map(|gauge| GaugeStat {
        gauge,
        count: 0,
        sum: 0,
        max: 0,
    });
    for r in recs {
        if r.kind == REC_GAUGE {
            if let Some(g) = GaugeKind::from_u8(r.id) {
                out[g as usize].count += 1;
                out[g as usize].sum += r.v;
                out[g as usize].max = out[g as usize].max.max(r.v);
            }
        }
    }
    out
}

/// Attribution summary: how much of the engine's thread-time the
/// spans explain. `wall_ns` is Σ over lanes of (last span end − first
/// span start); `attributed_ns` is Σ of span durations. Their ratio is
/// the coverage the Table W acceptance gate checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Coverage {
    /// Σ span durations.
    pub attributed_ns: u64,
    /// Σ per-lane busy windows.
    pub wall_ns: u64,
    /// Estimated profiler self-time: records × calibrated per-record
    /// cost ([`record_cost_ns`]). Lives in the gaps *between* spans,
    /// so it is explained time that `attributed_ns` cannot see.
    pub overhead_ns: u64,
}

impl Coverage {
    /// Explained share of wall time, in percent (0 when no wall):
    /// span-attributed time plus profiler self-time, capped at 100.
    #[must_use]
    pub fn pct(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            (100.0 * (self.attributed_ns + self.overhead_ns) as f64 / self.wall_ns as f64)
                .min(100.0)
        }
    }
}

/// Compute [`Coverage`] for one report.
#[must_use]
pub fn coverage(report: &Report) -> Coverage {
    // lane id -> (min start, max end, attributed)
    let mut lanes: Vec<(u32, u64, u64, u64)> = Vec::new();
    for r in &report.recs {
        if r.kind != REC_SPAN {
            continue;
        }
        let end = r.t_ns.saturating_add(r.v);
        match lanes.iter_mut().find(|e| e.0 == r.lane) {
            Some(e) => {
                e.1 = e.1.min(r.t_ns);
                e.2 = e.2.max(end);
                e.3 += r.v;
            }
            None => lanes.push((r.lane, r.t_ns, end, r.v)),
        }
    }
    let mut cov = Coverage::default();
    for (_, start, end, attr) in lanes {
        cov.wall_ns += end.saturating_sub(start);
        cov.attributed_ns += attr;
    }
    cov.overhead_ns = report.recs.len() as u64 * record_cost_ns();
    cov
}

/// Compute [`Coverage`] over a merged multi-process view. Like
/// [`coverage`], but lanes are keyed by `(pid, lane)` — lane ids are
/// process-local and may collide across processes, so flattening the
/// merge into one report would conflate distinct threads.
#[must_use]
pub fn coverage_merged(m: &Merged) -> Coverage {
    // (pid, lane) -> (min start, max end, attributed)
    let mut lanes: Vec<(u32, u32, u64, u64, u64)> = Vec::new();
    for (pid, r) in &m.recs {
        if r.kind != REC_SPAN {
            continue;
        }
        let end = r.t_ns.saturating_add(r.v);
        match lanes.iter_mut().find(|e| e.0 == *pid && e.1 == r.lane) {
            Some(e) => {
                e.2 = e.2.min(r.t_ns);
                e.3 = e.3.max(end);
                e.4 += r.v;
            }
            None => lanes.push((*pid, r.lane, r.t_ns, end, r.v)),
        }
    }
    let mut cov = Coverage::default();
    for (_, _, start, end, attr) in lanes {
        cov.wall_ns += end.saturating_sub(start);
        cov.attributed_ns += attr;
    }
    cov.overhead_ns = m.recs.len() as u64 * record_cost_ns();
    cov
}

/// A multi-process merge of [`Report`]s: one timeline, one lane per
/// `(pid, lane)`, records globally time-sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Merged {
    /// `(pid, process name)` in merge-input order.
    pub procs: Vec<(u32, String)>,
    /// `(pid, lane id, lane name)` for every lane of every process.
    pub lanes: Vec<(u32, u32, String)>,
    /// `(pid, record)`, sorted by `t_ns`, ties broken by `(pid, lane)`
    /// — a deterministic total order regardless of arrival order.
    pub recs: Vec<(u32, Rec)>,
}

/// Merge per-process reports (e.g. the coordinator's own plus one
/// Telemetry stream per node) into a single time-sorted view. Input
/// order does not matter: records are sorted by timestamp with a
/// deterministic `(pid, lane)` tiebreak, so assembly is stable however
/// the frames interleaved on the sockets.
#[must_use]
pub fn merge(parts: Vec<(u32, String, Report)>) -> Merged {
    let mut m = Merged::default();
    for (pid, name, report) in parts {
        m.procs.push((pid, name));
        for (lane, lname) in report.lanes {
            if !m.lanes.iter().any(|(p, l, _)| *p == pid && *l == lane) {
                m.lanes.push((pid, lane, lname));
            }
        }
        m.recs.extend(report.recs.into_iter().map(|r| (pid, r)));
    }
    m.recs
        .sort_by_key(|(pid, r)| (r.t_ns, *pid, r.lane, r.kind, r.id));
    m.lanes.sort_by_key(|l| (l.0, l.1));
    m
}

/// Render a merged view as chrome://tracing JSON: per-process
/// `process_name` and per-lane `thread_name` metadata events, one
/// complete (`"X"`) event per span, one counter (`"C"`) event per
/// gauge sample. Timestamps are µs relative to the earliest record.
#[must_use]
pub fn chrome_merged(m: &Merged) -> String {
    let t0 = m.recs.iter().map(|(_, r)| r.t_ns).min().unwrap_or(0);
    let us = |ns: u64| ns.saturating_sub(t0) as f64 / 1_000.0;
    let mut evs: Vec<Json> = Vec::with_capacity(m.recs.len() + m.lanes.len() + m.procs.len());
    for (pid, name) in &m.procs {
        evs.push(Json::Obj(vec![
            ("name".into(), Json::Str("process_name".into())),
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::Num(f64::from(*pid))),
            ("tid".into(), Json::Num(0.0)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::Str(name.clone()))]),
            ),
        ]));
    }
    for (pid, lane, name) in &m.lanes {
        evs.push(Json::Obj(vec![
            ("name".into(), Json::Str("thread_name".into())),
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::Num(f64::from(*pid))),
            ("tid".into(), Json::Num(f64::from(*lane))),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::Str(name.clone()))]),
            ),
        ]));
    }
    for (pid, r) in &m.recs {
        if r.kind == REC_SPAN {
            let name = Stage::from_u8(r.id).map_or("span?", Stage::name);
            evs.push(Json::Obj(vec![
                ("name".into(), Json::Str(name.into())),
                ("cat".into(), Json::Str("prof".into())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::Num(us(r.t_ns))),
                ("dur".into(), Json::Num(r.v as f64 / 1_000.0)),
                ("pid".into(), Json::Num(f64::from(*pid))),
                ("tid".into(), Json::Num(f64::from(r.lane))),
            ]));
        } else {
            let name = GaugeKind::from_u8(r.id).map_or("gauge?", GaugeKind::name);
            evs.push(Json::Obj(vec![
                ("name".into(), Json::Str(name.into())),
                ("cat".into(), Json::Str("prof".into())),
                ("ph".into(), Json::Str("C".into())),
                ("ts".into(), Json::Num(us(r.t_ns))),
                ("pid".into(), Json::Num(f64::from(*pid))),
                (
                    "args".into(),
                    Json::Obj(vec![("value".into(), Json::Num(r.v as f64))]),
                ),
            ]));
        }
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(evs)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The global enable flag and collector are process-wide, so the
    /// tests in this module serialise on one mutex.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: Mutex<()> = Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = lock();
        disable();
        reset();
        {
            let _s = span(Stage::Step);
            gauge(GaugeKind::SinkDepth, 42);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn spans_and_gauges_round_trip_through_drain() {
        let _g = lock();
        reset();
        enable();
        set_lane("test-lane");
        {
            let s = span(Stage::Step);
            std::thread::sleep(Duration::from_micros(200));
            s.done();
        }
        gauge(GaugeKind::ReadyQueueDepth, 7);
        let report = drain();
        disable();
        assert_eq!(report.lanes.len(), 1);
        assert_eq!(report.lanes[0].1, "test-lane");
        let stats = stage_stats(&report.recs);
        assert_eq!(stats[Stage::Step as usize].count, 1);
        assert!(stats[Stage::Step as usize].total_ns >= 100_000);
        let gs = gauge_stats(&report.recs);
        assert_eq!(gs[GaugeKind::ReadyQueueDepth as usize].count, 1);
        assert_eq!(gs[GaugeKind::ReadyQueueDepth as usize].sum, 7);
        let cov = coverage(&report);
        assert!(cov.attributed_ns > 0 && cov.wall_ns >= cov.attributed_ns);
        assert!(cov.pct() > 0.0);
        // Drained means gone.
        assert!(drain().is_empty());
    }

    #[test]
    fn worker_threads_flush_on_exit() {
        let _g = lock();
        reset();
        enable();
        // Plain spawn + join: pthread_join waits for TLS destructors, so
        // the Drop-based flush is deterministic here. (Scoped threads
        // signal completion *before* TLS destructors run — engine code
        // that harvests after a scope must call `flush_local()` at the
        // end of each closure instead of relying on Drop.)
        let handles: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    set_lane(&format!("w{i}"));
                    for _ in 0..10 {
                        let _s = span(Stage::RecvWait);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = drain();
        disable();
        assert_eq!(report.lanes.len(), 3);
        assert_eq!(
            stage_stats(&report.recs)[Stage::RecvWait as usize].count,
            30
        );
        // Distinct lanes for distinct threads.
        let mut ids: Vec<u32> = report.lanes.iter().map(|(l, _)| *l).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn reset_discards_stale_buffers() {
        let _g = lock();
        reset();
        enable();
        {
            let _s = span(Stage::Step);
        }
        reset(); // invalidates the un-flushed record above
        {
            let _s = span(Stage::Route);
        }
        let report = drain();
        disable();
        let stats = stage_stats(&report.recs);
        assert_eq!(stats[Stage::Step as usize].count, 0);
        assert_eq!(stats[Stage::Route as usize].count, 1);
    }

    #[test]
    fn gauge_sampling_decimates_per_thread() {
        let _g = lock();
        reset();
        enable();
        for _ in 0..100 {
            gauge_sampled(GaugeKind::SinkDepth, 5, 10);
        }
        let report = drain();
        disable();
        assert_eq!(
            gauge_stats(&report.recs)[GaugeKind::SinkDepth as usize].count,
            10
        );
    }

    #[test]
    fn merge_orders_records_across_processes() {
        let mk = |lane: u32, t: u64| Rec {
            kind: REC_SPAN,
            id: Stage::Step as u8,
            lane,
            t_ns: t,
            v: 1,
        };
        // Deliberately out of order within and across processes.
        let coord = Report {
            lanes: vec![(0, "coord".into())],
            recs: vec![mk(0, 30), mk(0, 10)],
        };
        let node = Report {
            lanes: vec![(0, "nworker".into())],
            recs: vec![mk(0, 20), mk(0, 10)],
        };
        let m = merge(vec![
            (1, "node1".into(), node),
            (0, "coordinator".into(), coord),
        ]);
        let ts: Vec<u64> = m.recs.iter().map(|(_, r)| r.t_ns).collect();
        assert_eq!(ts, vec![10, 10, 20, 30], "time-sorted");
        // Equal timestamps break ties by pid — deterministic assembly
        // regardless of which socket's frames landed first.
        assert_eq!(m.recs[0].0, 0);
        assert_eq!(m.recs[1].0, 1);
        assert_eq!(m.lanes.len(), 2);
        assert_eq!(m.procs.len(), 2);
    }

    #[test]
    fn coverage_merged_keys_lanes_by_process() {
        let mk = |lane: u32, t: u64, v: u64| Rec {
            kind: REC_SPAN,
            id: Stage::Step as u8,
            lane,
            t_ns: t,
            v,
        };
        // Both processes use lane 0; the windows must not be conflated.
        let a = Report {
            lanes: vec![(0, "w".into())],
            recs: vec![mk(0, 0, 40), mk(0, 60, 40)],
        };
        let b = Report {
            lanes: vec![(0, "w".into())],
            recs: vec![mk(0, 1_000, 50)],
        };
        let m = merge(vec![(0, "a".into(), a), (1, "b".into(), b)]);
        let cov = coverage_merged(&m);
        // Process a: window [0, 100], 80 attributed. Process b: window
        // [1000, 1050], 50 attributed. A flattened (single-lane) view
        // would report a 1050 ns window instead of 150.
        assert_eq!(cov.wall_ns, 150);
        assert_eq!(cov.attributed_ns, 130);
        // Profiler self-time depends on whether another test already
        // calibrated (the cost is a process-global static), so only
        // bound the pct from both sides instead of pinning it.
        let base = 100.0 * 130.0 / 150.0;
        assert!(cov.pct() >= base - 0.01 && cov.pct() <= 100.0);
    }

    #[test]
    fn chrome_merged_is_loadable_json_with_per_process_lanes() {
        let report = Report {
            lanes: vec![(3, "worker:p0".into())],
            recs: vec![
                Rec {
                    kind: REC_SPAN,
                    id: Stage::Step as u8,
                    lane: 3,
                    t_ns: 2_000,
                    v: 500,
                },
                Rec {
                    kind: REC_GAUGE,
                    id: GaugeKind::SinkDepth as u8,
                    lane: 3,
                    t_ns: 2_100,
                    v: 9,
                },
            ],
        };
        let m = merge(vec![
            (0, "coordinator".into(), report.clone()),
            (1, "node1".into(), report),
        ]);
        let doc = chrome_merged(&m);
        let v = Json::parse(&doc).unwrap();
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 process_name + 2 thread_name + 2 spans + 2 counters.
        assert_eq!(evs.len(), 8);
        let pids: Vec<f64> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| e.get("pid").unwrap().as_num().unwrap())
            .collect();
        assert_eq!(pids, vec![0.0, 1.0], "one span lane per OS process");
        // Earliest record is the timeline origin.
        let x0 = evs
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap();
        assert_eq!(x0.get("ts").unwrap().as_num(), Some(0.0));
    }

    #[test]
    fn stage_and_gauge_discriminants_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_u8(s as u8), Some(s));
            assert!(!s.name().is_empty());
        }
        for g in GaugeKind::ALL {
            assert_eq!(GaugeKind::from_u8(g as u8), Some(g));
            assert!(!g.name().is_empty());
        }
        assert_eq!(Stage::from_u8(200), None);
        assert_eq!(GaugeKind::from_u8(200), None);
    }
}
