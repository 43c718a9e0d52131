//! `kv-threaded` and `kv-tcp-kill`: the replicated KV service
//! (`afd-rsm`, n = 3) under `afd-load`'s open-loop generator.
//!
//! Phase A offers a fixed rate in one-second open-loop segments and
//! times every operation from its *due* arrival, so a stall is charged
//! to every operation that arrived during it. Phase B pre-loads a
//! backlog at t = 0 and times how long it takes to drain.
//!
//! Why segments: `Rsm` seals whatever is open into batches at the
//! start of every slot and decides one batch per slot, and sealed
//! batches never merge. A stall long enough for more than `batch_ops`
//! writes to arrive (27 ms at 100k ops/s) therefore leaves extra
//! batches queued *for as long as load keeps arriving*: one such stall
//! in the first second moved p50 from 14 ms to 78 ms for the remaining
//! nine seconds of a sizing run. Each segment runs until its last op
//! has completed, so the queue is empty again when the next begins and
//! one neighbour's burst costs one window, not the run.
//!
//! The service uses the engines differently from the heartbeat
//! workloads: one short `run_threaded` call (or one whole TCP
//! deployment) per log slot, so start/stop cost dominates and steady
//! commit cost is invisible.

use std::time::{Duration, Instant};

use afd_core::Pi;
use afd_load::{LoadConfig, OpenLoopGen, Request};
use afd_obs::Json;
use afd_rsm::{Command, NetSlotConfig, Rsm, RsmConfig};

use super::{Ctx, Outcome, SETUP_REPEATS};
use crate::hygiene;
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;

/// Which engine decides the slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `Rsm::run_slot_threaded`.
    Threaded,
    /// `Rsm::run_slot_distributed`: one TCP deployment per slot.
    Tcp,
}

/// Sizes of one run; all scale with the measuring time so a run at any
/// `--seconds` keeps the same rates and proportions.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// The engine.
    pub engine: Engine,
    /// Offered rate in phase A, ops/s.
    pub rate: u64,
    /// Open-loop segments in phase A.
    pub segments: u64,
    /// Ops offered per segment (about one second's worth).
    pub segment_ops: u64,
    /// Back-to-back drains in phase B.
    pub drains: u64,
    /// Ops pre-loaded per drain.
    pub drain_ops: u64,
    /// An op later than this (or never completed) is late, ms.
    pub latency_limit_ms: f64,
    /// SIGKILL the leader once a third of phase A has been applied.
    pub kill: bool,
}

impl Params {
    /// The sizes of `engine`'s workload for a run of `seconds`.
    #[must_use]
    pub fn for_run(engine: Engine, seconds: f64) -> Params {
        // Phase A lasts `share` of the run, cut into segments of at
        // most one second.
        let segmented = |rate: u64, share: f64| {
            let secs = seconds * share;
            let segments = secs.ceil().max(1.0);
            (segments as u64, (rate as f64 * secs / segments) as u64)
        };
        let drains = ((4.0 * seconds / 15.0).round() as u64).max(1);
        match engine {
            // 15 s → ten 1 s segments at 100k ops/s, then four 100k-op drains
            // (~0.4 s each). A drain's ~75k writes fill 37.5 batches,
            // so every drain takes 38 slots whatever the seed draws.
            Engine::Threaded => {
                let (segments, segment_ops) = segmented(100_000, 2.0 / 3.0);
                Params {
                    engine,
                    rate: 100_000,
                    segments,
                    segment_ops,
                    drains,
                    drain_ops: 100_000,
                    latency_limit_ms: 50.0,
                    kill: false,
                }
            }
            // 15 s → eleven 1 s segments at 16k ops/s (~330 deployments), then four
            // 15k-op drains on the two survivors (~0.2 s each; ~11 250
            // writes fill 5.6 batches, so always 6 slots).
            Engine::Tcp => {
                let (segments, segment_ops) = segmented(16_000, 11.0 / 15.0);
                Params {
                    engine,
                    rate: 16_000,
                    segments,
                    segment_ops,
                    drains,
                    drain_ops: 15_000,
                    latency_limit_ms: 150.0,
                    kill: true,
                }
            }
        }
    }
}

/// Ops sealed into one batch (one slot decides one batch).
const BATCH_OPS: usize = 2_000;
/// Keys are drawn from `0..KEY_SPACE`.
const KEY_SPACE: u64 = 1_024;
/// How many of phase A's commands are kept for the layer ladder.
const KEEP_OPS: usize = 100_000;
/// Event index at which an armed kill fires inside a slot.
const KILL_AT: usize = 25;
/// Consecutive failed slots after which a phase gives up (its
/// remaining ops are counted as never completed).
const MAX_SLOT_FAILURES: u32 = 5;

/// Everything a kv run measures besides the end-to-end samples.
#[derive(Debug, Default, Clone)]
pub struct KvSamples {
    /// Wall of every slot attempt, ms.
    pub slot_ms: Vec<f64>,
    /// Slot attempts.
    pub slots: u64,
    /// Slot attempts that decided nothing.
    pub slots_wasted: u64,
    /// Ops the decided slots carried.
    pub slot_ops: u64,
    /// Per op, how long after its due arrival `poll` handed it over, ms.
    pub late_ms: Vec<f64>,
    /// Peak virtual-client count.
    pub clients_peak: u64,
    /// Ops over the latency limit or never completed.
    pub late_ops: u64,
    /// Ops offered.
    pub offered: u64,
    /// Longest gap between two slot completions in phase A, ms — with
    /// a kill armed, the time the service stood still around it.
    pub max_gap_ms: f64,
    /// The first commands offered in phase A, in arrival order.
    pub ops: Vec<Command>,
}

/// One phase's totals.
struct Phase {
    wall: Duration,
    completed: u64,
    offered: u64,
    /// Latency of every completed op, ms.
    latency: Vec<f64>,
}

/// Drives one `Rsm` through the phases.
struct Driver<'a> {
    rsm: Rsm,
    net: NetSlotConfig,
    engine: Engine,
    /// Arm the kill once this many ops have been applied.
    kill_after_ops: Option<u64>,
    samples: KvSamples,
    /// Schedule events ÷ wall of each decided slot.
    slot_events_per_s: Vec<f64>,
    tracer: &'a mut Tracer,
}

impl Driver<'_> {
    /// Offer `total` ops at `rate` (or all at t = 0 when `rate` is
    /// `None`) and run slots until every one has completed.
    fn phase(
        &mut self,
        rate: Option<u64>,
        total: u64,
        seed: u64,
        first_id: u64,
        keep_ops: bool,
    ) -> Phase {
        // A rate of 10^18/s puts every arrival at t = 0.
        let cfg = LoadConfig::new(rate.unwrap_or(1_000_000_000_000_000_000), total)
            .with_key_space(KEY_SPACE)
            .with_seed(seed);
        let mut gen = OpenLoopGen::new(cfg);
        let mut arrival_ns: Vec<u64> = Vec::with_capacity(total as usize);
        let mut done_ns: Vec<u64> = vec![u64::MAX; total as usize];
        let mut p = Phase {
            wall: Duration::ZERO,
            completed: 0,
            offered: total,
            latency: Vec::with_capacity(total as usize),
        };
        let mut failures_in_a_row = 0u32;
        let mut last_slot_end: Option<Instant> = None;
        let start = Instant::now();
        loop {
            let now = start.elapsed().as_nanos() as u64;
            let span = self.tracer.enter("load", "poll");
            let polled: Vec<Request> = gen.poll(now);
            self.tracer.exit_counted(span, polled.len() as u64);
            let (mut reads, mut writes) = (0u64, 0u64);
            let read_span = self.tracer.enter("rsm", "read+submit");
            for r in &polled {
                arrival_ns.push(r.arrival_ns);
                if rate.is_some() {
                    self.samples.late_ms.push((now - r.arrival_ns) as f64 / 1e6);
                }
                if keep_ops && self.samples.ops.len() < KEEP_OPS {
                    self.samples.ops.push(r.cmd);
                }
                if let Command::Get { key } = r.cmd {
                    std::hint::black_box(self.rsm.read(key));
                    reads += 1;
                } else {
                    self.rsm.submit(first_id + r.id, r.cmd);
                    writes += 1;
                }
            }
            self.tracer.exit_counted(read_span, reads + writes);
            if reads > 0 {
                // Reads are served from the applied prefix as soon as
                // the loop sees them.
                let served = start.elapsed().as_nanos() as u64;
                for r in polled
                    .iter()
                    .filter(|r| matches!(r.cmd, Command::Get { .. }))
                {
                    done_ns[r.id as usize] = served;
                }
            }
            gen.note_backpressure(self.rsm.backlog_ops() as u64);
            if self.rsm.backlog_ops() == 0 {
                if gen.is_done() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            // Keep arming the kill until a slot actually witnesses it.
            let armed = self
                .kill_after_ops
                .is_some_and(|n| self.rsm.ops_applied() >= n && self.rsm.crashed().is_empty());
            let kill_at = armed.then_some(KILL_AT);
            let t = Instant::now();
            let span = self.tracer.enter("rsm", "run_slot");
            let outcome = match self.engine {
                Engine::Threaded => self.rsm.run_slot_threaded(kill_at),
                Engine::Tcp => self.rsm.run_slot_distributed(&self.net, kill_at),
            };
            self.tracer.exit(span);
            let slot = t.elapsed();
            let end = Instant::now();
            if let Some(prev) = last_slot_end.replace(end) {
                if rate.is_some() {
                    let gap = end.duration_since(prev).as_secs_f64() * 1e3;
                    self.samples.max_gap_ms = self.samples.max_gap_ms.max(gap);
                }
            }
            self.samples.slots += 1;
            self.samples.slot_ms.push(slot.as_secs_f64() * 1e3);
            let stragglers = match self.engine {
                Engine::Threaded => Vec::new(),
                Engine::Tcp => hygiene::reap_stragglers(),
            };
            match outcome {
                Some(out) if stragglers.is_empty() => {
                    failures_in_a_row = 0;
                    let done = start.elapsed().as_nanos() as u64;
                    // An id below `first_id` is a straggler from a phase
                    // that gave up; it was already counted there.
                    for id in out
                        .ops
                        .iter()
                        .filter_map(|(id, _)| id.checked_sub(first_id))
                    {
                        done_ns[id as usize] = done;
                    }
                    self.slot_events_per_s
                        .push(out.events as f64 / slot.as_secs_f64().max(1e-9));
                    self.samples.slot_ops += out.ops.len() as u64;
                }
                _ => {
                    self.samples.slots_wasted += 1;
                    failures_in_a_row += 1;
                    if failures_in_a_row >= MAX_SLOT_FAILURES {
                        break;
                    }
                }
            }
        }
        p.wall = start.elapsed();
        self.samples.clients_peak = self.samples.clients_peak.max(gen.clients());
        for (id, &arrived) in arrival_ns.iter().enumerate() {
            if done_ns[id] != u64::MAX {
                p.completed += 1;
                p.latency
                    .push(done_ns[id].saturating_sub(arrived) as f64 / 1e6);
            }
        }
        p
    }
}

/// Build the service for one run.
fn build(seed: u64, node_exe: &str) -> (Rsm, NetSlotConfig) {
    let cfg = RsmConfig::new(Pi::new(3))
        .with_batch_ops(BATCH_OPS)
        .with_seed(seed);
    let rsm = Rsm::new(cfg).expect("n = 3 fits the runtime's capacity");
    let net = NetSlotConfig {
        node_command: vec![node_exe.to_string()],
        max_events: 6_000,
        stall: Duration::from_secs(5),
        wall: Duration::from_secs(20),
    };
    (rsm, net)
}

/// The full safety verdict of a finished service.
fn verdict(rsm: &Rsm, expect_killed: usize) -> Vec<String> {
    let mut failures = Vec::new();
    if !rsm.failures().is_empty() {
        failures.push(format!("driver failures: {:?}", rsm.failures()));
    }
    if let Err(v) = rsm.conformance() {
        failures.push(format!("apply-order conformance violated: {v}"));
    }
    if let Err(e) = rsm.check_agreement() {
        failures.push(format!("applied prefixes diverge: {e}"));
    }
    if rsm.crashed().len() != expect_killed {
        failures.push(format!(
            "expected {expect_killed} killed replica(s), saw {}",
            rsm.crashed().len()
        ));
    }
    failures
}

/// Run both phases of `p` and fold them into an `Outcome`.
pub fn run_params(tracer: &mut Tracer, node_exe: &str, seed: u64, p: Params) -> Outcome {
    let mut o = Outcome::default();
    let (rsm, net) = build(seed, node_exe);
    let mut d = Driver {
        rsm,
        net,
        engine: p.engine,
        kill_after_ops: p.kill.then_some(p.segments * p.segment_ops / 3),
        samples: KvSamples::default(),
        slot_events_per_s: Vec::new(),
        tracer,
    };
    // Phase A: open-loop segments, each run until its last op has
    // completed, so a stall's backlog ends with its segment (see the
    // module docs). A segment is also the window its percentiles are
    // taken over.
    let mut a = Phase {
        wall: Duration::ZERO,
        completed: 0,
        offered: 0,
        latency: Vec::new(),
    };
    for k in 0..p.segments {
        d.tracer.set_rep(k as u32);
        let span = d.tracer.enter("bench", "segment");
        let seg = d.phase(
            Some(p.rate),
            p.segment_ops,
            seed ^ (0xA0 + k),
            a.offered,
            k == 0,
        );
        d.tracer.exit(span);
        let w = sorted(&seg.latency);
        if !w.is_empty() {
            o.e2e.op_latency_ms_p50.push(percentile(&w, 50.0));
            o.e2e.op_latency_ms_p99.push(percentile(&w, 99.0));
        }
        a.wall += seg.wall;
        a.completed += seg.completed;
        a.offered += seg.offered;
        a.latency.extend(seg.latency);
    }
    o.e2e.op_latency_samples = a.latency.len() as u64;

    // Phase B: back-to-back drains of a pre-loaded backlog.
    let (mut offered, mut completed, mut wall) = (a.offered, a.completed, a.wall);
    for k in 0..p.drains {
        d.tracer.set_rep((p.segments + k) as u32);
        let span = d.tracer.enter("bench", "drain");
        let b = d.phase(None, p.drain_ops, seed ^ (0xB0 + k), offered, false);
        d.tracer.exit(span);
        o.e2e
            .drain_ops_per_s
            .push(b.completed as f64 / b.wall.as_secs_f64().max(1e-9));
        offered += b.offered;
        completed += b.completed;
        wall += b.wall;
    }
    o.e2e.events_per_s = std::mem::take(&mut d.slot_events_per_s);

    o.attempted = offered;
    let lat = sorted(&a.latency);
    let over_limit = lat.iter().filter(|&&ms| ms > p.latency_limit_ms).count() as u64;
    let mut s = std::mem::take(&mut d.samples);
    s.offered = offered;
    s.late_ops = over_limit + (a.offered - a.completed);
    if completed != offered {
        o.fail(
            offered - completed,
            format!("completed {completed} of {offered} client ops"),
        );
    }
    let failures = verdict(&d.rsm, usize::from(p.kill));
    if !failures.is_empty() {
        // A safety violation taints every op the service acknowledged.
        o.failed = offered;
        o.failures.extend(failures);
    }
    o.timed_ns = wall.as_nanos() as u64;
    o.timed_units = completed;
    o.note("slots", Json::Num(s.slots as f64));
    o.note("phase_a_ops", Json::Num(a.offered as f64));
    o.note("phase_a_rate_ops_per_s", Json::Num(p.rate as f64));
    o.note("drains", Json::Num(p.drains as f64));
    o.note("drain_ops", Json::Num(p.drain_ops as f64));
    o.note("latency_limit_ms", Json::Num(p.latency_limit_ms));
    o.note(
        "late_share",
        Json::Num(s.late_ops as f64 / a.offered.max(1) as f64),
    );
    if !lat.is_empty() {
        // The whole phase as one sample set, beside the windowed figures.
        o.note("phase_a_latency_ms_p50", Json::Num(percentile(&lat, 50.0)));
        o.note("phase_a_latency_ms_p99", Json::Num(percentile(&lat, 99.0)));
        o.note("phase_a_latency_ms_max", Json::Num(percentile(&lat, 100.0)));
    }
    let slot_ms = sorted(&s.slot_ms);
    if !slot_ms.is_empty() {
        o.note("slot_ms_p50", Json::Num(percentile(&slot_ms, 50.0)));
        o.note("slot_ms_p99", Json::Num(percentile(&slot_ms, 99.0)));
    }
    let poll_late = sorted(&s.late_ms);
    if !poll_late.is_empty() {
        o.note("poll_late_ms_p99", Json::Num(percentile(&poll_late, 99.0)));
    }
    o.note(
        "workers",
        Json::Str("runtime default, fresh pool per slot".into()),
    );
    o.note(
        "transport",
        Json::Str(
            match p.engine {
                Engine::Threaded => "in-memory channels",
                Engine::Tcp => "tcp (loopback, 3 node processes per slot)",
            }
            .into(),
        ),
    );
    o.kv = Some(s);
    o
}

/// Run the workload.
pub fn run(ctx: &mut Ctx<'_>, engine: Engine) -> Outcome {
    let seed = ctx.derive(1);
    let exe = ctx.node_exe.clone();
    // Set-up: build the service and the generator and push a short
    // warm-up load through a scratch instance (first spawn, first
    // pool, allocator), three times over.
    let mut setup_s = Vec::new();
    let mut warm_failures = Vec::new();
    let warm_seconds = match engine {
        Engine::Threaded => 0.3,
        Engine::Tcp => 0.45,
    };
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let mut warm = Params::for_run(engine, warm_seconds);
        warm.kill = false;
        let w = run_params(&mut Tracer::new(false), &exe, seed, warm);
        warm_failures.extend(w.failures);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut o = run_params(ctx.tracer, &exe, seed, Params::for_run(engine, ctx.seconds));
    o.e2e.setup_s = setup_s;
    o.failures
        .extend(warm_failures.into_iter().map(|f| format!("warm-up: {f}")));
    o
}
