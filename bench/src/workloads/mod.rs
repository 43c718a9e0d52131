//! The five workloads. Each takes a seed and a duration, generates its
//! own inputs from the seed, drives the program through its public
//! API, checks every output, and returns the samples the end-to-end
//! metrics are computed from. The program under test never sees the
//! seed's provenance or the workload's name.

pub mod heartbeat;
pub mod kv;
pub mod sim_suite;

use std::time::{Duration, Instant};

use afd_core::Action;
use afd_obs::Json;
use afd_runtime::rng::SplitMix64;

use crate::trace::Tracer;

/// What a workload run is given.
pub struct Ctx<'a> {
    /// The workload seed (`--seed`); all inputs derive from it.
    pub seed: u64,
    /// How long to measure, seconds.
    pub seconds: f64,
    /// Span recorder (disabled for end-to-end runs).
    pub tracer: &'a mut Tracer,
    /// This executable, respawned as the node command of distributed
    /// deployments.
    pub node_exe: String,
}

impl Ctx<'_> {
    /// The `k`-th independent input seed derived from `--seed`.
    #[must_use]
    pub fn derive(&self, k: u64) -> u64 {
        let mut r = SplitMix64::new(self.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64()
    }

    /// The measuring budget as a `Duration`.
    #[must_use]
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Samples behind the end-to-end metrics of one run.
#[derive(Debug, Default, Clone)]
pub struct E2e {
    /// Seconds per set-up (inputs built + one discarded warm-up); the
    /// set-up is repeated and the median reported.
    pub setup_s: Vec<f64>,
    /// Checked schedule events ÷ wall of the timed region, per
    /// repetition (event workloads) or per phase (kv workloads).
    pub events_per_s: Vec<f64>,
    /// Median operation latency of each window, ms (event workloads:
    /// the wall of each checked run).
    pub op_latency_ms_p50: Vec<f64>,
    /// Nearest-rank p99 operation latency of each window, ms (event
    /// workloads: the slower run of each consecutive pair).
    pub op_latency_ms_p99: Vec<f64>,
    /// Operations ÷ wall with no idle time between them, per drain.
    pub drain_ops_per_s: Vec<f64>,
    /// Latency samples behind the window percentiles.
    pub op_latency_samples: u64,
}

impl E2e {
    /// Latency and drain figures of an event workload, where one
    /// operation is one checked run: `walls_ms[k]` is the timed wall of
    /// repetition `k` and `starts[k]` when it began.
    ///
    /// A run of 15 s holds 20–150 repetitions — too few for a p99. What
    /// is reported in its place is the slower run of each consecutive
    /// pair, median over the pairs: on a shared host interference comes
    /// in bursts of consecutive repetitions, so a statistic per short
    /// window, then the median window, is far steadier than any
    /// quantile of the pooled walls (sizing runs: 13% against 31%
    /// run-to-run spread for the upper quartile). The drain rate is one
    /// over the median start-to-start interval, which also pays for
    /// building the system between runs.
    pub fn of_reps(&mut self, walls_ms: &[f64], starts: &[Instant]) {
        self.op_latency_ms_p50 = walls_ms.to_vec();
        self.op_latency_ms_p99 = walls_ms
            .chunks(2)
            .map(|pair| pair.iter().copied().fold(0.0, f64::max))
            .collect();
        self.op_latency_samples = walls_ms.len() as u64;
        self.drain_ops_per_s = starts
            .windows(2)
            .map(|p| 1.0 / p[1].duration_since(p[0]).as_secs_f64().max(1e-9))
            .collect();
    }
}

/// Which system produced a recorded schedule — enough for the layer
/// ladder to rebuild it and replay the schedule through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// `self_impl_system` Ω, n = 8, with this location crashing.
    SelfImplOmega8 {
        /// The scripted crash.
        victim: afd_core::Loc,
    },
    /// `bounded_evp_system`, n = 3, crash-free.
    BoundedEvp3,
}

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end samples.
    pub e2e: E2e,
    /// Events (event workloads) or client ops (kv workloads) attempted
    /// in the timed part.
    pub attempted: u64,
    /// Of those, how many belong to a repetition or slot whose checker
    /// verdict, stop reason or completion count was wrong.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Run facts worth recording beside the metrics (reps, workers,
    /// transport…).
    pub info: Vec<(&'static str, Json)>,
    /// Σ wall of the timed regions, ns — the end-to-end time the span
    /// self times are reconciled against.
    pub timed_ns: u64,
    /// Work units (events or ops) completed inside `timed_ns`.
    pub timed_units: u64,
    /// A schedule the run produced, for the layer ladder to replay.
    pub recorded: Option<(SystemKind, Vec<Action>)>,
    /// Samples only the kv workloads produce.
    pub kv: Option<kv::KvSamples>,
    /// Samples only deployments produce.
    pub deploy: Option<heartbeat::DeploySamples>,
}

impl Outcome {
    /// Record a failed check covering `units` attempted units.
    pub fn fail(&mut self, units: u64, what: String) {
        self.failed += units;
        self.failures.push(what);
    }

    /// Attach a run fact.
    pub fn note(&mut self, key: &'static str, v: Json) {
        self.info.push((key, v));
    }
}

/// Run the named workload.
#[must_use]
pub fn run(name: &str, ctx: &mut Ctx<'_>) -> Option<Outcome> {
    Some(match name {
        "sim-suite" => sim_suite::run(ctx),
        "heartbeat-threaded" => heartbeat::run_threaded_workload(ctx),
        "heartbeat-tcp" => heartbeat::run_tcp_workload(ctx),
        "kv-threaded" => kv::run(ctx, kv::Engine::Threaded),
        "kv-tcp-kill" => kv::run(ctx, kv::Engine::Tcp),
        _ => return None,
    })
}

/// How many times a workload's set-up is repeated for `setup_s`.
pub const SETUP_REPEATS: usize = 5;

/// Repeat `rep` until `budget` has elapsed, at least `min_reps` times.
/// Returns when each repetition started, plus the time the last one
/// ended.
pub fn repeat_for(budget: Duration, min_reps: usize, mut rep: impl FnMut(u32)) -> Vec<Instant> {
    let start = Instant::now();
    let mut starts = Vec::new();
    while starts.len() < min_reps || start.elapsed() < budget {
        starts.push(Instant::now());
        rep(starts.len() as u32 - 1);
    }
    starts.push(Instant::now());
    starts
}

/// Order-sensitive hash of a schedule (SipHash with fixed keys, so it
/// is the same in every process).
#[must_use]
pub fn schedule_hash(schedule: &[Action]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    schedule.hash(&mut h);
    h.finish()
}
