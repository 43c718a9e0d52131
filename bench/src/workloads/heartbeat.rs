//! `heartbeat-threaded` and `heartbeat-tcp`: Kumar & Welch's
//! bounded-message ◇P heartbeat, n = 3, crash-free — the one
//! message-bearing system that runs on every engine — first on the
//! threaded runtime's steady commit path, then across real processes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use afd_algorithms::bounded_evp_system;
use afd_core::afds::EvPerfect;
use afd_core::Pi;
use afd_net::{run_distributed, DeploymentSpec, NetConfig, NetReport, Transport};
use afd_obs::{Json, Metrics, MetricsObserver};
use afd_runtime::{check_fd_trace, run_threaded, RuntimeConfig, StopReason};

use super::{repeat_for, Ctx, Outcome, SystemKind, SETUP_REPEATS};
use crate::hygiene;
use crate::trace::Tracer;

/// Events per threaded repetition: ~0.5 s, so the ~10 ms start/stop
/// floor of `run_threaded` is 2% of what is timed.
pub const THREADED_EVENTS: usize = 400_000;
/// Events per deployment: the `NetConfig` default, and the budget at
/// which ◇P conformance held in every sizing run.
pub const NET_EVENTS: usize = 4_000;
/// Wall cap of one deployment repetition.
const NET_REP_TIMEOUT: Duration = Duration::from_secs(20);

/// One checked threaded run of `events` events on `workers` workers
/// (`None` = the runtime's default). Returns the timed wall, the
/// schedule and the failed checks.
pub fn threaded_rep(
    tracer: &mut Tracer,
    seed: u64,
    events: usize,
    workers: Option<usize>,
    observe: bool,
) -> (Duration, Vec<afd_core::Action>, Vec<String>) {
    let pi = Pi::new(3);
    let sys = tracer.call("system", "bounded_evp_system", || {
        bounded_evp_system(pi, vec![])
    });
    let metrics = Arc::new(Metrics::new());
    let mut cfg = RuntimeConfig::default()
        .with_max_events(events)
        .with_fd_pacing(Duration::ZERO)
        .with_wall_timeout(Duration::from_secs(60))
        .with_seed(seed);
    if let Some(w) = workers {
        cfg = cfg.with_workers(w);
    }
    if observe {
        cfg = cfg.with_observer(Arc::new(MetricsObserver::new(metrics.clone())));
    }
    let t = Instant::now();
    let out = tracer.call("runtime", "run_threaded", || run_threaded(&sys, &cfg));
    let verdict = tracer.call("runtime", "check_fd_trace", || {
        check_fd_trace(&EvPerfect, pi, &out.schedule)
    });
    let dt = t.elapsed();
    let mut failures = Vec::new();
    if out.events() != events || out.stop != StopReason::MaxEvents {
        failures.push(format!(
            "{} of {events} events, stop {:?}",
            out.events(),
            out.stop
        ));
    }
    if let Err(v) = verdict {
        failures.push(format!("not in T_◇P: {v}"));
    }
    let seen = metrics.counter("events.total").get();
    if observe && seen != out.events() as u64 {
        failures.push(format!("observer saw {seen} of {} commits", out.events()));
    }
    (dt, out.schedule, failures)
}

/// Run `heartbeat-threaded`.
pub fn run_threaded_workload(ctx: &mut Ctx<'_>) -> Outcome {
    let mut o = Outcome::default();
    let seed = ctx.derive(1);
    let tracing = ctx.tracer.set_enabled(false);
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (_, _, failures) = threaded_rep(ctx.tracer, seed, THREADED_EVENTS / 10, Some(1), true);
        o.e2e.setup_s.push(t.elapsed().as_secs_f64());
        for f in failures {
            o.failures.push(format!("warm-up: {f}"));
        }
    }
    ctx.tracer.set_enabled(tracing);
    let mut walls_ms = Vec::new();
    let starts = repeat_for(ctx.budget(), 3, |k| {
        ctx.tracer.set_rep(k);
        o.recorded = None; // free the previous schedule before the next is built
        let span = ctx.tracer.enter("bench", "rep");
        let (dt, schedule, failures) =
            threaded_rep(ctx.tracer, seed, THREADED_EVENTS, Some(1), true);
        ctx.tracer.exit(span);
        let events = THREADED_EVENTS as u64;
        o.attempted += events;
        o.timed_ns += dt.as_nanos() as u64;
        o.timed_units += schedule.len() as u64;
        o.e2e
            .events_per_s
            .push(schedule.len() as f64 / dt.as_secs_f64());
        walls_ms.push(dt.as_secs_f64() * 1e3);
        if !failures.is_empty() {
            o.fail(events, format!("rep {k}: {}", failures.join("; ")));
        }
        o.recorded = Some((SystemKind::BoundedEvp3, schedule));
    });
    o.e2e.of_reps(&walls_ms, &starts);
    o.note("reps", Json::Num(walls_ms.len() as f64));
    o.note("workers", Json::Num(1.0));
    o.note("transport", Json::Str("in-memory channels".into()));
    o
}

/// Samples taken from deployments (one entry per repetition).
#[derive(Debug, Default, Clone)]
pub struct DeploySamples {
    /// `run_distributed` wall − `NetReport.elapsed`, ms: spawn,
    /// handshake and teardown.
    pub deploy_ms: Vec<f64>,
    /// Σ `NodeSummary.commits` ÷ `NetReport.elapsed`, per second.
    pub node_commits_per_s: Vec<f64>,
    /// Σ `NodeSummary.commits` ÷ events.
    pub node_commit_share: Vec<f64>,
    /// Events ÷ `NetReport.elapsed`.
    pub events_per_s: Vec<f64>,
    /// Datagram delivery rate (UDP only).
    pub delivery_rate: Vec<f64>,
    /// Repetitions attempted.
    pub reps: u32,
    /// Repetitions whose stop reason, count or safety verdict was wrong.
    pub failed_reps: u32,
    /// Repetitions that were cut while a suspicion of a live process
    /// was still open (see [`deploy_rep`]).
    pub cut_mistakes: u32,
}

/// A successful deployment.
pub struct Deployed {
    /// The coordinator's report.
    pub report: NetReport,
    /// Wall of the whole `run_distributed` call.
    pub wall: Duration,
    /// The run was cut while some live process still suspected a live
    /// peer, so the online ◇P check's *eventual* clause fails at the
    /// cut.
    pub cut_mistake: bool,
}

/// The rule name of a `T_◇P` "eventually forever" clause judged at the
/// end of a finite schedule.
const EVENTUALLY: &str = "eventually.violated";

/// One checked deployment of the heartbeat system, or the failed
/// checks.
///
/// Across real processes on a shared host a node can lose the CPU for
/// longer than its peers' adaptive timeouts, and ◇P allows the
/// resulting suspicion: it must only be retracted eventually. When the
/// 4 000-event cut lands inside such a mistake the online check
/// reports `eventually.violated` — measured here on 1–3% of TCP
/// deployments (and on 18% through `afd-coord`), against 0 of ~300
/// threaded `W=1` runs. Like `Rsm::run_slot_distributed`, which
/// excuses Ω's liveness clause on the slot that saw a kill, the
/// benchmark counts such a deployment as a detector *mistake* (a QoS
/// figure, reported as `net.cut_mistake_share`) and not as a failed
/// operation. Every safety clause, the stop reason, the event count
/// and the process check still fail the repetition.
pub fn deploy_rep(
    tracer: &mut Tracer,
    node_exe: &str,
    seed: u64,
    transport: Transport,
) -> Result<Deployed, Vec<String>> {
    let spec = DeploymentSpec::BoundedEvP { n: 3 };
    let cfg = NetConfig::new(vec![node_exe.to_string()], 3)
        .with_transport(transport)
        .with_max_events(NET_EVENTS)
        .with_seed(seed)
        .with_deadlines(Duration::from_secs(5), NET_REP_TIMEOUT);
    let t = Instant::now();
    let result = tracer.call("net", "run_distributed", || run_distributed(&spec, &cfg));
    let wall = t.elapsed();
    let mut failures = hygiene::reap_stragglers();
    match result {
        Err(e) => failures.push(format!("run_distributed: {e}")),
        Ok(report) => {
            if report.events != NET_EVENTS || report.stop != Some(StopReason::MaxEvents) {
                failures.push(format!(
                    "{} of {NET_EVENTS} events, stop {:?}",
                    report.events, report.stop
                ));
            }
            let mut cut_mistake = false;
            for c in &report.checks {
                match &c.verdict {
                    Err(e) if e.starts_with(EVENTUALLY) => cut_mistake = true,
                    Err(e) => failures.push(format!("check {}: {e}", c.name)),
                    Ok(()) => {}
                }
            }
            if failures.is_empty() {
                return Ok(Deployed {
                    report,
                    wall,
                    cut_mistake,
                });
            }
        }
    }
    Err(failures)
}

/// Fold one successful deployment into `s`.
fn sample(s: &mut DeploySamples, d: &Deployed) {
    let (report, wall) = (&d.report, d.wall);
    s.cut_mistakes += u32::from(d.cut_mistake);
    let secs = report.elapsed.as_secs_f64().max(1e-9);
    let commits: u64 = report.nodes.iter().map(|n| n.commits).sum();
    s.deploy_ms.push((wall.as_secs_f64() - secs).max(0.0) * 1e3);
    s.node_commits_per_s.push(commits as f64 / secs);
    s.node_commit_share
        .push(commits as f64 / report.events.max(1) as f64);
    s.events_per_s.push(report.events as f64 / secs);
    if let Some(rate) = report.dgram.as_ref().and_then(|d| d.delivery_rate()) {
        s.delivery_rate.push(rate);
    }
}

/// `reps` deployments on `transport`, failures counted, never dropped.
pub fn deploy_probe(
    tracer: &mut Tracer,
    node_exe: &str,
    seed: u64,
    transport: Transport,
    reps: u32,
) -> DeploySamples {
    let mut s = DeploySamples::default();
    for _ in 0..reps {
        s.reps += 1;
        match deploy_rep(tracer, node_exe, seed, transport) {
            Ok(d) => sample(&mut s, &d),
            Err(_) => s.failed_reps += 1,
        }
    }
    s
}

/// Run `heartbeat-tcp`.
pub fn run_tcp_workload(ctx: &mut Ctx<'_>) -> Outcome {
    let mut o = Outcome::default();
    let seed = ctx.derive(1);
    let exe = ctx.node_exe.clone();
    let tracing = ctx.tracer.set_enabled(false);
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        if let Err(failures) = deploy_rep(ctx.tracer, &exe, seed, Transport::Tcp) {
            o.failures.push(format!("warm-up: {}", failures.join("; ")));
        }
        o.e2e.setup_s.push(t.elapsed().as_secs_f64());
    }
    ctx.tracer.set_enabled(tracing);
    let mut samples = DeploySamples::default();
    let mut walls_ms = Vec::new();
    let starts = repeat_for(ctx.budget(), 3, |k| {
        ctx.tracer.set_rep(k);
        o.recorded = None; // free the previous schedule before the next is built
        let span = ctx.tracer.enter("bench", "rep");
        let result = deploy_rep(ctx.tracer, &exe, seed, Transport::Tcp);
        ctx.tracer.exit(span);
        let events = NET_EVENTS as u64;
        o.attempted += events;
        samples.reps += 1;
        match result {
            Ok(d) => {
                sample(&mut samples, &d);
                let report = d.report;
                o.timed_ns += report.elapsed.as_nanos() as u64;
                o.timed_units += report.events as u64;
                o.e2e
                    .events_per_s
                    .push(report.events as f64 / report.elapsed.as_secs_f64().max(1e-9));
                walls_ms.push(d.wall.as_secs_f64() * 1e3);
                o.recorded = Some((SystemKind::BoundedEvp3, report.schedule));
            }
            Err(failures) => {
                samples.failed_reps += 1;
                o.fail(events, format!("rep {k}: {}", failures.join("; ")));
            }
        }
    });
    o.e2e.of_reps(&walls_ms, &starts);
    o.note("reps", Json::Num(f64::from(samples.reps)));
    o.note("cut_mistakes", Json::Num(f64::from(samples.cut_mistakes)));
    o.deploy = Some(samples);
    o.note("workers", Json::Str("runtime default, per node".into()));
    o.note(
        "transport",
        Json::Str("tcp (loopback, 3 node processes)".into()),
    );
    o
}
