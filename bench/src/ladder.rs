//! The traced run and the per-layer cost ladder.
//!
//! A traced run repeats its workload at quarter length twice — once
//! with tracing off, once with a span around every call into a layer —
//! and then times each layer's public functions directly. Inputs are
//! the workload's own recordings where it produces that kind of input
//! (its schedule, its client commands, its slot and deployment
//! samples) and a small reference input generated from `--seed`
//! otherwise, so every traced run reports every per-layer metric.
//!
//! Every layer is measured from outside, by timing calls into its
//! public functions; spans inside the program are a later change.

use std::net::{TcpListener, TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

use afd_algorithms::consensus::{all_live_decided_stream, check_consensus_run, paxos_system};
use afd_algorithms::{
    bounded_evp_system, check_self_implementation, paxos_system_values, self_impl_system,
};
use afd_core::afds::{EvPerfect, Omega};
use afd_core::automata::FdGen;
use afd_core::problems::consensus::Consensus;
use afd_core::{Action, AfdSpec, Loc, Pi, Stamped, StreamChecker};
use afd_net::codec::{decode_msg, encode_action, encode_msg, read_frame, write_frame};
use afd_net::{run_distributed, DeploymentSpec, NetConfig, Transport, WireMsg};
use afd_obs::{Json, Metrics, MetricsObserver};
use afd_rsm::{Command, KvStore, Rsm, RsmConfig};
use afd_runtime::{
    check_fd_trace, fd_projection, run_threaded, Commit, EventSink, RuntimeConfig, StopReason,
};
use afd_system::{run_random, FaultPattern, RunStats, SimConfig, System};
use afd_tree::{find_hook, random_t_omega, HookSearchOptions, TaggedTree};
use ioa::{Automaton, TaskId};

use crate::hygiene;
use crate::report::{Metric, WorkloadReport};
use crate::spec::PER_LAYER;
use crate::stats::{median, percentile, sorted, Summary};
use crate::trace::Tracer;
use crate::workloads::heartbeat::{deploy_probe, threaded_rep, DeploySamples};
use crate::workloads::kv::{self, KvSamples};
use crate::workloads::{self, Ctx, Outcome, SystemKind};

/// A finished traced run.
pub struct Traced {
    /// The per-layer report.
    pub report: WorkloadReport,
    /// The spans as a `chrome://tracing` document.
    pub chrome_trace: Json,
}

/// Collects per-layer samples by name; a metric's value is their median.
struct Ladder {
    values: Vec<(&'static str, Vec<f64>)>,
    failures: Vec<String>,
    /// Shrinks probe sizes for short runs (1.0 at the full 15 s).
    scale: f64,
}

impl Ladder {
    fn put(&mut self, name: &'static str, v: f64) {
        self.put_samples(name, &[v]);
    }

    fn put_samples(&mut self, name: &'static str, samples: &[f64]) {
        self.values.push((name, samples.to_vec()));
    }

    /// `full` scaled to this run, at least `min`.
    fn sized(&self, full: usize, min: usize) -> usize {
        ((full as f64 * self.scale) as usize).max(min)
    }

    fn time(&self, full_ms: u64) -> Duration {
        Duration::from_secs_f64((full_ms as f64 * self.scale / 1e3).max(0.005))
    }
}

/// Call `f` (which performs and returns a number of work units) until
/// `min` has elapsed, at least three times; ns per unit of each call.
fn ns_per_unit(min: Duration, mut f: impl FnMut() -> u64) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 3 || start.elapsed() < min {
        let t = Instant::now();
        let units = f();
        out.push(t.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    out
}

/// What judges a schedule of each system kind.
#[derive(Clone, Copy)]
enum Judge {
    Omega,
    EvPerfect,
    Consensus,
}

/// The probes that consume a schedule: replay it through the
/// composition, re-simulate the same number of events, fold it through
/// the streaming and batch checkers, the statistics fold, the metrics
/// observer, the wire codec and the datagram framing.
fn schedule_probes<P>(
    l: &mut Ladder,
    sys: &System<P>,
    schedule: &[Action],
    faults: &FaultPattern,
    judge: Judge,
    seed: u64,
) where
    P: Automaton<Action = Action>,
{
    let pi = sys.pi;
    let m = &sys.composition;
    let budget = l.time(60);

    // ioa: find (untimed) the task that produced each event, then time
    // exactly what an engine does per event: `enabled` + `step`. A
    // deployment's merged schedule orders a node's output after inputs
    // the node had not applied yet when it produced it, so it need not
    // replay step by step; the probe then replays a simulated schedule
    // of the same system instead.
    let limit = l.sized(20_000, 500);
    let legal_prefix = |schedule: &[Action]| -> Vec<(Action, Option<TaskId>)> {
        let mut out = Vec::new();
        let mut state = m.initial_state();
        for a in schedule.iter().take(limit) {
            let task = (0..m.task_count())
                .map(TaskId)
                .find(|&t| m.enabled(&state, t) == Some(*a));
            match m.step(&state, a) {
                Some(next) => state = next,
                None => break,
            }
            out.push((*a, task));
        }
        out
    };
    let mut replay = legal_prefix(schedule);
    if replay.len() < limit.min(schedule.len()) {
        let cfg = SimConfig::default().with_max_steps(limit);
        replay = legal_prefix(run_random(sys, seed, cfg).schedule());
    }
    if replay.is_empty() {
        l.failures
            .push("ioa: not even a simulated schedule replays through its composition".into());
    } else {
        l.put_samples(
            "ioa.step_ns",
            &ns_per_unit(budget, || {
                let mut s = m.initial_state();
                for (a, t) in &replay {
                    if let Some(t) = t {
                        std::hint::black_box(m.enabled(&s, *t));
                    }
                    s = m.step(&s, a).expect("replayed once already");
                }
                std::hint::black_box(&s);
                replay.len() as u64
            }),
        );
    }

    // system: the simulator producing as many events, no observer.
    let steps = schedule.len().min(l.sized(100_000, 1_000));
    let sim_faults: Vec<(usize, Loc)> = faults
        .crashes
        .iter()
        .map(|&(_, loc)| (steps / 2, loc))
        .collect();
    l.put_samples(
        "system.sim_event_ns",
        &ns_per_unit(budget, || {
            let cfg = SimConfig::default()
                .with_faults(FaultPattern::at(sim_faults.clone()))
                .with_max_steps(steps);
            run_random(sys, seed, cfg).schedule().len() as u64
        }),
    );

    // core: streaming fold, batch verdict, statistics fold.
    let n = schedule.len() as u64;
    l.put_samples(
        "core.stream_push_ns",
        &ns_per_unit(budget, || {
            match judge {
                Judge::Omega => drop(std::hint::black_box(Omega::stream(pi).check_all(schedule))),
                Judge::EvPerfect => {
                    drop(std::hint::black_box(
                        EvPerfect::stream(pi).check_all(schedule),
                    ));
                }
                Judge::Consensus => {
                    let f = (pi.len() - 1) / 2;
                    drop(std::hint::black_box(
                        Consensus::new(f).stream(pi).check_all(schedule),
                    ));
                    drop(std::hint::black_box(Omega::stream(pi).check_all(schedule)));
                }
            }
            n
        }),
    );
    l.put_samples(
        "core.batch_check_ns",
        &ns_per_unit(budget, || {
            match judge {
                Judge::Omega => {
                    drop(std::hint::black_box(check_self_implementation(
                        &Omega, pi, schedule,
                    )));
                }
                Judge::EvPerfect => drop(std::hint::black_box(
                    EvPerfect.check_complete(pi, &fd_projection(schedule)),
                )),
                Judge::Consensus => drop(std::hint::black_box(check_consensus_run(
                    pi,
                    (pi.len() - 1) / 2,
                    schedule,
                ))),
            }
            n
        }),
    );
    l.put_samples(
        "core.stats_fold_ns",
        &ns_per_unit(budget, || {
            std::hint::black_box(RunStats::of(schedule));
            n
        }),
    );

    // obs: the metrics observer called directly, one commit at a time.
    l.put_samples(
        "obs.on_commit_ns",
        &ns_per_unit(budget, || {
            let obs = MetricsObserver::new(Arc::new(Metrics::new()));
            for (seq, a) in schedule.iter().enumerate() {
                afd_obs::dispatch(&obs, Stamped::walled(seq as u64, seq as u64 * 1_000, *a));
            }
            n
        }),
    );

    // net: the wire codec over the run's own commit requests.
    let reqs: Vec<WireMsg> = schedule
        .iter()
        .take(l.sized(20_000, 500))
        .enumerate()
        .map(|(i, a)| WireMsg::CommitReq {
            comp: (i % 16) as u32,
            action: *a,
        })
        .collect();
    let frames: Vec<Vec<u8>> = reqs.iter().map(encode_msg).collect();
    l.put_samples(
        "net.encode_ns",
        &ns_per_unit(budget, || {
            for r in &reqs {
                std::hint::black_box(encode_msg(r));
            }
            reqs.len() as u64
        }),
    );
    l.put_samples(
        "net.decode_ns",
        &ns_per_unit(budget, || {
            for f in &frames {
                std::hint::black_box(decode_msg(f).expect("our own encoding decodes"));
            }
            frames.len() as u64
        }),
    );
    let sizes: Vec<f64> = frames.iter().map(|f| f.len() as f64).collect();
    l.put_samples("net.frame_bytes", &sizes);
    if frames
        .iter()
        .zip(&reqs)
        .any(|(f, r)| decode_msg(f).ok().as_ref() != Some(r))
    {
        l.failures
            .push("net: a CommitReq did not round-trip through the codec".into());
    }

    // dgram: fragment and reassemble the same actions as payloads.
    let payloads: Vec<Vec<u8>> = schedule
        .iter()
        .take(l.sized(20_000, 500))
        .map(encode_action)
        .collect();
    let (from, to) = (Loc(0), Loc(1));
    l.put_samples(
        "dgram.fragment_ns",
        &ns_per_unit(budget, || {
            for (seq, p) in payloads.iter().enumerate() {
                std::hint::black_box(
                    afd_dgram::fragment(from, to, 0, seq as u32, p, afd_dgram::DEFAULT_MTU)
                        .expect("an encoded action fits one datagram"),
                );
            }
            payloads.len() as u64
        }),
    );
    let dgrams: Vec<Vec<u8>> = payloads
        .iter()
        .enumerate()
        .flat_map(|(seq, p)| {
            afd_dgram::fragment(from, to, 0, seq as u32, p, afd_dgram::DEFAULT_MTU)
                .expect("an encoded action fits one datagram")
        })
        .collect();
    let mut reassembled_ok = true;
    l.put_samples(
        "dgram.reassemble_ns",
        &ns_per_unit(budget, || {
            let mut r = afd_dgram::Reassembly::new(from, to, 0, afd_dgram::DEFAULT_MTU);
            let mut done = 0usize;
            for d in &dgrams {
                if matches!(r.offer(d), Ok(Some(_))) {
                    done += 1;
                }
            }
            reassembled_ok &= done == payloads.len();
            dgrams.len() as u64
        }),
    );
    if !reassembled_ok {
        l.failures.push("dgram: reassembly lost a payload".into());
    }
}

/// A reference Paxos(Ω) n = 3 schedule: seeds run to decision on the
/// simulator, concatenation-free — the longest single run is kept.
fn reference_paxos(
    seed: u64,
) -> (
    System<afd_system::ProcessAutomaton<afd_algorithms::consensus::PaxosOmega>>,
    Vec<Action>,
) {
    let pi = Pi::new(3);
    let sys = paxos_system(pi, &[seed & 1, (seed >> 1) & 1, (seed >> 2) & 1], vec![]);
    let out = run_random(
        &sys,
        seed,
        SimConfig::default()
            .with_max_steps(4_000)
            .stop_when(move |s| afd_algorithms::consensus::all_live_decided(pi, s)),
    );
    let schedule = out.execution.actions;
    (sys, schedule)
}

/// `system.build_us`: building the system this workload runs on.
fn build_probe(l: &mut Ladder, kind: Option<SystemKind>) {
    let budget = l.time(40);
    let us: Vec<f64> = match kind {
        Some(SystemKind::SelfImplOmega8 { victim }) => ns_per_unit(budget, || {
            let pi = Pi::new(8);
            std::hint::black_box(self_impl_system(pi, FdGen::omega(pi), vec![victim]));
            1
        }),
        Some(SystemKind::BoundedEvp3) => ns_per_unit(budget, || {
            std::hint::black_box(bounded_evp_system(Pi::new(3), vec![]));
            1
        }),
        // The kv workloads build one of these per slot.
        None => ns_per_unit(budget, || {
            std::hint::black_box(paxos_system_values(Pi::new(3), &[7, 8, 9], vec![]));
            1
        }),
    }
    .iter()
    .map(|ns| ns / 1e3)
    .collect();
    l.put_samples("system.build_us", &us);
}

/// `tree.*`: one hook search on the n = 3 Paxos tree.
fn tree_probe(l: &mut Ladder, seed: u64) {
    let pi = Pi::new(3);
    let seq = random_t_omega(pi, 1, seed % 16);
    let procs = pi
        .iter()
        .map(|i| {
            afd_system::ProcessAutomaton::new(i, afd_algorithms::consensus::PaxosOmega::new(pi))
        })
        .collect();
    let sys = afd_system::SystemBuilder::new(pi, procs)
        .with_env(afd_system::Env::consensus(pi))
        .with_crashes(seq.crash_script())
        .build();
    let tree = TaggedTree::new(&sys, seq);
    let t = Instant::now();
    let result = find_hook(&tree, HookSearchOptions::default());
    l.put("tree.hook_search_ms", t.elapsed().as_secs_f64() * 1e3);
    // The search reports its outer-walk iterations: the tree nodes it
    // stood on (each costs a fixed number of valence playouts).
    l.put(
        "tree.nodes_explored",
        result.as_ref().map_or(0.0, |h| h.iterations as f64),
    );
    if let Ok(h) = &result {
        if !h.satisfies_theorem_59() {
            l.failures
                .push("tree: the hook found violates Theorem 59".into());
        }
    }
}

/// `runtime.*`: the threaded engine on the heartbeat system, the bare
/// sink, and the start/stop floor of a Paxos decide.
fn runtime_probes(l: &mut Ladder, seed: u64) {
    let events = l.sized(100_000, 4_000);
    let reps = if l.scale < 0.3 { 3 } else { 5 };
    let mut off = Tracer::new(false);
    let mut cell = |workers: Option<usize>, observe: bool| -> (Vec<f64>, u32) {
        let (mut ns, mut bad) = (Vec::new(), 0u32);
        for _ in 0..reps {
            let (dt, schedule, failures) = threaded_rep(&mut off, seed, events, workers, observe);
            ns.push(dt.as_nanos() as f64 / schedule.len().max(1) as f64);
            bad += u32::from(!failures.is_empty());
        }
        (ns, bad)
    };
    let (plain, plain_bad) = cell(Some(1), false);
    let (observed, _) = cell(Some(1), true);
    let (wdefault, wdefault_bad) = cell(None, false);
    if plain_bad > 0 {
        l.failures.push(format!(
            "runtime: {plain_bad} of {reps} W=1 runs failed their checks"
        ));
    }
    l.put_samples("runtime.event_ns", &plain);
    l.put(
        "runtime.observer_delta_ns",
        median(&observed) - median(&plain),
    );
    // Throughput at the default pool ÷ W=1, and how far apart the
    // default-pool runs land — the reason W=1 is the gated setting.
    l.put(
        "runtime.pool_scaling",
        median(&plain) / median(&wdefault).max(1e-9),
    );
    l.put(
        "runtime.pool_scaling_spread",
        Summary::of(&wdefault).map_or(0.0, |s| s.spread()),
    );
    l.put(
        "runtime.wdefault_check_fail_share",
        f64::from(wdefault_bad) / f64::from(reps),
    );

    // A stop predicate that is evaluated at every commit and never fires.
    let pi = Pi::new(3);
    let sys = bounded_evp_system(pi, vec![]);
    let mut pred_ns = Vec::new();
    for _ in 0..reps {
        let cfg = RuntimeConfig::default()
            .with_max_events(events)
            .with_fd_pacing(Duration::ZERO)
            .with_workers(1)
            .with_seed(seed)
            .stop_when_stream(move || all_live_decided_stream(pi));
        let t = Instant::now();
        let out = run_threaded(&sys, &cfg);
        let _ = check_fd_trace(&EvPerfect, pi, &out.schedule);
        pred_ns.push(t.elapsed().as_nanos() as f64 / out.events().max(1) as f64);
    }
    l.put(
        "runtime.stream_stop_delta_ns",
        median(&pred_ns) - median(&plain),
    );

    // The bare sink: one producer, then one per core.
    let commits = l.sized(200_000, 10_000);
    let sink_ns = |producers: usize| -> f64 {
        let sink = EventSink::new(commits, 1_024, None);
        let t = Instant::now();
        std::thread::scope(|s| {
            for i in 0..producers {
                let sink = &sink;
                s.spawn(move || {
                    let mut k = 0u64;
                    loop {
                        let a = Action::Send {
                            from: Loc(i as u8),
                            to: Loc(((i + 1) % producers.max(2)) as u8),
                            msg: afd_core::Msg::Token(k),
                        };
                        if sink.try_commit(a) == Commit::Stopped {
                            return;
                        }
                        k += 1;
                    }
                });
            }
        });
        let (log, _) = sink.into_log();
        t.elapsed().as_nanos() as f64 / log.len().max(1) as f64
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let one: Vec<f64> = (0..3).map(|_| sink_ns(1)).collect();
    let many: Vec<f64> = (0..3).map(|_| sink_ns(nproc.max(2))).collect();
    l.put_samples("runtime.sink_commit_ns", &one);
    l.put_samples("runtime.sink_commit_contended_ns", &many);

    // Start/stop floor: a whole `run_threaded` for one ~50-event decide.
    let sys = paxos_system(pi, &[0, 1, 1], vec![]);
    let (mut floor_ms, mut decide_events) = (Vec::new(), Vec::new());
    for k in 0..l.sized(12, 3) {
        let cfg = RuntimeConfig::default()
            .with_max_events(6_000)
            .with_seed(seed.wrapping_add(k as u64))
            .stop_when_stream(move || all_live_decided_stream(pi));
        let t = Instant::now();
        let out = run_threaded(&sys, &cfg);
        floor_ms.push(t.elapsed().as_secs_f64() * 1e3);
        decide_events.push(out.events() as f64);
        if out.stop != StopReason::Predicate || check_consensus_run(pi, 1, &out.schedule).is_err() {
            l.failures.push(format!(
                "runtime: threaded Paxos decide {k} stopped {:?}",
                out.stop
            ));
        }
    }
    l.put_samples("runtime.run_floor_ms", &floor_ms);
    l.put_samples("runtime.decide_events", &decide_events);
}

/// `net.frame_rtt_us`: one `CommitReq` frame written and echoed back
/// over a loopback `TcpStream`.
fn tcp_rtt_probe(l: &mut Ladder) -> std::io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        while let Some(m) = read_frame(&mut s)? {
            write_frame(&mut s, &m)?;
        }
        Ok(())
    });
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    let msg = WireMsg::CommitReq {
        comp: 3,
        action: Action::Crash(Loc(1)),
    };
    let trips = l.sized(3_000, 200);
    let mut us = Vec::with_capacity(trips);
    for _ in 0..trips {
        let t = Instant::now();
        write_frame(&mut s, &msg)?;
        let back = read_frame(&mut s)?;
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
        if back.as_ref() != Some(&msg) {
            l.failures.push("net: the echoed frame differs".into());
            break;
        }
    }
    drop(s);
    echo.join().expect("echo thread panicked")?;
    l.put_samples("net.frame_rtt_us", &us);
    Ok(())
}

/// `dgram.udp_rtt_us`: one framed datagram sent and echoed back over
/// loopback `UdpSocket`s.
fn udp_rtt_probe(l: &mut Ladder) -> std::io::Result<()> {
    let a = UdpSocket::bind("127.0.0.1:0")?;
    let b = UdpSocket::bind("127.0.0.1:0")?;
    a.connect(b.local_addr()?)?;
    b.connect(a.local_addr()?)?;
    a.set_read_timeout(Some(Duration::from_millis(200)))?;
    b.set_read_timeout(Some(Duration::from_millis(200)))?;
    let trips = l.sized(3_000, 200);
    let echo = std::thread::spawn(move || {
        let mut buf = [0u8; 2048];
        // A one-byte datagram (or silence) ends the echo.
        while let Ok(n) = b.recv(&mut buf) {
            if n <= 1 || b.send(&buf[..n]).is_err() {
                break;
            }
        }
    });
    let payload = encode_action(&Action::Crash(Loc(1)));
    let dgram = afd_dgram::fragment(Loc(0), Loc(1), 0, 0, &payload, afd_dgram::DEFAULT_MTU)
        .expect("an encoded action fits one datagram")
        .remove(0);
    let mut buf = [0u8; 2048];
    let mut us = Vec::with_capacity(trips);
    for _ in 0..trips {
        let t = Instant::now();
        a.send(&dgram)?;
        // Loopback can still drop; a lost echo is skipped, not timed.
        if a.recv(&mut buf).is_ok() {
            us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    a.send(&[0u8])?;
    echo.join().expect("echo thread panicked");
    l.put_samples("dgram.udp_rtt_us", &us);
    Ok(())
}

/// `net.deploy_ms`, `net.node_*` from deployment samples.
fn deploy_metrics(l: &mut Ladder, s: &DeploySamples) {
    l.put_samples("net.deploy_ms", &s.deploy_ms);
    l.put_samples("net.node_commits_per_s", &s.node_commits_per_s);
    l.put_samples("net.node_commit_share", &s.node_commit_share);
    l.put(
        "net.cut_mistake_share",
        f64::from(s.cut_mistakes) / f64::from(s.reps.max(1)),
    );
    if s.failed_reps > 0 {
        l.failures.push(format!(
            "net: {} of {} TCP deployments failed their checks",
            s.failed_reps, s.reps
        ));
    }
}

/// `net.decide_ms`: whole Paxos n = 3 deployments, spawn to verdict.
fn decide_probe(l: &mut Ladder, node_exe: &str, seed: u64) {
    let spec = DeploymentSpec::Paxos {
        n: 3,
        values: vec![0, 1, 1],
    };
    let mut ms = Vec::new();
    for k in 0..l.sized(8, 3) {
        let cfg = NetConfig::new(vec![node_exe.to_string()], 3)
            .with_seed(seed.wrapping_add(k as u64))
            .with_deadlines(Duration::from_secs(5), Duration::from_secs(20));
        let t = Instant::now();
        let result = run_distributed(&spec, &cfg);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut bad = hygiene::reap_stragglers();
        match result {
            Ok(r) if r.stop == Some(StopReason::Predicate) && r.all_passed() => {}
            Ok(r) => bad.push(format!(
                "stop {:?}, checks passed: {}",
                r.stop,
                r.all_passed()
            )),
            Err(e) => bad.push(e.to_string()),
        }
        if !bad.is_empty() {
            l.failures
                .push(format!("net: Paxos deployment {k}: {}", bad.join("; ")));
        }
    }
    l.put("net.decide_ms", percentile(&sorted(&ms), 50.0));
}

/// `dgram.events_per_s`, `delivery_rate`, `check_fail_share`: the
/// heartbeat deployment on UDP. Reported, never gated: its conformance
/// check still flakes (see the README).
fn udp_deploy_probe(l: &mut Ladder, node_exe: &str, seed: u64, reps: u32) {
    let s = deploy_probe(
        &mut Tracer::new(false),
        node_exe,
        seed,
        Transport::Udp,
        reps,
    );
    l.put_samples("dgram.events_per_s", &s.events_per_s);
    l.put_samples("dgram.delivery_rate", &s.delivery_rate);
    l.put(
        "dgram.check_fail_share",
        f64::from(s.failed_reps + s.cut_mistakes) / f64::from(s.reps.max(1)),
    );
}

/// `rsm.*` and `load.*` from a kv run's samples, plus direct timings of
/// `submit`, `read`, `apply` and `poll` over that run's own commands.
fn kv_metrics(l: &mut Ladder, s: &KvSamples, seed: u64) {
    let slots = sorted(&s.slot_ms);
    if !slots.is_empty() {
        l.put("rsm.slot_ms_p50", percentile(&slots, 50.0));
        l.put("rsm.slot_ms_p99", percentile(&slots, 99.0));
    }
    let decided = s.slots.saturating_sub(s.slots_wasted).max(1);
    l.put("rsm.ops_per_slot", s.slot_ops as f64 / decided as f64);
    l.put(
        "rsm.slots_reproposed",
        s.slots_wasted as f64 / s.slots.max(1) as f64,
    );
    let late = sorted(&s.late_ms);
    if !late.is_empty() {
        l.put("load.late_ms_p99", percentile(&late, 99.0));
    }
    l.put("load.clients_peak", s.clients_peak as f64);
    l.put(
        "load.late_share",
        s.late_ops as f64 / s.offered.max(1) as f64,
    );

    let budget = l.time(40);
    let writes: Vec<Command> = s
        .ops
        .iter()
        .filter(|c| !matches!(c, Command::Get { .. }))
        .copied()
        .collect();
    let reads: Vec<u64> = s
        .ops
        .iter()
        .filter_map(|c| match c {
            Command::Get { key } => Some(*key),
            _ => None,
        })
        .collect();
    l.put_samples(
        "rsm.apply_ns",
        &ns_per_unit(budget, || {
            let mut kv = KvStore::new();
            for c in &s.ops {
                std::hint::black_box(kv.apply(c));
            }
            s.ops.len() as u64
        }),
    );
    l.put_samples(
        "rsm.submit_ns",
        &ns_per_unit(budget, || {
            let mut rsm = Rsm::new(RsmConfig::new(Pi::new(3))).expect("n = 3 fits");
            for (id, c) in writes.iter().enumerate() {
                rsm.submit(id as u64, *c);
            }
            std::hint::black_box(rsm.backlog_ops());
            writes.len() as u64
        }),
    );
    let rsm = Rsm::new(RsmConfig::new(Pi::new(3))).expect("n = 3 fits");
    l.put_samples(
        "rsm.read_ns",
        &ns_per_unit(budget, || {
            for k in &reads {
                std::hint::black_box(rsm.read(*k));
            }
            reads.len() as u64
        }),
    );
    let n = s.ops.len() as u64;
    l.put_samples(
        "load.poll_ns",
        &ns_per_unit(budget, || {
            let cfg = afd_load::LoadConfig::new(100_000, n)
                .with_key_space(1_024)
                .with_seed(seed);
            afd_load::OpenLoopGen::new(cfg).drain_remaining().len() as u64
        }),
    );
}

/// Span self time per layer as a share of the traced end-to-end time,
/// and the residual the layers do not account for.
fn span_metrics(l: &mut Ladder, tracer: &Tracer, units: u64) {
    let layers = tracer.layer_self_ns();
    let total: u64 = layers.iter().map(|s| s.self_ns).sum();
    let pct = |layer: &str| {
        layers
            .iter()
            .find(|s| s.layer == layer)
            .map_or(0.0, |s| 100.0 * s.self_ns as f64 / total.max(1) as f64)
    };
    for (name, layer) in [
        ("span.system_self_pct", "system"),
        ("span.core_self_pct", "core"),
        ("span.algorithms_self_pct", "algorithms"),
        ("span.runtime_self_pct", "runtime"),
        ("span.net_self_pct", "net"),
        ("span.rsm_self_pct", "rsm"),
        ("span.load_self_pct", "load"),
    ] {
        l.put(name, pct(layer));
    }
    l.put("span.count", tracer.spans().len() as f64);
    // The benchmark's own spans enclose every layer call, so their self
    // time is exactly end-to-end time minus Σ layer self times.
    let bench_ns = layers
        .iter()
        .find(|s| s.layer == "bench")
        .map_or(0, |s| s.self_ns);
    l.put("prof.residual_ns", bench_ns as f64 / units.max(1) as f64);
    l.put("prof.residual_pct", pct("bench"));
}

fn quarter(name: &str, seed: u64, seconds: f64, node_exe: &str, tracer: &mut Tracer) -> Outcome {
    let mut ctx = Ctx {
        seed,
        seconds: seconds / 4.0,
        tracer,
        node_exe: node_exe.to_string(),
    };
    workloads::run(name, &mut ctx).expect("workload names are validated")
}

/// Per-unit wall of a run's timed regions, ns.
fn unit_ns(o: &Outcome) -> f64 {
    o.timed_ns as f64 / o.timed_units.max(1) as f64
}

/// The traced run of workload `name`.
pub fn traced_run(name: &str, seed: u64, seconds: f64, node_exe: &str) -> Traced {
    let mut l = Ladder {
        values: Vec::new(),
        failures: Vec::new(),
        scale: (seconds / crate::spec::RUN_SECONDS as f64).clamp(0.02, 1.0),
    };

    // The workload at quarter length, tracing off then on.
    let plain = quarter(name, seed, seconds, node_exe, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    let traced = quarter(name, seed, seconds, node_exe, &mut tracer);
    l.put(
        "prof.trace_overhead_pct",
        100.0 * (unit_ns(&traced) / unit_ns(&plain).max(1e-9) - 1.0),
    );
    span_metrics(&mut l, &tracer, traced.timed_units);
    l.put_samples("traced.events_per_s", &traced.e2e.events_per_s);
    l.put_samples("traced.op_latency_ms_p50", &traced.e2e.op_latency_ms_p50);
    l.put_samples("traced.op_latency_ms_p99", &traced.e2e.op_latency_ms_p99);
    l.put_samples("traced.drain_ops_per_s", &traced.e2e.drain_ops_per_s);
    l.put(
        "traced.failed_share",
        traced.failed as f64 / traced.attempted.max(1) as f64,
    );
    for f in plain.failures.iter().chain(&traced.failures) {
        l.failures.push(format!("workload: {f}"));
    }

    // Probes over the workload's own schedule, or the reference one.
    let probe_seed = seed ^ 0x01AD_DE12;
    let kind = traced.recorded.as_ref().map(|(k, _)| *k);
    match &traced.recorded {
        Some((SystemKind::SelfImplOmega8 { victim }, schedule)) => {
            let pi = Pi::new(8);
            let sys = self_impl_system(pi, FdGen::omega(pi), vec![*victim]);
            let faults = FaultPattern::at(vec![(schedule.len() / 2, *victim)]);
            schedule_probes(&mut l, &sys, schedule, &faults, Judge::Omega, probe_seed);
        }
        Some((SystemKind::BoundedEvp3, schedule)) => {
            let sys = bounded_evp_system(Pi::new(3), vec![]);
            let none = FaultPattern::none();
            schedule_probes(&mut l, &sys, schedule, &none, Judge::EvPerfect, probe_seed);
        }
        None => {
            let (sys, schedule) = reference_paxos(probe_seed);
            let none = FaultPattern::none();
            schedule_probes(&mut l, &sys, &schedule, &none, Judge::Consensus, probe_seed);
        }
    }
    build_probe(&mut l, kind);
    tree_probe(&mut l, probe_seed);
    runtime_probes(&mut l, probe_seed);
    if let Err(e) = tcp_rtt_probe(&mut l) {
        l.failures.push(format!("net: loopback TCP echo: {e}"));
    }
    if let Err(e) = udp_rtt_probe(&mut l) {
        l.failures.push(format!("dgram: loopback UDP echo: {e}"));
    }

    // Deployments: this workload's own, or a short reference set. The
    // UDP twin runs half as many repetitions as the TCP workload did.
    let mut off = Tracer::new(false);
    let (tcp, udp_reps) = match &traced.deploy {
        Some(s) => (s.clone(), (s.reps / 2).max(3)),
        None => (
            deploy_probe(
                &mut off,
                node_exe,
                probe_seed,
                Transport::Tcp,
                l.sized(6, 3) as u32,
            ),
            l.sized(6, 3) as u32,
        ),
    };
    deploy_metrics(&mut l, &tcp);
    decide_probe(&mut l, node_exe, probe_seed);
    udp_deploy_probe(&mut l, node_exe, probe_seed, udp_reps);

    // The service: this workload's own samples, or a short reference
    // run; the kill gap needs a run that kills.
    let reference_kv = |engine, secs: f64| {
        kv::run_params(
            &mut Tracer::new(false),
            node_exe,
            probe_seed,
            kv::Params::for_run(engine, secs),
        )
    };
    let reference;
    let kv_samples = match &traced.kv {
        Some(own) => own,
        None => {
            let o = reference_kv(kv::Engine::Threaded, (1.5 * l.scale).max(0.2));
            l.failures.extend(
                o.failures
                    .iter()
                    .map(|f| format!("reference kv-threaded: {f}")),
            );
            reference = o.kv.expect("kv runs return kv samples");
            &reference
        }
    };
    kv_metrics(&mut l, kv_samples, probe_seed);
    let gap = match (&traced.kv, name) {
        (Some(s), "kv-tcp-kill") => s.max_gap_ms,
        _ => {
            let o = reference_kv(kv::Engine::Tcp, (2.0 * l.scale).max(0.6));
            l.failures.extend(
                o.failures
                    .iter()
                    .map(|f| format!("reference kv-tcp-kill: {f}")),
            );
            o.kv.map_or(0.0, |s| s.max_gap_ms)
        }
    };
    l.put("rsm.kill_gap_ms", gap);

    // Every named per-layer metric, in contract order.
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for spec in &PER_LAYER {
        let samples = l.values.iter().find(|(n, _)| *n == spec.name);
        if samples.is_none_or(|(_, s)| s.is_empty()) {
            l.failures
                .push(format!("per-layer metric {} was not measured", spec.name));
        }
        metrics.push(Metric::from_samples(
            spec,
            samples.map_or(&[][..], |(_, s)| s),
        ));
    }
    for (n, _) in &l.values {
        debug_assert!(
            PER_LAYER.iter().any(|s| s.name == *n),
            "{n} is measured but not in the contract"
        );
    }
    let traced_unit_ns = unit_ns(&traced);
    let mut info = traced.info;
    info.push(("quarter_seconds", Json::Num(seconds / 4.0)));
    info.push(("untraced_unit_ns", Json::Num(unit_ns(&plain))));
    info.push(("traced_unit_ns", Json::Num(traced_unit_ns)));
    info.push((
        "span_self_ms",
        Json::Arr(
            tracer
                .layer_self_ns()
                .iter()
                .map(|s| {
                    Json::Str(format!(
                        "{}: {:.3} ms over {} spans",
                        s.layer,
                        s.self_ns as f64 / 1e6,
                        s.spans
                    ))
                })
                .collect(),
        ),
    ));
    Traced {
        report: WorkloadReport {
            workload: name.into(),
            traced: true,
            correct: l.failures.is_empty(),
            attempted: plain.attempted + traced.attempted,
            failed: plain.failed + traced.failed,
            failures: l.failures,
            metrics,
            info,
        },
        chrome_trace: tracer.chrome_trace(),
    }
}
