//! The distributed runtime's acceptance grid, over real loopback TCP
//! and real OS processes:
//!
//! * Paxos n ∈ {3, 5} decides despite one replica crashed mid-run —
//!   including a genuine `SIGKILL` of the hosting node process — with
//!   the online streaming checkers (consensus spec + Ω conformance)
//!   passing over the merged schedule;
//! * the Ω/P/◇P self-implementation deployments stay conformant and
//!   pass the post-hoc Theorem 13 check;
//! * same-seed netchaos runs export byte-identical chaos plans;
//! * a chaos-free run keeps per-channel FIFO;
//! * a deployment that cannot come up — bad command, a node that exits
//!   before `Hello`, a partial handshake — ends in a typed error at
//!   once and leaves no node process behind, running or zombie;
//! * a node whose coordinator goes away — before or after `Assign` —
//!   exits on its own within seconds, with a documented status.
//!
//! Every run here spawns the real `afd-node` binary (via
//! `CARGO_BIN_EXE_afd-node`) as its node processes.

use std::time::Duration;

use afd_core::{Action, Loc, LocSet, Pi};
use afd_net::coord::{NetConfig, NetFault, NetReport, Transport};
use afd_net::{run_distributed, DeploymentSpec, FdKindSpec, NetError};
use afd_runtime::{fifo_violation, LinkFaults, LinkProfile, Partition, StopReason};

#[cfg(target_os = "linux")]
mod common;

fn node_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_afd-node").to_string()]
}

fn base_cfg(nodes: u32) -> NetConfig {
    NetConfig::new(node_cmd(), nodes)
        .with_deadlines(Duration::from_secs(10), Duration::from_secs(120))
}

fn assert_all_checks(report: &NetReport) {
    for c in &report.checks {
        assert!(
            c.verdict.is_ok(),
            "check {} failed: {:?}",
            c.name,
            c.verdict
        );
    }
}

/// Every live location decided on a single common value.
fn assert_decided(report: &NetReport, pi: Pi) {
    let crashed: Vec<Loc> = report
        .schedule
        .iter()
        .filter_map(|a| match a {
            Action::Crash(l) => Some(*l),
            _ => None,
        })
        .collect();
    let mut decisions: Vec<(Loc, u64)> = Vec::new();
    for a in &report.schedule {
        if let Action::Decide { at, v } = a {
            decisions.push((*at, *v));
        }
    }
    let values: std::collections::BTreeSet<u64> = decisions.iter().map(|&(_, v)| v).collect();
    assert!(values.len() <= 1, "agreement violated: {values:?}");
    for l in pi.iter() {
        if !crashed.contains(&l) {
            assert!(
                decisions.iter().any(|&(at, _)| at == l),
                "live location {l:?} never decided (decisions: {decisions:?})"
            );
        }
    }
}

/// Paxos n=3, one replica's node process SIGKILLed mid-run: the
/// survivors decide over real sockets and every online checker passes.
#[test]
fn paxos_n3_decides_despite_sigkill() {
    let spec = DeploymentSpec::Paxos {
        n: 3,
        values: vec![0, 1, 1],
    };
    let cfg = base_cfg(3)
        .with_max_events(4_000)
        .with_seed(11)
        .with_fault(NetFault::kill(15, Loc(2)));
    let report = run_distributed(&spec, &cfg).expect("run");
    assert_all_checks(&report);
    assert_eq!(
        report.stop,
        Some(StopReason::Predicate),
        "stopped by the all-live-decided predicate, not the budget (events={}, stop={:?})",
        report.events,
        report.stop
    );
    assert_decided(&report, Pi::new(3));
    // The kill was real: the hosting node is marked and its location
    // crashed in the schedule.
    let n2 = &report.nodes[2];
    assert!(n2.killed, "node 2 should be killed");
    assert!(report.schedule.contains(&Action::Crash(Loc(2))));
}

/// Paxos n=5 on 5 node processes with a Halt crash: crash-as-protocol
/// (the automaton silences itself, the process lives).
#[test]
fn paxos_n5_decides_despite_halt() {
    let spec = DeploymentSpec::Paxos {
        n: 5,
        values: vec![0, 1, 0, 1, 1],
    };
    let cfg = base_cfg(5)
        .with_max_events(8_000)
        .with_seed(13)
        .with_fault(NetFault::halt(25, Loc(4)));
    let report = run_distributed(&spec, &cfg).expect("run");
    assert_all_checks(&report);
    assert_eq!(report.stop, Some(StopReason::Predicate));
    assert_decided(&report, Pi::new(5));
    // Halt leaves the process alive: nobody is marked killed.
    assert!(report.nodes.iter().all(|n| !n.killed));
}

/// The conformance grid: each canonical detector's self-implementation
/// system, deployed across processes, stays trace-conformant to its
/// AFD spec and passes Theorem 13 (the renamed trace re-implements the
/// spec, non-vacuously).
#[test]
fn conformance_grid_over_sockets() {
    for (fd, budget) in [
        (FdKindSpec::Omega, 250usize),
        (FdKindSpec::Perfect, 250),
        (
            FdKindSpec::EvPerfectNoisy {
                lie_set: afd_core::LocSet::singleton(Loc(0)),
                lie_count: 3,
            },
            250,
        ),
    ] {
        let spec = DeploymentSpec::SelfImpl { n: 3, fd };
        let cfg = base_cfg(3).with_max_events(budget).with_seed(17);
        let report = run_distributed(&spec, &cfg).expect("run");
        assert_eq!(
            report.stop,
            Some(StopReason::MaxEvents),
            "conformance runs exhaust their budget ({})",
            spec.label()
        );
        assert_all_checks(&report);
        assert!(
            report.check("theorem-13").is_some(),
            "self-impl deployments get the post-hoc Theorem 13 check"
        );
        assert_eq!(report.events, budget);
    }
}

/// Same-seed chaos runs export byte-identical plans (the plan is a
/// pure function of seed × links × Π); a different seed diverges.
#[test]
fn same_seed_chaos_plans_are_byte_identical() {
    let spec = DeploymentSpec::ReliablePaxos {
        n: 3,
        values: vec![1, 0, 1],
    };
    let links = LinkFaults::uniform(LinkProfile::lossy(0.10).with_dup(0.05).with_reorder(2));
    let run = |seed: u64| {
        let cfg = base_cfg(3)
            .with_max_events(6_000)
            .with_seed(seed)
            .with_links(links.clone());
        run_distributed(&spec, &cfg).expect("run")
    };
    let a = run(99);
    let b = run(99);
    let c = run(100);
    assert!(!a.chaos_plan.is_empty());
    assert_eq!(a.chaos_plan, b.chaos_plan, "same seed ⇒ identical plan");
    assert_ne!(
        a.chaos_plan, c.chaos_plan,
        "different seed ⇒ different plan"
    );
    // The adversary actually did something over the wire.
    assert!(
        a.chaos.arrivals() > 0,
        "chaotic links saw no traffic: {:?}",
        a.chaos
    );
    assert_all_checks(&a);
    assert_all_checks(&b);
    assert_all_checks(&c);
}

/// Without link chaos the merged schedule keeps per-channel FIFO:
/// routing through the coordinator adds latency, never reordering.
#[test]
fn clean_run_preserves_fifo() {
    let spec = DeploymentSpec::Paxos {
        n: 3,
        values: vec![0, 0, 1],
    };
    let cfg = base_cfg(2).with_max_events(4_000).with_seed(23);
    let report = run_distributed(&spec, &cfg).expect("run");
    assert_all_checks(&report);
    assert_eq!(
        fifo_violation(&report.schedule),
        None,
        "chaos-free distributed runs must stay FIFO per channel"
    );
    // Two nodes hosted three locations: round-robin put two on node 0.
    assert_eq!(report.nodes[0].locations, vec![Loc(0), Loc(2)]);
    assert_eq!(report.nodes[1].locations, vec![Loc(1)]);
    // Both nodes actually committed work over their sockets.
    assert!(report.nodes.iter().all(|n| n.commits > 0));
}

/// Config validation rejects impossible deployments up front.
#[test]
fn bad_configs_are_rejected() {
    let spec = DeploymentSpec::Paxos {
        n: 3,
        values: vec![0, 1, 1],
    };
    assert!(run_distributed(&spec, &NetConfig::new(vec![], 3)).is_err());
    assert!(run_distributed(&spec, &NetConfig::new(node_cmd(), 0)).is_err());
    assert!(run_distributed(&spec, &NetConfig::new(node_cmd(), 4)).is_err());
    let cfg = NetConfig::new(node_cmd(), 3).with_fault(NetFault::halt(0, Loc(9)));
    assert!(run_distributed(&spec, &cfg).is_err());
    // E_C is binary consensus: out-of-domain or missing proposal
    // values would silently stall the deployment, so they are errors.
    let bad_vals = DeploymentSpec::Paxos {
        n: 3,
        values: vec![0, 7, 1],
    };
    assert!(run_distributed(&bad_vals, &NetConfig::new(node_cmd(), 3)).is_err());
    let short_vals = DeploymentSpec::Paxos {
        n: 3,
        values: vec![0, 1],
    };
    assert!(run_distributed(&short_vals, &NetConfig::new(node_cmd(), 3)).is_err());
    // The link and partition script is validated like `run_threaded`'s,
    // before any node is spawned.
    let config_error = |cfg: NetConfig| {
        let err = run_distributed(&spec, &cfg).err();
        assert!(matches!(err, Some(NetError::Config(_))), "{err:?}");
    };
    config_error(
        NetConfig::new(node_cmd(), 3).with_links(LinkFaults::uniform(LinkProfile::lossy(1.5))),
    );
    config_error(
        NetConfig::new(node_cmd(), 3).with_links(LinkFaults::none().with_override(
            Loc(1),
            Loc(1),
            LinkProfile::default(),
        )),
    );
    config_error(NetConfig::new(node_cmd(), 3).with_partition(Partition::cut(
        10,
        20,
        LocSet::singleton(Loc(9)),
    )));
}

/// Both data planes honour `LinkProfile::{delay, jitter}` like the
/// threaded engine: a channel's deliveries are serialized by its one
/// activation (on the coordinator under TCP, on the destination node
/// under UDP), each preceded by its sleep, so the run cannot be
/// shorter than the busiest channel's `Receive` count times the
/// configured delay (sleeps only ever run long).
#[test]
fn links_honour_configured_delay() {
    let delay = Duration::from_millis(1);
    let spec = DeploymentSpec::BoundedEvP { n: 3 };
    for transport in [Transport::Tcp, Transport::Udp] {
        // Heartbeat senders are unpaced, so the budget is mostly
        // `Send`s and the run lasts long enough for a few dozen paced
        // deliveries.
        let cfg = base_cfg(3)
            .with_max_events(4_000)
            .with_seed(31)
            .with_links(LinkFaults::uniform(LinkProfile::delay(delay)))
            .with_transport(transport);
        let report = run_distributed(&spec, &cfg).expect("run");
        assert_eq!(report.stop, Some(StopReason::MaxEvents), "{transport:?}");
        let mut receives = std::collections::BTreeMap::<(Loc, Loc), u32>::new();
        for a in &report.schedule {
            if let Action::Receive { from, to, .. } = a {
                *receives.entry((*from, *to)).or_default() += 1;
            }
        }
        let busiest = receives.values().copied().max().unwrap_or(0);
        assert!(
            busiest >= 5,
            "{transport:?}: heartbeats flowed: {receives:?}"
        );
        assert!(
            report.elapsed >= delay * busiest,
            "{transport:?}: {busiest} deliveries on one channel at {delay:?} each took only {:?}",
            report.elapsed
        );
    }
}

/// A fault scripted past `max_events` never fires: the coordinator's
/// injector waits on the sink's length watch for a threshold the run
/// never reaches, and the commit that fills the budget must wake it.
/// The deployment runs on a helper thread so that a missed wake fails
/// this test at the timeout instead of hanging the suite.
#[test]
fn budget_stop_releases_a_fault_scripted_past_it() {
    const BUDGET: usize = 2_000;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let cfg = base_cfg(3)
            .with_max_events(BUDGET)
            .with_fault(NetFault::halt(10_000_000, Loc(2)));
        let report = run_distributed(&DeploymentSpec::BoundedEvP { n: 3 }, &cfg);
        let _ = tx.send(report.map(|r| (r.stop, r.events)));
    });
    let (stop, events) = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("run_distributed returned")
        .expect("run");
    assert_eq!(stop, Some(StopReason::MaxEvents));
    assert_eq!(events, BUDGET);
}

/// Deployment failure modes: whatever goes wrong while the nodes come
/// up, `run_distributed` returns a typed error promptly and every node
/// process it spawned is dead *and reaped* (`common::marked` finds
/// each test's own nodes). And the other way round: a node whose
/// coordinator vanishes does not linger.
#[cfg(target_os = "linux")]
mod failure_modes {
    use std::net::TcpListener;
    use std::process::{Command, ExitStatus};
    use std::time::Instant;

    use afd_net::codec::{read_frame, write_frame};
    use afd_net::{NetError, WireMsg, ADDR_ENV, EPOCH_ENV, NODE_ID_ENV};

    use super::common::{marked, marker};
    use super::*;

    fn spec() -> DeploymentSpec {
        DeploymentSpec::SelfImpl {
            n: 3,
            fd: FdKindSpec::Omega,
        }
    }

    /// Is `pid` still a child of this process, in any state? A killed
    /// but unreaped child (a zombie) is; a reaped one has no entry.
    fn is_our_child(pid: u32) -> bool {
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            return false;
        };
        // "pid (comm) state ppid …"; comm may contain ')' and spaces.
        let ppid = stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().nth(1)?.parse::<u32>().ok());
        ppid == Some(std::process::id())
    }

    #[test]
    fn nonexistent_command_is_a_spawn_error() {
        let cmd = vec!["/nonexistent/afd-node".to_string()];
        let err = run_distributed(&spec(), &NetConfig::new(cmd, 3)).err();
        assert!(matches!(err, Some(NetError::Spawn(_))), "got {err:?}");
    }

    /// Every node exits without connecting: `Child::try_wait` knows, so
    /// the run must not sit out the handshake timeout.
    #[test]
    fn exit_before_hello_fails_fast() {
        let marker = marker("exit");
        let cmd = ["sh", "-c", "exit 3", &marker].map(String::from).to_vec();
        let started = Instant::now();
        let err = run_distributed(&spec(), &NetConfig::new(cmd, 3)).err();
        assert!(matches!(err, Some(NetError::Spawn(_))), "got {err:?}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "took {:?} to notice three dead children",
            started.elapsed()
        );
        assert_eq!(marked(&marker), Vec::<u32>::new());
    }

    /// Nodes 0 and 1 connect and say `Hello`; node 2 exits instead. The
    /// run fails typed, and the two connected nodes are killed and
    /// reaped on the way out — no straggler, no zombie.
    #[test]
    fn partial_handshake_reaps_connected_nodes() {
        let marker = marker("partial");
        let dir = std::env::temp_dir().join(&marker);
        std::fs::create_dir_all(&dir).expect("pid dir");
        // $0 = afd-node, $1 = pid dir, $2 = marker (kept in the real
        // node's argv, where afd-node ignores it).
        let script = r#"echo $$ > "$1/$AFD_NET_NODE_ID.pid"
            if [ "$AFD_NET_NODE_ID" = 2 ]; then sleep 0.3; exit 3; fi
            exec "$0" "$2""#;
        let node = env!("CARGO_BIN_EXE_afd-node");
        let cmd = [
            "sh",
            "-c",
            script,
            node,
            dir.to_str().expect("utf-8"),
            &marker,
        ]
        .map(String::from)
        .to_vec();
        let started = Instant::now();
        let err = run_distributed(&spec(), &NetConfig::new(cmd, 3)).err();
        let took = started.elapsed();
        match &err {
            Some(NetError::Spawn(m)) => assert!(m.contains("node 2 exited"), "{m}"),
            other => panic!("expected a Spawn error naming node 2, got {other:?}"),
        }
        assert!(took < Duration::from_secs(5), "took {took:?}");
        assert_eq!(marked(&marker), Vec::<u32>::new());
        for id in 0..3 {
            let pid = std::fs::read_to_string(dir.join(format!("{id}.pid")))
                .expect("every wrapper recorded its pid before the run failed");
            let pid: u32 = pid.trim().parse().expect("pid");
            assert!(!is_our_child(pid), "node {id} (pid {pid}) was not reaped");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Play coordinator by hand for one real `afd-node` (node 0,
    /// epoch 0): accept its connection, read its `Hello`, answer with
    /// a valid `Assign` if `assign`, then drop the socket — the
    /// coordinator is gone. Returns the status the orphan exits with;
    /// panics (after killing it) if it is still alive 2 s later.
    fn orphaned_node_exit(test: &str, assign: bool) -> ExitStatus {
        let marker = marker(test);
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let mut child = Command::new(env!("CARGO_BIN_EXE_afd-node"))
            .arg(&marker)
            .env(ADDR_ENV, &addr)
            .env(NODE_ID_ENV, "0")
            .env(EPOCH_ENV, "0")
            .spawn()
            .expect("spawn afd-node");
        let (mut sock, _) = listener.accept().expect("node connects");
        let hello = read_frame(&mut sock).expect("read Hello");
        assert!(
            matches!(
                hello,
                Some(WireMsg::Hello {
                    node: 0,
                    epoch: 0,
                    udp_port: 0
                })
            ),
            "got {hello:?}"
        );
        if assign {
            let assign = WireMsg::Assign {
                node: 0,
                epoch: 0,
                spec: spec(),
                locations: vec![Loc(0)],
                seed: 7,
                wire_pacing_us: 0,
                replay_len: 0,
            };
            write_frame(&mut sock, &assign).expect("write Assign");
        }
        drop(sock);
        drop(listener);
        let deadline = Instant::now() + Duration::from_secs(2);
        let status = loop {
            if let Some(status) = child.try_wait().expect("try_wait") {
                break status;
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("afd-node outlived its coordinator by 2 s (assign={assign})");
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(marked(&marker), Vec::<u32>::new());
        status
    }

    /// EOF on a running node's command socket is a stop: the reader
    /// halts the engine exactly as a `Stop` frame would, the workers
    /// drain, and the process exits 0 — the run is over as far as the
    /// node can tell, and a coordinator that died cannot read a reason.
    #[test]
    fn node_exits_when_coordinator_dies_after_assign() {
        let status = orphaned_node_exit("orphan-assigned", true);
        assert_eq!(status.code(), Some(0), "{status:?}");
    }

    /// EOF before `Assign` is a protocol error ("coordinator closed
    /// before Assign"): the node never ran anything, and exits 1.
    #[test]
    fn node_exits_when_coordinator_dies_before_assign() {
        let status = orphaned_node_exit("orphan-unassigned", false);
        assert_eq!(status.code(), Some(1), "{status:?}");
    }
}
