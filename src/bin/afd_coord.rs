//! `afd-coord`: run a named deployment distributed across real node
//! processes on loopback TCP, checked online by the streaming trace
//! checkers.
//!
//! ```text
//! afd-coord --deployment paxos --n 3 --nodes 3 [--events N] [--seed S]
//!           [--halt AT:LOC]... [--kill AT:LOC]... [--recover] [--udp]
//!           [--drop P] [--dup P] [--reorder W]
//!           [--node-cmd PATH] [--trace-out FILE.jsonl] [--json]
//! ```
//!
//! Deployments: `self-impl-omega`, `self-impl-perfect`, `self-impl-evp`,
//! `paxos`, `reliable-paxos`, `bounded-evp`. Without `--node-cmd` the
//! coordinator looks for `afd-node` next to its own executable.
//! `--recover` arms the default crash-recovery policy: a killed node is
//! respawned on deterministic backoff and rejoins with a bumped
//! incarnation epoch. `--udp` moves the node↔node data channels onto
//! real UDP sockets (DESIGN.md §14); `--drop/--dup/--reorder` then
//! act on the datagrams arriving at each channel's destination node.
//!
//! Exits 0 iff the run stopped for a benign reason and every check
//! passed.

use std::time::Duration;

use afd_core::Stamped;
use afd_net::coord::{NetConfig, NetFault, RecoveryPolicy, Transport};
use afd_net::{run_distributed, DeploymentSpec};
use afd_runtime::{LinkFaults, LinkProfile, StopReason};

struct Cli {
    deployment: String,
    n: u8,
    nodes: u32,
    events: usize,
    seed: u64,
    faults: Vec<NetFault>,
    drop: f64,
    dup: f64,
    reorder: u32,
    node_cmd: Option<String>,
    trace_out: Option<String>,
    json: bool,
    recover: bool,
    udp: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: afd-coord --deployment NAME --n N --nodes K [--events N] [--seed S] \
         [--halt AT:LOC]... [--kill AT:LOC]... [--recover] [--udp] [--drop P] \
         [--dup P] [--reorder W] [--node-cmd PATH] [--trace-out FILE.jsonl] [--json]"
    );
    std::process::exit(2);
}

fn parse_fault(s: &str, kill: bool) -> NetFault {
    let Some((at, loc)) = s.split_once(':') else {
        eprintln!("afd-coord: bad fault {s:?} (want AT:LOC)");
        usage();
    };
    let (Ok(at), Ok(loc)) = (at.parse::<usize>(), loc.parse::<u8>()) else {
        eprintln!("afd-coord: bad fault {s:?} (want AT:LOC)");
        usage();
    };
    if kill {
        NetFault::kill(at, afd_core::Loc(loc))
    } else {
        NetFault::halt(at, afd_core::Loc(loc))
    }
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        deployment: String::new(),
        n: 3,
        nodes: 3,
        events: 4_000,
        seed: 0xAFD_5EED,
        faults: Vec::new(),
        drop: 0.0,
        dup: 0.0,
        reorder: 0,
        node_cmd: None,
        trace_out: None,
        json: false,
        recover: false,
        udp: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("afd-coord: {flag} needs a value");
                usage();
            })
        };
        match flag.as_str() {
            "--deployment" => cli.deployment = val(),
            "--n" => cli.n = val().parse().unwrap_or_else(|_| usage()),
            "--nodes" => cli.nodes = val().parse().unwrap_or_else(|_| usage()),
            "--events" => cli.events = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => cli.seed = val().parse().unwrap_or_else(|_| usage()),
            "--halt" => {
                let f = parse_fault(&val(), false);
                cli.faults.push(f);
            }
            "--kill" => {
                let f = parse_fault(&val(), true);
                cli.faults.push(f);
            }
            "--drop" => cli.drop = val().parse().unwrap_or_else(|_| usage()),
            "--dup" => cli.dup = val().parse().unwrap_or_else(|_| usage()),
            "--reorder" => cli.reorder = val().parse().unwrap_or_else(|_| usage()),
            "--node-cmd" => cli.node_cmd = Some(val()),
            "--trace-out" => cli.trace_out = Some(val()),
            "--json" => cli.json = true,
            "--recover" => cli.recover = true,
            "--udp" => cli.udp = true,
            "--help" | "-h" => usage(),
            _ => {
                eprintln!("afd-coord: unknown flag {flag}");
                usage();
            }
        }
    }
    if cli.deployment.is_empty() {
        eprintln!("afd-coord: --deployment is required");
        usage();
    }
    cli
}

/// The default node command: `afd-node` next to our own executable.
fn sibling_node_cmd() -> Option<String> {
    let me = std::env::current_exe().ok()?;
    let sib = me.parent()?.join("afd-node");
    sib.exists().then(|| sib.to_string_lossy().into_owned())
}

fn main() {
    let cli = parse_cli();
    let Some(spec) = DeploymentSpec::parse(&cli.deployment, cli.n) else {
        eprintln!(
            "afd-coord: unknown deployment {:?} (try self-impl-omega, self-impl-perfect, \
             self-impl-evp, paxos, reliable-paxos)",
            cli.deployment
        );
        std::process::exit(2);
    };
    let node_cmd = cli.node_cmd.or_else(sibling_node_cmd).unwrap_or_else(|| {
        eprintln!("afd-coord: no afd-node next to this executable; pass --node-cmd");
        std::process::exit(2);
    });
    let mut links = LinkFaults::none();
    if cli.drop > 0.0 || cli.dup > 0.0 || cli.reorder > 0 {
        links = LinkFaults::uniform(
            LinkProfile::lossy(cli.drop)
                .with_dup(cli.dup)
                .with_reorder(cli.reorder),
        );
    }
    let mut cfg = NetConfig::new(vec![node_cmd], cli.nodes)
        .with_max_events(cli.events)
        .with_seed(cli.seed)
        .with_links(links)
        .with_deadlines(Duration::from_secs(5), Duration::from_secs(120));
    for f in cli.faults {
        cfg = cfg.with_fault(f);
    }
    if cli.recover {
        cfg = cfg.with_recovery(RecoveryPolicy::default());
    }
    if cli.udp {
        cfg = cfg.with_transport(Transport::Udp);
    }

    let report = match run_distributed(&spec, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("afd-coord: {e}");
            std::process::exit(1);
        }
    };

    if let Some(path) = &cli.trace_out {
        let stamped: Vec<Stamped> = report
            .schedule
            .iter()
            .enumerate()
            .map(|(i, &a)| Stamped {
                seq: i as u64,
                wall_ns: None,
                action: a,
            })
            .collect();
        if let Err(e) = afd_obs::export::jsonl_to_file(std::path::Path::new(path), &stamped) {
            eprintln!("afd-coord: writing {path}: {e}");
            std::process::exit(1);
        }
    }

    let stop_name = report.stop.map_or("running", StopReason::name);
    let benign = matches!(
        report.stop,
        Some(StopReason::MaxEvents | StopReason::Predicate | StopReason::Idle)
    );
    if cli.json {
        let checks: Vec<String> = report
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":\"{}\",\"online\":{},\"pass\":{}}}",
                    c.name,
                    c.online,
                    c.verdict.is_ok()
                )
            })
            .collect();
        let nodes: Vec<String> = report
            .nodes
            .iter()
            .map(|n| {
                format!(
                    "{{\"id\":{},\"locations\":{},\"killed\":{},\"commits\":{},\"respawns\":{}}}",
                    n.id,
                    n.locations.len(),
                    n.killed,
                    n.commits,
                    n.respawns
                )
            })
            .collect();
        let rejoins = report
            .recovery
            .as_ref()
            .map_or(0, |r| r.incarnations.iter().filter(|i| i.rejoin_ok).count());
        println!(
            "{{\"deployment\":\"{}\",\"events\":{},\"stop\":\"{}\",\"elapsed_ms\":{},\
             \"chaos_arrivals\":{},\"chaos_dropped\":{},\"rejoins\":{rejoins},\
             \"checks\":[{}],\"nodes\":[{}]}}",
            spec.label(),
            report.events,
            stop_name,
            report.elapsed.as_millis(),
            report.chaos.arrivals(),
            report.chaos.dropped(),
            checks.join(","),
            nodes.join(",")
        );
    } else {
        println!(
            "{}: {} events in {:?}, stop={stop_name}",
            spec.label(),
            report.events,
            report.elapsed
        );
        for n in &report.nodes {
            println!(
                "  node {}: {} locations, {} commits{}{}",
                n.id,
                n.locations.len(),
                n.commits,
                if n.killed { " [killed]" } else { "" },
                if n.respawns > 0 {
                    format!(" [respawned x{}]", n.respawns)
                } else {
                    String::new()
                }
            );
        }
        if report.chaos.arrivals() > 0 {
            println!("  chaos: {}", report.chaos);
        }
        if let Some(dgram) = &report.dgram {
            println!(
                "  dgram: {} tx, {} rx, {} organic lost{}",
                dgram.datagrams_tx(),
                dgram.datagrams_rx(),
                dgram.organic_lost(),
                dgram
                    .delivery_rate()
                    .map_or(String::new(), |r| format!(", delivery {r:.3}"))
            );
        }
        if let Some(rec) = &report.recovery {
            for inc in &rec.incarnations {
                println!(
                    "  rejoin node {} epoch {}: {}, replay {} events{}",
                    inc.node,
                    inc.epoch,
                    inc.respawn_to_rejoin()
                        .map_or("no rejoin".into(), |d| format!("{d:?}")),
                    inc.replay_len,
                    inc.reelect_events
                        .map_or(String::new(), |e| format!(", re-elected after {e} events"))
                );
            }
        }
        for c in &report.checks {
            match &c.verdict {
                Ok(()) => println!("  check {}: ok", c.name),
                Err(e) => println!("  check {}: FAIL ({e})", c.name),
            }
        }
    }
    if !report.all_passed() || !benign {
        std::process::exit(1);
    }
}
