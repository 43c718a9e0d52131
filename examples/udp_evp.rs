//! Bounded-message ◇P over real UDP: deploy the ADD-paper heartbeat
//! detector (`BoundedEvP`, n = 5) across real OS processes with every
//! node↔node data channel riding `std::net::UdpSocket` datagrams, a
//! 30% injected drop rate on every link, and one mid-run crash — then
//! compare the loss the channels *injected* (the chaos report) with
//! the profile, report what the sockets lost on their own (the
//! datagram report), and publish the per-channel datagram counters
//! into an [`afd_obs::Metrics`] registry.
//!
//! The example is its own node executable: the coordinator re-spawns
//! this very binary with the node assignment in the environment, and
//! [`afd_net::maybe_serve_from_env`] turns those children into nodes
//! before `main` does anything else.
//!
//! Run with: `cargo run --release --example udp_evp`

use std::time::Duration;

use afd_core::Loc;
use afd_dgram::expected_delivery_rate;
use afd_net::coord::{NetConfig, NetFault, Transport};
use afd_net::{run_distributed, DeploymentSpec};
use afd_runtime::{LinkFaults, LinkProfile};

fn main() {
    // Child processes spawned by the coordinator serve as nodes and
    // never reach the code below.
    if afd_net::maybe_serve_from_env() {
        return;
    }

    let me = std::env::current_exe()
        .expect("own executable path")
        .to_string_lossy()
        .into_owned();

    let n = 5u8;
    let profile = LinkProfile::lossy(0.30);
    let spec = DeploymentSpec::BoundedEvP { n };
    let victim = Loc(n - 1);
    let cfg = NetConfig::new(vec![me], u32::from(n))
        .with_transport(Transport::Udp)
        .with_max_events(4_000)
        .with_seed(2026)
        .with_links(LinkFaults::uniform(profile))
        .with_fault(NetFault::halt(60, victim))
        .with_deadlines(Duration::from_secs(10), Duration::from_secs(120));

    println!(
        "deploying {} across {n} node processes — data channels on real \
         UDP sockets, 30% injected drop on every link…",
        spec.label()
    );
    let report = run_distributed(&spec, &cfg).expect("distributed run");

    println!(
        "\n{} events in {:?} (stop: {})",
        report.events,
        report.elapsed,
        report.stop.map_or("running", afd_runtime::StopReason::name)
    );

    println!("\nonline checks over the merged schedule:");
    for c in &report.checks {
        match &c.verdict {
            Ok(()) => println!("  {:<24} ok", c.name),
            Err(e) => println!("  {:<24} FAIL: {e}", c.name),
        }
    }
    assert!(report.all_passed(), "a checker rejected the schedule");

    // Injected loss (the channels' chaos accounting) vs organic loss
    // (the datagram plane's own).
    let chaos = &report.chaos;
    let dgram = report.dgram.as_ref().expect("UDP runs carry dgram stats");
    let arrivals = chaos.arrivals();
    assert!(arrivals > 0, "heartbeats arrived");
    let delivered = (arrivals - chaos.dropped() + chaos.duplicated()) as f64 / arrivals as f64;
    let expected = expected_delivery_rate(&profile);
    println!(
        "\ndatagram plane ({} datagrams sent, {arrivals} arrivals):",
        dgram.datagrams_tx()
    );
    println!("  configured drop        30.0%");
    println!(
        "  injected drop          {:4.1}%  ({} arrivals dropped by their channel)",
        100.0 * chaos.drop_rate(),
        chaos.dropped()
    );
    println!(
        "  organic loss           {:>5}  (transmissions the real socket lost)",
        dgram.organic_lost()
    );
    println!(
        "  delivered ÷ arrivals   {delivered:4.3} vs expected {expected:4.3} \
         (|Δ| = {:.3})",
        (delivered - expected).abs()
    );
    assert!(
        (delivered - expected).abs() <= 0.05,
        "injected loss strayed more than 5pp from the profile"
    );

    // Publish the counters into a metrics registry, as a sidecar or
    // scraper would see them.
    let metrics = afd_obs::Metrics::new();
    dgram.publish(&metrics);
    let snap = metrics.snapshot();
    println!("\npublished metrics (per-channel counters elided):");
    for key in [
        "dgram.total.datagrams_tx",
        "dgram.total.datagrams_rx",
        "dgram.total.organic_lost",
    ] {
        println!("  {key:<28} {}", snap.counters[key]);
    }
    println!(
        "  dgram.delivery_pct           {}",
        snap.gauges["dgram.delivery_pct"].0
    );
    let channels = snap
        .counters
        .keys()
        .filter(|k| k.ends_with(".datagrams_tx") && !k.contains("total"))
        .count();
    println!("  ({channels} directed channels reported)");

    println!(
        "\n◇P stayed conformant over channels that dropped {} of {arrivals} \
         arriving heartbeats — bounded heartbeats tolerate an ADD-style \
         lossy link.",
        chaos.dropped()
    );
}
