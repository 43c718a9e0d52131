//! Multi-shot agreement under link chaos: the replicated log keeps
//! deciding and applying in order while every link drops 30% of its
//! frames, duplicates 10%, and reorders within a window of 4 — and
//! keeps healing when the current leader is `Kill`ed mid-slot. Each
//! test drains a workload and then asserts the paper-level guarantees:
//! every applied prefix agrees byte-for-byte across replicas, every
//! decided slot names a batch that was actually submitted (validity),
//! and per-replica application is dense and strictly increasing.
//!
//! The last case holds the distributed engine to the same
//! post-conditions: one afd-net deployment of real `afd-node`
//! processes per slot, the leader's process SIGKILLed mid-run.

use afd_core::Pi;
use afd_rsm::{Command, Rsm, RsmConfig, SlotOutcome};
use afd_runtime::{LinkFaults, LinkProfile};

#[cfg(target_os = "linux")]
mod common;

/// The chaos profile of `tests/chaos_runtime.rs`: 30% loss, 10%
/// duplication, reordering window 4, on every link.
fn chaos_links() -> LinkFaults {
    LinkFaults::uniform(LinkProfile::lossy(0.30).with_dup(0.10).with_reorder(4))
}

/// Drain `ops` puts through the log `cfg` describes, one `run_slot`
/// call per slot, killing the current leader mid-slot (at event
/// `kill_at`) `kills` times along the way.
fn drain(
    cfg: RsmConfig,
    ops: u64,
    kills: usize,
    kill_at: usize,
    mut run_slot: impl FnMut(&mut Rsm, Option<usize>) -> Option<SlotOutcome>,
) -> Rsm {
    let mut rsm = Rsm::new(cfg).expect("config fits the runtime capacity");
    for r in 0..ops {
        rsm.submit(r, Command::Put { key: r % 7, val: r });
    }
    while !rsm.is_drained() {
        // Keep arming the kill until a slot actually witnesses it.
        let kill_at = (rsm.crashed().len() < kills).then_some(kill_at);
        run_slot(&mut rsm, kill_at).unwrap_or_else(|| panic!("slot failed: {:?}", rsm.failures()));
    }
    rsm
}

/// [`drain`] on the threaded engine under [`chaos_links`].
fn run_chaos_rsm(n: usize, ops: u64, batch_ops: usize, kills: usize, seed: u64) -> Rsm {
    let cfg = RsmConfig::new(Pi::new(n))
        .with_batch_ops(batch_ops)
        .with_seed(seed)
        .with_links(chaos_links());
    drain(cfg, ops, kills, 20, Rsm::run_slot_threaded)
}

/// The shared post-conditions: no driver failures, dense apply order,
/// byte-for-byte prefix agreement, and per-slot validity (every
/// decided batch id is one the client workload actually sealed).
fn assert_log_healthy(rsm: &Rsm, ops: u64) {
    assert!(rsm.failures().is_empty(), "{:?}", rsm.failures());
    rsm.conformance()
        .expect("apply order is dense and increasing");
    rsm.check_agreement().expect("applied prefixes agree");
    assert_eq!(rsm.ops_applied(), ops, "every submitted op was applied");
    // Validity: decided batch ids are exactly one per slot, distinct,
    // and the longest log covers every decided slot in order.
    let longest = rsm
        .leader()
        .map(|l| rsm.replica(l).log.clone())
        .expect("a live replica exists");
    assert_eq!(longest.len() as u64, rsm.slots_decided());
    for (k, (slot, _)) in longest.iter().enumerate() {
        assert_eq!(*slot, k as u64, "slots decided in order without gaps");
    }
    let mut batches: Vec<u64> = longest.iter().map(|&(_, b)| b).collect();
    batches.sort_unstable();
    batches.dedup();
    assert_eq!(
        batches.len() as u64,
        rsm.slots_decided(),
        "no batch decided twice"
    );
}

#[test]
fn n3_chaos_multi_shot_agreement() {
    let rsm = run_chaos_rsm(3, 18, 3, 0, 0xC0);
    assert_log_healthy(&rsm, 18);
    assert_eq!(rsm.slots_decided(), 6, "18 puts at batch_ops=3 → 6 slots");
    assert!(rsm.crashed().is_empty());
    assert_eq!(rsm.read(3), Some(17), "key 3 last written by op 17");
}

#[test]
fn n5_chaos_multi_shot_agreement() {
    let rsm = run_chaos_rsm(5, 20, 5, 0, 0xC1);
    assert_log_healthy(&rsm, 20);
    assert_eq!(rsm.slots_decided(), 4);
}

#[test]
fn n3_chaos_leader_kill_heals() {
    let rsm = run_chaos_rsm(3, 15, 3, 1, 0xC2);
    assert_log_healthy(&rsm, 15);
    assert_eq!(rsm.crashed().len(), 1, "exactly one replica died");
    let dead = rsm.crashed().iter().next().expect("a victim");
    let live = rsm.leader().expect("a live majority remains");
    assert!(
        rsm.replica(dead).log.len() < rsm.replica(live).log.len(),
        "the dead replica holds a strict prefix"
    );
}

#[test]
fn n5_chaos_double_leader_kill_heals() {
    // n=5 tolerates f=2: kill the leader in two different slots and
    // the log still drains under the third leadership.
    let rsm = run_chaos_rsm(5, 20, 4, 2, 0xC3);
    assert_log_healthy(&rsm, 20);
    assert_eq!(rsm.crashed().len(), 2, "two leaders died across slots");
    let live = rsm.leader().expect("a live majority remains");
    for dead in rsm.crashed().iter() {
        assert!(rsm.replica(dead).log.len() <= rsm.replica(live).log.len());
    }
}

/// The distributed engine, clean links. Linux-only for the `/proc`
/// scan that shows no node process outlives its slot.
#[cfg(target_os = "linux")]
mod distributed {
    use std::time::Duration;

    use afd_rsm::NetSlotConfig;

    use super::common::{marked, marker};
    use super::*;

    /// 300 puts in 5 slots, each slot a deployment of three real
    /// `afd-node` processes over loopback TCP, with a SIGKILL of the
    /// leader's process armed at event 25 until a slot witnesses it.
    /// Nothing else in tier-1 calls `Rsm::run_slot_distributed`; the
    /// benchmark's `kv-tcp-kill` workload is built on it.
    #[test]
    fn n3_leader_sigkill_heals() {
        let marker = marker("rsm-distributed");
        let net = NetSlotConfig {
            node_command: vec![env!("CARGO_BIN_EXE_afd-node").to_string(), marker.clone()],
            max_events: 6_000,
            stall: Duration::from_secs(10),
            wall: Duration::from_secs(120),
        };
        let cfg = RsmConfig::new(Pi::new(3))
            .with_batch_ops(60)
            .with_seed(0xD0);
        let rsm = drain(cfg, 300, 1, 25, |rsm, kill_at| {
            rsm.run_slot_distributed(&net, kill_at)
        });
        assert_log_healthy(&rsm, 300);
        assert_eq!(rsm.slots_decided(), 5, "300 puts at batch_ops=60 → 5 slots");
        assert_eq!(rsm.crashed().len(), 1, "exactly one replica died");
        assert_eq!(marked(&marker), Vec::<u32>::new());
    }
}
