//! The multi-shot driver: a replicated log built as a *sequence of
//! single-shot Paxos(Ω) instances*, one per slot. Each slot is an
//! independent `System<P>` over the same universe Π, built from
//! [`afd_algorithms::paxos_system_values`] (or its reliable-layer
//! sibling under link chaos) and executed on the threaded runtime or
//! the afd-net distributed runtime. The decided value of slot `k` is a
//! *batch id*; replicas apply the batch's ops to their [`KvStore`] in
//! slot order, and the [`ApplyOrderChecker`] streams over every apply
//! to certify the order is dense and strictly increasing per replica.
//!
//! Crash state carries *across* slots: a location killed in slot `k`
//! enters every later instance pre-crashed (a `FaultPattern` entry at
//! step 0), so leadership visibly migrates to the lowest live location
//! and the log keeps healing — the multi-shot analogue of the single
//! instance's crash tolerance.

use std::time::Duration;

use afd_algorithms::consensus::all_live_decided_stream;
use afd_algorithms::{check_consensus_run, paxos_system_values, reliable_paxos_system_values};
use afd_core::{Action, Loc, LocSet, Pi, StreamChecker, Val};
use afd_net::{run_distributed, DeploymentSpec, NetConfig, NetFault};
use afd_runtime::{
    run_threaded, validate_loc_capacity, ConfigError, CrashMode, LinkFaults, RuntimeConfig,
    StopReason,
};
use afd_system::FaultPattern;

use crate::apply::{ApplyEvent, ApplyOrderChecker};
use crate::batch::BatchStore;
use crate::kv::{Command, KvStore};

/// Configuration of a replicated-log deployment.
#[derive(Debug, Clone)]
pub struct RsmConfig {
    /// The replica universe.
    pub pi: Pi,
    /// Maximum ops sealed into one batch (one slot decides one batch).
    pub batch_ops: usize,
    /// Base seed; each slot derives its own.
    pub seed: u64,
    /// Link-fault layer for every slot instance. Chaotic profiles
    /// switch the slot systems to the reliable-channel layer.
    pub links: LinkFaults,
    /// Wire-frame pacing for reliable-layer slots.
    pub wire_pacing: Duration,
    /// Event budget per slot instance.
    pub max_events_per_slot: usize,
}

impl RsmConfig {
    /// Defaults sized for test runs over `pi`.
    #[must_use]
    pub fn new(pi: Pi) -> Self {
        RsmConfig {
            pi,
            batch_ops: 64,
            seed: 1,
            links: LinkFaults::none(),
            wire_pacing: Duration::from_micros(20),
            max_events_per_slot: 60_000,
        }
    }

    /// Set the per-batch op cap.
    #[must_use]
    pub fn with_batch_ops(mut self, n: usize) -> Self {
        self.batch_ops = n.max(1);
        self
    }

    /// Set the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the link-fault layer.
    #[must_use]
    pub fn with_links(mut self, links: LinkFaults) -> Self {
        self.links = links;
        self
    }

    /// Validate the deployment against runtime capacity limits. The
    /// driver runs one slot instance at a time, so `|Π|` alone counts.
    ///
    /// # Errors
    /// [`ConfigError::LocCapacityExceeded`] when `|Π|` exceeds the
    /// crash-bitset capacity.
    pub fn validate(&self) -> Result<(), ConfigError> {
        validate_loc_capacity(self.pi.len(), 1)
    }
}

/// How a distributed slot instance is launched.
#[derive(Debug, Clone)]
pub struct NetSlotConfig {
    /// Command line respawned per node (usually `current_exe()`).
    pub node_command: Vec<String>,
    /// Event budget per slot.
    pub max_events: usize,
    /// Stall deadline per slot.
    pub stall: Duration,
    /// Wall-clock cap per slot.
    pub wall: Duration,
}

/// One replica's materialized state: the KV store plus its local log
/// of `(slot, batch id)` entries, in apply order.
#[derive(Debug, Clone, Default)]
pub struct Replica {
    /// The applied state machine.
    pub kv: KvStore,
    /// `(slot, batch id)` per applied slot.
    pub log: Vec<(u64, u64)>,
}

/// What one decided slot committed.
#[derive(Debug, Clone)]
pub struct SlotOutcome {
    /// The slot index.
    pub slot: u64,
    /// The decided batch id.
    pub batch: u64,
    /// The committed `(request id, command)` ops.
    pub ops: Vec<(u64, Command)>,
    /// Committed schedule events the instance spent.
    pub events: usize,
    /// The location killed mid-slot, if any.
    pub killed: Option<Loc>,
}

/// The replicated log + KV service over sequential Paxos(Ω) slots.
#[derive(Debug)]
pub struct Rsm {
    cfg: RsmConfig,
    store: BatchStore,
    replicas: Vec<Replica>,
    crashed: LocSet,
    slot: u64,
    checker: ApplyOrderChecker,
    failures: Vec<String>,
    ops_applied: u64,
}

impl Rsm {
    /// A fresh log over `cfg`, rejected at build time if the
    /// deployment exceeds runtime capacity.
    ///
    /// # Errors
    /// See [`RsmConfig::validate`].
    pub fn new(cfg: RsmConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Rsm {
            replicas: vec![Replica::default(); cfg.pi.len()],
            checker: ApplyOrderChecker::new(cfg.pi),
            store: BatchStore::new(),
            crashed: LocSet::empty(),
            slot: 0,
            failures: Vec::new(),
            ops_applied: 0,
            cfg,
        })
    }

    /// Submit one client command into the open batch.
    pub fn submit(&mut self, req_id: u64, cmd: Command) {
        self.store.push_op(req_id, cmd);
    }

    /// Serve a read from the longest applied prefix among live
    /// replicas — reads never ride the log.
    #[must_use]
    pub fn read(&self, key: u64) -> Option<u64> {
        self.live_replicas()
            .map(|(_, r)| r)
            .max_by_key(|r| r.log.len())
            .and_then(|r| r.kv.get(key))
    }

    /// Ops submitted but not yet decided.
    #[must_use]
    pub fn backlog_ops(&self) -> usize {
        self.store.backlog_ops()
    }

    /// True iff every submitted op has been decided.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.store.is_drained()
    }

    /// Slots decided so far.
    #[must_use]
    pub fn slots_decided(&self) -> u64 {
        self.slot
    }

    /// Ops applied to the state machine so far.
    #[must_use]
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// Locations crashed so far (across all slots).
    #[must_use]
    pub fn crashed(&self) -> LocSet {
        self.crashed
    }

    /// The current leader: the lowest live location (what Ω converges
    /// to once suspicion settles).
    #[must_use]
    pub fn leader(&self) -> Option<Loc> {
        self.cfg.pi.iter().find(|l| !self.crashed.contains(*l))
    }

    /// Can one more location die without losing the live majority
    /// every future slot needs?
    #[must_use]
    pub fn can_kill(&self) -> bool {
        let f = (self.cfg.pi.len() - 1) / 2;
        self.crashed.len() < f
    }

    /// Rejoin a crashed replica — the RSM half of the runtime's
    /// respawn-and-rejoin plane. The recovered replica restores its
    /// state machine from the canonical KV snapshot of the
    /// longest-log *live* donor ([`KvStore::snapshot_bytes`] round-
    /// tripped through [`KvStore::from_snapshot_bytes`]) and catches up
    /// the missed `(slot, batch)` suffix of the donor's log, streaming
    /// one [`ApplyEvent`] per caught-up slot through the apply-order
    /// checker — so a catch-up that skips or reorders slots is a
    /// conformance violation, not a silent heal. From the next slot on
    /// the replica participates again (and, if it is the lowest
    /// location, reclaims leadership).
    ///
    /// Returns the number of slots caught up, or `None` if `l` was not
    /// crashed. With no live donor (or a donor that is itself behind)
    /// the replica rejoins with its own prefix and catches up
    /// organically in later slots.
    pub fn recover(&mut self, l: Loc) -> Option<usize> {
        if !self.crashed.contains(l) {
            return None;
        }
        self.crashed.remove(l);
        let donor = self
            .cfg
            .pi
            .iter()
            .filter(|&d| d != l && !self.crashed.contains(d))
            .max_by_key(|d| self.replicas[d.index()].log.len());
        let Some(d) = donor else {
            return Some(0);
        };
        let mine = self.replicas[l.index()].log.len();
        let donor = &self.replicas[d.index()];
        if donor.log.len() <= mine {
            return Some(0);
        }
        let snap = donor.kv.snapshot_bytes();
        let log = donor.log.clone();
        let Some(kv) = KvStore::from_snapshot_bytes(&snap) else {
            self.failures
                .push(format!("recover {l}: donor {d} snapshot failed to decode"));
            return Some(0);
        };
        for &(slot, batch) in &log[mine..] {
            self.checker.push(&ApplyEvent {
                replica: l,
                slot,
                batch,
            });
        }
        let caught = log.len() - mine;
        let rep = &mut self.replicas[l.index()];
        rep.kv = kv;
        rep.log = log;
        Some(caught)
    }

    /// The per-replica views (index, replica) of locations still live.
    fn live_replicas(&self) -> impl Iterator<Item = (Loc, &Replica)> {
        self.cfg
            .pi
            .iter()
            .filter(|l| !self.crashed.contains(*l))
            .map(|l| (l, &self.replicas[l.index()]))
    }

    /// State hash of the longest live applied prefix.
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        self.live_replicas()
            .map(|(_, r)| r)
            .max_by_key(|r| r.log.len())
            .map_or(0, |r| r.kv.state_hash())
    }

    /// A replica's materialized state.
    #[must_use]
    pub fn replica(&self, l: Loc) -> &Replica {
        &self.replicas[l.index()]
    }

    /// Failures recorded across all slots so far (empty ⇒ healthy).
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The apply-order conformance verdict over every apply so far.
    ///
    /// # Errors
    /// The first `rsm.apply_order` violation.
    pub fn conformance(&self) -> Result<(), afd_core::Violation> {
        self.checker.finish()
    }

    /// Byte-for-byte prefix agreement across *all* replicas (crashed
    /// replicas hold a shorter, still-consistent prefix): every pair
    /// of logs must agree on their common prefix, and replicas with
    /// equal log length must serialize to identical snapshot bytes.
    ///
    /// # Errors
    /// A description of the first divergence found.
    pub fn check_agreement(&self) -> Result<(), String> {
        for i in self.cfg.pi.iter() {
            for j in self.cfg.pi.iter().filter(|j| j.0 > i.0) {
                let (a, b) = (&self.replicas[i.index()], &self.replicas[j.index()]);
                let common = a.log.len().min(b.log.len());
                if a.log[..common] != b.log[..common] {
                    return Err(format!(
                        "{i} and {j} diverge inside their common log prefix ({common} slots)"
                    ));
                }
                if a.log.len() == b.log.len() && a.kv.snapshot_bytes() != b.kv.snapshot_bytes() {
                    return Err(format!(
                        "{i} and {j} applied the same log but serialize differently"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Seal open ops and compute the per-location proposal vector:
    /// location `i` proposes the `i`-th pending batch (mod pending
    /// count), so contention is real when several batches wait and
    /// losers are re-proposed next slot.
    fn proposals(&mut self) -> Option<Vec<Val>> {
        self.store.seal(self.cfg.batch_ops);
        let pending = self.store.pending_ids();
        if pending.is_empty() {
            return None;
        }
        Some(
            self.cfg
                .pi
                .iter()
                .map(|l| pending[l.index() % pending.len()])
                .collect(),
        )
    }

    fn slot_seed(&self) -> u64 {
        self.cfg
            .seed
            .wrapping_add((self.slot + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Drive one slot on the threaded runtime. `kill_at` SIGKILLs the
    /// current leader's worker threads at that global event index
    /// (`CrashMode::Kill`), mid-instance. Returns `None` when there is
    /// nothing to propose or the slot failed (the failure is
    /// recorded in [`Rsm::failures`]).
    pub fn run_slot_threaded(&mut self, kill_at: Option<usize>) -> Option<SlotOutcome> {
        let values = self.proposals()?;
        let pi = self.cfg.pi;
        let mut faults: Vec<(usize, Loc)> = self.crashed.iter().map(|l| (0, l)).collect();
        let victim = match kill_at {
            Some(at) if self.can_kill() => {
                let v = self.leader().expect("a live majority exists");
                faults.push((at.max(1), v));
                Some(v)
            }
            Some(_) => None, // would break the live majority; skip the kill
            None => None,
        };
        let faulty: Vec<Loc> = faults.iter().map(|&(_, l)| l).collect();
        let mut rcfg = RuntimeConfig::default()
            .with_max_events(self.cfg.max_events_per_slot)
            .with_links(self.cfg.links.clone())
            .with_wire_pacing(self.cfg.wire_pacing)
            .with_seed(self.slot_seed())
            .with_faults(FaultPattern::at(faults))
            .stop_when_stream(move || all_live_decided_stream(pi));
        if victim.is_some() {
            rcfg = rcfg.with_crash_mode(CrashMode::Kill);
        }
        let out = if self.cfg.links.is_chaotic() {
            run_threaded(&reliable_paxos_system_values(pi, &values, faulty), &rcfg)
        } else {
            run_threaded(&paxos_system_values(pi, &values, faulty), &rcfg)
        };
        if out.stop != StopReason::Predicate {
            self.failures.push(format!(
                "slot {}: instance stopped with {:?} after {} events instead of deciding",
                self.slot,
                out.stop,
                out.events()
            ));
            return None;
        }
        self.settle_slot(&out.schedule, victim, out.events())
    }

    /// Drive one slot as a full afd-net deployment: real node
    /// processes over loopback TCP, with `kill_at` delivered as a real
    /// SIGKILL to the current leader's node. Returns `None` when there
    /// is nothing to propose or the slot failed.
    pub fn run_slot_distributed(
        &mut self,
        net: &NetSlotConfig,
        kill_at: Option<usize>,
    ) -> Option<SlotOutcome> {
        let values = self.proposals()?;
        let pi = self.cfg.pi;
        let spec = DeploymentSpec::PaxosVal {
            n: pi.len() as u8,
            values,
        };
        let mut ncfg = NetConfig::new(net.node_command.clone(), pi.len() as u32)
            .with_max_events(net.max_events)
            .with_seed(self.slot_seed())
            .with_links(self.cfg.links.clone())
            .with_deadlines(net.stall, net.wall);
        for l in self.crashed.iter() {
            ncfg = ncfg.with_fault(NetFault::halt(0, l));
        }
        let victim = match kill_at {
            Some(at) if self.can_kill() => {
                let v = self.leader().expect("a live majority exists");
                ncfg = ncfg.with_fault(NetFault::kill(at.max(1), v));
                Some(v)
            }
            _ => None,
        };
        let report = match run_distributed(&spec, &ncfg) {
            Ok(r) => r,
            Err(e) => {
                self.failures
                    .push(format!("slot {}: distributed run failed: {e}", self.slot));
                return None;
            }
        };
        for c in &report.checks {
            // Ω conformance is a liveness property: a slot truncated at
            // its decision right after the leader was killed can end
            // before suspicion propagates, so the finite schedule still
            // names the dead leader. Safety (`consensus`) is enforced
            // regardless.
            if victim.is_some() && c.name == "conformance-omega" {
                continue;
            }
            if let Err(e) = &c.verdict {
                self.failures
                    .push(format!("slot {}: check {} failed: {e}", self.slot, c.name));
            }
        }
        self.settle_slot(&report.schedule, victim, report.events)
    }

    /// Common slot epilogue: extract the decided batch from the
    /// schedule, commit it, and apply it at every replica still live.
    fn settle_slot(
        &mut self,
        schedule: &[Action],
        victim: Option<Loc>,
        events: usize,
    ) -> Option<SlotOutcome> {
        let pi = self.cfg.pi;
        // A scheduled kill only counts if the instance actually
        // witnessed it — a fast decide can end the run before the
        // fault injector reaches the kill step.
        let victim = victim.filter(|v| schedule.contains(&Action::Crash(*v)));
        if let Some(v) = victim {
            self.crashed.insert(v);
        }
        let f = (pi.len() - 1) / 2;
        let winner = match check_consensus_run(pi, f, schedule) {
            Ok(Some(v)) => v,
            Ok(None) => {
                self.failures
                    .push(format!("slot {}: nobody decided", self.slot));
                return None;
            }
            Err(v) => {
                self.failures
                    .push(format!("slot {}: consensus violated: {v:?}", self.slot));
                return None;
            }
        };
        let Some(batch) = self.store.complete(winner) else {
            self.failures.push(format!(
                "slot {}: decided value {winner} names no pending batch",
                self.slot
            ));
            return None;
        };
        let ops = batch.ops;
        let slot = self.slot;
        for l in pi.iter().filter(|l| !self.crashed.contains(*l)) {
            self.checker.push(&ApplyEvent {
                replica: l,
                slot,
                batch: winner,
            });
            let replica = &mut self.replicas[l.index()];
            replica.log.push((slot, winner));
            for (_, cmd) in &ops {
                replica.kv.apply(cmd);
            }
        }
        self.ops_applied += ops.len() as u64;
        self.slot += 1;
        Some(SlotOutcome {
            slot,
            batch: winner,
            ops,
            events,
            killed: victim,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_slots_apply_in_order_and_agree() {
        let mut rsm = Rsm::new(RsmConfig::new(Pi::new(3)).with_batch_ops(2).with_seed(11))
            .expect("config fits");
        for r in 0..6u64 {
            rsm.submit(r, Command::Put { key: r % 3, val: r });
        }
        let mut decided = Vec::new();
        while !rsm.is_drained() {
            let out = rsm
                .run_slot_threaded(None)
                .unwrap_or_else(|| panic!("slot failed: {:?}", rsm.failures()));
            decided.push(out.batch);
        }
        assert_eq!(rsm.slots_decided(), 3, "6 ops at batch_ops=2 → 3 slots");
        assert_eq!(rsm.ops_applied(), 6);
        assert!(rsm.failures().is_empty(), "{:?}", rsm.failures());
        rsm.conformance().expect("apply order is dense");
        rsm.check_agreement().expect("replicas agree");
        // Every sealed batch decided exactly once.
        let mut sorted = decided.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), decided.len(), "a batch decided twice");
        // The state is queryable from the applied prefix.
        assert_eq!(rsm.read(0), Some(3));
        assert_eq!(rsm.read(1), Some(4));
        assert_eq!(rsm.read(2), Some(5));
    }

    #[test]
    fn leader_kill_mid_slot_heals_into_the_next_slot() {
        let mut rsm = Rsm::new(RsmConfig::new(Pi::new(3)).with_batch_ops(4).with_seed(5))
            .expect("config fits");
        for r in 0..8u64 {
            rsm.submit(
                r,
                Command::Put {
                    key: r,
                    val: r + 100,
                },
            );
        }
        // A fast decide can outrun the fault injector (an unwitnessed
        // kill is not counted), so keep arming it until a slot dies.
        let mut killed = None;
        let mut extra = 100u64;
        for round in 0.. {
            assert!(round < 50, "no slot ever witnessed the kill");
            if rsm.is_drained() {
                rsm.submit(
                    extra,
                    Command::Put {
                        key: extra,
                        val: extra,
                    },
                );
                extra += 1;
            }
            let out = rsm
                .run_slot_threaded(Some(10))
                .unwrap_or_else(|| panic!("slot failed: {:?}", rsm.failures()));
            if out.killed.is_some() {
                killed = out.killed;
                break;
            }
        }
        assert_eq!(killed, Some(Loc(0)), "the initial leader dies");
        assert_eq!(rsm.leader(), Some(Loc(1)), "leadership migrated");
        while !rsm.is_drained() {
            rsm.run_slot_threaded(None)
                .unwrap_or_else(|| panic!("healing slot failed: {:?}", rsm.failures()));
        }
        assert!(rsm.failures().is_empty(), "{:?}", rsm.failures());
        rsm.conformance().expect("apply order still dense");
        rsm.check_agreement()
            .expect("prefixes agree after the kill");
        // The dead replica's log is a strict prefix of the live ones.
        assert!(rsm.replica(Loc(0)).log.len() < rsm.replica(Loc(1)).log.len());
        assert_eq!(rsm.read(7), Some(107));
    }

    #[test]
    fn recover_catches_up_from_snapshot_and_reclaims_leadership() {
        let mut rsm = Rsm::new(RsmConfig::new(Pi::new(3)).with_batch_ops(4).with_seed(5))
            .expect("config fits");
        for r in 0..8u64 {
            rsm.submit(
                r,
                Command::Put {
                    key: r,
                    val: r + 100,
                },
            );
        }
        // Kill the leader mid-slot (re-arming past fast decides, as in
        // the healing test), then drain so the survivors pull ahead.
        let mut extra = 100u64;
        for round in 0.. {
            assert!(round < 50, "no slot ever witnessed the kill");
            if rsm.is_drained() {
                rsm.submit(
                    extra,
                    Command::Put {
                        key: extra,
                        val: extra,
                    },
                );
                extra += 1;
            }
            let out = rsm
                .run_slot_threaded(Some(10))
                .unwrap_or_else(|| panic!("slot failed: {:?}", rsm.failures()));
            if out.killed.is_some() {
                break;
            }
        }
        while !rsm.is_drained() {
            rsm.run_slot_threaded(None)
                .unwrap_or_else(|| panic!("healing slot failed: {:?}", rsm.failures()));
        }
        let behind = rsm.replica(Loc(0)).log.len();
        let ahead = rsm.replica(Loc(1)).log.len();
        assert!(behind < ahead, "the dead replica missed at least one slot");
        // Rejoin: snapshot-restore plus log catch-up, certified by the
        // apply-order checker.
        let caught = rsm.recover(Loc(0)).expect("Loc(0) was crashed");
        assert_eq!(caught, ahead - behind);
        assert!(rsm.crashed().is_empty());
        assert_eq!(
            rsm.leader(),
            Some(Loc(0)),
            "the lowest location is live again, so Ω's canonical leader returns"
        );
        assert_eq!(rsm.replica(Loc(0)).log, rsm.replica(Loc(1)).log);
        assert_eq!(
            rsm.replica(Loc(0)).kv.snapshot_bytes(),
            rsm.replica(Loc(1)).kv.snapshot_bytes(),
            "snapshot restore is byte-for-byte"
        );
        // Recovering a live replica is a no-op.
        assert!(rsm.recover(Loc(0)).is_none());
        // The recovered replica participates in later slots.
        rsm.submit(777, Command::Put { key: 777, val: 7 });
        while !rsm.is_drained() {
            rsm.run_slot_threaded(None)
                .unwrap_or_else(|| panic!("post-recovery slot failed: {:?}", rsm.failures()));
        }
        assert!(rsm.failures().is_empty(), "{:?}", rsm.failures());
        rsm.conformance().expect("catch-up applies are dense");
        rsm.check_agreement()
            .expect("replicas agree after recovery");
        assert_eq!(
            rsm.replica(Loc(0)).log.len(),
            rsm.replica(Loc(2)).log.len(),
            "the recovered replica applied the post-recovery slots too"
        );
        assert_eq!(rsm.read(777), Some(7));
    }
}
