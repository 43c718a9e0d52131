//! The single death claim: however many threads observe a node's death
//! at once, exactly one of them contains it and books its respawn, and
//! attaching the next incarnation re-arms the claim.

use std::sync::Barrier;

use super::*;
use crate::deploy::{visit_system, FdKindSpec};

/// A connected loopback socket to attach as an incarnation's write
/// half (nothing is written to it here).
fn stream() -> TcpStream {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    TcpStream::connect(listener.local_addr().expect("addr")).expect("connect")
}

/// Races the incarnation's reader (`sigkill: false`) against the
/// injector's Kill arm (`sigkill: true`) on node 0, for incarnations 0,
/// 1 and 2 in turn.
struct RaceDeaths;

impl SystemVisitor for RaceDeaths {
    type Out = ();

    fn visit<P>(self, sys: &afd_system::System<P>)
    where
        P: Automaton<Action = Action> + Sync,
        P::State: Send,
    {
        let kinds = sys.component_kinds();
        let sink = EventSink::with_options(SinkOptions::default());
        let slots = [NodeSlot::new(vec![Loc(0), Loc(2)])];
        let policy = RecoveryPolicy {
            max_respawns: 8,
            ..RecoveryPolicy::default()
        };
        let plane = RecoveryPlane::new(policy, 7, Instant::now());
        let fabric = Fabric {
            owner: vec![None; kinds.len()],
            dgram_skip: vec![false; kinds.len()],
            sink: &sink,
            slots: &slots,
            plane: Some(&plane),
        };
        let rcfg = RuntimeConfig::default();
        let comps = sys.composition.components();
        let eng: CoordEngine<'_, P> = Engine::new(comps, &kinds, |_| false, &fabric, &rcfg);

        assert!(!node_down(&eng, 0, false), "nothing attached yet");
        for epoch in 0..3u32 {
            slots[0].attach(epoch, stream());
            assert_eq!(slots[0].attached_epoch(), Some(epoch));
            // Both observers report the death at the same instant.
            let start = Barrier::new(2);
            let claims = thread::scope(|s| {
                [false, true]
                    .map(|sigkill| {
                        let (eng, start) = (&eng, &start);
                        s.spawn(move || {
                            start.wait();
                            node_down(eng, 0, sigkill)
                        })
                    })
                    .map(|racer| racer.join().expect("racer"))
            });
            assert_eq!(
                claims.iter().filter(|&&won| won).count(),
                1,
                "epoch {epoch}"
            );
            assert_eq!(slots[0].attached_epoch(), None);
            assert!(
                !node_down(&eng, 0, true),
                "a late observer finds it claimed"
            );
            // One claim, one respawn on the books.
            assert_eq!(slots[0].respawns.load(Ordering::SeqCst), epoch + 1);
            assert_eq!(plane.lock().jobs.len(), epoch as usize + 1);
        }
        assert!(slots[0].killed.load(Ordering::SeqCst));

        // Containment ran once: each hosted location crashed exactly once.
        drop(eng);
        sink.flush();
        let (schedule, _) = sink.into_log();
        assert_eq!(schedule, [Action::Crash(Loc(0)), Action::Crash(Loc(2))]);
    }
}

#[test]
fn a_death_is_claimed_exactly_once_per_live_period() {
    let spec = DeploymentSpec::SelfImpl {
        n: 3,
        fd: FdKindSpec::Omega,
    };
    visit_system(&spec, RaceDeaths);
}
