//! `sim-suite`: the paper's own evaluation path. The seeded simulator
//! produces schedules and the batch checkers judge them, all on one
//! thread — `ioa`, `system`, `core` and `algorithms` do the work and
//! `runtime`, `net` and `rsm` none. Deterministic: every repetition
//! must produce the same schedules, checked by hash.

use std::time::Instant;

use afd_algorithms::consensus::{all_live_decided, check_consensus_run, paxos_system};
use afd_algorithms::{bounded_evp_system, check_self_implementation, self_impl_system};
use afd_core::afds::{EvPerfect, Omega};
use afd_core::automata::FdGen;
use afd_core::{AfdSpec, Loc, Pi};
use afd_obs::Json;
use afd_runtime::fd_projection;
use afd_system::{run_random, FaultPattern, SimConfig};

use super::{repeat_for, schedule_hash, Ctx, Outcome, SystemKind, SETUP_REPEATS};

/// Steps of the `A_self(Ω)` and bounded-◇P parts.
const LONG_STEPS: usize = 200_000;
/// Seeds the Paxos part runs to decision.
const PAXOS_SEEDS: u64 = 200;
/// Step cap of one Paxos run; every seed must decide well before it.
const PAXOS_MAX_STEPS: usize = 20_000;

/// What one repetition produced.
struct Rep {
    events: u64,
    hash: u64,
    failures: Vec<String>,
    omega_schedule: Vec<afd_core::Action>,
}

/// One repetition: the three parts back to back. `scale` shrinks the
/// step counts (the warm-up runs at 1/10).
fn rep(ctx: &mut Ctx<'_>, scale: usize) -> Rep {
    let mut failures = Vec::new();
    let mut hash = 0u64;
    let mut events = 0u64;
    let steps = LONG_STEPS / scale;

    // Theorem 13: A_self(Ω), n = 8, one crash half-way through.
    let pi = Pi::new(8);
    let victim = victim(ctx);
    let sys = ctx.tracer.call("system", "self_impl_system", || {
        self_impl_system(pi, FdGen::omega(pi), vec![victim])
    });
    let seed = ctx.derive(1);
    let out = ctx.tracer.call("system", "run_random", || {
        let cfg = SimConfig::default()
            .with_faults(FaultPattern::at(vec![(steps / 2, victim)]))
            .with_max_steps(steps);
        run_random(&sys, seed, cfg)
    });
    let verdict = ctx
        .tracer
        .call("algorithms", "check_self_implementation", || {
            check_self_implementation(&Omega, pi, out.schedule())
        });
    if verdict != Ok(true) {
        failures.push(format!("A_self(Ω) n=8: Theorem 13 verdict {verdict:?}"));
    }
    if out.schedule().len() != steps {
        failures.push(format!(
            "A_self(Ω) n=8: {} of {steps} steps",
            out.schedule().len()
        ));
    }
    events += out.schedule().len() as u64;
    hash ^= schedule_hash(out.schedule());
    let omega_schedule = out.execution.actions;

    // Bounded-message ◇P heartbeat, n = 3, crash-free.
    let pi = Pi::new(3);
    let sys = ctx.tracer.call("system", "bounded_evp_system", || {
        bounded_evp_system(pi, vec![])
    });
    let seed = ctx.derive(2);
    let out = ctx.tracer.call("system", "run_random", || {
        run_random(&sys, seed, SimConfig::default().with_max_steps(steps))
    });
    let verdict = ctx.tracer.call("core", "EvPerfect::check_complete", || {
        EvPerfect.check_complete(pi, &fd_projection(out.schedule()))
    });
    if let Err(v) = verdict {
        failures.push(format!("bounded ◇P n=3: not in T_◇P: {v}"));
    }
    events += out.schedule().len() as u64;
    hash = hash.rotate_left(1) ^ schedule_hash(out.schedule());

    // Paxos(Ω), n = 5, many seeds to decision (§9.3).
    let pi = Pi::new(5);
    let base = ctx.derive(3);
    let values: Vec<u64> = (0..5).map(|i| (base >> i) & 1).collect();
    let sys = ctx.tracer.call("system", "paxos_system", || {
        paxos_system(pi, &values, vec![])
    });
    for s in 0..PAXOS_SEEDS / scale as u64 {
        let out = ctx.tracer.call("system", "run_random", || {
            let cfg = SimConfig::default()
                .with_max_steps(PAXOS_MAX_STEPS)
                .stop_when(move |sched| all_live_decided(pi, sched));
            run_random(&sys, base.wrapping_add(s), cfg)
        });
        let verdict = ctx.tracer.call("algorithms", "check_consensus_run", || {
            check_consensus_run(pi, 2, out.schedule())
        });
        match verdict {
            Ok(Some(v)) if values.contains(&v) && all_live_decided(pi, out.schedule()) => {}
            other => failures.push(format!("paxos n=5 seed {s}: verdict {other:?}")),
        }
        events += out.schedule().len() as u64;
        hash = hash.rotate_left(1) ^ schedule_hash(out.schedule());
    }

    Rep {
        events,
        hash,
        failures,
        omega_schedule,
    }
}

/// The location whose crash the `A_self` part scripts.
fn victim(ctx: &Ctx<'_>) -> Loc {
    Loc((ctx.derive(0) % 8) as u8)
}

/// Run the workload.
pub fn run(ctx: &mut Ctx<'_>) -> Outcome {
    let mut o = Outcome::default();
    let tracing = ctx.tracer.set_enabled(false);
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let warm = rep(ctx, 10);
        o.e2e.setup_s.push(t.elapsed().as_secs_f64());
        for f in warm.failures {
            o.failures.push(format!("warm-up: {f}"));
        }
    }
    ctx.tracer.set_enabled(tracing);

    let mut first_hash = None;
    let mut walls_ms = Vec::new();
    let budget = ctx.budget();
    let starts = repeat_for(budget, 3, |k| {
        ctx.tracer.set_rep(k);
        o.recorded = None; // free the previous schedule before the next is built
        let span = ctx.tracer.enter("bench", "rep");
        let t = Instant::now();
        let r = rep(ctx, 1);
        let dt = t.elapsed();
        ctx.tracer.exit(span);
        o.attempted += r.events;
        o.timed_ns += dt.as_nanos() as u64;
        o.timed_units += r.events;
        o.e2e.events_per_s.push(r.events as f64 / dt.as_secs_f64());
        walls_ms.push(dt.as_secs_f64() * 1e3);
        if *first_hash.get_or_insert(r.hash) != r.hash {
            o.fail(
                r.events,
                format!("rep {k}: schedule hash differs from rep 0"),
            );
        } else if !r.failures.is_empty() {
            o.fail(r.events, format!("rep {k}: {}", r.failures.join("; ")));
        }
        o.recorded = Some((
            SystemKind::SelfImplOmega8 {
                victim: victim(ctx),
            },
            r.omega_schedule,
        ));
    });
    o.e2e.of_reps(&walls_ms, &starts);
    o.note("reps", Json::Num(walls_ms.len() as f64));
    o.note("workers", Json::Num(1.0));
    o.note("transport", Json::Str("none (simulator)".into()));
    o.note(
        "schedule_hash",
        Json::Str(format!("{:016x}", first_hash.unwrap_or(0))),
    );
    o
}
