//! Bench C1: the commit pipeline in isolation.
//!
//! Two groups:
//! * `commit_batch` — single-producer lock amortization: the same
//!   event count committed via `try_commit_batch` at batch sizes
//!   1/4/16/64;
//! * `checker` — streaming vs batch checker cost on a recorded
//!   schedule: one full batch pass, one stream pass, the quadratic
//!   re-scan a slice stop predicate pays at interval 16, and the O(1)
//!   incremental predicate at interval 1.
//!
//! Set `SMOKE=1` to shrink measurement time for CI smoke runs.

use std::time::Duration;

use afd_algorithms::consensus::{all_live_decided, all_live_decided_stream};
use afd_algorithms::self_impl::self_impl_system;
use afd_core::afds::Omega;
use afd_core::automata::FdGen;
use afd_core::{Action, AfdSpec, Loc, Msg, Pi, StreamChecker};
use afd_runtime::{Commit, EventSink};
use afd_system::{run_round_robin, RunStats, RunStatsStream, SimConfig};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn smoke() -> bool {
    std::env::var("SMOKE").is_ok()
}

fn tune(g: &mut criterion::BenchmarkGroup) {
    if smoke() {
        g.sample_size(10);
        g.measurement_time(Duration::from_millis(300));
        g.warm_up_time(Duration::from_millis(100));
    } else {
        g.sample_size(15);
        g.measurement_time(Duration::from_secs(2));
        g.warm_up_time(Duration::from_millis(400));
    }
}

fn bench_commit_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("commit_batch");
    tune(&mut g);
    let events = if smoke() { 4_000 } else { 20_000 };
    g.throughput(Throughput::Elements(events as u64));
    for batch in [1usize, 4, 16, 64] {
        g.bench_with_input(
            BenchmarkId::new("single_producer", batch),
            &batch,
            |b, &k| {
                b.iter(|| {
                    let sink = EventSink::new(events, 16, None);
                    let chunk: Vec<Action> = (0..k as u64)
                        .map(|j| Action::Send {
                            from: Loc(0),
                            to: Loc(1),
                            msg: Msg::Token(j),
                        })
                        .collect();
                    let mut committed = 0usize;
                    while committed < events {
                        let (n, status) = sink.try_commit_batch(&chunk);
                        committed += n;
                        if status == Commit::Stopped && n == 0 {
                            break;
                        }
                    }
                    let (log, _) = sink.into_log();
                    assert_eq!(log.len(), events);
                });
            },
        );
    }
    g.finish();
}

fn bench_checkers(c: &mut Criterion) {
    let mut g = c.benchmark_group("checker");
    tune(&mut g);
    // A real schedule: A_self(Ω) at n = 4 under the simulator.
    let pi = Pi::new(4);
    let sys = self_impl_system(pi, FdGen::omega(pi), vec![]);
    let steps = if smoke() { 512 } else { 2_048 };
    let out = run_round_robin(&sys, SimConfig::default().with_max_steps(steps));
    let schedule = out.schedule().to_vec();
    let fd_trace: Vec<Action> = schedule
        .iter()
        .filter(|a| a.is_crash() || a.is_fd_output())
        .copied()
        .collect();
    g.throughput(Throughput::Elements(schedule.len() as u64));

    g.bench_with_input(
        BenchmarkId::new("run_stats_batch", schedule.len()),
        &schedule,
        |b, t| b.iter(|| RunStats::of(t)),
    );
    g.bench_with_input(
        BenchmarkId::new("run_stats_stream", schedule.len()),
        &schedule,
        |b, t| {
            b.iter(|| {
                let mut st = RunStatsStream::new();
                for a in t {
                    st.push(a);
                }
                st.finish()
            })
        },
    );
    g.bench_with_input(
        BenchmarkId::new("omega_batch", fd_trace.len()),
        &fd_trace,
        |b, t| b.iter(|| Omega.check_complete(pi, t).is_ok()),
    );
    g.bench_with_input(
        BenchmarkId::new("omega_stream", fd_trace.len()),
        &fd_trace,
        |b, t| {
            b.iter(|| {
                let mut s = Omega::stream(pi);
                for a in t {
                    s.push(a);
                }
                s.finish().is_ok()
            })
        },
    );
    // What a slice stop predicate pays: re-scan the growing prefix at
    // every 16th commit — quadratic in the schedule length.
    g.bench_with_input(
        BenchmarkId::new("stop_rescan_every_16", schedule.len()),
        &schedule,
        |b, t| {
            b.iter(|| {
                let mut fired = false;
                for k in (16..=t.len()).step_by(16) {
                    fired |= all_live_decided(pi, &t[..k]);
                }
                fired
            })
        },
    );
    // The incremental predicate at interval 1 — linear.
    g.bench_with_input(
        BenchmarkId::new("stop_stream_every_1", schedule.len()),
        &schedule,
        |b, t| {
            b.iter(|| {
                let mut pred = all_live_decided_stream(pi);
                let mut fired = false;
                for a in t {
                    fired |= pred(a);
                }
                fired
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench_commit_batch, bench_checkers);
criterion_main!(benches);
