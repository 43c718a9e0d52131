//! The repository's benchmark.
//!
//! ```text
//! benchmark run     [--workload W] [--seed S] [--seconds X] [--trace 0|1] [--runs N] [--out FILE]
//! benchmark trace   [--workload W] [--seed S] [--seconds X] [--runs N] [--out FILE]
//! benchmark compare A.json B.json [--spec BENCHMARK.json]
//! benchmark verify  [--spec BENCHMARK.json]
//! benchmark spec
//! ```
//!
//! `run` drives the workloads with tracing off and prints every
//! end-to-end metric by name, with unit, bound and sample counts;
//! `trace` (= `run --trace 1`) repeats a workload at quarter length
//! with spans around every call into a layer, runs the per-layer cost
//! ladder, and prints every per-layer metric with the residual. Every
//! output is checked; any failed check makes the exit code non-zero.
//! With `--workload` the last line of standard output is the result
//! object the benchmark driver reads. Without it every workload runs
//! in a process of its own (so `peak_rss_mb` belongs to one workload).
//! `--runs N` repeats each workload with seeds S, S+1, … and reports the
//! median run with the run-to-run spread beside each bound — the rule
//! the benchmark is accepted by.
//!
//! The binary is also its own node executable: the distributed
//! workloads respawn `current_exe()`, and `maybe_serve_from_env`
//! diverts those children into node duty before anything else runs.

mod compare;
mod hygiene;
mod ladder;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use afd_obs::Json;

use report::WorkloadReport;
use trace::Tracer;
use workloads::Ctx;

/// Parsed command line of `run` / `trace`.
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    out: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark run|trace [--workload W] [--seed S] [--seconds X] [--trace 0|1] [--runs N] [--out FILE]\n       \
         benchmark compare A.json B.json [--spec BENCHMARK.json]\n       \
         benchmark verify [--spec BENCHMARK.json]\n       \
         benchmark spec\nworkloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn parse_run_args(args: &[String], trace: bool) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if spec::workload(w).is_none() {
                    return Err(format!("unknown workload {w}"));
                }
                r.workload = Some(w.clone());
            }
            "--seed" => r.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                r.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(r.seconds > 0.0 && r.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                r.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                r.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&r.runs) {
                    return Err("--runs must be in 1..=100".into());
                }
            }
            "--out" => r.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(r)
}

/// Where build outputs live: the directory above the profile directory
/// this executable runs from (`<target-dir>/release/benchmark`).
fn target_dir() -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.parent()?.to_path_buf())
}

/// Run one workload in this process.
fn run_one(name: &str, a: &RunArgs) -> WorkloadReport {
    let _guard = hygiene::ChildGuard;
    let node_exe = std::env::current_exe()
        .map(|p| p.to_string_lossy().into_owned())
        .unwrap_or_default();
    if !a.trace {
        let mut tracer = Tracer::new(false);
        let mut ctx = Ctx {
            seed: a.seed,
            seconds: a.seconds,
            tracer: &mut tracer,
            node_exe,
        };
        let o = workloads::run(name, &mut ctx).expect("workload names are validated");
        return WorkloadReport {
            workload: name.into(),
            traced: false,
            correct: o.failures.is_empty() && o.failed == 0,
            attempted: o.attempted,
            failed: o.failed,
            metrics: report::end_to_end(&o),
            failures: o.failures,
            info: o.info,
        };
    }
    let traced = ladder::traced_run(name, a.seed, a.seconds, &node_exe);
    if let Some(dir) = target_dir() {
        let path = dir.join(format!("trace-{name}.json"));
        match std::fs::write(&path, traced.chrome_trace.render()) {
            Ok(()) => println!("chrome trace: {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    traced.report
}

fn result_doc(a: &RunArgs, workloads: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str("afd-benchmark/1".into())),
        ("host".into(), report::host_json()),
        ("seed".into(), Json::Num(a.seed as f64)),
        ("seconds".into(), Json::Num(a.seconds)),
        ("trace".into(), Json::Bool(a.trace)),
        ("runs".into(), Json::Num(a.runs as f64)),
        ("injected_delay_ms".into(), Json::Num(0.0)),
        ("workloads".into(), Json::Obj(workloads)),
    ])
}

fn write_out(a: &RunArgs, doc: &Json) -> bool {
    let Some(path) = &a.out else { return true };
    match std::fs::write(path, doc.render() + "\n") {
        Ok(()) => true,
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            false
        }
    }
}

/// One workload run in a child process; its record from the result
/// document the child wrote.
fn run_child(exe: &std::path::Path, w: &str, seed: u64, a: &RunArgs) -> Option<Json> {
    let tmp = target_dir()
        .unwrap_or_else(std::env::temp_dir)
        .join(format!("afd-benchmark-{}.json", std::process::id()));
    let status = std::process::Command::new(exe)
        .arg("run")
        .args(["--workload", w])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&tmp)
        .stdout(if a.runs > 1 {
            std::process::Stdio::null()
        } else {
            std::process::Stdio::inherit()
        })
        .status();
    let doc = std::fs::read_to_string(&tmp)
        .ok()
        .and_then(|s| Json::parse(&s).ok());
    let _ = std::fs::remove_file(&tmp);
    if !status.is_ok_and(|s| s.success()) {
        eprintln!("workload {w}, seed {seed}: the run failed its checks or did not finish");
    }
    doc?.get("workloads")?.get(w).cloned()
}

/// Fold the records of several runs of one workload into one: every
/// metric's value is the median run, with the quartiles over runs and
/// their distance as a share of the median (`spread`) beside it.
fn merge_runs(w: &str, runs: &[Json]) -> Json {
    let num = |r: &Json, k: &str| r.get(k).and_then(Json::as_num).unwrap_or(0.0);
    let mut metrics = Vec::new();
    println!("\n## {w}: median of {} runs", runs.len());
    println!(
        "  {:<34} {:>14} {:<6} {:>8} {:>6}  {:>12} {:>12}",
        "metric", "median", "unit", "spread", "bound", "min", "max"
    );
    if let Some(Json::Obj(first)) = runs.first().and_then(|r| r.get("metrics")) {
        for (name, m) in first {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_num())
                .collect();
            let Some(s) = stats::Summary::of(&values) else {
                continue;
            };
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(Json::as_num);
            println!(
                "  {name:<34} {:>14.4} {unit:<6} {:>7.2}% {:>6}  {:>12.4} {:>12.4}",
                s.median,
                s.spread() * 100.0,
                bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
                s.min,
                s.max
            );
            let mut o = vec![
                ("value".to_string(), Json::Num(s.median)),
                ("unit".to_string(), Json::Str(unit.into())),
            ];
            o.extend(bound.map(|b| ("bound".to_string(), Json::Num(b))));
            for (k, v) in [
                ("n", s.n as f64),
                ("q1", s.q1),
                ("q3", s.q3),
                ("spread", s.spread()),
            ] {
                o.push((k.into(), Json::Num(v)));
            }
            o.push((
                "runs".into(),
                Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
            ));
            metrics.push((name.clone(), Json::Obj(o)));
        }
    }
    Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(
                runs.iter()
                    .all(|r| r.get("correct") == Some(&Json::Bool(true))),
            ),
        ),
        (
            "attempted".into(),
            Json::Num(runs.iter().map(|r| num(r, "attempted")).sum()),
        ),
        (
            "failed".into(),
            Json::Num(runs.iter().map(|r| num(r, "failed")).sum()),
        ),
        ("metrics".into(), Json::Obj(metrics)),
        // Each run's facts (reps, late_share, cut_mistakes…), in seed order.
        (
            "info".into(),
            Json::Arr(runs.iter().filter_map(|r| r.get("info").cloned()).collect()),
        ),
    ])
}

fn cmd_run(a: &RunArgs) -> ExitCode {
    if let (Some(name), 1) = (&a.workload, a.runs) {
        println!(
            "benchmark: workload {name}, seed {}, {} s, tracing {}; injected message delay 0 \
             (loopback / in-memory)",
            a.seed,
            a.seconds,
            if a.trace { "on" } else { "off" }
        );
        println!("host: {}", report::host_json().render());
        let r = run_one(name, a);
        r.print();
        let wrote = write_out(a, &result_doc(a, vec![(name.clone(), r.full_json())]));
        if !r.correct || !wrote {
            return ExitCode::FAILURE;
        }
        // The driver reads the last line of standard output.
        println!("{}", r.driver_json().render());
        return ExitCode::SUCCESS;
    }
    // Several workloads or several runs: each run in a process of its own.
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot find this executable");
        return ExitCode::FAILURE;
    };
    let mut docs = Vec::new();
    let mut ok = true;
    for w in spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|w| a.workload.as_deref().is_none_or(|only| only == *w))
    {
        let runs: Vec<Json> = (0..a.runs)
            .filter_map(|k| run_child(&exe, w, a.seed + k, a))
            .collect();
        ok &= runs.len() as u64 == a.runs
            && runs
                .iter()
                .all(|r| r.get("correct") == Some(&Json::Bool(true)));
        if a.runs == 1 {
            docs.extend(runs.into_iter().map(|r| (w.to_string(), r)));
        } else if !runs.is_empty() {
            docs.push((w.to_string(), merge_runs(w, &runs)));
        }
    }
    ok &= write_out(a, &result_doc(a, docs));
    println!(
        "\n{}",
        if ok {
            "every run finished and every check passed"
        } else {
            "SOME RUNS FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Pin glibc malloc's mmap threshold at its initial 128 KiB. Left
/// alone, glibc raises the threshold (up to 32 MiB) the first time a
/// large block is freed; from then on schedule-sized vectors live on
/// the brk heap, and whether a freed one can be reused depends on which
/// small allocations happen to sit above it. `VmHWM` then jumps by one
/// whole schedule (10.5 MB) on some seeds and not on others — sim-suite
/// read 52.6–64.1 MB over twelve seeds, 49.1–49.4 MB with the threshold
/// pinned — while the timings do not move. Node processes keep the
/// default; they are not part of `peak_rss_mb`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only stores a tunable of the allocator; it is
    // called once, before this process has started any thread.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    if ok != 1 {
        eprintln!("benchmark: mallopt(M_MMAP_THRESHOLD) refused; peak_rss_mb will be noisier");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    // Distributed workloads respawn this binary as their node
    // processes; if the environment says we are one, serve and exit.
    if afd_net::maybe_serve_from_env() {
        return ExitCode::SUCCESS;
    }
    pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    match cmd.as_str() {
        "run" | "trace" => match parse_run_args(rest, cmd == "trace") {
            Ok(a) => cmd_run(&a),
            Err(e) => {
                eprintln!("benchmark {cmd}: {e}");
                usage()
            }
        },
        "compare" => compare::cmd_compare(rest),
        "verify" => compare::cmd_verify(rest),
        "spec" => {
            println!("{}", compare::pretty(&spec::benchmark_json()));
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
