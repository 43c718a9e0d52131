//! `benchmark compare` and `benchmark verify`: the tools that hold the
//! benchmark to its contract.
//!
//! `compare A.json B.json` reads two result documents written by
//! `run --out` and prints one row per workload × end-to-end metric:
//! how much worse B is than A, relative to A, against the metric's
//! bound in `BENCHMARK.json`. It exits non-zero when any row is beyond
//! its bound. Run it both ways round for the two-set agreement
//! criterion (neither set may be worse than the other beyond the
//! bound); run it once, parent first, for a before/after check. On a
//! shared host a single 15 s run can be 20% off for reasons that are
//! not the program's: compare documents written with `run --runs 10`,
//! whose values are medians over ten seeds.
//!
//! `verify` runs every workload at 1/20 size, tracing off and on, and
//! checks the outputs against `BENCHMARK.json`: every named metric
//! present and no other, names and units well-formed, counts within
//! the contract's limits, and the file itself identical to what
//! `benchmark spec` prints.

use std::process::{Command, ExitCode};

use afd_obs::Json;

use crate::spec::{self, valid_name, valid_unit};

/// Render `j` with one top-level member (and one array element) per
/// line — compact enough to diff, readable enough to review.
#[must_use]
pub fn pretty(j: &Json) -> String {
    let Json::Obj(members) = j else {
        return j.render();
    };
    let mut out = String::from("{\n");
    for (i, (k, v)) in members.iter().enumerate() {
        out.push_str(&format!("  {}: ", afd_obs::json::escape(k)));
        match v {
            Json::Arr(items) if items.iter().any(|x| matches!(x, Json::Obj(_))) => {
                out.push_str("[\n");
                for (n, item) in items.iter().enumerate() {
                    out.push_str("    ");
                    out.push_str(&item.render());
                    out.push_str(if n + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str("  ]");
            }
            other => out.push_str(&other.render()),
        }
        out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
    }
    out.push('}');
    out
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(name, unit, better, bound)` of every end-to-end metric in a
/// `BENCHMARK.json` document.
fn spec_e2e(spec: &Json) -> Result<Vec<(String, String, bool, f64)>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Some((
                s("name")?,
                s("unit")?,
                s("better")? == "lower",
                m.get("bound")?.as_num()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry".to_string())
}

fn spec_names(spec: &Json, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
        .collect()
}

/// Split `--spec FILE` off a positional argument list.
fn split_spec(args: &[String]) -> Result<(Vec<&String>, String), String> {
    let mut positional = Vec::new();
    let mut spec = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            spec = it.next().ok_or("--spec needs a value")?.clone();
        } else {
            positional.push(a);
        }
    }
    Ok((positional, spec))
}

/// One comparison row: how much worse `b` is than `a`, as a share of
/// `a` (negative = better).
#[must_use]
pub fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    let change = (b - a) / a.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

fn compare(a: &Json, b: &Json, spec: &Json) -> Result<bool, String> {
    let metrics = spec_e2e(spec)?;
    let workloads = spec_names(spec, "workloads");
    let value = |doc: &Json, w: &str, m: &str| {
        doc.get("workloads")?
            .get(w)?
            .get("metrics")?
            .get(m)?
            .get("value")?
            .as_num()
    };
    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B worse", "bound"
    );
    let mut ok = true;
    let mut rows = 0;
    for w in &workloads {
        for (m, unit, lower, bound) in &metrics {
            let (Some(va), Some(vb)) = (value(a, w, m), value(b, w, m)) else {
                continue;
            };
            rows += 1;
            let worse = worse_by(va, vb, *lower);
            let within = worse <= *bound;
            ok &= within;
            println!(
                "{w:<20} {m:<20} {va:>14.4} {vb:>14.4} {:>+8.1}% {:>6.0}%  {} ({unit})",
                worse * 100.0,
                bound * 100.0,
                if within { "ok" } else { "BEYOND BOUND" }
            );
        }
    }
    if rows == 0 {
        return Err("the two documents share no workload × end-to-end metric".into());
    }
    for (label, doc) in [("A", a), ("B", b)] {
        for w in &workloads {
            let correct = doc
                .get("workloads")
                .and_then(|ws| ws.get(w))
                .and_then(|r| r.get("correct"));
            if correct == Some(&Json::Bool(false)) {
                println!("{label}: workload {w} failed its checks");
                ok = false;
            }
        }
    }
    Ok(ok)
}

/// `benchmark compare A.json B.json [--spec FILE]`.
pub fn cmd_compare(args: &[String]) -> ExitCode {
    let run = || -> Result<bool, String> {
        let (files, spec) = split_spec(args)?;
        let [a, b] = files[..] else {
            return Err("compare takes exactly two result files".into());
        };
        compare(&load(a)?, &load(b)?, &load(&spec)?)
    };
    match run() {
        Ok(true) => {
            println!("B is within every bound of A");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("B is beyond a bound of A");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// Check a `BENCHMARK.json` document against the contract's own limits.
fn check_spec(doc: &Json) -> Vec<String> {
    let mut bad = Vec::new();
    let Json::Obj(members) = doc else {
        return vec!["BENCHMARK.json is not an object".into()];
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    let mut want = vec![
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    let mut have = keys.clone();
    want.sort_unstable();
    have.sort_unstable();
    if want != have {
        bad.push(format!("keys are {keys:?}, not exactly {want:?}"));
    }
    let count = |key: &str| doc.get(key).and_then(Json::as_arr).map_or(0, <[Json]>::len);
    for (key, lo, hi) in [
        ("workloads", 2, 8),
        ("end_to_end", 1, 16),
        ("per_layer", 1, 128),
        ("paths", 1, 16),
        ("command", 1, 32),
    ] {
        let n = count(key);
        if n < lo || n > hi {
            bad.push(format!("{key} has {n} entries, outside {lo}..={hi}"));
        }
    }
    let mut seen = std::collections::BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("");
            if !valid_name(name) {
                bad.push(format!("{key}: bad name {name:?}"));
            }
            if !seen.insert(name.to_string()) {
                bad.push(format!("{key}: name {name:?} is used twice"));
            }
            if key != "workloads" {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                if !valid_unit(unit) {
                    bad.push(format!("{key}: {name} has bad unit {unit:?}"));
                }
                let better = m.get("better").and_then(Json::as_str).unwrap_or("");
                if better != "lower" && better != "higher" {
                    bad.push(format!("{key}: {name} has bad direction {better:?}"));
                }
            }
            let bound = m.get("bound").and_then(Json::as_num);
            match (key, bound) {
                ("end_to_end", Some(b)) if b > 0.0 && b <= 0.25 => {}
                ("end_to_end", b) => bad.push(format!("{name}: bound {b:?} outside (0, 0.25]")),
                (_, Some(_)) => bad.push(format!("{key}: {name} must not carry a bound")),
                _ => {}
            }
        }
    }
    if doc.render().len() > 64 * 1024 {
        bad.push("BENCHMARK.json is larger than 64 KiB".into());
    }
    if *doc != spec::benchmark_json() {
        bad.push("BENCHMARK.json differs from what `benchmark spec` prints".into());
    }
    bad
}

/// Check one driver result line against the metric names it must hold.
fn check_result(line: &str, want: &[String]) -> Vec<String> {
    let mut bad = Vec::new();
    let Ok(doc) = Json::parse(line) else {
        return vec![format!("last line is not JSON: {line:.80}")];
    };
    let Json::Obj(members) = &doc else {
        return vec!["result is not an object".into()];
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        bad.push(format!("result keys are {keys:?}"));
    }
    if doc.get("correct") != Some(&Json::Bool(true)) {
        bad.push("correct is not true".into());
    }
    let whole = |k: &str| {
        doc.get(k)
            .and_then(Json::as_num)
            .filter(|v| v.fract() == 0.0)
    };
    if whole("attempted").is_none_or(|v| v < 1.0) {
        bad.push("attempted is not a whole number ≥ 1".into());
    }
    if whole("failed") != Some(0.0) {
        bad.push(format!("failed is {:?}, not 0", doc.get("failed")));
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        bad.push("metrics is not an object".into());
        return bad;
    };
    let have: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    for w in want {
        if !have.contains(&w.as_str()) {
            bad.push(format!("metric {w} is missing"));
        }
    }
    for (name, m) in metrics {
        if !want.contains(name) {
            bad.push(format!("metric {name} is not in BENCHMARK.json"));
        }
        if !valid_name(name) {
            bad.push(format!("bad metric name {name:?}"));
        }
        let value = m.get("value").and_then(Json::as_num);
        if !value.is_some_and(f64::is_finite) {
            bad.push(format!("{name}: value {value:?} is not a finite number"));
        }
        if !m.get("unit").and_then(Json::as_str).is_some_and(valid_unit) {
            bad.push(format!("{name}: bad unit"));
        }
    }
    bad
}

/// `benchmark verify [--spec FILE]`.
pub fn cmd_verify(args: &[String]) -> ExitCode {
    let spec_path = match split_spec(args) {
        Ok((positional, spec)) if positional.is_empty() => spec,
        _ => {
            eprintln!("usage: benchmark verify [--spec BENCHMARK.json]");
            return ExitCode::from(2);
        }
    };
    let doc = match load(&spec_path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("benchmark verify: {e}");
            return ExitCode::from(2);
        }
    };
    let mut bad = check_spec(&doc);
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot find this executable");
        return ExitCode::FAILURE;
    };
    let seconds = spec::RUN_SECONDS as f64 / 20.0;
    for w in spec_names(&doc, "workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let t = std::time::Instant::now();
            let out = Command::new(&exe)
                .args(["run", "--workload", &w, "--seed", "7"])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .output();
            let problems = match out {
                Err(e) => vec![format!("could not run: {e}")],
                Ok(o) => {
                    let stdout = String::from_utf8_lossy(&o.stdout);
                    let last = stdout.lines().last().unwrap_or("");
                    let mut p = check_result(last, &spec_names(&doc, key));
                    if !o.status.success() {
                        p.push(format!("exit status {}", o.status));
                        p.extend(
                            stdout
                                .lines()
                                .filter(|l| l.contains("FAILED"))
                                .map(|l| l.trim().to_string()),
                        );
                    }
                    p
                }
            };
            println!(
                "{w:<20} --trace {trace}: {} ({:.1} s)",
                if problems.is_empty() { "ok" } else { "FAILED" },
                t.elapsed().as_secs_f64()
            );
            bad.extend(
                problems
                    .into_iter()
                    .map(|p| format!("{w} --trace {trace}: {p}")),
            );
        }
    }
    for b in &bad {
        println!("FAILED: {b}");
    }
    if bad.is_empty() {
        println!("benchmark verify: outputs match {spec_path}");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 80.0, false) - 0.20).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, true), 0.0);
        assert_eq!(worse_by(0.0, 1.0, true), f64::INFINITY);
    }

    #[test]
    fn the_generated_spec_passes_its_own_check() {
        let doc = spec::benchmark_json();
        assert_eq!(check_spec(&doc), Vec::<String>::new());
        // And survives a render → parse round trip unchanged.
        assert_eq!(Json::parse(&pretty(&doc)).unwrap(), doc);
    }

    #[test]
    fn spec_check_catches_drift() {
        let Json::Obj(mut members) = spec::benchmark_json() else {
            unreachable!()
        };
        members.push(("extra".into(), Json::Null));
        let bad = check_spec(&Json::Obj(members));
        assert!(bad.iter().any(|b| b.contains("keys are")));
    }

    #[test]
    fn result_check_names_what_is_wrong() {
        let want = vec!["setup_s".to_string(), "events_per_s".to_string()];
        let good = r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"},"events_per_s":{"value":9.5,"unit":"1/s"}}}"#;
        assert_eq!(check_result(good, &want), Vec::<String>::new());
        let missing = r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#;
        assert!(check_result(missing, &want)[0].contains("events_per_s is missing"));
        let failed = good.replace("\"failed\":0", "\"failed\":3");
        assert!(check_result(&failed, &want)[0].contains("failed is"));
        assert!(check_result("not json", &want)[0].contains("not JSON"));
    }

    #[test]
    fn compare_flags_only_rows_beyond_their_bound() {
        let spec = spec::benchmark_json();
        let doc = |eps: f64, p50: f64| {
            Json::parse(&format!(
                r#"{{"workloads":{{"sim-suite":{{"correct":true,"metrics":{{"events_per_s":{{"value":{eps}}},"op_latency_ms_p50":{{"value":{p50}}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let a = doc(1000.0, 10.0);
        assert_eq!(compare(&a, &doc(950.0, 10.5), &spec), Ok(true));
        assert_eq!(compare(&a, &doc(750.0, 10.0), &spec), Ok(false)); // −25% throughput
        assert_eq!(compare(&a, &doc(1000.0, 12.5), &spec), Ok(false)); // +25% latency
        assert_eq!(compare(&a, &doc(2000.0, 5.0), &spec), Ok(true)); // better is fine
        assert!(compare(&a, &Json::Obj(vec![]), &spec).is_err());
    }
}
