//! Turning samples into named metrics, and metrics into output: the
//! human-readable table, the driver's last-line JSON object, and the
//! result document `compare` reads.

use afd_obs::Json;

use crate::spec::{MetricSpec, END_TO_END};
use crate::stats::{samples_beyond, Summary};
use crate::workloads::Outcome;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Its specification (name, unit, direction, bound).
    pub spec: &'static MetricSpec,
    /// The reported value.
    pub value: f64,
    /// Distribution of the samples behind it.
    pub summary: Option<Summary>,
    /// For a percentile taken per window: how many of a window's
    /// samples lie beyond it.
    pub beyond: Option<usize>,
    /// The samples themselves, in measurement order, when there are
    /// few enough to print (one per repetition, not one per op).
    pub samples: Vec<f64>,
}

/// Sample sets up to this size are written out in full.
const KEEP_SAMPLES: usize = 512;

fn keep(samples: &[f64]) -> Vec<f64> {
    if samples.len() <= KEEP_SAMPLES {
        samples.to_vec()
    } else {
        Vec::new()
    }
}

impl Metric {
    /// A metric whose value is the median of `samples` (0 if none).
    #[must_use]
    pub fn from_samples(spec: &'static MetricSpec, samples: &[f64]) -> Metric {
        let summary = Summary::of(samples);
        Metric {
            spec,
            value: summary.map_or(0.0, |s| s.median),
            summary,
            beyond: None,
            samples: keep(samples),
        }
    }

    fn to_json(&self, full: bool) -> Json {
        let mut o = vec![
            ("value".to_string(), Json::Num(self.value)),
            ("unit".to_string(), Json::Str(self.spec.unit.into())),
        ];
        if full {
            if let Some(b) = self.spec.bound {
                o.push(("bound".into(), Json::Num(b)));
            }
            o.push(("better".into(), Json::Str(self.spec.better.name().into())));
            if let Some(s) = self.summary {
                o.push(("n".into(), Json::Num(s.n as f64)));
                for (k, v) in [
                    ("min", s.min),
                    ("q1", s.q1),
                    ("median", s.median),
                    ("q3", s.q3),
                    ("max", s.max),
                    ("mad", s.mad),
                ] {
                    o.push((k.into(), Json::Num(v)));
                }
            }
            if let Some(b) = self.beyond {
                o.push(("samples_beyond_per_window".into(), Json::Num(b as f64)));
            }
            if self.samples.len() > 1 {
                o.push((
                    "samples".into(),
                    Json::Arr(self.samples.iter().map(|v| Json::Num(*v)).collect()),
                ));
            }
        }
        Json::Obj(o)
    }
}

/// `VmHWM` of this process in MB (peak resident set; children are
/// separate processes and not included).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of one run, in `END_TO_END` order.
#[must_use]
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|spec| match spec.name {
            "setup_s" => Metric::from_samples(spec, &o.e2e.setup_s),
            "events_per_s" => Metric::from_samples(spec, &o.e2e.events_per_s),
            "op_latency_ms_p50" => Metric::from_samples(spec, &o.e2e.op_latency_ms_p50),
            "op_latency_ms_p99" => {
                let windows = o.e2e.op_latency_ms_p99.len().max(1);
                let per_window = o.e2e.op_latency_samples as usize / windows;
                Metric {
                    beyond: Some(samples_beyond(per_window, 99.0)),
                    ..Metric::from_samples(spec, &o.e2e.op_latency_ms_p99)
                }
            }
            "drain_ops_per_s" => Metric::from_samples(spec, &o.e2e.drain_ops_per_s),
            "peak_rss_mb" => Metric::from_samples(spec, &[peak_rss_mb()]),
            other => unreachable!("end-to-end metric {other} has no definition"),
        })
        .collect()
}

/// Everything one workload run reports.
#[derive(Debug)]
pub struct WorkloadReport {
    /// The workload's name.
    pub workload: String,
    /// Was this the traced run?
    pub traced: bool,
    /// All checks passed and nothing failed.
    pub correct: bool,
    /// Units attempted.
    pub attempted: u64,
    /// Units failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// The metrics: end-to-end when untraced, per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Run facts (reps, workers, transport…).
    pub info: Vec<(&'static str, Json)>,
}

impl WorkloadReport {
    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    #[must_use]
    pub fn driver_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.spec.name.to_string(), m.to_json(false)))
                        .collect(),
                ),
            ),
        ])
    }

    /// The full record for the result document.
    #[must_use]
    pub fn full_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "failures".into(),
                Json::Arr(self.failures.iter().map(|f| Json::Str(f.clone())).collect()),
            ),
            (
                "info".into(),
                Json::Obj(
                    self.info
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), v.clone()))
                        .collect(),
                ),
            ),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.spec.name.to_string(), m.to_json(true)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Print the human-readable table.
    pub fn print(&self) {
        println!(
            "\n## {} ({})",
            self.workload,
            if self.traced {
                "traced run: per-layer metrics"
            } else {
                "tracing off: end-to-end metrics"
            }
        );
        for (k, v) in &self.info {
            println!("  {k}: {}", v.render());
        }
        println!(
            "  {:<34} {:>14} {:<6} {:>6} {:>7} {:>12} {:>12} {:>12} {:>12}",
            "metric", "value", "unit", "bound", "n", "q1", "q3", "min", "max"
        );
        for m in &self.metrics {
            let bound = m.spec.bound.map_or("-".into(), |b| format!("{b:.2}"));
            let (n, q1, q3, min, max) = m.summary.map_or(
                ("-".into(), "-".into(), "-".into(), "-".into(), "-".into()),
                |s| {
                    (
                        s.n.to_string(),
                        fmt(s.q1),
                        fmt(s.q3),
                        fmt(s.min),
                        fmt(s.max),
                    )
                },
            );
            let tail = m.beyond.map_or(String::new(), |b| {
                format!("  ({b} samples beyond it per window)")
            });
            println!(
                "  {:<34} {:>14} {:<6} {:>6} {:>7} {:>12} {:>12} {:>12} {:>12}{tail}",
                m.spec.name,
                fmt(m.value),
                m.spec.unit,
                bound,
                n,
                q1,
                q3,
                min,
                max
            );
        }
        println!(
            "  checks: {} — attempted {}, failed {} (failed_share {:.6})",
            if self.correct { "all passed" } else { "FAILED" },
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }
}

/// Four significant digits, for the table only (JSON keeps every digit).
fn fmt(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 {
        "0".into()
    } else if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 10.0 {
        format!("{v:.2}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

/// Host and build facts recorded with every result.
#[must_use]
pub fn host_json() -> Json {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into())
    };
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".into(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        (
            "kernel".into(),
            Json::Str(read("/proc/sys/kernel/osrelease")),
        ),
        ("rustc".into(), Json::Str(cmd("rustc", &["--version"]))),
        (
            "git_commit".into(),
            Json::Str(cmd("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
