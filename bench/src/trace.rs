//! In-memory spans around the benchmark's own calls into each layer.
//!
//! The tracer belongs to the benchmark, not to the program under
//! test: a span opens before a call into a layer's public function and
//! closes when it returns, so a layer is charged what its caller waits
//! for. Spans stay in memory until the run ends. With tracing off
//! `enter` is one branch and records nothing — end-to-end metrics are
//! always measured that way.

use std::time::Instant;

use afd_obs::Json;

use crate::stats::{self_times, Interval};

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer (crate) called into; `bench` for the benchmark's own
    /// repetition spans.
    pub layer: &'static str,
    /// The public function (or group of calls) the span wraps.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start: u64,
    /// End, ns since the tracer was created.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The repetition this span belongs to (its request identifier).
    pub rep: u32,
    /// How many calls the span groups (1 for a single call).
    pub count: u64,
}

/// Handle returned by [`Tracer::enter`]; give it back to
/// [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Records spans on the calling thread's timeline.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
}

/// Self time summed per layer, from [`Tracer::layer_self_ns`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSelf {
    /// The layer name.
    pub layer: &'static str,
    /// Σ self time of its spans, ns.
    pub self_ns: u64,
    /// Number of spans.
    pub spans: usize,
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    /// Switch recording on or off (between spans, never inside one);
    /// returns the previous setting. Warm-ups run with it off so set-up
    /// work is not charged to any layer.
    pub fn set_enabled(&mut self, on: bool) -> bool {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        std::mem::replace(&mut self.enabled, on)
    }

    /// Tag subsequent spans with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; it nests inside whichever span is open.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            layer,
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            rep: self.rep,
            count: 1,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close `open`, recording that it grouped `count` calls.
    pub fn exit_counted(&mut self, open: Open, count: u64) {
        if let Open(Some(idx)) = open {
            let end = self.now();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close in LIFO order");
            let s = &mut self.spans[idx];
            s.end = end;
            s.count = count;
        }
    }

    /// Close `open`.
    pub fn exit(&mut self, open: Open) {
        self.exit_counted(open, 1);
    }

    /// Run `f` inside a span.
    pub fn call<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(layer, name);
        let out = f();
        self.exit(open);
        out
    }

    /// The recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Σ self time per layer, largest first.
    #[must_use]
    pub fn layer_self_ns(&self) -> Vec<LayerSelf> {
        let iv: Vec<Interval> = self
            .spans
            .iter()
            .map(|s| Interval {
                start: s.start,
                end: s.end,
                parent: s.parent,
            })
            .collect();
        let mut out: Vec<LayerSelf> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(self_times(&iv)) {
            match out.iter_mut().find(|l| l.layer == s.layer) {
                Some(l) => {
                    l.self_ns += self_ns;
                    l.spans += 1;
                }
                None => out.push(LayerSelf {
                    layer: s.layer,
                    self_ns,
                    spans: 1,
                }),
            }
        }
        out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.layer.cmp(b.layer)));
        out
    }

    /// The spans as a `chrome://tracing` document (complete events,
    /// microsecond timestamps, one lane).
    #[must_use]
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(format!("{}.{}", s.layer, s.name))),
                    ("cat".into(), Json::Str(s.layer.into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(s.start as f64 / 1e3)),
                    ("dur".into(), Json::Num((s.end - s.start) as f64 / 1e3)),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(1.0)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("rep".into(), Json::Num(f64::from(s.rep))),
                            ("count".into(), Json::Num(s.count as f64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![("traceEvents".into(), Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.enter("core", "check");
        t.exit(o);
        assert_eq!(t.call("ioa", "step", || 7), 7);
        assert!(t.spans().is_empty());
        assert!(t.layer_self_ns().is_empty());
        // Switched on it records; switched back off it stops again.
        assert!(!t.set_enabled(true));
        t.call("ioa", "step", || ());
        assert!(t.set_enabled(false));
        t.call("ioa", "step", || ());
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn spans_nest_and_carry_rep_and_count() {
        let mut t = Tracer::new(true);
        t.set_rep(3);
        let rep = t.enter("bench", "rep");
        t.call("system", "run_random", || ());
        let g = t.enter("rsm", "submit");
        t.exit_counted(g, 40);
        t.exit(rep);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|s| s.rep == 3 && s.end >= s.start));
        assert_eq!(s[2].count, 40);
        // Self times partition the root span.
        let total: u64 = t.layer_self_ns().iter().map(|l| l.self_ns).sum();
        assert_eq!(total, s[0].end - s[0].start);
    }

    #[test]
    fn chrome_trace_round_trips_through_the_parser() {
        let mut t = Tracer::new(true);
        t.call("net", "run_distributed", || ());
        let doc = t.chrome_trace().render();
        let parsed = Json::parse(&doc).expect("valid JSON");
        let ev = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(
            ev[0].get("name").and_then(Json::as_str),
            Some("net.run_distributed")
        );
    }
}
