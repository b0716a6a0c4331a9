//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls the benchmark makes into the
//! workspace crates; nothing inside the program is instrumented. Each
//! span carries a name, start, end, parent and request id. Spans stay in
//! memory until the run ends and are then written out as JSON lines.
//!
//! Work a call does inside another layer (the resize inside
//! `image_to_tensor`, the tower forward inside `recognize_batch`) cannot
//! get a child span from outside. A standalone probe times that work on
//! the same input, outside the traced replay, and a [`Credit`] moves the
//! probe's time from the calling span's self time to the layer that did
//! the work. Every piece of work thus runs once in the traced tree.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

use crate::report::object;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.what[.detail]`; the layer is the first dot-separated part.
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or pass) the span belongs to.
    pub req: u64,
}

/// Time a probe measured for work done inside span `span`, moved from
/// that span's self time to `layer`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Credit {
    pub span: usize,
    pub layer: &'static str,
    pub ns: u64,
}

/// The layers a span name can be attributed to. Spans of any other
/// prefix (`bench.*`: the benchmark's own loops) are unattributed time.
pub const LAYERS: [&str; 6] = ["serve", "core", "nn", "features", "data", "imgproc"];

/// The layer a span name belongs to, or `None` for benchmark-own spans.
pub fn layer_of(name: &str) -> Option<&'static str> {
    let head = name.split('.').next().unwrap_or("");
    LAYERS.iter().copied().find(|l| *l == head)
}

/// Records nested spans on one thread. A disabled tracer runs the same
/// closures without reading the clock, so a traced and an untraced pass
/// execute the same code.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    credits: Vec<Credit>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            credits: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Nanoseconds from the tracer's creation to `t` (e.g. a time taken
    /// on a pool thread).
    pub fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = end;
        }
        out
    }

    /// Run `f` in a span; returns its result and the span's duration in
    /// ns (0 when disabled).
    pub fn timed<T>(&mut self, name: &str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
        let id = self.spans.len();
        let out = self.span(name, req, f);
        let ns = self.spans.get(id).map_or(0, |s| s.end_ns.saturating_sub(s.start_ns));
        (out, ns)
    }

    /// Record an interval observed from outside a call (e.g. between two
    /// progress callbacks) as a child of the innermost open span.
    pub fn record(&mut self, name: &str, req: u64, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns, parent, req });
    }

    /// Credit `ns` of the work inside the latest span named `name` with
    /// request id `req` to `layer`. Returns whether the span exists (a
    /// disabled tracer has none and ignores credits).
    pub fn credit(&mut self, name: &str, req: u64, layer: &'static str, ns: u64) -> bool {
        if !self.enabled {
            return true;
        }
        match self.spans.iter().rposition(|s| s.req == req && s.name == name) {
            Some(span) => {
                self.credits.push(Credit { span, layer, ns });
                true
            }
            None => false,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn credits(&self) -> &[Credit] {
        &self.credits
    }

    /// The spans as JSON lines (tree, name, start, end, parent, request
    /// id).
    pub fn to_jsonl(&self, tree: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = object([
                ("tree", Value::Str(tree.into())),
                ("name", Value::Str(s.name.clone())),
                ("start_ns", Value::UInt(s.start_ns)),
                ("end_ns", Value::UInt(s.end_ns)),
                ("parent", s.parent.map_or(Value::Null, |p| Value::UInt(p as u64))),
                ("req", Value::UInt(s.req)),
            ]);
            out.push_str(&serde_json::to_string(&line).unwrap_or_default());
            out.push('\n');
        }
        out
    }
}

/// Run `replay` untraced, traced, then untraced again. Returns the traced
/// spans and the mean untraced wall time: a steady drift in the host's
/// speed then cancels out of the traced-versus-untraced comparison.
pub fn bracketed<E>(
    mut replay: impl FnMut(&mut Tracer) -> Result<(), E>,
) -> Result<(Tracer, f64), E> {
    let t0 = Instant::now();
    replay(&mut Tracer::new(false))?;
    let before = t0.elapsed().as_secs_f64();
    let mut traced = Tracer::new(true);
    replay(&mut traced)?;
    let t1 = Instant::now();
    replay(&mut Tracer::new(false))?;
    Ok((traced, (before + t1.elapsed().as_secs_f64()) / 2.0))
}

/// The breakdown of a traced replay: layer self times and wall from the
/// `main` tree only, plus the per-call statistics of the `probes` tree,
/// whose spans are kept out of the layer sums.
pub fn breakdown(main: &Tracer, probes: &Tracer) -> Breakdown {
    let mut b = Breakdown::of(main.spans(), main.credits());
    for (name, stats) in Breakdown::of(probes.spans(), &[]).by_name {
        b.by_name.entry(name).or_insert(stats);
    }
    b
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(slot) = s.parent.and_then(|p| children.get_mut(p)) {
            slot.push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut cover: Vec<(u64, u64)> = kids
                .iter()
                .filter_map(|&c| spans.get(c))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            cover.sort_unstable();
            let mut covered = 0u64;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in cover {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStats {
    pub calls: u64,
    /// Summed span durations, children included.
    pub total_s: f64,
}

impl NameStats {
    /// Mean inclusive duration per call, in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_s * 1e6 / self.calls as f64
        }
    }
}

/// How a traced wall time splits over the layers.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    pub by_name: BTreeMap<String, NameStats>,
    /// Self time per layer in [`LAYERS`], seconds.
    pub layer_self_s: BTreeMap<&'static str, f64>,
    /// Self time of benchmark-own spans, seconds.
    pub unattributed_s: f64,
    /// Summed duration of the root spans, seconds.
    pub wall_s: f64,
    /// Spans whose credits exceeded their self time and were scaled down
    /// to it (the probe ran slower than the work inside the span).
    pub scaled_spans: u64,
}

impl Breakdown {
    /// Self times per layer, with each span's credits moved from its own
    /// layer to the credited ones.
    pub fn of(spans: &[Span], credits: &[Credit]) -> Breakdown {
        let selfs = self_times(spans);
        let mut credited: Vec<Vec<(&'static str, u64)>> = vec![Vec::new(); spans.len()];
        for c in credits {
            if let Some(v) = credited.get_mut(c.span) {
                v.push((c.layer, c.ns));
            }
        }
        let mut b = Breakdown::default();
        for l in LAYERS {
            b.layer_self_s.insert(l, 0.0);
        }
        for ((s, &own), credit) in spans.iter().zip(&selfs).zip(&credited) {
            let own_s = own as f64 * 1e-9;
            let dur_s = s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9;
            let e = b.by_name.entry(s.name.clone()).or_default();
            e.calls += 1;
            e.total_s += dur_s;
            let asked: f64 = credit.iter().map(|&(_, ns)| ns as f64 * 1e-9).sum();
            let scale = if asked > own_s {
                b.scaled_spans += 1;
                own_s / asked
            } else {
                1.0
            };
            let mut rest = own_s;
            for &(layer, ns) in credit {
                let c = ns as f64 * 1e-9 * scale;
                *b.layer_self_s.entry(layer).or_insert(0.0) += c;
                rest -= c;
            }
            let rest = rest.max(0.0);
            match layer_of(&s.name) {
                Some(l) => *b.layer_self_s.entry(l).or_insert(0.0) += rest,
                None => b.unattributed_s += rest,
            }
            if s.parent.is_none() {
                b.wall_s += dur_s;
            }
        }
        b
    }

    pub fn get(&self, name: &str) -> NameStats {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Summed layer self times, seconds.
    pub fn stage_sum_s(&self) -> f64 {
        self.layer_self_s.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.to_string(), start_ns, end_ns, parent, req: 0 }
    }

    /// A synthetic tree: root [0,100) with children [10,30) and [20,50)
    /// (overlapping, 40 ns covered) and [60,70); the first child has a
    /// grandchild [12,18).
    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("core.a", 10, 30, Some(0)),
            span("nn.b", 20, 50, Some(0)),
            span("data.c", 60, 70, Some(0)),
            span("imgproc.d", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 10, 6]);
    }

    #[test]
    fn layer_self_times_plus_unattributed_equal_the_wall() {
        let spans = vec![
            span("bench.pass", 0, 1_000, None),
            span("core.a", 100, 400, Some(0)),
            span("nn.b", 150, 350, Some(1)),
            span("bench.loop", 500, 900, Some(0)),
            span("features.c", 600, 700, Some(3)),
        ];
        let b = Breakdown::of(&spans, &[]);
        assert!((b.wall_s - 1e-6).abs() < 1e-15);
        assert!((b.stage_sum_s() + b.unattributed_s - b.wall_s).abs() < 1e-15);
        assert!((b.layer_self_s["core"] - 100e-9).abs() < 1e-15);
        assert!((b.layer_self_s["nn"] - 200e-9).abs() < 1e-15);
        assert!((b.unattributed_s - (300e-9 + 300e-9)).abs() < 1e-15);
        assert_eq!(b.get("core.a").calls, 1);
        assert!((b.get("core.a").total_s - 300e-9).abs() < 1e-15);
    }

    /// Credits move probe time out of a span's self time into the layers
    /// that did the work; credits larger than the self time are scaled
    /// down to it, so the sums still add up to the wall.
    #[test]
    fn credits_split_a_span_and_keep_the_sums() {
        let spans = vec![
            span("bench.pass", 0, 1_000, None),
            span("serve.batch", 100, 600, Some(0)),
            span("core.wide", 600, 900, Some(0)),
        ];
        let credits = vec![
            Credit { span: 1, layer: "nn", ns: 300 },
            Credit { span: 1, layer: "imgproc", ns: 50 },
            Credit { span: 2, layer: "features", ns: 400 },
            Credit { span: 2, layer: "imgproc", ns: 200 },
        ];
        let b = Breakdown::of(&spans, &credits);
        let close = |a: f64, ns: f64| (a - ns * 1e-9).abs() < 1e-15;
        assert!(close(b.layer_self_s["serve"], 150.0));
        assert!(close(b.layer_self_s["nn"], 300.0));
        assert!(close(b.layer_self_s["imgproc"], 50.0 + 100.0));
        assert!(close(b.layer_self_s["features"], 200.0));
        assert!(close(b.layer_self_s["core"], 0.0));
        assert!(close(b.unattributed_s, 200.0));
        assert_eq!(b.scaled_spans, 1);
        assert!((b.stage_sum_s() + b.unattributed_s - b.wall_s).abs() < 1e-15);
    }

    #[test]
    fn credit_finds_the_latest_span_by_name_and_request() {
        let mut t = Tracer::new(true);
        t.span("serve.x", 1, |_| ());
        t.span("serve.x", 2, |_| ());
        t.span("serve.x", 1, |_| ());
        assert!(t.credit("serve.x", 1, "nn", 5));
        assert!(!t.credit("serve.x", 9, "nn", 5));
        assert_eq!(t.credits(), &[Credit { span: 2, layer: "nn", ns: 5 }]);
        let line = t.to_jsonl("main").lines().next().map(str::to_string).unwrap_or_default();
        let v: Value = serde_json::from_str(&line).expect("each line is JSON");
        let Value::Map(m) = v else { panic!("an object") };
        assert_eq!(serde::field(&m, "parent"), Some(&Value::Null));
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("bench.root", 7, |t| t.span("core.x", 7, |_| 41) + 1);
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("core.x", 0, |_| 3), 3);
        off.record("nn.y", 0, 0, 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn layer_of_splits_on_the_first_dot() {
        assert_eq!(layer_of("serve.http.parse"), Some("serve"));
        assert_eq!(layer_of("imgproc.resize"), Some("imgproc"));
        assert_eq!(layer_of("bench.pass"), None);
    }
}
