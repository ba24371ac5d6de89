//! Spans around every call the benchmark makes into a layer.
//!
//! Recorded in memory from the benchmark's own side of the public API,
//! written once at exit as Chrome trace JSON. With the tracer off a span
//! still times its closure (the timed reps need the durations) but
//! records nothing.

use crate::alloc;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed interval of work.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Which input of the layer this call worked on (`"fat-tree(10)/WP"`).
    pub detail: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Heap operations inside the span (0 while the allocator is not
    /// counting, and for children a layer reported itself).
    pub allocs: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub workload: &'static str,
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A closure's result with its wall time, its heap operations (when the
/// allocator is counting) and, when tracing, its span.
pub struct Timed<T> {
    pub value: T,
    pub secs: f64,
    pub allocs: u64,
    pub id: Option<usize>,
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    workload: &'static str,
    rep: u32,
}

/// The explicit remainder that makes a rep's children sum to its wall.
pub const RESIDUAL: &str = "residual";

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            workload: "",
            rep: 0,
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Labels every span recorded from here on.
    pub fn label(&mut self, workload: &'static str, rep: u32) {
        self.workload = workload;
        self.rep = rep;
    }

    /// Forgets spans left open by a rep that panicked, so that the next
    /// rep's spans do not become their children.
    pub fn abandon_open(&mut self) {
        self.open.clear();
    }

    /// Times `f`; when tracing, records it as a child of the innermost
    /// open span. `f` receives the tracer so that calls nest.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        detail: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> Timed<T> {
        let ops0 = alloc::ops();
        if !self.enabled {
            let t0 = Instant::now();
            let value = f(self);
            return Timed {
                value,
                secs: t0.elapsed().as_secs_f64(),
                allocs: alloc::ops() - ops0,
                id: None,
            };
        }
        let id = alloc::uncounted(|| {
            let start_ns = self.epoch.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                name,
                detail: detail.to_string(),
                start_ns,
                end_ns: start_ns,
                allocs: 0,
                parent: self.open.last().copied(),
                workload: self.workload,
                rep: self.rep,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let value = f(self);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let allocs = alloc::ops() - ops0;
        self.open.pop();
        self.spans[id].end_ns = end_ns;
        self.spans[id].allocs = allocs;
        Timed {
            value,
            secs: (end_ns - self.spans[id].start_ns) as f64 / 1e9,
            allocs,
            id: Some(id),
        }
    }

    /// Records durations the layer itself reported (compiler stages, the
    /// event loop) as children of `parent`, laid end to end — from the
    /// parent's start, or ending at its end when `at_end`.
    pub fn children(
        &mut self,
        parent: Option<usize>,
        parts: &[(&'static str, Duration)],
        at_end: bool,
    ) {
        let Some(parent) = parent else { return };
        alloc::uncounted(|| {
            let total: u64 = parts.iter().map(|(_, d)| d.as_nanos() as u64).sum();
            let p = &self.spans[parent];
            let (detail, workload, rep) = (p.detail.clone(), p.workload, p.rep);
            let mut at = if at_end {
                p.end_ns.saturating_sub(total).max(p.start_ns)
            } else {
                p.start_ns
            };
            let end = p.end_ns;
            for &(name, d) in parts {
                let stop = (at + d.as_nanos() as u64).min(end);
                self.spans.push(Span {
                    name,
                    detail: detail.clone(),
                    start_ns: at,
                    end_ns: stop,
                    allocs: 0,
                    parent: Some(parent),
                    workload,
                    rep,
                });
                at = stop;
            }
        });
    }

    /// Closes the books of span `id`: whatever its children did not cover
    /// becomes an explicit [`RESIDUAL`] child, so children sum to the
    /// parent by construction.
    pub fn residual(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let rest = self.self_ns(id);
        self.children(Some(id), &[(RESIDUAL, Duration::from_nanos(rest))], true);
    }

    /// A span's own time: its duration minus what its direct children
    /// cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns().saturating_sub(covered)
    }

    /// The Chrome trace-event document (load at `ui.perfetto.dev` or
    /// `chrome://tracing`): one complete event per span, one process row
    /// per workload, one thread row per rep.
    pub fn chrome_json(&self) -> String {
        let mut workloads: Vec<&str> = Vec::new();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let pid = match workloads.iter().position(|w| *w == s.workload) {
                Some(p) => p,
                None => {
                    workloads.push(s.workload);
                    workloads.len() - 1
                }
            };
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"self_us\":{},\
                 \"allocs\":{},\"detail\":\"{}\"}}}}",
                s.name,
                s.workload,
                contra_telemetry::ts_us(s.start_ns),
                contra_telemetry::ts_us(s.dur_ns()),
                pid + 1,
                s.rep,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                contra_telemetry::ts_us(self.self_ns(i)),
                s.allocs,
                contra_telemetry::json_escape(&s.detail),
            );
        }
        for (p, w) in workloads.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                p + 1,
                w
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_nested_and_sibling_children() {
        let mut tr = Tracer::new(true);
        tr.label("w", 3);
        let ms = Duration::from_millis;
        let outer = tr.span("outer", "", |tr| {
            spin(ms(2));
            tr.span("a", "", |tr| {
                spin(ms(2));
                tr.span("a.inner", "", |_| spin(ms(3)));
            });
            tr.span("b", "", |_| spin(ms(4)));
        });
        let id = |name: &str| tr.spans().iter().position(|s| s.name == name).unwrap();
        let (o, a, b, inner) = (outer.id.unwrap(), id("a"), id("b"), id("a.inner"));
        assert_eq!(tr.spans()[a].parent, Some(o));
        assert_eq!(tr.spans()[b].parent, Some(o));
        assert_eq!(tr.spans()[inner].parent, Some(a));
        assert!(tr.spans().iter().all(|s| s.workload == "w" && s.rep == 3));
        // Siblings a and b are both subtracted from outer; a.inner is
        // subtracted from a only (it is already inside a's duration).
        let d = |i: usize| tr.spans()[i].dur_ns();
        assert_eq!(tr.self_ns(o), d(o) - d(a) - d(b));
        assert_eq!(tr.self_ns(a), d(a) - d(inner));
        assert_eq!(tr.self_ns(inner), d(inner));
        assert!(tr.self_ns(o) >= 2_000_000 && tr.self_ns(o) < d(o) - 8_000_000);
        assert!((outer.secs * 1e9 - d(o) as f64).abs() < 1.0);
    }

    #[test]
    fn residual_closes_a_span_exactly() {
        let mut tr = Tracer::new(true);
        let rep = tr.span("rep", "", |tr| {
            tr.span("work", "", |_| spin(Duration::from_millis(1)));
            spin(Duration::from_millis(1));
        });
        let id = rep.id.unwrap();
        tr.residual(rep.id);
        let children: u64 = tr
            .spans()
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        assert_eq!(children, tr.spans()[id].dur_ns());
        assert_eq!(tr.self_ns(id), 0);
        let r = tr.spans().iter().find(|s| s.name == RESIDUAL).unwrap();
        assert!(r.dur_ns() >= 1_000_000);
        assert_eq!(r.end_ns, tr.spans()[id].end_ns);
    }

    #[test]
    fn reported_children_are_laid_inside_the_parent() {
        let mut tr = Tracer::new(true);
        let p = tr.span("compile", "k4/MU", |_| spin(Duration::from_millis(2)));
        let us = Duration::from_micros;
        tr.children(p.id, &[("parse", us(300)), ("product", us(700))], false);
        tr.children(p.id, &[("loop", us(400))], true);
        let s = tr.spans();
        let parent = &s[p.id.unwrap()];
        assert_eq!(s[1].start_ns, parent.start_ns);
        assert_eq!(s[2].start_ns, s[1].end_ns);
        assert_eq!(s[3].end_ns, parent.end_ns);
        assert!(s
            .iter()
            .skip(1)
            .all(|c| c.detail == "k4/MU" && c.parent == p.id));
        assert_eq!(tr.self_ns(0), parent.dur_ns() - 1_400_000);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new(false);
        let t = tr.span("x", "", |tr| {
            tr.span("y", "", |_| spin(Duration::from_millis(1)));
            7
        });
        assert_eq!((t.value, t.id), (7, None));
        assert!(t.secs >= 0.001);
        tr.children(t.id, &[("z", Duration::from_millis(1))], false);
        tr.residual(t.id);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let mut tr = Tracer::new(true);
        tr.label("dc_tcp", 1);
        let s = tr.span("cell", "quote \" and \\ backslash", |tr| {
            tr.span("inner", "", |_| ());
        });
        tr.residual(s.id);
        tr.label("policy_ladder", 2);
        tr.span("pass", "", |_| ());
        let json = tr.chrome_json();
        contra_telemetry::validate_json(&json).expect("valid JSON");
        assert!(json.contains("\"name\":\"residual\""));
        assert!(json.contains("\"pid\":2,\"args\":{\"name\":\"policy_ladder\"}"));
    }
}
