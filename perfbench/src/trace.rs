//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span holds a name, a start, an end and its parent; the spans of one
//! request share a request id. Spans stay in memory until the run ends.
//! A span's self time is its duration minus the time its child spans
//! cover (children run one after another inside their parent). When the
//! tracer is off every call is a single branch.

use crate::calib::elapsed_ns;
use bshm_obs::span::now;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    request: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Calibration factor of the timed block the span ran in.
    factor: f64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts a new request: later spans carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    pub fn begin(&mut self, name: &str) {
        if self.on {
            self.open.push(self.spans.len());
            self.spans.push(Span {
                name: name.to_string(),
                request: self.request,
                parent: self.open.iter().rev().nth(1).copied(),
                start_ns: elapsed_ns(self.origin),
                end_ns: 0,
                factor: 1.0,
            });
        }
    }

    pub fn end(&mut self) {
        if self.on {
            let i = self.open.pop().expect("span end matches a begin");
            self.spans[i].end_ns = elapsed_ns(self.origin);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let value = f();
        self.end();
        value
    }

    /// Number of spans recorded so far.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Sets the calibration factor of every span recorded since `mark`.
    pub fn calibrate_since(&mut self, mark: usize, factor: f64) {
        for s in &mut self.spans[mark..] {
            s.factor = factor;
        }
    }

    /// Calibrated self time in milliseconds of every span, by name.
    pub fn self_ms(&self) -> BTreeMap<&str, Vec<f64>> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] = self_ns[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            by_name
                .entry(&s.name)
                .or_default()
                .push(ns as f64 / 1e6 * s.factor);
        }
        by_name
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"factor\":{:?}}}",
                s.name, s.request, s.start_ns, s.end_ns, s.factor
            );
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}
