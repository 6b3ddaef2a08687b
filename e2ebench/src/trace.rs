//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start and an end (seconds since the tracer was
//! made), the index of the span open around it, and the request it serves.
//! Spans come only from the benchmark's own wrappers around each layer's
//! public entry points; nothing inside the program is instrumented. A
//! disabled tracer runs the wrapped closure and records nothing.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::stats::Samples;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    counters: BTreeMap<&'static str, f64>,
}

/// A shared handle on one run's spans; cheap to clone into wrappers.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    state: Option<Arc<Mutex<State>>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: None,
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Some(Arc::new(Mutex::new(State::default()))),
        }
    }

    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    fn lock(state: &Mutex<State>) -> MutexGuard<'_, State> {
        // The loops are single-threaded; a poisoned lock means a wrapper
        // panicked, which already fails the run.
        state
            .lock()
            .expect("tracer lock poisoned by a panicking wrapper")
    }

    /// Starts the next request: later spans carry its id, which no other
    /// request of this tracer shares.
    pub fn next_request(&self) {
        if let Some(state) = &self.state {
            Self::lock(state).request += 1;
        }
    }

    /// Runs `f` inside a span called `name`, child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(state) = &self.state else {
            return f();
        };
        let index = {
            let mut s = Self::lock(state);
            let index = s.spans.len();
            let span = Span {
                name,
                start_s: self.epoch.elapsed().as_secs_f64(),
                end_s: 0.0,
                parent: s.open.last().copied(),
                request: s.request,
            };
            s.spans.push(span);
            s.open.push(index);
            index
        };
        let out = f();
        let end_s = self.epoch.elapsed().as_secs_f64();
        let mut s = Self::lock(state);
        s.spans[index].end_s = end_s;
        s.open.pop();
        out
    }

    /// Adds `by` to the counter `name`.
    pub fn count(&self, name: &'static str, by: f64) {
        if let Some(state) = &self.state {
            *Self::lock(state).counters.entry(name).or_insert(0.0) += by;
        }
    }

    /// Per-name aggregates of every span recorded so far.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let Some(state) = &self.state else {
            return BTreeMap::new();
        };
        let s = Self::lock(state);
        let mut child_s = vec![0.0; s.spans.len()];
        for span in &s.spans {
            if let Some(parent) = span.parent {
                child_s[parent] += span.duration_s();
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (span, children) in s.spans.iter().zip(child_s) {
            let layer = out.entry(span.name).or_default();
            layer.calls += 1;
            layer.busy_s += span.duration_s();
            layer.self_s += span.duration_s() - children;
            layer.durations.push(span.duration_s());
        }
        out
    }

    /// The counters recorded so far.
    pub fn counters(&self) -> BTreeMap<&'static str, f64> {
        match &self.state {
            Some(state) => Self::lock(state).counters.clone(),
            None => BTreeMap::new(),
        }
    }

    /// Distinct request ids seen on spans.
    pub fn requests(&self) -> usize {
        match &self.state {
            Some(state) => {
                let s = Self::lock(state);
                let mut ids: Vec<u64> = s.spans.iter().map(|sp| sp.request).collect();
                ids.sort_unstable();
                ids.dedup();
                ids.len()
            }
            None => 0,
        }
    }
}

/// Aggregate of every span of one name.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub calls: u64,
    /// Summed span durations.
    pub busy_s: f64,
    /// Summed durations minus the part covered by child spans.
    pub self_s: f64,
    pub durations: Samples,
}
