//! Benchmark-side tracing: spans recorded around calls into the layers'
//! public functions, kept in memory and written out when the run ends.
//! Nothing here adds a span inside the program.

use crate::stats::Samples;
use asqp_core::Session;
use asqp_db::{DbResult, Query, ResultSet};
use asqp_serve::{RouteDecision, SessionBackend};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span. `parent` indexes the same [`Spans`] list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single thread's span list, on one clock shared by every list of a
/// run so lists from different threads merge.
#[derive(Debug, Clone)]
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a root span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.at(Instant::now());
        self.spans.push(Span {
            name,
            parent: None,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let now = self.at(Instant::now());
        self.spans[id].end_ns = now;
    }

    /// Record a child of `parent` that started at `start` and ends now.
    pub fn record(&mut self, parent: usize, name: &'static str, start: Instant) {
        let (start_ns, end_ns) = (self.at(start), self.at(Instant::now()));
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
    }

    pub fn merge(&mut self, other: Spans) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Durations of every span called `name`.
    pub fn samples(&self, name: &str) -> Samples {
        let mut out = Samples::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push_ns(s.ns());
        }
        out
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.samples(name).total_ns() as f64 / 1e9
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Share of the time of spans called `parent` not covered by their
    /// children (children of one parent never overlap here).
    pub fn unattributed_share(&self, parent: &str) -> f64 {
        let mut total = 0u64;
        let mut covered = 0u64;
        for (i, p) in self.spans.iter().enumerate() {
            if p.name != parent {
                continue;
            }
            total += p.ns();
            covered += self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(Span::ns)
                .sum::<u64>();
        }
        if total == 0 {
            return 0.0;
        }
        total.saturating_sub(covered) as f64 / total as f64
    }

    /// One JSON object per line: name, parent index, start and end (ns
    /// since the run's epoch).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Durations of the backend calls the server makes, by call.
#[derive(Debug, Default)]
pub struct CallLog {
    pub plan: Mutex<Samples>,
    pub subset: Mutex<Samples>,
    pub full: Mutex<Samples>,
    pub finish: Mutex<Samples>,
}

impl CallLog {
    pub fn take(&self, which: &Mutex<Samples>) -> Samples {
        std::mem::take(&mut *which.lock().expect("call log lock poisoned"))
    }

    /// Time spent inside backend calls, all kinds together.
    pub fn total_ns(&self) -> u64 {
        [&self.plan, &self.subset, &self.full, &self.finish]
            .iter()
            .map(|m| m.lock().expect("call log lock poisoned").total_ns())
            .sum()
    }
}

/// A session backend that times each call the server makes into the
/// session: route (`plan`, the estimator), the two executors and
/// `finish`.
pub struct TracedBackend {
    inner: Arc<Session>,
    log: Arc<CallLog>,
}

impl TracedBackend {
    pub fn new(inner: Arc<Session>, log: Arc<CallLog>) -> TracedBackend {
        TracedBackend { inner, log }
    }

    fn timed<T>(&self, which: &Mutex<Samples>, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let d = t.elapsed();
        which.lock().expect("call log lock poisoned").push(d);
        out
    }
}

impl SessionBackend for TracedBackend {
    fn plan(&self, q: &Query) -> RouteDecision {
        self.timed(&self.log.plan, || SessionBackend::plan(&*self.inner, q))
    }

    fn answer_subset(&self, q: &Query) -> DbResult<ResultSet> {
        self.timed(&self.log.subset, || self.inner.answer_subset(q))
    }

    fn answer_full(&self, q: &Query) -> DbResult<ResultSet> {
        self.timed(&self.log.full, || self.inner.answer_full(q))
    }

    fn finish(&self, q: &Query, decision: &RouteDecision) -> DbResult<()> {
        self.timed(&self.log.finish, || {
            SessionBackend::finish(&*self.inner, q, decision)
        })
    }
}
