//! In-memory span recorder for the traced run.
//!
//! A span is one call across a layer boundary: name (`<layer>.<what>`),
//! start, end, parent span and request id. Spans opened on one thread nest
//! through a thread-local stack, so a storage call made inside
//! `Warehouse::commit_batch` becomes a child of the benchmark's commit span.
//!
//! Work that happens inside an engine call but cannot be timed from outside
//! (update apply, simplify, pattern match, BDD merge) is timed by *shadow*
//! calls: the benchmark replays the same public function on a clone of the
//! pinned snapshot right after the real call, and records the result as a
//! child of the real call's span, flagged `shadow`. A span's self time is its
//! duration minus the durations of its children, real and shadow, so the
//! shadow estimates are charged to their own layer instead of the caller's.
//!
//! Spans stay in memory until [`Tracer::write_jsonl`] writes them out when
//! the run ends.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{LockClass, Mutex};

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub request: u64,
    /// Timed by a shadow call after the parent returned, not inside it.
    pub shadow: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    /// Open spans of this thread, innermost last: `(span id, request id)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Records spans and named samples (counts measured at layer boundaries).
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    samples: Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::with_class(LockClass::Unclassified, Vec::new()),
            samples: Mutex::with_class(LockClass::Unclassified, BTreeMap::new()),
        }
    }
}

/// An open span; recorded when finished or dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    name: &'static str,
    start: Instant,
    parent: Option<u64>,
    request: u64,
    done: bool,
}

/// A finished span re-opened as a parent; see [`Tracer::adopt`].
pub struct Adopted {
    id: u64,
}

impl Drop for Adopted {
    fn drop(&mut self) {
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(position) = open.iter().rposition(|(id, _)| *id == self.id) {
                open.remove(position);
            }
        });
    }
}

/// A finished span: the handle shadow children attach to.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    pub id: u64,
    pub request: u64,
    pub duration: Duration,
}

impl Guard<'_> {
    /// Closes the span and returns its handle.
    pub fn finish(mut self) -> Finished {
        let duration = self.close();
        Finished {
            id: self.id,
            request: self.request,
            duration,
        }
    }

    fn close(&mut self) -> Duration {
        let end = Instant::now();
        self.done = true;
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(position) = open.iter().rposition(|(id, _)| *id == self.id) {
                open.remove(position);
            }
        });
        self.tracer.push(Span {
            id: self.id,
            name: self.name,
            start_ns: self.tracer.offset(self.start),
            end_ns: self.tracer.offset(end),
            parent: self.parent,
            request: self.request,
            shadow: false,
        });
        end - self.start
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.close();
        }
    }
}

impl Tracer {
    fn offset(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().push(span);
    }

    /// Opens a span as a child of this thread's innermost open span. With no
    /// `request`, the span inherits its parent's request id (0 at top level).
    pub fn enter(&self, name: &'static str, request: Option<u64>) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, request) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let top = open.last().copied();
            let request = request.or(top.map(|(_, r)| r)).unwrap_or(0);
            open.push((id, request));
            (top.map(|(id, _)| id), request)
        });
        Guard {
            tracer: self,
            id,
            name,
            start: Instant::now(),
            parent,
            request,
            done: false,
        }
    }

    /// Makes the finished span `parent` the parent of the spans this thread
    /// opens until the returned guard drops: for a replay that belongs to a
    /// call timed from outside, such as an in-process replay of a wire op.
    pub fn adopt(&self, parent: Finished) -> Adopted {
        OPEN.with(|open| open.borrow_mut().push((parent.id, parent.request)));
        Adopted { id: parent.id }
    }

    /// Records a shadow child of `parent`: work measured by replaying a
    /// public call outside the parent, starting at `start`.
    pub fn attribute(
        &self,
        name: &'static str,
        parent: Finished,
        start: Instant,
        duration: Duration,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.offset(start);
        self.push(Span {
            id,
            name,
            start_ns,
            end_ns: start_ns + duration.as_nanos() as u64,
            parent: Some(parent.id),
            request: parent.request,
            shadow: true,
        });
    }

    /// Records one value of a named count or measure.
    pub fn sample(&self, name: &'static str, value: f64) {
        self.samples.lock().entry(name).or_default().push(value);
    }

    /// Every value recorded under `name`.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.samples.lock().get(name).cloned().unwrap_or_default()
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time in microseconds of every span called `name`.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let (spans, child_ns) = self.with_child_time();
        spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| self_ns(span, &child_ns) as f64 / 1e3)
            .collect()
    }

    /// Total self time in microseconds per `(root span name, layer)`: the
    /// root is the outermost span of the tree a span belongs to.
    pub fn self_time_by_root(&self) -> BTreeMap<(&'static str, &'static str), f64> {
        let (spans, child_ns) = self.with_child_time();
        let by_id: HashMap<u64, &Span> = spans.iter().map(|span| (span.id, span)).collect();
        let mut totals = BTreeMap::new();
        for span in &spans {
            let mut root = span;
            while let Some(parent) = root.parent.and_then(|id| by_id.get(&id)) {
                root = parent;
            }
            *totals.entry((root.name, span.layer())).or_insert(0.0) +=
                self_ns(span, &child_ns) as f64 / 1e3;
        }
        totals
    }

    fn with_child_time(&self) -> (Vec<Span>, HashMap<u64, u64>) {
        let spans = self.spans.lock().clone();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for span in &spans {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_insert(0) += span.duration_ns();
            }
        }
        (spans, child_ns)
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.lock().len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.lock();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for span in spans.iter() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |id| id.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"shadow\":{}}}",
                span.id, span.name, span.start_ns, span.end_ns, parent, span.request, span.shadow
            )?;
        }
        out.flush()
    }
}

fn self_ns(span: &Span, child_ns: &HashMap<u64, u64>) -> u64 {
    span.duration_ns()
        .saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_charge_self_time() {
        let tracer = Tracer::default();
        let outer = tracer.enter("warehouse.commit", Some(7));
        std::thread::sleep(Duration::from_millis(1));
        {
            let inner = tracer.enter("store.append", None);
            std::thread::sleep(Duration::from_millis(2));
            drop(inner);
        }
        let outer = outer.finish();
        tracer.attribute(
            "core.apply",
            outer,
            Instant::now(),
            Duration::from_micros(10),
        );
        let spans = tracer.spans.lock().clone();
        let append = spans.iter().find(|s| s.name == "store.append").unwrap();
        assert_eq!(append.parent, Some(outer.id));
        assert_eq!(append.request, 7);
        let layers = tracer.self_time_by_root();
        assert!(layers[&("warehouse.commit", "store")] >= 2000.0);
        assert!((layers[&("warehouse.commit", "core")] - 10.0).abs() < 1e-9);
        let total: f64 = layers.values().sum();
        assert!(layers[&("warehouse.commit", "warehouse")] >= 990.0);
        assert!((total - outer.duration.as_secs_f64() * 1e6).abs() < 1.0);
    }
}
