//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the repository's public
//! functions, from the benchmark's own files: each has a name, a start and
//! an end, the span that caused it (its parent) and the id of the
//! operation it belongs to (a trained pair, an operating point, a served
//! request).  Spans stay in memory and are summarised when the run ends.
//! A span's self time is its duration minus the part of it that its
//! children cover, so nested layers are never double-counted.
//!
//! Recording is off unless [`enable`] was called: the untraced run pays
//! one relaxed atomic load per would-be span.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static COUNTERS: Mutex<BTreeMap<&'static str, f64>> = Mutex::new(BTreeMap::new());
static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id of this span.
    pub id: u64,
    /// The span that caused it, if any.
    pub parent: Option<u64>,
    /// Id of the operation (pair, point, request) the span belongs to.
    pub op: u64,
    /// Layer boundary name, e.g. `nn.train_forward`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl SpanRecord {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off (spans already open still record when dropped).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Returns a `'static` copy of a dynamically built span name, shared by
/// every caller that asks for the same text.
pub fn intern(name: &str) -> &'static str {
    let mut names = NAMES.lock().expect("trace name table poisoned");
    if let Some(&known) = names.get(name) {
        return known;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    names.insert(leaked);
    leaked
}

/// Sets the operation id that spans opened on this thread carry.
fn set_op(op: u64) {
    OP.with(|c| c.set(op));
}

/// The innermost open span on this thread and the current operation id —
/// what a worker thread needs to parent its spans under the caller's.
pub fn context() -> (Option<u64>, u64) {
    (
        STACK.with(|s| s.borrow().last().copied()),
        OP.with(Cell::get),
    )
}

/// An open span; it is recorded when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    open: Option<OpenSpan>,
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

/// Opens a span under this thread's innermost open span.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let (parent, op) = context();
    open(name, parent, op)
}

/// Opens a span under an explicit parent (for work handed to another
/// thread), adopting `op` as this thread's operation id.
pub fn span_in(name: &'static str, parent: Option<u64>, op: u64) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    set_op(op);
    open(name, parent, op)
}

fn open(name: &'static str, parent: Option<u64>, op: u64) -> Span {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Span {
        open: Some(OpenSpan {
            id,
            parent,
            op,
            name,
            start_ns: now_ns(),
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == open.id) {
                stack.remove(pos);
            }
        });
        let record = SpanRecord {
            id: open.id,
            parent: open.parent,
            op: open.op,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(record);
        }
    }
}

/// Adds `value` to a named counter (recorded only while tracing).
pub fn count(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    if let Ok(mut counters) = COUNTERS.lock() {
        *counters.entry(name).or_insert(0.0) += value;
    }
}

/// Raises a named counter to at least `value` (a high-water mark).
pub fn count_max(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    if let Ok(mut counters) = COUNTERS.lock() {
        let slot = counters.entry(name).or_insert(value);
        *slot = slot.max(value);
    }
}

/// Everything recorded so far: spans in completion order and counters.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// Finished spans.
    pub spans: Vec<SpanRecord>,
    /// Named counters.
    pub counters: BTreeMap<&'static str, f64>,
}

/// Drains the recorder.
pub fn take() -> Trace {
    let spans = std::mem::take(&mut *SPANS.lock().expect("trace span buffer poisoned"));
    let counters = std::mem::take(&mut *COUNTERS.lock().expect("trace counters poisoned"));
    Trace { spans, counters }
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed self time, in nanoseconds.
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean self time per call, in nanoseconds (0 when never called).
    pub fn mean_self_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

impl Trace {
    fn children(&self) -> HashMap<u64, Vec<(u64, u64)>> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        children
    }

    /// Self time and call count per span name.  Self time is a span's
    /// duration minus the union of its children's intervals, so children
    /// running in parallel on other threads are not subtracted twice.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children = self.children();
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for span in &self.spans {
            let covered = children
                .get_mut(&span.id)
                .map_or(0, |c| covered_ns(c, span.start_ns, span.end_ns));
            let entry = totals.entry(span.name).or_default();
            entry.calls += 1;
            entry.self_ns += span.duration_ns().saturating_sub(covered);
        }
        totals
    }

    /// Summed duration of the root spans named `root`, and the share of it
    /// covered by their descendants (at any depth) whose names `counted`
    /// accepts.  Descendants that overlap — nested layers, parallel
    /// workers — are counted once, and a catch-all span that `counted`
    /// rejects attributes nothing, however much of the root it spans.
    pub fn coverage(&self, root: &str, counted: impl Fn(&str) -> bool) -> (u64, f64) {
        let parents: HashMap<u64, Option<u64>> =
            self.spans.iter().map(|s| (s.id, s.parent)).collect();
        let root_of = |mut id: u64| loop {
            match parents.get(&id) {
                Some(Some(parent)) => id = *parent,
                _ => return id,
            }
        };
        let mut under: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for span in self.spans.iter().filter(|s| counted(s.name)) {
            if let Some(parent) = span.parent {
                under
                    .entry(root_of(parent))
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        let mut wall = 0u64;
        let mut covered = 0u64;
        for span in self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
        {
            wall += span.duration_ns();
            covered += under
                .get_mut(&span.id)
                .map_or(0, |c| covered_ns(c, span.start_ns, span.end_ns));
        }
        let share = if wall == 0 {
            0.0
        } else {
            covered as f64 / wall as f64
        };
        (wall, share)
    }
}
