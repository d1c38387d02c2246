//! Outside-in layer tracing.
//!
//! Decorators wrap the public seams the mapper exposes — a
//! [`RouterFactory`] (every engine `qspr-sim` builds, and every call it
//! makes into `qspr-route`) and a [`Placer`] (every call into
//! `qspr-place`) — and record spans into an in-memory [`Recorder`]. They
//! forward every call unchanged and report the inner engine's name, so
//! flow fingerprints and output bytes are the same as without them.
//!
//! Span tree of one traced suite pass:
//!
//! ```text
//! flow.qspr / flow.quale      (one per Flow::run, opened by the suite)
//! └─ place                    (TracedPlacer::place, QSPR only)
//!    └─ sim                   (one engine lifetime = one Mapper::map)
//!       └─ route tallies      (probe / epoch / refine calls, summed
//!                              per engine rather than one span each)
//! ```
//!
//! Route calls are summed into their engine's span because a suite
//! pass makes a quarter of a million of them; counts and busy time are
//! exact, only the per-call start/end is not kept.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qspr::fabric::{Topology, TrapId};
use qspr::place::{MvfbPlacer, Placer, PlacerSolution};
use qspr::qasm::Program;
use qspr::route::{
    EpochStats, ResourceState, RoutePlan, RouteRequest, RouterConfig, RouterFactory, RouterKind,
    RoutingEngine, RoutingStats,
};
use qspr::sim::{MapError, Mapper};

/// Calls into `qspr-route` made by one engine, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteTally {
    pub probe_calls: u64,
    pub probe_ns: u64,
    pub probe_blocked: u64,
    pub epoch_calls: u64,
    pub epoch_ns: u64,
    pub epoch_blocked_movers: u64,
    pub rip_iterations: u64,
    pub ripped: u64,
    pub refine_calls: u64,
    pub refine_ns: u64,
    pub refine_accepted: u64,
}

impl RouteTally {
    /// Time spent inside `qspr-route`, nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.probe_ns + self.epoch_ns + self.refine_ns
    }

    pub fn add(&mut self, other: &RouteTally) {
        self.probe_calls += other.probe_calls;
        self.probe_ns += other.probe_ns;
        self.probe_blocked += other.probe_blocked;
        self.epoch_calls += other.epoch_calls;
        self.epoch_ns += other.epoch_ns;
        self.epoch_blocked_movers += other.epoch_blocked_movers;
        self.rip_iterations += other.rip_iterations;
        self.ripped += other.ripped;
        self.refine_calls += other.refine_calls;
        self.refine_ns += other.refine_ns;
        self.refine_accepted += other.refine_accepted;
    }
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Groups the spans of one circuit in one pass.
    pub run: u32,
    pub name: &'static str,
    /// Circuit name for `flow.*` spans, empty otherwise.
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Placement runs for `place` spans; 0 otherwise.
    pub runs: u64,
    /// Route calls for `sim` spans; zero otherwise.
    pub route: RouteTally,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that is still open.
#[derive(Debug)]
pub struct Open {
    id: u32,
    parent: Option<u32>,
    run: u32,
    name: &'static str,
    label: String,
    start_ns: u64,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span sink shared by every decorator of one benchmark run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    run: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            run: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Tags the spans opened from now on with `run`.
    pub fn set_run(&self, run: u32) {
        self.run.store(run, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of this thread's innermost open span.
    pub fn open(&self, name: &'static str, label: &str) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        Open {
            id,
            parent,
            run: self.run.load(Ordering::Relaxed),
            name,
            label: label.to_owned(),
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open`, which must be this thread's innermost open span.
    pub fn close(&self, open: Open, runs: u64, route: RouteTally) {
        let end_ns = self.now_ns();
        OPEN.with(|stack| {
            let popped = stack.borrow_mut().pop();
            debug_assert_eq!(popped, Some(open.id), "spans close innermost first");
        });
        let span = Span {
            id: open.id,
            parent: open.parent,
            run: open.run,
            name: open.name,
            label: open.label,
            start_ns: open.start_ns,
            end_ns,
            runs,
            route,
        };
        self.spans.lock().expect("span sink lock").push(span);
    }

    /// Removes and returns every span closed so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink lock"))
    }
}

/// Decorates a built-in router: every engine it builds is a
/// [`TracedEngine`] whose lifetime is one `sim` span.
pub struct TracedRouter {
    inner: RouterKind,
    recorder: Arc<Recorder>,
}

impl TracedRouter {
    pub fn new(inner: RouterKind, recorder: Arc<Recorder>) -> TracedRouter {
        TracedRouter { inner, recorder }
    }
}

impl RouterFactory for TracedRouter {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build<'t>(
        &self,
        topology: &'t Topology,
        config: RouterConfig,
    ) -> Box<dyn RoutingEngine + 't> {
        let span = self.recorder.open("sim", "");
        Box::new(TracedEngine {
            inner: self.inner.build(topology, config),
            recorder: Arc::clone(&self.recorder),
            span: Some(span),
            tally: Cell::new(RouteTally::default()),
        })
    }
}

/// Forwards every [`RoutingEngine`] call to the inner engine, timing
/// and counting the ones that do routing work.
pub struct TracedEngine<'t> {
    inner: Box<dyn RoutingEngine + 't>,
    recorder: Arc<Recorder>,
    span: Option<Open>,
    // `route_one` takes `&self`; the engine never leaves its thread.
    tally: Cell<RouteTally>,
}

impl RoutingEngine for TracedEngine<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn config(&self) -> &RouterConfig {
        self.inner.config()
    }

    fn route_one(&self, state: &ResourceState, from: TrapId, to: TrapId) -> Option<RoutePlan> {
        let started = Instant::now();
        let plan = self.inner.route_one(state, from, to);
        let ns = started.elapsed().as_nanos() as u64;
        let mut tally = self.tally.get();
        tally.probe_calls += 1;
        tally.probe_ns += ns;
        tally.probe_blocked += u64::from(plan.is_none());
        self.tally.set(tally);
        plan
    }

    fn route_batch(
        &mut self,
        state: &ResourceState,
        requests: &[RouteRequest],
    ) -> (Vec<Option<RoutePlan>>, EpochStats) {
        let started = Instant::now();
        let (plans, stats) = self.inner.route_batch(state, requests);
        let ns = started.elapsed().as_nanos() as u64;
        let tally = self.tally.get_mut();
        tally.epoch_calls += 1;
        tally.epoch_ns += ns;
        tally.epoch_blocked_movers += plans.iter().filter(|p| p.is_none()).count() as u64;
        tally.rip_iterations += u64::from(stats.iterations);
        tally.ripped += u64::from(stats.ripped);
        (plans, stats)
    }

    fn note_booked(&mut self, plan: &RoutePlan) {
        self.inner.note_booked(plan);
    }

    fn set_parallelism(&mut self, jobs: usize) {
        self.inner.set_parallelism(jobs);
    }

    fn refines(&self) -> bool {
        self.inner.refines()
    }

    fn refine_epoch(
        &mut self,
        state: &ResourceState,
        incumbents: &[RoutePlan],
    ) -> Option<Vec<RoutePlan>> {
        let started = Instant::now();
        let better = self.inner.refine_epoch(state, incumbents);
        let ns = started.elapsed().as_nanos() as u64;
        let tally = self.tally.get_mut();
        tally.refine_calls += 1;
        tally.refine_ns += ns;
        tally.refine_accepted += u64::from(better.is_some());
        better
    }

    fn stats(&self) -> RoutingStats {
        self.inner.stats()
    }
}

impl Drop for TracedEngine<'_> {
    fn drop(&mut self) {
        if let Some(span) = self.span.take() {
            self.recorder.close(span, 0, self.tally.get());
        }
    }
}

/// Decorates the MVFB placer: each `place` call is one `place` span.
pub struct TracedPlacer {
    inner: MvfbPlacer,
    recorder: Arc<Recorder>,
}

impl TracedPlacer {
    pub fn new(inner: MvfbPlacer, recorder: Arc<Recorder>) -> TracedPlacer {
        TracedPlacer { inner, recorder }
    }
}

impl Placer for TracedPlacer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn place(&self, mapper: &Mapper<'_>, program: &Program) -> Result<PlacerSolution, MapError> {
        let span = self.recorder.open("place", "");
        let solution = self.inner.place(mapper, program);
        let runs = solution.as_ref().map_or(0, |s| s.runs as u64);
        self.recorder.close(span, runs, RouteTally::default());
        solution
    }
}

/// Per-layer totals of one traced pass, computed from its spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    pub route: RouteTally,
    pub sim_runs: u64,
    pub sim_ns: u64,
    pub sim_self_ns: u64,
    pub place_calls: u64,
    pub place_runs: u64,
    pub place_ns: u64,
    pub place_self_ns: u64,
}

impl LayerTotals {
    /// Rolls up `spans`. A layer's self time is its span's duration
    /// minus the part of that interval its child spans cover.
    pub fn from_spans(spans: &[Span]) -> LayerTotals {
        let mut totals = LayerTotals::default();
        for span in spans {
            match span.name {
                "sim" => {
                    totals.sim_runs += 1;
                    totals.sim_ns += span.dur_ns();
                    totals.sim_self_ns += span.dur_ns().saturating_sub(span.route.busy_ns());
                    totals.route.add(&span.route);
                }
                "place" => {
                    let children: Vec<(u64, u64)> = spans
                        .iter()
                        .filter(|c| c.parent == Some(span.id))
                        .map(|c| (c.start_ns, c.end_ns))
                        .collect();
                    totals.place_calls += 1;
                    totals.place_runs += span.runs;
                    totals.place_ns += span.dur_ns();
                    totals.place_self_ns += span.dur_ns().saturating_sub(covered_ns(children));
                }
                _ => {}
            }
        }
        totals
    }

    /// The counts that must repeat exactly from run to run, by name.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("sim.runs", self.sim_runs),
            ("place.runs", self.place_runs),
            ("route.probe_calls", self.route.probe_calls),
            ("route.probe_blocked", self.route.probe_blocked),
            ("route.epoch_calls", self.route.epoch_calls),
            (
                "route.epoch_blocked_movers",
                self.route.epoch_blocked_movers,
            ),
            ("route.rip_iterations", self.route.rip_iterations),
            ("route.ripped", self.route.ripped),
            ("route.refine_calls", self.route.refine_calls),
            ("route.refine_accepted", self.route.refine_accepted),
        ]
    }
}

/// Length of the union of `intervals`.
fn covered_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Spans as JSON lines, one object each.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let r = &s.route;
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"runs\":{},\"probe_calls\":{},\"probe_ns\":{},\"epoch_calls\":{},\"epoch_ns\":{},\"refine_calls\":{},\"refine_ns\":{}}}\n",
            s.id, s.run, s.name, s.label, s.start_ns, s.end_ns, s.runs,
            r.probe_calls, r.probe_ns, r.epoch_calls, r.epoch_ns, r.refine_calls, r.refine_ns,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::covered_ns;

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered_ns(vec![(0, 10), (2, 3)]), 10);
        assert_eq!(covered_ns(Vec::new()), 0);
    }
}
