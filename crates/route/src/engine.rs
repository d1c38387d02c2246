//! Pluggable batch-routing engines: the negotiated-congestion subsystem.
//!
//! The base [`Router`] answers one shortest-path query at
//! a time, which forces the simulator to route simultaneous movers in
//! arrival order — early routes block later ones exactly where
//! congestion matters most. This module lifts routing to *batches*: a
//! [`RoutingEngine`] receives every mover issued in one scheduling
//! epoch and may reconsider the whole set before committing.
//!
//! Two engines ship with the crate:
//!
//! * [`GreedyRouter`] — the classic behavior: each mover routed against
//!   the bookings of the movers before it, first answer kept;
//! * [`NegotiatedRouter`] — PathFinder-style negotiated congestion
//!   (McMurchie & Ebeling, FPGA '95): all movers are routed with *soft*
//!   capacities, shared-segment/junction conflicts are detected, and the
//!   conflicting routes are ripped up and re-routed under growing
//!   present-congestion and history penalties until the set is
//!   conflict-free or an iteration cap is reached. The final answer is
//!   committed under hard capacities and never worse than the greedy
//!   answer for the same batch.
//!
//! Most negotiations settle long before the cap: every ripped mover
//! gets its old path back, and the only conflicts left sit on movers'
//! own source or target segments, which no path can avoid. From such a
//! round on the result is decided, so the engine skips the remaining
//! rounds and applies their effects directly (history, stats and
//! estimated costs exactly as the full loop leaves them; see
//! `NegotiatedRouter::fast_forward` for the rule and why it is exact).
//! Batches whose greedy answer already sits on the empty-fabric lower
//! bound skip negotiation altogether; that bound is read from the
//! fabric's shared distance rows, not searched per MVFB pass.
//!
//! Engines are object safe, so callers hold a `dyn RoutingEngine` and
//! swap implementations the same way placers plug into a flow. Each
//! batch reports an [`EpochStats`]; an engine accumulates them into
//! [`RoutingStats`] for end-of-run reporting.
//!
//! # Examples
//!
//! ```
//! use qspr_fabric::{Fabric, TechParams};
//! use qspr_route::{ResourceState, RouteRequest, RouterConfig, RouterKind};
//!
//! let fabric = Fabric::quale_45x85();
//! let topo = fabric.topology();
//! let tech = TechParams::date2012();
//! let mut engine = RouterKind::Negotiated.build(topo, RouterConfig::qspr(&tech));
//! let state = ResourceState::new(topo);
//!
//! let traps = topo.traps_by_distance(fabric.center());
//! let requests = [
//!     RouteRequest::new(traps[0], traps[40]),
//!     RouteRequest::new(traps[1], traps[41]),
//! ];
//! let (plans, epoch) = engine.route_batch(&state, &requests);
//! assert!(plans.iter().all(|p| p.is_some()), "quiet fabric routes all");
//! assert_eq!(engine.stats().epochs, 1);
//! assert!(epoch.max_pressure <= tech.channel_capacity);
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use qspr_fabric::{GoalFields, SearchGraph, Time, Topology, TrapId};

use crate::plan::RoutePlan;
use crate::resource::{Resource, ResourceState};
use crate::router::{Overlay, Router, RouterConfig};

/// One mover of a batch-routing epoch: a qubit that must travel from
/// trap `from` to trap `to` starting now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRequest {
    /// The trap the qubit currently sits in.
    pub from: TrapId,
    /// The trap the qubit must reach.
    pub to: TrapId,
}

impl RouteRequest {
    /// Creates a request.
    pub fn new(from: TrapId, to: TrapId) -> RouteRequest {
        RouteRequest { from, to }
    }
}

/// Congestion statistics of one [`RoutingEngine::route_batch`] epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochStats {
    /// Rip-up-and-reroute iterations the negotiation ran (0 when the
    /// first joint answer was already conflict-free, and always 0 for
    /// the greedy engine).
    pub iterations: u32,
    /// Routes ripped up and re-routed across those iterations.
    pub ripped: u32,
    /// The highest per-segment pressure (committed bookings plus this
    /// batch's tentative routes) observed while solving the epoch. May
    /// exceed the channel capacity mid-negotiation; committed plans
    /// never do.
    pub max_pressure: u8,
}

/// Cumulative congestion statistics across every epoch an engine
/// served, reported at the end of a mapping run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoutingStats {
    /// Batch-routing epochs served (one per `route_batch` call).
    pub epochs: u64,
    /// Total rip-up-and-reroute iterations.
    pub iterations: u64,
    /// Total routes ripped up and re-routed.
    pub ripped: u64,
    /// Highest per-segment pressure observed in any epoch.
    pub max_pressure: u8,
}

impl RoutingStats {
    fn absorb(&mut self, epoch: &EpochStats) {
        self.epochs += 1;
        self.iterations += u64::from(epoch.iterations);
        self.ripped += u64::from(epoch.ripped);
        self.max_pressure = self.max_pressure.max(epoch.max_pressure);
    }
}

/// A pluggable batch-routing engine.
///
/// Mirrors `qspr_place::Placer`: the trait is object safe, the two
/// built-in engines are selected with [`RouterKind`], and third-party
/// engines plug into a mapper through [`RouterFactory`].
///
/// The contract of [`route_batch`](RoutingEngine::route_batch): the
/// returned plans (one slot per request, `None` = blocked, retried by
/// the caller later) must *jointly* respect the channel and junction
/// capacities on top of `state` — the caller books every returned plan.
pub trait RoutingEngine {
    /// Short stable engine name for reports (`"greedy"`, `"negotiated"`).
    fn name(&self) -> &str;

    /// The routing policy in effect.
    fn config(&self) -> &RouterConfig;

    /// A pure single-route probe under the current bookings (used for
    /// cost estimation, e.g. meeting-trap selection); does not count as
    /// an epoch and must not commit anything.
    fn route_one(&self, state: &ResourceState, from: TrapId, to: TrapId) -> Option<RoutePlan>;

    /// Routes one epoch's movers jointly. Slot `i` of the result answers
    /// request `i`; `None` means the mover is blocked for now.
    fn route_batch(
        &mut self,
        state: &ResourceState,
        requests: &[RouteRequest],
    ) -> (Vec<Option<RoutePlan>>, EpochStats);

    /// Tells the engine a plan was committed (feeds history terms).
    fn note_booked(&mut self, plan: &RoutePlan);

    /// Grants the engine up to `jobs` worker threads. Purely a
    /// performance hint that must never change results. The built-in
    /// engines ignore it: an epoch carries too few movers to split, so
    /// `--jobs` parallelizes the placer's independent seeds instead.
    fn set_parallelism(&mut self, _jobs: usize) {}

    /// `true` when this engine implements
    /// [`refine_epoch`](RoutingEngine::refine_epoch); callers then defer
    /// per-leg commitment until the epoch's full mover set is known.
    fn refines(&self) -> bool {
        false
    }

    /// Epoch refinement: given every plan committed in one scheduling
    /// epoch (with their bookings removed from `state`), propose a
    /// strictly better joint replacement, or `None` to keep the
    /// incumbents. A `Some` answer must hold one plan per incumbent
    /// with the same endpoints, jointly feasible under the hard
    /// capacities on top of `state`. The default keeps the incumbents.
    fn refine_epoch(
        &mut self,
        _state: &ResourceState,
        _incumbents: &[RoutePlan],
    ) -> Option<Vec<RoutePlan>> {
        None
    }

    /// Cumulative stats across all epochs served so far.
    fn stats(&self) -> RoutingStats;
}

/// Builds [`RoutingEngine`]s for a mapper run.
///
/// A mapping run needs a fresh engine (engines carry per-run history
/// state), so pluggability goes through a factory rather than a single
/// engine value. [`RouterKind`] implements this trait for the built-in
/// engines; third-party crates implement it to inject their own.
pub trait RouterFactory {
    /// Short stable name for reports.
    fn name(&self) -> &str;

    /// Creates a fresh engine over `topology` with the given policy.
    fn build<'t>(
        &self,
        topology: &'t Topology,
        config: RouterConfig,
    ) -> Box<dyn RoutingEngine + 't>;
}

impl<F: RouterFactory + ?Sized> RouterFactory for &F {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn build<'t>(
        &self,
        topology: &'t Topology,
        config: RouterConfig,
    ) -> Box<dyn RoutingEngine + 't> {
        (**self).build(topology, config)
    }
}

impl<F: RouterFactory + ?Sized> RouterFactory for std::sync::Arc<F> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn build<'t>(
        &self,
        topology: &'t Topology,
        config: RouterConfig,
    ) -> Box<dyn RoutingEngine + 't> {
        (**self).build(topology, config)
    }
}

impl<F: RouterFactory + ?Sized> RouterFactory for Box<F> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn build<'t>(
        &self,
        topology: &'t Topology,
        config: RouterConfig,
    ) -> Box<dyn RoutingEngine + 't> {
        (**self).build(topology, config)
    }
}

/// Selects one of the built-in routing engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterKind {
    /// Sequential first-answer routing ([`GreedyRouter`]), the default.
    #[default]
    Greedy,
    /// PathFinder-style rip-up-and-reroute ([`NegotiatedRouter`]).
    Negotiated,
    /// Speculative engine racing: run every engine configuration and
    /// keep the best latency with a config-order tie-break. The racing
    /// composition lives above the engine seam (in `qspr`'s flow,
    /// which runs one full mapping per leg); as a plain factory this
    /// kind builds the negotiated engine, race's strongest leg.
    Race,
}

impl RouterKind {
    /// Stable lowercase name (`"greedy"` / `"negotiated"` / `"race"`).
    pub fn as_str(self) -> &'static str {
        match self {
            RouterKind::Greedy => "greedy",
            RouterKind::Negotiated => "negotiated",
            RouterKind::Race => "race",
        }
    }

    /// Creates a fresh engine of this kind.
    pub fn build<'t>(
        self,
        topology: &'t Topology,
        config: RouterConfig,
    ) -> Box<dyn RoutingEngine + 't> {
        match self {
            RouterKind::Greedy => Box::new(GreedyRouter::new(topology, config)),
            RouterKind::Negotiated | RouterKind::Race => {
                Box::new(NegotiatedRouter::new(topology, config))
            }
        }
    }
}

impl fmt::Display for RouterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing an unknown router name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRouterKindError(String);

impl fmt::Display for ParseRouterKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown router {:?} (expected greedy, negotiated or race)",
            self.0
        )
    }
}

impl std::error::Error for ParseRouterKindError {}

impl FromStr for RouterKind {
    type Err = ParseRouterKindError;

    fn from_str(s: &str) -> Result<RouterKind, ParseRouterKindError> {
        match s {
            "greedy" => Ok(RouterKind::Greedy),
            "negotiated" => Ok(RouterKind::Negotiated),
            "race" => Ok(RouterKind::Race),
            other => Err(ParseRouterKindError(other.to_owned())),
        }
    }
}

impl RouterFactory for RouterKind {
    fn name(&self) -> &str {
        self.as_str()
    }

    fn build<'t>(
        &self,
        topology: &'t Topology,
        config: RouterConfig,
    ) -> Box<dyn RoutingEngine + 't> {
        (*self).build(topology, config)
    }
}

/// A [`RouterFactory`] producing [`NegotiatedRouter`]s whose congestion
/// history starts pre-seeded on chosen segments
/// ([`NegotiatedRouter::with_history_seed`]).
///
/// This is the routing half of the sta feedback loop: `qspr-sta`
/// extracts the critical path of a pilot mapping, and a seeded factory
/// built from its per-segment critical move counts prices those
/// segments up front on the re-run.
#[derive(Debug, Clone)]
pub struct SeededNegotiated {
    name: String,
    seed: std::sync::Arc<Vec<u32>>,
}

impl SeededNegotiated {
    /// A factory named `name` (shown in reports) seeding `seed` units of
    /// history per segment, indexed by [`qspr_fabric::SegmentId::index`].
    pub fn new(name: impl Into<String>, seed: Vec<u32>) -> SeededNegotiated {
        SeededNegotiated {
            name: name.into(),
            seed: std::sync::Arc::new(seed),
        }
    }

    /// The per-segment history seed.
    pub fn seed(&self) -> &[u32] {
        &self.seed
    }
}

impl RouterFactory for SeededNegotiated {
    fn name(&self) -> &str {
        &self.name
    }

    fn build<'t>(
        &self,
        topology: &'t Topology,
        config: RouterConfig,
    ) -> Box<dyn RoutingEngine + 't> {
        Box::new(NegotiatedRouter::new(topology, config).with_history_seed(&self.seed))
    }
}

/// Routes each mover of a batch against the bookings of the movers
/// before it, committing the first answer found — exactly the per-gate
/// behavior the simulator always had, now behind the engine seam.
#[derive(Debug, Clone)]
pub struct GreedyRouter<'a> {
    router: Router<'a>,
    scratch: ResourceState,
    stats: RoutingStats,
}

impl<'a> GreedyRouter<'a> {
    /// Creates a greedy engine over `topology`.
    pub fn new(topology: &'a Topology, config: RouterConfig) -> GreedyRouter<'a> {
        GreedyRouter {
            router: Router::new(topology, config),
            scratch: ResourceState::new(topology),
            stats: RoutingStats::default(),
        }
    }
}

impl RoutingEngine for GreedyRouter<'_> {
    fn name(&self) -> &str {
        RouterKind::Greedy.as_str()
    }

    fn config(&self) -> &RouterConfig {
        self.router.config()
    }

    fn route_one(&self, state: &ResourceState, from: TrapId, to: TrapId) -> Option<RoutePlan> {
        self.router.route(state, from, to)
    }

    fn route_batch(
        &mut self,
        state: &ResourceState,
        requests: &[RouteRequest],
    ) -> (Vec<Option<RoutePlan>>, EpochStats) {
        let (plans, max_pressure) = greedy_solve(&self.router, &mut self.scratch, state, requests);
        let epoch = EpochStats {
            iterations: 0,
            ripped: 0,
            max_pressure,
        };
        self.stats.absorb(&epoch);
        (plans, epoch)
    }

    fn note_booked(&mut self, plan: &RoutePlan) {
        self.router.note_booked(plan);
    }

    fn stats(&self) -> RoutingStats {
        self.stats
    }
}

/// Maximum rip-up-and-reroute iterations per epoch of the PathFinder
/// negotiation loop. Effort only, never quality: both adoption gates
/// (`route_batch` keeps the greedy answer unless negotiation strictly
/// beats it, and `refine_epoch` keeps the incumbents likewise) floor
/// the result at the greedy solution regardless of how early the loop
/// stops. Every negotiation behaves as if it ran all of them: a loop
/// that settles earlier (see [`NegotiatedRouter::fast_forward`]) adds
/// the skipped rounds' iterations, rips, history and costs without
/// searching.
const MAX_ITERATIONS: u32 = 4;

/// Initial present-congestion penalty per unit of overuse (cost units,
/// i.e. µs of equivalent travel).
const PRES_WEIGHT: u64 = 16;

/// Multiplier applied to the present penalty each iteration.
const PRES_GROWTH: u64 = 4;

/// Penalty per unit of accumulated segment history (carried across
/// epochs, so repeat offenders get spread out over the fabric).
const HIST_WEIGHT: u64 = 1;

/// PathFinder-style negotiated-congestion engine.
///
/// Per epoch: route every mover with soft capacities, find
/// over-capacity segments/junctions, rip up the routes crossing them
/// and re-route under growing present-congestion and history
/// penalties; finally commit under hard capacities. The committed
/// answer is compared against the greedy answer for the same batch and
/// the better one (fewer blocked movers, then smaller makespan, then
/// smaller total travel) is returned — negotiation can only help.
#[derive(Debug, Clone)]
pub struct NegotiatedRouter<'a> {
    router: Router<'a>,
    /// Cross-epoch per-segment history counters (the PathFinder `h_n`).
    history: Vec<u32>,
    /// Batch-internal tentative bookings, reused across epochs.
    extra_segments: Vec<u8>,
    extra_junctions: Vec<u8>,
    /// Resources the current epoch's tentative routes ever touched —
    /// the only places a conflict can appear, so the conflict scan
    /// skips the rest of the fabric. Deduplicated through the
    /// generation-stamped membership arrays below, and drained at the
    /// next epoch start to reset `extra_*` in O(touched) instead of
    /// O(fabric).
    touched: Vec<Resource>,
    seg_touched: Vec<u32>,
    junc_touched: Vec<u32>,
    touch_gen: u32,
    /// Per-iteration conflict marks: a resource is conflicted in the
    /// current rip-up round iff its stamp equals `conflict_gen`, giving
    /// the rip scan O(1) membership tests instead of a linear search
    /// through the conflict list.
    seg_conflict: Vec<u32>,
    junc_conflict: Vec<u32>,
    conflict_gen: u32,
    scratch: ResourceState,
    stats: RoutingStats,
    /// The fabric's shared empty-fabric distance rows under the
    /// turn-aware metric, behind the lower-bound gate
    /// ([`NegotiatedRouter::min_duration`]).
    bound_fields: Arc<GoalFields>,
    /// Test-only: run every rip-up round even when the settled-round
    /// rule would fast-forward them, as the reference to compare with.
    #[cfg(test)]
    full_loop: bool,
    /// Test-only: negotiations whose remaining rounds were
    /// fast-forwarded.
    #[cfg(test)]
    fast_forwards: usize,
}

impl<'a> NegotiatedRouter<'a> {
    /// Creates a negotiated engine over `topology`.
    pub fn new(topology: &'a Topology, config: RouterConfig) -> NegotiatedRouter<'a> {
        let n_seg = topology.segments().len();
        let n_junc = topology.junctions().len();
        NegotiatedRouter {
            router: Router::new(topology, config),
            history: vec![0; n_seg],
            extra_segments: vec![0; n_seg],
            extra_junctions: vec![0; n_junc],
            touched: Vec::new(),
            seg_touched: vec![0; n_seg],
            junc_touched: vec![0; n_junc],
            touch_gen: 0,
            seg_conflict: vec![0; n_seg],
            junc_conflict: vec![0; n_junc],
            conflict_gen: 0,
            scratch: ResourceState::new(topology),
            stats: RoutingStats::default(),
            bound_fields: topology.goal_fields(config.t_move, config.t_turn),
            #[cfg(test)]
            full_loop: false,
            #[cfg(test)]
            fast_forwards: 0,
        }
    }

    /// Minimum achievable travel duration from `from` to `to` on an
    /// empty fabric (0 when no path exists), which no resource state or
    /// negotiation overlay can beat.
    ///
    /// On an empty fabric every resource is free (capacities are at
    /// least 1), so a plan's duration is its moves times `t_move` plus
    /// its turns times `t_turn`. The fastest plan is therefore the
    /// cheaper of the direct same-segment walk and the best via route:
    /// source leg to a source-segment end, the empty-fabric distance
    /// between that end and a target-segment end in the turn-aware
    /// metric, then the target leg. The fabric's shared single-node
    /// rows ([`GoalFields::node_row`]) hold those distances, so the
    /// answer needs no search and is shared by every MVFB pass and
    /// thread over the same fabric.
    fn min_duration(&self, from: TrapId, to: TrapId) -> Time {
        if from == to {
            return 0;
        }
        let topo = self.router.topology();
        let t_move = self.router.config().t_move;
        let (pf, pt) = (topo.trap(from).port(), topo.trap(to).port());
        let (src, dst) = (topo.segment(pf.segment), topo.segment(pt.segment));
        let mut best = (pf.segment == pt.segment)
            .then(|| (2 + Time::from(pf.offset.abs_diff(pt.offset))) * t_move);
        for (f, dst_end) in dst.ends().into_iter().enumerate() {
            let Some(jf) = dst_end.junction() else {
                continue;
            };
            let row = self
                .bound_fields
                .node_row(topo, SearchGraph::node(jf, dst.orientation()));
            let target_leg = (Time::from(dst.moves_to_end(pt.offset, f)) + 1) * t_move;
            for (e, src_end) in src.ends().into_iter().enumerate() {
                let Some(je) = src_end.junction() else {
                    continue;
                };
                let d = row[SearchGraph::node(je, src.orientation())];
                if d == GoalFields::UNREACHABLE {
                    continue;
                }
                let source_leg = (1 + Time::from(src.moves_to_end(pf.offset, e))) * t_move;
                let via = source_leg + Time::from(d) + target_leg;
                best = Some(best.map_or(via, |b| b.min(via)));
            }
        }
        best.unwrap_or(0)
    }

    /// Component-wise `(makespan, total)` lower bound over every joint
    /// routing of `requests`. If this already reaches an incumbent's
    /// lexicographic score, no negotiated answer can *strictly* beat
    /// the incumbent — each component of any joint answer is bounded
    /// below by the corresponding component here — so the negotiation
    /// can be skipped without changing which plans get adopted.
    fn joint_lower_bound(&self, requests: &[RouteRequest]) -> (Time, Time) {
        let mut mk = 0;
        let mut tot = 0;
        for req in requests {
            let d = self.min_duration(req.from, req.to);
            mk = mk.max(d);
            tot += d;
        }
        (mk, tot)
    }

    /// Pre-seeds the per-segment PathFinder history counters, as if the
    /// seeded segments had already been fought over. Timing-driven
    /// feedback (`qspr-sta`) uses this to price critical-path segments
    /// up front, steering non-critical traffic around them from the
    /// first epoch instead of only after conflicts accumulate.
    ///
    /// `seed` is indexed by [`qspr_fabric::SegmentId::index`]; a seed
    /// shorter or longer than the fabric is zip-truncated.
    pub fn with_history_seed(mut self, seed: &[u32]) -> NegotiatedRouter<'a> {
        for (h, s) in self.history.iter_mut().zip(seed) {
            *h += s;
        }
        self
    }

    /// Resets the epoch-local batch bookings by undoing only what the
    /// previous epoch touched.
    fn begin_epoch(&mut self) {
        for r in self.touched.drain(..) {
            match r {
                Resource::Segment(s) => self.extra_segments[s.index()] = 0,
                Resource::Junction(j) => self.extra_junctions[j.index()] = 0,
            }
        }
        self.touch_gen = self.touch_gen.wrapping_add(1);
        if self.touch_gen == 0 {
            // Generation 0 is skipped, so a 0 stamp is never current.
            self.seg_touched.fill(0);
            self.junc_touched.fill(0);
            self.touch_gen = 1;
        }
    }

    fn book_extra(&mut self, plan: &RoutePlan) {
        for u in plan.resources() {
            // Saturating: tentative soft-mode bookings are not capacity
            // checked, and a pathological epoch must stay merely
            // congested rather than wrap the counter.
            let stamp = match u.resource {
                Resource::Segment(s) => {
                    let slot = &mut self.extra_segments[s.index()];
                    *slot = slot.saturating_add(1);
                    &mut self.seg_touched[s.index()]
                }
                Resource::Junction(j) => {
                    let slot = &mut self.extra_junctions[j.index()];
                    *slot = slot.saturating_add(1);
                    &mut self.junc_touched[j.index()]
                }
            };
            if *stamp != self.touch_gen {
                *stamp = self.touch_gen;
                self.touched.push(u.resource);
            }
        }
    }

    fn unbook_extra(&mut self, plan: &RoutePlan) {
        for u in plan.resources() {
            match u.resource {
                Resource::Segment(s) => {
                    let slot = &mut self.extra_segments[s.index()];
                    *slot = slot.saturating_sub(1);
                }
                Resource::Junction(j) => {
                    let slot = &mut self.extra_junctions[j.index()];
                    *slot = slot.saturating_sub(1);
                }
            }
        }
    }

    /// Scans the touched resources for over-capacity ones, stamping
    /// each with the fresh conflict generation (and bumping its
    /// PathFinder history when it is a segment); also records the peak
    /// segment pressure into `epoch`. Returns the number of conflicts.
    /// An untouched resource has no batch bookings and the shared state
    /// is feasible by construction, so it cannot be over capacity.
    fn mark_conflicts(&mut self, state: &ResourceState, epoch: &mut EpochStats) -> usize {
        self.conflict_gen = self.conflict_gen.wrapping_add(1);
        if self.conflict_gen == 0 {
            // Generation 0 is skipped, so a 0 stamp is never current.
            self.seg_conflict.fill(0);
            self.junc_conflict.fill(0);
            self.conflict_gen = 1;
        }
        let mut conflicts = 0;
        for &resource in &self.touched {
            // Per-resource: a spec capacity override beats the global
            // technology default, so negotiation converges toward the
            // same feasibility the hard-capacity search enforces.
            let cap = self.router.capacity(resource);
            let extra = match resource {
                Resource::Segment(s) => self.extra_segments[s.index()],
                Resource::Junction(j) => self.extra_junctions[j.index()],
            };
            let n = state.usage(resource).saturating_add(extra);
            if extra > 0 {
                if let Resource::Segment(_) = resource {
                    epoch.max_pressure = epoch.max_pressure.max(n);
                }
            }
            if n > cap {
                conflicts += 1;
                match resource {
                    Resource::Segment(s) => {
                        self.seg_conflict[s.index()] = self.conflict_gen;
                        self.history[s.index()] += 1;
                    }
                    Resource::Junction(j) => self.junc_conflict[j.index()] = self.conflict_gen,
                }
            }
        }
        conflicts
    }

    /// Whether `resource` was marked conflicted by the latest
    /// [`NegotiatedRouter::mark_conflicts`] scan.
    fn is_conflicted(&self, resource: Resource) -> bool {
        match resource {
            Resource::Segment(s) => self.seg_conflict[s.index()] == self.conflict_gen,
            Resource::Junction(j) => self.junc_conflict[j.index()] == self.conflict_gen,
        }
    }

    /// The soft-mode negotiation overlay over the current batch
    /// bookings at present-congestion weight `pres`.
    fn overlay(&self, pres: u64) -> Overlay<'_> {
        Overlay {
            extra_segments: &self.extra_segments,
            extra_junctions: &self.extra_junctions,
            soft: true,
            pres_weight: pres,
            history: &self.history,
            hist_weight: HIST_WEIGHT,
        }
    }

    /// `true` when every conflicted resource on every crossing plan is
    /// that plan's own source-port or target-port segment, and no
    /// crossing plan is a via route out of and back into one segment
    /// (part (b) of the settled-round rule, see
    /// [`NegotiatedRouter::fast_forward`]).
    fn settled_on_ports(&self, plans: &[Option<RoutePlan>]) -> bool {
        let topo = self.router.topology();
        plans
            .iter()
            .flatten()
            .all(|p| conflicts_only_on_ports(topo, p, |r| self.is_conflicted(r)))
    }

    /// Applies the `rest` remaining rip-up rounds of a settled
    /// negotiation without running them: exactly the history, stats
    /// and estimated costs the full loop would leave.
    ///
    /// The rule: a round has *settled* when (a) every ripped mover got
    /// back the path it had (by steps; the estimated cost moves with
    /// the prices), and (b) every conflicted resource on every crossing
    /// plan is that plan's own source-port or target-port segment, the
    /// two being different segments unless the plan is the direct
    /// same-segment walk.
    ///
    /// Why the later rounds cannot change a path: by (a) the batch
    /// bookings are what they were, so each later round marks the same
    /// conflicts and rips the same crossers, each seeing the same other
    /// plans. Between two rounds a crosser's soft prices change only by
    /// a larger present weight and one more unit of history on the
    /// conflicted segments. Its current path pays those only on its own
    /// port segments (any other resource it uses is within capacity
    /// with it included, so it costs no present price and carries no
    /// conflict history), and it pays each of them once. Every other
    /// path must also leave the source segment and enter the target
    /// segment, paying the same two surcharges at least once; when the
    /// ports share a segment, the direct walk pays it once and any via
    /// route twice. All other price changes are increases on resources
    /// the current path does not use. So the current path's cost rises
    /// by a constant that every rival's cost rises by at least as
    /// much. A path that re-crosses its own source or target segment
    /// pays that segment again and is strictly dominated, since the
    /// detour costs moves. The search is exact (it matches a
    /// run-to-exhaustion Dijkstra, which `route_naive` pins) and breaks
    /// ties by heap order over costs that the uniform shift preserves,
    /// so it returns the same path in every later round.
    ///
    /// What those rounds would have done, applied directly:
    /// * each marks the same conflicts, so every conflicted segment
    ///   gains `rest` units of history and the peak pressure stays;
    /// * each counts one iteration and rips every crosser once;
    /// * the last re-route prices each crosser at the final present
    ///   weight, so its estimated cost gains, per conflicted segment it
    ///   uses, `overuse × (final_pres − pres) + rest × HIST_WEIGHT`.
    fn fast_forward(
        &mut self,
        state: &ResourceState,
        plans: &mut [Option<RoutePlan>],
        pres: u64,
        rest: u32,
        epoch: &mut EpochStats,
    ) {
        #[cfg(test)]
        {
            self.fast_forwards += 1;
        }
        let final_pres = (0..rest).fold(pres, |p, _| p.saturating_mul(PRES_GROWTH));
        for &r in &self.touched {
            if let Resource::Segment(s) = r {
                if self.seg_conflict[s.index()] == self.conflict_gen {
                    self.history[s.index()] += rest;
                }
            }
        }
        let mut crossers = 0;
        for plan in plans.iter_mut().flatten() {
            let mut crosses = false;
            let mut added = 0u64;
            for u in plan.resources() {
                if !self.is_conflicted(u.resource) {
                    continue;
                }
                let Resource::Segment(s) = u.resource else {
                    unreachable!("a settled negotiation has no conflicted junction");
                };
                crosses = true;
                // The overuse this plan saw when it was re-routed, with
                // its own booking lifted off the batch.
                let others = state
                    .usage(u.resource)
                    .saturating_add(self.extra_segments[s.index()] - 1);
                let overuse = u64::from(others) + 1 - u64::from(self.router.capacity(u.resource));
                added = added
                    .saturating_add(overuse.saturating_mul(final_pres - pres))
                    .saturating_add(u64::from(rest) * HIST_WEIGHT);
            }
            if crosses {
                crossers += 1;
                plan.add_est_cost(added);
            }
        }
        epoch.iterations += rest;
        epoch.ripped += rest * crossers;
    }

    /// Whether the settled-round fast-forward is off (test builds can
    /// switch it off to compare against the full loop).
    #[cfg(not(test))]
    fn full_loop(&self) -> bool {
        false
    }

    #[cfg(test)]
    fn full_loop(&self) -> bool {
        self.full_loop
    }

    /// The negotiation proper: soft-capacity routing plus incremental
    /// rip-up-and-reroute (each round re-routes only the movers
    /// touching a conflicted resource, and a settled round ends the
    /// loop early, see [`NegotiatedRouter::fast_forward`]), then a
    /// hard-capacity commit pass.
    fn negotiate(
        &mut self,
        state: &ResourceState,
        requests: &[RouteRequest],
        epoch: &mut EpochStats,
    ) -> Vec<Option<RoutePlan>> {
        self.begin_epoch();
        let mut pres = PRES_WEIGHT;

        // Round 0: everyone routes, seeing the movers before them and
        // paying soft prices for contention.
        let mut plans: Vec<Option<RoutePlan>> = Vec::with_capacity(requests.len());
        for req in requests {
            let overlay = self.overlay(pres);
            let plan = self
                .router
                .route_with(state, req.from, req.to, Some(&overlay));
            if let Some(p) = &plan {
                self.book_extra(p);
            }
            plans.push(plan);
        }

        // Negotiation rounds: rip up whatever crosses an over-used
        // resource and let it find a less contended path; everyone else
        // keeps their route untouched.
        for round in 0..MAX_ITERATIONS {
            if self.mark_conflicts(state, epoch) == 0 {
                break;
            }
            epoch.iterations += 1;
            pres = pres.saturating_mul(PRES_GROWTH);
            // Whether every ripped mover got its old path back.
            let mut unchanged = true;
            for slot in plans.iter_mut() {
                let crosses = slot
                    .as_ref()
                    .is_some_and(|p| p.resources().iter().any(|u| self.is_conflicted(u.resource)));
                if !crosses {
                    continue;
                }
                let ripped = slot.take().expect("crossing implies a plan");
                self.unbook_extra(&ripped);
                epoch.ripped += 1;
                let overlay = self.overlay(pres);
                let plan = self.router.route_with(
                    state,
                    ripped.from_trap(),
                    ripped.to_trap(),
                    Some(&overlay),
                );
                if let Some(p) = &plan {
                    self.book_extra(p);
                }
                unchanged &= plan.as_ref().is_some_and(|p| p.steps() == ripped.steps());
                *slot = plan;
            }
            let rest = MAX_ITERATIONS - round - 1;
            if rest > 0 && unchanged && !self.full_loop() && self.settled_on_ports(&plans) {
                self.fast_forward(state, &mut plans, pres, rest, epoch);
                break;
            }
        }

        // Commit pass: hard capacities, request order. Keep each
        // negotiated plan that still fits; hard-reroute the rest.
        self.scratch.clone_from(state);
        let mut out = Vec::with_capacity(requests.len());
        for (slot, req) in plans.iter_mut().zip(requests) {
            let candidate = slot.take().filter(|p| fits(&self.scratch, p, &self.router));
            let plan = candidate.or_else(|| self.router.route(&self.scratch, req.from, req.to));
            if let Some(p) = &plan {
                for u in p.resources() {
                    self.scratch
                        .book(u.resource)
                        .expect("capacity-checked plans stay below u8::MAX bookings");
                }
            }
            out.push(plan);
        }
        out
    }
}

impl RoutingEngine for NegotiatedRouter<'_> {
    fn name(&self) -> &str {
        RouterKind::Negotiated.as_str()
    }

    fn config(&self) -> &RouterConfig {
        self.router.config()
    }

    fn route_one(&self, state: &ResourceState, from: TrapId, to: TrapId) -> Option<RoutePlan> {
        self.router.route(state, from, to)
    }

    fn route_batch(
        &mut self,
        state: &ResourceState,
        requests: &[RouteRequest],
    ) -> (Vec<Option<RoutePlan>>, EpochStats) {
        let (greedy, greedy_pressure) =
            greedy_solve(&self.router, &mut self.scratch, state, requests);
        let mut epoch = EpochStats {
            iterations: 0,
            ripped: 0,
            max_pressure: greedy_pressure,
        };
        // A single mover has nothing to negotiate with.
        if requests.len() < 2 {
            self.stats.absorb(&epoch);
            return (greedy, epoch);
        }
        // Lower-bound gate: when greedy routed everyone and already
        // sits on the unconstrained-optimum score, negotiation cannot
        // strictly improve and would be discarded below — skip it.
        // Blocked movers always negotiate: unblocking beats any score.
        if greedy.iter().all(Option::is_some)
            && self.joint_lower_bound(requests) >= plan_score(greedy.iter().flatten())
        {
            self.stats.absorb(&epoch);
            return (greedy, epoch);
        }
        let negotiated = self.negotiate(state, requests, &mut epoch);
        // Negotiation may only improve on the greedy answer: fewer
        // blocked movers, then a smaller epoch makespan, then less
        // total travel. Ties return the greedy plans verbatim so the
        // two engines stay byte-identical on uncontended batches.
        let plans = if batch_score(&negotiated) < batch_score(&greedy) {
            negotiated
        } else {
            greedy
        };
        self.stats.absorb(&epoch);
        (plans, epoch)
    }

    fn note_booked(&mut self, plan: &RoutePlan) {
        self.router.note_booked(plan);
    }

    fn refines(&self) -> bool {
        true
    }

    fn refine_epoch(
        &mut self,
        state: &ResourceState,
        incumbents: &[RoutePlan],
    ) -> Option<Vec<RoutePlan>> {
        if incumbents.len() < 2 {
            return None;
        }
        let requests: Vec<RouteRequest> = incumbents
            .iter()
            .map(|p| RouteRequest::new(p.from_trap(), p.to_trap()))
            .collect();
        let incumbent_score = plan_score(incumbents.iter());
        // Lower-bound gate: incumbents at the unconstrained optimum
        // cannot be strictly improved, so the negotiation would never
        // be adopted — skip the whole rip-up.
        if self.joint_lower_bound(&requests) >= incumbent_score {
            return None;
        }
        let mut epoch = EpochStats::default();
        let negotiated = self.negotiate(state, &requests, &mut epoch);
        // Refinement rides an epoch that was already counted by the
        // per-instruction `route_batch` calls; only the negotiation
        // effort accumulates.
        self.stats.iterations += u64::from(epoch.iterations);
        self.stats.ripped += u64::from(epoch.ripped);
        self.stats.max_pressure = self.stats.max_pressure.max(epoch.max_pressure);

        // Adopt only a complete answer that strictly improves on the
        // incumbents (which are fully routed by construction).
        if negotiated.iter().any(Option::is_none) {
            return None;
        }
        let new_score = plan_score(negotiated.iter().flatten());
        if new_score < incumbent_score {
            Some(negotiated.into_iter().flatten().collect())
        } else {
            None
        }
    }

    fn stats(&self) -> RoutingStats {
        self.stats
    }
}

/// `true` when every resource of `plan` that `conflicted` flags is the
/// plan's own source-port or target-port segment, and the plan is not a
/// via route whose two ports share a segment (such a route pays that
/// segment twice, so its rivals' costs do not shift uniformly).
fn conflicts_only_on_ports(
    topo: &Topology,
    plan: &RoutePlan,
    conflicted: impl Fn(Resource) -> bool,
) -> bool {
    let src = topo.trap(plan.from_trap()).port().segment;
    let dst = topo.trap(plan.to_trap()).port().segment;
    let mut crosses = false;
    for u in plan.resources() {
        if !conflicted(u.resource) {
            continue;
        }
        crosses = true;
        match u.resource {
            Resource::Segment(s) if s == src || s == dst => {}
            _ => return false,
        }
    }
    let direct = plan.resources().len() == 1;
    !crosses || src != dst || direct
}

/// `true` when booking every resource of `plan` on top of `state` stays
/// within the effective (per-resource) capacities.
fn fits(state: &ResourceState, plan: &RoutePlan, router: &Router<'_>) -> bool {
    plan.resources()
        .iter()
        .all(|u| state.usage(u.resource) < router.capacity(u.resource))
}

/// Joint quality of a batch answer, smaller is better: blocked movers,
/// then the epoch makespan, then total travel time.
fn batch_score(plans: &[Option<RoutePlan>]) -> (usize, Time, Time) {
    let blocked = plans.iter().filter(|p| p.is_none()).count();
    let (makespan, total) = plan_score(plans.iter().flatten());
    (blocked, makespan, total)
}

/// (makespan, total travel) of a fully routed plan set.
fn plan_score<'p>(plans: impl Iterator<Item = &'p RoutePlan>) -> (Time, Time) {
    let mut makespan = 0;
    let mut total = 0;
    for p in plans {
        makespan = makespan.max(p.duration());
        total += p.duration();
    }
    (makespan, total)
}

/// Sequential first-answer routing shared by both engines: request `i`
/// is routed under `state` plus the bookings of requests `0..i`.
/// Returns the plans and the peak segment pressure after booking.
fn greedy_solve(
    router: &Router<'_>,
    scratch: &mut ResourceState,
    state: &ResourceState,
    requests: &[RouteRequest],
) -> (Vec<Option<RoutePlan>>, u8) {
    let mut pressure = 0u8;
    if let [req] = requests {
        // Hot path: single movers need no scratch bookings.
        let plan = router.route(state, req.from, req.to);
        if let Some(p) = &plan {
            for u in p.resources() {
                if let Resource::Segment(_) = u.resource {
                    pressure = pressure.max(state.usage(u.resource) + 1);
                }
            }
        }
        return (vec![plan], pressure);
    }
    scratch.clone_from(state);
    let mut plans = Vec::with_capacity(requests.len());
    for req in requests {
        match router.route(scratch, req.from, req.to) {
            Some(plan) => {
                for u in plan.resources() {
                    scratch
                        .book(u.resource)
                        .expect("capacity-checked plans stay below u8::MAX bookings");
                    if let Resource::Segment(_) = u.resource {
                        pressure = pressure.max(scratch.usage(u.resource));
                    }
                }
                plans.push(Some(plan));
            }
            None => plans.push(None),
        }
    }
    (plans, pressure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Step;
    use qspr_fabric::{Coord, Fabric, TechParams};

    fn quale() -> Fabric {
        Fabric::quale_45x85()
    }

    #[test]
    fn kind_parses_and_displays() {
        assert_eq!("greedy".parse::<RouterKind>().unwrap(), RouterKind::Greedy);
        assert_eq!(
            "negotiated".parse::<RouterKind>().unwrap(),
            RouterKind::Negotiated
        );
        let err = "fancy".parse::<RouterKind>().unwrap_err();
        assert!(err.to_string().contains("unknown router"));
        assert_eq!(RouterKind::Negotiated.to_string(), "negotiated");
        assert_eq!(RouterKind::default(), RouterKind::Greedy);
    }

    #[test]
    fn factory_builds_matching_engines() {
        let fabric = quale();
        let topo = fabric.topology();
        let config = RouterConfig::qspr(&TechParams::date2012());
        for kind in [RouterKind::Greedy, RouterKind::Negotiated] {
            let factory: &dyn RouterFactory = &kind;
            let engine = factory.build(topo, config);
            assert_eq!(engine.name(), kind.as_str());
            assert_eq!(engine.config(), &config);
            assert_eq!(engine.stats(), RoutingStats::default());
        }
    }

    #[test]
    fn seeded_factory_reports_its_name_and_zero_seed_is_a_noop() {
        let fabric = quale();
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let config = RouterConfig::qspr(&tech);
        let seeded = SeededNegotiated::new("negotiated+sta", vec![0; topo.segments().len()]);
        assert_eq!(RouterFactory::name(&seeded), "negotiated+sta");
        assert_eq!(seeded.seed().len(), topo.segments().len());

        // Zero history seed must behave exactly like a fresh negotiated
        // engine on a contended batch.
        let state = ResourceState::new(topo);
        let traps = topo.traps_by_distance(fabric.center());
        let requests = [
            RouteRequest::new(traps[0], traps[60]),
            RouteRequest::new(traps[1], traps[61]),
            RouteRequest::new(traps[2], traps[62]),
        ];
        let mut plain = NegotiatedRouter::new(topo, config);
        let mut from_seed = seeded.build(topo, config);
        let (pp, pe) = plain.route_batch(&state, &requests);
        let (sp, se) = from_seed.route_batch(&state, &requests);
        assert_eq!(pp, sp);
        assert_eq!(pe, se);
    }

    #[test]
    fn history_seed_prices_segments_from_the_first_epoch() {
        // Seed every segment the unseeded engine used for one mover;
        // under soft capacities the seeded engine must find a route that
        // avoids at least one of them (the detour exists on the fabric),
        // or pay the history price knowingly. Either way routing still
        // succeeds — seeding can never make a mover unroutable.
        let fabric = quale();
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let config = RouterConfig::qspr(&tech);
        let state = ResourceState::new(topo);
        let traps = topo.traps_by_distance(fabric.center());
        let requests = [RouteRequest::new(traps[0], traps[80])];
        let mut plain = NegotiatedRouter::new(topo, config);
        let (pp, _) = plain.route_batch(&state, &requests);
        let baseline = pp[0].as_ref().expect("quiet fabric routes");

        let mut seed = vec![0u32; topo.segments().len()];
        for u in baseline.resources() {
            if let Resource::Segment(s) = u.resource {
                seed[s.index()] = 8;
            }
        }
        let mut seeded_engine = NegotiatedRouter::new(topo, config).with_history_seed(&seed);
        let (sp, _) = seeded_engine.route_batch(&state, &requests);
        assert!(sp[0].is_some(), "seeding must not block routing");
    }

    #[test]
    fn greedy_batch_matches_sequential_routing() {
        let fabric = quale();
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let config = RouterConfig::qspr(&tech);
        let router = Router::new(topo, config);
        let mut engine = GreedyRouter::new(topo, config);
        let state = ResourceState::new(topo);
        let traps = topo.traps_by_distance(fabric.center());
        let requests = [
            RouteRequest::new(traps[0], traps[50]),
            RouteRequest::new(traps[1], traps[51]),
        ];

        let (plans, epoch) = engine.route_batch(&state, &requests);
        // Reference: route by hand, booking between the two.
        let mut manual = ResourceState::new(topo);
        let first = router.route(&manual, traps[0], traps[50]).unwrap();
        for u in first.resources() {
            manual.book(u.resource).unwrap();
        }
        let second = router.route(&manual, traps[1], traps[51]).unwrap();
        assert_eq!(plans[0].as_ref(), Some(&first));
        assert_eq!(plans[1].as_ref(), Some(&second));
        assert_eq!(epoch.iterations, 0);
        assert!(epoch.max_pressure >= 1);
        assert_eq!(engine.stats().epochs, 1);
    }

    #[test]
    fn negotiated_ties_return_greedy_plans_verbatim() {
        // Far-apart movers share nothing; negotiation must not diverge.
        let fabric = quale();
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let config = RouterConfig::qspr(&tech);
        let state = ResourceState::new(topo);
        let order = topo.traps_by_distance(Coord::new(0, 0));
        let (n, far) = (order.len(), order.len() - 1);
        let requests = [
            RouteRequest::new(order[0], order[1]),
            RouteRequest::new(order[far], order[n - 2]),
        ];
        let mut greedy = GreedyRouter::new(topo, config);
        let mut negotiated = NegotiatedRouter::new(topo, config);
        let (gp, _) = greedy.route_batch(&state, &requests);
        let (np, ne) = negotiated.route_batch(&state, &requests);
        assert_eq!(gp, np);
        assert_eq!(ne.iterations, 0, "nothing shared, nothing to negotiate");
    }

    /// A fabric where mover A's *shortest* path monopolizes the one
    /// corridor mover B can use at all, while A has a slightly longer
    /// detour through a second corridor. Greedy routes A first (top
    /// corridor) and leaves B blocked under capacity 1; negotiation
    /// pushes A onto the detour so both movers route.
    fn two_corridor_fabric() -> Fabric {
        Fabric::from_ascii(
            "..T.......T..\n\
             .+---------+.\n\
             T|.........|T\n\
             .|.........|.\n\
             .+---------+.\n",
        )
        .unwrap()
    }

    #[test]
    fn negotiation_unblocks_capacity_one_conflicts() {
        let fabric = two_corridor_fabric();
        let topo = fabric.topology();
        let tech = TechParams::date2012().without_multiplexing();
        let config = RouterConfig {
            channel_capacity: 1,
            junction_capacity: 1,
            ..RouterConfig::qspr(&tech)
        };
        let state = ResourceState::new(topo);
        // A crosses left-to-right (detour exists); B lives on the top
        // corridor (no alternative).
        let a_src = topo.trap_at(Coord::new(2, 0)).unwrap();
        let a_dst = topo.trap_at(Coord::new(2, 12)).unwrap();
        let b_src = topo.trap_at(Coord::new(0, 2)).unwrap();
        let b_dst = topo.trap_at(Coord::new(0, 10)).unwrap();
        let requests = [
            RouteRequest::new(a_src, a_dst),
            RouteRequest::new(b_src, b_dst),
        ];

        let mut greedy = GreedyRouter::new(topo, config);
        let (gp, _) = greedy.route_batch(&state, &requests);
        assert!(gp[0].is_some());
        assert!(gp[1].is_none(), "greedy A monopolizes B's only corridor");

        let mut negotiated = NegotiatedRouter::new(topo, config);
        let (np, epoch) = negotiated.route_batch(&state, &requests);
        assert!(
            np[0].is_some() && np[1].is_some(),
            "negotiation routes both"
        );
        assert!(epoch.iterations >= 1, "a rip-up round was needed");
        assert!(epoch.ripped >= 1);
        assert!(epoch.max_pressure > config.channel_capacity);
        // The joint answer respects hard capacity: no shared resources.
        let mut seen = std::collections::BTreeSet::new();
        for plan in np.iter().flatten() {
            for u in plan.resources() {
                assert!(
                    seen.insert(u.resource),
                    "capacity-1 overlap on {}",
                    u.resource
                );
            }
        }
    }

    /// Runs one negotiation on a fast-forwarding engine and on a
    /// full-loop copy of it, asserts both leave identical plans
    /// (estimated costs included), epoch stats and history, and
    /// returns how many negotiations the first one fast-forwarded.
    fn negotiate_both_ways(
        ff: &mut NegotiatedRouter<'_>,
        full: &mut NegotiatedRouter<'_>,
        state: &ResourceState,
        requests: &[RouteRequest],
    ) -> usize {
        full.full_loop = true;
        let before = ff.fast_forwards;
        let (mut ff_epoch, mut full_epoch) = (EpochStats::default(), EpochStats::default());
        let ff_plans = ff.negotiate(state, requests, &mut ff_epoch);
        let full_plans = full.negotiate(state, requests, &mut full_epoch);
        assert_eq!(ff_plans, full_plans, "plans of {requests:?}");
        assert_eq!(ff_epoch, full_epoch, "epoch stats of {requests:?}");
        assert_eq!(ff.history, full.history, "history after {requests:?}");
        assert_eq!(full.fast_forwards, 0);
        ff.fast_forwards - before
    }

    #[test]
    fn settled_port_conflicts_fast_forward_to_the_full_loop_answer() {
        // Capacity-1 channels (junctions roomy), three movers leaving
        // one segment for far-apart targets: each must cross its own
        // source segment, so the negotiation settles with the conflict
        // there and the remaining rounds are skipped.
        let fabric = quale();
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let config = RouterConfig {
            channel_capacity: 1,
            junction_capacity: 3,
            ..RouterConfig::qspr(&tech)
        };
        let order = topo.traps_by_distance(fabric.center());
        let seg = topo.trap(order[0]).port().segment;
        let sources: Vec<TrapId> = order
            .iter()
            .copied()
            .filter(|&t| topo.trap(t).port().segment == seg)
            .take(3)
            .collect();
        assert_eq!(sources.len(), 3, "quale segments carry several ports");
        let far = topo.traps_by_distance(Coord::new(0, 0));
        let requests: Vec<RouteRequest> = sources
            .iter()
            .zip([far[0], far[200], far[400]])
            .map(|(&from, to)| RouteRequest::new(from, to))
            .collect();
        let state = ResourceState::new(topo);
        let mut ff = NegotiatedRouter::new(topo, config);
        let mut full = NegotiatedRouter::new(topo, config);
        let fired = negotiate_both_ways(&mut ff, &mut full, &state, &requests);
        assert_eq!(fired, 1, "a shared source segment settles the negotiation");
        let mut epoch = EpochStats::default();
        full.negotiate(&state, &requests, &mut epoch);
        assert_eq!(
            epoch.iterations, MAX_ITERATIONS,
            "the full loop runs every round"
        );
    }

    #[test]
    fn junction_conflict_fixed_point_is_not_fast_forwarded() {
        // One capacity-1 junction that both movers must cross: they get
        // their paths back every round, but the conflict sits on the
        // junction, not on a port segment, so every round runs.
        let fabric = Fabric::from_ascii(
            "...|...\n\
             ..T|...\n\
             T..|...\n\
             ---+---\n\
             ...|..T\n\
             ...|T..\n\
             ...|...\n",
        )
        .unwrap();
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let config = RouterConfig {
            channel_capacity: 2,
            junction_capacity: 1,
            ..RouterConfig::qspr(&tech)
        };
        let trap = |row, col| topo.trap_at(Coord::new(row, col)).unwrap();
        let requests = [
            RouteRequest::new(trap(2, 0), trap(4, 6)),
            RouteRequest::new(trap(1, 2), trap(5, 4)),
        ];
        let state = ResourceState::new(topo);
        let mut ff = NegotiatedRouter::new(topo, config);
        let mut full = NegotiatedRouter::new(topo, config);
        assert_eq!(
            negotiate_both_ways(&mut ff, &mut full, &state, &requests),
            0
        );
        let mut epoch = EpochStats::default();
        ff.negotiate(&state, &requests, &mut epoch);
        assert_eq!(epoch.iterations, MAX_ITERATIONS);
        assert_eq!(epoch.ripped, 2 * MAX_ITERATIONS);
    }

    #[test]
    fn same_segment_via_plan_is_not_settled_on_ports() {
        // The soft search always walks a same-segment pair directly (a
        // via route pays the shared segment twice), so the via plan is
        // built by hand: out of the segment through a junction and back.
        let fabric = quale();
        let topo = fabric.topology();
        let (a, b, seg) = topo
            .traps()
            .iter()
            .enumerate()
            .find_map(|(i, t)| {
                let seg = t.port().segment;
                let j =
                    (i + 1..topo.traps().len()).find(|&j| topo.traps()[j].port().segment == seg)?;
                Some((TrapId(i as u32), TrapId(j as u32), seg))
            })
            .expect("some segment carries two ports");
        let junction = topo.segment(seg).ends()[0]
            .junction()
            .expect("quale segments end in junctions");
        let plan = |resources: Vec<Resource>| {
            let steps = vec![
                Step::Move {
                    to: Coord::new(0, 0)
                };
                resources.len()
            ];
            let exits = resources
                .into_iter()
                .enumerate()
                .map(|(i, r)| (r, i))
                .collect();
            RoutePlan::from_steps(a, b, steps, exits, 1, 10, 0)
        };
        let conflicted = |r: Resource| r == Resource::Segment(seg);
        let via = plan(vec![Resource::Segment(seg), Resource::Junction(junction)]);
        assert!(!conflicts_only_on_ports(topo, &via, conflicted));
        let direct = plan(vec![Resource::Segment(seg)]);
        assert!(conflicts_only_on_ports(topo, &direct, conflicted));
        // A plan crossing no conflict never blocks the rule.
        assert!(conflicts_only_on_ports(topo, &via, |_| false));
    }

    /// A random regular spec fabric with junction and channel capacity
    /// overrides on two overlapping quadrants (1 makes them bottlenecks,
    /// larger values roomy), or `None` when the geometry is degenerate.
    fn spec_fabric(
        rows: u16,
        cols: u16,
        pitch: u16,
        junction_cap: u8,
        channel_cap: u8,
    ) -> Option<Fabric> {
        let doc = format!(
            r#"{{
                "name": "mixed",
                "types": [
                    {{"name": "j", "kind": "junction", "capacity": {junction_cap}}},
                    {{"name": "c", "kind": "channel", "capacity": {channel_cap}}}
                ],
                "regions": [{{"family": "regular", "rows": {rows}, "cols": {cols}, "pitch": {pitch}}}],
                "capacities": [
                    {{"type": "j", "rect": [0, 0, {}, {}]}},
                    {{"type": "c", "rect": [{}, 0, {}, {}]}}
                ]
            }}"#,
            rows - 1,
            cols / 2,
            rows / 2,
            rows - 1,
            cols - 1,
        );
        qspr_fabric::FabricSpec::parse_json(&doc).ok()?.build().ok()
    }

    /// The router configuration under test: the QSPR or QUALE policy,
    /// optionally squeezed to capacity 1 everywhere the spec does not
    /// override.
    fn policy_config(quale: bool, squeeze: bool) -> RouterConfig {
        let tech = TechParams::date2012();
        let base = if quale {
            RouterConfig::quale(&tech)
        } else {
            RouterConfig::qspr(&tech)
        };
        if squeeze {
            RouterConfig {
                channel_capacity: 1,
                junction_capacity: 1,
                ..base
            }
        } else {
            base
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The settled-round fast-forward is exact: on random spec
        /// fabrics (capacity-1 and mixed-capacity quadrants) under both
        /// policies, with booked load, seeded history and several
        /// epochs in a row, negotiating with and without it leaves the
        /// same plans (estimated costs included), epoch stats and
        /// history. Batches mix random movers with meeting movers (a
        /// shared target trap) and same-segment direct movers.
        #[test]
        fn fast_forward_equals_the_full_loop(
            rows in 9u16..18,
            cols in 9u16..18,
            pitch in 3u16..6,
            junction_cap in 1u8..4,
            channel_cap in 1u8..4,
            quale_flag in 0u8..2,
            squeeze_flag in 0u8..2,
            load in proptest::collection::vec((0usize..256, 0usize..256), 0..6),
            batches in proptest::collection::vec(
                (proptest::collection::vec((0usize..256, 0usize..256), 2..7), 0usize..256, 0usize..256),
                1..4,
            ),
            seed_history in 0u32..4,
        ) {
            let Some(fabric) = spec_fabric(rows, cols, pitch, junction_cap, channel_cap) else {
                return Ok(());
            };
            let topo = fabric.topology();
            let config = policy_config(quale_flag == 1, squeeze_flag == 1);
            let router = Router::new(topo, config);
            let n = topo.traps().len();
            let trap = |i: usize| TrapId((i % n) as u32);

            let mut state = ResourceState::new(topo);
            for (a, b) in load {
                if let Some(plan) = router.route(&state, trap(a), trap(b)) {
                    for u in plan.resources() {
                        state.book(u.resource).unwrap();
                    }
                }
            }

            let seed: Vec<u32> = (0..topo.segments().len() as u32).map(|i| i % 3 * seed_history).collect();
            let mut ff = NegotiatedRouter::new(topo, config).with_history_seed(&seed);
            let mut full = NegotiatedRouter::new(topo, config).with_history_seed(&seed);
            for (pairs, meet, same) in batches {
                let mut requests: Vec<RouteRequest> =
                    pairs.iter().map(|&(a, b)| RouteRequest::new(trap(a), trap(b))).collect();
                // A meeting mover heads for the first mover's target.
                requests.push(RouteRequest::new(trap(meet), requests[0].to));
                // A same-segment mover walks to another port on its
                // own segment, when the segment has one.
                let from = trap(same);
                let seg = topo.trap(from).port().segment;
                if let Some(to) = (0..n)
                    .map(trap)
                    .find(|&t| t != from && topo.trap(t).port().segment == seg)
                {
                    requests.push(RouteRequest::new(from, to));
                }
                negotiate_both_ways(&mut ff, &mut full, &state, &requests);
            }
        }

        /// The lower-bound gate's per-fabric answer equals the duration
        /// of the empty-fabric route of a turn-aware, history-free
        /// router, which it replaced, on random spec fabrics under both
        /// policies.
        #[test]
        fn min_duration_equals_the_empty_fabric_route(
            rows in 9u16..18,
            cols in 9u16..18,
            pitch in 3u16..6,
            junction_cap in 1u8..4,
            channel_cap in 1u8..4,
            quale_flag in 0u8..2,
            pairs in proptest::collection::vec((0usize..256, 0usize..256), 1..16),
        ) {
            let Some(fabric) = spec_fabric(rows, cols, pitch, junction_cap, channel_cap) else {
                return Ok(());
            };
            let topo = fabric.topology();
            let config = policy_config(quale_flag == 1, false);
            let engine = NegotiatedRouter::new(topo, config);
            let uncon = Router::new(
                topo,
                RouterConfig {
                    turn_aware: true,
                    history_cost: false,
                    ..config
                },
            );
            let empty = ResourceState::new(topo);
            let n = topo.traps().len();
            for (a, b) in pairs {
                let (from, to) = (TrapId((a % n) as u32), TrapId((b % n) as u32));
                let expected = uncon.route(&empty, from, to).map_or(0, |p| p.duration());
                proptest::prop_assert_eq!(engine.min_duration(from, to), expected, "{} to {}", from, to);
            }
        }
    }

    #[test]
    fn stats_accumulate_across_epochs() {
        let fabric = quale();
        let topo = fabric.topology();
        let config = RouterConfig::qspr(&TechParams::date2012());
        let mut engine = NegotiatedRouter::new(topo, config);
        let state = ResourceState::new(topo);
        let traps = topo.traps_by_distance(fabric.center());
        for i in 0..3 {
            let _ = engine.route_batch(&state, &[RouteRequest::new(traps[i], traps[i + 20])]);
        }
        assert_eq!(engine.stats().epochs, 3);
    }
}
