//! Precomputed routing-search graph over a topology.
//!
//! Path search (qspr-route's Dijkstra) runs over *(junction,
//! orientation)* nodes: a junction is split into a horizontal and a
//! vertical node so turn delays become an edge weight. The naive
//! formulation re-derives each node's outgoing edges on every heap pop —
//! scanning the junction's incident segments, filtering by orientation,
//! and looking up which end attaches where. Routing is the innermost
//! loop of the whole mapper, so [`Topology`](crate::Topology) instead
//! precomputes this [`SearchGraph`] once at construction: a CSR-style
//! flat edge list per node, each edge carrying the segment, the far
//! junction, the far node and the move count. A search then touches
//! nothing but two flat arrays.
//!
//! The graph also backs the routers' exact lower-bound pruning: a
//! [`GoalFields`] table holds, per target segment, the empty-fabric
//! distance from every node to that segment's junction ends. The rows
//! depend only on the graph and two weights, so the topology owns them
//! ([`Topology::goal_fields`](crate::Topology::goal_fields)) and every
//! router over the same fabric — each mapper run, MVFB pass, service
//! worker and `--jobs` thread — shares one lazily filled copy.
//!
//! # Examples
//!
//! ```
//! use qspr_fabric::{Fabric, Orientation, SearchGraph};
//!
//! let fabric = Fabric::quale_45x85();
//! let graph = fabric.topology().search_graph();
//! assert_eq!(graph.num_nodes(), fabric.topology().junctions().len() * 2);
//! for node in 0..graph.num_nodes() {
//!     for edge in graph.edges(node) {
//!         let (j, orientation) = SearchGraph::parts(node);
//!         assert_ne!(edge.to_junction, j, "no self loops");
//!         let seg = fabric.topology().segment(edge.segment);
//!         assert_eq!(seg.orientation(), orientation);
//!         assert_eq!(edge.moves, u32::from(seg.len()) + 1);
//!     }
//! }
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::cell::Orientation;
use crate::pmd::Time;
use crate::topology::{Junction, JunctionId, Segment, SegmentEnd, SegmentId, Topology};

/// One outgoing edge of a search-graph node: traversing `segment` from
/// the node's junction to `to_junction`, staying in the node's
/// orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchEdge {
    /// The channel segment this edge traverses.
    pub segment: SegmentId,
    /// The junction at the far end of the segment.
    pub to_junction: JunctionId,
    /// Dense node index of `(to_junction, same orientation)`.
    pub to_node: u32,
    /// Moves to cross the segment junction-to-junction (`len + 1`).
    pub moves: u32,
}

/// CSR adjacency of the `(junction, orientation)` search nodes.
///
/// Node `2·j` is junction `j` travelling horizontally, node `2·j + 1`
/// vertically; the perpendicular *turn* partner of a node is therefore
/// [`SearchGraph::turn_of`] — `node ^ 1`, no lookup needed. Edges only
/// connect junction-attached segment ends; dead ends and trap ports are
/// handled by the router's source/target legs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchGraph {
    /// `edge_start[n]..edge_start[n + 1]` indexes `edges` for node `n`.
    edge_start: Vec<u32>,
    edges: Vec<SearchEdge>,
}

impl SearchGraph {
    /// Dense index of the `(junction, orientation)` node.
    pub fn node(j: JunctionId, orientation: Orientation) -> usize {
        j.index() * 2
            + match orientation {
                Orientation::Horizontal => 0,
                Orientation::Vertical => 1,
            }
    }

    /// Inverse of [`SearchGraph::node`].
    pub fn parts(node: usize) -> (JunctionId, Orientation) {
        let orientation = if node % 2 == 0 {
            Orientation::Horizontal
        } else {
            Orientation::Vertical
        };
        (JunctionId((node / 2) as u32), orientation)
    }

    /// The perpendicular node at the same junction (the turn edge's
    /// target).
    pub fn turn_of(node: usize) -> usize {
        node ^ 1
    }

    /// Number of search nodes (`2 ×` junction count).
    pub fn num_nodes(&self) -> usize {
        self.edge_start.len() - 1
    }

    /// The outgoing edges of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= num_nodes()`.
    pub fn edges(&self, node: usize) -> &[SearchEdge] {
        let start = self.edge_start[node] as usize;
        let end = self.edge_start[node + 1] as usize;
        &self.edges[start..end]
    }

    /// Empty-fabric distance from every node to the nearest of `goals`:
    /// each segment edge weighs `moves * t_move` and each turn edge
    /// `turn_weight`.
    ///
    /// The graph is symmetric (every segment edge exists in both
    /// directions with equal `moves`, and the turn edge is an involution
    /// with a fixed weight), so this forward Dijkstra seeded at the
    /// goals yields exact *to*-goal distances, in the `u32` encoding of
    /// [`GoalFields`].
    pub(crate) fn goal_distances(
        &self,
        goals: impl IntoIterator<Item = usize>,
        t_move: Time,
        turn_weight: Time,
    ) -> Box<[u32]> {
        let mut dist = vec![Time::MAX; self.num_nodes()];
        let mut heap = BinaryHeap::new();
        for node in goals {
            if dist[node] > 0 {
                dist[node] = 0;
                heap.push(Reverse((0, node)));
            }
        }
        while let Some(Reverse((cost, node))) = heap.pop() {
            if cost > dist[node] {
                continue;
            }
            let turn_node = SearchGraph::turn_of(node);
            let turn_cost = cost.saturating_add(turn_weight);
            if turn_cost < dist[turn_node] {
                dist[turn_node] = turn_cost;
                heap.push(Reverse((turn_cost, turn_node)));
            }
            for edge in self.edges(node) {
                let next = edge.to_node as usize;
                let c = cost.saturating_add(u64::from(edge.moves) * t_move);
                if c < dist[next] {
                    dist[next] = c;
                    heap.push(Reverse((c, next)));
                }
            }
        }
        dist.into_iter()
            .map(|d| match d {
                Time::MAX => GoalFields::UNREACHABLE,
                d => u32::try_from(d).unwrap_or(GoalFields::UNREACHABLE - 1),
            })
            .collect()
    }

    /// Builds the graph from a topology's segments and junctions.
    /// Edge order within a node follows the junction's incident-segment
    /// order (N, S, W, E), mirroring the on-the-fly scan it replaces.
    pub(crate) fn build(segments: &[Segment], junctions: &[Junction]) -> SearchGraph {
        let n_nodes = junctions.len() * 2;
        let mut edge_start = Vec::with_capacity(n_nodes + 1);
        let mut edges = Vec::new();
        edge_start.push(0);
        for (ji, junction) in junctions.iter().enumerate() {
            let j = JunctionId(ji as u32);
            for orientation in [Orientation::Horizontal, Orientation::Vertical] {
                for (_, seg_id) in junction.incident_segments() {
                    let seg = &segments[seg_id.index()];
                    if seg.orientation() != orientation {
                        continue;
                    }
                    let Some(my_end) = seg.end_attached_to(j) else {
                        continue;
                    };
                    let Some(j2) = seg.ends()[1 - my_end].junction() else {
                        continue;
                    };
                    if j2 == j {
                        continue;
                    }
                    edges.push(SearchEdge {
                        segment: seg_id,
                        to_junction: j2,
                        to_node: SearchGraph::node(j2, orientation) as u32,
                        moves: u32::from(seg.len()) + 1,
                    });
                }
                edge_start.push(edges.len() as u32);
            }
        }
        SearchGraph { edge_start, edges }
    }
}

/// One routing metric's goal-distance rows over a topology, one lazily
/// filled slot per target segment and one per single target node.
///
/// Row `dst` holds the empty-fabric distance from every search node to
/// the junction-attached ends of segment `dst` (in the segment's
/// orientation): segment edges weigh `moves * t_move`, turn edges
/// `turn_weight`. [`GoalFields::UNREACHABLE`] marks nodes with no path;
/// a finite distance too large for `u32` is clamped just below it,
/// which keeps it a lower bound. Obtain a table from
/// [`Topology::goal_fields`](crate::Topology::goal_fields); all callers
/// asking for the same weights get the same table, and each row is
/// computed at most once however many threads race for it.
///
/// # Examples
///
/// ```
/// use qspr_fabric::{Fabric, SegmentId};
///
/// let fabric = Fabric::quale_45x85();
/// let topo = fabric.topology();
/// let fields = topo.goal_fields(1, 10);
/// let row = fields.row(topo, SegmentId(0));
/// assert_eq!(row.len(), topo.search_graph().num_nodes());
/// assert!(row.contains(&0), "the segment's own end nodes are at distance 0");
/// assert!(std::ptr::eq(row, topo.goal_fields(1, 10).row(topo, SegmentId(0))));
/// assert_ne!(row.as_ptr(), topo.goal_fields(1, 0).row(topo, SegmentId(0)).as_ptr());
/// ```
#[derive(Debug)]
pub struct GoalFields {
    t_move: Time,
    turn_weight: Time,
    rows: Box<[OnceLock<Box<[u32]>>]>,
    /// Single-goal rows, one lazily filled slot per search node (see
    /// [`GoalFields::node_row`]).
    node_rows: Box<[OnceLock<Box<[u32]>>]>,
}

impl GoalFields {
    /// Row entry of a node from which the target segment is unreachable.
    pub const UNREACHABLE: u32 = u32::MAX;

    /// The `(t_move, turn_weight)` metric the rows are computed under.
    fn metric(&self) -> (Time, Time) {
        (self.t_move, self.turn_weight)
    }

    /// Distance from every search node to target segment `dst`, filled
    /// on first use.
    ///
    /// # Panics
    ///
    /// Panics if `topology` is not the one the table was obtained from
    /// (detected by segment count) or `dst` does not belong to it.
    pub fn row(&self, topology: &Topology, dst: SegmentId) -> &[u32] {
        assert_eq!(
            self.rows.len(),
            topology.segments().len(),
            "goal fields used with a foreign topology"
        );
        self.rows[dst.index()].get_or_init(|| {
            let seg = topology.segment(dst);
            let goals = seg.ends().into_iter().filter_map(|end| match end {
                SegmentEnd::Junction(j) => Some(SearchGraph::node(j, seg.orientation())),
                SegmentEnd::Dead => None,
            });
            topology
                .search_graph()
                .goal_distances(goals, self.t_move, self.turn_weight)
        })
    }

    /// Distance from every search node to the single node `goal`,
    /// filled on first use. Where [`GoalFields::row`] gives the nearer
    /// of a segment's two ends, this tells the ends apart, which an
    /// exact trap-to-trap distance needs: the leg into the target trap
    /// costs differently from each end.
    ///
    /// # Panics
    ///
    /// Panics if `topology` is not the one the table was obtained from
    /// (detected by node count) or `goal` is not one of its nodes.
    pub fn node_row(&self, topology: &Topology, goal: usize) -> &[u32] {
        let graph = topology.search_graph();
        assert_eq!(
            self.node_rows.len(),
            graph.num_nodes(),
            "goal fields used with a foreign topology"
        );
        self.node_rows[goal]
            .get_or_init(|| graph.goal_distances([goal], self.t_move, self.turn_weight))
    }
}

/// The per-topology registry of [`GoalFields`], one table per metric.
///
/// A cache of values derived from the topology, so it takes no part in
/// the topology's equality: every instance compares equal. Clones share
/// the registry (the topology they hang off is immutable).
#[derive(Debug, Default, Clone)]
pub(crate) struct GoalTable {
    metrics: Arc<Mutex<Vec<Arc<GoalFields>>>>,
}

impl GoalTable {
    /// The table for `(t_move, turn_weight)` over `n_segments` targets,
    /// created empty on first request.
    pub(crate) fn fields(
        &self,
        n_segments: usize,
        n_nodes: usize,
        t_move: Time,
        turn_weight: Time,
    ) -> Arc<GoalFields> {
        // Only whole `Arc`s are ever pushed, so a poisoned list is intact.
        let mut metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(fields) = metrics.iter().find(|f| f.metric() == (t_move, turn_weight)) {
            return Arc::clone(fields);
        }
        let fields = Arc::new(GoalFields {
            t_move,
            turn_weight,
            rows: (0..n_segments).map(|_| OnceLock::new()).collect(),
            node_rows: (0..n_nodes).map(|_| OnceLock::new()).collect(),
        });
        metrics.push(Arc::clone(&fields));
        fields
    }
}

impl PartialEq for GoalTable {
    fn eq(&self, _: &GoalTable) -> bool {
        true
    }
}

impl Eq for GoalTable {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Fabric;

    #[test]
    fn node_indexing_round_trips() {
        for j in [0u32, 1, 7, 400] {
            for o in [Orientation::Horizontal, Orientation::Vertical] {
                let n = SearchGraph::node(JunctionId(j), o);
                assert_eq!(SearchGraph::parts(n), (JunctionId(j), o));
                let (tj, to) = SearchGraph::parts(SearchGraph::turn_of(n));
                assert_eq!(tj, JunctionId(j));
                assert_eq!(to, o.perpendicular());
            }
        }
    }

    #[test]
    fn graph_matches_incidence_scan() {
        // Every edge the old per-pop scan would produce appears, in the
        // same order, and nothing else.
        let fabric = Fabric::quale_45x85();
        let topo = fabric.topology();
        let graph = topo.search_graph();
        assert_eq!(graph.num_nodes(), topo.junctions().len() * 2);
        for (ji, junction) in topo.junctions().iter().enumerate() {
            let j = JunctionId(ji as u32);
            for orientation in [Orientation::Horizontal, Orientation::Vertical] {
                let expected: Vec<SearchEdge> = junction
                    .incident_segments()
                    .filter_map(|(_, seg_id)| {
                        let seg = topo.segment(seg_id);
                        if seg.orientation() != orientation {
                            return None;
                        }
                        let my_end = seg.end_attached_to(j)?;
                        let j2 = seg.ends()[1 - my_end].junction()?;
                        (j2 != j).then(|| SearchEdge {
                            segment: seg_id,
                            to_junction: j2,
                            to_node: SearchGraph::node(j2, orientation) as u32,
                            moves: u32::from(seg.len()) + 1,
                        })
                    })
                    .collect();
                assert_eq!(graph.edges(SearchGraph::node(j, orientation)), expected);
            }
        }
    }

    #[test]
    fn quale_goal_rows_equal_fresh_dijkstra() {
        crate::proptests::assert_rows_match_reference(Fabric::quale_45x85().topology());
    }

    #[test]
    fn node_rows_split_segment_rows_by_end() {
        // A segment row is the elementwise minimum of its end nodes'
        // single-goal rows, and each node row is a fresh single-goal
        // Dijkstra filled once.
        let fabric = crate::RegularFabricSpec::new(13, 17, 4).build().unwrap();
        let topo = fabric.topology();
        let fields = topo.goal_fields(1, 10);
        for (i, seg) in topo.segments().iter().enumerate() {
            let ends: Vec<usize> = seg
                .ends()
                .into_iter()
                .filter_map(|e| e.junction())
                .map(|j| SearchGraph::node(j, seg.orientation()))
                .collect();
            let merged: Vec<u32> = (0..topo.search_graph().num_nodes())
                .map(|n| {
                    ends.iter()
                        .map(|&g| fields.node_row(topo, g)[n])
                        .min()
                        .unwrap_or(GoalFields::UNREACHABLE)
                })
                .collect();
            assert_eq!(fields.row(topo, SegmentId(i as u32)), &merged[..]);
            for &g in &ends {
                assert_eq!(
                    fields.node_row(topo, g),
                    &*topo.search_graph().goal_distances([g], 1, 10)
                );
                assert!(std::ptr::eq(
                    fields.node_row(topo, g),
                    topo.goal_fields(1, 10).node_row(topo, g)
                ));
            }
        }
    }

    #[test]
    fn goal_metrics_never_share_a_row() {
        let fabric = Fabric::quale_45x85();
        let topo = fabric.topology();
        let tech = crate::TechParams::date2012();
        let qspr = topo.goal_fields(tech.t_move, tech.t_turn);
        let quale = topo.goal_fields(tech.t_move, 0);
        assert!(!Arc::ptr_eq(&qspr, &quale));
        assert!(Arc::ptr_eq(
            &qspr,
            &topo.goal_fields(tech.t_move, tech.t_turn)
        ));
        let mut differing = 0;
        for i in 0..topo.segments().len() {
            let (a, b) = (
                qspr.row(topo, SegmentId(i as u32)),
                quale.row(topo, SegmentId(i as u32)),
            );
            assert_ne!(a.as_ptr(), b.as_ptr());
            differing += usize::from(a != b);
        }
        assert!(differing > 0, "turn weights must show in the rows");
    }

    #[test]
    fn concurrent_fills_agree() {
        // Four threads race to fill every row of a fresh table, each
        // starting at a different segment; each row is filled once and
        // every thread reads the same allocation.
        let fabric = Fabric::quale_45x85();
        let topo = fabric.topology();
        let n = topo.segments().len();
        let start = std::sync::Barrier::new(4);
        let seen: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        let fields = topo.goal_fields(1, 10);
                        let mut ptrs = vec![0; n];
                        for k in 0..n {
                            let i = (k + t * n / 4) % n;
                            ptrs[i] = fields.row(topo, SegmentId(i as u32)).as_ptr() as usize;
                        }
                        ptrs
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(seen.iter().all(|ptrs| ptrs == &seen[0]));
        let fields = topo.goal_fields(1, 10);
        for i in 0..n {
            let dst = SegmentId(i as u32);
            let seg = topo.segment(dst);
            let goals = seg
                .ends()
                .into_iter()
                .filter_map(|e| e.junction())
                .map(|j| SearchGraph::node(j, seg.orientation()));
            assert_eq!(
                fields.row(topo, dst),
                &*topo.search_graph().goal_distances(goals, 1, 10)
            );
        }
    }

    #[test]
    fn goal_table_leaves_topology_equality_clone_and_debug_alone() {
        let filled = crate::RegularFabricSpec::new(9, 13, 4).build().unwrap();
        let fresh = filled.clone();
        let before = format!("{:?}", filled.topology());
        let fields = filled.topology().goal_fields(1, 10);
        for i in 0..filled.topology().segments().len() {
            fields.row(filled.topology(), SegmentId(i as u32));
        }
        assert_eq!(format!("{:?}", filled.topology()), before);
        assert!(!before.contains("goal"));
        assert_eq!(filled.topology(), fresh.topology());
        assert_eq!(filled.topology().clone(), *filled.topology());
        let rebuilt = crate::RegularFabricSpec::new(9, 13, 4).build().unwrap();
        assert_eq!(rebuilt.topology(), filled.topology());
        assert_eq!(format!("{:?}", rebuilt.topology()), before);
    }

    #[test]
    fn dead_end_stubs_produce_no_edges() {
        // The 5x5 cross: four stub segments, each with one dead end, so
        // no junction-to-junction edge exists anywhere.
        let f = Fabric::from_ascii(
            "..|..\n\
             T.|..\n\
             --+--\n\
             ..|.T\n\
             ..|..\n",
        )
        .unwrap();
        let graph = f.topology().search_graph();
        assert_eq!(graph.num_nodes(), 2);
        for node in 0..graph.num_nodes() {
            assert!(graph.edges(node).is_empty());
        }
    }
}
