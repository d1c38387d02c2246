//! Property-based tests of the topology's indexed queries over random
//! spec fabrics: the ring-search [`Topology::nearest_trap`] against the
//! linear scan it replaced, and the shared goal-distance rows against a
//! from-scratch Dijkstra.

#![cfg(test)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use crate::cell::{Coord, Orientation};
use crate::grid::Fabric;
use crate::pmd::{TechParams, Time};
use crate::search::GoalFields;
use crate::spec::FabricSpec;
use crate::topology::{JunctionId, SegmentEnd, SegmentId, Topology};

/// Deterministic per-trap coin: `true` for about `percent`% of ids.
fn coin(seed: u64, id: u32, percent: u64) -> bool {
    let mut x = seed ^ (u64::from(id) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 29;
    x % 100 < percent
}

/// Random ASCII art of `rows × cols` cells drawn from `cells`. Traps
/// without an adjacent channel cell would make the fabric invalid, so
/// they are blanked.
fn random_art(rows: usize, cols: usize, cells: &[u8]) -> Vec<String> {
    const ALPHABET: [u8; 6] = [b'.', b'-', b'|', b'+', b'T', b'-'];
    let mut grid: Vec<Vec<u8>> = (0..rows)
        .map(|r| {
            (0..cols)
                .map(|c| ALPHABET[cells[(r * cols + c) % cells.len()] as usize % ALPHABET.len()])
                .collect()
        })
        .collect();
    for r in 0..rows {
        for c in 0..cols {
            if grid[r][c] != b'T' {
                continue;
            }
            let channel = |rr: usize, cc: usize| matches!(grid[rr][cc], b'-' | b'|');
            let ported = (r > 0 && channel(r - 1, c))
                || (r + 1 < rows && channel(r + 1, c))
                || (c > 0 && channel(r, c - 1))
                || (c + 1 < cols && channel(r, c + 1));
            if !ported {
                grid[r][c] = b'.';
            }
        }
    }
    grid.into_iter()
        .map(|row| String::from_utf8(row).expect("ASCII"))
        .collect()
}

/// A random spec fabric: a regular region, optionally joined by a link
/// to a second region to its east — a nearest-neighbour lattice, a
/// random tile stamped several times, or irregular ASCII art. `None`
/// when the draw does not elaborate to a valid fabric.
fn random_spec_fabric(
    (rows, cols, pitch): (u16, u16, u16),
    (kind, gap, link): (u8, u16, bool),
    (h, w): (usize, usize),
    cells: &[u8],
) -> Option<Fabric> {
    let origin = cols + gap;
    let art = |rows, cols| {
        let rows: Vec<String> = random_art(rows, cols, cells)
            .into_iter()
            .map(|r| format!("{r:?}"))
            .collect();
        format!("[{}]", rows.join(","))
    };
    let (tiles, second) = match kind {
        0 => (String::new(), String::new()),
        1 => (
            String::new(),
            format!(
                r#",{{"family":"nearest_neighbor","origin":[0,{origin}],"sites_rows":{h},"sites_cols":{w}}}"#
            ),
        ),
        2 => (
            format!(
                r#""tiles":[{{"name":"t","art":{}}}],"#,
                art(h.min(4), w.min(4))
            ),
            format!(
                r#",{{"family":"tiled","origin":[0,{origin}],"tile":"t","tile_rows":{h},"tile_cols":{w}}}"#
            ),
        ),
        _ => (
            String::new(),
            format!(
                r#",{{"family":"ascii","origin":[0,{origin}],"art":{}}}"#,
                art(h * 2 + 1, w * 2 + 1)
            ),
        ),
    };
    let links = if link && kind != 0 {
        format!(
            r#","links":[{{"from":[0,{}],"to":[0,{origin}]}}]"#,
            cols - 1
        )
    } else {
        String::new()
    };
    let doc = format!(
        r#"{{"name":"random",{tiles}"regions":[{{"family":"regular","rows":{rows},"cols":{cols},"pitch":{pitch}}}{second}]{links}}}"#
    );
    FabricSpec::parse_json(&doc).ok()?.build().ok()
}

/// Independent reference for one goal-distance row: a run-to-exhaustion
/// Dijkstra over the junction incidence lists (not the CSR search
/// graph), in `u64`.
fn reference_row(topo: &Topology, dst: SegmentId, t_move: Time, turn_weight: Time) -> Vec<u64> {
    let node =
        |j: JunctionId, o: Orientation| j.index() * 2 + usize::from(o == Orientation::Vertical);
    let mut dist = vec![u64::MAX; topo.junctions().len() * 2];
    let mut heap = BinaryHeap::new();
    let seg = topo.segment(dst);
    for end in seg.ends() {
        if let SegmentEnd::Junction(j) = end {
            dist[node(j, seg.orientation())] = 0;
            heap.push(Reverse((0u64, j, seg.orientation())));
        }
    }
    while let Some(Reverse((cost, j, o))) = heap.pop() {
        if cost > dist[node(j, o)] {
            continue;
        }
        let mut relax = |c: u64, j2: JunctionId, o2: Orientation| {
            if c < dist[node(j2, o2)] {
                dist[node(j2, o2)] = c;
                heap.push(Reverse((c, j2, o2)));
            }
        };
        relax(cost + turn_weight, j, o.perpendicular());
        for (_, sid) in topo.junction(j).incident_segments() {
            let s = topo.segment(sid);
            if s.orientation() != o {
                continue;
            }
            for far in s.ends().iter().filter_map(|e| e.junction()) {
                if far != j {
                    relax(cost + (u64::from(s.len()) + 1) * t_move, far, o);
                }
            }
        }
    }
    dist
}

/// Asserts every row of both paper metrics equals the reference.
pub(crate) fn assert_rows_match_reference(topo: &Topology) {
    let tech = TechParams::date2012();
    for turn_weight in [tech.t_turn, 0] {
        let fields = topo.goal_fields(tech.t_move, turn_weight);
        for i in 0..topo.segments().len() {
            let dst = SegmentId(i as u32);
            let expected: Vec<u32> = reference_row(topo, dst, tech.t_move, turn_weight)
                .into_iter()
                .map(|d| u32::try_from(d).unwrap_or(GoalFields::UNREACHABLE))
                .collect();
            assert_eq!(
                fields.row(topo, dst),
                &expected[..],
                "segment {dst}, turn weight {turn_weight}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ring search returns exactly the linear scan's trap — same
    /// distance, same smaller-id tie-break — for points inside and
    /// outside the grid and for always-true, always-false, dense and
    /// sparse random predicates.
    #[test]
    fn ring_nearest_trap_equals_linear_scan(
        regular in (5u16..16, 5u16..16, 2u16..5),
        second in (0u8..4, 0u16..3, any::<bool>()),
        size in (1usize..4, 1usize..4),
        cells in proptest::collection::vec(0u8..6, 1..64),
        points in proptest::collection::vec((0u16..60, 0u16..60), 1..12),
        (seed, percent) in (any::<u64>(), 0u64..101),
    ) {
        let Some(fabric) = random_spec_fabric(regular, second, size, &cells) else {
            return Ok(());
        };
        let topo = fabric.topology();
        let far = [Coord::new(u16::MAX, u16::MAX), Coord::new(0, u16::MAX), Coord::new(u16::MAX, 0)];
        let points = points.into_iter().map(|(r, c)| Coord::new(r, c)).chain(far);
        for to in points {
            prop_assert_eq!(topo.nearest_trap(to, |_| true), topo.nearest_trap_linear(to, |_| true), "{:?}", to);
            prop_assert_eq!(topo.nearest_trap(to, |_| false), None);
            let random = |id: crate::TrapId| coin(seed, id.0, percent);
            prop_assert_eq!(topo.nearest_trap(to, random), topo.nearest_trap_linear(to, random), "{:?} {}%", to, percent);
            let sparse = |id: crate::TrapId| coin(seed, id.0, 3);
            prop_assert_eq!(topo.nearest_trap(to, sparse), topo.nearest_trap_linear(to, sparse), "{:?} sparse", to);
        }
    }

    /// Every shared goal-distance row equals a fresh reference Dijkstra
    /// under both the turn-aware (QSPR) and turn-blind (QUALE) metric.
    #[test]
    fn goal_rows_equal_fresh_dijkstra(
        regular in (5u16..16, 5u16..16, 2u16..5),
        second in (0u8..4, 0u16..3, any::<bool>()),
        size in (1usize..4, 1usize..4),
        cells in proptest::collection::vec(0u8..6, 1..64),
    ) {
        let Some(fabric) = random_spec_fabric(regular, second, size, &cells) else {
            return Ok(());
        };
        assert_rows_match_reference(fabric.topology());
    }
}

#[test]
fn generator_covers_every_region_kind() {
    // Guards against the strategy silently degenerating into `None`s.
    let cells: Vec<u8> = (0..64).map(|i| (i * 7 % 6) as u8).collect();
    for kind in 0..4 {
        let fabric = random_spec_fabric((9, 9, 4), (kind, 0, true), (2, 2), &cells)
            .unwrap_or_else(|| panic!("region kind {kind} elaborates"));
        assert!(
            fabric.cols() > 9 || kind == 0,
            "kind {kind} adds an east region"
        );
    }
}
