//! Differential test of [`shortest_path`] against the hashed-container A*
//! it replaced.
//!
//! The production router keeps its scores and predecessors in dense
//! row-major arrays. The reference below is the earlier implementation,
//! kept verbatim apart from its name: `HashMap` scores and predecessors
//! over the same heap and the same strict-`<` relaxation. Both must return
//! the same path element for element — ties included — or both `None`, on
//! seeded random grids with blocked and avoided cells and endpoints that
//! are blocked, avoided or off the grid.

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_chip::Coord;
use dmf_rng::{Rng, SeedableRng, StdRng};
use dmf_route::{shortest_path, Grid};
use std::collections::{BinaryHeap, HashMap, HashSet};

fn reference_shortest_path(
    grid: &Grid,
    from: Coord,
    to: Coord,
    avoid: &HashSet<Coord>,
) -> Option<Vec<Coord>> {
    // Endpoints may sit on blocked or avoided cells (module ports live
    // inside footprints); everything else must be passable and un-avoided.
    let ok = |c: Coord| c == from || c == to || (grid.passable(c) && !avoid.contains(&c));
    let in_bounds = |c: Coord| c.x >= 0 && c.x < grid.width() && c.y >= 0 && c.y < grid.height();
    if !in_bounds(from) || !in_bounds(to) {
        return None;
    }
    // Min-heap keyed by f = g + h.
    let mut open: BinaryHeap<(std::cmp::Reverse<u32>, Coord)> = BinaryHeap::new();
    let mut g_score: HashMap<Coord, u32> = HashMap::new();
    let mut came: HashMap<Coord, Coord> = HashMap::new();
    g_score.insert(from, 0);
    open.push((std::cmp::Reverse(from.manhattan(to)), from));
    while let Some((_, current)) = open.pop() {
        if current == to {
            let mut path = vec![current];
            let mut c = current;
            while let Some(&prev) = came.get(&c) {
                path.push(prev);
                c = prev;
            }
            path.reverse();
            return Some(path);
        }
        let g = g_score[&current];
        for next in current.orthogonal_neighbors() {
            if !ok(next) {
                continue;
            }
            let tentative = g + 1;
            if tentative < g_score.get(&next).copied().unwrap_or(u32::MAX) {
                g_score.insert(next, tentative);
                came.insert(next, current);
                open.push((std::cmp::Reverse(tentative + next.manhattan(to)), next));
            }
        }
    }
    None
}

/// A cell on the grid, or — one time in `off_in` — just off one of its
/// edges.
fn endpoint(rng: &mut StdRng, w: i32, h: i32, off_in: u32) -> Coord {
    if rng.gen_range(0..off_in) == 0 {
        match rng.gen_range(0..4) {
            0 => Coord::new(-1, rng.gen_range(0..h)),
            1 => Coord::new(w, rng.gen_range(0..h)),
            2 => Coord::new(rng.gen_range(0..w), -1),
            _ => Coord::new(rng.gen_range(0..w), h),
        }
    } else {
        Coord::new(rng.gen_range(0..w), rng.gen_range(0..h))
    }
}

#[test]
fn dense_astar_matches_the_hashed_reference() {
    let mut rng = StdRng::seed_from_u64(0xD3A5_E0A5);
    let mut routed = 0;
    let mut unroutable = 0;
    for case in 0..3000 {
        let w = rng.gen_range(1i32..=40);
        let h = rng.gen_range(1i32..=12);
        let cells = (w * h) as usize;
        let mut grid = Grid::new(w, h);
        let mut avoid = HashSet::new();
        // Densities from open to mostly walled, so both outcomes occur.
        let blocked = rng.gen_range(0..=cells / 2);
        for _ in 0..blocked {
            grid.block(Coord::new(rng.gen_range(0..w), rng.gen_range(0..h)));
        }
        let avoided = rng.gen_range(0..=cells / 4);
        for _ in 0..avoided {
            avoid.insert(endpoint(&mut rng, w, h, 10));
        }
        let from = endpoint(&mut rng, w, h, 20);
        let to = endpoint(&mut rng, w, h, 20);
        // Some endpoints land on blocked or avoided cells on purpose.
        if rng.gen_range(0..4) == 0 {
            grid.block(from);
        }
        if rng.gen_range(0..4) == 0 {
            avoid.insert(to);
        }
        let expected = reference_shortest_path(&grid, from, to, &avoid);
        let actual = shortest_path(&grid, from, to, &avoid);
        assert_eq!(actual, expected, "case {case}: {w}x{h} grid, {from} -> {to}");
        if expected.is_some() {
            routed += 1;
        } else {
            unroutable += 1;
        }
    }
    // The generator exercises both outcomes in bulk.
    assert!(routed > 1000 && unroutable > 300, "routed {routed}, unroutable {unroutable}");
}
