use crate::{Grid, RouteError};
use dmf_chip::Coord;
use std::collections::{BinaryHeap, HashSet};

/// A* shortest path for a single droplet among static obstacles.
///
/// `avoid` carries temporarily forbidden cells — typically the guard bands
/// of droplets parked elsewhere on the chip. The returned path starts at
/// `from` and ends at `to`, one orthogonal hop per element. Returns `None`
/// when no route exists.
///
/// # Examples
///
/// ```
/// use dmf_chip::Coord;
/// use dmf_route::{shortest_path, Grid};
///
/// let mut grid = Grid::new(5, 3);
/// // Wall with a gap at the bottom.
/// grid.block(Coord::new(2, 0));
/// grid.block(Coord::new(2, 1));
/// let path = shortest_path(&grid, Coord::new(0, 0), Coord::new(4, 0), &Default::default())
///     .expect("detour exists");
/// assert_eq!(path.first(), Some(&Coord::new(0, 0)));
/// assert_eq!(path.last(), Some(&Coord::new(4, 0)));
/// assert!(path.len() > 5); // forced below the wall
/// ```
pub fn shortest_path(
    grid: &Grid,
    from: Coord,
    to: Coord,
    avoid: &HashSet<Coord>,
) -> Option<Vec<Coord>> {
    let cells = grid.cells();
    // Both endpoints must lie on the grid.
    let start = cells.index(from)?;
    cells.index(to)?;
    // Min-heap keyed by f = g + h.
    let mut open: BinaryHeap<(std::cmp::Reverse<u32>, Coord)> = BinaryHeap::new();
    // Best known cost and predecessor per cell, numbered row-major.
    let mut g_score = vec![u32::MAX; cells.len()];
    let mut came = vec![from; cells.len()];
    g_score[start] = 0;
    open.push((std::cmp::Reverse(from.manhattan(to)), from));
    while let Some((_, current)) = open.pop() {
        if current == to {
            let mut path = vec![current];
            let mut c = current;
            while c != from {
                c = came[cells.index(c)?];
                path.push(c);
            }
            path.reverse();
            return Some(path);
        }
        let g = g_score[cells.index(current)?];
        for next in current.orthogonal_neighbors() {
            let Some(i) = cells.index(next) else {
                continue;
            };
            // Endpoints may sit on blocked or avoided cells (module ports
            // live inside footprints); everything else must be passable
            // and un-avoided.
            let ok = next == from || next == to || (!grid.is_blocked(i) && !avoid.contains(&next));
            if !ok {
                continue;
            }
            let tentative = g + 1;
            if tentative < g_score[i] {
                g_score[i] = tentative;
                came[i] = current;
                open.push((std::cmp::Reverse(tentative + next.manhattan(to)), next));
            }
        }
    }
    None
}

/// Like [`shortest_path`], but a boxed-in droplet yields a typed
/// [`RouteError::NoRoute`] instead of `None`, so callers can report or
/// recover from the failure rather than asserting.
///
/// # Errors
///
/// Returns [`RouteError::NoRoute`] when no path exists between the
/// endpoints — including when either endpoint lies outside the grid.
///
/// # Examples
///
/// ```
/// use dmf_chip::Coord;
/// use dmf_route::{try_shortest_path, Grid, RouteError};
///
/// let mut grid = Grid::new(3, 1);
/// grid.block(Coord::new(1, 0));
/// let err = try_shortest_path(&grid, Coord::new(0, 0), Coord::new(2, 0), &Default::default())
///     .unwrap_err();
/// assert!(matches!(err, RouteError::NoRoute { .. }));
/// ```
pub fn try_shortest_path(
    grid: &Grid,
    from: Coord,
    to: Coord,
    avoid: &HashSet<Coord>,
) -> Result<Vec<Coord>, RouteError> {
    shortest_path(grid, from, to, avoid).ok_or(RouteError::NoRoute { from, to })
}

/// Number of electrode actuations a path needs: one per hop onto a new
/// electrode (waits are free).
pub fn actuations(path: &[Coord]) -> u32 {
    path.windows(2).filter(|w| w[0] != w[1]).count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_is_manhattan_optimal() {
        let grid = Grid::new(10, 10);
        let path =
            shortest_path(&grid, Coord::new(1, 1), Coord::new(7, 4), &Default::default()).unwrap();
        assert_eq!(actuations(&path), 9);
        // Consecutive cells are orthogonal neighbors.
        for w in path.windows(2) {
            assert_eq!(w[0].manhattan(w[1]), 1);
        }
    }

    #[test]
    fn detours_around_walls() {
        let mut grid = Grid::new(7, 5);
        for y in 0..4 {
            grid.block(Coord::new(3, y));
        }
        let path =
            shortest_path(&grid, Coord::new(0, 0), Coord::new(6, 0), &Default::default()).unwrap();
        assert!(actuations(&path) > 6);
        assert!(path.iter().all(|&c| c.x != 3 || c.y == 4));
    }

    #[test]
    fn fully_walled_is_unroutable() {
        let mut grid = Grid::new(5, 5);
        for y in 0..5 {
            grid.block(Coord::new(2, y));
        }
        assert!(
            shortest_path(&grid, Coord::new(0, 0), Coord::new(4, 4), &Default::default()).is_none()
        );
    }

    #[test]
    fn avoid_set_is_respected_except_endpoints() {
        let grid = Grid::new(5, 1);
        let mut avoid = HashSet::new();
        avoid.insert(Coord::new(2, 0));
        // Only corridor cell is avoided => no path.
        assert!(shortest_path(&grid, Coord::new(0, 0), Coord::new(4, 0), &avoid).is_none());
        // Avoiding the destination itself is fine.
        let mut avoid_dst = HashSet::new();
        avoid_dst.insert(Coord::new(4, 0));
        assert!(shortest_path(&grid, Coord::new(0, 0), Coord::new(4, 0), &avoid_dst).is_some());
    }

    #[test]
    fn trivial_path_is_single_cell() {
        let grid = Grid::new(3, 3);
        let c = Coord::new(1, 1);
        let path = shortest_path(&grid, c, c, &Default::default()).unwrap();
        assert_eq!(path, vec![c]);
        assert_eq!(actuations(&path), 0);
    }

    #[test]
    fn out_of_bounds_targets_fail() {
        let grid = Grid::new(3, 3);
        assert!(
            shortest_path(&grid, Coord::new(0, 0), Coord::new(9, 9), &Default::default()).is_none()
        );
    }
}
