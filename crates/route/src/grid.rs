use dmf_chip::{CellIndex, ChipSpec, Coord};

/// The routable electrode field: grid bounds plus permanently blocked cells
/// (module footprints and defective electrodes), kept as a row-major
/// bitmap over [`CellIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    cells: CellIndex,
    /// One entry per cell, numbered by `cells`.
    blocked: Vec<bool>,
}

impl Grid {
    /// An open grid with no blocked cells.
    ///
    /// A grid whose cell count does not fit in `usize` (possible only
    /// where `usize` is 32 bits wide) is built empty: no cell is passable.
    pub fn new(width: i32, height: i32) -> Self {
        let cells = CellIndex::new(width, height).unwrap_or_default();
        Grid { cells, blocked: vec![false; cells.len()] }
    }

    /// Builds the routing grid of a chip, blocking every module footprint
    /// except the modules listed in `open` (typically the source and
    /// destination of the current transport). Electrodes diagnosed dead on
    /// the chip ([`ChipSpec::dead_cells`]) are always blocked, even inside
    /// an `open` module.
    pub fn from_spec(spec: &ChipSpec, open: &[dmf_chip::ModuleId]) -> Self {
        let mut grid = Grid::new(spec.width(), spec.height());
        for cell in spec.obstacles(open) {
            grid.block(cell);
        }
        for cell in spec.dead_cells() {
            grid.block(cell);
        }
        grid
    }

    /// Grid width.
    pub fn width(&self) -> i32 {
        self.cells.width()
    }

    /// Grid height.
    pub fn height(&self) -> i32 {
        self.cells.height()
    }

    /// The row-major numbering of the grid's cells.
    pub(crate) fn cells(&self) -> CellIndex {
        self.cells
    }

    /// Marks a cell as permanently unusable (a no-op off the grid).
    pub fn block(&mut self, c: Coord) {
        if let Some(i) = self.cells.index(c) {
            self.blocked[i] = true;
        }
    }

    /// Unmarks a blocked cell.
    pub fn unblock(&mut self, c: Coord) {
        if let Some(i) = self.cells.index(c) {
            self.blocked[i] = false;
        }
    }

    /// Whether `c` is on the grid and not blocked.
    pub fn passable(&self, c: Coord) -> bool {
        self.cells.index(c).is_some_and(|i| !self.blocked[i])
    }

    /// Whether cell number `i` (see [`Grid::cells`]) is blocked.
    pub(crate) fn is_blocked(&self, i: usize) -> bool {
        self.blocked[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_chip::{ModuleKind, Rect};

    #[test]
    fn passability_respects_bounds_and_blocks() {
        let mut g = Grid::new(4, 4);
        assert!(g.passable(Coord::new(0, 0)));
        assert!(!g.passable(Coord::new(4, 0)));
        assert!(!g.passable(Coord::new(-1, 2)));
        // Blocking off the grid is a no-op.
        g.block(Coord::new(4, 0));
        assert_eq!(g, Grid::new(4, 4));
        g.block(Coord::new(2, 2));
        assert!(!g.passable(Coord::new(2, 2)));
        g.unblock(Coord::new(2, 2));
        assert!(g.passable(Coord::new(2, 2)));
    }

    #[test]
    fn from_spec_blocks_module_footprints() {
        let mut spec = ChipSpec::new(10, 10).unwrap();
        let m = spec.add_module("M1", ModuleKind::Mixer, Rect::new(4, 4, 2, 2)).unwrap();
        let closed = Grid::from_spec(&spec, &[]);
        assert!(!closed.passable(Coord::new(4, 4)));
        let open = Grid::from_spec(&spec, &[m]);
        assert!(open.passable(Coord::new(4, 4)));
    }

    #[test]
    fn from_spec_blocks_dead_electrodes() {
        let mut spec = ChipSpec::new(10, 10).unwrap();
        let m = spec.add_module("M1", ModuleKind::Mixer, Rect::new(4, 4, 2, 2)).unwrap();
        spec.mark_dead(Coord::new(1, 1));
        spec.mark_dead(Coord::new(4, 4));
        let g = Grid::from_spec(&spec, &[m]);
        assert!(!g.passable(Coord::new(1, 1)));
        // Dead cells stay blocked even inside an open module footprint.
        assert!(!g.passable(Coord::new(4, 4)));
        assert!(g.passable(Coord::new(5, 5)));
    }
}
