use std::fmt;

/// An electrode position on the chip grid (column `x`, row `y`; origin at
/// the top-left corner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Coord {
    /// Column index.
    pub x: i32,
    /// Row index.
    pub y: i32,
}

impl Coord {
    /// Creates a coordinate.
    pub fn new(x: i32, y: i32) -> Self {
        Coord { x, y }
    }

    /// Manhattan distance — the number of electrode hops between two cells,
    /// the paper's droplet-transportation cost unit.
    pub fn manhattan(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }

    /// The four edge-adjacent cells (droplets move orthogonally).
    pub fn orthogonal_neighbors(self) -> [Coord; 4] {
        [
            Coord::new(self.x + 1, self.y),
            Coord::new(self.x - 1, self.y),
            Coord::new(self.x, self.y + 1),
            Coord::new(self.x, self.y - 1),
        ]
    }

    /// The eight surrounding cells — the fluidic-constraint neighborhood
    /// (droplets closer than this merge accidentally).
    pub fn all_neighbors(self) -> [Coord; 8] {
        [
            Coord::new(self.x - 1, self.y - 1),
            Coord::new(self.x, self.y - 1),
            Coord::new(self.x + 1, self.y - 1),
            Coord::new(self.x - 1, self.y),
            Coord::new(self.x + 1, self.y),
            Coord::new(self.x - 1, self.y + 1),
            Coord::new(self.x, self.y + 1),
            Coord::new(self.x + 1, self.y + 1),
        ]
    }

    /// Whether `other` is within the 8-neighborhood (or equal).
    pub fn touches(self, other: Coord) -> bool {
        (self.x - other.x).abs() <= 1 && (self.y - other.y).abs() <= 1
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// Row-major numbering of the cells of a `width × height` electrode array:
/// cell `(x, y)` is number `y · width + x`.
///
/// Dense per-cell state — the router's blocked bitmap, the simulator's
/// module index, occupancy and wear counters — is a `Vec` of
/// [`CellIndex::len`] entries addressed through [`CellIndex::index`].
///
/// # Examples
///
/// ```
/// use dmf_chip::{CellIndex, Coord};
///
/// let cells = CellIndex::new(4, 3).expect("12 cells fit in usize");
/// assert_eq!(cells.len(), 12);
/// assert_eq!(cells.index(Coord::new(1, 2)), Some(9));
/// assert_eq!(cells.index(Coord::new(4, 0)), None);
/// assert_eq!(cells.coords().nth(9), Some(Coord::new(1, 2)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellIndex {
    width: i32,
    height: i32,
    len: usize,
}

impl CellIndex {
    /// Numbers a `width × height` array; a non-positive dimension gives an
    /// empty one. `None` when the cell count does not fit in `usize`.
    pub fn new(width: i32, height: i32) -> Option<Self> {
        let (width, height) = (width.max(0), height.max(0));
        let len = usize::try_from(width).ok()?.checked_mul(usize::try_from(height).ok()?)?;
        Some(CellIndex { width, height, len })
    }

    /// Array width (0 for an empty array).
    pub fn width(self) -> i32 {
        self.width
    }

    /// Array height (0 for an empty array).
    pub fn height(self) -> i32 {
        self.height
    }

    /// Number of cells.
    pub fn len(self) -> usize {
        self.len
    }

    /// Whether the array has no cells.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The number of cell `c`, or `None` when `c` lies off the array.
    pub fn index(self, c: Coord) -> Option<usize> {
        if c.x < 0 || c.x >= self.width || c.y < 0 || c.y >= self.height {
            return None;
        }
        // On the array, so both coordinates are non-negative and the
        // result is below `len`, which fits in `usize`.
        Some(c.y as usize * self.width as usize + c.x as usize)
    }

    /// Every cell in number order (row-major).
    pub fn coords(self) -> impl Iterator<Item = Coord> {
        (0..self.height).flat_map(move |y| (0..self.width).map(move |x| Coord::new(x, y)))
    }
}

/// An axis-aligned rectangle of electrodes (module footprint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Left column.
    pub x: i32,
    /// Top row.
    pub y: i32,
    /// Width in electrodes (>= 1).
    pub w: i32,
    /// Height in electrodes (>= 1).
    pub h: i32,
}

impl Rect {
    /// Creates a rectangle.
    ///
    /// # Panics
    ///
    /// Panics when `w` or `h` is not positive.
    pub fn new(x: i32, y: i32, w: i32, h: i32) -> Self {
        assert!(w > 0 && h > 0, "rectangle must have positive extent");
        Rect { x, y, w, h }
    }

    /// A 1×1 rectangle at `c`.
    pub fn cell(c: Coord) -> Self {
        Rect::new(c.x, c.y, 1, 1)
    }

    /// Whether the cell lies inside the rectangle.
    pub fn contains(&self, c: Coord) -> bool {
        c.x >= self.x && c.x < self.x + self.w && c.y >= self.y && c.y < self.y + self.h
    }

    /// Whether two rectangles share any cell.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x < other.x + other.w
            && other.x < self.x + self.w
            && self.y < other.y + other.h
            && other.y < self.y + self.h
    }

    /// Whether two rectangles share a cell or touch within the fluidic
    /// 8-neighborhood (modules need a one-cell guard band).
    pub fn touches(&self, other: &Rect) -> bool {
        self.inflate(1).intersects(other)
    }

    /// The rectangle grown by `margin` cells on every side.
    pub fn inflate(&self, margin: i32) -> Rect {
        Rect {
            x: self.x - margin,
            y: self.y - margin,
            w: self.w + 2 * margin,
            h: self.h + 2 * margin,
        }
    }

    /// Iterates over every cell of the rectangle, row-major.
    pub fn cells(&self) -> impl Iterator<Item = Coord> + '_ {
        let (x, y, w) = (self.x, self.y, self.w);
        (0..self.w * self.h).map(move |i| Coord::new(x + i % w, y + i / w))
    }

    /// Number of electrodes covered.
    pub fn area(&self) -> u32 {
        (self.w * self.h) as u32
    }

    /// The cell closest to the rectangle's centre (rounded toward the
    /// top-left).
    pub fn center(&self) -> Coord {
        Coord::new(self.x + (self.w - 1) / 2, self.y + (self.h - 1) / 2)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}x{} at ({}, {})]", self.w, self.h, self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance() {
        assert_eq!(Coord::new(0, 0).manhattan(Coord::new(3, 4)), 7);
        assert_eq!(Coord::new(2, 2).manhattan(Coord::new(2, 2)), 0);
    }

    #[test]
    fn neighborhoods() {
        let c = Coord::new(5, 5);
        assert_eq!(c.orthogonal_neighbors().len(), 4);
        assert!(c.touches(Coord::new(6, 6)));
        assert!(c.touches(c));
        assert!(!c.touches(Coord::new(7, 5)));
    }

    #[test]
    fn rect_contains_and_cells() {
        let r = Rect::new(2, 3, 2, 2);
        assert!(r.contains(Coord::new(3, 4)));
        assert!(!r.contains(Coord::new(4, 4)));
        let cells: Vec<Coord> = r.cells().collect();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0], Coord::new(2, 3));
        assert_eq!(cells[3], Coord::new(3, 4));
        assert_eq!(r.area(), 4);
    }

    #[test]
    fn rect_intersection_and_guard_band() {
        let a = Rect::new(0, 0, 2, 2);
        let b = Rect::new(2, 2, 2, 2); // diagonal contact, no overlap
        assert!(!a.intersects(&b));
        assert!(a.touches(&b));
        let c = Rect::new(3, 3, 1, 1);
        assert!(!a.touches(&c));
    }

    #[test]
    fn center_of_even_rect() {
        assert_eq!(Rect::new(0, 0, 2, 2).center(), Coord::new(0, 0));
        assert_eq!(Rect::new(1, 1, 3, 3).center(), Coord::new(2, 2));
    }

    #[test]
    fn cell_index_round_trips_row_major() {
        let cells = CellIndex::new(5, 3).unwrap();
        assert_eq!(cells.len(), 15);
        for (i, c) in cells.coords().enumerate() {
            assert_eq!(cells.index(c), Some(i));
        }
        for off in [Coord::new(-1, 0), Coord::new(5, 0), Coord::new(0, -1), Coord::new(0, 3)] {
            assert_eq!(cells.index(off), None);
        }
    }

    #[test]
    fn degenerate_cell_index_is_empty() {
        for (w, h) in [(0, 4), (4, 0), (-3, 2)] {
            let cells = CellIndex::new(w, h).unwrap();
            assert!(cells.is_empty());
            assert_eq!(cells.index(Coord::new(0, 0)), None);
            assert_eq!(cells.coords().count(), 0);
        }
    }
}
