//! Uniform grid partitioning with geographic coordinates.

use crate::error::GridError;

/// Mean Earth radius in meters (spherical approximation).
const EARTH_RADIUS_M: f64 = 6_371_000.0;

/// A geographic point (degrees).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
}

impl Point {
    /// Creates a point.
    pub fn new(lat: f64, lon: f64) -> Self {
        Point { lat, lon }
    }

    /// Equirectangular distance in meters — accurate at city scale, which
    /// is all the alert protocol needs.
    pub fn distance_m(&self, other: &Point) -> f64 {
        let lat0 = (self.lat + other.lat).to_radians() / 2.0;
        let dlat = (other.lat - self.lat).to_radians();
        let dlon = (other.lon - self.lon).to_radians() * lat0.cos();
        EARTH_RADIUS_M * (dlat * dlat + dlon * dlon).sqrt()
    }
}

/// Axis-aligned geographic bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Southern edge (min latitude, degrees).
    pub min_lat: f64,
    /// Western edge (min longitude, degrees).
    pub min_lon: f64,
    /// Northern edge (max latitude, degrees).
    pub max_lat: f64,
    /// Eastern edge (max longitude, degrees).
    pub max_lon: f64,
}

impl BoundingBox {
    /// Creates a bounding box.
    ///
    /// # Panics
    /// Panics if the box is degenerate or inverted; use
    /// [`Self::try_new`] for a fallible version.
    pub fn new(min_lat: f64, min_lon: f64, max_lat: f64, max_lon: f64) -> Self {
        Self::try_new(min_lat, min_lon, max_lat, max_lon).expect("degenerate bbox")
    }

    /// Fallible [`Self::new`]: `Err(GridError::DegenerateBoundingBox)`
    /// when either axis is empty or inverted (NaN bounds included).
    pub fn try_new(
        min_lat: f64,
        min_lon: f64,
        max_lat: f64,
        max_lon: f64,
    ) -> Result<Self, GridError> {
        if !(min_lat < max_lat && min_lon < max_lon) {
            return Err(GridError::DegenerateBoundingBox {
                min_lat,
                min_lon,
                max_lat,
                max_lon,
            });
        }
        Ok(BoundingBox {
            min_lat,
            min_lon,
            max_lat,
            max_lon,
        })
    }

    /// The bounding box of the city of Chicago (used by the real-data
    /// experiments, §7.1).
    pub fn chicago() -> Self {
        BoundingBox::new(41.644, -87.940, 42.023, -87.524)
    }

    /// A ~10 km × 8 km central-Chicago district. With a 32×32 grid this
    /// yields ~300 m cells, so the paper's alert radii (20 m contact
    /// tracing up to hundreds of meters) span one to a handful of cells —
    /// the regime §2.3 motivates.
    pub fn chicago_downtown() -> Self {
        BoundingBox::new(41.850, -87.700, 41.940, -87.600)
    }

    /// `true` iff `p` lies inside (inclusive).
    pub fn contains(&self, p: &Point) -> bool {
        p.lat >= self.min_lat
            && p.lat <= self.max_lat
            && p.lon >= self.min_lon
            && p.lon <= self.max_lon
    }

    /// Center point.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lon + self.max_lon) / 2.0,
        )
    }
}

/// Identifier of a grid cell: row-major position `row * cols + col`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub usize);

/// A uniform rows×cols partitioning of a bounding box (§2: "equal-size
/// square cells are most likely in practice").
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    bbox: BoundingBox,
    rows: usize,
    cols: usize,
}

impl Grid {
    /// Creates a grid.
    ///
    /// # Panics
    /// Panics if `rows` or `cols` is zero; use [`Self::try_new`] for a
    /// fallible version.
    pub fn new(bbox: BoundingBox, rows: usize, cols: usize) -> Self {
        Self::try_new(bbox, rows, cols).expect("grid must have cells")
    }

    /// Fallible [`Self::new`]: `Err(GridError::ZeroGridDimension)` when
    /// `rows` or `cols` is zero.
    pub fn try_new(bbox: BoundingBox, rows: usize, cols: usize) -> Result<Self, GridError> {
        if rows == 0 || cols == 0 {
            return Err(GridError::ZeroGridDimension { rows, cols });
        }
        Ok(Grid { bbox, rows, cols })
    }

    /// The paper's default evaluation grid: 32×32 over Chicago.
    pub fn chicago_32() -> Self {
        Grid::new(BoundingBox::chicago(), 32, 32)
    }

    /// 32×32 grid over the central district (~300 m cells) — the default
    /// evaluation grid of the experiment harness.
    pub fn chicago_downtown_32() -> Self {
        Grid::new(BoundingBox::chicago_downtown(), 32, 32)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total cell count `n`.
    pub fn n_cells(&self) -> usize {
        self.rows * self.cols
    }

    /// The bounding box.
    pub fn bbox(&self) -> &BoundingBox {
        &self.bbox
    }

    /// Cell containing `p`, or `None` outside the box. Non-finite
    /// coordinates (NaN/±inf) are always `None` — `contains` already
    /// rejects them (NaN fails every `>=`/`<=` comparison), and the
    /// explicit finiteness guard makes that a stated contract rather
    /// than a side effect, so no future refactor of the containment
    /// check can let garbage reach the `as usize` casts below (which
    /// would silently map NaN to cell (0, 0)).
    pub fn cell_of(&self, p: &Point) -> Option<CellId> {
        if !(p.lat.is_finite() && p.lon.is_finite() && self.bbox.contains(p)) {
            return None;
        }
        let fr = (p.lat - self.bbox.min_lat) / (self.bbox.max_lat - self.bbox.min_lat);
        let fc = (p.lon - self.bbox.min_lon) / (self.bbox.max_lon - self.bbox.min_lon);
        let row = ((fr * self.rows as f64) as usize).min(self.rows - 1);
        let col = ((fc * self.cols as f64) as usize).min(self.cols - 1);
        Some(CellId(row * self.cols + col))
    }

    /// `(row, col)` of a cell.
    pub fn row_col(&self, cell: CellId) -> (usize, usize) {
        assert!(cell.0 < self.n_cells(), "cell out of range");
        (cell.0 / self.cols, cell.0 % self.cols)
    }

    /// Center point of a cell.
    pub fn cell_center(&self, cell: CellId) -> Point {
        let (row, col) = self.row_col(cell);
        let lat = self.bbox.min_lat
            + (row as f64 + 0.5) / self.rows as f64 * (self.bbox.max_lat - self.bbox.min_lat);
        let lon = self.bbox.min_lon
            + (col as f64 + 0.5) / self.cols as f64 * (self.bbox.max_lon - self.bbox.min_lon);
        Point::new(lat, lon)
    }

    /// Approximate cell dimensions in meters `(height, width)`.
    pub fn cell_size_m(&self) -> (f64, f64) {
        let sw = Point::new(self.bbox.min_lat, self.bbox.min_lon);
        let nw = Point::new(self.bbox.max_lat, self.bbox.min_lon);
        let se = Point::new(self.bbox.min_lat, self.bbox.max_lon);
        (
            sw.distance_m(&nw) / self.rows as f64,
            sw.distance_m(&se) / self.cols as f64,
        )
    }

    /// All cells whose *center* lies within `radius_m` meters of `center`
    /// — the paper's disk-shaped alert zones ("a range around the
    /// epicenter (often circular)", §2.3). Always contains the epicenter's
    /// own cell when inside the grid.
    pub fn cells_within_radius(&self, center: &Point, radius_m: f64) -> Vec<CellId> {
        let mut out = Vec::new();
        for cell in self.cells() {
            if self.cell_center(cell).distance_m(center) <= radius_m {
                out.push(cell);
            }
        }
        if out.is_empty() {
            if let Some(own) = self.cell_of(center) {
                out.push(own);
            }
        }
        out.sort_unstable();
        out
    }

    /// Iterator over all cells in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> {
        (0..self.n_cells()).map(CellId)
    }

    /// Orthogonal neighbors (up/down/left/right) of a cell.
    pub fn neighbors(&self, cell: CellId) -> Vec<CellId> {
        let (row, col) = self.row_col(cell);
        let mut out = Vec::with_capacity(4);
        if row > 0 {
            out.push(CellId(cell.0 - self.cols));
        }
        if row + 1 < self.rows {
            out.push(CellId(cell.0 + self.cols));
        }
        if col > 0 {
            out.push(CellId(cell.0 - 1));
        }
        if col + 1 < self.cols {
            out.push(CellId(cell.0 + 1));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_grid(rows: usize, cols: usize) -> Grid {
        Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), rows, cols)
    }

    #[test]
    fn cell_mapping_roundtrip() {
        let g = unit_grid(4, 4);
        for cell in g.cells() {
            let center = g.cell_center(cell);
            assert_eq!(g.cell_of(&center), Some(cell));
        }
    }

    #[test]
    fn out_of_bounds_is_none() {
        let g = unit_grid(4, 4);
        assert_eq!(g.cell_of(&Point::new(-0.01, 0.05)), None);
        assert_eq!(g.cell_of(&Point::new(0.05, 0.2)), None);
        // corners map inside
        assert_eq!(g.cell_of(&Point::new(0.0, 0.0)), Some(CellId(0)));
        assert_eq!(g.cell_of(&Point::new(0.1, 0.1)), Some(CellId(15)));
    }

    #[test]
    fn non_finite_points_are_rejected() {
        let g = unit_grid(4, 4);
        for p in [
            Point::new(f64::NAN, 0.05),
            Point::new(0.05, f64::NAN),
            Point::new(f64::NAN, f64::NAN),
            Point::new(f64::INFINITY, 0.05),
            Point::new(0.05, f64::NEG_INFINITY),
        ] {
            assert_eq!(g.cell_of(&p), None, "{p:?} must not map to a cell");
            assert!(
                g.cells_within_radius(&p, 1_000.0).is_empty(),
                "{p:?} must not anchor a zone"
            );
        }
    }

    #[test]
    fn max_edge_points_clamp_into_last_row_and_col() {
        // fr == 1.0 / fc == 1.0 (points exactly on the north/east edges)
        // must clamp into the final row/col, not index out of range.
        let g = unit_grid(4, 4);
        assert_eq!(g.cell_of(&Point::new(0.1, 0.05)), Some(CellId(14))); // north edge, col 2
        assert_eq!(g.cell_of(&Point::new(0.05, 0.1)), Some(CellId(11))); // east edge, row 2
        assert_eq!(g.cell_of(&Point::new(0.1, 0.1)), Some(CellId(15))); // NE corner
                                                                        // just inside the edge stays in the same cells
        assert_eq!(g.cell_of(&Point::new(0.1 - 1e-12, 0.05)), Some(CellId(14)));
    }

    #[test]
    fn row_col_layout_is_row_major() {
        let g = unit_grid(3, 5);
        assert_eq!(g.row_col(CellId(0)), (0, 0));
        assert_eq!(g.row_col(CellId(4)), (0, 4));
        assert_eq!(g.row_col(CellId(5)), (1, 0));
        assert_eq!(g.row_col(CellId(14)), (2, 4));
        assert_eq!(g.n_cells(), 15);
    }

    #[test]
    fn distances_are_plausible() {
        // ~111 km per degree of latitude.
        let a = Point::new(41.0, -87.0);
        let b = Point::new(42.0, -87.0);
        let d = a.distance_m(&b);
        assert!((d - 111_195.0).abs() < 500.0, "got {d}");
    }

    #[test]
    fn chicago_grid_cell_size() {
        // The 32×32 Chicago grid has cells on the order of a kilometer —
        // consistent with the paper's radii (tens to hundreds of meters
        // spanning one to a few cells).
        let g = Grid::chicago_32();
        let (h, w) = g.cell_size_m();
        assert!(h > 800.0 && h < 2_000.0, "cell height {h}");
        assert!(w > 800.0 && w < 2_000.0, "cell width {w}");
    }

    #[test]
    fn radius_query_grows_with_radius() {
        let g = Grid::chicago_32();
        let center = g.bbox().center();
        let r_small = g.cells_within_radius(&center, 20.0);
        let r_med = g.cells_within_radius(&center, 1_500.0);
        let r_large = g.cells_within_radius(&center, 5_000.0);
        assert_eq!(r_small.len(), 1, "20 m should cover only the own cell");
        assert!(r_med.len() > 1);
        assert!(r_large.len() > r_med.len());
        // all returned cells really are within range (except the
        // fallback own cell for tiny radii)
        for &c in &r_large {
            assert!(g.cell_center(c).distance_m(&center) <= 5_000.0);
        }
    }

    #[test]
    fn radius_query_far_outside_is_empty() {
        let g = unit_grid(4, 4);
        let far = Point::new(50.0, 50.0);
        assert!(g.cells_within_radius(&far, 10.0).is_empty());
    }

    #[test]
    fn neighbors_edge_cases() {
        let g = unit_grid(3, 3);
        assert_eq!(g.neighbors(CellId(4)).len(), 4); // center
        assert_eq!(g.neighbors(CellId(0)).len(), 2); // corner
        assert_eq!(g.neighbors(CellId(1)).len(), 3); // edge
    }

    #[test]
    fn try_constructors_return_typed_errors() {
        assert!(matches!(
            BoundingBox::try_new(1.0, 0.0, 1.0, 1.0),
            Err(GridError::DegenerateBoundingBox { .. })
        ));
        assert!(matches!(
            BoundingBox::try_new(0.0, f64::NAN, 1.0, 1.0),
            Err(GridError::DegenerateBoundingBox { .. })
        ));
        let bbox = BoundingBox::try_new(0.0, 0.0, 0.1, 0.1).unwrap();
        assert_eq!(
            Grid::try_new(bbox, 0, 4).unwrap_err(),
            GridError::ZeroGridDimension { rows: 0, cols: 4 }
        );
        assert!(Grid::try_new(bbox, 2, 2).is_ok());
    }
}
