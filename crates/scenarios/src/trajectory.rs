//! Moving-zone trajectories (arXiv 2301.06238): an epicenter that
//! translates at a fixed velocity while the zone radius grows or
//! shrinks, evaluated per epoch as a disk over the grid.

use sla_grid::{AlertZone, Grid, Point};

/// Meters per degree of latitude (and of longitude at the equator),
/// matching the grid's equirectangular distance model.
const METERS_PER_DEG: f64 = 6_371_000.0 * std::f64::consts::PI / 180.0;

/// A storm-track / plume trajectory: deterministic closed form in the
/// epoch index, so replay needs no state — and two consumers (e.g. the
/// encrypted alert and its plaintext oracle) see byte-equal cell sets.
///
/// The zone may grow, shrink (`radius_delta_m < 0`, collapsing to the
/// epicenter's own cell — the grid's disk semantics always keep it while
/// the epicenter is inside), or leave the grid entirely, which yields an
/// **empty** cell set that minimizes to zero tokens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneTrajectory {
    /// Epicenter at epoch 0.
    pub start: Point,
    /// Northward epicenter velocity, meters per epoch (negative: south).
    pub north_m_per_epoch: f64,
    /// Eastward epicenter velocity, meters per epoch (negative: west).
    pub east_m_per_epoch: f64,
    /// Zone radius at epoch 0, in meters.
    pub start_radius_m: f64,
    /// Radius change per epoch, in meters (negative: shrinking).
    pub radius_delta_m: f64,
}

impl ZoneTrajectory {
    /// A storm track crossing `grid` west → east: starts one quarter in
    /// from the west edge at mid-height, moves two cell widths east per
    /// epoch, and grows by half a cell width per epoch from an initial
    /// two-cell-width radius. Scales with the grid's geometry.
    pub fn storm_track(grid: &Grid) -> Self {
        let (cell_h, cell_w) = grid.cell_size_m();
        let bbox = grid.bbox();
        let start = Point::new(
            bbox.center().lat,
            bbox.min_lon + (bbox.max_lon - bbox.min_lon) * 0.25,
        );
        ZoneTrajectory {
            start,
            north_m_per_epoch: 0.25 * cell_h,
            east_m_per_epoch: 2.0 * cell_w,
            start_radius_m: 2.0 * cell_w,
            radius_delta_m: 0.5 * cell_w,
        }
    }

    /// The epicenter at `epoch` (may lie outside the grid).
    pub fn epicenter_at(&self, epoch: usize) -> Point {
        let t = epoch as f64;
        let lat = self.start.lat + t * self.north_m_per_epoch / METERS_PER_DEG;
        let lon = self.start.lon
            + t * self.east_m_per_epoch / (METERS_PER_DEG * self.start.lat.to_radians().cos());
        Point::new(lat, lon)
    }

    /// The zone radius at `epoch`, clamped at zero once a shrinking
    /// trajectory collapses.
    pub fn radius_at(&self, epoch: usize) -> f64 {
        (self.start_radius_m + epoch as f64 * self.radius_delta_m).max(0.0)
    }

    /// The zone at `epoch` as a disk over `grid` — empty once the
    /// trajectory has left the grid or the radius has collapsed.
    pub fn zone_at(&self, grid: &Grid, epoch: usize) -> AlertZone {
        AlertZone::disk(grid, &self.epicenter_at(epoch), self.radius_at(epoch))
    }

    /// [`Self::zone_at`] as sorted, deduplicated cell indices.
    pub fn cells_at(&self, grid: &Grid, epoch: usize) -> Vec<usize> {
        let mut cells = self.zone_at(grid, epoch).cell_indices();
        cells.sort_unstable();
        cells.dedup();
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_track_moves_east_and_grows() {
        let grid = Grid::chicago_downtown_32();
        let t = ZoneTrajectory::storm_track(&grid);
        let e0 = t.epicenter_at(0);
        let e3 = t.epicenter_at(3);
        assert!(e3.lon > e0.lon);
        assert!(t.radius_at(3) > t.radius_at(0));
        let c0 = t.cells_at(&grid, 0);
        let c1 = t.cells_at(&grid, 1);
        assert!(!c0.is_empty() && !c1.is_empty());
        assert_ne!(c0, c1, "a moving zone must change its cell set");
        // Consecutive epochs overlap: the zone moves, it does not jump.
        assert!(c1.iter().any(|c| c0.contains(c)));
    }

    #[test]
    fn trajectory_exits_grid_to_empty() {
        let grid = Grid::chicago_downtown_32();
        let (_, cell_w) = grid.cell_size_m();
        let mut t = ZoneTrajectory::storm_track(&grid);
        t.east_m_per_epoch = 40.0 * cell_w;
        t.radius_delta_m = 0.0;
        assert!(!t.cells_at(&grid, 0).is_empty());
        assert!(t.cells_at(&grid, 12).is_empty(), "zone left the grid");
    }

    #[test]
    fn shrinking_radius_collapses_to_epicenter_cell() {
        let grid = Grid::chicago_downtown_32();
        let (_, cell_w) = grid.cell_size_m();
        let t = ZoneTrajectory {
            start: grid.bbox().center(),
            north_m_per_epoch: 0.0,
            east_m_per_epoch: 0.0,
            start_radius_m: 2.0 * cell_w,
            radius_delta_m: -cell_w,
        };
        assert!(t.cells_at(&grid, 0).len() > 1);
        assert_eq!(t.radius_at(9), 0.0);
        // An inside epicenter always keeps its own cell, however small
        // the radius (the grid's documented disk semantics).
        assert_eq!(t.cells_at(&grid, 9).len(), 1);
    }
}
