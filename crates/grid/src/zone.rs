//! Alert-zone construction and sampling.
//!
//! The paper's workloads are disk-shaped zones: an epicenter plus a radius
//! (small for contact tracing — meters to a room; large for public-safety
//! events — hundreds of meters, §2.3). Epicenters are sampled either
//! uniformly or proportionally to the cell probabilities (popular places
//! trigger more alerts).

use crate::grid::{CellId, Grid, Point};
use crate::prob::ProbabilityMap;
use rand::Rng;

/// A set of alerted cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertZone {
    cells: Vec<CellId>,
}

impl AlertZone {
    /// Builds from a cell list (sorted, deduplicated).
    pub fn new(mut cells: Vec<CellId>) -> Self {
        cells.sort_unstable();
        cells.dedup();
        AlertZone { cells }
    }

    /// Disk zone: all cells within `radius_m` of `epicenter`.
    pub fn disk(grid: &Grid, epicenter: &Point, radius_m: f64) -> Self {
        AlertZone::new(grid.cells_within_radius(epicenter, radius_m))
    }

    /// The alerted cells (sorted).
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// Cell ids as raw `usize` (what the encoders consume).
    pub fn cell_indices(&self) -> Vec<usize> {
        self.cells.iter().map(|c| c.0).collect()
    }

    /// Number of alerted cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` iff no cell is alerted.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// `true` iff `cell` is alerted.
    pub fn contains(&self, cell: CellId) -> bool {
        self.cells.binary_search(&cell).is_ok()
    }

    /// Union of two zones.
    pub fn union(&self, other: &AlertZone) -> AlertZone {
        let mut cells = self.cells.clone();
        cells.extend_from_slice(&other.cells);
        AlertZone::new(cells)
    }
}

/// Samples alert-zone epicenters and builds disk zones.
#[derive(Debug, Clone)]
pub struct ZoneSampler {
    grid: Grid,
    /// Cumulative distribution over cells for probability-weighted
    /// epicenter sampling.
    cdf: Vec<f64>,
}

impl ZoneSampler {
    /// Builds a sampler whose epicenters follow the probability map
    /// (popular cells host more alert events).
    pub fn new(grid: Grid, probs: &ProbabilityMap) -> Self {
        assert_eq!(
            grid.n_cells(),
            probs.len(),
            "probability map does not cover the grid"
        );
        let norm = probs.normalized();
        let mut cdf = Vec::with_capacity(norm.len());
        let mut acc = 0.0;
        for p in norm {
            acc += p;
            cdf.push(acc);
        }
        ZoneSampler { grid, cdf }
    }

    /// The grid being sampled.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Samples an epicenter cell ∝ probability.
    pub fn sample_epicenter_cell<R: Rng>(&self, rng: &mut R) -> CellId {
        let u: f64 = rng.gen();
        let idx = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        CellId(idx)
    }

    /// Samples an epicenter point: a probability-weighted cell, jittered
    /// uniformly within the cell.
    pub fn sample_epicenter<R: Rng>(&self, rng: &mut R) -> Point {
        let cell = self.sample_epicenter_cell(rng);
        let center = self.grid.cell_center(cell);
        let (row_span, col_span) = (
            (self.grid.bbox().max_lat - self.grid.bbox().min_lat) / self.grid.rows() as f64,
            (self.grid.bbox().max_lon - self.grid.bbox().min_lon) / self.grid.cols() as f64,
        );
        Point::new(
            center.lat + (rng.gen::<f64>() - 0.5) * row_span,
            center.lon + (rng.gen::<f64>() - 0.5) * col_span,
        )
    }

    /// Samples a disk-shaped alert zone of the given radius.
    pub fn sample_zone<R: Rng>(&self, radius_m: f64, rng: &mut R) -> AlertZone {
        let epicenter = self.sample_epicenter(rng);
        AlertZone::disk(&self.grid, &epicenter, radius_m)
    }

    /// Samples `count` zones of radius `radius_m`.
    pub fn sample_zones<R: Rng>(&self, radius_m: f64, count: usize, rng: &mut R) -> Vec<AlertZone> {
        (0..count)
            .map(|_| self.sample_zone(radius_m, rng))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::BoundingBox;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid() -> Grid {
        Grid::chicago_32()
    }

    #[test]
    fn zone_dedup_and_lookup() {
        let z = AlertZone::new(vec![CellId(5), CellId(1), CellId(5), CellId(3)]);
        assert_eq!(z.len(), 3);
        assert!(z.contains(CellId(5)));
        assert!(!z.contains(CellId(2)));
        assert_eq!(z.cell_indices(), vec![1, 3, 5]);
    }

    #[test]
    fn disk_zone_compact_for_small_radius() {
        let g = grid();
        let center = g.bbox().center();
        let z = AlertZone::disk(&g, &center, 20.0);
        assert_eq!(z.len(), 1, "20 m contact-tracing zone spans one cell");
        let z300 = AlertZone::disk(&g, &center, 1_800.0);
        assert!(z300.len() > 1);
    }

    #[test]
    fn union_merges() {
        let a = AlertZone::new(vec![CellId(1), CellId(2)]);
        let b = AlertZone::new(vec![CellId(2), CellId(3)]);
        assert_eq!(a.union(&b).cell_indices(), vec![1, 2, 3]);
    }

    #[test]
    fn weighted_sampling_prefers_hot_cells() {
        let g = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 2, 2);
        // cell 3 carries 97% of the mass
        let pm = ProbabilityMap::new(vec![0.01, 0.01, 0.01, 0.97]);
        let sampler = ZoneSampler::new(g.clone(), &pm);
        let mut rng = StdRng::seed_from_u64(11);
        let mut hits = [0usize; 4];
        for _ in 0..2000 {
            hits[sampler.sample_epicenter_cell(&mut rng).0] += 1;
        }
        assert!(hits[3] > 1800, "hot cell hit {} times", hits[3]);
        // epicenter points land inside the grid
        for _ in 0..100 {
            let p = sampler.sample_epicenter(&mut rng);
            assert!(g.cell_of(&p).is_some());
        }
    }

    #[test]
    fn sampled_zones_are_nonempty_and_seeded() {
        let g = grid();
        let pm = ProbabilityMap::uniform(g.n_cells());
        let sampler = ZoneSampler::new(g, &pm);
        let zones1 = sampler.sample_zones(300.0, 10, &mut StdRng::seed_from_u64(5));
        let zones2 = sampler.sample_zones(300.0, 10, &mut StdRng::seed_from_u64(5));
        assert_eq!(zones1, zones2);
        assert!(zones1.iter().all(|z| !z.is_empty()));
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn sampler_size_mismatch() {
        let g = grid();
        let pm = ProbabilityMap::uniform(10);
        let _ = ZoneSampler::new(g, &pm);
    }
}
