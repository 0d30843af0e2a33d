//! Synthetic Chicago crime dataset (CLEAR-2015 stand-in).
//!
//! A seeded spatio-temporal point process: each category draws incidents
//! from a mixture of Gaussian hotspots with monthly seasonality, scaled to
//! volumes of the same order as the 2015 CLEAR extract the paper uses.

use rand::Rng;
use sla_grid::{BoundingBox, CellId, Grid, Point};

/// The four crime categories the paper selects (§7: "homicide, sexual
/// assault, sex offense, and kidnapping").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrimeCategory {
    /// Homicide.
    Homicide,
    /// Criminal sexual assault.
    SexualAssault,
    /// Sex offense.
    SexOffense,
    /// Kidnapping.
    Kidnapping,
}

impl CrimeCategory {
    /// All categories, in reporting order.
    pub const ALL: [CrimeCategory; 4] = [
        CrimeCategory::Homicide,
        CrimeCategory::SexualAssault,
        CrimeCategory::SexOffense,
        CrimeCategory::Kidnapping,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            CrimeCategory::Homicide => "homicide",
            CrimeCategory::SexualAssault => "sexual-assault",
            CrimeCategory::SexOffense => "sex-offense",
            CrimeCategory::Kidnapping => "kidnapping",
        }
    }

    /// Approximate 2015 city-wide incident volume (order-of-magnitude
    /// match to the CLEAR extract).
    fn annual_volume(&self) -> usize {
        match self {
            CrimeCategory::Homicide => 480,
            CrimeCategory::SexualAssault => 1_430,
            CrimeCategory::SexOffense => 1_050,
            CrimeCategory::Kidnapping => 210,
        }
    }

    /// Mild summer-peaking seasonality (weight per month, 1-indexed).
    fn seasonality(&self, month: u8) -> f64 {
        let phase = (month as f64 - 7.0) / 12.0 * std::f64::consts::TAU;
        1.0 + 0.25 * phase.cos()
    }
}

/// A single incident.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrimeIncident {
    /// Category.
    pub category: CrimeCategory,
    /// Location.
    pub location: Point,
    /// Month 1..=12 of 2015.
    pub month: u8,
}

/// Generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CrimeGeneratorConfig {
    /// Spatial domain; defaults to the central-Chicago district so the
    /// alert radii of §7 span one to a few grid cells.
    pub bbox: BoundingBox,
    /// Hotspots per category.
    pub hotspots_per_category: usize,
    /// Hotspot standard deviation in degrees (~0.01° ≈ 1.1 km).
    pub hotspot_sigma_deg: f64,
    /// Fraction of incidents drawn uniformly over the box (background
    /// noise floor).
    pub background_fraction: f64,
    /// Scales all annual volumes (1.0 = CLEAR-like).
    pub volume_scale: f64,
}

impl Default for CrimeGeneratorConfig {
    fn default() -> Self {
        CrimeGeneratorConfig {
            bbox: BoundingBox::chicago_downtown(),
            hotspots_per_category: 6,
            hotspot_sigma_deg: 0.004,
            background_fraction: 0.15,
            volume_scale: 1.0,
        }
    }
}

/// The generated dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct CrimeDataset {
    /// All incidents, in generation order.
    pub incidents: Vec<CrimeIncident>,
    /// The spatial domain incidents were drawn from.
    pub bbox: BoundingBox,
}

/// Approximate standard normal sampler (Box–Muller).
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl CrimeDataset {
    /// Generates the dataset. Deterministic for a seeded `rng`.
    pub fn generate<R: Rng>(config: &CrimeGeneratorConfig, rng: &mut R) -> Self {
        let mut incidents = Vec::new();
        let bbox = config.bbox;
        let lat_span = bbox.max_lat - bbox.min_lat;
        let lon_span = bbox.max_lon - bbox.min_lon;

        for category in CrimeCategory::ALL {
            // Category-specific hotspot mixture with unequal weights so the
            // resulting surface is skewed (popular areas dominate).
            let hotspots: Vec<(Point, f64)> = (0..config.hotspots_per_category)
                .map(|k| {
                    let p = Point::new(
                        bbox.min_lat + rng.gen::<f64>() * lat_span,
                        bbox.min_lon + rng.gen::<f64>() * lon_span,
                    );
                    (p, 1.0 / (k as f64 + 1.0))
                })
                .collect();
            let weight_total: f64 = hotspots.iter().map(|h| h.1).sum();

            // Month weights from seasonality.
            let month_weights: Vec<f64> = (1..=12).map(|m| category.seasonality(m)).collect();
            let month_total: f64 = month_weights.iter().sum();

            let volume = (category.annual_volume() as f64 * config.volume_scale).round() as usize;
            for _ in 0..volume {
                // month ~ seasonality
                let mut pick = rng.gen::<f64>() * month_total;
                let mut month = 12u8;
                for (i, w) in month_weights.iter().enumerate() {
                    if pick < *w {
                        month = i as u8 + 1;
                        break;
                    }
                    pick -= w;
                }

                // location: hotspot mixture or uniform background
                let location = if rng.gen::<f64>() < config.background_fraction {
                    Point::new(
                        bbox.min_lat + rng.gen::<f64>() * lat_span,
                        bbox.min_lon + rng.gen::<f64>() * lon_span,
                    )
                } else {
                    let mut pick = rng.gen::<f64>() * weight_total;
                    let mut chosen = hotspots[0].0;
                    for (p, w) in &hotspots {
                        if pick < *w {
                            chosen = *p;
                            break;
                        }
                        pick -= w;
                    }
                    // rejection-sample inside the box
                    loop {
                        let p = Point::new(
                            chosen.lat + gaussian(rng) * config.hotspot_sigma_deg,
                            chosen.lon + gaussian(rng) * config.hotspot_sigma_deg,
                        );
                        if bbox.contains(&p) {
                            break p;
                        }
                    }
                };

                incidents.push(CrimeIncident {
                    category,
                    location,
                    month,
                });
            }
        }

        CrimeDataset { incidents, bbox }
    }

    /// Total incidents.
    pub fn len(&self) -> usize {
        self.incidents.len()
    }

    /// `true` iff empty.
    pub fn is_empty(&self) -> bool {
        self.incidents.is_empty()
    }

    /// Fig. 8-style statistics: incidents per (category, month).
    pub fn monthly_counts(&self) -> Vec<(CrimeCategory, [usize; 12])> {
        CrimeCategory::ALL
            .iter()
            .map(|&cat| {
                let mut months = [0usize; 12];
                for inc in self.incidents.iter().filter(|i| i.category == cat) {
                    months[inc.month as usize - 1] += 1;
                }
                (cat, months)
            })
            .collect()
    }

    /// Per-cell incident counts for one category over a month range
    /// (inclusive), on `grid`.
    pub fn cell_counts(
        &self,
        grid: &Grid,
        category: CrimeCategory,
        months: std::ops::RangeInclusive<u8>,
    ) -> Vec<u32> {
        let mut counts = vec![0u32; grid.n_cells()];
        for inc in &self.incidents {
            if inc.category == category && months.contains(&inc.month) {
                if let Some(CellId(c)) = grid.cell_of(&inc.location) {
                    counts[c] += 1;
                }
            }
        }
        counts
    }

    /// Per-cell counts across all categories.
    pub fn cell_counts_total(&self, grid: &Grid, months: std::ops::RangeInclusive<u8>) -> Vec<u32> {
        let mut counts = vec![0u32; grid.n_cells()];
        for inc in &self.incidents {
            if months.contains(&inc.month) {
                if let Some(CellId(c)) = grid.cell_of(&inc.location) {
                    counts[c] += 1;
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset() -> CrimeDataset {
        CrimeDataset::generate(
            &CrimeGeneratorConfig::default(),
            &mut StdRng::seed_from_u64(2015),
        )
    }

    #[test]
    fn volumes_match_configuration() {
        let ds = dataset();
        let counts = ds.monthly_counts();
        let totals: Vec<usize> = counts.iter().map(|(_, m)| m.iter().sum()).collect();
        assert_eq!(totals, vec![480, 1_430, 1_050, 210]);
        assert_eq!(ds.len(), 480 + 1_430 + 1_050 + 210);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = dataset();
        let b = dataset();
        assert_eq!(a, b);
    }

    #[test]
    fn incidents_inside_bbox() {
        let ds = dataset();
        assert!(ds.incidents.iter().all(|i| ds.bbox.contains(&i.location)));
        assert!(ds.incidents.iter().all(|i| (1..=12).contains(&i.month)));
    }

    #[test]
    fn seasonality_peaks_in_summer() {
        let ds = dataset();
        let counts = ds.monthly_counts();
        // Sum across categories; July (index 6) should beat January.
        let total_by_month: Vec<usize> = (0..12)
            .map(|m| counts.iter().map(|(_, months)| months[m]).sum())
            .collect();
        assert!(
            total_by_month[6] > total_by_month[0],
            "July {} should exceed January {}",
            total_by_month[6],
            total_by_month[0]
        );
    }

    #[test]
    fn spatial_distribution_is_clustered() {
        // Hotspot mixture: the busiest cells hold far more than the mean.
        let ds = dataset();
        let grid = Grid::chicago_downtown_32();
        let counts = ds.cell_counts_total(&grid, 1..=12);
        let total: u32 = counts.iter().sum();
        let max = *counts.iter().max().unwrap();
        let mean = total as f64 / counts.len() as f64;
        assert!(
            max as f64 > 8.0 * mean,
            "max {max} should be ≫ mean {mean:.1}"
        );
    }

    #[test]
    fn category_and_month_filters() {
        let ds = dataset();
        let grid = Grid::chicago_downtown_32();
        let homicide_all = ds.cell_counts(&grid, CrimeCategory::Homicide, 1..=12);
        let homicide_dec = ds.cell_counts(&grid, CrimeCategory::Homicide, 12..=12);
        let sum_all: u32 = homicide_all.iter().sum();
        let sum_dec: u32 = homicide_dec.iter().sum();
        assert!(sum_dec < sum_all);
        assert_eq!(sum_all, 480);
    }

    #[test]
    fn volume_scale() {
        let cfg = CrimeGeneratorConfig {
            volume_scale: 0.1,
            ..CrimeGeneratorConfig::default()
        };
        let ds = CrimeDataset::generate(&cfg, &mut StdRng::seed_from_u64(1));
        assert_eq!(ds.len(), 48 + 143 + 105 + 21);
    }
}
