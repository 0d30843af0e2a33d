//! **Figure 12** — varying grid granularity (`a = 0.95`, `b = 20`):
//! absolute pairings and improvement vs \[14\] for the Huffman scheme, per
//! grid size and alert radius. Shows that higher granularity raises
//! absolute cost and shrinks the small-zone improvement (§7.2).

use crate::common::{sigmoid_probs, zones_to_cells};
use crate::table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_core::metrics::evaluate_workload;
use sla_datasets::RadiusSweep;
use sla_encoding::{CellCodebook, EncoderKind};
use sla_grid::{BoundingBox, Grid, ZoneSampler};

/// One (grid size × radius) cell of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Point {
    /// Grid side (grid is side×side).
    pub side: usize,
    /// Radius label.
    pub radius: String,
    /// Huffman pairing count.
    pub huffman_pairings: u64,
    /// Basic fixed-length pairing count.
    pub basic_pairings: u64,
    /// Improvement (%) of Huffman over basic.
    pub improvement: f64,
}

/// Grid sides evaluated (8×8 … 64×64).
pub const SIDES: [usize; 4] = [8, 16, 32, 64];

/// Radii evaluated (meters).
pub const RADII: [f64; 5] = [20.0, 100.0, 300.0, 1_000.0, 2_000.0];

/// Runs the granularity sweep.
pub fn run(seed: u64, zones_per_radius: usize, n_ciphertexts: u64) -> Vec<Fig12Point> {
    let mut out = Vec::new();
    for &side in &SIDES {
        let grid = Grid::new(BoundingBox::chicago_downtown(), side, side);
        let probs = sigmoid_probs(grid.n_cells(), 0.95, 20.0, seed);
        let sampler = ZoneSampler::new(grid, &probs);
        let mut rng = StdRng::seed_from_u64(seed ^ (side as u64) << 4);
        let workloads = RadiusSweep {
            radii_m: RADII.to_vec(),
            zones_per_radius,
        }
        .generate(&sampler, &mut rng);

        let huffman = CellCodebook::build(EncoderKind::Huffman, probs.raw());
        let basic = CellCodebook::build(EncoderKind::BasicFixed, probs.raw());
        out.extend(workloads.iter().map(|w| {
            let zones = zones_to_cells(w);
            let hc = evaluate_workload(&huffman, &w.label, &zones, n_ciphertexts);
            let bc = evaluate_workload(&basic, &w.label, &zones, n_ciphertexts);
            Fig12Point {
                side,
                radius: w.label.clone(),
                huffman_pairings: hc.pairings,
                basic_pairings: bc.pairings,
                improvement: hc.improvement_vs(&bc),
            }
        }));
    }
    out
}

/// Absolute-cost table: rows = radius, columns = grid side.
pub fn table_absolute(points: &[Fig12Point]) -> Table {
    pivot(points, "Fig 12a: Huffman pairings by granularity", |p| {
        p.huffman_pairings.to_string()
    })
}

/// Improvement table: rows = radius, columns = grid side.
pub fn table_improvement(points: &[Fig12Point]) -> Table {
    pivot(
        points,
        "Fig 12b: improvement (%) vs basic by granularity",
        |p| format!("{:.1}", p.improvement),
    )
}

fn pivot(points: &[Fig12Point], title: &str, cell: impl Fn(&Fig12Point) -> String) -> Table {
    let mut headers = vec!["radius".to_string()];
    headers.extend(SIDES.iter().map(|s| format!("{s}x{s}")));
    let mut t = Table::new(
        title,
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for &r in &RADII {
        let label = format!("r={r:.0}m");
        let mut row = vec![label.clone()];
        for &side in &SIDES {
            let p = points
                .iter()
                .find(|p| p.side == side && p.radius == label)
                .expect("complete sweep");
            row.push(cell(p));
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_cost_grows_with_granularity() {
        // §7.2: "higher grid granularities lead to higher performance
        // overhead ... since more cells need to be encoded and encrypted,
        // and thus code lengths increase."
        let points = run(3, 10, 100);
        for &r in &RADII {
            let label = format!("r={r:.0}m");
            let costs: Vec<u64> = SIDES
                .iter()
                .map(|&s| {
                    points
                        .iter()
                        .find(|p| p.side == s && p.radius == label)
                        .unwrap()
                        .huffman_pairings
                })
                .collect();
            assert!(
                costs.windows(2).all(|w| w[1] >= w[0]),
                "{label}: costs not monotone {costs:?}"
            );
        }
    }

    #[test]
    fn tables_complete() {
        let points = run(3, 3, 10);
        let a = table_absolute(&points);
        let b = table_improvement(&points);
        assert_eq!(a.rows.len(), RADII.len());
        assert_eq!(b.rows.len(), RADII.len());
        assert_eq!(a.headers.len(), 1 + SIDES.len());
    }
}
