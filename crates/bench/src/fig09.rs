//! **Figure 9** — evaluation on the (synthetic stand-in) Chicago crime
//! dataset: absolute pairing operations and percentage improvement over
//! the basic fixed-length scheme \[14\], as a function of the alert-zone
//! radius, for Huffman, SGO (gray), and balanced-tree encodings.

use crate::common::zones_to_cells;
use crate::table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_core::metrics::{evaluate_workload, WorkloadCost};
use sla_datasets::{
    CrimeDataset, CrimeGeneratorConfig, CrimeRiskModel, RadiusSweep, TrainConfig, Workload,
};
use sla_encoding::{CellCodebook, EncoderKind};
use sla_grid::{Grid, ZoneSampler};

/// One (radius × encoder) measurement grid.
pub struct SweepResult {
    /// Workload labels (one per radius).
    pub labels: Vec<String>,
    /// Mean zone size (cells) per radius.
    pub mean_cells: Vec<f64>,
    /// Costs indexed `[encoder][radius]`.
    pub costs: Vec<Vec<WorkloadCost>>,
    /// Encoder lineup (same order as `costs`).
    pub encoders: Vec<EncoderKind>,
}

impl SweepResult {
    /// Index of the baseline (\[14\]) in the lineup.
    pub fn baseline_idx(&self) -> usize {
        self.encoders
            .iter()
            .position(|k| *k == EncoderKind::BasicFixed)
            .expect("lineup includes the basic baseline")
    }

    /// Improvement (%) of `encoder` over the baseline at `radius_idx`.
    pub fn improvement(&self, encoder_idx: usize, radius_idx: usize) -> f64 {
        let base = &self.costs[self.baseline_idx()][radius_idx];
        self.costs[encoder_idx][radius_idx].improvement_vs(base)
    }
}

/// Evaluates the paper's encoder lineup on a shared workload sweep.
pub fn sweep_encoders(probs: &[f64], workloads: &[Workload], n_ciphertexts: u64) -> SweepResult {
    let encoders = EncoderKind::paper_lineup();
    let costs = encoders
        .iter()
        .map(|&k| {
            let cb = CellCodebook::build(k, probs);
            workloads
                .iter()
                .map(|w| evaluate_workload(&cb, &w.label, &zones_to_cells(w), n_ciphertexts))
                .collect()
        })
        .collect();
    SweepResult {
        labels: workloads.iter().map(|w| w.label.clone()).collect(),
        mean_cells: workloads.iter().map(|w| w.mean_zone_cells()).collect(),
        costs,
        encoders,
    }
}

/// Runs the full Fig. 9 pipeline.
pub fn run(seed: u64, zones_per_radius: usize, n_ciphertexts: u64) -> SweepResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let dataset = CrimeDataset::generate(&CrimeGeneratorConfig::default(), &mut rng);
    let grid = Grid::chicago_downtown_32();
    let model = CrimeRiskModel::train(&dataset, &grid, TrainConfig::default());
    let probs = model.likelihood_map();

    let sampler = ZoneSampler::new(grid, &probs);
    let sweep = RadiusSweep {
        zones_per_radius,
        ..RadiusSweep::default()
    };
    let workloads = sweep.generate(&sampler, &mut rng);
    sweep_encoders(&probs.normalized(), &workloads, n_ciphertexts)
}

/// Absolute pairing counts table (Fig. 9a).
pub fn table_absolute(result: &SweepResult, title: &str) -> Table {
    let mut headers = vec!["radius".to_string(), "mean_cells".to_string()];
    headers.extend(result.encoders.iter().map(|k| k.name()));
    let mut t = Table::new(
        title,
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for (ri, label) in result.labels.iter().enumerate() {
        let mut row = vec![label.clone(), format!("{:.1}", result.mean_cells[ri])];
        for (ei, _) in result.encoders.iter().enumerate() {
            row.push(result.costs[ei][ri].pairings.to_string());
        }
        t.push_row(row);
    }
    t
}

/// Improvement-over-basic table (Fig. 9b).
pub fn table_improvement(result: &SweepResult, title: &str) -> Table {
    let mut headers = vec!["radius".to_string()];
    headers.extend(
        result
            .encoders
            .iter()
            .filter(|k| **k != EncoderKind::BasicFixed)
            .map(|k| format!("{}_impr_%", k.name())),
    );
    let mut t = Table::new(
        title,
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for (ri, label) in result.labels.iter().enumerate() {
        let mut row = vec![label.clone()];
        for (ei, k) in result.encoders.iter().enumerate() {
            if *k == EncoderKind::BasicFixed {
                continue;
            }
            row.push(format!("{:.1}", result.improvement(ei, ri)));
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huffman_wins_at_small_radii() {
        // The paper's headline: for compact zones, Huffman beats SGO and
        // the balanced tree; SGO provides little at small radii.
        let result = run(99, 20, 1_000);
        let hi = result
            .encoders
            .iter()
            .position(|k| *k == EncoderKind::Huffman)
            .unwrap();
        let si = result
            .encoders
            .iter()
            .position(|k| *k == EncoderKind::GraySgo)
            .unwrap();
        // smallest radius (20 m): Huffman improvement must be positive and
        // beat SGO's.
        let h0 = result.improvement(hi, 0);
        let s0 = result.improvement(si, 0);
        assert!(h0 > 0.0, "huffman improvement at 20m: {h0:.1}%");
        assert!(h0 > s0, "huffman {h0:.1}% should beat sgo {s0:.1}% at 20m");
    }

    #[test]
    fn empty_workload_sweep_is_empty() {
        let result = sweep_encoders(&[0.5, 0.5], &[], 100);
        assert!(result.labels.is_empty());
        assert_eq!(result.costs.len(), result.encoders.len());
        assert!(result.costs.iter().all(Vec::is_empty));
    }

    #[test]
    fn tables_well_formed() {
        let result = run(99, 5, 100);
        let abs = table_absolute(&result, "fig9a");
        let imp = table_improvement(&result, "fig9b");
        assert_eq!(abs.rows.len(), result.labels.len());
        assert_eq!(imp.rows.len(), result.labels.len());
        assert_eq!(abs.headers.len(), 2 + result.encoders.len());
    }
}
