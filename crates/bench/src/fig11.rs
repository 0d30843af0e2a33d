//! **Figure 11** — mixed workloads: W1 (90 % short / 10 % long) through
//! W4 (10 % / 90 %), short = 20 m, long = 300 m, for sigmoid
//! `(a, b) ∈ {(0.9, 100), (0.99, 100)}`; improvement vs \[14\].

use crate::common::sigmoid_probs;
use crate::fig09::sweep_encoders;
use crate::table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_core::metrics::WorkloadCost;
use sla_datasets::MixedWorkload;
use sla_encoding::EncoderKind;
use sla_grid::{Grid, ZoneSampler};

/// Result for one sigmoid configuration.
pub struct Fig11Panel {
    /// Sigmoid inflection.
    pub a: f64,
    /// Sigmoid gradient.
    pub b: f64,
    /// Mix labels (`W1`…`W4`).
    pub labels: Vec<String>,
    /// Costs indexed `[encoder][mix]`.
    pub costs: Vec<Vec<WorkloadCost>>,
    /// Encoder lineup.
    pub encoders: Vec<EncoderKind>,
}

impl Fig11Panel {
    /// Improvement of encoder `ei` over the basic baseline on mix `mi`.
    pub fn improvement(&self, ei: usize, mi: usize) -> f64 {
        let bi = self
            .encoders
            .iter()
            .position(|k| *k == EncoderKind::BasicFixed)
            .expect("baseline present");
        self.costs[ei][mi].improvement_vs(&self.costs[bi][mi])
    }
}

/// Runs both panels.
pub fn run(seed: u64, zones_per_mix: usize, n_ciphertexts: u64) -> Vec<Fig11Panel> {
    [(0.9, 100.0), (0.99, 100.0)]
        .iter()
        .map(|&(a, b)| run_panel(a, b, seed, zones_per_mix, n_ciphertexts))
        .collect()
}

/// Runs one sigmoid configuration.
pub fn run_panel(
    a: f64,
    b: f64,
    seed: u64,
    zones_per_mix: usize,
    n_ciphertexts: u64,
) -> Fig11Panel {
    let grid = Grid::chicago_downtown_32();
    let probs = sigmoid_probs(grid.n_cells(), a, b, seed);
    let sampler = ZoneSampler::new(grid, &probs);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11f1 ^ ((a * 100.0) as u64));

    let mixes = MixedWorkload::paper_mixes(zones_per_mix);
    let workloads: Vec<_> = mixes
        .iter()
        .map(|m| m.generate(&sampler, &mut rng))
        .collect();

    // The (encoder × workload) cost grid is exactly fig09's sweep.
    let sweep = sweep_encoders(probs.raw(), &workloads, n_ciphertexts);
    Fig11Panel {
        a,
        b,
        labels: sweep.labels,
        costs: sweep.costs,
        encoders: sweep.encoders,
    }
}

/// Improvement table for one panel.
pub fn table_improvement(panel: &Fig11Panel) -> Table {
    let mut headers = vec!["workload".to_string()];
    headers.extend(
        panel
            .encoders
            .iter()
            .filter(|k| **k != EncoderKind::BasicFixed)
            .map(|k| format!("{}_impr_%", k.name())),
    );
    let mut t = Table::new(
        format!("Fig 11: mixed workloads, a={}, b={}", panel.a, panel.b),
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for (mi, label) in panel.labels.iter().enumerate() {
        let mut row = vec![label.clone()];
        for (ei, k) in panel.encoders.iter().enumerate() {
            if *k == EncoderKind::BasicFixed {
                continue;
            }
            row.push(format!("{:.1}", panel.improvement(ei, mi)));
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huffman_outperforms_sgo_on_compact_mixes() {
        // §7.2: "Our proposed technique outperforms SGO ... For
        // mostly-compact alert zones (W1), the improvement is much
        // higher". Our reproduction confirms this for the compact-
        // dominated mixes W1/W2; on long-dominated mixes (W3/W4) the
        // exact-QM fixed-length baselines aggregate large zones better
        // and overtake — a documented deviation (see EXPERIMENTS.md).
        let panel = run_panel(0.99, 100.0, 31, 200, 100);
        let hi = panel
            .encoders
            .iter()
            .position(|k| *k == EncoderKind::Huffman)
            .unwrap();
        let si = panel
            .encoders
            .iter()
            .position(|k| *k == EncoderKind::GraySgo)
            .unwrap();
        for mi in 0..2 {
            // W1, W2
            assert!(
                panel.improvement(hi, mi) >= panel.improvement(si, mi),
                "{}: huffman {:.1}% < sgo {:.1}%",
                panel.labels[mi],
                panel.improvement(hi, mi),
                panel.improvement(si, mi)
            );
        }
        // W1: strong absolute improvement over the [14] baseline (the
        // paper reports up to 40%).
        assert!(
            panel.improvement(hi, 0) > 15.0,
            "W1 improvement {:.1}% too small",
            panel.improvement(hi, 0)
        );
        // W1 (mostly short) gain exceeds W4 (mostly long) gain for Huffman.
        assert!(panel.improvement(hi, 0) > panel.improvement(hi, 3));
    }

    #[test]
    fn both_panels_run() {
        let panels = run(31, 20, 50);
        assert_eq!(panels.len(), 2);
        for p in &panels {
            assert_eq!(p.labels, vec!["W1", "W2", "W3", "W4"]);
            let t = table_improvement(p);
            assert_eq!(t.rows.len(), 4);
        }
    }
}
