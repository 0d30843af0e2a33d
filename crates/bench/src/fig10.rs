//! **Figure 10** — synthetic-dataset evaluation: the twelve panels sweep
//! sigmoid inflection `a ∈ {0.9, 0.99}` and gradient `b ∈ {10, 100, 200}`,
//! reporting absolute pairings and improvement vs \[14\] per radius.

use crate::common::sigmoid_probs;
use crate::fig09::{sweep_encoders, SweepResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_datasets::RadiusSweep;
use sla_grid::{Grid, ZoneSampler};

/// One (a, b) panel.
pub struct Fig10Panel {
    /// Sigmoid inflection point.
    pub a: f64,
    /// Sigmoid gradient.
    pub b: f64,
    /// The radius sweep result.
    pub result: SweepResult,
}

/// The paper's (a, b) combinations.
pub const PANELS: [(f64, f64); 6] = [
    (0.9, 10.0),
    (0.9, 100.0),
    (0.9, 200.0),
    (0.99, 10.0),
    (0.99, 100.0),
    (0.99, 200.0),
];

/// Runs all panels on the default 32×32 grid.
pub fn run(seed: u64, zones_per_radius: usize, n_ciphertexts: u64) -> Vec<Fig10Panel> {
    PANELS
        .iter()
        .map(|&(a, b)| run_panel(a, b, seed, zones_per_radius, n_ciphertexts))
        .collect()
}

/// Runs a single (a, b) panel.
pub fn run_panel(
    a: f64,
    b: f64,
    seed: u64,
    zones_per_radius: usize,
    n_ciphertexts: u64,
) -> Fig10Panel {
    let grid = Grid::chicago_downtown_32();
    let probs = sigmoid_probs(grid.n_cells(), a, b, seed);
    let sampler = ZoneSampler::new(grid, &probs);
    let mut rng = StdRng::seed_from_u64(seed ^ ((a * 100.0) as u64) ^ ((b as u64) << 8));
    let sweep = RadiusSweep {
        zones_per_radius,
        ..RadiusSweep::default()
    };
    let workloads = sweep.generate(&sampler, &mut rng);
    Fig10Panel {
        a,
        b,
        result: sweep_encoders(&probs.normalized(), &workloads, n_ciphertexts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_encoding::EncoderKind;

    #[test]
    fn higher_inflection_boosts_huffman_gain() {
        // §7.2: "a higher inflection point setting results in a more
        // skewed distribution ... leads to a higher performance gain for
        // Huffman encoding".
        let lo = run_panel(0.9, 100.0, 5, 20, 100);
        let hi = run_panel(0.99, 100.0, 5, 20, 100);
        let idx = |r: &SweepResult| {
            r.encoders
                .iter()
                .position(|k| *k == EncoderKind::Huffman)
                .unwrap()
        };
        // average improvement over the three smallest radii
        let avg = |p: &Fig10Panel| {
            let i = idx(&p.result);
            (0..3).map(|r| p.result.improvement(i, r)).sum::<f64>() / 3.0
        };
        let (g_lo, g_hi) = (avg(&lo), avg(&hi));
        assert!(
            g_hi > g_lo,
            "a=0.99 gain {g_hi:.1}% should exceed a=0.9 gain {g_lo:.1}%"
        );
        assert!(g_hi > 0.0);
    }

    #[test]
    fn all_panels_produce_data() {
        let panels = run(5, 3, 100);
        assert_eq!(panels.len(), 6);
        for p in &panels {
            assert_eq!(p.result.labels.len(), 10);
        }
    }
}
