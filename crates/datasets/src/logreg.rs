//! From-scratch logistic regression and the crime-risk model of §7.1.
//!
//! The paper: "a logistic regression model is trained with the crime data
//! from January to November 2015, and tested on the December data. The
//! accuracy of the model is 92.9% and the generated likelihood scores ...
//! are used as input to our techniques."
//!
//! [`CrimeRiskModel`] reproduces that protocol on the synthetic dataset:
//! for each month `m`, the features of a cell are built from the incident
//! history before `m` and the label is "does the cell see any incident in
//! month `m`?". Months 2–11 train, December tests, and the fitted model's
//! December probabilities become the per-cell alert likelihoods.

use crate::crime::{CrimeCategory, CrimeDataset};
use sla_grid::{Grid, ProbabilityMap};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Gradient-descent step size.
    pub learning_rate: f64,
    /// Full-batch epochs.
    pub epochs: usize,
    /// L2 regularization strength.
    pub l2: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 0.1,
            epochs: 400,
            l2: 1e-4,
        }
    }
}

/// Plain binary logistic regression with feature standardization.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
    feature_means: Vec<f64>,
    feature_stds: Vec<f64>,
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl LogisticRegression {
    /// Fits on rows `x` (each of equal length) with labels `y`.
    ///
    /// # Panics
    /// Panics on empty/ragged input or label/row count mismatch.
    pub fn fit(x: &[Vec<f64>], y: &[bool], config: TrainConfig) -> Self {
        assert!(!x.is_empty(), "no training rows");
        assert_eq!(x.len(), y.len(), "row/label mismatch");
        let dims = x[0].len();
        assert!(x.iter().all(|r| r.len() == dims), "ragged feature rows");

        // Standardize features for stable gradients.
        let n = x.len() as f64;
        let mut means = vec![0.0; dims];
        for row in x {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v / n;
            }
        }
        let mut stds = vec![0.0; dims];
        for row in x {
            for ((s, v), m) in stds.iter_mut().zip(row).zip(&means) {
                *s += (v - m) * (v - m) / n;
            }
        }
        for s in &mut stds {
            *s = s.sqrt().max(1e-9);
        }

        let standardized: Vec<Vec<f64>> = x
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&means)
                    .zip(&stds)
                    .map(|((v, m), s)| (v - m) / s)
                    .collect()
            })
            .collect();

        let mut weights = vec![0.0; dims];
        let mut bias = 0.0;
        for _ in 0..config.epochs {
            let mut grad_w = vec![0.0; dims];
            let mut grad_b = 0.0;
            for (row, &label) in standardized.iter().zip(y) {
                let z = bias + row.iter().zip(&weights).map(|(v, w)| v * w).sum::<f64>();
                let err = sigmoid(z) - label as u8 as f64;
                for (g, v) in grad_w.iter_mut().zip(row) {
                    *g += err * v / n;
                }
                grad_b += err / n;
            }
            for (w, g) in weights.iter_mut().zip(&grad_w) {
                *w -= config.learning_rate * (g + config.l2 * *w);
            }
            bias -= config.learning_rate * grad_b;
        }

        LogisticRegression {
            weights,
            bias,
            feature_means: means,
            feature_stds: stds,
        }
    }

    /// Predicted probability for a raw (unstandardized) feature row.
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.weights.len(), "feature width mismatch");
        let z = self.bias
            + row
                .iter()
                .zip(&self.feature_means)
                .zip(&self.feature_stds)
                .zip(&self.weights)
                .map(|(((v, m), s), w)| (v - m) / s * w)
                .sum::<f64>();
        sigmoid(z)
    }

    /// Hard classification at threshold 0.5.
    pub fn predict(&self, row: &[f64]) -> bool {
        self.predict_proba(row) >= 0.5
    }

    /// Accuracy over a labeled set.
    pub fn accuracy(&self, x: &[Vec<f64>], y: &[bool]) -> f64 {
        assert_eq!(x.len(), y.len());
        let correct = x
            .iter()
            .zip(y)
            .filter(|(row, &label)| self.predict(row) == label)
            .count();
        correct as f64 / x.len() as f64
    }
}

/// The §7.1 pipeline: features per (cell, month), trained Jan–Nov, tested
/// on December; December probabilities become the alert-likelihood map.
#[derive(Debug, Clone)]
pub struct CrimeRiskModel {
    model: LogisticRegression,
    test_accuracy: f64,
    december_probs: Vec<f64>,
}

impl CrimeRiskModel {
    /// Trains on the dataset over `grid`.
    pub fn train(dataset: &CrimeDataset, grid: &Grid, config: TrainConfig) -> Self {
        // Pre-compute per-category monthly cell counts.
        let monthly: Vec<[Vec<u32>; 4]> = (1..=12u8)
            .map(|m| {
                [
                    dataset.cell_counts(grid, CrimeCategory::Homicide, m..=m),
                    dataset.cell_counts(grid, CrimeCategory::SexualAssault, m..=m),
                    dataset.cell_counts(grid, CrimeCategory::SexOffense, m..=m),
                    dataset.cell_counts(grid, CrimeCategory::Kidnapping, m..=m),
                ]
            })
            .collect();

        let n_cells = grid.n_cells();
        let history_counts = |cat: usize, cell: usize, upto_excl: u8| -> f64 {
            (0..upto_excl as usize - 1)
                .map(|m| monthly[m][cat][cell] as f64)
                .sum()
        };

        let features = |cell: usize, month: u8| -> Vec<f64> {
            let (row, col) = grid.row_col(sla_grid::CellId(cell));
            let mut f = Vec::with_capacity(8);
            // Per-category incident history before `month`, rate-normalized.
            let span = (month - 1) as f64;
            for cat in 0..4 {
                f.push(history_counts(cat, cell, month) / span);
            }
            // Neighborhood total history (spatial smoothing).
            let neigh: f64 = grid
                .neighbors(sla_grid::CellId(cell))
                .iter()
                .map(|n| (0..4).map(|c| history_counts(c, n.0, month)).sum::<f64>())
                .sum::<f64>()
                / span;
            f.push(neigh);
            // Position (captures downtown-vs-periphery gradients).
            f.push(row as f64 / grid.rows() as f64);
            f.push(col as f64 / grid.cols() as f64);
            f
        };

        let label = |cell: usize, month: u8| -> bool {
            (0..4).any(|cat| monthly[month as usize - 1][cat][cell] > 0)
        };

        // Train: months 2..=11 (history exists and December is held out).
        let mut train_x = Vec::with_capacity(n_cells * 10);
        let mut train_y = Vec::with_capacity(n_cells * 10);
        for month in 2..=11u8 {
            for cell in 0..n_cells {
                train_x.push(features(cell, month));
                train_y.push(label(cell, month));
            }
        }
        let model = LogisticRegression::fit(&train_x, &train_y, config);

        // Test on December.
        let test_x: Vec<Vec<f64>> = (0..n_cells).map(|c| features(c, 12)).collect();
        let test_y: Vec<bool> = (0..n_cells).map(|c| label(c, 12)).collect();
        let test_accuracy = model.accuracy(&test_x, &test_y);
        let december_probs: Vec<f64> = test_x.iter().map(|r| model.predict_proba(r)).collect();

        CrimeRiskModel {
            model,
            test_accuracy,
            december_probs,
        }
    }

    /// The fitted regression.
    pub fn model(&self) -> &LogisticRegression {
        &self.model
    }

    /// Held-out December accuracy (the paper reports 92.9 %).
    pub fn test_accuracy(&self) -> f64 {
        self.test_accuracy
    }

    /// The per-cell December alert likelihoods — input to the encoders.
    pub fn likelihood_map(&self) -> ProbabilityMap {
        ProbabilityMap::new(self.december_probs.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crime::CrimeGeneratorConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn separable_toy_problem() {
        // y = x0 > 0.5, cleanly separable.
        let x: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![i as f64 / 200.0, (i % 7) as f64])
            .collect();
        let y: Vec<bool> = x.iter().map(|r| r[0] > 0.5).collect();
        let model = LogisticRegression::fit(&x, &y, TrainConfig::default());
        assert!(model.accuracy(&x, &y) > 0.95);
    }

    #[test]
    fn probabilities_are_monotone_in_signal() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<bool> = (0..100).map(|i| i >= 50).collect();
        let model = LogisticRegression::fit(&x, &y, TrainConfig::default());
        assert!(model.predict_proba(&[90.0]) > model.predict_proba(&[10.0]));
        assert!(model.predict_proba(&[99.0]) > 0.5);
        assert!(model.predict_proba(&[1.0]) < 0.5);
    }

    #[test]
    fn crime_risk_model_end_to_end() {
        let ds = CrimeDataset::generate(
            &CrimeGeneratorConfig::default(),
            &mut StdRng::seed_from_u64(2015),
        );
        let grid = Grid::chicago_downtown_32();
        let risk = CrimeRiskModel::train(&ds, &grid, TrainConfig::default());

        // Accuracy should be in the ballpark the paper reports (92.9 %);
        // we accept a generous band since the data are synthetic.
        let acc = risk.test_accuracy();
        assert!(acc > 0.80, "accuracy {acc} too low");

        // Likelihood surface: valid probabilities, meaningfully skewed.
        let pm = risk.likelihood_map();
        assert_eq!(pm.len(), grid.n_cells());
        assert!(pm.raw().iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert!(pm.skewness() > 0.05, "surface should be skewed");

        // Hot cells (more history) should get higher predicted risk than
        // empty periphery on average.
        let totals = ds.cell_counts_total(&grid, 1..=11);
        let hot_avg: f64 = {
            let hot: Vec<usize> = (0..grid.n_cells()).filter(|&c| totals[c] >= 10).collect();
            hot.iter().map(|&c| pm.get(c)).sum::<f64>() / hot.len().max(1) as f64
        };
        let cold_avg: f64 = {
            let cold: Vec<usize> = (0..grid.n_cells()).filter(|&c| totals[c] == 0).collect();
            cold.iter().map(|&c| pm.get(c)).sum::<f64>() / cold.len().max(1) as f64
        };
        assert!(
            hot_avg > cold_avg,
            "hot {hot_avg:.3} should exceed cold {cold_avg:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let x = vec![vec![1.0], vec![1.0, 2.0]];
        let y = vec![true, false];
        LogisticRegression::fit(&x, &y, TrainConfig::default());
    }
}
