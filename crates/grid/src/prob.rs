//! Per-cell alert likelihoods, including the paper's synthetic sigmoid
//! generator (§7: "For each data point (i.e., cell) x, a uniformly random
//! number between zero and one is generated ... then fed into the sigmoid
//! activation function").

use crate::error::GridError;
use rand::Rng;

/// Parameters of the sigmoid `S(x) = 1 / (1 + e^{-b(x-a)})`.
///
/// `a` is the inflection point (the paper sweeps 0.90/0.95/0.99) and `b`
/// the gradient (10/20/100/200). Higher `a` and `b` yield more skewed
/// probability surfaces, which is where Huffman encoding shines (§7.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SigmoidParams {
    /// Inflection point `a`.
    pub a: f64,
    /// Gradient `b`.
    pub b: f64,
}

impl SigmoidParams {
    /// Evaluates the sigmoid.
    pub fn eval(&self, x: f64) -> f64 {
        1.0 / (1.0 + (-self.b * (x - self.a)).exp())
    }
}

/// Resolution floor for synthetic likelihoods.
///
/// Steep sigmoids produce scores as small as `e^{-a·b}` (≈ 1e-43 for
/// `a = 0.99, b = 100`) — far below what any practical likelihood model
/// resolves or calibrates. Scores below this floor are clamped to it,
/// making "cold" cells indistinguishable, consistent with the paper's
/// position that only the *relative ordering* of meaningful probabilities
/// matters (§9: "we do not require high accuracy in the actual values...
/// one can produce a relatively stable and representative ordering").
///
/// The floor also matters structurally: without it, cold cells receive
/// 100+-bit Huffman codes and every multi-cell zone cost explodes — a
/// regime the paper's reported results exclude. Equal-weight cold cells
/// instead form a balanced subtree in cell-id (row-major) order, so
/// Algorithm 3 can still aggregate spatially contiguous cold regions.
/// EXPERIMENTS.md reports the sensitivity of the results to this value.
pub const MIN_LIKELIHOOD: f64 = 1e-3;

/// Alert likelihoods for every cell of a grid.
///
/// Raw likelihood scores are kept as-is (the encoders only need relative
/// order and magnitude); [`ProbabilityMap::normalized`] yields the
/// probability-vector view used by analytics ("Normalizing the cell
/// probability values over the domain space reveals how likely a cell is
/// to be alerted compared to others", §2.3).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbabilityMap {
    probs: Vec<f64>,
}

impl ProbabilityMap {
    /// Wraps raw likelihood scores.
    ///
    /// # Panics
    /// Panics if empty, or if any value is negative/non-finite, or all are
    /// zero; use [`Self::try_new`] for a fallible version.
    pub fn new(probs: Vec<f64>) -> Self {
        match Self::try_new(probs) {
            Ok(pm) => pm,
            // Preserve the pre-redesign panic messages the unit tests pin.
            Err(GridError::InvalidLikelihood { cell, value }) => {
                panic!("invalid likelihood {value} at cell {cell}")
            }
            Err(GridError::AllZeroLikelihoods) => panic!("all-zero likelihoods"),
            Err(_) => panic!("at least one cell required"),
        }
    }

    /// Fallible [`Self::new`]: rejects empty inputs, negative/non-finite
    /// scores, and all-zero surfaces with the matching [`GridError`].
    pub fn try_new(probs: Vec<f64>) -> Result<Self, GridError> {
        if probs.is_empty() {
            return Err(GridError::EmptyProbabilityMap);
        }
        for (cell, &value) in probs.iter().enumerate() {
            if !(value.is_finite() && value >= 0.0) {
                return Err(GridError::InvalidLikelihood { cell, value });
            }
        }
        if !probs.iter().any(|&p| p > 0.0) {
            return Err(GridError::AllZeroLikelihoods);
        }
        Ok(ProbabilityMap { probs })
    }

    /// Uniform likelihoods (the implicit assumption of the basic scheme
    /// \[14\]).
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0);
        ProbabilityMap {
            probs: vec![1.0 / n as f64; n],
        }
    }

    /// The paper's synthetic generator: per-cell `x ~ U(0,1)` through the
    /// sigmoid (§7, footnote 1), clamped at [`MIN_LIKELIHOOD`].
    /// Deterministic for a seeded `rng`.
    pub fn sigmoid_synthetic<R: Rng>(n: usize, params: SigmoidParams, rng: &mut R) -> Self {
        assert!(n > 0);
        let probs = (0..n)
            .map(|_| params.eval(rng.gen::<f64>()).max(MIN_LIKELIHOOD))
            .collect();
        ProbabilityMap::new(probs)
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// `true` iff empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Raw likelihood of a cell.
    pub fn get(&self, cell: usize) -> f64 {
        self.probs[cell]
    }

    /// Raw likelihood slice.
    pub fn raw(&self) -> &[f64] {
        &self.probs
    }

    /// Normalized probability vector (sums to 1).
    pub fn normalized(&self) -> Vec<f64> {
        let total: f64 = self.probs.iter().sum();
        self.probs.iter().map(|p| p / total).collect()
    }

    /// Expected number of alerted cells `λ = Σ p(v_i)` under the Thm 1
    /// Poisson model (the paper normalizes so λ = 1).
    pub fn poisson_rate(&self) -> f64 {
        self.probs.iter().sum()
    }

    /// Gini-style skewness in [0, 1): 0 = uniform. Used by the experiment
    /// harness to report how skewed a generated surface is.
    pub fn skewness(&self) -> f64 {
        let n = self.probs.len() as f64;
        let mut sorted = self.probs.clone();
        sorted.sort_by(f64::total_cmp);
        let total: f64 = sorted.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        let weighted: f64 = sorted
            .iter()
            .enumerate()
            .map(|(i, &p)| (i as f64 + 1.0) * p)
            .sum();
        (2.0 * weighted) / (n * total) - (n + 1.0) / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sigmoid_shape() {
        let s = SigmoidParams { a: 0.95, b: 20.0 };
        assert!((s.eval(0.95) - 0.5).abs() < 1e-12);
        assert!(s.eval(1.0) > 0.5);
        assert!(s.eval(0.0) < 1e-7);
        // steeper gradient -> sharper transition
        let steep = SigmoidParams { a: 0.95, b: 200.0 };
        assert!(steep.eval(0.9) < s.eval(0.9));
        assert!(steep.eval(0.99) > s.eval(0.99));
    }

    #[test]
    fn synthetic_generation_is_seeded_deterministic() {
        let params = SigmoidParams { a: 0.9, b: 100.0 };
        let a = ProbabilityMap::sigmoid_synthetic(256, params, &mut StdRng::seed_from_u64(7));
        let b = ProbabilityMap::sigmoid_synthetic(256, params, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = ProbabilityMap::sigmoid_synthetic(256, params, &mut StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }

    #[test]
    fn normalization_sums_to_one() {
        let pm = ProbabilityMap::new(vec![0.1, 0.2, 0.7, 0.4]);
        let norm = pm.normalized();
        assert!((norm.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((pm.poisson_rate() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn uniform_map_has_zero_skewness() {
        let pm = ProbabilityMap::uniform(64);
        assert!(pm.skewness().abs() < 1e-9);
        assert!((pm.poisson_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn higher_inflection_is_more_skewed() {
        let mut rng = StdRng::seed_from_u64(42);
        let lo =
            ProbabilityMap::sigmoid_synthetic(1024, SigmoidParams { a: 0.5, b: 20.0 }, &mut rng);
        let mut rng = StdRng::seed_from_u64(42);
        let hi =
            ProbabilityMap::sigmoid_synthetic(1024, SigmoidParams { a: 0.99, b: 20.0 }, &mut rng);
        assert!(
            hi.skewness() > lo.skewness(),
            "a=0.99 skew {} should exceed a=0.5 skew {}",
            hi.skewness(),
            lo.skewness()
        );
    }

    #[test]
    #[should_panic(expected = "invalid likelihood")]
    fn rejects_negative() {
        ProbabilityMap::new(vec![0.5, -0.1]);
    }

    #[test]
    fn try_new_returns_typed_errors() {
        assert_eq!(
            ProbabilityMap::try_new(Vec::new()).unwrap_err(),
            GridError::EmptyProbabilityMap
        );
        assert!(matches!(
            ProbabilityMap::try_new(vec![0.5, -0.1]),
            Err(GridError::InvalidLikelihood { cell: 1, .. })
        ));
        assert_eq!(
            ProbabilityMap::try_new(vec![0.0, 0.0]).unwrap_err(),
            GridError::AllZeroLikelihoods
        );
        assert!(ProbabilityMap::try_new(vec![0.2, 0.8]).is_ok());
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn rejects_all_zero() {
        ProbabilityMap::new(vec![0.0, 0.0]);
    }
}
