//! Group parameter generation: the composite modulus `N = P · Q`.

use rand::Rng;
use serde::{Deserialize, Serialize};
use sla_bigint::{gen_prime, BigUint};

/// Public parameters of a composite-order bilinear group.
///
/// `P` and `Q` are equal-bit-length primes and `N = P · Q` is the group
/// order, mirroring the setup of Boneh–Waters (TCC 2007) referenced by the
/// paper (§2.1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupParams {
    /// Prime factor `P` (the "payload" subgroup order in HVE).
    pub p: BigUint,
    /// Prime factor `Q` (the "blinding" subgroup order in HVE).
    pub q: BigUint,
    /// Composite group order `N = P · Q`.
    pub n: BigUint,
}

impl GroupParams {
    /// Generates fresh parameters with `bits`-bit prime factors.
    ///
    /// 64–128 bits per prime is plenty for simulation and testing; a
    /// deployment-grade configuration would use ≥ 512-bit factors (the
    /// paper's §6 discusses 128-bit security via modern curves).
    ///
    /// # Panics
    /// Panics if `bits < 8`.
    pub fn generate<R: Rng>(bits: usize, rng: &mut R) -> Self {
        assert!(bits >= 8, "prime factors below 8 bits are degenerate");
        let p = gen_prime(bits, rng);
        let q = loop {
            let q = gen_prime(bits, rng);
            if q != p {
                break q;
            }
        };
        let n = &p * &q;
        GroupParams { p, q, n }
    }

    /// Constructs parameters from known factors (used in tests).
    ///
    /// # Panics
    /// Panics if `p == q`, or if either factor is even or below 3: the
    /// group's arithmetic is Montgomery's, which needs an odd order.
    pub fn from_factors(p: BigUint, q: BigUint) -> Self {
        assert!(p != q, "P and Q must be distinct");
        for f in [&p, &q] {
            assert!(f.is_odd() && !f.is_one(), "P and Q must be odd and above 1");
        }
        let n = &p * &q;
        GroupParams { p, q, n }
    }

    /// Bit length of the composite order `N`.
    pub fn order_bits(&self) -> usize {
        self.n.bit_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generate_produces_distinct_primes() {
        let mut rng = StdRng::seed_from_u64(42);
        let params = GroupParams::generate(48, &mut rng);
        assert_ne!(params.p, params.q);
        assert_eq!(params.n, &params.p * &params.q);
        assert_eq!(params.p.bit_len(), 48);
        assert_eq!(params.q.bit_len(), 48);
        assert_eq!(params.order_bits(), 96);
    }

    #[test]
    fn from_factors_checks_distinctness() {
        let p = BigUint::from_u64(1_000_000_007);
        let q = BigUint::from_u64(998_244_353);
        let params = GroupParams::from_factors(p.clone(), q.clone());
        assert_eq!(params.n, &p * &q);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn equal_factors_rejected() {
        let p = BigUint::from_u64(101);
        GroupParams::from_factors(p.clone(), p);
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn even_factor_rejected() {
        GroupParams::from_factors(BigUint::from_u64(2), BigUint::from_u64(1_000_003));
    }

    #[test]
    fn serde_roundtrip() {
        let mut rng = StdRng::seed_from_u64(43);
        let params = GroupParams::generate(32, &mut rng);
        let json = serde_json::to_string(&params).unwrap();
        let back: GroupParams = serde_json::from_str(&json).unwrap();
        assert_eq!(params, back);
    }
}
