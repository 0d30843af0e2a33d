//! # sla-bigint
//!
//! Arbitrary-precision **unsigned** integer arithmetic built from scratch for
//! the secure location-alert stack. The composite-order bilinear group used
//! by Hidden Vector Encryption (Boneh–Waters 2007) works modulo `N = P · Q`
//! where `P`, `Q` are large primes; this crate supplies everything that
//! substrate needs:
//!
//! * [`BigUint`] — little-endian 64-bit limb representation with full
//!   comparison, arithmetic (`+`, `-`, `*`, `/`, `%`, shifts) and radix
//!   conversion (hex / decimal).
//! * Modular arithmetic — [`BigUint::mod_add`], [`BigUint::mod_sub`],
//!   [`BigUint::mod_mul`], [`BigUint::mod_pow`], [`BigUint::mod_inverse`],
//!   [`BigUint::gcd`].
//! * Division-free reduction — [`MontgomeryCtx`] (odd moduli, CIOS passes
//!   in the `x·R mod N` domain) and [`BarrettCtx`] (any modulus, reduction
//!   by a precomputed `µ = ⌊b^{2k}/N⌋`), unified behind the **total**
//!   [`Reducer`] dispatch that [`BigUint::mod_pow`] always goes through —
//!   no modulus falls back to per-step division.
//! * Fixed-base exponentiation — [`FixedBaseTable`] precomputes radix-2^w
//!   power tables for one base so repeated `base^e mod N` costs only
//!   `⌈bits/w⌉` domain products, no squarings.
//! * Primality — Miller–Rabin testing ([`is_probable_prime`]) and random
//!   prime generation ([`gen_prime`]).
//! * Random sampling — [`random_below`], [`random_bits`].
//!
//! Every single Montgomery product runs one scalar CIOS pass. Batches of
//! independent products ([`MontgomeryCtx::mont_mul_batch`], reached from
//! [`Reducer::residue_mul_batch`]) advance eight, then four, products in
//! lockstep through interleaved u128 carry chains — the same arithmetic
//! per lane, so the results are byte-identical to the scalar loop.
//!
//! The crate is `#![forbid(unsafe_code)]` and deterministic given a
//! seeded RNG, which the experiment harness relies on for
//! reproducibility.
//!
//! ## Example
//!
//! ```
//! use sla_bigint::BigUint;
//!
//! let a = BigUint::from_u64(1 << 40);
//! let b = BigUint::from_decimal_str("123456789012345678901234567890").unwrap();
//! let n = BigUint::from_u64(97);
//! assert_eq!((&a * &b) % &n, (&b % &n * &(a % &n)) % &n);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod barrett;
mod biguint;
mod div;
mod fixed_base;
mod modular;
mod montgomery;
mod pow;
mod prime;
mod random;
mod reducer;

pub use barrett::BarrettCtx;
pub use biguint::{BigUint, ParseBigUintError};
pub use fixed_base::FixedBaseTable;
pub use montgomery::MontgomeryCtx;
pub use prime::{gen_prime, is_probable_prime, MillerRabinConfig};
pub use random::{random_below, random_bits, random_nonzero_below};
pub use reducer::Reducer;
