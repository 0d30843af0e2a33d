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
//! * Division-free reduction — [`MontgomeryCtx`]: CIOS passes in the
//!   `x·R mod N` domain for the odd moduli the protocol uses, and the
//!   windowed ladder [`BigUint::mod_pow`] takes for every odd modulus.
//!   Even moduli have no Montgomery form; `mod_pow` takes the division
//!   ladder [`BigUint::mod_pow_naive`] for them.
//! * Primality — Miller–Rabin testing ([`is_probable_prime`]) and random
//!   prime generation ([`gen_prime`]).
//! * Random sampling — [`random_bits`], and the rejection sampler
//!   [`random_below_limbs`]/[`random_nonzero_below_limbs`], which draws
//!   into caller-owned limbs; [`random_below`] and
//!   [`random_nonzero_below`] return its draw as a [`BigUint`].
//!
//! Every Montgomery product runs one scalar CIOS pass. Besides the
//! `BigUint` API, [`MontgomeryCtx`] exposes the pass on caller-owned limb
//! buffers ([`MontgomeryCtx::mont_mul_limbs`], with
//! [`MontgomeryCtx::add_mod_limbs`] and [`MontgomeryCtx::sub_mod_limbs`]),
//! so a hot loop over fixed-width arrays can chain products and sums
//! without allocating.
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
mod biguint;
mod div;
mod modular;
mod montgomery;
mod prime;
mod random;

pub use biguint::{BigUint, ParseBigUintError};
pub use montgomery::MontgomeryCtx;
pub use prime::{gen_prime, is_probable_prime, MillerRabinConfig};
pub use random::{
    random_below, random_below_limbs, random_bits, random_nonzero_below, random_nonzero_below_limbs,
};
