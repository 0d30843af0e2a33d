//! Prepared key material: each key's bases readied once for the
//! engine's flat Encrypt and GenToken loops.
//!
//! Every Encrypt exponentiates the *same* public-key bases (`A`, `V`,
//! `U_i·H_i` or `H_i`, `W_i`, and the blinding generator of `G_q`) and
//! every GenToken the same secret-key bases (`g^a`, `v`, `u_i·h_i` or
//! `h_i`, `w_i`); only the exponents change. Wrapping a key once with
//! [`HveScheme::prepare_public_key`](crate::HveScheme::prepare_public_key) /
//! [`HveScheme::prepare_secret_key`](crate::HveScheme::prepare_secret_key)
//! has the engine ready those bases as flat limbs
//! ([`BilinearGroup::prepare_encrypt_bases`],
//! [`BilinearGroup::prepare_token_bases`]). Then
//! [`HveScheme::encrypt_for_user`](crate::HveScheme::encrypt_for_user)
//! writes the row a Service Provider stores, and
//! [`HveScheme::gen_query`](crate::HveScheme::gen_query) writes the keys
//! its sweep reads, without building a group element.
//!
//! The flat loops draw randomness in the reference's order, record the
//! reference's operation counts (the `u_i·h_i` combination is still one
//! counted multiplication per set bit), and write exactly the bytes the
//! reference's elements pack or prepare to.
//!
//! [`BilinearGroup::prepare_encrypt_bases`]: sla_pairing::BilinearGroup::prepare_encrypt_bases
//! [`BilinearGroup::prepare_token_bases`]: sla_pairing::BilinearGroup::prepare_token_bases

use crate::keys::{PublicKey, SecretKey};
use sla_pairing::ReadyBases;

/// A [`PublicKey`] plus its bases readied for the flat Encrypt.
#[derive(Debug, Clone)]
pub struct PreparedPublicKey {
    pub(crate) pk: PublicKey,
    pub(crate) ready: ReadyBases,
}

impl PreparedPublicKey {
    /// The underlying public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.pk
    }

    /// HVE width `l`.
    pub fn width(&self) -> usize {
        self.pk.width()
    }
}

/// A [`SecretKey`] plus its bases readied for the flat GenToken.
#[derive(Debug, Clone)]
pub struct PreparedSecretKey {
    pub(crate) sk: SecretKey,
    pub(crate) ready: ReadyBases,
}

impl PreparedSecretKey {
    /// HVE width `l`.
    pub fn width(&self) -> usize {
        self.sk.width()
    }
}
