//! A pattern-keyed token cache.
//!
//! When an alert zone moves between epochs, most of its minimized token
//! patterns survive unchanged. A [`TokenCache`] keyed on the minimized
//! [`SearchPattern`] generates only the missing patterns (through a
//! caller-supplied generator, in one call) and reuses every token whose
//! pattern is unchanged. Match outcomes and pairing costs depend only on
//! a token's pattern, so a reused token notifies exactly what a fresh one
//! would.
//!
//! No alert path uses the cache. A reused token lets the Service
//! Provider link two alerts that share a pattern, which the paper's
//! protocol rules out, and reuse did not pay for itself in alert time
//! (README, *Fresh tokens per alert*). The cache remains only because the
//! repo benchmark's per-layer ledger still times
//! `TrustedAuthority::issue_tokens_cached` over it, and goes with the
//! next change to that benchmark.

use std::collections::HashMap;

use crate::keys::Token;
use crate::vector::SearchPattern;

/// Counters describing one incremental regeneration pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegenStats {
    /// Patterns that had no cached token and were freshly generated.
    pub generated: usize,
    /// Patterns served from the cache without any group operations.
    pub reused: usize,
    /// Cached tokens dropped because their pattern left the active set.
    pub evicted: usize,
}

/// A pattern-keyed cache of issued tokens, reused across epochs.
///
/// The cache holds exactly the tokens of the most recent active pattern
/// set: [`TokenCache::regen_with`] evicts every entry whose pattern is
/// absent from the new set, so memory is bounded by the largest single
/// epoch's token count.
#[derive(Debug, Default)]
pub struct TokenCache {
    tokens: HashMap<SearchPattern, Token>,
}

impl TokenCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached tokens (the previous epoch's pattern count).
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when no tokens are cached.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Drops every cached token, forcing the next pass to regenerate all.
    pub fn clear(&mut self) {
        self.tokens.clear();
    }

    /// Core delta step: returns one token per entry of `patterns` (in
    /// order), generating only the patterns missing from the cache via
    /// `gen_missing` (called once, with the missing patterns in first-use
    /// order), then evicts every cached pattern absent from `patterns`.
    ///
    /// # Panics
    /// Panics if `gen_missing` returns a different number of tokens than
    /// the patterns it was given.
    pub fn regen_with<F>(
        &mut self,
        patterns: &[SearchPattern],
        gen_missing: F,
    ) -> (Vec<Token>, RegenStats)
    where
        F: FnOnce(&[&SearchPattern]) -> Vec<Token>,
    {
        let mut missing: Vec<&SearchPattern> = Vec::new();
        let mut reused = 0usize;
        for pat in patterns {
            if self.tokens.contains_key(pat) {
                reused += 1;
            } else if !missing.contains(&pat) {
                missing.push(pat);
            }
        }
        let generated = missing.len();
        if generated > 0 {
            let fresh = gen_missing(&missing);
            assert_eq!(
                fresh.len(),
                generated,
                "gen_missing must return one token per missing pattern"
            );
            for (pat, tok) in missing.iter().zip(fresh) {
                self.tokens.insert((*pat).clone(), tok);
            }
        }
        let before = self.tokens.len();
        self.tokens.retain(|pat, _| patterns.contains(pat));
        let evicted = before - self.tokens.len();
        let out = patterns
            .iter()
            .map(|pat| self.tokens[pat].clone())
            .collect();
        (
            out,
            RegenStats {
                generated,
                reused,
                evicted,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HveScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sla_pairing::SimulatedGroup;

    fn pat(s: &str) -> SearchPattern {
        s.parse().unwrap()
    }

    #[test]
    fn regen_reuses_and_evicts() {
        let mut rng = StdRng::seed_from_u64(11);
        let group = SimulatedGroup::generate(40, &mut rng);
        let scheme = HveScheme::new(&group, 4);
        let (_pk, sk) = scheme.setup(&mut rng);
        let psk = scheme.prepare_secret_key(&sk);
        let mut cache = TokenCache::new();

        let epoch1 = vec![pat("1*1*"), pat("01**")];
        let (toks1, s1) = cache.regen_with(&epoch1, |missing| {
            scheme.gen_token_prepared_batch(&psk, missing, &mut rng)
        });
        assert_eq!(toks1.len(), 2);
        assert_eq!(
            s1,
            RegenStats {
                generated: 2,
                reused: 0,
                evicted: 0
            }
        );

        // Second epoch keeps one pattern, drops one, adds one.
        let epoch2 = vec![pat("01**"), pat("111*")];
        let (toks2, s2) = cache.regen_with(&epoch2, |missing| {
            scheme.gen_token_prepared_batch(&psk, missing, &mut rng)
        });
        assert_eq!(toks2.len(), 2);
        assert_eq!(
            s2,
            RegenStats {
                generated: 1,
                reused: 1,
                evicted: 1
            }
        );
        // The surviving pattern's token is reused byte-identically.
        assert_eq!(toks2[0], toks1[1]);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn empty_pattern_set_evicts_everything() {
        let mut rng = StdRng::seed_from_u64(12);
        let group = SimulatedGroup::generate(40, &mut rng);
        let scheme = HveScheme::new(&group, 4);
        let (_pk, sk) = scheme.setup(&mut rng);
        let mut cache = TokenCache::new();

        let mut gen = |missing: &[&SearchPattern]| -> Vec<Token> {
            missing
                .iter()
                .map(|p| scheme.gen_token(&sk, p, &mut rng))
                .collect()
        };
        let (_, s1) = cache.regen_with(&[pat("1***")], &mut gen);
        assert_eq!(s1.generated, 1);
        let (toks, s2) = cache.regen_with(&[], &mut gen);
        assert!(toks.is_empty());
        assert_eq!(
            s2,
            RegenStats {
                generated: 0,
                reused: 0,
                evicted: 1
            }
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn cached_token_matches_like_fresh() {
        let mut rng = StdRng::seed_from_u64(13);
        let group = SimulatedGroup::generate(40, &mut rng);
        let scheme = HveScheme::new(&group, 4);
        let (pk, sk) = scheme.setup(&mut rng);
        let psk = scheme.prepare_secret_key(&sk);
        let msg = scheme.encode_message(9);
        let index = crate::AttributeVector::from_bits(&[true, false, true, true]);
        let ct = scheme.encrypt(&pk, &index, &msg, &mut rng);

        let mut cache = TokenCache::new();
        let p = pat("1*1*");
        let mut gen = |missing: &[&SearchPattern]| -> Vec<Token> {
            scheme.gen_token_prepared_batch(&psk, missing, &mut rng)
        };
        let (t1, _) = cache.regen_with(std::slice::from_ref(&p), &mut gen);
        // Re-serve the same pattern from cache; matching must agree.
        let (t2, s2) = cache.regen_with(std::slice::from_ref(&p), &mut gen);
        assert_eq!(s2.reused, 1);
        assert_eq!(t1[0], t2[0]);
        assert_eq!(scheme.query_decode(&t2[0], &ct), Some(9));
    }
}
