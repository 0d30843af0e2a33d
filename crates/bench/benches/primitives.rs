//! Primitive benchmarks: HVE phases and core encoding operations. These
//! time the building blocks the figures are made of (the paper's cost
//! driver is `query`, whose pairing count scales with non-star bits).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_bigint::{gen_prime, BigUint, MontgomeryCtx};
use sla_encoding::{CellCodebook, EncoderKind};
use sla_hve::{AttributeVector, HveScheme, SearchPattern};
use sla_pairing::{BilinearGroup, SimulatedGroup};

/// Montgomery fast path vs the seed's division-based arithmetic, at the
/// modulus sizes the group engine actually uses (48/64-bit primes give
/// 96/128-bit composite orders). The acceptance bar for the Montgomery
/// work is >= 2x on 96-bit `mod_pow`.
fn bench_modular(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(42);
    let mut g = c.benchmark_group("modular");
    for prime_bits in [32usize, 48, 64] {
        let p = gen_prime(prime_bits, &mut rng);
        let q = gen_prime(prime_bits, &mut rng);
        let n = &p * &q;
        let bits = n.bit_len();
        let ctx = MontgomeryCtx::new(&n).expect("odd modulus");
        let a = &n - &BigUint::from_u64(12345);
        let b = &n - &BigUint::from_u64(6789);
        let e = &n - &BigUint::from_u64(2);

        g.bench_with_input(BenchmarkId::new("mod_mul_naive", bits), &bits, |bch, _| {
            bch.iter(|| a.mod_mul(&b, &n));
        });
        g.bench_with_input(BenchmarkId::new("mod_mul_mont", bits), &bits, |bch, _| {
            bch.iter(|| ctx.mod_mul(&a, &b));
        });
        g.bench_with_input(BenchmarkId::new("mod_pow_naive", bits), &bits, |bch, _| {
            bch.iter(|| a.mod_pow_naive(&e, &n));
        });
        g.bench_with_input(BenchmarkId::new("mod_pow_mont", bits), &bits, |bch, _| {
            bch.iter(|| a.mod_pow(&e, &n));
        });
    }
    g.finish();
}

/// The engine's fixed-base precomputation vs its generic path — the
/// repeated-base regime of Setup/Encrypt/GenToken, where one base is
/// exponentiated with many fresh exponents: `pow_g` on a cached generator
/// (one CIOS pass) vs on an arbitrary element (two).
fn bench_fixed_base(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(43);
    let mut g = c.benchmark_group("fixed_base_vs_generic");
    for prime_bits in [32usize, 48, 64] {
        let p = gen_prime(prime_bits, &mut rng);
        let q = gen_prime(prime_bits, &mut rng);
        let n = &p * &q;
        let bits = n.bit_len();
        let e = &n - &BigUint::from_u64(2);
        let group = SimulatedGroup::new(sla_pairing::GroupParams::from_factors(p, q));
        let arb = group.random_gp(&mut rng);
        let gen = group.gp_generator();
        g.bench_with_input(BenchmarkId::new("pow_g_generic", bits), &bits, |bch, _| {
            bch.iter(|| group.pow_g(&arb, &e));
        });
        g.bench_with_input(
            BenchmarkId::new("pow_g_generator", bits),
            &bits,
            |bch, _| {
                bch.iter(|| group.pow_g(&gen, &e));
            },
        );
    }
    g.finish();
}

fn bench_hve_phases(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let group = SimulatedGroup::generate(64, &mut rng);

    let mut g = c.benchmark_group("hve");
    for width in [8usize, 16, 32] {
        let scheme = HveScheme::new(&group, width);
        let (pk, sk) = scheme.setup(&mut rng);
        let bits: Vec<bool> = (0..width).map(|i| i % 3 == 0).collect();
        let index = AttributeVector::from_bits(&bits);
        let msg = scheme.encode_message(7);
        let ct = scheme.encrypt(&pk, &index, &msg, &mut rng);
        // half the positions non-star
        let symbols: Vec<Option<bool>> = bits
            .iter()
            .enumerate()
            .map(|(i, &b)| if i % 2 == 0 { Some(b) } else { None })
            .collect();
        let token = scheme.gen_token(&sk, &SearchPattern::from_symbols(&symbols), &mut rng);

        let ppk = scheme.prepare_public_key(&pk);
        let psk = scheme.prepare_secret_key(&sk);
        g.bench_with_input(BenchmarkId::new("encrypt", width), &width, |bch, _| {
            let mut r = StdRng::seed_from_u64(2);
            bch.iter(|| scheme.encrypt(&pk, &index, &msg, &mut r));
        });
        g.bench_with_input(
            BenchmarkId::new("encrypt_prepared", width),
            &width,
            |bch, _| {
                let mut r = StdRng::seed_from_u64(2);
                bch.iter(|| scheme.encrypt_prepared(&ppk, &index, &msg, &mut r));
            },
        );
        g.bench_with_input(BenchmarkId::new("gen_token", width), &width, |bch, _| {
            let mut r = StdRng::seed_from_u64(3);
            bch.iter(|| scheme.gen_token(&sk, &SearchPattern::from_symbols(&symbols), &mut r));
        });
        g.bench_with_input(
            BenchmarkId::new("gen_token_prepared", width),
            &width,
            |bch, _| {
                let mut r = StdRng::seed_from_u64(3);
                bch.iter(|| {
                    scheme.gen_token_prepared(&psk, &SearchPattern::from_symbols(&symbols), &mut r)
                });
            },
        );
        g.bench_with_input(BenchmarkId::new("query", width), &width, |bch, _| {
            bch.iter(|| scheme.query(&token, &ct));
        });
    }
    g.finish();
}

fn bench_encoding(c: &mut Criterion) {
    let mut g = c.benchmark_group("encoding");
    for n in [256usize, 1024, 4096] {
        let probs: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        g.bench_with_input(BenchmarkId::new("huffman_build", n), &n, |bch, _| {
            bch.iter(|| CellCodebook::build(EncoderKind::Huffman, &probs));
        });
        let cb = CellCodebook::build(EncoderKind::Huffman, &probs);
        let zone: Vec<usize> = (0..16).map(|i| (i * 37) % n).collect();
        g.bench_with_input(BenchmarkId::new("minimize_alg3", n), &n, |bch, _| {
            bch.iter(|| cb.tokens_for(&zone));
        });
        let fixed = CellCodebook::build(EncoderKind::BasicFixed, &probs);
        g.bench_with_input(BenchmarkId::new("minimize_qm", n), &n, |bch, _| {
            bch.iter(|| fixed.tokens_for(&zone));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_modular,
    bench_fixed_base,
    bench_hve_phases,
    bench_encoding
);
criterion_main!(benches);
