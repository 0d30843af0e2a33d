//! Property coverage for the stored-subscription binary codec:
//!
//! * arbitrary records encode → decode identically (through both the
//!   bare payload and the CRC frame),
//! * a record encodes to exactly the bytes of the element-level layout
//!   (each group element's canonical log as its minimal little-endian
//!   bytes behind a `u32` length), so the packed-row codec writes the
//!   WAL and snapshot bytes earlier versions wrote, and
//! * **every** single-byte corruption of a frame is rejected by the CRC
//!   instead of being decoded (CRC-32 detects all single-byte errors by
//!   construction; this pins that the framing actually routes through
//!   it, including the length field).

use proptest::prelude::*;
use sla_bigint::BigUint;
use sla_hve::Ciphertext;
use sla_pairing::{GElem, GtElem};
use sla_persist::codec::{
    decode_op, decode_record, encode_op, encode_record, frame, read_frame, FrameRead,
};
use sla_persist::{Record, WalOp};

/// Builds a record deterministically from a pool of raw words: multi-limb
/// logs (0–3 limbs each, so zero, single-limb and wide values all occur)
/// and a width in `0..=4`.
struct Pool<'a> {
    raw: &'a [u64],
    i: usize,
}

impl Pool<'_> {
    fn next(&mut self) -> u64 {
        let v = self.raw[self.i % self.raw.len()].wrapping_add(self.i as u64);
        self.i += 1;
        v
    }

    fn big(&mut self) -> BigUint {
        let n = (self.next() % 4) as usize;
        BigUint::from_limbs((0..n).map(|_| self.next()).collect())
    }
}

/// A record's elements: user id, epoch, ciphertext and payload.
type Elements = (u64, u64, Ciphertext, GtElem);

fn elements_from(raw: &[u64]) -> Elements {
    let mut pool = Pool { raw, i: 0 };
    let user_id = pool.next();
    let epoch = pool.next();
    let expected = GtElem::from_canonical_log(pool.big());
    let width = (pool.next() % 5) as usize;
    let c_prime = GtElem::from_canonical_log(pool.big());
    let c0 = GElem::from_canonical_log(pool.big());
    let c = (0..width)
        .map(|_| {
            (
                GElem::from_canonical_log(pool.big()),
                GElem::from_canonical_log(pool.big()),
            )
        })
        .collect();
    (
        user_id,
        epoch,
        Ciphertext::from_parts(c_prime, c0, c),
        expected,
    )
}

fn record_from(raw: &[u64]) -> Record {
    let (user_id, epoch, ciphertext, expected) = elements_from(raw);
    Record {
        user_id,
        epoch,
        row: ciphertext.to_row(&expected),
    }
}

/// The element-level encoding of a record: user id, epoch, the payload's
/// log, the width, then `C'`, `C_0` and every component's log.
fn element_bytes((user_id, epoch, ciphertext, expected): &Elements) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&user_id.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    let log = |out: &mut Vec<u8>, v: BigUint| {
        let bytes = v.to_bytes_le();
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&bytes);
    };
    log(&mut out, expected.discrete_log());
    let (c_prime, c0, c) = ciphertext.parts();
    out.extend_from_slice(&(c.len() as u32).to_le_bytes());
    log(&mut out, c_prime.discrete_log());
    log(&mut out, c0.discrete_log());
    for (c1, c2) in c {
        log(&mut out, c1.discrete_log());
        log(&mut out, c2.discrete_log());
    }
    out
}

fn op_from(raw: &[u64]) -> WalOp {
    match raw[0] % 4 {
        0 => WalOp::Upsert(record_from(&raw[1..])),
        1 => WalOp::Remove { user_id: raw[1] },
        2 => WalOp::EvictBefore { min_epoch: raw[1] },
        _ => WalOp::Epoch { epoch: raw[1] },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn records_roundtrip(raw in prop::collection::vec(any::<u64>(), 4..32)) {
        let record = record_from(&raw);
        let mut payload = Vec::new();
        encode_record(&record, &mut payload);
        prop_assert_eq!(decode_record(&payload).unwrap(), record.clone());

        // And through the frame.
        let framed = frame(&payload);
        match read_frame(&framed) {
            FrameRead::Frame { payload: p, rest } => {
                prop_assert!(rest.is_empty());
                prop_assert_eq!(decode_record(p).unwrap(), record);
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    #[test]
    fn records_encode_to_the_element_layout(raw in prop::collection::vec(any::<u64>(), 4..32)) {
        let elements = elements_from(&raw);
        let mut payload = Vec::new();
        encode_record(&record_from(&raw), &mut payload);
        prop_assert_eq!(payload, element_bytes(&elements));
    }

    #[test]
    fn ops_roundtrip(raw in prop::collection::vec(any::<u64>(), 4..32)) {
        let op = op_from(&raw);
        let mut payload = Vec::new();
        encode_op(&op, &mut payload);
        prop_assert_eq!(decode_op(&payload).unwrap(), op);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected(
        raw in prop::collection::vec(any::<u64>(), 4..20),
        flip_seed in 1u8..,
    ) {
        let op = op_from(&raw);
        let mut payload = Vec::new();
        encode_op(&op, &mut payload);
        let framed = frame(&payload);
        for i in 0..framed.len() {
            // A nonzero XOR mask derived from the position so different
            // bit patterns are exercised across positions and cases.
            let mask = (i as u8).wrapping_mul(0x9d) ^ flip_seed;
            let mask = if mask == 0 { 0x80 } else { mask };
            let mut corrupted = framed.clone();
            corrupted[i] ^= mask;
            prop_assert!(
                matches!(read_frame(&corrupted), FrameRead::Torn { .. }),
                "byte {} mask {:#04x} was not rejected",
                i,
                mask
            );
        }
    }
}

/// Exhaustive (all 255 wrong values per byte) corruption sweep on one
/// representative frame — slower, so a plain test with a small record.
#[test]
fn exhaustive_corruption_sweep_on_one_frame() {
    let record = record_from(&[7, 1, 2, 3, 4, 5]);
    let mut payload = Vec::new();
    encode_op(&WalOp::Upsert(record), &mut payload);
    let framed = frame(&payload);
    for i in 0..framed.len() {
        for mask in 1u8..=255 {
            let mut corrupted = framed.clone();
            corrupted[i] ^= mask;
            assert!(
                matches!(read_frame(&corrupted), FrameRead::Torn { .. }),
                "byte {i} mask {mask:#04x} was not rejected"
            );
        }
    }
}
