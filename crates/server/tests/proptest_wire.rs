//! Property coverage for the wire codec:
//!
//! * arbitrary requests and responses round-trip through payload
//!   encoding and CRC framing,
//! * **every** single-byte corruption of a frame is rejected (the CRC
//!   covers the length prefix too, so a corrupted length cannot
//!   re-frame the stream),
//! * **every** strict prefix of a frame reads as torn, never as a
//!   shorter valid frame (torn-write / mid-frame-disconnect safety).

use proptest::prelude::*;
use sla_server::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    ErrorCode, FrameIn, Request, Response, WireLaneStats, WireStats,
};

/// Deterministic structure builder over a pool of raw words (the same
/// pattern as the `sla-persist` codec proptests).
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

    fn small_vec(&mut self) -> Vec<u64> {
        let n = (self.next() % 6) as usize;
        (0..n).map(|_| self.next()).collect()
    }

    fn string(&mut self) -> String {
        let n = (self.next() % 24) as usize;
        (0..n)
            .map(|_| char::from(b'a' + (self.next() % 26) as u8))
            .collect()
    }

    fn opt(&mut self) -> Option<u64> {
        if self.next().is_multiple_of(2) {
            None
        } else {
            Some(self.next())
        }
    }

    fn lanes(&mut self) -> Vec<WireLaneStats> {
        let n = (self.next() % 5) as usize;
        (0..n)
            .map(|_| WireLaneStats {
                wal_generation: self.next(),
                depth: self.next(),
            })
            .collect()
    }
}

fn request_from(raw: &[u64]) -> Request {
    let mut p = Pool { raw, i: 0 };
    match p.next() % 5 {
        0 => Request::Subscribe {
            user_id: p.next(),
            cell: p.next(),
        },
        1 => Request::Unsubscribe { user_id: p.next() },
        2 => Request::Alert {
            cells: p.small_vec(),
        },
        3 => Request::Stats,
        _ => Request::Shutdown,
    }
}

fn response_from(raw: &[u64]) -> Response {
    let mut p = Pool { raw, i: 0 };
    match p.next() % 7 {
        0 => Response::Subscribed {
            replaced: p.next().is_multiple_of(2),
        },
        1 => Response::Unsubscribed,
        2 => Response::Alerted {
            notified: p.small_vec(),
            tokens_issued: p.next() as u32,
            pairings_used: p.next(),
        },
        3 => Response::Stats(WireStats {
            backend: p.string(),
            shards: p.next(),
            subscriptions: p.next(),
            epoch: p.next(),
            inserted: p.next(),
            replaced: p.next(),
            unsubscribed: p.next(),
            evicted: p.next(),
            recovered_epoch: p.opt(),
            ops_subscribe: p.next(),
            ops_unsubscribe: p.next(),
            ops_alert: p.next(),
            ops_stats: p.next(),
            busy_rejections: p.next(),
            tokens_regenerated: p.next(),
            cells_entered: p.next(),
            cells_exited: p.next(),
            lanes: p.lanes(),
        }),
        4 => Response::ShuttingDown,
        5 => Response::Busy {
            in_flight_limit: p.next() as u32,
        },
        _ => Response::Error {
            code: match p.next() % 9 {
                0 => ErrorCode::CellOutOfRange,
                1 => ErrorCode::UnknownUser,
                2 => ErrorCode::MessageOutOfDomain,
                3 => ErrorCode::Storage,
                4 => ErrorCode::Corrupt,
                5 => ErrorCode::Io,
                6 => ErrorCode::Protocol,
                7 => ErrorCode::ShuttingDown,
                _ => ErrorCode::Internal,
            },
            detail: p.string(),
        },
    }
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, payload).expect("write to a Vec cannot fail");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn requests_roundtrip_through_the_frame(raw in prop::collection::vec(any::<u64>(), 4..32)) {
        let req = request_from(&raw);
        let payload = encode_request(&req);
        prop_assert_eq!(decode_request(&payload).unwrap(), req.clone());

        let buf = framed(&payload);
        match read_frame(&mut &buf[..]).unwrap() {
            FrameIn::Frame(p) => prop_assert_eq!(decode_request(&p).unwrap(), req),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    #[test]
    fn responses_roundtrip_through_the_frame(raw in prop::collection::vec(any::<u64>(), 4..48)) {
        let resp = response_from(&raw);
        let payload = encode_response(&resp);
        prop_assert_eq!(decode_response(&payload).unwrap(), resp.clone());

        let buf = framed(&payload);
        match read_frame(&mut &buf[..]).unwrap() {
            FrameIn::Frame(p) => prop_assert_eq!(decode_response(&p).unwrap(), resp),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    #[test]
    fn every_single_byte_corruption_is_torn(
        raw in prop::collection::vec(any::<u64>(), 4..24),
        flip_seed in 1u8..,
    ) {
        let buf = framed(&encode_request(&request_from(&raw)));
        for i in 0..buf.len() {
            let mask = (i as u8).wrapping_mul(0x9d) ^ flip_seed;
            let mask = if mask == 0 { 0x80 } else { mask };
            let mut corrupted = buf.clone();
            corrupted[i] ^= mask;
            // A corrupted length prefix may claim more bytes than exist
            // (EOF mid-frame), exceed the cap, or fail the CRC; a
            // corrupted payload or trailer fails the CRC. All are Torn —
            // never a silently different frame.
            prop_assert!(
                matches!(read_frame(&mut &corrupted[..]).unwrap(), FrameIn::Torn(_)),
                "byte {} mask {:#04x} was not rejected", i, mask
            );
        }
    }

    #[test]
    fn every_frame_prefix_is_torn_and_suffix_closed(raw in prop::collection::vec(any::<u64>(), 4..32)) {
        let buf = framed(&encode_response(&response_from(&raw)));
        // A disconnect at any point inside the frame is torn...
        for cut in 1..buf.len() {
            prop_assert!(
                matches!(read_frame(&mut &buf[..cut]).unwrap(), FrameIn::Torn(_)),
                "prefix of {} bytes not torn", cut
            );
        }
        // ...and a disconnect exactly at the boundary is a clean close.
        prop_assert!(matches!(read_frame(&mut &buf[..0]).unwrap(), FrameIn::Closed));
    }
}
