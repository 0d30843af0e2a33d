//! The benchmark's own checks: deterministic inputs, the oracle on
//! crafted in-flight cases, and the open-loop scheduler's accounting of
//! a stall.

use perfbench::oracle::{check, AlertRecord, WriteRecord, SUBSCRIBE_PAIRINGS};
use perfbench::sched::{open_loop, Clock};
use perfbench::workload::{crime_surface, Kind, Workload};
use sla_datasets::ChurnEvent;
use sla_server::{
    decode_request, encode_response, read_frame, write_frame, FrameIn, Request, Response,
};
use std::os::unix::net::UnixStream;
use std::time::Duration;

#[test]
fn same_seed_gives_byte_identical_request_streams() {
    let (grid, probs) = crime_surface();
    let span = Duration::from_secs(3);
    for kind in Kind::ALL {
        let a = Workload::generate_on(kind, 7, span, grid.clone(), probs.clone());
        let b = Workload::generate_on(kind, 7, span, grid.clone(), probs.clone());
        let c = Workload::generate_on(kind, 8, span, grid.clone(), probs.clone());
        let stream = a.encoded_stream();
        assert!(!stream.is_empty(), "{kind:?}");
        assert_eq!(
            stream,
            b.encoded_stream(),
            "{kind:?}: same seed, same bytes"
        );
        assert_eq!(a.zone_costs, b.zone_costs, "{kind:?}");
        assert_ne!(
            stream,
            c.encoded_stream(),
            "{kind:?}: another seed, other inputs"
        );
    }
}

fn write(event: ChurnEvent, sent_ns: u64, recv_ns: u64, response: Response) -> WriteRecord {
    WriteRecord {
        event,
        sent_ns,
        recv_ns,
        response,
    }
}

fn alert(
    cells: &[usize],
    sent_ns: u64,
    recv_ns: u64,
    notified: &[u64],
    pairings: u64,
) -> AlertRecord {
    AlertRecord {
        cells: cells.to_vec(),
        cost_per_ct: 5,
        sent_ns,
        recv_ns,
        response: Response::Alerted {
            notified: notified.to_vec(),
            tokens_issued: 1,
            pairings_used: pairings,
        },
    }
}

const MOVED: Response = Response::Subscribed { replaced: true };

#[test]
fn oracle_allows_either_cell_for_a_move_in_flight() {
    let population = [(1, 10), (2, 20)];
    let writes = [write(
        ChurnEvent::Move {
            user_id: 1,
            cell: 30,
        },
        100,
        200,
        MOVED,
    )];
    // The alert overlaps the move: user 1 may be at 10 or at 30.
    for notified in [&[][..], &[1][..]] {
        let v = check(
            &population,
            &writes,
            &[alert(&[30], 150, 250, notified, 10)],
        );
        assert!(v.clean(), "{notified:?}: {v:?}");
    }
    // User 2 has nothing in flight and must match exactly.
    let v = check(
        &population,
        &writes,
        &[alert(&[20, 30], 150, 250, &[1], 10)],
    );
    assert_eq!(v.failed_alerts, 1, "{v:?}");
}

#[test]
fn oracle_rejects_stale_or_missing_notifications_once_a_move_is_answered() {
    let population = [(1, 10), (2, 20)];
    let writes = [write(
        ChurnEvent::Move {
            user_id: 1,
            cell: 30,
        },
        100,
        200,
        MOVED,
    )];
    let settled = |cells: &[usize], notified: &[u64]| {
        check(
            &population,
            &writes,
            &[alert(cells, 300, 400, notified, 10)],
        )
    };
    assert!(settled(&[30], &[1]).clean());
    assert_eq!(
        settled(&[30], &[]).failed_alerts,
        1,
        "missed the moved user"
    );
    assert_eq!(
        settled(&[10], &[1]).failed_alerts,
        1,
        "notified at the old cell"
    );
    assert_eq!(settled(&[10], &[9]).failed_alerts, 1, "notified a stranger");
}

#[test]
fn oracle_checks_pairings_against_the_population_range() {
    let population = [(1, 10), (2, 20)];
    // Settled population of 2 at 5 pairings per ciphertext: exactly 10.
    assert!(check(&population, &[], &[alert(&[10], 0, 1, &[1], 10)]).clean());
    let v = check(&population, &[], &[alert(&[10], 0, 1, &[1], 12)]);
    assert_eq!(v.failed_alerts, 1, "{v:?}");

    // A subscribe in flight may or may not be matched, and its own
    // payload encoding shows up in the global counter delta.
    let join = [write(
        ChurnEvent::Subscribe {
            user_id: 3,
            cell: 40,
        },
        5,
        50,
        Response::Subscribed { replaced: false },
    )];
    for pairings in [10, 15, 15 + SUBSCRIBE_PAIRINGS] {
        let v = check(&population, &join, &[alert(&[10], 0, 20, &[1], pairings)]);
        assert!(v.clean(), "{pairings}: {v:?}");
    }
    let v = check(
        &population,
        &join,
        &[alert(&[10], 0, 20, &[1], 16 + SUBSCRIBE_PAIRINGS)],
    );
    assert_eq!(v.failed_alerts, 1, "{v:?}");

    // An unsubscribe in flight: between one and two users scanned.
    let leave = [write(
        ChurnEvent::Unsubscribe { user_id: 2 },
        5,
        50,
        Response::Unsubscribed,
    )];
    for (pairings, ok) in [(5, true), (10, true), (4, false), (11, false)] {
        let v = check(&population, &leave, &[alert(&[10], 0, 20, &[1], pairings)]);
        assert_eq!(v.clean(), ok, "{pairings}: {v:?}");
    }
}

#[test]
fn oracle_counts_wrong_write_answers_and_refusals() {
    let population = [(1, 10)];
    let writes = [
        // A move must report the replaced ciphertext.
        write(
            ChurnEvent::Move {
                user_id: 1,
                cell: 11,
            },
            0,
            1,
            Response::Subscribed { replaced: false },
        ),
        // A refusal is a failure, not retried.
        write(
            ChurnEvent::Subscribe {
                user_id: 2,
                cell: 12,
            },
            2,
            3,
            Response::Busy {
                in_flight_limit: 64,
            },
        ),
    ];
    let v = check(&population, &writes, &[]);
    assert_eq!(v.failed_writes, 2, "{v:?}");
    let busy = AlertRecord {
        response: Response::Busy {
            in_flight_limit: 64,
        },
        ..alert(&[10], 0, 1, &[], 0)
    };
    assert_eq!(check(&population, &[], &[busy]).failed_alerts, 1);
}

#[test]
fn a_stall_is_charged_to_every_request_queued_behind_it() {
    const STALLED: usize = 5;
    const STALL: Duration = Duration::from_millis(60);
    const INTERVAL: Duration = Duration::from_millis(2);
    const REQUESTS: usize = 25;
    let (client, mut server) = UnixStream::pair().expect("socketpair");
    let fake = std::thread::spawn(move || {
        for i in 0..REQUESTS {
            let FrameIn::Frame(payload) = read_frame(&mut server).expect("read") else {
                panic!("client hung up early");
            };
            decode_request(&payload).expect("a request");
            if i == STALLED {
                std::thread::sleep(STALL);
            }
            let resp = Response::Subscribed { replaced: false };
            write_frame(&mut server, &encode_response(&resp)).expect("write");
        }
    });
    let clock = Clock::start();
    let start = 1_000_000;
    let stop = start + INTERVAL.as_nanos() as u64 * REQUESTS as u64;
    let done = open_loop(
        &client,
        clock,
        start,
        INTERVAL,
        stop,
        &mut |k| {
            (k < REQUESTS).then_some(Request::Subscribe {
                user_id: k as u64,
                cell: 0,
            })
        },
        false,
    )
    .expect("open loop");
    fake.join().expect("fake server");
    assert_eq!(done.len(), REQUESTS);

    // The stalled request and everything due before its answer finish
    // only after the stall: each is charged from its own due time.
    let stall_end = done[STALLED].sent_ns + STALL.as_nanos() as u64;
    let behind: Vec<_> = done[STALLED..]
        .iter()
        .filter(|c| c.due_ns < stall_end)
        .collect();
    assert_eq!(
        behind.len(),
        REQUESTS - STALLED,
        "all were due within the stall"
    );
    for c in &behind {
        assert!(
            c.recv_ns >= stall_end,
            "request {} answered before the stall ended",
            c.index
        );
        assert_eq!(c.latency_ns(), c.recv_ns - c.due_ns);
        // Pipelined: sent while the stall lasted, not held back behind
        // it (with slack for a busy machine).
        if c.due_ns + 20_000_000 < stall_end {
            assert!(
                c.sent_ns < stall_end,
                "request {} was held back until the stall ended",
                c.index
            );
        }
    }
    let first = behind[1].latency_ns();
    let last = behind.last().expect("non-empty").latency_ns();
    assert!(
        first > last,
        "earlier-queued requests wait longer: {first} ns vs {last} ns"
    );
    // Requests before the stall are unaffected.
    assert!(done[..STALLED]
        .iter()
        .all(|c| c.latency_ns() < STALL.as_nanos() as u64 / 2));
}
