//! The per-layer ledger of a traced run.
//!
//! The workload's request stream is replayed in-process against parties
//! built from the public APIs, and every call into a layer is timed from
//! here: the program carries no instrumentation of its own. Each layer
//! metric names the end-to-end metric it should move (see the
//! benchmark's README for the map), and the ledger closes with the
//! residuals between the end-to-end medians and the sum of their layers.

use crate::e2e::{dir_bytes, max_write_rate, Context, Run, Rung};
use crate::report::Metric;
use crate::serve::backend;
use crate::stats::{mean, median, quantile};
use crate::workload::{write_request, Kind, Store, Workload, GROUP_BITS, STORE_SHARDS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_core::{
    codeword_to_pattern, MobileUser, ServiceProvider, StoreBackend, Subscription, SystemBuilder,
    TrustedAuthority,
};
use sla_datasets::ChurnEvent;
use sla_encoding::{minimize, CellCodebook, EncoderKind};
use sla_hve::{Ciphertext, HveScheme, PreparedPublicKey, PreparedSecretKey, Token, TokenCache};
use sla_pairing::{BilinearGroup, SimulatedGroup};
use sla_server::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    AlertService, FrameIn, Request, Response,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Writes replayed per layer (the stream's head).
const MAX_WRITES: usize = 2_000;

/// Alerts replayed per layer: enough for a stable median, bounded so a
/// traced run stays within its time budget (a `churn` alert matches
/// 4,000 ciphertexts).
fn max_alerts(kind: Kind) -> usize {
    match kind {
        Kind::Churn => 6,
        Kind::Alert => 8,
        Kind::Zones => 200,
    }
}

/// Set-ups timed for `core.build_ms`.
const BUILDS: usize = 3;

/// Writes between timed `sync` calls of the persistent store.
const SYNC_EVERY: usize = 250;

/// Writes for the WAL-growth measurement: few enough that no lane
/// reaches its compaction budget.
const WAL_PROBE_OPS: usize = 128;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn or_nan(x: Option<f64>) -> f64 {
    x.unwrap_or(f64::NAN)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A frame round trip through the wire codec on in-memory buffers:
/// client encode, server decode, server encode, client decode. Returns
/// the elapsed ns and the response frame's size.
fn codec_round(req: &Request, resp: &Response) -> Result<(f64, usize), String> {
    let t = Instant::now();
    let mut up = Vec::new();
    write_frame(&mut up, &encode_request(req)).map_err(err)?;
    let FrameIn::Frame(payload) = read_frame(&mut &up[..]).map_err(err)? else {
        return Err("request frame did not round-trip".into());
    };
    let decoded = decode_request(&payload).map_err(|e| e.0)?;
    let mut down = Vec::new();
    write_frame(&mut down, &encode_response(resp)).map_err(err)?;
    let FrameIn::Frame(payload) = read_frame(&mut &down[..]).map_err(err)? else {
        return Err("response frame did not round-trip".into());
    };
    let back = decode_response(&payload).map_err(|e| e.0)?;
    let ns = t.elapsed().as_secs_f64() * 1e9;
    if decoded != *req || back != *resp {
        return Err("wire codec did not round-trip".into());
    }
    Ok((ns, down.len()))
}

/// The parties of one in-process replay, over one group.
struct Parties<'g> {
    scheme: HveScheme<'g, SimulatedGroup>,
    codebook: CellCodebook,
    ppk: PreparedPublicKey,
    psk: PreparedSecretKey,
    ta: TrustedAuthority,
}

impl<'g> Parties<'g> {
    fn new(group: &'g SimulatedGroup, w: &Workload, rng: &mut StdRng) -> Result<Self, String> {
        let codebook = CellCodebook::try_build(EncoderKind::Huffman, w.probs.raw()).map_err(err)?;
        let scheme = HveScheme::try_new(group, codebook.width_bits()).map_err(err)?;
        let (pk, sk) = scheme.setup(rng);
        let ppk = scheme.prepare_public_key(&pk);
        let psk = scheme.prepare_secret_key(&sk);
        let mut ta = TrustedAuthority::new(sk, codebook.clone()).map_err(err)?;
        ta.prepare(&scheme);
        Ok(Parties {
            scheme,
            codebook,
            ppk,
            psk,
            ta,
        })
    }

    fn encrypt(&self, user_id: u64, cell: usize, rng: &mut StdRng) -> Result<Ciphertext, String> {
        MobileUser::new(user_id, cell)
            .encrypt_update_prepared(&self.scheme, &self.ppk, &self.codebook, rng)
            .map_err(err)
    }

    /// Upserts one ciphertext; returns the upsert's time in µs.
    fn upsert(&self, sp: &ServiceProvider, user_id: u64, ct: &Ciphertext) -> Result<f64, String> {
        let sub = Subscription {
            user_id,
            ciphertext: ct.clone(),
        };
        let t = Instant::now();
        sp.upsert_shared(&self.scheme, sub).map_err(err)?;
        Ok(us(t))
    }

    /// Applies one lifecycle event (its ciphertext encrypted beforehand);
    /// returns the upsert time for subscribes.
    fn apply(
        &self,
        sp: &ServiceProvider,
        event: &ChurnEvent,
        ct: Option<&Ciphertext>,
    ) -> Result<Option<f64>, String> {
        match (event, ct) {
            (ChurnEvent::Unsubscribe { user_id }, _) => {
                sp.unsubscribe_shared(*user_id).map_err(err)?;
                Ok(None)
            }
            (e, Some(ct)) => self.upsert(sp, e.user_id(), ct).map(Some),
            (_, None) => Err("subscribe without a ciphertext".into()),
        }
    }

    /// A service provider over `backend` holding the population.
    fn provider(
        &self,
        backend: StoreBackend,
        population: &[(u64, Ciphertext)],
    ) -> Result<ServiceProvider, String> {
        let sp = ServiceProvider::with_backend(backend, None).map_err(err)?;
        for (user_id, ct) in population {
            self.upsert(&sp, *user_id, ct)?;
        }
        Ok(sp)
    }
}

/// Runs the in-process replay of `ctx`'s workload and returns every
/// per-layer metric, the ledger residuals against `untraced` (the run's
/// untraced socket sub-run), and from `traced` (the same sub-run
/// recording client spans) the client's codec time and the tracing
/// overhead; then the capacity ladder's probed rungs.
pub fn ledger(
    ctx: &Context<'_>,
    untraced: &Run,
    traced: &Run,
    dir: &Path,
) -> Result<(Vec<Metric>, Vec<Rung>), String> {
    let w = ctx.workload;
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x7ace);
    let mut out = Vec::new();
    let writes = &w.writes[..w.writes.len().min(MAX_WRITES)];
    // The zone sequence cycles, as on the socket.
    let zones: Vec<&Vec<usize>> = w.zones.iter().cycle().take(max_alerts(w.kind)).collect();

    // sla-core: SystemBuilder set-up (keygen, tables, store open).
    let mut builds = Vec::new();
    for i in 0..BUILDS {
        let store_dir = dir.join(format!("trace-build{i}"));
        let t = Instant::now();
        let system = SystemBuilder::new(w.grid.clone())
            .group_bits(GROUP_BITS)
            .store(backend(w.spec.store, &store_dir))
            .build(&w.probs, &mut rng)
            .map_err(err)?;
        builds.push(us(t) / 1e3);
        drop(system);
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    out.push(Metric::new("core.build_ms", or_nan(median(&builds)), "ms"));

    // sla-server service: AlertService::handle without a socket.
    let service_dir = dir.join("trace-service");
    let system = SystemBuilder::new(w.grid.clone())
        .group_bits(GROUP_BITS)
        .store(backend(w.spec.store, &service_dir))
        .build(&w.probs, &mut rng)
        .map_err(err)?;
    let service = AlertService::new(system).map_err(err)?;
    for &(user_id, cell) in &w.population {
        let req = Request::Subscribe {
            user_id,
            cell: cell as u64,
        };
        let resp = service.handle(&req, &mut rng);
        if resp != (Response::Subscribed { replaced: false }) {
            return Err(format!("in-process preload answered {resp:?}"));
        }
    }
    let (mut svc_sub, mut codec_sub) = (Vec::new(), Vec::new());
    for event in writes {
        let req = write_request(event);
        let t = Instant::now();
        let resp = service.handle(&req, &mut rng);
        let elapsed = us(t);
        if let Request::Subscribe { .. } = req {
            svc_sub.push(elapsed);
            codec_sub.push(codec_round(&req, &resp)?.0);
        }
    }
    let (mut svc_alert, mut codec_alert, mut resp_bytes) = (Vec::new(), Vec::new(), Vec::new());
    for cells in &zones {
        let req = Request::Alert {
            cells: cells.iter().map(|&c| c as u64).collect(),
        };
        let t = Instant::now();
        let resp = service.handle(&req, &mut rng);
        svc_alert.push(us(t) / 1e3);
        let (ns, bytes) = codec_round(&req, &resp)?;
        codec_alert.push(ns / 1e3);
        resp_bytes.push(bytes as f64);
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&service_dir);
    let service_subscribe_us = or_nan(median(&svc_sub));
    let service_alert_ms = or_nan(median(&svc_alert));
    let wire_subscribe_ns = or_nan(median(&codec_sub));
    let wire_alert_us = or_nan(median(&codec_alert));
    out.push(Metric::new(
        "wire.subscribe_codec_ns",
        wire_subscribe_ns,
        "ns",
    ));
    out.push(Metric::new("wire.alert_codec_us", wire_alert_us, "us"));
    out.push(Metric::new(
        "wire.alert_response_bytes",
        or_nan(mean(&resp_bytes)),
        "bytes",
    ));
    out.push(Metric::new(
        "service.subscribe_us",
        service_subscribe_us,
        "us",
    ));
    out.push(Metric::new("service.alert_ms", service_alert_ms, "ms"));

    // Parties from the public APIs, over one group whose counters the
    // pairing layer reads.
    let group = SimulatedGroup::generate(GROUP_BITS, &mut rng);
    let parties = Parties::new(&group, w, &mut rng)?;
    let scheme = &parties.scheme;

    // sla-encoding: cover minimization.
    let (mut minimize_us, mut n_tokens, mut non_star) = (Vec::new(), Vec::new(), Vec::new());
    let mut patterns = Vec::new();
    for cells in &zones {
        let t = Instant::now();
        let words = parties.codebook.try_tokens_for(cells).map_err(err)?;
        minimize_us.push(us(t));
        n_tokens.push(words.len() as f64);
        non_star.push(minimize::non_star_cost(&words) as f64);
        patterns.push(words.iter().map(codeword_to_pattern).collect::<Vec<_>>());
    }
    out.push(Metric::new(
        "encoding.minimize_us",
        or_nan(median(&minimize_us)),
        "us",
    ));
    out.push(Metric::new(
        "encoding.tokens_per_alert",
        or_nan(mean(&n_tokens)),
        "count",
    ));
    out.push(Metric::new(
        "encoding.non_star_bits_per_alert",
        or_nan(mean(&non_star)),
        "count",
    ));

    // sla-hve: encryption (user side) and token generation (TA side).
    let mut population = Vec::with_capacity(w.population.len());
    for &(user_id, cell) in &w.population {
        population.push((user_id, parties.encrypt(user_id, cell, &mut rng)?));
    }
    let (mut encrypt_us, mut write_cts) = (Vec::new(), Vec::with_capacity(writes.len()));
    for event in writes {
        write_cts.push(match *event {
            ChurnEvent::Subscribe { user_id, cell } | ChurnEvent::Move { user_id, cell } => {
                let t = Instant::now();
                let ct = parties.encrypt(user_id, cell, &mut rng)?;
                encrypt_us.push(us(t));
                Some(ct)
            }
            ChurnEvent::Unsubscribe { .. } => None,
        });
    }
    let (mut gen_us, mut tokens) = (Vec::new(), Vec::<Vec<Token>>::new());
    for p in &patterns {
        let refs: Vec<_> = p.iter().collect();
        let t = Instant::now();
        tokens.push(scheme.gen_token_prepared_batch(&parties.psk, &refs, &mut rng));
        gen_us.push(us(t));
    }
    let hve_encrypt_us = or_nan(median(&encrypt_us));
    let hve_gen_us = or_nan(median(&gen_us));
    out.push(Metric::new("hve.encrypt_us", hve_encrypt_us, "us"));
    out.push(Metric::new("hve.gen_token_us", hve_gen_us, "us"));
    let issuance_ms = (or_nan(mean(&minimize_us)) + or_nan(mean(&gen_us))) / 1e3;
    out.push(Metric::new(
        "hve.issuance_share",
        issuance_ms / or_nan(mean(&svc_alert)),
        "fraction",
    ));
    // The incremental path (`issue_tokens_cached`) over the same zone
    // sequence. The served `Alert` RPC never calls it: these say what it
    // would save there.
    let mut cache = TokenCache::new();
    let (mut cached_us, mut reused, mut generated) = (Vec::new(), 0usize, 0usize);
    for cells in &zones {
        let t = Instant::now();
        let (_, stats) = parties
            .ta
            .issue_tokens_cached(scheme, &mut cache, cells, &mut rng)
            .map_err(err)?;
        cached_us.push(us(t));
        reused += stats.reused;
        generated += stats.generated;
    }
    out.push(Metric::new(
        "hve.cache_reuse_ratio",
        reused as f64 / (reused + generated).max(1) as f64,
        "fraction",
    ));
    out.push(Metric::new(
        "hve.cached_issue_us",
        or_nan(median(&cached_us)),
        "us",
    ));

    // sla-core matching and sla-pairing counts, on a volatile store.
    let sp = parties.provider(
        StoreBackend::ConcurrentSharded {
            shards: STORE_SHARDS,
        },
        &population,
    )?;
    let mut upsert_us = Vec::new();
    for (event, ct) in writes.iter().zip(&write_cts) {
        upsert_us.extend(parties.apply(&sp, event, ct.as_ref())?);
    }
    let (mut match_ms, mut batch_ms) = (Vec::new(), Vec::new());
    let (mut pairings, mut canon, mut match_ns_total) = (Vec::new(), Vec::new(), 0.0);
    for (cells, toks) in zones.iter().zip(&tokens) {
        let before = group.counters().snapshot();
        let t = Instant::now();
        let mut notified = sp.match_alert_exhaustive(scheme, toks).map_err(err)?;
        let elapsed = us(t);
        let delta = group.counters().snapshot() - before;
        let expected = parties
            .codebook
            .pairing_cost(cells, sp.n_subscriptions() as u64);
        if delta.pairings != expected {
            return Err(format!(
                "pairing invariant: {} pairings, analytic cost {expected}",
                delta.pairings
            ));
        }
        match_ms.push(elapsed / 1e3);
        match_ns_total += elapsed * 1e3;
        pairings.push(delta.pairings as f64);
        canon.push(delta.canonicalizations as f64);

        let t = Instant::now();
        let mut batch = sp
            .process_alert_batch(scheme, toks, sp.default_batch_chunk_size())
            .map_err(err)?;
        batch_ms.push(us(t) / 1e3);
        notified.sort_unstable();
        batch.sort_unstable();
        if notified != batch {
            return Err("batch matcher disagrees with the exhaustive matcher".into());
        }
    }
    let core_match_ms = or_nan(median(&match_ms));
    let core_upsert_us = or_nan(median(&upsert_us));
    out.push(Metric::new(
        "pairing.pairings_per_alert",
        or_nan(mean(&pairings)),
        "count",
    ));
    out.push(Metric::new(
        "pairing.canonicalizations_per_alert",
        or_nan(mean(&canon)),
        "count",
    ));
    out.push(Metric::new(
        "pairing.match_ns_per_pairing",
        match_ns_total / pairings.iter().sum::<f64>().max(1.0),
        "ns",
    ));
    out.push(Metric::new("core.match_ms", core_match_ms, "ms"));
    out.push(Metric::new(
        "core.match_batch_ms",
        or_nan(median(&batch_ms)),
        "ms",
    ));
    out.push(Metric::new("core.upsert_us", core_upsert_us, "us"));

    // Upserts while a matcher holds shard read locks; the p99 is the
    // shard-scan wait a moving user can hit.
    let stop = AtomicBool::new(false);
    let during = std::thread::scope(|s| -> Result<Vec<f64>, String> {
        let matcher = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                for toks in &tokens {
                    let _ = sp.match_alert_exhaustive(scheme, toks);
                }
            }
        });
        // The stream's subscribes and moves again (its unsubscribes
        // have been applied already).
        let mut times = Vec::new();
        let result = writes.iter().zip(&write_cts).try_for_each(|(event, ct)| {
            if let Some(ct) = ct {
                times.push(parties.upsert(&sp, event.user_id(), ct)?);
            }
            Ok::<_, String>(())
        });
        stop.store(true, Ordering::Relaxed);
        matcher.join().expect("matcher thread panicked");
        result.map(|()| times)
    })?;
    out.push(Metric::new(
        "core.upsert_during_match_us",
        or_nan(quantile(&during, 0.99)),
        "us",
    ));
    drop(sp);

    // sla-persist through StoreBackend::Persistent.
    let persist = persist_layer(&parties, &population, writes, &write_cts, dir)?;
    let persist_upsert_us = persist[0].value;
    out.extend(persist);

    // The ledger: end-to-end medians against the sum of their layers.
    let upsert_layer_us = match w.spec.store {
        Store::Persistent => persist_upsert_us,
        Store::Concurrent => core_upsert_us,
    };
    let e2e_sub_us = or_nan(untraced.subscribe_p50_us());
    let e2e_alert_ms = or_nan(untraced.alert_p50_ms());
    out.push(Metric::new(
        "server.subscribe_residual_us",
        e2e_sub_us - service_subscribe_us - wire_subscribe_ns / 1e3,
        "us",
    ));
    out.push(Metric::new(
        "server.alert_residual_ms",
        e2e_alert_ms - service_alert_ms - wire_alert_us / 1e3,
        "ms",
    ));
    out.push(Metric::new(
        "ledger.subscribe_service_residual_us",
        service_subscribe_us - hve_encrypt_us - upsert_layer_us,
        "us",
    ));
    out.push(Metric::new(
        "ledger.alert_service_residual_ms",
        service_alert_ms - (or_nan(median(&minimize_us)) + hve_gen_us) / 1e3 - core_match_ms,
        "ms",
    ));
    out.push(Metric::new(
        "wire.client_codec_ns",
        or_nan(median(&traced.pooled(|s| &s.subscribe_codec_ns))),
        "ns",
    ));
    out.push(Metric::new(
        "trace.subscribe_overhead_us",
        or_nan(traced.subscribe_p50_us()) - e2e_sub_us,
        "us",
    ));
    out.push(Metric::new(
        "trace.alert_overhead_ms",
        or_nan(traced.alert_p50_ms()) - e2e_alert_ms,
        "ms",
    ));
    out.push(Metric::new(
        "gen.send_lag_p99_us",
        or_nan(quantile(&untraced.pooled(|s| &s.send_lag_us), 0.99)),
        "us",
    ));
    let (max_rate, rungs) = max_write_rate(&ctx.exe, dir, w, ctx.seed)?;
    out.push(Metric::new("server.max_write_ops_per_s", max_rate, "1/s"));
    Ok((out, rungs))
}

/// The persistent store's layer: upsert latency (median first, then
/// p99), group-commit `sync`, WAL bytes per op, recovery on reopen, and
/// disk bytes per live subscription.
fn persist_layer(
    parties: &Parties<'_>,
    population: &[(u64, Ciphertext)],
    writes: &[ChurnEvent],
    write_cts: &[Option<Ciphertext>],
    dir: &Path,
) -> Result<Vec<Metric>, String> {
    let open =
        |d: &Path| ServiceProvider::with_backend(backend(Store::Persistent, d), None).map_err(err);

    // WAL growth per op, below every lane's compaction budget.
    let probe_dir = dir.join("trace-wal");
    let probe = open(&probe_dir)?;
    probe.sync().map_err(err)?;
    let empty = dir_bytes(&probe_dir)?;
    let probe_ops = population.len().min(WAL_PROBE_OPS);
    for (user_id, ct) in &population[..probe_ops] {
        parties.upsert(&probe, *user_id, ct)?;
    }
    probe.sync().map_err(err)?;
    let grown = dir_bytes(&probe_dir)?.saturating_sub(empty);
    let wal_bytes_per_op = grown as f64 / probe_ops.max(1) as f64;
    drop(probe);
    let _ = std::fs::remove_dir_all(&probe_dir);

    let store_dir = dir.join("trace-persist");
    let sp = parties.provider(backend(Store::Persistent, &store_dir), population)?;
    sp.sync().map_err(err)?;
    let (mut upsert_us, mut sync_ms) = (Vec::new(), Vec::new());
    for (i, (event, ct)) in writes.iter().zip(write_cts).enumerate() {
        upsert_us.extend(parties.apply(&sp, event, ct.as_ref())?);
        if (i + 1) % SYNC_EVERY == 0 {
            let t = Instant::now();
            sp.sync().map_err(err)?;
            sync_ms.push(us(t) / 1e3);
        }
    }
    sp.sync().map_err(err)?;
    let live = sp.n_subscriptions();
    let disk = dir_bytes(&store_dir)?;
    drop(sp);

    let t = Instant::now();
    let reopened = open(&store_dir)?;
    let recovery_ms = us(t) / 1e3;
    if reopened.n_subscriptions() != live {
        return Err(format!(
            "recovery: {} subscriptions, {live} before the restart",
            reopened.n_subscriptions()
        ));
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(vec![
        Metric::new("persist.upsert_us", or_nan(median(&upsert_us)), "us"),
        Metric::new(
            "persist.upsert_p99_us",
            or_nan(quantile(&upsert_us, 0.99)),
            "us",
        ),
        Metric::new("persist.sync_ms", or_nan(median(&sync_ms)), "ms"),
        Metric::new("persist.wal_bytes_per_op", wal_bytes_per_op, "bytes"),
        Metric::new("persist.recovery_ms", recovery_ms, "ms"),
        Metric::new(
            "persist.disk_bytes_per_sub",
            disk as f64 / live.max(1) as f64,
            "bytes",
        ),
    ])
}
