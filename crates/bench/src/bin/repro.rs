//! `repro` — regenerates every figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p sla-bench --bin repro --release             # everything
//! cargo run -p sla-bench --bin repro --release -- fig9     # one figure
//! cargo run -p sla-bench --bin repro --release -- fig10 --quick
//! cargo run -p sla-bench --bin repro --release -- --smoke  # CI smoke test
//! cargo run -p sla-bench --bin repro --release -- --smoke --store persistent
//! cargo run -p sla-bench --bin repro --release -- scenario --scenario moving,mixed
//! ```
//!
//! Tables are printed to stdout and written as CSV under `results/`.

use sla_bench::{fig07, fig08, fig09, fig10, fig11, fig12, fig13, fig14, primitives, scenarios};
use sla_bench::{N_CIPHERTEXTS, SEED};
use std::path::PathBuf;

struct Opts {
    figures: Vec<String>,
    zones: usize,
    out_dir: PathBuf,
    smoke: bool,
    /// Store backend for the smoke's end-to-end alert round
    /// (`concurrent` | `persistent`).
    store: String,
    /// Scenario families for the `scenario` matrix target
    /// (`--scenario`, comma-separated; defaults to all four).
    scenario_kinds: Vec<sla_scenarios::ScenarioKind>,
}

/// Typed rejection of a malformed command line: anything the binary
/// cannot run is refused up front (exit 2), before any figure runs or
/// any file is written, instead of producing a misleading bench row.
#[derive(Debug, PartialEq, Eq)]
enum ArgError {
    /// `--scenario` with no value.
    MissingScenario,
    /// A scenario name outside `{moving, burst, mixed, zipf}`.
    UnknownScenario(String),
    /// `--zones`, `--out` or `--store` with no value.
    MissingValue(&'static str),
    /// A `--zones` value that is not a number.
    BadZones(String),
    /// A `--store` name outside `{concurrent, persistent}`.
    UnknownStore(String),
    /// A figure name outside `fig7`..`fig14`, `primitives`, `scenario`.
    UnknownFigure(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingScenario => {
                write!(f, "--scenario needs a name or comma-separated list")
            }
            ArgError::UnknownScenario(s) => {
                write!(
                    f,
                    "--scenario entry '{s}' is rejected (expected moving, burst, mixed or zipf)"
                )
            }
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::BadZones(v) => write!(f, "--zones needs a number, got '{v}'"),
            ArgError::UnknownStore(s) => {
                write!(
                    f,
                    "unknown --store '{s}' (expected concurrent or persistent)"
                )
            }
            ArgError::UnknownFigure(s) => write!(
                f,
                "unknown figure '{s}' (expected fig7..fig14, primitives, or scenario)"
            ),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parses a `--scenario` value (`"moving"` or `"moving,mixed"`) into
/// validated scenario kinds — unknown names are a typed, exit-2 error.
fn parse_scenarios(spec: &str) -> Result<Vec<sla_scenarios::ScenarioKind>, ArgError> {
    let mut kinds = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let kind: sla_scenarios::ScenarioKind = entry
            .parse()
            .map_err(|_| ArgError::UnknownScenario(entry.to_string()))?;
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    if kinds.is_empty() {
        return Err(ArgError::MissingScenario);
    }
    Ok(kinds)
}

/// The figure names `repro` runs (each also accepted with a `--` prefix).
const FIGURES: [&str; 14] = [
    "fig7",
    "fig07",
    "fig8",
    "fig08",
    "fig9",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "primitives",
    "scenario",
    "scenarios",
];

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Opts, ArgError> {
    let mut figures = Vec::new();
    let mut zones = 50usize;
    let mut out_dir = PathBuf::from("results");
    let mut smoke = false;
    let mut store = "concurrent".to_string();
    let mut scenario_kinds = sla_scenarios::ScenarioKind::ALL.to_vec();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => {
                let spec = args.next().ok_or(ArgError::MissingScenario)?;
                scenario_kinds = parse_scenarios(&spec)?;
            }
            "--quick" => zones = 10,
            "--smoke" => smoke = true,
            "--zones" => {
                let v = args.next().ok_or(ArgError::MissingValue("--zones"))?;
                zones = v.parse().map_err(|_| ArgError::BadZones(v))?;
            }
            "--out" => {
                out_dir = PathBuf::from(args.next().ok_or(ArgError::MissingValue("--out"))?);
            }
            "--store" => {
                store = args.next().ok_or(ArgError::MissingValue("--store"))?;
                if !["concurrent", "persistent"].contains(&store.as_str()) {
                    return Err(ArgError::UnknownStore(store));
                }
            }
            "all" => figures.clear(),
            other => {
                let name = other.trim_start_matches("--");
                if !FIGURES.contains(&name) {
                    return Err(ArgError::UnknownFigure(other.to_string()));
                }
                figures.push(name.to_string());
            }
        }
    }
    if figures.is_empty() {
        figures = (7..=14).map(|i| format!("fig{i}")).collect();
        figures.push("primitives".to_string());
    }
    Ok(Opts {
        figures,
        zones,
        out_dir,
        smoke,
        store,
        scenario_kinds,
    })
}

/// Resolves a `--store` name; the persistent backend gets a scratch
/// directory under the OS temp dir (returned so the caller can clean it
/// up — repro runs must not leak files into the workspace).
fn resolve_store(name: &str) -> (sla_core::StoreBackend, Option<PathBuf>) {
    match name {
        "concurrent" => (
            sla_core::StoreBackend::ConcurrentSharded { shards: 4 },
            None,
        ),
        "persistent" => {
            let dir = std::env::temp_dir().join(format!("sla-repro-store-{}", std::process::id()));
            (
                sla_core::StoreBackend::Persistent {
                    dir: dir.clone(),
                    flush: sla_core::FlushPolicy::EveryOp,
                },
                Some(dir),
            )
        }
        other => unreachable!("parse_args admits no --store '{other}'"),
    }
}

fn print_scenarios(rows: &[scenarios::ScenarioRow]) {
    for r in rows {
        println!(
            "scenario[{} {} {}]: {} alerts, tokens {}+{} (gen+reuse), cells +{}/-{}, \
             {} pairings, notified {} ({} exact, {} spurious), \
             tracked {:.1} ms vs full {:.1} ms ({:.2}x), mismatches {}",
            r.scenario,
            r.level,
            r.store,
            r.alerts,
            r.tokens_generated,
            r.tokens_reused,
            r.cells_entered,
            r.cells_exited,
            r.pairings,
            r.notified,
            r.exact_notified,
            r.spurious,
            r.tracked_ns / 1e6,
            r.full_ns / 1e6,
            r.speedup(),
            r.mismatches,
        );
    }
}

/// Fast end-to-end exercise of the bench/repro path for CI: primitives at
/// the smallest size, one HVE phase measurement, and a miniature alert
/// round with the live-vs-analytic invariants asserted. Panics (failing
/// the CI step) on any mismatch; writes a side artifact so it never
/// clobbers the tracked `BENCH_primitives.json`.
fn run_smoke(out_dir: &std::path::Path, store: &str) {
    println!("# smoke: primitives");
    let rows = vec![primitives::measure(32, SEED)];
    let phases = vec![primitives::measure_phases(24, 8, SEED)];
    let churn = primitives::measure_churn(SEED);
    for r in &rows {
        println!(
            "primitives[{} bit N]: mod_pow {:.0} -> {:.0} ns ({:.2}x)",
            r.modulus_bits,
            r.mod_pow_naive_ns.median,
            r.mod_pow_mont_ns.median,
            r.mod_pow_speedup(),
        );
    }
    for p in &phases {
        println!(
            "phases[{} bit N, l={}]: encrypt {:.0} -> {:.0} ns, gen_token {:.0} -> {:.0} ns",
            p.modulus_bits,
            p.width,
            p.encrypt_ns.median,
            p.encrypt_prepared_ns.median,
            p.gen_token_ns.median,
            p.gen_token_prepared_ns.median,
        );
    }
    for c in &churn {
        println!(
            "churn[{}]: upsert {:.0} ns, remove+insert {:.0} ns, match {:.0} ns/record",
            c.backend, c.upsert_ns.median, c.remove_insert_ns.median, c.match_per_record_ns.median
        );
    }
    let path = out_dir.join("BENCH_primitives_smoke.json");
    let write = std::fs::create_dir_all(out_dir)
        .and_then(|()| {
            let provenance = primitives::Provenance::current();
            std::fs::write(
                &path,
                primitives::to_json(&provenance, &rows, &phases, &churn),
            )
        })
        .map(|()| path);
    report(write);

    println!("# smoke: end-to-end alert round (store = {store})");
    use rand::{rngs::StdRng, SeedableRng};
    let (backend, scratch) = resolve_store(store);
    let build = |rng: &mut StdRng| {
        let grid = sla_grid::Grid::new(sla_grid::BoundingBox::new(0.0, 0.0, 0.1, 0.1), 4, 4);
        let probs = sla_grid::ProbabilityMap::new(vec![1.0 / 16.0; 16]);
        sla_core::SystemBuilder::new(grid)
            .encoder(sla_encoding::EncoderKind::Huffman)
            .group_bits(32)
            .store(backend.clone())
            .build(&probs, rng)
            .expect("smoke: valid configuration")
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let system = build(&mut rng);
    for cell in 0..16 {
        system
            .subscribe_cell(100 + cell as u64, cell, &mut rng)
            .expect("smoke: cells are in range");
    }
    let outcome = system
        .issue_alert(&[2, 3, 6], &mut rng)
        .expect("smoke: alert");
    assert_eq!(
        outcome.notified,
        vec![102, 103, 106],
        "smoke: wrong matches"
    );
    assert_eq!(
        outcome.pairings_used, outcome.analytic_pairings,
        "smoke: live counters diverge from the analytic model"
    );
    println!(
        "smoke OK: {} users notified, {} pairings (= analytic)",
        outcome.notified.len(),
        outcome.pairings_used
    );

    // The persistent backend additionally smokes the restart path: the
    // same directory reopened (same seed ⇒ same group and keys) must
    // serve the identical alert outcome from the recovered store.
    if let Some(dir) = scratch {
        system.sync().expect("smoke: durable flush");
        drop(system);
        let mut rng = StdRng::seed_from_u64(SEED);
        let reopened = build(&mut rng);
        assert_eq!(
            reopened.n_subscriptions(),
            16,
            "smoke: restart lost subscriptions"
        );
        let recovered = reopened
            .issue_alert(&[2, 3, 6], &mut rng)
            .expect("smoke: alert after restart");
        assert_eq!(
            (recovered.notified, recovered.pairings_used),
            (outcome.notified, outcome.pairings_used),
            "smoke: restart changed the match outcome"
        );
        drop(reopened);
        std::fs::remove_dir_all(&dir).expect("smoke: scratch cleanup");
        println!("smoke OK: persistent store survived a restart byte-identically");
    }

    // One miniature moving-zone scenario row: the tracked (incremental
    // token regeneration) path replayed against full regeneration and
    // the plaintext oracle — any disagreement fails the smoke.
    println!("# smoke: scenario matrix row (moving, L0, store = {store})");
    // Four epochs is the smallest replay in which the storm track's
    // minimized cover repeats a pattern, i.e. the cache demonstrably
    // reuses a token (asserted below).
    let config = sla_scenarios::ScenarioConfig {
        users: 12,
        epochs: 4,
        seed: SEED,
    };
    let row = scenarios::run_uniform(
        sla_scenarios::ScenarioKind::Moving,
        sla_scenarios::GranularityLevel::EXACT,
        store,
        &config,
    );
    print_scenarios(std::slice::from_ref(&row));
    assert_eq!(row.mismatches, 0, "smoke: tracked alert path diverged");
    assert!(
        row.tokens_reused > 0,
        "smoke: delta regen never reused a token"
    );
    println!(
        "smoke OK: scenario row reused {} of {} tokens across {} alerts",
        row.tokens_reused,
        row.tokens_generated + row.tokens_reused,
        row.alerts
    );
}

fn main() {
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if opts.smoke {
        run_smoke(&opts.out_dir, &opts.store);
        return;
    }
    println!("# Reproducing EDBT 2021 'Location-based Alert Protocol using SE and Huffman Codes'");
    println!(
        "# seed={SEED}, ciphertexts per alert={N_CIPHERTEXTS}, zones per point={}\n",
        opts.zones
    );

    for fig in &opts.figures {
        match fig.as_str() {
            "fig7" | "fig07" => {
                let rows = fig07::run(SEED);
                let t = fig07::table(&rows);
                print!("{}", t.render());
                report(t.write_csv(&opts.out_dir, "fig07"));
            }
            "fig8" | "fig08" => {
                let out = fig08::run(SEED);
                let t = fig08::table(&out);
                print!("{}", t.render());
                report(t.write_csv(&opts.out_dir, "fig08"));
            }
            "fig9" | "fig09" => {
                let result = fig09::run(SEED, opts.zones, N_CIPHERTEXTS);
                let a = fig09::table_absolute(
                    &result,
                    "Fig 9a: pairings on crime dataset (32x32, 10k users)",
                );
                let b = fig09::table_improvement(
                    &result,
                    "Fig 9b: improvement (%) vs basic fixed-length [14]",
                );
                print!("{}", a.render());
                print!("{}", b.render());
                report(a.write_csv(&opts.out_dir, "fig09a"));
                report(b.write_csv(&opts.out_dir, "fig09b"));
            }
            "fig10" => {
                for panel in fig10::run(SEED, opts.zones, N_CIPHERTEXTS) {
                    let tag = format!("a{:.2}_b{:.0}", panel.a, panel.b);
                    let a =
                        fig09::table_absolute(&panel.result, &format!("Fig 10 ({tag}): pairings"));
                    let b = fig09::table_improvement(
                        &panel.result,
                        &format!("Fig 10 ({tag}): improvement (%) vs [14]"),
                    );
                    print!("{}", a.render());
                    print!("{}", b.render());
                    report(a.write_csv(&opts.out_dir, &format!("fig10_{tag}_abs")));
                    report(b.write_csv(&opts.out_dir, &format!("fig10_{tag}_impr")));
                }
            }
            "fig11" => {
                for panel in fig11::run(SEED, opts.zones.max(100), N_CIPHERTEXTS) {
                    let t = fig11::table_improvement(&panel);
                    print!("{}", t.render());
                    report(t.write_csv(
                        &opts.out_dir,
                        &format!("fig11_a{:.2}_b{:.0}", panel.a, panel.b),
                    ));
                }
            }
            "fig12" => {
                let points = fig12::run(SEED, opts.zones, N_CIPHERTEXTS);
                let a = fig12::table_absolute(&points);
                let b = fig12::table_improvement(&points);
                print!("{}", a.render());
                print!("{}", b.render());
                report(a.write_csv(&opts.out_dir, "fig12a"));
                report(b.write_csv(&opts.out_dir, "fig12b"));
            }
            "fig13" => {
                let rows = fig13::run(SEED);
                let t = fig13::table(&rows);
                print!("{}", t.render());
                report(t.write_csv(&opts.out_dir, "fig13"));
            }
            "fig14" => {
                let rows = fig14::run(SEED);
                let t = fig14::table(&rows);
                print!("{}", t.render());
                report(t.write_csv(&opts.out_dir, "fig14"));
            }
            "primitives" => {
                // Perf trajectory of the arithmetic hot path, tracked
                // across PRs as results/BENCH_primitives.json.
                let rows: Vec<_> = [32usize, 48, 64]
                    .iter()
                    .map(|&bits| primitives::measure(bits, SEED))
                    .collect();
                for r in &rows {
                    println!(
                        "primitives[{} bit N]: mod_mul {:.0} -> {:.0} ns ({:.2}x), \
                         mod_pow {:.0} -> {:.0} ns ({:.2}x), pairing {:.0} ns",
                        r.modulus_bits,
                        r.mod_mul_naive_ns.median,
                        r.mod_mul_mont_ns.median,
                        r.mod_mul_speedup(),
                        r.mod_pow_naive_ns.median,
                        r.mod_pow_mont_ns.median,
                        r.mod_pow_speedup(),
                        r.pairing_ns.median,
                    );
                }
                // Per-phase Setup/Encrypt/GenToken timings, plain vs
                // prepared, at the default simulation order (96-bit N).
                let phases: Vec<_> = [8usize, 16, 32]
                    .iter()
                    .map(|&width| primitives::measure_phases(48, width, SEED))
                    .collect();
                for p in &phases {
                    println!(
                        "phases[{} bit N, l={}]: setup {:.1} µs (+{:.1} µs prepare), \
                         encrypt {:.1} -> {:.1} µs ({:.2}x), gen_token {:.1} -> {:.1} µs ({:.2}x), \
                         query {:.2} µs/pair",
                        p.modulus_bits,
                        p.width,
                        p.setup_ns.median / 1e3,
                        p.prepare_ns.median / 1e3,
                        p.encrypt_ns.median / 1e3,
                        p.encrypt_prepared_ns.median / 1e3,
                        p.encrypt_speedup(),
                        p.gen_token_ns.median / 1e3,
                        p.gen_token_prepared_ns.median / 1e3,
                        p.gen_token_speedup(),
                        p.query_decode_ns.median / 1e3,
                    );
                }
                // Store-lifecycle rows: what each backend charges for
                // churn, and what durability (WAL + fsync) adds.
                let churn = primitives::measure_churn(SEED);
                for c in &churn {
                    println!(
                        "churn[{}]: upsert {:.2} µs, remove+insert {:.2} µs, \
                         match {:.2} µs/record ({} users)",
                        c.backend,
                        c.upsert_ns.median / 1e3,
                        c.remove_insert_ns.median / 1e3,
                        c.match_per_record_ns.median / 1e3,
                        c.users,
                    );
                }
                let path = opts.out_dir.join("BENCH_primitives.json");
                let write = std::fs::create_dir_all(&opts.out_dir)
                    .and_then(|()| {
                        let provenance = primitives::Provenance::current();
                        std::fs::write(
                            &path,
                            primitives::to_json(&provenance, &rows, &phases, &churn),
                        )
                    })
                    .map(|()| path);
                report(write);
            }
            "scenario" | "scenarios" => {
                // The scenario matrix: scenario family x privacy level x
                // store backend, tracked (incremental regen) vs full
                // regeneration vs plaintext oracle. Mismatches fail the
                // run loudly -- these rows are correctness fixtures as
                // much as they are measurements.
                let config = sla_scenarios::ScenarioConfig::default();
                let levels = [
                    sla_scenarios::GranularityLevel(0),
                    sla_scenarios::GranularityLevel(2),
                ];
                let stores = ["concurrent"];
                let rows = scenarios::run_matrix(&opts.scenario_kinds, &levels, &stores, &config);
                print_scenarios(&rows);
                let mismatches: u64 = rows.iter().map(|r| r.mismatches).sum();
                assert_eq!(
                    mismatches, 0,
                    "scenario matrix: tracked vs full vs oracle divergence"
                );
                let path = opts.out_dir.join("BENCH_scenarios.json");
                let write = std::fs::create_dir_all(&opts.out_dir)
                    .and_then(|()| std::fs::write(&path, scenarios::to_json(&config, &rows)))
                    .map(|()| path);
                report(write);
            }
            other => unreachable!("parse_args admits no figure '{other}'"),
        }
        println!();
    }
}

fn report(result: std::io::Result<PathBuf>) {
    match result {
        Ok(path) => println!("-> wrote {}", path.display()),
        Err(e) => eprintln!("!! csv write failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_parse_and_dedupe() {
        use sla_scenarios::ScenarioKind;
        assert_eq!(parse_scenarios("moving"), Ok(vec![ScenarioKind::Moving]));
        assert_eq!(
            parse_scenarios("moving, mixed,moving"),
            Ok(vec![ScenarioKind::Moving, ScenarioKind::Mixed])
        );
        assert_eq!(
            parse_scenarios("burst,zipf"),
            Ok(vec![ScenarioKind::Burst, ScenarioKind::Zipf])
        );
    }

    fn parse(args: &[&str]) -> Result<Opts, ArgError> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn unknown_figure_is_a_typed_error() {
        assert_eq!(
            parse(&["fig99"]).err(),
            Some(ArgError::UnknownFigure("fig99".into()))
        );
        assert_eq!(
            parse(&["--bogus"]).err(),
            Some(ArgError::UnknownFigure("--bogus".into()))
        );
        let opts = parse(&["fig9", "--fig10", "primitives"]).unwrap();
        assert_eq!(opts.figures, ["fig9", "fig10", "primitives"]);
    }

    #[test]
    fn non_numeric_zones_is_a_typed_error() {
        assert_eq!(
            parse(&["--zones", "abc"]).err(),
            Some(ArgError::BadZones("abc".into()))
        );
        assert_eq!(parse(&["--zones", "7"]).unwrap().zones, 7);
    }

    #[test]
    fn zones_without_a_value_is_a_typed_error() {
        assert_eq!(
            parse(&["fig9", "--zones"]).err(),
            Some(ArgError::MissingValue("--zones"))
        );
    }

    #[test]
    fn out_without_a_value_is_a_typed_error() {
        assert_eq!(
            parse(&["--out"]).err(),
            Some(ArgError::MissingValue("--out"))
        );
    }

    #[test]
    fn store_without_a_value_is_a_typed_error() {
        assert_eq!(
            parse(&["--smoke", "--store"]).err(),
            Some(ArgError::MissingValue("--store"))
        );
    }

    #[test]
    fn unknown_store_is_a_typed_error_before_the_smoke_runs() {
        assert_eq!(
            parse(&["--smoke", "--store", "bogus"]).err(),
            Some(ArgError::UnknownStore("bogus".into()))
        );
        assert_eq!(
            parse(&["--smoke", "--store", "persistent"]).unwrap().store,
            "persistent"
        );
    }

    #[test]
    fn unknown_scenario_is_a_typed_error() {
        assert_eq!(
            parse_scenarios("tornado"),
            Err(ArgError::UnknownScenario("tornado".into()))
        );
        assert_eq!(parse_scenarios(""), Err(ArgError::MissingScenario));
        assert_eq!(parse_scenarios(" , "), Err(ArgError::MissingScenario));
    }
}
