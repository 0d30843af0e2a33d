//! `repro` — regenerates every figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p sla-bench --bin repro --release             # everything
//! cargo run -p sla-bench --bin repro --release -- fig9     # one figure
//! cargo run -p sla-bench --bin repro --release -- fig10 --quick
//! cargo run -p sla-bench --bin repro --release -- --smoke  # CI smoke test
//! ```
//!
//! Tables are printed to stdout and written as CSV under `results/`.

use sla_bench::{fig07, fig08, fig09, fig10, fig11, fig12, fig13, fig14, primitives};
use sla_bench::{N_CIPHERTEXTS, SEED};
use std::path::PathBuf;

struct Opts {
    figures: Vec<String>,
    zones: usize,
    out_dir: PathBuf,
    smoke: bool,
}

/// Typed rejection of a malformed command line: anything the binary
/// cannot run is refused up front (exit 2), before any figure runs or
/// any file is written, instead of producing a misleading bench row.
#[derive(Debug, PartialEq, Eq)]
enum ArgError {
    /// `--zones` or `--out` with no value.
    MissingValue(&'static str),
    /// A `--zones` value that is not a number.
    BadZones(String),
    /// A figure name outside `fig7`..`fig14`, `primitives`.
    UnknownFigure(String),
    /// A `-`-prefixed argument that is neither a flag nor a figure.
    UnknownFlag(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::BadZones(v) => write!(f, "--zones needs a number, got '{v}'"),
            ArgError::UnknownFigure(s) => write!(
                f,
                "unknown figure '{s}' (expected fig7..fig14 or primitives)"
            ),
            ArgError::UnknownFlag(s) => write!(f, "unknown flag '{s}'"),
        }
    }
}

impl std::error::Error for ArgError {}

/// The figure names `repro` runs (each also accepted with a `--` prefix).
const FIGURES: [&str; 12] = [
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
];

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Opts, ArgError> {
    let mut figures = Vec::new();
    let mut zones = 50usize;
    let mut out_dir = PathBuf::from("results");
    let mut smoke = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => zones = 10,
            "--smoke" => smoke = true,
            "--zones" => {
                let v = args.next().ok_or(ArgError::MissingValue("--zones"))?;
                zones = v.parse().map_err(|_| ArgError::BadZones(v))?;
            }
            "--out" => {
                out_dir = PathBuf::from(args.next().ok_or(ArgError::MissingValue("--out"))?);
            }
            "all" => figures.clear(),
            other => {
                let name = other.trim_start_matches("--");
                if FIGURES.contains(&name) {
                    figures.push(name.to_string());
                } else if other.starts_with('-') {
                    return Err(ArgError::UnknownFlag(other.to_string()));
                } else {
                    return Err(ArgError::UnknownFigure(other.to_string()));
                }
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
    })
}

/// Fast end-to-end exercise of the `primitives` path for CI: primitive
/// rows at the smallest order, one HVE phase row and the store churn
/// rows, written as a side artifact so it never clobbers the tracked
/// `BENCH_primitives.json`.
fn run_smoke(out_dir: &std::path::Path) {
    println!("# smoke: primitives");
    let (rows, phases, churn) = primitives::run(&[32], 24, &[8], SEED);
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
            p.encrypt_flat_ns.median,
            p.gen_token_ns.median,
            p.gen_token_flat_ns.median,
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
}

fn main() {
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if opts.smoke {
        run_smoke(&opts.out_dir);
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
                // across PRs as results/BENCH_primitives.json: primitive
                // rows at three orders, per-phase Setup/Encrypt/GenToken
                // timings (element reference vs flat loops) at the
                // default simulation order (96-bit N), and store-lifecycle
                // rows, all sampled in the same rounds.
                let (rows, phases, churn) = primitives::run(&[32, 48, 64], 48, &[8, 16, 32], SEED);
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
                        p.encrypt_flat_ns.median / 1e3,
                        p.encrypt_speedup(),
                        p.gen_token_ns.median / 1e3,
                        p.gen_token_flat_ns.median / 1e3,
                        p.gen_token_speedup(),
                        p.query_decode_ns.median / 1e3,
                    );
                }
                // Store-lifecycle rows: what each backend charges for
                // churn, and what durability (WAL + fsync) adds.
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

    fn parse(args: &[&str]) -> Result<Opts, ArgError> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn unknown_figure_is_a_typed_error() {
        assert_eq!(
            parse(&["fig99"]).err(),
            Some(ArgError::UnknownFigure("fig99".into()))
        );
        let opts = parse(&["fig9", "--fig10", "primitives"]).unwrap();
        assert_eq!(opts.figures, ["fig9", "fig10", "primitives"]);
    }

    #[test]
    fn unknown_flag_is_a_typed_error() {
        for (args, flag) in [
            (&["--smoke", "--store", "persistent"][..], "--store"),
            (&["--bogus"][..], "--bogus"),
            (&["fig9", "-q"][..], "-q"),
        ] {
            let err = parse(args).err();
            assert_eq!(err, Some(ArgError::UnknownFlag(flag.into())));
            assert_eq!(err.unwrap().to_string(), format!("unknown flag '{flag}'"));
        }
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
}
