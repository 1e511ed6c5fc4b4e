//! The multi-scale workload suite: every query family through the
//! sequential, batch, and rewritten measurement pipelines at a fixed ε
//! ladder, emitting the schema-versioned `BENCH_4.json` perf artifact
//! plus a human summary table, and optionally gating against a
//! checked-in baseline (the CI `perf-smoke` job).
//!
//! ```text
//! cargo run --release -p qarith-bench --bin bench_suite -- \
//!     [--scale tiny|small|medium|paper] [--seed N] \
//!     [--families sales,range,division] [--epsilons 0.1,0.05,0.02] \
//!     [--threads N] [--reps N] [--out PATH] [--check-baseline] [--baseline PATH] [--tolerance F]
//! ```
//!
//! `--check-baseline` loads the baseline JSON (default:
//! `crates/bench/baselines/BENCH_<scale>.json`), re-verifies every
//! certainty bit for bit, compares per-pipeline wall-time totals with a
//! relative tolerance (default 25 %), and exits non-zero on any
//! failure. An intentional behavioral change (new generator, new
//! sampling order, …) must regenerate the baseline in the same commit:
//! run without `--check-baseline` and copy the fresh artifact over the
//! checked-in one.

use std::process::ExitCode;

use qarith_bench::suite::{check_against_baseline, run_suite, SuiteConfig, SuiteReport};
use qarith_datagen::{QueryFamily, WorkloadScale};

/// Default output artifact name — the PR-4 slot of the `BENCH_*.json`
/// trajectory (one artifact per perf-relevant PR).
const DEFAULT_OUT: &str = "BENCH_4.json";

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: bench_suite [--scale tiny|small|medium|paper] [--seed N] \
         [--families LIST] [--epsilons LIST] [--threads N] [--reps N] \
         [--out PATH] [--check-baseline] [--baseline PATH] [--tolerance F]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut config = SuiteConfig::default_for(WorkloadScale::Tiny);
    let mut out_path = DEFAULT_OUT.to_string();
    let mut baseline_path: Option<String> = None;
    let mut check_baseline = false;
    let mut tolerance = 0.25f64;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i).cloned()
        };
        match flag {
            "--scale" => match value().as_deref().and_then(WorkloadScale::parse) {
                Some(s) => config.scale = s,
                None => return usage("--scale expects tiny|small|medium|paper"),
            },
            "--seed" => match value().and_then(|v| v.parse().ok()) {
                Some(s) => config.seed = s,
                None => return usage("--seed expects an integer"),
            },
            "--families" => {
                let list: Option<Vec<QueryFamily>> =
                    value().and_then(|v| v.split(',').map(QueryFamily::parse).collect());
                match list {
                    Some(fams) if !fams.is_empty() => config.families = fams,
                    _ => return usage("--families expects a comma list of sales|range|division"),
                }
            }
            "--epsilons" => {
                let list: Option<Vec<f64>> =
                    value().and_then(|v| v.split(',').map(|e| e.parse().ok()).collect());
                match list {
                    Some(eps)
                        if !eps.is_empty() && eps.iter().all(|e| (1e-4..=0.5).contains(e)) =>
                    {
                        config.epsilons = eps;
                    }
                    _ => return usage("--epsilons expects a comma list in [0.0001, 0.5]"),
                }
            }
            "--threads" => match value().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.threads = n,
                _ => return usage("--threads expects a positive integer"),
            },
            "--reps" => match value().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.reps = n,
                _ => return usage("--reps expects a positive integer"),
            },
            "--out" => match value() {
                Some(p) => out_path = p,
                None => return usage("--out expects a path"),
            },
            "--baseline" => match value() {
                Some(p) => baseline_path = Some(p),
                None => return usage("--baseline expects a path"),
            },
            "--check-baseline" => check_baseline = true,
            "--tolerance" => match value().and_then(|v| v.parse().ok()) {
                Some(t) if (0.0..10.0).contains(&t) => tolerance = t,
                _ => return usage("--tolerance expects a fraction, e.g. 0.25"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    println!("qarith bench_suite — workload sweep");
    println!(
        "scale {}  seed {}  families [{}]  ε ladder {:?}  batch threads {}",
        config.scale.name(),
        config.seed,
        config.families.iter().map(QueryFamily::name).collect::<Vec<_>>().join(", "),
        config.epsilons,
        config.threads
    );

    let started = std::time::Instant::now();
    let report = run_suite(&config);
    println!(
        "database: {} tuples, {} numerical nulls, digest {}",
        report.db_tuples, report.db_num_nulls, report.db_digest
    );
    print_summary(&report);
    println!("suite completed in {:.3}s", started.elapsed().as_secs_f64());

    std::fs::write(&out_path, report.to_json()).expect("write BENCH json");
    println!("perf artifact written to {out_path}");

    if !check_baseline {
        return ExitCode::SUCCESS;
    }
    let baseline_path = baseline_path.unwrap_or_else(|| {
        format!("{}/baselines/BENCH_{}.json", env!("CARGO_MANIFEST_DIR"), config.scale.name())
    });
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("FAIL: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match SuiteReport::from_json(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("FAIL: cannot parse baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failures = check_against_baseline(&report, &baseline, tolerance);
    if failures.is_empty() {
        println!(
            "baseline check PASSED against {baseline_path} \
             (certainties bit-identical, wall time within {:.0}%)",
            tolerance * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("baseline check FAILED against {baseline_path}:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        ExitCode::FAILURE
    }
}

/// The human summary: per (family, query, ε) one row comparing the
/// three pipelines.
fn print_summary(report: &SuiteReport) {
    for family in &report.families {
        println!("\nfamily: {}", family.family);
        println!(
            "  {:<26} {:>6}  {:>9}  {:>11}  {:>11}  {:>11}  {:>8}  {:>7}",
            "query", "ε·10³", "dirs", "seq (s)", "batch (s)", "rewrite (s)", "rw-spdup", "exact"
        );
        for q in &family.queries {
            for eps in &report.epsilons {
                let find = |pipeline: &str| {
                    q.points.iter().find(|p| p.pipeline == pipeline && p.epsilon == *eps)
                };
                let (Some(seq), Some(batch), Some(rw)) =
                    (find("seq"), find("batch"), find("rewrite"))
                else {
                    continue;
                };
                let exact = rw
                    .rewrite
                    .as_ref()
                    .and_then(|r| {
                        let get = |k: &str| r.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
                        Some(format!("{}/{}", get("exact_factors")?, get("factors")?))
                    })
                    .unwrap_or_default();
                println!(
                    "  {:<26} {:>6.0}  {:>9}  {:>11.6}  {:>11.6}  {:>11.6}  {:>7.2}x  {:>7}",
                    q.name,
                    eps * 1000.0,
                    seq.directions,
                    seq.seconds,
                    batch.seconds,
                    rw.seconds,
                    batch.seconds / rw.seconds.max(1e-9),
                    exact,
                );
            }
        }
    }
}
