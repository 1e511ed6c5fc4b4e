//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot_read|cold_read|write_mix|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One workload prints its metrics by name, with unit and sample
//! count, and ends with one JSON line: `{"correct", "attempted",
//! "failed", "metrics"}` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. `--workload all` runs every
//! workload in a process of its own, both ways, and prints the
//! end-to-end metrics and the per-layer table side by side. The exit
//! code is 0 only when every served answer checked; 2 on bad
//! arguments.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use qarith_perfbench::load::Workload;
use qarith_perfbench::run::{run_e2e, run_trace};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 15.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!(
            "--workload must be hot_read, cold_read, write_mix or all, got `{}`",
            args.workload
        ));
    }
    Ok(args)
}

/// Runs one workload in this process and prints its result.
fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let mode = if args.trace { "trace" } else { "e2e" };
    let title = format!("{} seed={} seconds={} {mode}", workload.name(), args.seed, args.seconds);
    let result = if args.trace {
        let spans = PathBuf::from(".bench_out").join(format!(
            "spans-{}-seed{}.tsv",
            workload.name(),
            args.seed
        ));
        run_trace(workload, args.seed, args.seconds, &spans)
    } else {
        run_e2e(workload, args.seed, args.seconds)
    };
    match result {
        Ok((outcome, notes)) => {
            print!("{}", outcome.table(&title));
            for note in notes {
                println!("  {note}");
            }
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {title}: served answers do not check");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {title}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `(name, value, unit)` of every metric in a result line.
fn parse_metrics(line: &str) -> Vec<(String, String, String)> {
    let Some(body) = line.split_once("\"metrics\": {").map(|(_, b)| b) else {
        return Vec::new();
    };
    body.split("}, \"")
        .filter_map(|entry| {
            let (name, rest) = entry.trim_start_matches('"').split_once("\": {\"value\": ")?;
            let (value, unit) = rest.split_once(", \"unit\": \"")?;
            let unit = unit.split('"').next()?;
            Some((name.to_string(), value.to_string(), unit.to_string()))
        })
        .collect()
}

/// Runs every workload, end to end and traced, each in its own
/// process, and prints both tables.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut tables: [Vec<Vec<(String, String, String)>>; 2] = [Vec::new(), Vec::new()];
    for (t, trace) in ["0", "1"].into_iter().enumerate() {
        for workload in Workload::ALL {
            let output = Command::new(&exe)
                .args(["--workload", workload.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(Stdio::inherit())
                .output();
            let output = match output {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("perfbench: cannot run {}: {e}", workload.name());
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            ok &= output.status.success();
            tables[t].push(parse_metrics(stdout.lines().last().unwrap_or_default()));
        }
    }
    for (title, table) in ["end-to-end", "per-layer (traced replay)"].iter().zip(&tables) {
        println!("\n{title:<36} {:>14} {:>14} {:>14}", "hot_read", "cold_read", "write_mix");
        let Some(first) = table.first() else { continue };
        for (i, (name, _, unit)) in first.iter().enumerate() {
            let cell = |w: usize| -> String {
                table.get(w).and_then(|m| m.get(i)).map_or("-".to_string(), |m| {
                    m.1.parse::<f64>().map_or(m.1.clone(), |v| format!("{v:.4}"))
                })
            };
            println!("{:<36} {:>14} {:>14} {:>14}  {unit}", name, cell(0), cell(1), cell(2));
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match Workload::parse(&args.workload) {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}
