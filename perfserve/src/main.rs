//! `perfserve` command line.
//!
//! ```text
//! perfserve --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfserve steadiness [--runs 10] [--seconds 40]
//! ```
//!
//! A run prints its record (host, per-verb account, bases) and, as its
//! last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. A failed check prints the failure on stderr and
//! exits 1 without a result line.

use perfserve::host;
use perfserve::run::{run, Options, END_TO_END};
use perfserve::stats::{median, quartiles};
use perfserve::workload::Workload;
use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
        None => default.ok_or_else(|| format!("{name} is required")),
    }
}

fn bench(args: &[String]) -> Result<(), String> {
    let workload = Workload::parse(flag(args, "--workload").ok_or("--workload is required")?)?;
    let seed: u64 = parse(args, "--seed", None)?;
    let seconds: f64 = parse(args, "--seconds", None)?;
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let opts = Options {
        workload,
        shape: workload.full(),
        seed,
        seconds,
        trace,
        dir: cwd
            .join(".perfserve")
            .join(format!("{}-{}", workload.name(), std::process::id())),
    };

    std::fs::create_dir_all(&opts.dir).map_err(|e| e.to_string())?;
    println!(
        "perfserve: workload {} seed {seed} trace {} | git {} | nproc {} | cpu {} | checkpoint fs {} ({})",
        workload.name(),
        u8::from(trace),
        host::git_rev(&cwd),
        host::nproc(),
        host::cpu_model(),
        host::filesystem_of(&opts.dir),
        opts.dir.display(),
    );
    let outcome = run(&opts)?;
    for line in &outcome.record {
        println!("perfserve: {line}");
    }
    for (verb, (attempted, failed)) in &outcome.ledger.verbs {
        println!("perfserve: verb {verb:<8} attempted {attempted:>6} failed {failed:>6}");
    }
    println!("{}", outcome.json());
    Ok(())
}

/// Metric name → value of one child run's result line, the run's
/// failed share, and the host steal share its record printed.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: u64,
) -> Result<(BTreeMap<String, f64>, f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} failed: {}",
            workload.name(),
            out.status
        ));
    }
    let last = stdout.lines().last().ok_or("a run printed nothing")?;
    let steal = stdout
        .lines()
        .find_map(|l| l.strip_prefix("perfserve: host steal during the run: "))
        .and_then(|l| l.split_whitespace().next())
        .unwrap_or("unknown")
        .to_string();
    let value: Value = serde_json::from_str(last).map_err(|e| format!("result line: {e}"))?;
    let map = value.as_map().ok_or("result line is not an object")?;
    let num = |key: &str| {
        serde::field(map, key)
            .and_then(Value::as_f64)
            .ok_or(format!("result line lacks {key}"))
    };
    let share = num("failed")? / num("attempted")?;
    let metrics = serde::field(map, "metrics")
        .and_then(Value::as_map)
        .ok_or("result line lacks metrics")?;
    let mut values = BTreeMap::new();
    for (name, m) in metrics {
        let v = m
            .as_map()
            .and_then(|m| serde::field(m, "value"))
            .and_then(Value::as_f64)
            .ok_or(format!("metric {name} has no value"))?;
        values.insert(name.clone(), v);
    }
    Ok((values, share, steal))
}

fn steadiness(args: &[String]) -> Result<(), String> {
    let runs: u64 = parse(args, "--runs", Some(10))?;
    let seconds: u64 = parse(args, "--seconds", Some(40))?;
    println!("steadiness: {runs} runs per workload, {seconds} s each, seeds 1..={runs}");
    for workload in Workload::ALL {
        let mut per_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut shares = Vec::new();
        for seed in 1..=runs {
            let (values, share, steal) = run_child(workload, seed, seconds)?;
            let line: Vec<String> = END_TO_END
                .iter()
                .filter_map(|(name, _)| values.get(*name).map(|v| format!("{name}={v:.6}")))
                .collect();
            println!(
                "{} seed {seed}: {} steal={steal}",
                workload.name(),
                line.join(" ")
            );
            for (k, v) in values {
                per_metric.entry(k).or_default().push(v);
            }
            shares.push(share);
        }
        println!("\n{} ({runs} runs)", workload.name());
        println!(
            "{:<18} {:>14} {:>14} {:>14} {:>9} {:>8}",
            "metric", "median", "q1", "q3", "iqr/med", "max/min"
        );
        for (name, _) in END_TO_END {
            let v = per_metric.get(name).ok_or(format!("no {name} values"))?;
            let med = median(v)?;
            let [q1, _, q3] = quartiles(v)?;
            let max = v.iter().copied().fold(f64::MIN, f64::max);
            let min = v.iter().copied().fold(f64::MAX, f64::min);
            println!(
                "{name:<18} {med:>14.4} {q1:>14.4} {q3:>14.4} {:>9.4} {:>8.4}",
                (q3 - q1) / med,
                max / min
            );
        }
        let distinct: std::collections::BTreeSet<String> =
            shares.iter().map(|s| format!("{s:.9}")).collect();
        println!(
            "failed share per run: {}",
            distinct.into_iter().collect::<Vec<_>>().join(", ")
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("steadiness") {
        steadiness(&args[1..])
    } else {
        bench(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfserve: {e}");
            ExitCode::FAILURE
        }
    }
}
