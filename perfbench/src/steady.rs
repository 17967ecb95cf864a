//! Steadiness mode: runs each workload with seeds 1..=runs and
//! prints, per end-to-end metric, the median, the interquartile spread
//! and the worst deviation, each as a share of the median.
//!
//! ```text
//! perfbench steady [--runs 10] [--seconds 20] [--workload w]... [--trace 0|1]
//! ```
//!
//! With `--trace 1` the runs are traced; comparing their medians with an
//! untraced set gives the tracing overhead.

use std::collections::BTreeMap;
use std::process::Command;

use pebble_nested::{json, Value};

use crate::stats::{median, quartiles};
use crate::WORKLOADS;

/// One run's outcome: its operation counts (from the result line) and its
/// end-to-end metrics (from the `e2e` line, which traced runs print too).
struct RunResult {
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn parse_result(stdout: &str) -> Option<RunResult> {
    let Ok(Value::Item(doc)) = json::parse(stdout.lines().last()?) else {
        return None;
    };
    let num = |v: &Value| v.as_int().map(|n| n as f64).or(v.as_double());
    let e2e = stdout.lines().find(|l| l.starts_with("e2e"))?;
    let mut metrics = BTreeMap::new();
    for pair in e2e.split_once(": ")?.1.split_whitespace() {
        let (name, value) = pair.split_once('=')?;
        let number: String = value
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | '+'))
            .collect();
        metrics.insert(name.to_string(), number.parse().ok()?);
    }
    Some(RunResult {
        attempted: doc.get("attempted").and_then(num)?,
        failed: doc.get("failed").and_then(num)?,
        metrics,
    })
}

pub fn main(args: &[String]) -> i32 {
    let mut runs = 10u64;
    let mut seconds = String::from("20");
    let mut workloads: Vec<String> = Vec::new();
    let mut trace = "0";
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = it.next();
        match (arg.as_str(), value) {
            ("--runs", Some(v)) => runs = v.parse().unwrap_or(runs),
            ("--seconds", Some(v)) => seconds = v.clone(),
            ("--workload", Some(v)) => workloads.push(v.clone()),
            ("--trace", Some(v)) => trace = if v == "1" { "1" } else { "0" },
            _ => {
                eprintln!("usage: perfbench steady [--runs n] [--seconds s] [--workload w]... [--trace 0|1]");
                return 2;
            }
        }
    }
    if workloads.is_empty() {
        workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench steady: {e}");
            return 1;
        }
    };
    let mut status = 0;
    for workload in &workloads {
        let mut results = Vec::new();
        for seed in 1..=runs {
            let out = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds, "--trace", trace])
                .output();
            match out
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| parse_result(&String::from_utf8_lossy(&o.stdout)))
            {
                Some(r) => results.push(r),
                None => {
                    eprintln!("perfbench steady: {workload} seed {seed} failed");
                    status = 1;
                }
            }
        }
        if results.len() < 2 {
            continue;
        }
        let shares: Vec<String> = results
            .iter()
            .map(|r| format!("{}/{}", r.failed, r.attempted))
            .collect();
        println!(
            "{workload}: {} runs, failed/attempted {}",
            results.len(),
            shares.join(" ")
        );
        println!(
            "  {:<24} {:>14} {:>9} {:>9}",
            "metric", "median", "iqr/med", "worst"
        );
        for name in results[0].metrics.keys() {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            let med = median(&values);
            let [q1, _, q3] = quartiles(&values);
            let worst = values.iter().map(|v| (v - med).abs()).fold(0.0, f64::max);
            println!(
                "  {name:<24} {med:>14.4} {:>8.1}% {:>8.1}%",
                100.0 * (q3 - q1) / med,
                100.0 * worst / med
            );
        }
    }
    status
}
