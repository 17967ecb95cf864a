//! Lifecycle benchmark for pebble: generate → execute (capture off and on)
//! → persist a segment → cold-open → answer queries, on the Tab. 7
//! scenarios with and without a memory budget and as mixed service
//! traffic. See README.md in this directory.
//!
//! ```text
//! perfbench --workload <tab7-memory|tab7-budget|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--full-verify]
//! perfbench steady [--runs <n>] [--seconds <s>] [--workload <w>]... [--trace <0|1>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": true, "attempted": N, "failed": F, "metrics": {...}}` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Any wrong answer exits with code 1 and prints no result.

mod check;
mod serve;
mod stats;
mod steady;
mod tab7;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};

use pebble_dataflow::{ExecConfig, ObsConfig};

use crate::stats::Layers;

/// The workloads, in the order `steady` runs them.
pub const WORKLOADS: [&str; 3] = ["tab7-memory", "tab7-budget", "serve-mixed"];

/// Logical partitions of every engine run (identifiers depend on it).
pub const PARTITIONS: usize = 2;

/// Per-layer metrics printed by the traced run, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_ms", "ms"),
    ("workloads.source_items", "count"),
    ("dataflow.plain_run_ms", "ms"),
    ("dataflow.op_busy_ms.filter", "ms"),
    ("dataflow.op_busy_ms.select", "ms"),
    ("dataflow.op_busy_ms.map", "ms"),
    ("dataflow.op_busy_ms.flatten", "ms"),
    ("dataflow.op_busy_ms.join", "ms"),
    ("dataflow.op_busy_ms.group", "ms"),
    ("dataflow.op_busy_ms.union", "ms"),
    ("dataflow.morsels", "count"),
    ("dataflow.pool_jobs", "count"),
    ("dataflow.spill_bytes", "B"),
    ("dataflow.spills", "count"),
    ("dataflow.reloads", "count"),
    ("dataflow.capture_spill_bytes", "B"),
    ("dataflow.peak_tracked_bytes", "B"),
    ("core.capture_ms", "ms"),
    ("core.assoc_entries", "count"),
    ("core.structural_bytes", "B"),
    ("core.lineage_bytes", "B"),
    ("serve.encode_ms", "ms"),
    ("serve.write_ms", "ms"),
    ("serve.segment_bytes", "B"),
    ("serve.read_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("core.pattern_match_ms", "ms"),
    ("core.backtrace_ms", "ms"),
    ("core.backtrace_sources", "count"),
    ("core.whynot_ms", "ms"),
    ("serve.client_p50_ms.backtrace", "ms"),
    ("serve.client_p50_ms.pattern", "ms"),
    ("serve.client_p50_ms.heatmap", "ms"),
    ("serve.client_p50_ms.audit", "ms"),
    ("serve.client_p50_ms.whynot", "ms"),
    ("serve.eval_p50_ms.backtrace", "ms"),
    ("serve.eval_p50_ms.pattern", "ms"),
    ("serve.eval_p50_ms.heatmap", "ms"),
    ("serve.eval_p50_ms.audit", "ms"),
    ("serve.eval_p50_ms.whynot", "ms"),
    ("serve.connections", "count"),
    ("serve.frames", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.requests_per_conn", "count"),
    ("trace.spans", "count"),
];

/// Command-line options of one measured run.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Checks every output row against the reference interpreter, not a
    /// sample.
    pub full_verify: bool,
    /// Per-run directory for segment and spill files.
    pub tmp: PathBuf,
}

impl Opts {
    /// Observability of engine runs: metrics only in the traced run.
    pub fn obs(&self) -> ObsConfig {
        if self.trace {
            ObsConfig::metrics()
        } else {
            ObsConfig::disabled()
        }
    }
}

/// Attempted and failed operations, per kind.
#[derive(Default)]
pub struct Ops {
    pub attempted: BTreeMap<String, u64>,
    pub failed: BTreeMap<String, u64>,
}

impl Ops {
    /// Counts one attempt of `kind`, and a failure when `r` is an error.
    pub fn record<T, E: Display>(&mut self, kind: &str, r: Result<T, E>) -> Option<T> {
        *self.attempted.entry(kind.to_string()).or_insert(0) += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                *self.failed.entry(kind.to_string()).or_insert(0) += 1;
                eprintln!("perfbench: {kind} failed: {e}");
                None
            }
        }
    }

    pub fn total_attempted(&self) -> u64 {
        self.attempted.values().sum()
    }

    pub fn total_failed(&self) -> u64 {
        self.failed.values().sum()
    }
}

/// What one workload run measured.
pub struct Report {
    pub ops: Ops,
    /// End-to-end metrics: name, value, unit.
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    pub layers: Layers,
    /// Facts about the run printed before the result line.
    pub notes: Vec<String>,
}

/// Engine configuration of every run: partitions, workers and budget set
/// here, every other field from the program's default.
pub fn exec_config(budget_bytes: usize) -> ExecConfig {
    ExecConfig {
        partitions: PARTITIONS,
        workers: threads(),
        mem_budget_bytes: budget_bytes,
        ..ExecConfig::default()
    }
}

/// Engine workers, server pool size and client threads: two, or fewer on
/// a smaller machine.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Steal and total ticks of the machine's CPUs so far (`/proc/stat`): time
/// the host gave to other guests, a source of noise this benchmark cannot
/// remove but reports.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--full-verify]\n       \
         perfbench steady [--runs <n>] [--seconds <s>] [--workload <w>]... [--trace <0|1>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_opts(args: &[String]) -> Opts {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        full_verify: false,
        tmp: PathBuf::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => opts.workload = value(),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => opts.trace = value() == "1",
            "--full-verify" => opts.full_verify = true,
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) || opts.seconds <= 0.0 {
        usage();
    }
    opts
}

/// Removes every `PEBBLE_*` variable so no configuration leaks in from the
/// environment, then points spill files at the run's own directory.
fn scrub_env(tmp: &Path) {
    let keys: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("PEBBLE_"))
        .collect();
    for k in keys {
        std::env::remove_var(k);
    }
    std::env::set_var("PEBBLE_SPILL_DIR", tmp);
}

fn result_line(report: &Report, trace_run: bool) -> String {
    let metrics: Vec<String> = if trace_run {
        PER_LAYER
            .iter()
            .map(|(name, unit)| metric_json(name, report.layers.value(name), unit))
            .collect()
    } else {
        report
            .e2e
            .iter()
            .map(|(name, v, unit)| metric_json(name, *v, unit))
            .collect()
    };
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.ops.total_attempted(),
        report.ops.total_failed(),
        metrics.join(", ")
    )
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steady") {
        std::process::exit(steady::main(&args[1..]));
    }
    let mut opts = parse_opts(&args);
    let out_dir = std::env::current_dir()
        .expect("current directory")
        .join(".perfbench");
    opts.tmp = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&opts.tmp) {
        eprintln!("perfbench: cannot create {}: {e}", opts.tmp.display());
        std::process::exit(1);
    }
    scrub_env(&opts.tmp);
    pebble_obs::force_metrics(opts.trace);
    trace::init(opts.trace);
    let ticks_before = cpu_ticks();

    let outcome = match opts.workload.as_str() {
        "tab7-memory" => tab7::run(&opts, false),
        "tab7-budget" => tab7::run(&opts, true),
        _ => serve::run(&opts),
    };
    let _ = std::fs::remove_dir_all(&opts.tmp);
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: CHECK FAILED: {e}",
                opts.workload, opts.seed
            );
            std::process::exit(1);
        }
    };

    let spans = trace::drain();
    if opts.trace {
        let path = out_dir.join(format!("spans-{}-{}.ndjson", opts.workload, opts.seed));
        if let Err(e) = trace::write_ndjson(&path, &spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        report.layers.set("trace.spans", spans.len() as f64);
        report.layers.absorb_spans(&spans);
    }

    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        report.notes.push(format!(
            "cpu steal during the run: {:.1}%",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        ));
    }
    for note in &report.notes {
        println!("{note}");
    }
    let e2e: Vec<String> = report
        .e2e
        .iter()
        .map(|(n, v, u)| format!("{n}={v}{u}"))
        .collect();
    println!(
        "e2e{}: {}",
        if opts.trace { " (traced)" } else { "" },
        e2e.join(" ")
    );
    println!(
        "ops attempted {:?} failed {:?}",
        report.ops.attempted, report.ops.failed
    );
    println!("{}", result_line(&report, opts.trace));
}
