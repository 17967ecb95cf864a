//! The `tab7-memory` and `tab7-budget` workloads: the Tab. 7 scenarios
//! through the whole lifecycle, round after round.
//!
//! One round runs, for every scenario: a plain and a captured execution,
//! a persist of the captured run to a segment file, a cold open of that
//! file, and in-process queries against the freshly opened store (the
//! scenario's own tree pattern and a few distinct whole-item
//! backtraces). Under the budget, the same queries are also answered from
//! the run itself, whose capture chunks are read back from spill files.
//! Round 0 is a warm-up that also runs the reference-interpreter checks;
//! the metrics are medians over the rounds after it, which alternate the
//! scenario order.

use std::time::Instant;

use pebble_core::{
    backtrace, backtrace_with, run_captured, run_captured_observed, BacktraceIndex, CapturedRun,
    SourceProvenance,
};
use pebble_dataflow::{run_observed, Context, ExecConfig, NoSink, ObsConfig, RunReport};
use pebble_serve::{persist, ProvStore};
use pebble_workloads::{
    dblp, dblp_scenarios, twitter, twitter_scenarios, DblpConfig, Scenario, TwitterConfig,
};

use crate::stats::{median, quantile, Layers, SETUP_TAG, WARMUP};
use crate::trace::layer;
use crate::{check, exec_config, peak_rss_mb, Ops, Opts, Report};

/// Tweets generated for the T scenarios (the Tab. 7 base size).
const TWEETS: usize = 2_000;
/// DBLP records generated for the D scenarios (the Tab. 7 base size).
const DBLP_RECORDS: usize = 6_000;
/// Memory budget of `tab7-budget`, far below every scenario's peak
/// tracked bytes, so unit outputs, join builds, group shuffles and
/// capture chunks all spill.
const BUDGET_BYTES: usize = 16 * 1024;
/// Set-up repetitions before the first round; one more follows every
/// measured round, and `setup_s` is the median of them all.
const SETUP_REPS: u64 = 5;
/// Distinct whole-item backtraces per scenario and round.
const WHOLE_ITEM_QUERIES: usize = 8;
/// Questions the budgeted run answers itself, besides the store: the
/// scenario's pattern and the first whole-item backtrace.
const RUN_QUESTIONS: usize = 2;
/// Measured rounds a run makes even when `--seconds` has run out.
const MIN_ROUNDS: usize = 3;
/// Percentile of all query latencies reported as `query_tail_ms`, without
/// and with the budget. Each falls inside the slowest block of samples
/// (the D3 and D5 pattern queries: 2.2% and 4.5% of the samples), not
/// between blocks, and leaves at least ten samples beyond it in a run.
const TAIL: [f64; 2] = [0.99, 0.98];
/// Reference check on every `REF_STRIDE`-th output row.
const REF_STRIDE: usize = 16;

/// Generated input datasets.
pub struct Inputs {
    pub twitter: Context,
    pub dblp: Context,
}

/// Generates the seeded inputs and builds their contexts once; returns
/// them with the time that took (s).
pub fn setup(
    seed: u64,
    tweets: usize,
    records: usize,
    tag: u64,
    layers: &mut Layers,
) -> (Inputs, f64) {
    let start = Instant::now();
    let (tweets, _) = layer("workloads.generate", tag, || {
        twitter::generate(&TwitterConfig {
            seed,
            ..TwitterConfig::sized(tweets)
        })
    });
    let (data, _) = layer("workloads.generate", tag, || {
        dblp::generate(&DblpConfig {
            seed,
            ..DblpConfig::sized(records)
        })
    });
    let source_items = tweets.len() + data.len();
    let mut twitter = Context::new();
    twitter.register("tweets", tweets);
    let mut dblp = Context::new();
    data.register(&mut dblp);
    let secs = start.elapsed().as_secs_f64();
    layers.add("workloads.source_items", tag, source_items as f64);
    (Inputs { twitter, dblp }, secs)
}

/// Sums of one measured round.
#[derive(Default)]
struct Round {
    items: f64,
    plain_ms: f64,
    capture_ms: f64,
    persist_ms: f64,
    open_ms: f64,
    segment_bytes: f64,
    queries: f64,
    query_ms: f64,
}

/// Adds a run report's counters to the round's per-layer values.
pub fn absorb_report(layers: &mut Layers, tag: u64, r: &RunReport) {
    for op in &r.operators {
        let kind = match op.op_type.as_str() {
            "aggregation" => "group",
            "read" => continue,
            other => other,
        };
        layers.add(
            &format!("dataflow.op_busy_ms.{kind}"),
            tag,
            op.busy_ns as f64 / 1e6,
        );
    }
    layers.add("dataflow.morsels", tag, r.morsels.executed as f64);
    layers.add(
        "dataflow.pool_jobs",
        tag,
        r.pool.as_ref().map_or(0, |p| p.jobs) as f64,
    );
    if let Some(s) = &r.spill {
        layers.add("dataflow.spill_bytes", tag, s.spill_bytes as f64);
        layers.add("dataflow.spills", tag, s.spills as f64);
        layers.add("dataflow.reloads", tag, s.reloads as f64);
        layers.add(
            "dataflow.capture_spill_bytes",
            tag,
            s.capture_spill_bytes as f64,
        );
        layers.max(
            "dataflow.peak_tracked_bytes",
            tag,
            s.peak_tracked_bytes as f64,
        );
    }
}

/// Adds a captured run's provenance sizes to the round's per-layer values.
pub fn absorb_capture(layers: &mut Layers, tag: u64, run: &CapturedRun) {
    let entries = run
        .output
        .report
        .provenance
        .as_ref()
        .map_or(0, |p| p.entries);
    layers.add("core.assoc_entries", tag, entries as f64);
    layers.add("core.structural_bytes", tag, run.structural_bytes() as f64);
    layers.add("core.lineage_bytes", tag, run.lineage_bytes() as f64);
}

/// Source items a run read.
pub fn source_items(r: &RunReport) -> f64 {
    r.sources.iter().map(|(_, n)| *n as f64).sum()
}

/// Traced source items in an answer.
pub fn traced_items(answer: &[SourceProvenance]) -> f64 {
    answer.iter().map(|s| s.entries.len() as f64).sum()
}

/// True when the scenario joins or groups (the ones `tab7-budget` runs).
fn joins_or_groups(s: &Scenario) -> bool {
    s.program
        .operators()
        .iter()
        .any(|op| matches!(op.kind.type_name(), "join" | "aggregation"))
}

fn has_op(s: &Scenario, ty: &str) -> bool {
    s.program
        .operators()
        .iter()
        .any(|op| op.kind.type_name() == ty)
}

/// Every spillable kind spilled: unit outputs (with reloads), capture
/// chunks, and the join build and group shuffle where the scenario has
/// them.
fn check_spilled(s: &Scenario, r: &RunReport) -> check::Checked {
    let spill = r
        .spill
        .as_ref()
        .ok_or_else(|| format!("{}: budgeted run reports no spill section", s.name))?;
    let op_spill = |ty: &str| -> u64 {
        r.operators
            .iter()
            .filter(|o| o.op_type == ty)
            .map(|o| o.spill_bytes)
            .sum()
    };
    let mut missing = Vec::new();
    if spill.spills == 0 || spill.reloads == 0 {
        missing.push("unit outputs");
    }
    if spill.capture_spills == 0 {
        missing.push("capture chunks");
    }
    if has_op(s, "join") && op_spill("join") == 0 {
        missing.push("join build");
    }
    if has_op(s, "aggregation") && op_spill("aggregation") == 0 {
        missing.push("group shuffle");
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{}: nothing spilled for {}",
            s.name,
            missing.join(", ")
        ))
    }
}

struct Ctx<'a> {
    opts: &'a Opts,
    cfg: ExecConfig,
    obs: ObsConfig,
    ops: Ops,
    layers: Layers,
    /// Measured query latencies (ms), per scenario.
    latencies: Vec<Vec<f64>>,
}

/// Scenario `i`'s lifecycle in round `round` (round 0 is the warm-up).
fn scenario_round(
    c: &mut Ctx,
    i: usize,
    s: &Scenario,
    ctx: &Context,
    free: Option<&CapturedRun>,
    round: usize,
    tot: &mut Round,
) -> check::Checked {
    let tag = if round == 0 { WARMUP } else { round as u64 };
    let name = s.name;
    let ((plain, _), plain_ms) = layer("dataflow.plain_run", tag, || {
        run_observed(&s.program, ctx, c.cfg, &NoSink, &c.obs)
    });
    let ((captured, _), capture_ms) = layer("core.run_captured", tag, || {
        run_captured_observed(&s.program, ctx, c.cfg, &c.obs)
    });
    let plain = c.ops.record("scenario_run", plain);
    let run = c.ops.record("scenario_run", captured);
    let (Some(plain), Some(run)) = (plain, run) else {
        return Ok(());
    };
    check::capture_transparent(name, &plain, &run)?;
    if let Some(free) = free {
        check::budget_transparent(name, &run, free)?;
        if round == 0 {
            check_spilled(s, &run.output.report)?;
        }
    }
    if round == 0 {
        let stride = if c.opts.full_verify { 1 } else { REF_STRIDE };
        check::reference(name, &s.program, ctx, &run, &s.query, stride)?;
    }
    tot.items += source_items(&run.output.report);
    tot.plain_ms += plain_ms;
    tot.capture_ms += capture_ms;
    absorb_report(&mut c.layers, tag, &plain.report);
    absorb_report(&mut c.layers, tag, &run.output.report);
    absorb_capture(&mut c.layers, tag, &run);
    c.layers.add("core.capture_ms", tag, capture_ms - plain_ms);

    // Persist, then cold-open what was written.
    // A new file every round, as a new segment is; overwriting one file
    // would time the file system's replace-by-truncate path instead.
    let path = c.opts.tmp.join(format!("{name}-{round}.seg"));
    let (bytes, encode_ms) = layer("serve.encode", tag, || persist(&run));
    let (written, write_ms) = layer("serve.write", tag, || std::fs::write(&path, &bytes));
    if c.ops.record("persist", written).is_none() {
        return Ok(());
    }
    tot.persist_ms += encode_ms + write_ms;
    tot.segment_bytes += bytes.len() as f64;
    c.layers.add("serve.segment_bytes", tag, bytes.len() as f64);
    drop(bytes);
    let (read, read_ms) = layer("serve.read", tag, || std::fs::read(&path));
    let Some(read) = c.ops.record("open", read) else {
        return Ok(());
    };
    let (store, decode_ms) = layer("serve.decode", tag, || ProvStore::from_bytes(&read));
    let Some(store) = c.ops.record("open", store) else {
        return Ok(());
    };
    tot.open_ms += read_ms + decode_ms;
    let _ = std::fs::remove_file(&path);
    check::store_matches(name, &run, &store)?;

    // Queries: the scenario's own tree pattern, then distinct whole-item
    // backtraces; each answered by the store (the first `RUN_QUESTIONS`
    // under a budget also by the run itself) and checked against the
    // in-memory answer.
    let index = BacktraceIndex::build(&run);
    let mut questions = Vec::new();
    let (pattern, match_ms) = layer("core.pattern_match", tag, || {
        s.query.match_rows(store.rows())
    });
    questions.push(("query.pattern", pattern, match_ms));
    let n = store.rows().len();
    for j in 0..WHOLE_ITEM_QUERIES.min(n) {
        // Rows spread over the output, shifted every round.
        let idx = (j * n / WHOLE_ITEM_QUERIES + round * 7) % n;
        let question = store.whole_item(idx).map_err(|e| e.to_string())?;
        questions.push(("query.backtrace", question, 0.0));
    }
    for (q, (kind, question, match_ms)) in questions.into_iter().enumerate() {
        let want = backtrace_with(&run, &index, question.clone())
            .map_err(|e| format!("{name}: in-memory backtrace failed: {e}"))?;
        let (got, ms) = layer("core.backtrace", tag, || store.backtrace(question.clone()));
        if let Some(got) = c.ops.record(kind, got) {
            check::same_answer(name, "store answer", &got, &want)?;
            c.layers
                .add("core.backtrace_sources", tag, traced_items(&got));
            tot.queries += 1.0;
            tot.query_ms += match_ms + ms;
            if tag != WARMUP {
                c.latencies[i].push(match_ms + ms);
            }
        }
        if free.is_some() && q < RUN_QUESTIONS {
            let (got, ms) = layer("core.backtrace", tag, || backtrace(&run, question));
            if let Some(got) = c.ops.record(kind, got) {
                check::same_answer(name, "answer from the spilled run", &got, &want)?;
                tot.queries += 1.0;
                tot.query_ms += match_ms + ms;
                if tag != WARMUP {
                    c.latencies[i].push(match_ms + ms);
                }
            }
        }
    }
    Ok(())
}

pub fn run(opts: &Opts, budget: bool) -> Result<Report, String> {
    let mut layers = Layers::default();
    let mut setup_times = Vec::new();
    let mut inputs = None;
    for rep in 0..SETUP_REPS {
        let (i, secs) = setup(
            opts.seed,
            TWEETS,
            DBLP_RECORDS,
            SETUP_TAG + rep,
            &mut layers,
        );
        setup_times.push(secs);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up");
    let scenarios: Vec<(Scenario, &Context)> = twitter_scenarios()
        .into_iter()
        .map(|s| (s, &inputs.twitter))
        .chain(dblp_scenarios().into_iter().map(|s| (s, &inputs.dblp)))
        .filter(|(s, _)| !budget || joins_or_groups(s))
        .collect();
    let mut c = Ctx {
        opts,
        cfg: exec_config(if budget { BUDGET_BYTES } else { 0 }),
        obs: opts.obs(),
        ops: Ops::default(),
        layers,
        latencies: vec![Vec::new(); scenarios.len()],
    };
    // Referee for the budget workload: each scenario without a budget.
    let free: Vec<Option<CapturedRun>> = scenarios
        .iter()
        .map(|(s, ctx)| {
            budget
                .then(|| run_captured(&s.program, ctx, exec_config(0)))
                .transpose()
                .map_err(|e| format!("{}: unbudgeted referee run failed: {e}", s.name))
        })
        .collect::<Result<_, _>>()?;

    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut round = 0;
    loop {
        if round > 0 && rounds.len() >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= opts.seconds
        {
            break;
        }
        let mut order: Vec<usize> = (0..scenarios.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        let mut tot = Round::default();
        for i in order {
            let (s, ctx) = &scenarios[i];
            scenario_round(&mut c, i, s, ctx, free[i].as_ref(), round, &mut tot)?;
        }
        if round > 0 {
            rounds.push(tot);
            let tag = SETUP_TAG + SETUP_REPS + round as u64;
            let (_, secs) = setup(opts.seed, TWEETS, DBLP_RECORDS, tag, &mut c.layers);
            setup_times.push(secs);
        }
        round += 1;
    }

    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    // Each scenario's queries form a block of similar latencies; the
    // median of the per-scenario medians weighs every scenario equally
    // and never lands in the gap between two blocks.
    let p50 = median(&c.latencies.iter().map(|l| median(l)).collect::<Vec<_>>());
    let lat: Vec<f64> = c.latencies.iter().flatten().copied().collect();
    let tail = TAIL[budget as usize];
    let mut report = Report {
        e2e: vec![
            ("setup_s", median(&setup_times), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            (
                "capture_items_per_s",
                per_round(&|r| r.items / (r.capture_ms / 1e3)),
                "1/s",
            ),
            ("persist_ms", per_round(&|r| r.persist_ms), "ms"),
            (
                "segment_bytes_per_item",
                per_round(&|r| r.segment_bytes / r.items),
                "B/item",
            ),
            ("cold_open_ms", per_round(&|r| r.open_ms), "ms"),
            ("query_p50_ms", p50, "ms"),
            ("query_tail_ms", quantile(&lat, tail), "ms"),
            (
                "queries_per_s",
                per_round(&|r| r.queries / (r.query_ms / 1e3)),
                "1/s",
            ),
        ],
        ops: c.ops,
        layers: c.layers,
        notes: Vec::new(),
    };
    report.notes.push(format!(
        "{}: {} scenarios, {} measured rounds in {:.1} s, {} query samples (p{} has {} beyond), budget {} B",
        opts.workload,
        scenarios.len(),
        rounds.len(),
        start.elapsed().as_secs_f64(),
        lat.len(),
        (tail * 100.0).round(),
        (lat.len() as f64 * (1.0 - tail)).floor(),
        if budget { BUDGET_BYTES } else { 0 },
    ));
    Ok(report)
}
