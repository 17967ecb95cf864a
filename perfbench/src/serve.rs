//! The `serve-mixed` workload: one captured DBLP run, persisted,
//! cold-opened and served by `Server::start_live`, under closed-loop
//! traffic from `threads()` clients over loopback.
//!
//! Each client runs sessions of `MIX.len()` requests on one connection:
//! distinct `BACKTRACE` requests (whole-item and path-restricted, walking
//! a universe of rows × path subsets), the repeated whole-store scans
//! `HEATMAP`, `PATTERN` and `AUDIT`, and `WHYNOT`. Every answer of the
//! universe is first computed in-process from the in-memory run and
//! compared with a serial single-connection baseline; every response
//! under load must then equal it byte for byte, and the server's `STATS`
//! per-kind deltas must equal the clients' counts.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pebble_core::whynot::{parse_whynot_query, why_not};
use pebble_core::{
    backtrace_with, canonical_provenance, run_captured_observed, AuditReport, Backtrace,
    BacktraceIndex, CapturedRun, Heatmap, ProvTree, SourceProvenance, TreePattern,
};
use pebble_dataflow::{run_observed, Context, NoSink};
use pebble_nested::{json, DataItem, Path, Value};
use pebble_obs::json_escape;
use pebble_serve::{persist, ProvStore, ServeConfig, Server};
use pebble_workloads::scenarios::d1;

use crate::stats::{median, quantile, Layers, SETUP_TAG, WARMUP};
use crate::tab7::{absorb_capture, absorb_report, setup, source_items, traced_items};
use crate::trace::layer;
use crate::{check, exec_config, peak_rss_mb, threads, Ops, Opts, Report};

/// DBLP records of the served run (twice the Tab. 7 base size).
const RECORDS: usize = 12_000;
/// Traffic epochs of a run; each is preceded by a set-up and
/// `LIFECYCLE_REPS` lifecycle repetitions (capture, persist, cold open).
const EPOCHS: u64 = 10;
const LIFECYCLE_REPS: u64 = 5;
/// Path subsets per row in the backtrace universe (subset 0 = whole item).
const PATH_VARIANTS: usize = 24;
/// Percentile reported as `query_tail_ms`: inside the block of `AUDIT`
/// latencies (1 request in 24), with over ten samples beyond it in every
/// epoch.
const TAIL: f64 = 0.98;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Kind {
    Backtrace,
    Pattern,
    Heatmap,
    Audit,
    WhyNot,
}

impl Kind {
    const ALL: [Kind; 5] = [
        Kind::Backtrace,
        Kind::Pattern,
        Kind::Heatmap,
        Kind::Audit,
        Kind::WhyNot,
    ];

    /// The request kind's name in `STATS`.
    fn name(self) -> &'static str {
        match self {
            Kind::Backtrace => "backtrace",
            Kind::Pattern => "pattern",
            Kind::Heatmap => "heatmap",
            Kind::Audit => "audit",
            Kind::WhyNot => "whynot",
        }
    }
}

/// One session: twenty distinct backtraces, the three scans, one why-not.
/// Backtraces are five in six requests, so the median request is a
/// backtrace near the middle of their latencies; the scans still take
/// most of the CPU.
const MIX: [&str; 24] = [
    "BT", "BT", "BT", "BT", "BT", "HEATMAP", "BT", "BT", "BT", "BT", "BT", "PATTERN", "BT", "BT",
    "BT", "BT", "BT", "AUDIT", "BT", "BT", "BT", "BT", "BT", "WHYNOT",
];

/// Whole-store scan requests (the heatmap renders 10 items).
const HEATMAP: &str = "HEATMAP 10";
const PATTERN: &str = "PATTERN //paper";
const AUDIT: &str = "AUDIT";
/// Why-not questions, asked in turn: a publisher and a title that are
/// never generated.
const WHYNOT: [&str; 2] = [
    "WHYNOT publisher=\"Publisher 9999\"",
    "WHYNOT paper=\"No Such Paper\"",
];

/// The requests the traffic draws from, with their expected frames.
struct Universe {
    backtraces: Vec<String>,
    expected: HashMap<String, Vec<String>>,
}

fn kind_of(request: &str) -> Kind {
    match request.split_whitespace().next() {
        Some("BACKTRACE") => Kind::Backtrace,
        Some("PATTERN") => Kind::Pattern,
        Some("HEATMAP") => Kind::Heatmap,
        Some("AUDIT") => Kind::Audit,
        _ => Kind::WhyNot,
    }
}

fn backtrace_frames(sources: &[SourceProvenance]) -> Vec<String> {
    let triples = canonical_provenance(sources);
    let mut frames = vec![format!("PROGRESS 0/{}", triples.len())];
    for (source, index, tree) in &triples {
        frames.push(format!(
            "DATA {{\"source\": \"{}\", \"index\": {index}, \"tree\": \"{}\"}}",
            json_escape(source),
            json_escape(tree),
        ));
    }
    frames.push(format!("DONE {}", triples.len()));
    frames
}

/// Folds the whole-item backtrace of every row into `f`, with the
/// count-based progress frames of a scan.
fn fold_rows(
    run: &CapturedRun,
    index: &BacktraceIndex,
    frames: &mut Vec<String>,
    mut f: impl FnMut(&SourceProvenance),
) -> Result<(), String> {
    let total = run.output.rows.len();
    let step = (total / 4).max(1);
    for idx in 0..total {
        let b = check::whole_item(&run.output.rows, idx);
        let (sources, _) = layer("core.backtrace", 0, || backtrace_with(run, index, b));
        for s in &sources.map_err(|e| e.to_string())? {
            f(s);
        }
        if (idx + 1) % step == 0 || idx + 1 == total {
            frames.push(format!("PROGRESS {}/{total}", idx + 1));
        }
    }
    if total == 0 {
        frames.push("PROGRESS 0/0".to_string());
    }
    Ok(())
}

/// The in-process answer to `request`, rendered as the service frames it.
fn in_process(
    run: &CapturedRun,
    ctx: &Context,
    index: &BacktraceIndex,
    request: &str,
    layers: &mut Layers,
) -> Result<Vec<String>, String> {
    let (verb, rest) = request.split_once(' ').unwrap_or((request, ""));
    let rows = &run.output.rows;
    let answer = |b: Backtrace, layers: &mut Layers| {
        let (sources, _) = layer("core.backtrace", 0, || backtrace_with(run, index, b));
        let sources = sources.map_err(|e| e.to_string())?;
        layers.add("core.backtrace_sources", 0, traced_items(&sources));
        Ok::<_, String>(backtrace_frames(&sources))
    };
    match verb {
        "BACKTRACE" => {
            let mut parts = rest.split_whitespace();
            let idx: usize = parts.next().and_then(|s| s.parse().ok()).ok_or("bad row")?;
            let b = match parts.next() {
                None => check::whole_item(rows, idx),
                Some(list) => {
                    let paths: Vec<Path> = list
                        .split(',')
                        .map(|p| p.parse().map_err(|e| format!("path {p}: {e}")))
                        .collect::<Result<_, _>>()?;
                    Backtrace {
                        entries: vec![(rows[idx].id, ProvTree::from_paths(paths.iter()))],
                    }
                }
            };
            answer(b, layers)
        }
        "PATTERN" => {
            let pattern = TreePattern::parse(rest).map_err(|e| e.to_string())?;
            let (b, _) = layer("core.pattern_match", 0, || pattern.match_rows(rows));
            answer(b, layers)
        }
        "HEATMAP" => {
            let n: usize = rest.parse().map_err(|_| "bad item count")?;
            let mut frames = Vec::new();
            let mut heatmap = Heatmap::new();
            fold_rows(run, index, &mut frames, |s| heatmap.absorb(s))?;
            let attributes = heatmap.attributes.clone();
            frames.push(format!(
                "DATA {{\"heatmap\": \"{}\"}}",
                json_escape(&heatmap.render(n, &attributes))
            ));
            let cold: Vec<String> = heatmap
                .cold_attributes(&attributes)
                .into_iter()
                .map(|a| format!("\"{}\"", json_escape(a)))
                .collect();
            frames.push(format!(
                "DATA {{\"cold_attributes\": [{}], \"cold_items\": {}}}",
                cold.join(", "),
                heatmap.cold_items(n).len()
            ));
            frames.push("DONE 2".to_string());
            Ok(frames)
        }
        "AUDIT" => {
            let mut frames = Vec::new();
            let mut report = AuditReport::default();
            fold_rows(run, index, &mut frames, |s| {
                report.merge(AuditReport::from_provenance(s))
            })?;
            for (index, paths) in &report.leaked {
                let mut rendered: Vec<String> = paths.iter().map(|p| p.to_string()).collect();
                rendered.sort();
                rendered.dedup();
                let quoted: Vec<String> = rendered
                    .iter()
                    .map(|p| format!("\"{}\"", json_escape(p)))
                    .collect();
                frames.push(format!(
                    "DATA {{\"index\": {index}, \"leaked\": [{}]}}",
                    quoted.join(", ")
                ));
            }
            frames.push(format!("DONE {}", report.leaked.len()));
            Ok(frames)
        }
        _ => {
            let conds = parse_whynot_query(rest).map_err(|e| e.to_string())?;
            let (answer, _) = layer("core.whynot", 0, || why_not(run, ctx, &conds));
            let lines = answer.map_err(|e| e.to_string())?.render(run);
            let mut frames = vec![format!("PROGRESS 0/{}", lines.len())];
            for l in &lines {
                frames.push(format!("DATA {{\"line\": \"{}\"}}", json_escape(l)));
            }
            frames.push(format!("DONE {}", lines.len()));
            Ok(frames)
        }
    }
}

/// Builds the request universe and its in-process answers.
fn universe(run: &CapturedRun, ctx: &Context, layers: &mut Layers) -> Result<Universe, String> {
    let index = BacktraceIndex::build(run);
    let rows = &run.output.rows;
    if rows.is_empty() {
        return Err("the served run has no rows".into());
    }
    // Path subsets of each row: subset 0 is the whole item, subset k > 0
    // takes the row's paths selected by the bits of k.
    let mut per_variant: Vec<Vec<String>> = vec![Vec::new(); PATH_VARIANTS];
    for (idx, row) in rows.iter().enumerate() {
        let paths: Vec<String> = Path::path_set(&row.item)
            .iter()
            .map(|p| p.to_string())
            .collect();
        let subsets = (1usize << paths.len().min(16)) - 1;
        for (v, list) in per_variant.iter_mut().enumerate() {
            if v == 0 {
                list.push(format!("BACKTRACE {idx}"));
            } else {
                let mask = (v - 1) % subsets + 1;
                let chosen: Vec<&str> = (0..paths.len())
                    .filter(|b| mask >> b & 1 == 1)
                    .map(|b| paths[b].as_str())
                    .collect();
                list.push(format!("BACKTRACE {idx} {}", chosen.join(",")));
            }
        }
    }
    // Row-major within each variant, so consecutive requests hit
    // different rows.
    let backtraces: Vec<String> = per_variant.into_iter().flatten().collect();
    let mut expected = HashMap::new();
    let fixed = [HEATMAP, PATTERN, AUDIT, WHYNOT[0], WHYNOT[1]];
    for request in backtraces.iter().map(String::as_str).chain(fixed) {
        if !expected.contains_key(request) {
            let frames = in_process(run, ctx, &index, request, layers)?;
            expected.insert(request.to_string(), frames);
        }
    }
    Ok(Universe {
        backtraces,
        expected,
    })
}

/// A client connection speaking the service's line protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and returns its content frames (the `QID` frame
    /// stripped) up to and including the terminal one.
    fn ask(&mut self, request: &str) -> std::io::Result<Vec<String>> {
        self.writer.write_all(format!("{request}\n").as_bytes())?;
        let mut frames = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let frame = line.trim_end();
            if frames.is_empty() && frame.starts_with("QID ") {
                continue;
            }
            frames.push(frame.to_string());
            if frame.starts_with("DONE ") || frame.starts_with("ERROR ") {
                return Ok(frames);
            }
        }
    }
}

/// A parsed `STATS` document.
struct Stats(DataItem);

impl Stats {
    fn fetch(client: &mut Client) -> Result<Stats, String> {
        let frames = client.ask("STATS").map_err(|e| format!("STATS: {e}"))?;
        let payload = frames
            .first()
            .and_then(|f| f.strip_prefix("DATA "))
            .ok_or("STATS returned no DATA frame")?;
        match json::parse(payload) {
            Ok(Value::Item(d)) => Ok(Stats(d)),
            _ => Err("STATS payload is not a JSON object".into()),
        }
    }

    fn get(&self, path: &[&str]) -> f64 {
        let mut item = &self.0;
        for (i, key) in path.iter().enumerate() {
            match item.get(key) {
                Some(Value::Item(d)) if i + 1 < path.len() => item = d,
                Some(v) if i + 1 == path.len() => {
                    return v
                        .as_int()
                        .map(|n| n as f64)
                        .or(v.as_double())
                        .unwrap_or(0.0)
                }
                _ => return 0.0,
            }
        }
        0.0
    }
}

/// What one client has seen, kept across traffic epochs.
#[derive(Default)]
struct ClientLog {
    completed: BTreeMap<Kind, u64>,
    attempted: BTreeMap<Kind, u64>,
    errors: BTreeMap<Kind, u64>,
    transport_errors: u64,
    latencies: BTreeMap<Kind, Vec<f64>>,
    /// Latencies of the current epoch, all kinds.
    epoch: Vec<f64>,
    mismatches: Vec<String>,
    /// Next position in the backtrace universe.
    cursor: usize,
    whynot: usize,
    request_id: u64,
}

/// Closed-loop client `c` of `clients`: whole sessions until `deadline`.
fn client_loop(
    log: &mut ClientLog,
    c: usize,
    clients: usize,
    addr: SocketAddr,
    universe: &Universe,
    deadline: Instant,
) {
    while Instant::now() < deadline && log.transport_errors < 10 {
        let Ok(mut conn) = Client::connect(addr) else {
            log.transport_errors += 1;
            continue;
        };
        // Clients start their sessions at different points of the mix so
        // that their scans do not line up.
        for j in 0..MIX.len() {
            let request: &str = match MIX[(j + c * MIX.len() / clients) % MIX.len()] {
                "BT" => {
                    let i = (log.cursor * clients + c) % universe.backtraces.len();
                    log.cursor += 1;
                    &universe.backtraces[i]
                }
                "HEATMAP" => HEATMAP,
                "PATTERN" => PATTERN,
                "AUDIT" => AUDIT,
                _ => {
                    log.whynot += 1;
                    WHYNOT[(log.whynot + c) % WHYNOT.len()]
                }
            };
            let kind = kind_of(request);
            log.request_id += 1;
            *log.attempted.entry(kind).or_insert(0) += 1;
            let id = (c as u64) << 32 | log.request_id;
            let (frames, ms) = layer("serve.request", id, || conn.ask(request));
            match frames {
                Ok(frames) => {
                    *log.completed.entry(kind).or_insert(0) += 1;
                    log.latencies.entry(kind).or_default().push(ms);
                    log.epoch.push(ms);
                    if frames.last().is_some_and(|f| f.starts_with("ERROR ")) {
                        *log.errors.entry(kind).or_insert(0) += 1;
                    }
                    if universe.expected.get(request) != Some(&frames) && log.mismatches.len() < 3 {
                        log.mismatches.push(format!(
                            "response to {request:?} under load differs from the baseline"
                        ));
                    }
                }
                Err(_) => {
                    log.transport_errors += 1;
                    break;
                }
            }
        }
    }
}

/// Lifecycle samples of the served scenario.
#[derive(Default)]
struct Lifecycle {
    setup_s: Vec<f64>,
    items_per_s: Vec<f64>,
    persist_ms: Vec<f64>,
    open_ms: Vec<f64>,
    bytes_per_item: Vec<f64>,
}

/// Generates fresh inputs (timed as set-up) and takes the scenario through
/// capture, persist and cold open `reps` times. Returns the last run, its
/// store and its context.
fn lifecycle(
    opts: &Opts,
    reps: u64,
    first_tag: u64,
    ops: &mut Ops,
    layers: &mut Layers,
    samples: &mut Lifecycle,
) -> Result<Option<(CapturedRun, ProvStore, Context)>, String> {
    let scenario = d1();
    let cfg = exec_config(0);
    let obs = opts.obs();
    let setup_tag = if first_tag == WARMUP {
        SETUP_TAG
    } else {
        SETUP_TAG + first_tag
    };
    let (inputs, setup_s) = setup(opts.seed, 0, RECORDS, setup_tag, layers);
    samples.setup_s.push(setup_s);
    let ctx = inputs.dblp;
    let mut last = None;
    for rep in 0..reps {
        let tag = if first_tag == WARMUP {
            WARMUP
        } else {
            first_tag + rep
        };
        let ((plain, _), plain_ms) = layer("dataflow.plain_run", tag, || {
            run_observed(&scenario.program, &ctx, cfg, &NoSink, &obs)
        });
        let ((captured, _), capture_ms) = layer("core.run_captured", tag, || {
            run_captured_observed(&scenario.program, &ctx, cfg, &obs)
        });
        let plain = ops.record("scenario_run", plain);
        let run = ops.record("scenario_run", captured);
        let (Some(plain), Some(run)) = (plain, run) else {
            continue;
        };
        check::capture_transparent("D1", &plain, &run)?;
        if tag == WARMUP {
            check::reference("D1", &scenario.program, &ctx, &run, &scenario.query, 1)?;
        }
        absorb_report(layers, tag, &plain.report);
        absorb_report(layers, tag, &run.output.report);
        absorb_capture(layers, tag, &run);
        layers.add("core.capture_ms", tag, capture_ms - plain_ms);
        let items = source_items(&run.output.report);

        let path = opts.tmp.join(format!("served-{tag}.seg"));
        let (bytes, encode_ms) = layer("serve.encode", tag, || persist(&run));
        let (written, write_ms) = layer("serve.write", tag, || std::fs::write(&path, &bytes));
        if ops.record("persist", written).is_none() {
            continue;
        }
        layers.add("serve.segment_bytes", tag, bytes.len() as f64);
        let (read, read_ms) = layer("serve.read", tag, || std::fs::read(&path));
        let Some(read) = ops.record("open", read) else {
            continue;
        };
        let (store, decode_ms) = layer("serve.decode", tag, || ProvStore::from_bytes(&read));
        let Some(store) = ops.record("open", store) else {
            continue;
        };
        let _ = std::fs::remove_file(&path);
        check::store_matches("D1", &run, &store)?;
        if tag != WARMUP {
            samples.items_per_s.push(items / (capture_ms / 1e3));
            samples.persist_ms.push(encode_ms + write_ms);
            samples.open_ms.push(read_ms + decode_ms);
            samples.bytes_per_item.push(bytes.len() as f64 / items);
        }
        last = Some((run, store));
    }
    Ok(last.map(|(run, store)| (run, store, ctx)))
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut ops = Ops::default();
    let mut layers = Layers::default();
    let mut samples = Lifecycle::default();

    // Warm-up lifecycle with the reference check; its run is the one served.
    let (run, store, ctx) = lifecycle(opts, 1, WARMUP, &mut ops, &mut layers, &mut samples)?
        .ok_or("the served run could not be captured")?;
    let universe = universe(&run, &ctx, &mut layers)?;
    let rows = run.output.rows.len();
    let workers = threads();
    let server_cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        debug_panic: false,
        trace_path: None,
    };
    let start = Instant::now();
    let server = Server::start_live(Arc::new(store), run, ctx, &server_cfg);
    let start_s = start.elapsed().as_secs_f64();
    let mut server = server.map_err(|e| format!("server start failed: {e}"))?;
    let addr = server.local_addr();

    // Serial single-connection baseline of the whole universe.
    let mut baseline = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let fixed = [HEATMAP, PATTERN, AUDIT, WHYNOT[0], WHYNOT[1]];
    for request in universe.backtraces.iter().map(String::as_str).chain(fixed) {
        let frames = baseline
            .ask(request)
            .map_err(|e| format!("serial baseline {request:?}: {e}"))?;
        if frames.last().is_some_and(|f| f.starts_with("ERROR ")) {
            return Err(format!("serial baseline {request:?} answered {frames:?}"));
        }
        if universe.expected.get(request) != Some(&frames) {
            return Err(format!(
                "serial answer to {request:?} differs from the in-process answer"
            ));
        }
    }
    let before = Stats::fetch(&mut baseline)?;

    // Epochs of closed-loop traffic, each preceded by fresh set-ups and
    // lifecycle repetitions, so that every metric samples the whole run.
    let clients = workers;
    let mut logs: Vec<ClientLog> = (0..clients).map(|_| ClientLog::default()).collect();
    let (mut epoch_p50, mut epoch_tail, mut epoch_qps) = (Vec::new(), Vec::new(), Vec::new());
    let mut epoch_samples = usize::MAX;
    let mut max_queue_depth = 0.0f64;
    let epoch_s = opts.seconds / EPOCHS as f64;
    for epoch in 0..EPOCHS {
        let first_tag = 1 + epoch * LIFECYCLE_REPS;
        lifecycle(
            opts,
            LIFECYCLE_REPS,
            first_tag,
            &mut ops,
            &mut layers,
            &mut samples,
        )?;
        let epoch_start = Instant::now();
        let deadline = epoch_start + Duration::from_secs_f64(epoch_s);
        std::thread::scope(|scope| {
            let universe = &universe;
            for (c, log) in logs.iter_mut().enumerate() {
                scope.spawn(move || client_loop(log, c, clients, addr, universe, deadline));
            }
            // The traced run samples the pool's queue depth meanwhile.
            while opts.trace && Instant::now() < deadline {
                if let Ok(s) = Stats::fetch(&mut baseline) {
                    max_queue_depth = max_queue_depth.max(s.get(&["pool", "queue_depth"]));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let secs = epoch_start.elapsed().as_secs_f64();
        let lat: Vec<f64> = logs
            .iter_mut()
            .flat_map(|l| std::mem::take(&mut l.epoch))
            .collect();
        epoch_p50.push(quantile(&lat, 0.5));
        epoch_tail.push(quantile(&lat, TAIL));
        epoch_qps.push(lat.len() as f64 / secs);
        epoch_samples = epoch_samples.min(lat.len());
    }
    let after = Stats::fetch(&mut baseline)?;
    drop(baseline);
    server.shutdown();

    // Accounting and reconciliation with the server's own counts.
    let mut completed_total = 0u64;
    for log in &logs {
        if let Some(m) = log.mismatches.first() {
            return Err(m.clone());
        }
    }
    for kind in Kind::ALL {
        let key = format!("query.{}", kind.name());
        let sum =
            |f: &dyn Fn(&ClientLog) -> Option<u64>| -> u64 { logs.iter().filter_map(f).sum() };
        let attempted = sum(&|l| l.attempted.get(&kind).copied());
        let completed = sum(&|l| l.completed.get(&kind).copied());
        let errors = sum(&|l| l.errors.get(&kind).copied());
        *ops.attempted.entry(key.clone()).or_insert(0) += attempted;
        if errors > 0 {
            *ops.failed.entry(key).or_insert(0) += errors;
        }
        if attempted > completed {
            *ops.failed.entry("transport".into()).or_insert(0) += attempted - completed;
        }
        let delta = |path: &[&str]| after.get(path) - before.get(path);
        let server_completed = delta(&["requests", kind.name(), "completed"]);
        let server_errors = delta(&["requests", kind.name(), "errors"]);
        if server_completed != completed as f64 || server_errors != errors as f64 {
            return Err(format!(
                "STATS {}: server completed {server_completed} ({server_errors} errors), clients saw {completed} ({errors} errors)",
                kind.name()
            ));
        }
        completed_total += completed;
        let lat: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.latencies.get(&kind).into_iter().flatten().copied())
            .collect();
        layers.set(
            &format!("serve.client_p50_ms.{}", kind.name()),
            median(&lat),
        );
        layers.set(
            &format!("serve.eval_p50_ms.{}", kind.name()),
            after.get(&["requests", kind.name(), "latency_ns", "p50_ns"]) / 1e6,
        );
        layers.add(
            "serve.frames",
            0,
            delta(&["requests", kind.name(), "frames"]),
        );
    }
    layers.set(
        "serve.connections",
        after.get(&["connections", "opened"]) - before.get(&["connections", "opened"]),
    );
    layers.set("serve.max_queue_depth", max_queue_depth);
    // `requests_per_conn` is a count even though STATS renders it with
    // `_ns` keys.
    layers.set(
        "serve.requests_per_conn",
        after.get(&["requests_per_conn", "p50_ns"]),
    );

    let transport_errors: u64 = logs.iter().map(|l| l.transport_errors).sum();
    let mut report = Report {
        e2e: vec![
            ("setup_s", median(&samples.setup_s) + start_s, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("capture_items_per_s", median(&samples.items_per_s), "1/s"),
            ("persist_ms", median(&samples.persist_ms), "ms"),
            (
                "segment_bytes_per_item",
                median(&samples.bytes_per_item),
                "B/item",
            ),
            ("cold_open_ms", median(&samples.open_ms), "ms"),
            ("query_p50_ms", median(&epoch_p50), "ms"),
            ("query_tail_ms", median(&epoch_tail), "ms"),
            ("queries_per_s", median(&epoch_qps), "1/s"),
        ],
        ops,
        layers,
        notes: Vec::new(),
    };
    report.notes.push(format!(
        "serve-mixed: D1 at {RECORDS} records, {rows} rows, {} distinct backtraces, {clients} clients x sessions of {}, {workers} server workers, {completed_total} requests in {EPOCHS} epochs (p{} has at least {} beyond in each), {transport_errors} transport errors",
        universe.backtraces.len(),
        MIX.len(),
        (TAIL * 100.0).round(),
        (epoch_samples as f64 * (1.0 - TAIL)).floor(),
    ));
    Ok(report)
}
