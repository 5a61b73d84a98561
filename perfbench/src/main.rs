//! `perfbench`: the monityre server benchmark.
//!
//! One run starts an in-process server (default settings apart from the
//! bind address and the segment directory), drives one seeded workload
//! over loopback TCP for a fixed time, checks every answer against an
//! in-process evaluation, and prints its metrics. The last stdout line is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`; the
//! line before it carries every figure with its unit, sample count and
//! layer.
//!
//! ```text
//! perfbench --workload query-hot --seed 1 --seconds 10 --trace 0 --work-dir DIR
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the benchmark's
//! tracing off; `--trace 1` is a separate run that records spans around
//! every client call and every direct layer call, reads the server's
//! exported histograms, and reports the per-layer metrics.

mod check;
mod cpu;
mod drive;
#[macro_use]
mod json;
mod layers;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use monityre_core::SweepExecutor;
use monityre_serve::{Op, Request, ServerConfig, ServerHandle, StatsSnapshot};

use crate::check::Verdict;
use crate::drive::{Answer, ConnOut};
use crate::json::{render, set, Value};
use crate::stats::{quantile, Exposition};
use crate::trace::Tracer;
use crate::workload::{QueryPlan, SendKind, Workload};

/// Server starts per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 15;
/// How far ahead of its start the timed phase is scheduled, so every
/// client thread and the steal sampler share one start instant.
const PHASE_LEAD: Duration = Duration::from_millis(50);
/// Request lines whose protocol cost the traced run measures.
const PROTOCOL_SAMPLE: usize = 400;
/// Spans of each name kept in the written trace file.
const TRACE_FILE_CAP: usize = 2000;
/// The longest timed phase a run accepts (the load loops reserve answer
/// buffers for the whole phase up front).
const MAX_SECONDS: u64 = 60;

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?
            .to_owned();
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        if !["workload", "seed", "seconds", "trace", "work-dir"].contains(&key.as_str()) {
            return Err(format!("unknown flag `{flag}`"));
        }
        map.insert(key, value);
    }
    let take = |key: &str| {
        map.get(key)
            .cloned()
            .ok_or_else(|| format!("missing --{key}"))
    };
    let name = take("workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let number = |key: &str| -> Result<u64, String> {
        take(key)?
            .parse()
            .map_err(|_| format!("--{key} must be a whole number"))
    };
    let trace = match number("trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let seconds = number("seconds")?;
    if !(1..=MAX_SECONDS).contains(&seconds) {
        return Err(format!("--seconds must be 1 to {MAX_SECONDS}"));
    }
    Ok(Args {
        workload,
        name,
        seed: number("seed")?,
        seconds,
        trace,
        work_dir: PathBuf::from(take("work-dir")?),
    })
}

/// One reported figure.
struct Metric {
    value: f64,
    unit: &'static str,
    samples: u64,
}

/// The layer a metric belongs to: its name up to the last `.`
/// (`serve.queue.wait_p50_us` → `serve.queue`); end-to-end metrics have
/// no dot.
fn layer_of(name: &str) -> &str {
    name.rsplit_once('.')
        .map_or("end_to_end", |(layer, _)| layer)
}

#[derive(Default)]
struct Metrics(BTreeMap<&'static str, Metric>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.0.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }
}

struct Outcome {
    metrics: Metrics,
    report: Value,
    verdict: Verdict,
    attempted: u64,
    failed: u64,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    };
    let correct = outcome.verdict.problems.is_empty() && outcome.failed == 0;
    for problem in &outcome.verdict.problems {
        eprintln!("perfbench: gate: {problem}");
    }
    let detail = Value::Map(
        outcome
            .metrics
            .0
            .iter()
            .map(|(name, m)| {
                let entry = obj! {"value" => m.value, "unit" => m.unit, "samples" => m.samples, "layer" => layer_of(name)};
                ((*name).to_owned(), entry)
            })
            .collect(),
    );
    let mut report = outcome.report;
    set(&mut report, "metrics", detail);
    let gate = obj! {
        "problems" => outcome.verdict.problems.clone(),
        "answers_compared" => outcome.verdict.compared,
        "explains_conserving" => outcome.verdict.explains,
    };
    set(&mut report, "gate", gate);
    println!("{}", render(&obj! { "report" => report }));
    let metrics = Value::Map(
        outcome
            .metrics
            .0
            .iter()
            .map(|(name, m)| {
                (
                    (*name).to_owned(),
                    obj! {"value" => m.value, "unit" => m.unit},
                )
            })
            .collect(),
    );
    let result = obj! {
        "correct" => correct,
        "attempted" => outcome.attempted,
        "failed" => outcome.failed,
        "metrics" => metrics,
    };
    println!("{}", render(&result));
    if !correct {
        std::process::exit(1);
    }
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident memory of this process (`VmHWM`), megabytes.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn start_server(ingest_dir: &Path) -> Result<ServerHandle, String> {
    ServerConfig {
        bind: "127.0.0.1:0".to_owned(),
        ingest_dir: Some(ingest_dir.to_path_buf()),
        ..ServerConfig::default()
    }
    .start()
    .map_err(|e| format!("server start: {e}"))
}

fn encode(requests: &[Request]) -> Vec<Vec<u8>> {
    requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut line = serde_json::to_string(&r.clone().with_id(i as u64))
                .expect("requests serialize")
                .into_bytes();
            line.push(b'\n');
            line
        })
        .collect()
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Starts the server [`SETUP_ROUNDS`] times, each time timing start-up
/// (reference sheet, startup ledger, segment replay) plus the warm-up
/// requests, and keeps the last one running. The warm-up's first request
/// is the pinned reference `breakeven`, gated bit for bit.
fn set_up(
    ingest_dir: &Path,
    warmup: &[Request],
    verdict: &mut Verdict,
) -> Result<(ServerHandle, Vec<f64>), String> {
    let lines = encode(warmup);
    let mut times = Vec::new();
    for round in 0..SETUP_ROUNDS {
        let t0 = Instant::now();
        let handle = start_server(ingest_dir)?;
        let answers = drive::roundtrips(handle.addr(), &lines).map_err(io("warm-up"))?;
        times.push(t0.elapsed().as_secs_f64());
        check::check_reference_breakeven(&answers[0], verdict);
        if let Some(bad) = answers.iter().find(|a| !drive::is_ok_line(a)) {
            verdict.fail(format!("warm-up failed: {}", String::from_utf8_lossy(bad)));
        }
        if round + 1 == SETUP_ROUNDS {
            return Ok((handle, times));
        }
        handle.shutdown();
    }
    unreachable!("SETUP_ROUNDS is positive")
}

/// Sorted latencies in milliseconds.
fn sorted_ms(ns: impl Iterator<Item = u32>) -> Vec<f64> {
    let mut ms: Vec<f64> = ns.map(|n| f64::from(n) / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// Runs `drive` while sampling CPU steal from `phase_start` on.
fn with_steal<T>(phase_start: Instant, drive: impl FnOnce() -> T) -> (T, Vec<f64>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| cpu::sample_steal(phase_start, &stop));
        let out = drive();
        stop.store(true, Ordering::SeqCst);
        (
            out,
            sampler.join().expect("the steal sampler does not panic"),
        )
    })
}

/// The end-to-end metrics every workload reports, taken from the half of
/// the phase's slices the host's CPU steal disturbed least: the rates
/// count the answers completed in those slices over their total length,
/// the latencies are quantiles over the same answers. `weight(c, i)` is the points answer `i` of
/// connection `c` delivered (0 for a failure). Returns the report lines
/// describing the selection, with the p99 latency of the same answers.
fn end_to_end(
    metrics: &mut Metrics,
    outs: &[ConnOut],
    seconds: u64,
    weight: &dyn Fn(usize, usize) -> u64,
    steal: &[f64],
    setup: &mut [f64],
    rss_mb: f64,
) -> Value {
    let slice_ns = cpu::SLICE.as_nanos() as u64;
    let slices = (seconds * 1_000_000_000 / slice_ns) as usize;
    let chosen = cpu::least_disturbed(steal, slices);
    let mut use_slice = vec![false; slices];
    for &k in &chosen {
        use_slice[k] = true;
    }
    let (mut answers, mut points) = (0u64, 0u64);
    let mut lat = Vec::new();
    for (c, out) in outs.iter().enumerate() {
        for (i, a) in out.answers.iter().enumerate() {
            let k = (u64::from(a.done_us) * 1000 / slice_ns) as usize;
            if k < slices && use_slice[k] {
                let w = weight(c, i);
                answers += u64::from(w > 0);
                points += w;
                lat.push(f64::from(a.lat_ns) / 1e6);
            }
        }
    }
    lat.sort_by(f64::total_cmp);
    let chosen_s = chosen.len() as f64 * cpu::SLICE.as_secs_f64();
    let n = lat.len() as u64;
    metrics.put("throughput_rps", answers as f64 / chosen_s, "1/s", answers);
    metrics.put("points_per_s", points as f64 / chosen_s, "1/s", answers);
    metrics.put("latency_p50_ms", quantile(&lat, 0.50), "ms", n);
    let rounds = setup.len() as u64;
    metrics.put("setup_s", stats::median(setup), "s", rounds);
    metrics.put("rss_peak_mb", rss_mb, "MB", 1);
    let mean_steal = steal.iter().sum::<f64>() / steal.len().max(1) as f64;
    let chosen_steal = chosen
        .iter()
        .map(|&k| steal.get(k).copied().unwrap_or(0.0))
        .sum::<f64>()
        / chosen.len().max(1) as f64;
    obj! {
        "slice_ms" => cpu::SLICE.as_millis() as u64,
        "slices" => slices,
        "slices_used" => chosen.len(),
        "steal_share_all_slices" => mean_steal,
        "steal_share_used_slices" => chosen_steal,
        // Reported, not listed in BENCHMARK.json: one run in a few on this
        // host sees CPU steal even in its quietest slices, which moves
        // the tail far more than the medians.
        "latency_p99_ms" => obj! {"value" => quantile(&lat, 0.99), "unit" => "ms", "samples" => n},
    }
}

/// What the server exported, before and after a phase.
struct ServerView {
    stats: StatsSnapshot,
    expo: Exposition,
}

impl ServerView {
    fn read(handle: &ServerHandle) -> ServerView {
        ServerView {
            stats: handle.stats(),
            expo: Exposition::parse(&handle.prometheus_text()),
        }
    }
}

/// Errors the server counted in a phase: (rejected, timed out, dedup
/// hits, evaluation failures, bad requests).
fn server_errors(before: &StatsSnapshot, after: &StatsSnapshot) -> [u64; 5] {
    [
        after.rejected - before.rejected,
        after.timed_out - before.timed_out,
        after.dedup_hits - before.dedup_hits,
        after.eval_failed - before.eval_failed,
        after.bad_requests - before.bad_requests,
    ]
}

/// Requests failed, refused or timed out over requests attempted — 0 in
/// every passing run, so it is reported here and gated through `failed`
/// rather than listed as a metric.
fn error_ratio(failed: u64, attempted: u64) -> Value {
    obj! {
        "value" => failed as f64 / attempted.max(1) as f64,
        "unit" => "ratio",
        "samples" => attempted,
    }
}

fn server_counted(errors: &[u64; 5]) -> Value {
    obj! {
        "serve.rejected" => errors[0],
        "serve.timed_out" => errors[1],
        "serve.dedup.hits" => errors[2],
        "serve.eval_failed" => errors[3],
        "serve.bad_requests" => errors[4],
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work_dir).map_err(io("work dir"))?;
    let ingest_dir = args.work_dir.join("segments");
    if ingest_dir.exists() {
        std::fs::remove_dir_all(&ingest_dir).map_err(io("clearing segments"))?;
    }
    std::fs::create_dir_all(&ingest_dir).map_err(io("segments dir"))?;
    let outcome = match args.workload {
        Workload::QueryHot | Workload::QueryCold => run_query(args, &ingest_dir),
        Workload::TelemetryIngest => run_telemetry(args, &ingest_dir),
    };
    let _ = std::fs::remove_dir_all(&ingest_dir);
    outcome
}

/// Requests a traced run appends after the timed phase so that every
/// server-side layer has samples even on a workload that never reaches
/// it: telemetry batches when the workload sends none, sheet edits (two
/// of them bit-identical rewrites) when it edits nothing.
fn coverage_tail(workload: Workload) -> Vec<Request> {
    let mut tail = Vec::new();
    if workload != Workload::TelemetryIngest {
        for k in 0..8u64 {
            let mut r = Request::new(Op::Ingest);
            r.params.points = Some(monityre_ingest::synthetic_points(
                900 + k % 2,
                256,
                k,
                1_000_000 + k * 64_000_000,
            ));
            tail.push(r);
        }
    }
    if workload != Workload::QueryHot {
        let (cell, base) = workload::sheet_inputs().swap_remove(0);
        for value in [base * 1.25, base * 1.25, base, base] {
            tail.push(workload::sheet_edit(&cell, value));
        }
    }
    tail
}

/// Sums `(evaluated, cut)` over `sheet_edit` answers.
fn sheet_waves(lines: &[Vec<u8>]) -> (u64, u64) {
    lines
        .iter()
        .filter_map(|l| monityre_serve::decode_response_line(l).ok()?.ok)
        .fold((0, 0), |acc, payload| match payload {
            monityre_serve::Payload::SheetEdit { evaluated, cut, .. } => {
                (acc.0 + evaluated, acc.1 + cut)
            }
            _ => acc,
        })
}

/// Per-layer figures common to every workload, from the client spans,
/// the server's exported histograms, and direct layer calls.
struct LayerRun<'a> {
    outs: &'a [ConnOut],
    lines: Vec<&'a [u8]>,
    inputs: layers::Inputs,
    points: Vec<monityre_serve::TelemetryPoint>,
    start: ServerView,
    end: ServerView,
    tail: ServerView,
    sheet: (u64, u64),
}

fn layer_metrics(
    run: LayerRun<'_>,
    tracer: &mut Tracer,
    ingest_dir: &Path,
) -> Result<(Metrics, Value), String> {
    let mut m = Metrics::default();
    let root = tracer.reserve();
    let t0 = tracer.now_ns();
    // Histograms: the timed phase's own samples when it has any, else
    // the coverage tail's.
    let phase = |name: &str| -> (crate::stats::Hist, &'static str) {
        let timed = run.end.expo.hist(name).since(&run.start.expo.hist(name));
        if timed.count > 0 {
            (timed, "workload")
        } else {
            (
                run.tail.expo.hist(name).since(&run.end.expo.hist(name)),
                "coverage_tail",
            )
        }
    };
    let mut sources: Vec<(String, Value)> = Vec::new();
    let mut hist_metric = |m: &mut Metrics, metric: &'static str, hist: &str, q: f64| {
        let (h, source) = phase(hist);
        m.put(metric, h.quantile_us(q), "us", h.count);
        sources.push((metric.to_owned(), Value::Str(source.to_owned())));
        h
    };
    let queue = hist_metric(&mut m, "serve.queue.wait_p50_us", "serve.queue_wait", 0.50);
    hist_metric(&mut m, "serve.queue.wait_p99_us", "serve.queue_wait", 0.99);
    let execute = hist_metric(&mut m, "serve.worker.execute_p50_us", "serve.execute", 0.50);
    hist_metric(&mut m, "serve.ingest_p50_us", "serve.ingest", 0.50);
    let recompute = hist_metric(&mut m, "sheet.recompute_p50_us", "sheet.recompute", 0.50);
    hist_metric(
        &mut m,
        "ingest.segment.append_p50_us",
        "ingest.append",
        0.50,
    );
    hist_metric(&mut m, "ingest.segment.fsync_p50_us", "ingest.fsync", 0.50);
    let (evaluated, cut) = run.sheet;
    m.put(
        "sheet.cut_ratio",
        cut as f64 / evaluated.max(1) as f64,
        "ratio",
        recompute.count,
    );

    let protocol = layers::protocol(&run.lines, tracer, root);
    m.put(
        "serve.protocol.decode_us",
        protocol.decode_us,
        "us",
        protocol.samples,
    );
    m.put(
        "serve.protocol.encode_us",
        protocol.encode_us,
        "us",
        protocol.samples,
    );
    let answered: Vec<&Answer> = run.outs.iter().flat_map(|o| o.answers.iter()).collect();
    let n = answered.len() as u64;
    let resp_bytes = answered.iter().map(|a| f64::from(a.len) + 1.0).sum::<f64>() / n.max(1) as f64;
    m.put("serve.protocol.response_bytes", resp_bytes, "bytes", n);
    let req_bytes =
        run.lines.iter().map(|l| l.len() as f64).sum::<f64>() / run.lines.len().max(1) as f64;
    m.put(
        "serve.protocol.request_bytes",
        req_bytes,
        "bytes",
        run.lines.len() as u64,
    );

    let rtt_ms = sorted_ms(answered.iter().map(|a| a.lat_ns));
    let rtt_p50_us = quantile(&rtt_ms, 0.5) * 1e3;
    let rtt_mean_us = stats::mean(&rtt_ms) * 1e3;
    m.put(
        "serve.transport_us",
        rtt_p50_us - run.end.stats.p50_ms * 1e3,
        "us",
        n,
    );
    // The server's queue-wait clock starts before it parses the line, so
    // the decode span is a part of the queue wait, not an addition.
    let attributed = queue.mean_us() + execute.mean_us() + protocol.encode_us;
    m.put("serve.residual_us", rtt_mean_us - attributed, "us", n);

    let (s0, s1) = (&run.start.stats, &run.end.stats);
    let (hits, misses) = (
        s1.cache_hits - s0.cache_hits,
        s1.cache_misses - s0.cache_misses,
    );
    m.put(
        "serve.lru.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        hits + misses,
    );
    let memo = &s1.eval_memo;
    m.put(
        "core.cache.memo_hit_ratio",
        memo.hits as f64 / (memo.hits + memo.misses).max(1) as f64,
        "ratio",
        memo.hits + memo.misses,
    );

    let direct = layers::core_layers(&run.inputs, tracer, root);
    let ds = &direct.samples;
    m.put(
        "core.scenario.build_us",
        direct.scenario_build_us,
        "us",
        ds.specs,
    );
    m.put(
        "core.balance.ns_per_point_cold",
        direct.balance_ns_per_point_cold,
        "ns",
        ds.grids,
    );
    m.put(
        "core.balance.ns_per_point_warm",
        direct.balance_ns_per_point_warm,
        "ns",
        ds.grids,
    );
    m.put(
        "core.ledger.explain_us",
        direct.explain_us,
        "us",
        ds.explains,
    );
    m.put(
        "core.optimizer.us_per_candidate",
        direct.optimizer_us_per_candidate,
        "us",
        ds.optimizer_candidates,
    );
    m.put(
        "core.montecarlo.us_per_draw",
        direct.montecarlo_us_per_draw,
        "us",
        ds.montecarlo_draws,
    );
    m.put(
        "core.executor.parallel_over_serial",
        direct.parallel_over_serial,
        "ratio",
        ds.grids.min(16) * 3,
    );

    let ingest = layers::ingest_layers(&run.points, tracer, root);
    m.put(
        "ingest.point.codec_ns_per_point",
        ingest.codec_ns_per_point,
        "ns",
        ingest.points,
    );
    m.put(
        "ingest.window.ns_per_point",
        ingest.window_ns_per_point,
        "ns",
        ingest.points,
    );
    let (ms_per_million, replayed) =
        layers::replay(ingest_dir, tracer, root).map_err(io("replay"))?;
    m.put(
        "ingest.replay_ms_per_million",
        ms_per_million,
        "ms",
        replayed,
    );

    let lag = sorted_ms(answered.iter().map(|a| a.lag_ns));
    m.put(
        "bench.generator_lag_p99_ms",
        quantile(&lag, 0.99),
        "ms",
        lag.len() as u64,
    );
    let split = |traced: bool| {
        sorted_ms(
            answered
                .iter()
                .filter(|a| a.traced == traced)
                .map(|a| a.lat_ns),
        )
    };
    let (on, off) = (split(true), split(false));
    let overhead = (quantile(&on, 0.5) / quantile(&off, 0.5) - 1.0) * 100.0;
    m.put(
        "bench.tracing_overhead_pct",
        overhead,
        "%",
        on.len().min(off.len()) as u64,
    );
    let t1 = tracer.now_ns();
    tracer.record(root, 0, "bench.layers", t0, t1);

    let residual = obj! {
        "round_trip_mean_us" => rtt_mean_us,
        "queue_wait_mean_us" => queue.mean_us(),
        "of_which_decode_mean_us" => protocol.decode_us,
        "execute_mean_us" => execute.mean_us(),
        "encode_mean_us" => protocol.encode_us,
        "unattributed_us" => rtt_mean_us - attributed,
        "unattributed_share" => (rtt_mean_us - attributed) / rtt_mean_us,
    };
    Ok((
        m,
        obj! { "histogram_source" => Value::Map(sources), "round_trip_split" => residual },
    ))
}

fn self_times(tracer: &Tracer) -> Value {
    Value::Map(
        tracer
            .self_times()
            .into_iter()
            .map(|(name, (count, ns))| {
                let mean_us = ns as f64 / 1e3 / count.max(1) as f64;
                let entry = obj! {"spans" => count, "self_ms" => ns as f64 / 1e6, "self_us_mean" => mean_us};
                (name.to_owned(), entry)
            })
            .collect(),
    )
}

fn write_trace(args: &Args, tracer: &Tracer) -> Value {
    let dir = args
        .work_dir
        .parent()
        .unwrap_or(&args.work_dir)
        .join("traces");
    let path = dir.join(format!("{}-seed{}.jsonl", args.name, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_jsonl(&path, TRACE_FILE_CAP)) {
        Ok(()) => Value::Str(path.display().to_string()),
        Err(e) => Value::Str(format!("not written: {e}")),
    }
}

fn connect_all(handle: &ServerHandle, n: usize) -> Result<Vec<TcpStream>, String> {
    (0..n)
        .map(|_| drive::connect(handle.addr()).map_err(io("connect")))
        .collect()
}

fn run_query(args: &Args, ingest_dir: &Path) -> Result<Outcome, String> {
    let hot = args.workload == Workload::QueryHot;
    let conns = cpus().min(2);
    let plan: QueryPlan = if hot {
        workload::query_hot(args.seed, conns)
    } else {
        workload::query_cold(args.seed, conns)
    };
    let mut verdict = Verdict::default();
    let (handle, mut setup) = set_up(ingest_dir, &plan.warmup, &mut verdict)?;
    let start = ServerView::read(&handle);
    let origin = Instant::now();
    let streams = connect_all(&handle, conns)?;
    let run_for = Duration::from_secs(args.seconds);
    let phase_start = Instant::now() + PHASE_LEAD;
    let (results, steal) = with_steal(phase_start, || {
        std::thread::scope(|scope| {
            let workers: Vec<_> = streams
                .into_iter()
                .enumerate()
                .map(|(c, stream)| {
                    let tracer = args.trace.then(|| Tracer::new(origin, c as u64 + 1));
                    let queries = &plan.conns[c];
                    scope.spawn(move || {
                        drive::closed_loop(stream, queries, phase_start, run_for, tracer)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client threads do not panic"))
                .collect::<Vec<_>>()
        })
    });
    let elapsed = phase_start.elapsed();
    let mut outs: Vec<ConnOut> = results
        .into_iter()
        .collect::<std::io::Result<_>>()
        .map_err(io("client"))?;
    let rss = rss_peak_mb();
    let end = ServerView::read(&handle);

    let cells = check::final_cells(&plan);
    let final_reads = if hot {
        let reads: Vec<Request> = cells.iter().map(|c| workload::sheet_eval(c)).collect();
        drive::roundtrips(handle.addr(), &encode(&reads)).map_err(io("sheet read-back"))?
    } else {
        Vec::new()
    };
    let tail_lines = if args.trace {
        let tail = drive::roundtrips(handle.addr(), &encode(&coverage_tail(args.workload)))
            .map_err(io("coverage tail"))?;
        if let Some(bad) = tail.iter().find(|a| !drive::is_ok_line(a)) {
            verdict.fail(format!(
                "coverage tail failed: {}",
                String::from_utf8_lossy(bad)
            ));
        }
        tail
    } else {
        Vec::new()
    };
    let tail = ServerView::read(&handle);
    handle.shutdown();

    let executor = SweepExecutor::available();
    verdict.merge(if hot {
        check::check_hot(&plan, &outs, &final_reads, &executor)
    } else {
        check::check_cold(&plan, &outs, &executor)
    });
    let violations = monityre_obs::Registry::global()
        .counter(monityre_obs::names::LEDGER_CONSERVATION_VIOLATIONS)
        .get();
    if violations != 0 {
        verdict.fail(format!("ledger.conservation_violations reads {violations}"));
    }
    let errors = server_errors(&start.stats, &end.stats);

    let attempted: u64 = outs.iter().map(|o| o.answers.len() as u64).sum();
    let failed: u64 = outs
        .iter()
        .map(|o| o.failed.len() as u64)
        .sum::<u64>()
        .max(errors.iter().sum());
    let failed_at: Vec<std::collections::BTreeSet<usize>> = outs
        .iter()
        .map(|o| o.failed.iter().map(|f| f.0).collect())
        .collect();
    let weight = |c: usize, i: usize| {
        let queries = &plan.conns[c];
        if failed_at[c].contains(&i) {
            0
        } else {
            queries[i % queries.len()].points
        }
    };
    let first_failures: Vec<String> = outs
        .iter()
        .flat_map(|o| o.failed.iter().take(2).map(|f| f.1.clone()))
        .collect();
    let mut report = obj! {
        "setup_rounds_s" => setup.iter().map(|s| format!("{s:.6}")).collect::<Vec<_>>(),
        "workload" => args.name,
        "seed" => args.seed,
        "seconds" => args.seconds,
        "trace" => args.trace,
        "cpus" => cpus(),
        "loop" => "closed",
        "connections" => conns,
        "client_threads" => conns,
        "outstanding_per_connection" => 1u64,
        "request_cycle_per_connection" => plan.conns[0].len(),
        "timed_phase_s" => elapsed.as_secs_f64(),
        "error_ratio" => error_ratio(failed, attempted),
        "server_counted" => server_counted(&errors),
        "first_failures" => first_failures,
    };

    let mut metrics = Metrics::default();
    if args.trace {
        let mut tracer = Tracer::new(origin, 0);
        for out in &mut outs {
            if let Some(t) = out.tracer.take() {
                tracer.absorb(t);
            }
        }
        let sheet = if hot {
            (verdict.sheet_evaluated, verdict.sheet_cut)
        } else {
            sheet_waves(&tail_lines)
        };
        let lines: Vec<&[u8]> = outs
            .iter()
            .zip(&plan.conns)
            .flat_map(|(o, q)| q.iter().take(o.answers.len().min(PROTOCOL_SAMPLE / conns)))
            .map(|q| q.line.as_slice())
            .collect();
        let requests: Vec<Request> = plan
            .conns
            .iter()
            .flat_map(|q| q.iter().take(4096).map(workload::Query::request))
            .collect();
        let layer_run = LayerRun {
            outs: &outs,
            lines,
            inputs: layers::Inputs::from_requests(requests.iter()),
            points: monityre_ingest::synthetic_points(900, 65_536, args.seed, 1_000_000),
            start,
            end,
            tail,
            sheet,
        };
        let (m, extra) = layer_metrics(layer_run, &mut tracer, ingest_dir)?;
        metrics = m;
        set(&mut report, "layers", extra);
        set(&mut report, "self_times", self_times(&tracer));
        set(&mut report, "trace_file", write_trace(args, &tracer));
    } else {
        let selection = end_to_end(
            &mut metrics,
            &outs,
            args.seconds,
            &weight,
            &steal,
            &mut setup,
            rss,
        );
        set(&mut report, "slices", selection);
    }
    Ok(Outcome {
        metrics,
        report,
        verdict,
        attempted,
        failed,
    })
}

/// Writes the pre-seeded history into the segment directory.
fn seed_history(dir: &Path, history: &[monityre_serve::TelemetryPoint]) -> Result<(), String> {
    let mut ingestor = monityre_ingest::Ingestor::open(monityre_ingest::IngestConfig {
        dir: Some(dir.to_path_buf()),
        fsync: false,
        ..monityre_ingest::IngestConfig::default()
    })
    .map_err(io("history store"))?;
    for batch in history.chunks(workload::BATCH_POINTS) {
        ingestor.ingest(batch, None).map_err(io("history append"))?;
    }
    Ok(())
}

fn run_telemetry(args: &Args, ingest_dir: &Path) -> Result<Outcome, String> {
    let plan = workload::telemetry(args.seed, args.seconds);
    seed_history(ingest_dir, &plan.history)?;
    let mut verdict = Verdict::default();
    let (handle, mut setup) = set_up(ingest_dir, &plan.warmup, &mut verdict)?;
    let start = ServerView::read(&handle);
    let origin = Instant::now();
    let stream = drive::connect(handle.addr()).map_err(io("connect"))?;
    let phase_start = Instant::now() + PHASE_LEAD;
    let (out, steal) = with_steal(phase_start, || {
        drive::open_loop(stream, &plan.sends, phase_start, args.trace, origin)
    });
    let mut out = out.map_err(io("open loop"))?;
    let elapsed = phase_start.elapsed();
    let rss = rss_peak_mb();
    let end = ServerView::read(&handle);
    let state_request = [Request::new(Op::IngestState)];
    let served_state =
        drive::roundtrips(handle.addr(), &encode(&state_request)).map_err(io("state read"))?;
    let tail_lines = if args.trace {
        drive::roundtrips(handle.addr(), &encode(&coverage_tail(args.workload)))
            .map_err(io("coverage tail"))?
    } else {
        Vec::new()
    };
    let tail = ServerView::read(&handle);
    handle.shutdown();

    let executor = SweepExecutor::available();
    let (gate, replay) = check::check_telemetry(&plan, &out, &executor);
    verdict.merge(gate);
    let want_state = check::state_line(&replay.ingestor, 0);
    if served_state[0] != want_state {
        verdict.fail("final ingest_state differs from the in-process pipeline".to_owned());
    }
    let restarted = start_server(ingest_dir)?;
    let replayed_state =
        drive::roundtrips(restarted.addr(), &encode(&state_request)).map_err(io("restart read"))?;
    restarted.shutdown();
    if replayed_state[0] != want_state {
        verdict.fail("ingest_state after restart replay differs from before".to_owned());
    }
    let (s0, s1) = (&start.stats, &end.stats);
    if s1.ingest_points - s0.ingest_points != plan.stream_points {
        verdict.fail(format!(
            "server accepted {} points, {} were sent",
            s1.ingest_points - s0.ingest_points,
            plan.stream_points
        ));
    }
    if s1.ingest_alerts - s0.ingest_alerts != replay.stream_alerts {
        verdict.fail(format!(
            "server raised {} deficit alerts, the in-process pipeline {}",
            s1.ingest_alerts - s0.ingest_alerts,
            replay.stream_alerts
        ));
    }
    let errors = server_errors(s0, s1);
    let attempted = out.answers.len() as u64;
    let failed = (out.failed.len() as u64).max(errors.iter().sum());
    let batches = plan
        .sends
        .iter()
        .filter(|s| matches!(s.kind, SendKind::Batch { .. }))
        .count();
    let first_failures: Vec<String> = out.failed.iter().take(2).map(|f| f.1.clone()).collect();
    let mut report = obj! {
        "setup_rounds_s" => setup.iter().map(|s| format!("{s:.6}")).collect::<Vec<_>>(),
        "workload" => args.name,
        "seed" => args.seed,
        "seconds" => args.seconds,
        "trace" => args.trace,
        "cpus" => cpus(),
        "loop" => "open",
        "connections" => 1u64,
        "client_threads" => 2u64,
        "vehicles" => workload::FLEET_VEHICLES,
        "batch_points" => workload::BATCH_POINTS,
        "offered_requests_per_s" => plan.sends.len() as f64 / args.seconds as f64,
        "offered_points_per_s" => plan.stream_points as f64 / args.seconds as f64,
        "offered_batches_per_s" => batches as f64 / args.seconds as f64,
        "history_points" => plan.history.len(),
        "stream_points" => plan.stream_points,
        "deficit_alerts" => replay.stream_alerts,
        "timed_phase_s" => elapsed.as_secs_f64(),
        "error_ratio" => error_ratio(failed, attempted),
        "server_counted" => server_counted(&errors),
        "first_failures" => first_failures,
    };
    let mut metrics = Metrics::default();
    if args.trace {
        let mut tracer = Tracer::new(origin, 0);
        if let Some(t) = out.tracer.take() {
            tracer.absorb(t);
        }
        let lines: Vec<&[u8]> = plan
            .sends
            .iter()
            .take(PROTOCOL_SAMPLE / 4)
            .map(|s| s.line.as_slice())
            .collect();
        let breakevens: Vec<Request> = plan
            .specs
            .iter()
            .map(|s| workload::breakeven(s, monityre_fleet::FLEET_EVAL_STEPS))
            .collect();
        let outs = std::slice::from_ref(&out);
        let layer_run = LayerRun {
            outs,
            lines,
            inputs: layers::Inputs::from_requests(breakevens.iter()),
            points: plan
                .sends
                .iter()
                .flat_map(workload::Send::points)
                .take(262_144)
                .collect(),
            start,
            end,
            tail,
            sheet: sheet_waves(&tail_lines),
        };
        let (m, extra) = layer_metrics(layer_run, &mut tracer, ingest_dir)?;
        metrics = m;
        set(&mut report, "layers", extra);
        set(&mut report, "self_times", self_times(&tracer));
        set(&mut report, "trace_file", write_trace(args, &tracer));
    } else {
        let weight = |_: usize, i: usize| match plan.sends[i].kind {
            _ if out.failed.iter().any(|f| f.0 == i) => 0,
            SendKind::Batch { len, .. } => len as u64,
            SendKind::State(_) | SendKind::Breakeven(_) => 1,
        };
        let selection = end_to_end(
            &mut metrics,
            std::slice::from_ref(&out),
            args.seconds,
            &weight,
            &steal,
            &mut setup,
            rss,
        );
        set(&mut report, "slices", selection);
    }
    Ok(Outcome {
        metrics,
        report,
        verdict,
        attempted,
        failed,
    })
}
