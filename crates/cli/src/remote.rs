//! The `serve` and `request` subcommands — the CLI face of
//! `monityre-serve`.
//!
//! `serve` runs the batch evaluation server until a client sends the
//! `shutdown` op; `request` builds one wire request from flags and either
//! sends it to a running server (`--addr`) or evaluates it in-process
//! (`--local`). Both print the raw JSON response line, so scripts can
//! assert on structured error codes without a JSON library.

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

use monityre_faults::FaultPlan;
use monityre_serve::{
    evaluate, Client, Op, Payload, Request, Response, RetryPolicy, RetryingClient, ScenarioSpec,
    ServerConfig, TraceContext,
};

use crate::commands::executor_from;
use crate::{Args, CliError};

/// Parses an optional `--name value` flag into any `FromStr` type.
pub(crate) fn parse_opt<T: std::str::FromStr>(
    args: &Args,
    name: &str,
) -> Result<Option<T>, CliError> {
    match args.text_opt(name) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| CliError::new(format!("flag --{name}: cannot parse `{raw}`"))),
    }
}

/// Parses the scenario flags `explain` and `request` share into a wire
/// scenario. Besides the node and conditions knobs, these set the
/// extended axes: a lossy radio (`--radio-loss`, with an optional
/// `--radio-retries` budget) and an aged supercap (`--age-years`). Absent
/// flags keep their fields off the wire entirely, so warm scenario-cache
/// keys stay byte-identical.
fn scenario_spec(args: &Args) -> Result<ScenarioSpec, CliError> {
    Ok(ScenarioSpec {
        temp_c: parse_opt(args, "temp")?,
        supply_v: parse_opt(args, "supply")?,
        corner: args.text_opt("corner"),
        samples_per_round: parse_opt(args, "samples-per-round")?,
        tx_period_rounds: parse_opt(args, "tx-period")?,
        payload_bytes: parse_opt(args, "payload-bytes")?,
        chain_scale: parse_opt(args, "chain-scale")?,
        radio_loss_prob: parse_opt(args, "radio-loss")?,
        radio_retries: parse_opt(args, "radio-retries")?,
        age_years: parse_opt(args, "age-years")?,
    })
}

/// `monityre serve` — run the evaluation server on `--bind`/`--port`
/// until a client sends the `shutdown` op, then report the drain summary.
pub(crate) fn serve(args: &Args) -> Result<String, CliError> {
    let host = args.text("bind", "127.0.0.1");
    let port: u16 = parse_opt(args, "port")?.unwrap_or(0);
    let workers = args.count("workers", 2)?;
    let queue = args.count("queue", 64)?;
    let cache = args.count("cache", 16)?;
    let dedup = args.count("dedup", 256)?;
    // `--faults <seed>:<kind=p,...>` arms the deterministic fault plan for
    // chaos drills; without it the hooks stay inert (the MONITYRE_FAULTS
    // environment variable still applies as a fallback inside `start`).
    let faults = match args.text_opt("faults") {
        None => None,
        Some(spec) => Some(Arc::new(
            FaultPlan::parse(&spec).map_err(|e| CliError::new(format!("flag --faults: {e}")))?,
        )),
    };
    // 0 means auto (`SweepExecutor::try_available()`, which honours the
    // MONITYRE_THREADS environment override and makes `start` refuse a
    // malformed one); the flag itself must be ≥ 1.
    let threads = match args.text_opt("threads") {
        None => 0,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                return Err(CliError::new(format!(
                    "flag --threads: `{raw}` is not a positive integer"
                )))
            }
        },
    };
    let announce = args.text_opt("announce");
    // `--flight-recorder <path>` arms post-mortem dumps: worker panics,
    // injected faults, deadline misses, and wire `dump` requests append
    // the flight-recorder rings to this file as JSON lines.
    let flight_recorder = args.text_opt("flight-recorder");
    // `--ingest-dir <path>` makes the ingest pipeline durable: batches
    // append to a crash-safe segment store there, and a restart replays
    // the directory to reconstruct the window state bit-identically.
    let ingest_dir = args.text_opt("ingest-dir");
    let ingest_window_us = crate::ingest::window_flag_us(args, "ingest-window-s")?;
    // The self-observation knobs. Absent flags keep the built-in cadences
    // (1 s scrape, ~100 Hz profiler, 5 m/1 h burn windows); an explicit
    // `0` disables that observer thread entirely.
    let defaults = ServerConfig::default();
    let scrape_interval_us = match parse_opt::<u64>(args, "scrape-interval-ms")? {
        None => defaults.scrape_interval_us,
        Some(ms) => ms.saturating_mul(1_000),
    };
    let profile_interval_us = match parse_opt::<u64>(args, "profile-interval-ms")? {
        None => defaults.profile_interval_us,
        Some(ms) => ms.saturating_mul(1_000),
    };
    let slo_fast_us = match parse_opt::<u64>(args, "slo-fast-s")? {
        None => defaults.slo_fast_us,
        Some(s) => s.saturating_mul(1_000_000),
    };
    let slo_slow_us = match parse_opt::<u64>(args, "slo-slow-s")? {
        None => defaults.slo_slow_us,
        Some(s) => s.saturating_mul(1_000_000),
    };
    args.finish()?;
    if let Some(path) = &flight_recorder {
        monityre_obs::recorder::set_dump_path(std::path::Path::new(path));
    }

    let handle = ServerConfig {
        bind: format!("{host}:{port}"),
        workers,
        threads,
        queue_capacity: queue,
        cache_capacity: cache,
        dedup_capacity: dedup,
        faults: faults.clone(),
        ingest_dir: ingest_dir.clone().map(std::path::PathBuf::from),
        ingest_window_us,
        scrape_interval_us,
        profile_interval_us,
        slo_fast_us,
        slo_slow_us,
        slos: None,
    }
    .start()
    .map_err(|e| CliError::new(format!("serve: cannot start on {host}:{port}: {e}")))?;
    let addr = handle.addr();

    // Announce the resolved address *before* blocking, so scripts that
    // pass `--port 0` can discover the ephemeral port (also via
    // `--announce <file>`, which is easier to poll than stdout).
    println!("listening on {addr} ({workers} worker(s), queue {queue}, cache {cache})");
    if let Some(plan) = &faults {
        println!("fault plan armed: {}", plan.describe());
    }
    if let Some(path) = &flight_recorder {
        println!("flight recorder armed: dumps append to {path}");
    }
    if scrape_interval_us > 0 {
        println!(
            "self-observation armed: scrape every {} ms, burn windows {} s / {} s",
            scrape_interval_us / 1_000,
            slo_fast_us / 1_000_000,
            slo_slow_us / 1_000_000,
        );
    }
    if let Some(dir) = &ingest_dir {
        let replay = handle.ingest_replay();
        println!(
            "ingest store {dir}: replayed {} point(s) from {} segment(s), {} torn byte(s) truncated",
            replay.points, replay.segments, replay.truncated_bytes
        );
    }
    let _ = std::io::stdout().flush();
    if let Some(path) = &announce {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| CliError::new(format!("flag --announce: cannot write `{path}`: {e}")))?;
    }

    let stats = handle.wait();
    Ok(format!(
        "server drained: served {}, rejected {}, timed out {}, bad requests {}\n",
        stats.served, stats.rejected, stats.timed_out, stats.bad_requests
    ))
}

/// `monityre obs` — fetch a running server's observability state and
/// pretty-print it. By default renders the `stats` snapshot as a readable
/// report; `--prometheus` instead prints the raw `metrics` exposition
/// (what a Prometheus scraper would ingest).
pub(crate) fn obs(args: &Args) -> Result<String, CliError> {
    let addr = args.text_opt("addr").ok_or_else(|| {
        CliError::new("flag --addr <host:port> is required (a running `monityre serve`)")
    })?;
    let prometheus = args.flag("prometheus");
    let dump = args.flag("dump");
    let timeout_ms = args.count("timeout-ms", 30_000)?;
    args.finish()?;

    let mut client = Client::connect(addr.as_str())
        .map_err(|e| CliError::new(format!("obs: cannot connect to {addr}: {e}")))?;
    client
        .set_timeout(Some(Duration::from_millis(timeout_ms as u64)))
        .map_err(|e| CliError::new(format!("obs: {e}")))?;

    // `--dump` replaces the usual SIGUSR1 kick: the server appends its
    // flight-recorder rings to the armed dump path and acks over the wire.
    if dump {
        let response = client
            .request(&Request::new(Op::Dump))
            .map_err(|e| CliError::new(format!("obs: dump request to {addr} failed: {e}")))?;
        let Some(Payload::Dumped { path, records }) = response.ok else {
            return Err(CliError::new(format!(
                "obs: unexpected dump response: {response:?}"
            )));
        };
        return Ok(match path {
            Some(path) => format!("flight recorder dumped {records} record(s) to {path}\n"),
            None => format!(
                "flight recorder is not armed on the server ({records} record(s) buffered); \
                 start it with --flight-recorder <path> or MONITYRE_FLIGHT_RECORDER\n"
            ),
        });
    }

    if prometheus {
        let response = client
            .request(&Request::new(Op::Metrics))
            .map_err(|e| CliError::new(format!("obs: metrics request to {addr} failed: {e}")))?;
        let Some(Payload::Metrics(text)) = response.ok else {
            return Err(CliError::new(format!(
                "obs: unexpected metrics response: {response:?}"
            )));
        };
        return Ok(text);
    }

    let response = client
        .request(&Request::new(Op::Stats))
        .map_err(|e| CliError::new(format!("obs: stats request to {addr} failed: {e}")))?;
    let Some(Payload::Stats(snapshot)) = response.ok else {
        return Err(CliError::new(format!(
            "obs: unexpected stats response: {response:?}"
        )));
    };

    let mut out = String::new();
    let _ = writeln!(out, "server {addr}");
    let _ = writeln!(out, "  requests:");
    let _ = writeln!(out, "    served        {}", snapshot.served);
    let _ = writeln!(out, "    rejected      {}", snapshot.rejected);
    let _ = writeln!(out, "    timed out     {}", snapshot.timed_out);
    let _ = writeln!(out, "    bad requests  {}", snapshot.bad_requests);
    let _ = writeln!(out, "    eval failed   {}", snapshot.eval_failed);
    let _ = writeln!(out, "  service time:");
    let _ = writeln!(out, "    p50  {:.3} ms", snapshot.p50_ms);
    let _ = writeln!(out, "    p99  {:.3} ms", snapshot.p99_ms);
    let _ = writeln!(out, "  scenario cache:");
    let _ = writeln!(out, "    hits    {}", snapshot.cache_hits);
    let _ = writeln!(out, "    misses  {}", snapshot.cache_misses);
    let _ = writeln!(out, "  sweep executor:");
    let _ = writeln!(out, "    narrowed  {}", snapshot.executor_narrowed);
    if snapshot.ops.is_empty() {
        let _ = writeln!(out, "  per-op latency: (no jobs served yet)");
    } else {
        let _ = writeln!(out, "  per-op latency (bucket estimates):");
        let _ = writeln!(
            out,
            "    {:<12} {:>8} {:>10} {:>10} {:>10}  slowest trace",
            "op", "count", "p50_ms", "p90_ms", "p99_ms"
        );
        for op in &snapshot.ops {
            // The exemplar is the trace id of the slowest traced request
            // this histogram has seen — paste it straight into
            // `monityre obs trace <id> --from <dump>`.
            let _ = writeln!(
                out,
                "    {:<12} {:>8} {:>10.3} {:>10.3} {:>10.3}  {}",
                op.op,
                op.count,
                op.p50_ms,
                op.p90_ms,
                op.p99_ms,
                op.exemplar.as_deref().unwrap_or("-")
            );
        }
    }
    out.push_str(&client_section());
    Ok(out)
}

/// The retry-layer metrics of *this* process's global registry —
/// attempts, retries, per-class errors, and the backoff histogram any
/// `RetryingClient` in this process (e.g. `request --retry`) recorded.
fn client_section() -> String {
    let snapshot = monityre_obs::Registry::global().snapshot();
    let counters: Vec<_> = snapshot
        .counters
        .iter()
        .filter(|c| c.name.starts_with("client."))
        .collect();
    let backoff = snapshot
        .histograms
        .iter()
        .find(|h| h.name == monityre_obs::names::CLIENT_BACKOFF_MS);
    if counters.is_empty() && backoff.is_none() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(out, "  retrying client (this process):");
    for counter in counters {
        let _ = writeln!(out, "    {:<24} {}", counter.name, counter.value);
    }
    if let Some(hist) = backoff {
        let _ = writeln!(
            out,
            "    {:<24} {} sample(s), p50 {:.1} ms, p99 {:.1} ms",
            hist.name, hist.count, hist.p50_us, hist.p99_us
        );
    }
    out
}

/// Connects to a serving address with the obs timeout applied.
fn obs_client(addr: &str, timeout_ms: usize) -> Result<Client, CliError> {
    let mut client = Client::connect(addr)
        .map_err(|e| CliError::new(format!("obs: cannot connect to {addr}: {e}")))?;
    client
        .set_timeout(Some(Duration::from_millis(timeout_ms as u64)))
        .map_err(|e| CliError::new(format!("obs: {e}")))?;
    Ok(client)
}

/// A bucket width as humans write it: `500ms`, `10s`, `5m`.
fn render_step(step_us: u64) -> String {
    if step_us >= 60_000_000 && step_us.is_multiple_of(60_000_000) {
        format!("{}m", step_us / 60_000_000)
    } else if step_us >= 1_000_000 && step_us.is_multiple_of(1_000_000) {
        format!("{}s", step_us / 1_000_000)
    } else {
        format!("{}ms", step_us / 1_000)
    }
}

/// `monityre obs series <metric>` — query one metric's time-series ring
/// from a running server and render it: a table by default, `--sparkline`
/// for a one-line shape, `--json` for the exact wire payload.
pub(crate) fn obs_series(metric: &str, args: &Args) -> Result<String, CliError> {
    let addr = args.text_opt("addr").ok_or_else(|| {
        CliError::new("flag --addr <host:port> is required (a running `monityre serve`)")
    })?;
    let json = args.flag("json");
    let sparkline = args.flag("sparkline");
    let resolution = args.text_opt("resolution");
    let range_s: Option<u64> = parse_opt(args, "range-s")?;
    let timeout_ms = args.count("timeout-ms", 30_000)?;
    args.finish()?;

    let mut client = obs_client(&addr, timeout_ms)?;
    let mut request = Request::new(Op::Series);
    request.params.metric = Some(metric.to_owned());
    request.params.resolution = resolution;
    request.params.range_s = range_s;
    let response = client
        .request(&request)
        .map_err(|e| CliError::new(format!("obs series: request to {addr} failed: {e}")))?;
    if let Some(error) = &response.error {
        return Err(CliError::new(format!("obs series: {}", error.message)));
    }
    let Some(Payload::Series(slice)) = response.ok else {
        return Err(CliError::new(format!(
            "obs series: unexpected response: {response:?}"
        )));
    };

    if json {
        let text = serde_json::to_string(&slice)
            .map_err(|e| CliError::new(format!("obs series: serialize: {e}")))?;
        return Ok(format!("{text}\n"));
    }

    // Counters plot their cumulative value; gauges their latest sample.
    let value_of = |point: &monityre_serve::SeriesPoint| -> f64 {
        point
            .counter
            .map(|c| c as f64)
            .or_else(|| point.gauge.as_ref().map(|g| g.last))
            .unwrap_or(0.0)
    };

    if sparkline {
        const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let values: Vec<f64> = slice.points.iter().map(value_of).collect();
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = max - min;
        let line: String = values
            .iter()
            .map(|&v| {
                let idx = if span > 0.0 {
                    ((v - min) / span * 7.0).round() as usize
                } else {
                    0
                };
                BLOCKS[idx.min(7)]
            })
            .collect();
        return Ok(format!(
            "{} {line}  ({}, step {}, {} point(s), min {min:.3}, max {max:.3})\n",
            slice.metric,
            slice.kind,
            render_step(slice.step_us),
            slice.points.len(),
        ));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "series {} ({}, step {}, {} point(s)):",
        slice.metric,
        slice.kind,
        render_step(slice.step_us),
        slice.points.len(),
    );
    if slice.kind == "counter" {
        let _ = writeln!(out, "    {:>14} {:>14}", "t_s", "value");
        for point in &slice.points {
            let _ = writeln!(
                out,
                "    {:>14.3} {:>14}",
                point.ts_us as f64 / 1e6,
                point.counter.unwrap_or(0)
            );
        }
    } else {
        let _ = writeln!(
            out,
            "    {:>14} {:>14} {:>14} {:>14} {:>8}",
            "t_s", "last", "min", "max", "count"
        );
        for point in &slice.points {
            let gauge = point.gauge.unwrap_or_default();
            let _ = writeln!(
                out,
                "    {:>14.3} {:>14.3} {:>14.3} {:>14.3} {:>8}",
                point.ts_us as f64 / 1e6,
                gauge.last,
                gauge.min,
                gauge.max,
                gauge.count
            );
        }
    }
    Ok(out)
}

/// `monityre obs profile` — fetch the wall-clock sampler's flame table
/// from a running server and render it heaviest-stack first (`--json`
/// for the exact wire payload).
pub(crate) fn obs_profile(args: &Args) -> Result<String, CliError> {
    let addr = args.text_opt("addr").ok_or_else(|| {
        CliError::new("flag --addr <host:port> is required (a running `monityre serve`)")
    })?;
    let json = args.flag("json");
    let timeout_ms = args.count("timeout-ms", 30_000)?;
    args.finish()?;

    let mut client = obs_client(&addr, timeout_ms)?;
    let response = client
        .request(&Request::new(Op::Profile))
        .map_err(|e| CliError::new(format!("obs profile: request to {addr} failed: {e}")))?;
    let Some(Payload::Profile(table)) = response.ok else {
        return Err(CliError::new(format!(
            "obs profile: unexpected response: {response:?}"
        )));
    };

    if json {
        let text = serde_json::to_string(&table)
            .map_err(|e| CliError::new(format!("obs profile: serialize: {e}")))?;
        return Ok(format!("{text}\n"));
    }

    let busy = table.ticks.saturating_sub(table.idle_ticks);
    let busy_pct = if table.ticks > 0 {
        busy as f64 / table.ticks as f64 * 100.0
    } else {
        0.0
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flame table: {} tick(s), {} idle ({busy_pct:.1}% in instrumented phases)",
        table.ticks, table.idle_ticks
    );
    if table.ticks == 0 {
        let _ = writeln!(
            out,
            "    (the sampler is disabled; start the server with --profile-interval-ms > 0)"
        );
    } else if table.rows.is_empty() {
        let _ = writeln!(out, "    (no samples landed in an instrumented phase yet)");
    } else {
        let _ = writeln!(out, "    {:>10} {:>7}  stack", "samples", "pct");
        for row in &table.rows {
            let _ = writeln!(
                out,
                "    {:>10} {:>6.1}%  {}",
                row.samples, row.pct, row.stack
            );
        }
    }
    Ok(out)
}

/// One line of a flight-recorder dump (or trace-sink) file. Header lines
/// (`{"dump":…}`) have no `span` field and are skipped; unknown fields
/// are ignored, so both producers parse with the one shape.
#[derive(Debug, serde::Deserialize)]
struct DumpLine {
    #[serde(default)]
    ts_us: u64,
    #[serde(default)]
    span: Option<String>,
    #[serde(default)]
    dur_us: u64,
    #[serde(default)]
    trace: Option<String>,
    #[serde(default)]
    span_id: Option<String>,
    #[serde(default)]
    parent: Option<String>,
    #[serde(default)]
    event: bool,
    #[serde(default)]
    truncated: bool,
}

/// One record of the requested trace, decoded and hex-parsed.
struct TraceRecord {
    ts_us: u64,
    name: String,
    dur_us: u64,
    span_id: u64,
    parent: u64,
    event: bool,
    truncated: bool,
}

impl TraceRecord {
    /// The span id this record hangs under in the rendered tree. Events
    /// carry the *enclosing* span's id in `span_id` (their `parent` is 0),
    /// so they attach beneath that span rather than floating at the root.
    fn tree_parent(&self) -> u64 {
        if self.event {
            self.span_id
        } else {
            self.parent
        }
    }

    fn render(&self, out: &mut String, depth: usize, base_us: u64) {
        let indent = "  ".repeat(depth);
        let marker = if depth == 0 { "" } else { "└─ " };
        let at_ms = (self.ts_us.saturating_sub(base_us)) as f64 / 1000.0;
        if self.event {
            let _ = writeln!(out, "{indent}{marker}• {}  (at +{at_ms:.3} ms)", self.name);
            return;
        }
        let dur_ms = self.dur_us as f64 / 1000.0;
        let tail = if self.truncated {
            "  [truncated: still open at dump]"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{indent}{marker}{}  {dur_ms:.3} ms  (at +{at_ms:.3} ms, span {:016x}){tail}",
            self.name, self.span_id
        );
    }
}

/// Renders `record` and, depth-first, every child under it. `visited`
/// guards against a corrupt dump that links spans into a cycle.
fn render_subtree(
    out: &mut String,
    records: &[TraceRecord],
    children: &std::collections::HashMap<u64, Vec<usize>>,
    index: usize,
    depth: usize,
    base_us: u64,
    visited: &mut Vec<bool>,
) {
    if visited[index] {
        return;
    }
    visited[index] = true;
    let record = &records[index];
    record.render(out, depth, base_us);
    if record.event {
        return;
    }
    if let Some(kids) = children.get(&record.span_id) {
        for &kid in kids {
            if kid != index {
                render_subtree(out, records, children, kid, depth + 1, base_us, visited);
            }
        }
    }
}

/// `monityre obs trace <trace-id> --from <dump.jsonl>` — reconstruct one
/// request's causal span tree from a flight-recorder dump file and
/// pretty-print it: children indented under parents, siblings in start
/// order, events and truncated (still-open) spans marked.
pub(crate) fn obs_trace(trace_id: &str, args: &Args) -> Result<String, CliError> {
    let from = args.text_opt("from").ok_or_else(|| {
        CliError::new("flag --from <dump.jsonl> is required (a flight-recorder dump file)")
    })?;
    args.finish()?;

    let id = u64::from_str_radix(trace_id.trim_start_matches("0x"), 16).map_err(|_| {
        CliError::new(format!(
            "trace id `{trace_id}` is not hexadecimal (dumps print 16-hex-digit ids)"
        ))
    })?;
    let want = format!("{id:016x}");
    let text = std::fs::read_to_string(&from)
        .map_err(|e| CliError::new(format!("obs trace: cannot read `{from}`: {e}")))?;

    // Successive dumps append, and the rings persist between them, so the
    // same record can appear many times — identical lines collapse to one.
    let mut seen = std::collections::HashSet::new();
    let mut records: Vec<TraceRecord> = Vec::new();
    let mut other_traces = std::collections::BTreeSet::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        if !seen.insert(line) {
            continue;
        }
        let Ok(parsed) = serde_json::from_str::<DumpLine>(line) else {
            continue; // dump headers of a foreign shape, torn tail lines
        };
        let (Some(name), Some(trace)) = (parsed.span, parsed.trace) else {
            continue; // header lines and unlinked (trace-less) records
        };
        if trace != want {
            other_traces.insert(trace);
            continue;
        }
        let hex = |field: Option<&str>| field.and_then(|s| u64::from_str_radix(s, 16).ok());
        let Some(span_id) = hex(parsed.span_id.as_deref()) else {
            continue;
        };
        records.push(TraceRecord {
            ts_us: parsed.ts_us,
            name,
            dur_us: parsed.dur_us,
            span_id,
            parent: hex(parsed.parent.as_deref()).unwrap_or(0),
            event: parsed.event,
            truncated: parsed.truncated,
        });
    }

    if records.is_empty() {
        let mut message = format!("obs trace: no records for trace {want} in `{from}`");
        if !other_traces.is_empty() {
            let sample: Vec<&str> = other_traces.iter().take(8).map(String::as_str).collect();
            let _ = write!(message, "; traces present: {}", sample.join(", "));
            if other_traces.len() > sample.len() {
                let _ = write!(message, ", … ({} total)", other_traces.len());
            }
        }
        return Err(CliError::new(message));
    }

    records.sort_by_key(|r| (r.ts_us, r.span_id));
    let span_ids: std::collections::HashSet<u64> = records
        .iter()
        .filter(|r| !r.event)
        .map(|r| r.span_id)
        .collect();
    let mut children: std::collections::HashMap<u64, Vec<usize>> = std::collections::HashMap::new();
    for (index, record) in records.iter().enumerate() {
        children
            .entry(record.tree_parent())
            .or_default()
            .push(index);
    }
    let base_us = records.iter().map(|r| r.ts_us).min().unwrap_or(0);

    let mut out = format!("trace {want}: {} record(s)\n", records.len());
    let mut visited = vec![false; records.len()];
    // Roots: spans whose parent was never recorded (the client's logical
    // root context has no span record of its own) plus orphaned events.
    for (index, record) in records.iter().enumerate() {
        let parent = record.tree_parent();
        if parent == 0 || !span_ids.contains(&parent) {
            render_subtree(
                &mut out,
                &records,
                &children,
                index,
                0,
                base_us,
                &mut visited,
            );
        }
    }
    // Anything a cycle or self-parent link kept unreachable still prints.
    for index in 0..records.len() {
        render_subtree(
            &mut out,
            &records,
            &children,
            index,
            0,
            base_us,
            &mut visited,
        );
    }
    Ok(out)
}

/// `monityre explain` — the per-block nanojoule energy ledger at one
/// speed, evaluated in-process through the same path the `explain` wire
/// op takes, so `--json` prints byte-identical ledger bytes to a served
/// response's payload.
pub(crate) fn explain(args: &Args) -> Result<String, CliError> {
    let speed = args.number("speed", 60.0)?;
    let json = args.flag("json");
    let _ = args.flag("table"); // the default rendering, accepted for symmetry
    let executor = executor_from(args)?;
    let mut request = Request::new(Op::Explain);
    request.scenario = scenario_spec(args)?;
    request.params.speed_kmh = Some(speed);
    args.finish()?;

    let payload = evaluate(&request, &executor).map_err(|(code, message)| {
        CliError::new(format!("explain ({}): {message}", code.name()))
    })?;
    let Payload::Explain(ledger) = payload else {
        return Err(CliError::new(format!(
            "explain: unexpected payload {payload:?}"
        )));
    };
    if json {
        let text = serde_json::to_string(&ledger)
            .map_err(|e| CliError::new(format!("explain: serialize: {e}")))?;
        return Ok(format!("{text}\n"));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "energy ledger at {:.1} km/h (nanojoules per wheel round):",
        ledger.speed.kmh()
    );
    let _ = writeln!(
        out,
        "  {:<16} {:>12} {:>12} {:>12} {:>7} {:>7}",
        "block", "dynamic_nj", "static_nj", "total_nj", "share", "duty"
    );
    for entry in ledger.sorted_entries() {
        let _ = writeln!(
            out,
            "  {:<16} {:>12} {:>12} {:>12} {:>6.1}% {:>6.3}",
            entry.block,
            entry.dynamic_nj,
            entry.static_nj,
            entry.total_nj(),
            entry.share_pct(ledger.consumed_nj),
            entry.duty
        );
    }
    if ledger.radio_retx_nj > 0 {
        let _ = writeln!(out, "  {:<16} {:>38}", "radio retx", ledger.radio_retx_nj);
    }
    if ledger.ageing_leak_nj > 0 {
        let _ = writeln!(out, "  {:<16} {:>38}", "ageing leak", ledger.ageing_leak_nj);
    }
    let _ = writeln!(out, "  consumed        {:>12} nJ", ledger.consumed_nj);
    let _ = writeln!(out, "  harvested       {:>12} nJ", ledger.harvested_nj);
    let _ = writeln!(out, "  regulator loss  {:>12} nJ", ledger.regulator_loss_nj);
    let _ = writeln!(out, "  storage delta   {:>12} nJ", ledger.storage_delta_nj);
    let _ = writeln!(
        out,
        "  conservation: {}",
        if ledger.conservation_holds() {
            "ok (components sum bit-exactly to the aggregate)"
        } else {
            "VIOLATED"
        }
    );
    let _ = writeln!(
        out,
        "  verdict: {} at this speed",
        if ledger.is_surplus() {
            "self-powered (surplus)"
        } else {
            "in deficit"
        }
    );
    if let Some(dominant) = ledger.dominant_block() {
        let _ = writeln!(
            out,
            "  dominant block: {} ({:.1}% of consumption)",
            dominant.block,
            dominant.share_pct(ledger.consumed_nj)
        );
    }
    Ok(out)
}

/// `monityre request` — send one request to a running server (or
/// evaluate it locally) and print the raw JSON response line.
pub(crate) fn request(args: &Args) -> Result<String, CliError> {
    // `--explain` is shorthand for `--op explain` (with `--speed` naming
    // the operating point), mirroring the offline `monityre explain`.
    let op_name = if args.flag("explain") {
        "explain".to_owned()
    } else {
        args.text("op", "breakeven")
    };
    let addr = args.text_opt("addr");
    let local = args.flag("local");
    let timeout_ms = args.count("timeout-ms", 30_000)?;
    // `--retry` routes the call through the resilient client: bounded
    // attempts with jittered backoff and an idempotency key, so a flaky
    // (or fault-injected) server still yields the fault-free bytes.
    let retry = args.flag("retry");
    let retry_attempts = args.count("retry-attempts", 8)?;
    let retry_backoff_ms = args.count("retry-backoff-ms", 10)?;
    let retry_deadline_ms = args.count("retry-deadline-ms", 60_000)?;
    let retry_seed: Option<u64> = parse_opt(args, "retry-seed")?;
    let executor = executor_from(args)?; // --threads drives --local evaluation

    let op = Op::from_name(&op_name).ok_or_else(|| {
        CliError::new(format!(
            "flag --op: `{op_name}` is not one of {}",
            Op::ALL
                .iter()
                .map(|op| op.name())
                .collect::<Vec<_>>()
                .join(", ")
        ))
    })?;
    let mut request = Request::new(op);
    // `--trace <trace>:<span>` (two 16-hex-digit halves) pins the trace
    // context carried on the wire; the retrying client adopts it as the
    // logical-call root, so scripts know the id to look up in a dump.
    if let Some(raw) = args.text_opt("trace") {
        let ctx = TraceContext::parse(&raw).ok_or_else(|| {
            CliError::new(format!(
                "flag --trace: `{raw}` is not `<16 hex digits>:<16 hex digits>`"
            ))
        })?;
        request = request.with_trace(ctx);
    }
    request.id = parse_opt(args, "id")?;
    request.deadline_ms = parse_opt(args, "deadline-ms")?;
    request.idem = parse_opt(args, "idem")?;
    request.scenario = scenario_spec(args)?;
    request.params.from_kmh = parse_opt(args, "from")?;
    request.params.to_kmh = parse_opt(args, "to")?;
    request.params.steps = parse_opt(args, "steps")?;
    request.params.samples = parse_opt(args, "samples")?;
    request.params.seed = parse_opt(args, "seed")?;
    request.params.cycle = args.text_opt("cycle");
    request.params.repeat = parse_opt(args, "repeat")?;
    request.params.cap_mf = parse_opt(args, "cap-mf")?;
    // The stateful sheet ops: `--cell` names the target for both, and a
    // sheet_edit carries either `--value` (literal) or `--formula`.
    request.params.cell = args.text_opt("cell");
    request.params.value = parse_opt(args, "value")?;
    request.params.formula = args.text_opt("formula");
    // The observation ops: a `series` request names its `--metric` and may
    // pin the ring tier (`--resolution 10s`) and lookback (`--range-s`).
    request.params.metric = args.text_opt("metric");
    request.params.resolution = args.text_opt("resolution");
    request.params.range_s = parse_opt(args, "range-s")?;
    // The ledger op: `--speed` names the explained operating point.
    request.params.speed_kmh = parse_opt(args, "speed")?;
    // The ingest ops: `--ingest N` synthesizes a deterministic N-point
    // batch (seeded by `--ingest-seed`) for `--vehicle`; on an
    // `ingest_state` request, `--vehicle` instead filters the reply.
    let vehicle: Option<u64> = parse_opt(args, "vehicle")?;
    if let Some(count) = parse_opt::<usize>(args, "ingest")? {
        let seed: u64 = parse_opt(args, "ingest-seed")?.unwrap_or(2011);
        let start_us: u64 = parse_opt(args, "ingest-start-us")?.unwrap_or(1_000_000);
        request.params.points = Some(monityre_ingest::synthetic_points(
            vehicle.unwrap_or(1),
            count,
            seed,
            start_us,
        ));
    } else {
        request.params.vehicle = vehicle;
    }
    args.finish()?;

    let raw = if local {
        let response = match evaluate(&request, &executor) {
            Ok(payload) => Response::success(request.id, payload),
            Err((code, message)) => Response::failure(request.id, code, message),
        };
        serde_json::to_string(&response)
            .map_err(|e| CliError::new(format!("serialize response: {e}")))?
    } else {
        let addr = addr.ok_or_else(|| {
            CliError::new(
                "flag --addr <host:port> is required (or pass --local to evaluate in-process)",
            )
        })?;
        if retry {
            let defaults = RetryPolicy::default();
            let policy = RetryPolicy {
                attempts: u32::try_from(retry_attempts).unwrap_or(u32::MAX),
                base_backoff: Duration::from_millis(retry_backoff_ms as u64),
                attempt_timeout: Duration::from_millis(timeout_ms as u64),
                overall_deadline: Duration::from_millis(retry_deadline_ms as u64),
                jitter_seed: retry_seed.unwrap_or(defaults.jitter_seed),
                ..defaults
            };
            let mut client = RetryingClient::resolve(addr.as_str(), policy)
                .map_err(|e| CliError::new(format!("request: cannot resolve {addr}: {e}")))?;
            client
                .call_raw(&request)
                .map_err(|e| CliError::new(format!("request to {addr} failed: {e}")))?
        } else {
            let mut client = Client::connect(addr.as_str())
                .map_err(|e| CliError::new(format!("request: cannot connect to {addr}: {e}")))?;
            client
                .set_timeout(Some(Duration::from_millis(timeout_ms as u64)))
                .map_err(|e| CliError::new(format!("request: {e}")))?;
            client
                .request_raw(&request)
                .map_err(|e| CliError::new(format!("request to {addr} failed: {e}")))?
        }
    };
    Ok(format!("{raw}\n"))
}
