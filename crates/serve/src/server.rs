//! The TCP server: acceptor, connection handlers, admission, shutdown.
//!
//! Threading model (all `std::net` + `std::thread`, no async runtime):
//!
//! * one **acceptor** thread blocks on `accept`, spawns a handler per
//!   connection, and reaps finished handlers on every accept;
//! * each **connection handler** reads line-delimited requests in
//!   lockstep (one outstanding request per connection), with a short
//!   read timeout so it can poll the shutdown flag, and evaluates each
//!   request itself once the admission gate lets it in (at most
//!   `workers` at once, at most `queue_capacity` more waiting, FIFO),
//!   on the `SweepExecutor` less one thread per other live connection;
//! * the optional **scrape** and **profiler** threads observe the rest.
//!
//! Shutdown (the `shutdown` op or [`ServerHandle::shutdown`]) flips one
//! flag, closes the gate, and pokes the acceptor with a loopback
//! connection so `accept` returns. Requests already waiting at the gate
//! are still admitted and answered, and every thread joins before
//! [`ServerHandle::wait`] returns.

use std::borrow::Cow;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use monityre_core::SweepExecutor;
use monityre_faults::{FaultKind, FaultPlan};
use serde::Serialize as _;

use crate::dedup::DedupMap;
use crate::protocol::{
    decode_request_line, ErrorCode, Op, Params, Payload, ProtocolError, Response, MAX_LINE_BYTES,
};
use crate::stats::{Stats, StatsSnapshot};
use crate::worker::{Engine, Gate, Job, Refusal};

/// How often blocked reads wake up to poll the shutdown flag.
const POLL_PERIOD: Duration = Duration::from_millis(200);

/// How long a response write may block before the connection is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Server tuning; every field has a sensible default.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub bind: String,
    /// Concurrent evaluations (clamped to ≥ 1).
    pub workers: usize,
    /// The most `SweepExecutor` threads one request evaluates on; 0 means
    /// [`SweepExecutor::try_available`] (which honours `MONITYRE_THREADS`,
    /// and [`ServerConfig::start`] refuses a malformed value).
    /// Each other live connection takes one thread off a request's share.
    pub threads: usize,
    /// Evaluation requests that may wait for a slot (clamped to ≥ 1);
    /// excess load is shed with `queue_full`.
    pub queue_capacity: usize,
    /// Scenario LRU capacity (warm `EvalCache` entries).
    pub cache_capacity: usize,
    /// Idempotency-dedup capacity (remembered responses). In-flight keys
    /// are never evicted; completed ones go FIFO past this bound.
    pub dedup_capacity: usize,
    /// Fault plan to inject. `None` falls back to the
    /// [`monityre_faults::FAULTS_ENV_VAR`] environment variable at
    /// [`ServerConfig::start`]; absent both, the hooks are inert.
    pub faults: Option<Arc<FaultPlan>>,
    /// Segment-store directory of the `ingest` pipeline. `None` (the
    /// default) keeps ingestion purely in memory; set, the server
    /// replays the directory at startup — reconstructing pre-crash
    /// window state — and appends durably from then on.
    pub ingest_dir: Option<std::path::PathBuf>,
    /// Sliding-window span of the ingest aggregation, microseconds.
    pub ingest_window_us: u64,
    /// Self-scrape cadence of the observation loop, microseconds: every
    /// tick snapshots the merged registries into the time-series rings
    /// and re-evaluates the SLO engine. `0` disables the loop (the
    /// `series` op finds no metrics and `health` stays `ok`).
    pub scrape_interval_us: u64,
    /// Wall-clock profiler sampling cadence, microseconds. Deliberately
    /// defaults to a prime-ish period (9973 µs ≈ 100 Hz) so the sampler
    /// never locks step with periodic work. `0` disables the sampler.
    pub profile_interval_us: u64,
    /// Fast SLO burn window of the default objectives, microseconds.
    pub slo_fast_us: u64,
    /// Slow SLO burn window of the default objectives, microseconds.
    pub slo_slow_us: u64,
    /// Objective overrides. `None` installs the default serve objectives
    /// (execute-p99, error-ratio, ingest-deficit-rate) over the
    /// configured windows; tests and harnesses may pin their own.
    pub slos: Option<Vec<monityre_obs::SloSpec>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            bind: "127.0.0.1:0".to_owned(),
            workers: 2,
            threads: 0,
            queue_capacity: 64,
            cache_capacity: 16,
            dedup_capacity: 256,
            faults: None,
            ingest_dir: None,
            ingest_window_us: monityre_ingest::DEFAULT_WINDOW_US,
            scrape_interval_us: 1_000_000,
            profile_interval_us: 9_973,
            slo_fast_us: monityre_obs::DEFAULT_FAST_US,
            slo_slow_us: monityre_obs::DEFAULT_SLOW_US,
            slos: None,
        }
    }
}

/// The default serve objectives: p99 execute latency below 250 ms,
/// error ratio below 0.1 %, and ingest deficit alerts below 50/s — the
/// three failure modes of the paper's pipeline (slow sweeps, shed or
/// failed requests, a fleet running at an energy deficit).
fn default_objectives(fast_us: u64, slow_us: u64) -> Vec<monityre_obs::SloSpec> {
    use monityre_obs::{SloKind, SloSpec};
    let own = |names: &[&str]| -> Vec<String> { names.iter().map(|&n| n.to_owned()).collect() };
    vec![
        SloSpec::new(
            "execute-p99",
            SloKind::GaugeAbove {
                metric: format!("{}.p99_us", monityre_obs::names::SERVE_EXECUTE),
                threshold: 250_000.0,
                tolerance: 0.1,
            },
        )
        .with_windows(fast_us, slow_us)
        .with_exemplar_from(monityre_obs::names::SERVE_EXECUTE),
        SloSpec::new(
            "error-ratio",
            SloKind::RatioAbove {
                bad: own(&["serve.rejected", "serve.timed_out", "serve.eval_failed"]),
                total: own(&[
                    "serve.rejected",
                    "serve.timed_out",
                    "serve.eval_failed",
                    "serve.served",
                    "serve.bad_requests",
                ]),
                budget: 0.001,
            },
        )
        .with_windows(fast_us, slow_us)
        .with_exemplar_from(monityre_obs::names::SERVE_EXECUTE),
        SloSpec::new(
            "ingest-deficit-rate",
            SloKind::RateAbove {
                metric: monityre_obs::names::SERVE_INGEST_ALERTS.to_owned(),
                max_per_sec: 50.0,
            },
        )
        .with_windows(fast_us, slow_us),
    ]
}

impl ServerConfig {
    /// Binds, spawns the acceptor and the observer threads, and returns
    /// the running server's handle.
    ///
    /// # Errors
    ///
    /// Propagates bind failures, and returns `InvalidInput` for a
    /// malformed `MONITYRE_THREADS` (when `threads` is 0) or
    /// `MONITYRE_FAULTS` (when `faults` is `None`).
    pub fn start(self) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&self.bind)?;
        let addr = listener.local_addr()?;
        let executor = if self.threads == 0 {
            SweepExecutor::try_available()
                .map_err(|message| io::Error::new(io::ErrorKind::InvalidInput, message))?
        } else {
            SweepExecutor::new(self.threads)
        };
        let faults = match self.faults {
            Some(plan) => Some(plan),
            // A malformed env spec must fail loudly, not silently disarm
            // the chaos run.
            None => FaultPlan::from_env()
                .map_err(|message| io::Error::new(io::ErrorKind::InvalidInput, message))?
                .map(Arc::new),
        };
        // Open (and, after a crash, recover) the ingest pipeline before
        // accepting connections: the first `ingest_state` served must
        // already see the replayed window state.
        let ingestor = monityre_ingest::Ingestor::open(monityre_ingest::IngestConfig {
            dir: self.ingest_dir,
            window_us: self.ingest_window_us,
            ..monityre_ingest::IngestConfig::default()
        })?;
        let replay = ingestor.replay_report().clone();
        let specs = self
            .slos
            .unwrap_or_else(|| default_objectives(self.slo_fast_us, self.slo_slow_us));
        let shared = Arc::new(Shared {
            addr,
            shutdown: AtomicBool::new(false),
            gate: Gate::new(self.workers, self.queue_capacity),
            handlers: Mutex::new(Vec::new()),
            engine: Engine {
                executor,
                live: AtomicUsize::new(0),
                lru: crate::worker::ScenarioLru::new(self.cache_capacity),
                stats: Arc::new(Stats::new()),
                dedup: DedupMap::new(self.dedup_capacity),
                sheet: Mutex::new(crate::worker::reference_sheet()),
                ingest: Mutex::new(ingestor),
                last_ledger: Mutex::new(crate::worker::startup_ledger()),
            },
            faults,
            series: monityre_obs::SeriesStore::new(&monityre_obs::DEFAULT_TIERS),
            profiler: monityre_obs::Profiler::new(),
            slo: Mutex::new(monityre_obs::SloEngine::new(specs)),
            health: Mutex::new(monityre_obs::HealthReport {
                status: "ok".to_owned(),
                objectives: Vec::new(),
            }),
        });
        let mut observers: Vec<JoinHandle<()>> = Vec::new();
        if self.scrape_interval_us > 0 {
            let shared = Arc::clone(&shared);
            let interval = Duration::from_micros(self.scrape_interval_us);
            observers.push(thread::spawn(move || scrape_loop(&shared, interval)));
        }
        if self.profile_interval_us > 0 {
            let shared = Arc::clone(&shared);
            let interval = Duration::from_micros(self.profile_interval_us);
            observers.push(thread::spawn(move || profile_loop(&shared, interval)));
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(ServerHandle {
            shared,
            acceptor: Some(acceptor),
            observers,
            replay,
        })
    }
}

/// The self-scrape loop: each tick snapshots the merged registries into
/// the time-series rings and re-evaluates the SLO engine, refreshing the
/// health report the `health` op serves. Sleeps in short slices so even
/// second-scale cadences observe shutdown within [`POLL_PERIOD`].
fn scrape_loop(shared: &Shared, interval: Duration) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        shared.scrape_once();
        sleep_polling(&shared.shutdown, interval);
    }
}

/// The wall-clock profiler loop: each tick samples every thread's open
/// span stack into the flame table the `profile` op serves.
fn profile_loop(shared: &Shared, interval: Duration) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        shared.profiler.sample();
        sleep_polling(&shared.shutdown, interval);
    }
}

/// Sleeps `total`, waking at least every [`POLL_PERIOD`] to check the
/// shutdown flag so graceful drain never waits out a long cadence.
fn sleep_polling(shutdown: &AtomicBool, total: Duration) {
    let mut remaining = total;
    while !shutdown.load(Ordering::SeqCst) && !remaining.is_zero() {
        let slice = remaining.min(POLL_PERIOD);
        thread::sleep(slice);
        remaining = remaining.saturating_sub(slice);
    }
}

struct Shared {
    addr: SocketAddr,
    shutdown: AtomicBool,
    gate: Gate,
    /// Connection-handler threads; the acceptor drops finished ones on
    /// every accept and joins the rest at shutdown.
    handlers: Mutex<Vec<JoinHandle<()>>>,
    engine: Engine,
    /// The installed fault plan; `None` keeps every hook inert.
    faults: Option<Arc<FaultPlan>>,
    /// Fixed-memory time-series rings the self-scrape loop fills and the
    /// `series` op reads.
    series: monityre_obs::SeriesStore,
    /// The wall-clock profiler's flame table, fed by the sampler thread.
    profiler: monityre_obs::Profiler,
    /// The SLO engine, advanced once per scrape tick.
    slo: Mutex<monityre_obs::SloEngine>,
    /// The most recent health report — the readiness answer the `health`
    /// op serves without waiting on a scrape.
    health: Mutex<monityre_obs::HealthReport>,
}

impl Shared {
    /// One merged registry snapshot: refresh the point-in-time gauges,
    /// then merge this server's private registry with the process-global
    /// one (where the core evaluation spans live). Both the `metrics`
    /// exposition and the self-scrape loop read through here, so the
    /// time-series rings see exactly what Prometheus would.
    fn merged_snapshot(&self) -> monityre_obs::RegistrySnapshot {
        let stats = &self.engine.stats;
        let registry = stats.registry();
        let clamp = |n: usize| i64::try_from(n).unwrap_or(i64::MAX);
        registry
            .gauge("serve.queue_depth")
            .set(clamp(self.gate.waiting()));
        registry
            .gauge("serve.queue_capacity")
            .set(clamp(self.gate.capacity()));
        registry
            .gauge("serve.connections")
            .set(clamp(self.engine.live.load(Ordering::SeqCst)));
        registry
            .gauge("serve.lru_entries")
            .set(clamp(self.engine.lru.len()));
        registry
            .gauge("serve.dedup_entries")
            .set(clamp(self.engine.dedup.len()));
        if let Ok(ingest) = self.engine.ingest.lock() {
            registry
                .gauge("serve.ingest_vehicles")
                .set(clamp(ingest.vehicles()));
            registry
                .gauge("serve.ingest_window_points")
                .set(i64::try_from(ingest.points_in_window()).unwrap_or(i64::MAX));
        }
        // Per-block attribution gauges from the most recent ledger (the
        // startup reference ledger until an `explain` is served), so the
        // series store charts any block's dynamic/static share over time.
        if let Ok(ledger) = self.engine.last_ledger.lock() {
            if let Some(ledger) = ledger.as_ref() {
                let prefix = monityre_obs::names::ENERGY_BLOCK_PREFIX;
                for entry in &ledger.blocks {
                    registry
                        .gauge(&format!("{prefix}.{}.dynamic_nj", entry.block))
                        .set(entry.dynamic_nj);
                    registry
                        .gauge(&format!("{prefix}.{}.static_nj", entry.block))
                        .set(entry.static_nj);
                }
            }
        }
        registry
            .snapshot()
            .merged(monityre_obs::Registry::global().snapshot())
    }

    /// Renders the `metrics` op body.
    fn prometheus_text(&self) -> String {
        self.merged_snapshot().to_prometheus()
    }

    /// One self-scrape tick: sample every counter, gauge and derived
    /// histogram quantile into the rings, then re-evaluate the SLO
    /// engine against them and cache the resulting health report.
    fn scrape_once(&self) {
        let snapshot = self.merged_snapshot();
        let now_us = monityre_obs::now_us();
        self.series.record_snapshot(now_us, &snapshot);
        let report = self
            .slo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .evaluate(&self.series, &snapshot, now_us);
        *self.health.lock().unwrap_or_else(PoisonError::into_inner) = report;
    }

    /// The cached readiness answer (the last scrape tick's report).
    fn health_report(&self) -> monityre_obs::HealthReport {
        self.health
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The `series` op's answer: one metric's ring, or — for an unknown
    /// metric, a caller mistake rather than an empty chart — an error
    /// naming the nearest recorded series so a typo is a one-round-trip
    /// fix.
    fn series_response(&self, id: Option<u64>, params: &Params) -> Response {
        let metric = params.metric.as_deref().unwrap_or_default();
        let step_us = params
            .resolution
            .as_deref()
            .and_then(monityre_obs::parse_duration_us);
        let range_us = params.range_s.map(|s| s.saturating_mul(1_000_000));
        let now_us = monityre_obs::now_us();
        if let Some(slice) = self.series.query(metric, step_us, range_us, now_us) {
            return Response::success(id, Payload::Series(slice));
        }
        let nearest = nearest_metrics(metric, &self.series.metric_names());
        let hint = if nearest.is_empty() {
            "no series recorded yet — is the scrape loop enabled?".to_owned()
        } else {
            format!("nearest recorded: {}", nearest.join(", "))
        };
        Response::failure(
            id,
            ErrorCode::EvalFailed,
            format!("metric `{metric}` has no recorded series ({hint})"),
        )
    }

    /// Idempotent shutdown trigger: flag, gate close, acceptor poke.
    fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.gate.close();
        // Unblock `accept` so the acceptor observes the flag. The poke
        // connection is handled (and immediately dropped) like any other.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server. Dropping the handle shuts the server down
/// gracefully (so a panicking test never leaks threads); call
/// [`Self::wait`] to instead serve until a client sends `shutdown`.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    observers: Vec<JoinHandle<()>>,
    replay: monityre_ingest::ReplayReport,
}

impl ServerHandle {
    /// The bound address (with the resolved ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A statistics snapshot, read directly (no wire round trip).
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.engine.stats.snapshot()
    }

    /// The Prometheus text exposition the `metrics` op serves, read
    /// directly (no wire round trip).
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        self.shared.prometheus_text()
    }

    /// The cached readiness answer (what the `health` op serves), read
    /// directly (no wire round trip).
    #[must_use]
    pub fn health(&self) -> monityre_obs::HealthReport {
        self.shared.health_report()
    }

    /// The wall-clock profiler's flame table (what the `profile` op
    /// serves), read directly (no wire round trip).
    #[must_use]
    pub fn flame_table(&self) -> monityre_obs::FlameTable {
        self.shared.profiler.snapshot()
    }

    /// One metric's self-scraped time-series ring (what the `series` op
    /// serves for a default query), read directly (no wire round trip).
    /// `None` until the scrape loop has sampled the metric at least once.
    #[must_use]
    pub fn series(&self, metric: &str) -> Option<monityre_obs::SeriesSlice> {
        self.shared
            .series
            .query(metric, None, None, monityre_obs::now_us())
    }

    /// What the startup ingest replay found (all zeros when
    /// [`ServerConfig::ingest_dir`] was `None` or the directory was
    /// fresh) — `monityre serve` prints this so a post-crash restart
    /// tells the operator how much state it reconstructed.
    #[must_use]
    pub fn ingest_replay(&self) -> &monityre_ingest::ReplayReport {
        &self.replay
    }

    /// Whether shutdown has been triggered.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Initiates graceful shutdown and blocks until every admitted or
    /// waiting request is answered and every thread has joined.
    pub fn shutdown(mut self) {
        self.shared.trigger_shutdown();
        self.join_all();
    }

    /// Blocks until a client triggers shutdown (the `shutdown` op), then
    /// drains and joins — the body of `monityre serve`. Returns the final
    /// statistics snapshot for the exit summary.
    pub fn wait(mut self) -> StatsSnapshot {
        self.join_all();
        self.shared.engine.stats.snapshot()
    }

    fn join_all(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // The scrape and sampler threads poll the shutdown flag at least
        // every POLL_PERIOD, so this drain is bounded.
        for observer in self.observers.drain(..) {
            let _ = observer.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.trigger_shutdown();
        self.join_all();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // The shutdown poke (or a late client); stop accepting.
                    drop(stream);
                    break;
                }
                if let Some(plan) = shared.faults.as_deref() {
                    if plan.decide(FaultKind::AcceptDrop) {
                        // Injected: the dial succeeded, then the peer
                        // vanished before reading anything.
                        drop(stream);
                        continue;
                    }
                }
                let handler = {
                    let shared = Arc::clone(shared);
                    thread::spawn(move || handle_connection(stream, &shared))
                };
                let mut handlers = shared
                    .handlers
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                handlers.retain(|handler| !handler.is_finished());
                handlers.push(handler);
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failure; keep serving.
            }
        }
    }
    let handlers = std::mem::take(
        &mut *shared
            .handlers
            .lock()
            .unwrap_or_else(PoisonError::into_inner),
    );
    for handler in handlers {
        let _ = handler.join();
    }
}

/// Per-connection socket setup: the read timeout that lets the handler
/// poll the shutdown flag, the write timeout that bounds a stuck peer, and
/// `TCP_NODELAY`. Without it Nagle holds a small response while an
/// earlier segment is still unacknowledged, and a peer that delays its
/// ACKs adds its ACK timer to that reply — the common case on a
/// connection that keeps requests in flight while answers come back.
fn configure_stream(stream: &TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_PERIOD))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    stream.set_nodelay(true)
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _live = shared.engine.connection();
    if configure_stream(&stream).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    // The line buffer persists across reads: a timeout can strike
    // mid-line, and the bytes already consumed from the socket stay here
    // until the terminating newline arrives.
    let mut line: Vec<u8> = Vec::new();
    // Every response on this connection is framed into this one buffer.
    let mut frame_buf = String::new();
    loop {
        let outcome = read_more(&mut reader, &mut line);
        if matches!(outcome, ReadOutcome::Line | ReadOutcome::WouldBlock)
            && line.len() > MAX_LINE_BYTES
        {
            let response = Response::failure(
                None,
                ErrorCode::BadRequest,
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            );
            shared.engine.stats.record_bad_request();
            let _ = send_response(
                &mut writer,
                &response,
                shared.faults.as_deref(),
                &mut frame_buf,
            );
            return;
        }
        match outcome {
            ReadOutcome::Line => {
                let keep_going = serve_line(&line, &mut writer, &mut frame_buf, shared);
                line.clear();
                // Keep the frame buffer no larger than the line buffer
                // may grow: a million-point sweep's answer is not worth
                // holding for the life of the connection.
                if frame_buf.capacity() > MAX_LINE_BYTES {
                    frame_buf = String::new();
                }
                if !keep_going {
                    return;
                }
            }
            ReadOutcome::WouldBlock if !shared.shutdown.load(Ordering::SeqCst) => {}
            ReadOutcome::Eof => {
                if !line.is_empty() {
                    // Final unterminated line: serve it, then hang up.
                    let _ = serve_line(&line, &mut writer, &mut frame_buf, shared);
                }
                return;
            }
            ReadOutcome::WouldBlock | ReadOutcome::Error => return,
        }
    }
}

enum ReadOutcome {
    /// A complete `\n`-terminated line sits in the buffer.
    Line,
    /// The read timed out (possibly mid-line); poll the shutdown flag.
    WouldBlock,
    /// The peer closed the connection.
    Eof,
    /// A hard I/O error; drop the connection.
    Error,
}

/// Reads until a newline, EOF, or timeout. Partial bytes accumulate in
/// `line` across calls — `read_until` appends everything it consumed
/// before an error, so nothing is lost to a timeout.
fn read_more<R: Read>(reader: &mut BufReader<R>, line: &mut Vec<u8>) -> ReadOutcome {
    match reader.read_until(b'\n', line) {
        Ok(0) => ReadOutcome::Eof,
        Ok(_) => {
            if line.last() == Some(&b'\n') {
                ReadOutcome::Line
            } else {
                // `read_until` only returns a short read at EOF.
                ReadOutcome::Eof
            }
        }
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ) =>
        {
            ReadOutcome::WouldBlock
        }
        Err(_) => ReadOutcome::Error,
    }
}

/// Serves one request line, framing the response into `frame_buf`;
/// returns `false` when the connection (or the whole server) should stop.
fn serve_line(
    raw: &[u8],
    writer: &mut TcpStream,
    frame_buf: &mut String,
    shared: &Arc<Shared>,
) -> bool {
    let received = Instant::now();
    let stats = &shared.engine.stats;
    let faults = shared.faults.as_deref();
    if let Some(plan) = faults {
        if plan.decide(FaultKind::SlowRead) {
            // Injected: a slow server — the request sits unparsed.
            thread::sleep(plan.delay());
        }
    }
    let mut refuse = |message: String| {
        stats.record_bad_request();
        let response = Response::failure(None, ErrorCode::BadRequest, message);
        send_response(writer, &response, faults, frame_buf).is_ok()
    };
    let request = match decode_request_line(raw) {
        Ok(request) => request,
        Err(ProtocolError::Empty) => return true, // blank keep-alive line
        Err(ProtocolError::NotUtf8) => return refuse("request line is not UTF-8".to_owned()),
        Err(ProtocolError::Malformed(detail)) => {
            return refuse(format!("request does not parse: {detail}"));
        }
        // Only an unterminated last line gets here: the read loop refuses
        // longer terminated ones before they are served.
        Err(ProtocolError::Oversize { .. }) => {
            refuse(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
            return false;
        }
    };
    let id = request.id;
    if let Err(message) = request.validate() {
        stats.record_bad_request();
        let response = Response::failure(id, ErrorCode::BadRequest, message);
        return send_response(writer, &response, faults, frame_buf).is_ok();
    }
    // Install the wire trace context for the rest of the request: control
    // ops and evaluation alike run on this thread.
    let _trace = request.trace.map(monityre_obs::install_context);
    let response = match request.op {
        Op::Ping => Response::success(id, Payload::Pong),
        Op::Stats => Response::success(id, Payload::Stats(shared.engine.stats.snapshot())),
        Op::Metrics => Response::success(id, Payload::Metrics(shared.prometheus_text())),
        Op::Dump => {
            monityre_obs::recorder::record_event("dump.requested");
            let payload = match monityre_obs::recorder::dump("wire_request") {
                Some((path, records)) => Payload::Dumped {
                    path: Some(path.display().to_string()),
                    records,
                },
                // Unarmed (or the write failed): still acknowledge with
                // the record count so the caller learns the recorder is
                // alive but has nowhere to dump.
                None => Payload::Dumped {
                    path: None,
                    records: monityre_obs::recorder::snapshot().len(),
                },
            };
            Response::success(id, payload)
        }
        Op::Series => shared.series_response(id, &request.params),
        Op::Health => Response::success(id, Payload::Health(shared.health_report())),
        Op::Profile => Response::success(id, Payload::Profile(shared.profiler.snapshot())),
        Op::Shutdown => {
            // Acknowledge first so the client sees the answer even though
            // this connection closes right after. Never faulted: losing
            // the ack would strand the drain.
            let _ = write_response(writer, &Response::success(id, Payload::Draining), frame_buf);
            shared.trigger_shutdown();
            return false;
        }
        // Evaluation op: wait for a slot at the gate, then evaluate right
        // here. The gate never blocks to refuse — excess load is shed at
        // once with a structured error.
        _ => match shared.gate.enter() {
            Ok(_permit) => {
                let job = Job {
                    deadline: request
                        .deadline_ms
                        .map(|ms| received + Duration::from_millis(ms)),
                    request,
                    received,
                };
                shared.engine.run(&job, faults)
            }
            Err(Refusal::Full) => {
                stats.record_rejected();
                Response::failure(
                    id,
                    ErrorCode::QueueFull,
                    format!(
                        "job queue is at capacity ({}); retry later",
                        shared.gate.capacity()
                    ),
                )
            }
            Err(Refusal::Closed) => {
                Response::failure(id, ErrorCode::ShuttingDown, "server is draining")
            }
        },
    };
    send_response(writer, &response, faults, frame_buf).is_ok()
}

/// Ranks the recorded series names by edit distance to the requested
/// metric and returns the closest few, nearest first (name order breaks
/// ties so the hint is deterministic).
fn nearest_metrics(target: &str, names: &[String]) -> Vec<String> {
    let mut ranked: Vec<(usize, &String)> = names
        .iter()
        .map(|name| (edit_distance(target, name), name))
        .collect();
    ranked.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
    ranked
        .into_iter()
        .take(3)
        .map(|(_, name)| format!("`{name}`"))
        .collect()
}

/// Plain Levenshtein distance; the name sets involved are tiny (a few
/// dozen metrics of a few dozen bytes), so the O(n·m) table row is fine.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Renders `response` as one wire frame — compact JSON and a `\n` —
/// into `buf`, replacing what it held. The buffer is the connection's
/// own, so steady-state framing allocates nothing.
fn frame(response: &Response, buf: &mut String) {
    buf.clear();
    response.write_json(buf);
    buf.push('\n');
}

fn write_response(
    writer: &mut TcpStream,
    response: &Response,
    frame_buf: &mut String,
) -> io::Result<()> {
    frame(response, frame_buf);
    writer.write_all(frame_buf.as_bytes())?;
    writer.flush()
}

/// [`write_response`] behind the response-path fault hooks. Every hook is
/// a conditional on the (usually absent) plan, so the fault-free path
/// costs one branch.
///
/// Injection sites, in the order they are considered:
///
/// * `conn_reset` — close the socket instead of answering; the result
///   exists server-side (and, with an `idem` key, in the dedup map) but
///   never travels.
/// * `stall_read` / `delay_response` — hold the response for the plan's
///   stall/delay; the client's read timeout (not a hang) must handle it.
/// * `truncate_frame` — write a newline-less prefix, then close.
/// * `corrupt_frame` — flip the first byte to an invalid-UTF-8 value
///   (`{` ⊕ 0x80), so damage is always *detectable*: an arbitrary bit
///   flip could still parse and silently return a wrong result.
/// * `partial_write` — split the write in two flushes with a pause
///   between; benign, the frame still completes.
fn send_response(
    writer: &mut TcpStream,
    response: &Response,
    faults: Option<&FaultPlan>,
    frame_buf: &mut String,
) -> io::Result<()> {
    let Some(plan) = faults else {
        return write_response(writer, response, frame_buf);
    };
    if plan.decide(FaultKind::ConnReset) {
        let _ = writer.shutdown(Shutdown::Both);
        return Err(io::Error::new(
            io::ErrorKind::ConnectionReset,
            "injected connection reset",
        ));
    }
    if plan.decide(FaultKind::StallRead) {
        thread::sleep(plan.stall());
    } else if plan.decide(FaultKind::DelayResponse) {
        thread::sleep(plan.delay());
    }
    frame(response, frame_buf);
    let mut bytes = Cow::Borrowed(frame_buf.as_bytes());
    if plan.decide(FaultKind::TruncateFrame) {
        let cut = bytes.len() / 2;
        writer.write_all(&bytes[..cut])?;
        writer.flush()?;
        let _ = writer.shutdown(Shutdown::Both);
        return Err(io::Error::new(
            io::ErrorKind::WriteZero,
            "injected truncated frame",
        ));
    }
    if plan.decide(FaultKind::CorruptFrame) {
        bytes.to_mut()[0] ^= 0x80;
    }
    if plan.decide(FaultKind::PartialWrite) {
        let cut = (bytes.len() / 2).max(1);
        writer.write_all(&bytes[..cut])?;
        writer.flush()?;
        thread::sleep(plan.pause());
        writer.write_all(&bytes[cut..])?;
        return writer.flush();
    }
    writer.write_all(&bytes)?;
    writer.flush()
}

/// Resolves a `host:port` string to a socket address (first match).
///
/// # Errors
///
/// Propagates resolution failures; an empty resolution is
/// [`io::ErrorKind::AddrNotAvailable`].
pub fn resolve_addr(spec: &str) -> io::Result<SocketAddr> {
    spec.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::AddrNotAvailable,
            format!("`{spec}` resolves to no address"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use crate::Client;

    /// The `serve.connections` gauge as the `metrics` op exports it.
    fn connections_gauge(handle: &ServerHandle) -> i64 {
        handle
            .prometheus_text()
            .lines()
            .find_map(|line| line.strip_prefix("monityre_serve_connections "))
            .and_then(|value| value.trim().parse().ok())
            .expect("the serve.connections gauge is exported")
    }

    #[test]
    fn accepted_streams_get_nodelay_and_both_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        assert!(
            !stream.nodelay().expect("nodelay"),
            "sockets start with Nagle on"
        );
        configure_stream(&stream).expect("configure");
        assert!(stream.nodelay().expect("nodelay"));
        assert_eq!(
            stream.read_timeout().expect("read timeout"),
            Some(POLL_PERIOD)
        );
        assert_eq!(
            stream.write_timeout().expect("write timeout"),
            Some(WRITE_TIMEOUT)
        );
    }

    #[test]
    fn finished_connection_handlers_are_reaped() {
        let handle = ServerConfig {
            scrape_interval_us: 0,
            profile_interval_us: 0,
            ..ServerConfig::default()
        }
        .start()
        .expect("bind loopback");
        let mut retained_peak = 0;
        for id in 0..300 {
            let mut client = Client::connect(handle.addr()).expect("connect");
            let response = client
                .request(&Request::new(Op::Ping).with_id(id))
                .expect("ping");
            assert_eq!(response.ok, Some(Payload::Pong));
            drop(client);
            let retained = handle.shared.handlers.lock().expect("handlers").len();
            retained_peak = retained_peak.max(retained);
        }
        assert!(
            retained_peak <= 32,
            "the acceptor retained {retained_peak} handles over 300 short connections"
        );
        // Every closed connection's handler sees EOF and exits.
        let start = Instant::now();
        while connections_gauge(&handle) != 0 {
            assert!(
                start.elapsed() < 5 * POLL_PERIOD,
                "{} handlers still live after the clients left",
                connections_gauge(&handle)
            );
            thread::sleep(Duration::from_millis(10));
        }
        handle.shutdown();
    }
}
