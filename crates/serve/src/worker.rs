//! Job evaluation: the admission gate, the scenario LRU, and the shared
//! op dispatcher.
//!
//! The same [`run_op`] body serves two callers: the server's connection
//! handlers, once [`Gate`] admits them (warm [`EvalCache`] from the LRU,
//! deadline-driven cancellation), and the public [`evaluate`] helper
//! (fresh cache, never cancelled). Both build the same [`Payload`] values
//! and serialize through the same `serde_json`, which is what makes a
//! served response byte-identical to a direct in-process evaluation —
//! the loopback tests pin that down.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use monityre_core::EmulatorConfig;
use monityre_core::{
    BreakEvenOptimizer, EnergyBalance, EnergyLedger, EvalCache, MonteCarlo, Scenario,
    SweepExecutor, TransientEmulator, VariationModel,
};
use monityre_faults::{FaultKind, FaultPlan};
use monityre_harvest::Supercap;
use monityre_ingest::Ingestor;
use monityre_node::Architecture;
use monityre_profile::named_cycle;
use monityre_sheet::PowerSheet;
use monityre_units::{Capacitance, Resistance, Speed, Voltage};

use crate::dedup::{Begin, DedupMap};
use crate::protocol::{ErrorCode, Op, Payload, Request, Response, ScenarioSpec};
use crate::stats::Stats;

/// A scenario with its precomputed per-block figures, shared by every job
/// that names the same spec.
pub(crate) struct CachedScenario {
    scenario: Scenario,
    cache: EvalCache,
}

impl CachedScenario {
    fn build(spec: &ScenarioSpec) -> Result<Self, (ErrorCode, String)> {
        let scenario = spec
            .build()
            .map_err(|message| (ErrorCode::BadRequest, message))?;
        // No per-speed memo: a cold point costs less than a memo lookup.
        let cache = scenario
            .cache()
            .map_err(|e| (ErrorCode::EvalFailed, e.to_string()))?;
        Ok(Self { scenario, cache })
    }
}

/// Least-recently-used map from canonical [`ScenarioSpec`] keys to warm
/// [`CachedScenario`]s. The working set is tiny (a handful of specs per
/// batch), so a vector scan under one mutex beats a hashed structure and
/// keeps eviction order trivial: hits move to the back, the front is the
/// coldest entry.
pub(crate) struct ScenarioLru {
    capacity: usize,
    entries: Mutex<Vec<(String, Arc<CachedScenario>)>>,
}

impl ScenarioLru {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// How many warm scenarios are currently resident.
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().expect("lru lock").len()
    }

    /// Returns the warm entry for `spec`, building (and recording a cache
    /// miss) when absent.
    pub(crate) fn get_or_build(
        &self,
        spec: &ScenarioSpec,
        stats: &Stats,
    ) -> Result<Arc<CachedScenario>, (ErrorCode, String)> {
        let key = spec.cache_key();
        {
            let mut entries = self.entries.lock().expect("lru lock");
            if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
                let entry = entries.remove(pos);
                let cached = Arc::clone(&entry.1);
                entries.push(entry);
                stats.record_cache_hit();
                return Ok(cached);
            }
        }
        // Build outside the lock — cache construction walks the whole
        // power database and must not serialize unrelated jobs.
        stats.record_cache_miss();
        let built = Arc::new(CachedScenario::build(spec)?);
        let mut entries = self.entries.lock().expect("lru lock");
        if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
            // Another request raced us to the same spec; adopt its entry.
            let entry = entries.remove(pos);
            let cached = Arc::clone(&entry.1);
            entries.push(entry);
            return Ok(cached);
        }
        if entries.len() >= self.capacity {
            entries.remove(0);
        }
        entries.push((key, Arc::clone(&built)));
        Ok(built)
    }
}

/// Why [`Gate::enter`] refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// `capacity` requests were already waiting — shed the load.
    Full,
    /// The gate was closed — the server is shutting down.
    Closed,
}

#[derive(Default)]
struct GateState {
    /// Requests holding a [`Permit`] right now.
    running: usize,
    /// The ticket the next waiter draws.
    next_ticket: u64,
    /// The ticket admitted next; `next_ticket - serving` requests wait.
    serving: u64,
    closed: bool,
}

/// The admission gate in front of evaluation: backpressure instead of
/// unbounded buffering. At most `slots` requests evaluate at once (each
/// on its own connection thread), at most `capacity` more wait, and
/// waiters are admitted in arrival order by ticket. [`Self::enter`] never
/// blocks to refuse, and closing the gate still admits every request
/// already waiting — the graceful-drain semantics the server needs.
pub(crate) struct Gate {
    slots: usize,
    capacity: usize,
    state: Mutex<GateState>,
    turn: Condvar,
}

impl Gate {
    /// A gate with `slots` concurrent evaluations and room for
    /// `capacity` waiters (both clamped to ≥ 1).
    pub(crate) fn new(slots: usize, capacity: usize) -> Self {
        Self {
            slots: slots.max(1),
            capacity: capacity.max(1),
            state: Mutex::default(),
            turn: Condvar::new(),
        }
    }

    /// How many requests may wait.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many requests are waiting for a slot right now.
    pub(crate) fn waiting(&self) -> usize {
        let state = self.lock();
        usize::try_from(state.next_ticket - state.serving).unwrap_or(usize::MAX)
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits the caller, waiting its turn while every slot is taken.
    ///
    /// # Errors
    ///
    /// [`Refusal::Full`] at once when `capacity` requests already wait,
    /// [`Refusal::Closed`] after [`Self::close`].
    pub(crate) fn enter(&self) -> Result<Permit<'_>, Refusal> {
        let mut state = self.lock();
        if state.closed {
            return Err(Refusal::Closed);
        }
        let ticket = state.next_ticket;
        let free = ticket == state.serving && state.running < self.slots;
        if !free && ticket - state.serving >= self.capacity as u64 {
            return Err(Refusal::Full);
        }
        state.next_ticket += 1;
        while ticket != state.serving || state.running >= self.slots {
            state = self
                .turn
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.serving += 1;
        state.running += 1;
        // The next ticket may fit a slot that is still free.
        let next_fits = state.next_ticket != state.serving && state.running < self.slots;
        drop(state);
        if next_fits {
            self.turn.notify_all();
        }
        Ok(Permit { gate: self })
    }

    /// Refuses every later [`Self::enter`]; requests already waiting are
    /// still admitted.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
    }
}

/// One evaluation slot; dropping it (also on unwind) frees the slot.
pub(crate) struct Permit<'a> {
    gate: &'a Gate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.lock();
        state.running -= 1;
        let waiters = state.next_ticket != state.serving;
        drop(state);
        if waiters {
            self.gate.turn.notify_all();
        }
    }
}

/// One evaluation request: the parsed request plus its timing.
pub(crate) struct Job {
    pub(crate) request: Request,
    /// Absolute expiry derived from `deadline_ms` at parse time.
    pub(crate) deadline: Option<Instant>,
    /// When the server parsed the request (service-time origin).
    pub(crate) received: Instant,
}

/// The threads one request may evaluate on: the `ceiling` executor's,
/// less one for each *other* live connection, and never fewer than one.
/// Each other connection is assumed to keep a CPU busy with its own
/// request, so helpers would only take that CPU from it; a lone
/// connection keeps every thread.
pub(crate) fn fanout_threads(ceiling: usize, live: usize) -> usize {
    ceiling.saturating_sub(live.saturating_sub(1)).max(1)
}

/// What the connection handlers share for evaluation.
pub(crate) struct Engine {
    /// The widest executor a request may use (`threads`), narrowed per
    /// request by [`fanout_threads`].
    pub(crate) executor: SweepExecutor,
    /// Connection handlers running now, idle keep-alive ones included.
    pub(crate) live: AtomicUsize,
    pub(crate) lru: ScenarioLru,
    pub(crate) stats: Arc<Stats>,
    pub(crate) dedup: DedupMap,
    /// The shared compiled workbook the `sheet_edit`/`sheet_eval` ops
    /// serve. One mutex, not per-cell locking: edits are short (a
    /// compiled incremental wave) and must serialize anyway to keep the
    /// workbook state — and dedup replays of it — deterministic.
    pub(crate) sheet: Mutex<PowerSheet>,
    /// The streaming telemetry pipeline the `ingest`/`ingest_state` ops
    /// serve. One mutex: a batch's segment append and window fold must
    /// be atomic so the store's record order *is* the canonical event
    /// order — the invariant that makes post-crash replay reconstruct
    /// live state bit-identically. Ingest is NOT idempotent by
    /// construction (re-appending double-counts); retries are made safe
    /// by the dedup map via the request's `idem` key, which the
    /// retrying client stamps automatically.
    pub(crate) ingest: Mutex<Ingestor>,
    /// The most recent `explain` ledger served (seeded with the
    /// reference scenario at 60 km/h on startup), feeding the per-block
    /// `energy.block.<name>.{dynamic,static}_nj` gauges every stats
    /// snapshot refreshes.
    pub(crate) last_ledger: Mutex<Option<EnergyLedger>>,
}

/// One live connection; dropping it takes the connection off
/// [`Engine::live`].
pub(crate) struct LiveConnection<'a> {
    live: &'a AtomicUsize,
}

impl Drop for LiveConnection<'_> {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The ledger the per-block gauges start from before any `explain` is
/// served: the reference scenario at 60 km/h (cruising speed, above the
/// pinned break-even). `None` only if the reference scenario itself
/// fails to build, in which case the gauges stay unset.
pub(crate) fn startup_ledger() -> Option<EnergyLedger> {
    EnergyBalance::new(&Scenario::reference())
        .ok()?
        .explain(Speed::from_kmh(60.0))
        .ok()
}

/// Builds the workbook a server (or the in-process [`evaluate`] helper)
/// hosts: the reference architecture's power database bound onto a
/// sheet and compiled.
pub(crate) fn reference_sheet() -> PowerSheet {
    let mut sheet =
        PowerSheet::new(Architecture::reference().database()).expect("reference workbook builds");
    sheet
        .sheet_mut()
        .compile()
        .expect("reference workbook compiles");
    sheet
}

impl Engine {
    /// Counts a connection as live until the returned guard drops (also
    /// on an early return or an unwind).
    pub(crate) fn connection(&self) -> LiveConnection<'_> {
        self.live.fetch_add(1, Ordering::SeqCst);
        LiveConnection { live: &self.live }
    }

    /// The executor one scenario request evaluates on, narrowed to the
    /// CPUs no other live connection holds (see [`fanout_threads`]).
    fn request_executor(&self) -> SweepExecutor {
        let ceiling = self.executor.threads();
        let threads = fanout_threads(ceiling, self.live.load(Ordering::SeqCst));
        if threads == ceiling {
            return self.executor;
        }
        self.stats.record_narrowed();
        SweepExecutor::new(threads)
    }

    /// Runs one admitted job: the `queue_stall` fault decision, then
    /// [`Self::process`] under `catch_unwind`. Every job is answered even
    /// if evaluation panics (injected or real): the dedup claim's drop
    /// guard has already freed the idempotency key, and the client sees a
    /// retryable `internal` error instead of a dead connection. The
    /// caller holds the gate permit and has installed the request's trace
    /// context, so the panic event links into the request's trace tree.
    pub(crate) fn run(&self, job: &Job, faults: Option<&FaultPlan>) -> Response {
        if let Some(plan) = faults {
            if plan.decide(FaultKind::QueueStall) {
                std::thread::sleep(plan.pause());
            }
        }
        catch_unwind(AssertUnwindSafe(|| self.process(job, faults))).unwrap_or_else(|_| {
            // The rings still hold the spans truncated mid-panic.
            monityre_obs::recorder::record_event("worker.panic");
            monityre_obs::recorder::dump("worker_panic");
            Response::failure(
                job.request.id,
                ErrorCode::Internal,
                "worker panicked mid-job; nothing was committed, safe to retry",
            )
        })
    }

    /// Evaluates one job end to end, producing the response to send.
    ///
    /// Idempotency: when the request carries an `idem` key, the dedup
    /// map decides whether this request executes (first claimer) or
    /// replays the remembered response; only *successful* responses are
    /// remembered, so a failed or panicked attempt frees the key for
    /// re-execution. The injected [`FaultKind::WorkerPanic`] fires after
    /// the claim, exercising exactly the unwind path the claim guard
    /// protects.
    fn process(&self, job: &Job, faults: Option<&FaultPlan>) -> Response {
        let id = job.request.id;
        // Everything before this call was queue wait.
        let wait = job.received.elapsed();
        self.stats.record_queue_wait(wait);
        monityre_obs::record_phase(monityre_obs::names::SERVE_QUEUE_WAIT, job.received, wait);
        if let Some(deadline) = job.deadline {
            if Instant::now() >= deadline {
                self.stats.record_timed_out();
                monityre_obs::recorder::record_event("deadline.miss");
                monityre_obs::recorder::dump("deadline_miss");
                return Response::failure(
                    id,
                    ErrorCode::DeadlineExceeded,
                    "deadline elapsed while queued",
                );
            }
        }
        let claim = match job.request.idem {
            Some(key) => {
                let begin = {
                    let _dedup = monityre_obs::span(monityre_obs::names::SERVE_DEDUP);
                    self.dedup.begin(key)
                };
                match begin {
                    Begin::Replay(mut response) => {
                        self.stats.record_dedup_hit();
                        // Echo the *incoming* correlation id (retries reuse
                        // the same id, so this is normally a no-op).
                        response.id = id;
                        return response;
                    }
                    Begin::Owner(claim) => Some(claim),
                }
            }
            None => None,
        };
        if let Some(plan) = faults {
            if plan.decide(FaultKind::WorkerPanic) {
                panic!("injected worker panic (fault-plan seed {})", plan.seed());
            }
        }
        let response = self.execute(job, faults);
        if let Some(claim) = claim {
            if response.is_ok() {
                let _writeback = monityre_obs::span(monityre_obs::names::SERVE_WRITEBACK);
                claim.complete(&response);
            }
            // A failed attempt drops the claim, aborting: the key is
            // freed so a retry re-executes instead of replaying failure.
        }
        response
    }

    /// The evaluation body (scenario lookup + op dispatch), shared by
    /// first executions and (absent an `idem` key) every request.
    /// `faults` reaches only the ingest path, where the storage fault
    /// kinds (torn write / short fsync) inject at the segment append.
    fn execute(&self, job: &Job, faults: Option<&FaultPlan>) -> Response {
        let id = job.request.id;
        if matches!(job.request.op, Op::Ingest | Op::IngestState) {
            // Ingest ops hit the streaming pipeline, not a scenario.
            let exec_start = Instant::now();
            let result = {
                let mut ingest = self.ingest.lock().expect("ingest lock");
                run_ingest_op(&job.request, &mut ingest, faults)
            };
            return match result {
                Ok(payload) => {
                    let elapsed = exec_start.elapsed();
                    self.stats.record_execute(elapsed);
                    monityre_obs::record_phase(
                        monityre_obs::names::SERVE_EXECUTE,
                        exec_start,
                        elapsed,
                    );
                    if let Payload::Ingest {
                        accepted, alerts, ..
                    } = &payload
                    {
                        self.stats.record_ingest(*accepted, *alerts, elapsed);
                    }
                    self.stats
                        .record_served(job.request.op.name(), job.received.elapsed());
                    Response::success(id, payload)
                }
                Err((code, message)) => {
                    self.record_failure(code);
                    Response::failure(id, code, message)
                }
            };
        }
        if matches!(job.request.op, Op::SheetEdit | Op::SheetEval) {
            // Sheet ops hit the shared workbook, not a scenario: no LRU.
            let exec_start = Instant::now();
            let result = {
                let mut sheet = self.sheet.lock().expect("sheet lock");
                run_sheet_op(&job.request, &mut sheet)
            };
            return match result {
                Ok(payload) => {
                    let elapsed = exec_start.elapsed();
                    self.stats.record_execute(elapsed);
                    monityre_obs::record_phase(
                        monityre_obs::names::SERVE_EXECUTE,
                        exec_start,
                        elapsed,
                    );
                    if let Payload::SheetEdit { cut, .. } = &payload {
                        self.stats.record_sheet_recompute(elapsed, *cut);
                    }
                    self.stats
                        .record_served(job.request.op.name(), job.received.elapsed());
                    Response::success(id, payload)
                }
                Err((code, message)) => {
                    self.record_failure(code);
                    Response::failure(id, code, message)
                }
            };
        }
        let cached = match self.lru.get_or_build(&job.request.scenario, &self.stats) {
            Ok(cached) => cached,
            Err((code, message)) => {
                self.record_failure(code);
                return Response::failure(id, code, message);
            }
        };
        let cancelled = || {
            job.deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
        };
        let executor = self.request_executor();
        let exec_start = Instant::now();
        match run_op(&job.request, &cached, &executor, &cancelled) {
            Ok(Some(payload)) => {
                let elapsed = exec_start.elapsed();
                self.stats.record_execute(elapsed);
                monityre_obs::record_phase(monityre_obs::names::SERVE_EXECUTE, exec_start, elapsed);
                self.stats
                    .record_served(job.request.op.name(), job.received.elapsed());
                if let Payload::Explain(ledger) = &payload {
                    *self.last_ledger.lock().expect("ledger lock") = Some(ledger.clone());
                }
                Response::success(id, payload)
            }
            Ok(None) => {
                self.stats.record_timed_out();
                monityre_obs::recorder::record_event("deadline.miss");
                monityre_obs::recorder::dump("deadline_miss");
                Response::failure(
                    id,
                    ErrorCode::DeadlineExceeded,
                    "deadline elapsed mid-evaluation",
                )
            }
            Err((code, message)) => {
                self.record_failure(code);
                Response::failure(id, code, message)
            }
        }
    }

    fn record_failure(&self, code: ErrorCode) {
        match code {
            ErrorCode::BadRequest => self.stats.record_bad_request(),
            _ => self.stats.record_eval_failed(),
        }
    }
}

/// Runs a `sheet_edit` / `sheet_eval` against a workbook. Shared by the
/// server (its long-lived sheet, under its mutex) and the
/// in-process [`evaluate`] helper (a fresh reference workbook), so both
/// produce identical payloads for identical workbook states.
///
/// Edits are idempotent by construction — re-applying the same edit
/// leaves the same state (the second literal write is a pure cutoff) —
/// which is what makes `DedupMap` replay safe for a *stateful* op.
pub(crate) fn run_sheet_op(
    request: &Request,
    sheet: &mut PowerSheet,
) -> Result<Payload, (ErrorCode, String)> {
    let p = &request.params;
    let cell = p.cell.as_deref().unwrap_or_default();
    match request.op {
        Op::SheetEdit => {
            let _span = monityre_obs::span(monityre_obs::names::SHEET_RECOMPUTE);
            let outcome = if let Some(value) = p.value {
                sheet.sheet_mut().set_number(cell, value)
            } else if let Some(formula) = p.formula.as_deref() {
                sheet.sheet_mut().set_formula(cell, formula)
            } else {
                return Err((
                    ErrorCode::BadRequest,
                    "sheet_edit requires `value` or `formula`".to_owned(),
                ));
            };
            outcome.map_err(|e| (ErrorCode::EvalFailed, e.to_string()))?;
            let wave = sheet.sheet().last_recompute();
            let value = sheet
                .value(cell)
                .map_err(|e| (ErrorCode::EvalFailed, e.to_string()))?;
            Ok(Payload::SheetEdit {
                cell: cell.to_owned(),
                value,
                evaluated: wave.evaluated,
                cut: wave.cut,
            })
        }
        Op::SheetEval => {
            let value = sheet
                .value(cell)
                .map_err(|e| (ErrorCode::EvalFailed, e.to_string()))?;
            Ok(Payload::SheetEval {
                cell: cell.to_owned(),
                value,
            })
        }
        _ => Err((
            ErrorCode::BadRequest,
            format!("op `{}` is not a sheet operation", request.op.name()),
        )),
    }
}

/// Runs an `ingest` / `ingest_state` against a telemetry pipeline.
/// Shared by the server (its durable [`Ingestor`], under
/// its mutex) and the in-process [`evaluate`] helper (a fresh in-memory
/// pipeline), so both produce identical payloads for identical point
/// sequences.
///
/// An append failure — a real I/O error or an injected torn write —
/// maps to the retryable `internal` code: the batch did not commit
/// (the window was not folded), so a client retry with the same `idem`
/// key re-executes without double-counting *within one server
/// lifetime*. Across a restart the guarantee weakens to at-least-once:
/// a torn write durably persists the failed batch's whole-record
/// prefix, recovery keeps those records (it cannot tell them from a
/// committed batch), and the dedup map is in-memory — so a client
/// retrying the same batch against the restarted server re-appends it
/// in full and the prefix records count twice in both the store and
/// the replayed window. Callers needing exactly-once across crashes
/// must deduplicate above this layer (e.g. by point timestamp).
pub(crate) fn run_ingest_op(
    request: &Request,
    ingest: &mut Ingestor,
    faults: Option<&FaultPlan>,
) -> Result<Payload, (ErrorCode, String)> {
    match request.op {
        Op::Ingest => {
            let points = request.params.points.as_deref().unwrap_or_default();
            let summary = ingest
                .ingest(points, faults)
                .map_err(|e| (ErrorCode::Internal, format!("ingest append failed: {e}")))?;
            attribute_deficit_alerts(ingest, &summary.alerted);
            Ok(Payload::Ingest {
                accepted: summary.accepted,
                alerts: summary.alerts,
                points_total: ingest.points_total(),
            })
        }
        Op::IngestState => {
            let vehicles = match request.params.vehicle {
                Some(vehicle) => ingest.state_of(vehicle).into_iter().collect(),
                None => ingest.state(),
            };
            Ok(Payload::IngestState {
                window_us: ingest.window_us(),
                vehicles,
            })
        }
        _ => Err((
            ErrorCode::BadRequest,
            format!("op `{}` is not an ingest operation", request.op.name()),
        )),
    }
}

/// The shared reference balance the deficit-attribution hook evaluates
/// ledgers on. Built once per process, lazily — alerts are rare and the
/// ingest ops carry no scenario of their own. `None` only if the
/// reference scenario fails to build, which disables attribution.
fn attribution_balance() -> Option<&'static EnergyBalance> {
    static BALANCE: std::sync::OnceLock<Option<EnergyBalance>> = std::sync::OnceLock::new();
    BALANCE
        .get_or_init(|| EnergyBalance::new(&Scenario::reference()).ok())
        .as_ref()
}

/// Bisects the reference demand curve for the speed whose
/// required-per-round matches `consumed_per_point_j`. The curve is
/// monotone *decreasing* in speed (slower wheels mean longer rounds and
/// a bigger leakage budget per round), so 32 halvings pin the implied
/// operating point well under any reporting resolution.
fn implied_speed(balance: &EnergyBalance, consumed_per_point_j: f64) -> Speed {
    let (mut lo, mut hi) = (5.0f64, 200.0f64);
    for _ in 0..32 {
        let mid = 0.5 * (lo + hi);
        match balance.point(Speed::from_kmh(mid)) {
            Ok(point) if point.required.joules() > consumed_per_point_j => lo = mid,
            Ok(_) => hi = mid,
            Err(_) => break,
        }
    }
    Speed::from_kmh(0.5 * (lo + hi))
}

/// Attributes each fresh deficit-alert edge to the dominant block of the
/// energy ledger at the vehicle's implied operating point: the windowed
/// mean consumed-per-point is inverted through the reference demand
/// curve, the ledger is explained there, and the biggest line item gets
/// the blame — a per-block `ingest.deficit.block.<name>` counter plus a
/// flight-recorder event naming the vehicle (exemplar-stamped with the
/// batch's trace context, like the alert event itself).
fn attribute_deficit_alerts(ingest: &Ingestor, alerted: &[u64]) {
    if alerted.is_empty() {
        return;
    }
    let Some(balance) = attribution_balance() else {
        return;
    };
    for &vehicle in alerted {
        let Some(window) = ingest.state_of(vehicle) else {
            continue;
        };
        if window.points == 0 {
            continue;
        }
        let per_point = window.consumed_j / window.points as f64;
        let Ok(ledger) = balance.explain(implied_speed(balance, per_point)) else {
            continue;
        };
        let Some(dominant) = ledger.dominant_block() else {
            continue;
        };
        let prefix = monityre_obs::names::INGEST_DEFICIT_BLOCK_PREFIX;
        monityre_obs::Registry::global()
            .counter(&format!("{prefix}.{}", dominant.block))
            .inc();
        monityre_obs::recorder::record_event(format!(
            "{prefix}.{}.vehicle.{vehicle}",
            dominant.block
        ));
    }
}

/// Runs the request's operation against a warm scenario, polling
/// `cancelled` at chunk boundaries; `Ok(None)` means the deadline fired.
fn run_op<C: Fn() -> bool + Sync>(
    request: &Request,
    cached: &CachedScenario,
    executor: &SweepExecutor,
    cancelled: &C,
) -> Result<Option<Payload>, (ErrorCode, String)> {
    if cancelled() {
        return Ok(None);
    }
    let p = &request.params;
    match request.op {
        Op::Breakeven => {
            // Only the crossing is reported, so scan up to it instead of
            // sweeping the whole grid.
            let lo = Speed::from_kmh(p.from_kmh.unwrap_or(5.0));
            let hi = Speed::from_kmh(p.to_kmh.unwrap_or(200.0));
            let steps = p.steps.unwrap_or(100);
            let balance = EnergyBalance::with_cache(&cached.scenario, cached.cache.clone());
            let Some(break_even) = balance.break_even(lo, hi, steps, executor, cancelled) else {
                return Ok(None);
            };
            Ok(Some(Payload::Breakeven {
                break_even_kmh: break_even.map(|s| s.kmh()),
            }))
        }
        Op::Balance | Op::Sweep => {
            let lo = Speed::from_kmh(p.from_kmh.unwrap_or(5.0));
            let hi = Speed::from_kmh(p.to_kmh.unwrap_or(200.0));
            let steps = p.steps.unwrap_or(100);
            let balance = EnergyBalance::with_cache(&cached.scenario, cached.cache.clone());
            let Some(report) = balance.sweep_cancellable(lo, hi, steps, executor, cancelled) else {
                return Ok(None);
            };
            let break_even_kmh = report.break_even().map(|s| s.kmh());
            Ok(Some(match request.op {
                Op::Sweep => Payload::Sweep {
                    report,
                    break_even_kmh,
                },
                _ => Payload::Balance {
                    break_even_kmh,
                    steps: report.len(),
                    surplus_steps: report.points().iter().filter(|pt| pt.is_surplus()).count(),
                },
            }))
        }
        Op::Montecarlo => {
            let samples = p.samples.unwrap_or(128);
            let seed = p.seed.unwrap_or(2011);
            let mc = MonteCarlo::new(&cached.scenario, VariationModel::reference(), seed);
            let dist = mc
                .break_even_distribution_cancellable(samples, executor, cancelled)
                .map_err(|e| (ErrorCode::EvalFailed, e.to_string()))?;
            let Some(dist) = dist else {
                return Ok(None);
            };
            Ok(Some(Payload::Montecarlo {
                samples: dist.samples().len(),
                never_crossed: dist.never_crossed(),
                mean_kmh: dist.mean().kmh(),
                p05_kmh: dist.quantile(0.05).kmh(),
                p50_kmh: dist.quantile(0.50).kmh(),
                p95_kmh: dist.quantile(0.95).kmh(),
                std_dev_mps: dist.std_dev(),
            }))
        }
        Op::Emulate => {
            let cycle_name = p.cycle.as_deref().unwrap_or("nedc");
            let repeat = p.repeat.unwrap_or(1);
            let cycle = named_cycle(cycle_name, repeat).ok_or_else(|| {
                (
                    ErrorCode::BadRequest,
                    format!("cycle: unknown driving cycle `{cycle_name}`"),
                )
            })?;
            let emulator = TransientEmulator::new(&cached.scenario, EmulatorConfig::new())
                .map_err(|e| (ErrorCode::EvalFailed, e.to_string()))?;
            // Same reservoir as `monityre emulate`: 1.8–3.6 V usable
            // window, 5 MΩ self-discharge, starting at 2.7 V.
            let mut storage = Supercap::new(
                Capacitance::from_millifarads(p.cap_mf.unwrap_or(47.0)),
                Voltage::from_volts(1.8),
                Voltage::from_volts(3.6),
                Resistance::from_megaohms(5.0),
                Voltage::from_volts(2.7),
            );
            // The emulator integrates serially; the deadline is honoured
            // before and after, not mid-integration.
            let report = emulator.run(&cycle, &mut storage);
            if cancelled() {
                return Ok(None);
            }
            Ok(Some(Payload::Emulate {
                coverage: report.coverage(),
                windows: report.windows.len(),
                brownouts: report.brownouts as usize,
                harvested_j: report.harvested.joules(),
                consumed_j: report.consumed.joules(),
                spilled_j: report.spilled.joules(),
                span_s: report.span.secs(),
            }))
        }
        Op::Optimize => {
            let lo = Speed::from_kmh(p.from_kmh.unwrap_or(5.0));
            let hi = Speed::from_kmh(p.to_kmh.unwrap_or(200.0));
            let steps = p.steps.unwrap_or(48);
            let optimizer = BreakEvenOptimizer::new(&cached.scenario);
            let report = optimizer
                .search(lo, hi, steps, executor, cancelled)
                .map_err(|e| (ErrorCode::EvalFailed, e.to_string()))?;
            let Some(report) = report else {
                return Ok(None);
            };
            Ok(Some(Payload::Optimize(report)))
        }
        Op::Explain => {
            let speed = Speed::from_kmh(p.speed_kmh.unwrap_or(60.0));
            let balance = EnergyBalance::with_cache(&cached.scenario, cached.cache.clone());
            let ledger = balance
                .explain(speed)
                .map_err(|e| (ErrorCode::EvalFailed, e.to_string()))?;
            Ok(Some(Payload::Explain(ledger)))
        }
        // Sheet and ingest ops never reach here: `Engine::execute` and
        // `evaluate` dispatch them to their own runners before any
        // scenario lookup.
        Op::SheetEdit | Op::SheetEval | Op::Ingest | Op::IngestState => Err((
            ErrorCode::BadRequest,
            format!("op `{}` does not take a scenario", request.op.name()),
        )),
        Op::Stats
        | Op::Metrics
        | Op::Ping
        | Op::Dump
        | Op::Shutdown
        | Op::Series
        | Op::Health
        | Op::Profile => Err((
            ErrorCode::BadRequest,
            format!("op `{}` is a control operation", request.op.name()),
        )),
    }
}

/// Evaluates `request` directly in-process, exactly as the server
/// would (fresh cache, no deadline). The returned [`Payload`] serializes
/// byte-identically to the `ok` field a server sends for the same
/// request — the property the loopback tests and `monityre request
/// --local` rely on.
///
/// # Errors
///
/// Returns the structured error code and message a server would put in
/// its `error` field. Control ops (`stats`, `metrics`, `ping`,
/// `shutdown`) are rejected as `bad_request` except `ping`, which
/// answers locally.
pub fn evaluate(
    request: &Request,
    executor: &SweepExecutor,
) -> Result<Payload, (ErrorCode, String)> {
    request
        .validate()
        .map_err(|message| (ErrorCode::BadRequest, message))?;
    if request.op == Op::Ping {
        return Ok(Payload::Pong);
    }
    if matches!(request.op, Op::SheetEdit | Op::SheetEval) {
        // A fresh reference workbook per call: the payload matches what a
        // freshly-started server answers for the same request.
        let mut sheet = reference_sheet();
        return run_sheet_op(request, &mut sheet);
    }
    if matches!(request.op, Op::Ingest | Op::IngestState) {
        // A fresh in-memory pipeline per call: the payload matches what
        // a freshly-started server answers for the same first batch.
        let mut ingest = Ingestor::in_memory(monityre_ingest::DEFAULT_WINDOW_US);
        return run_ingest_op(request, &mut ingest, None);
    }
    let cached = CachedScenario::build(&request.scenario)?;
    run_op(request, &cached, executor, &|| false)
        .map(|payload| payload.expect("a never-cancelled evaluation always completes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Op;
    use monityre_units::Speed as _Speed;

    fn reference_breakeven_kmh() -> f64 {
        let scenario = Scenario::reference();
        let balance = EnergyBalance::new(&scenario).unwrap();
        balance
            .sweep(_Speed::from_kmh(5.0), _Speed::from_kmh(200.0), 100)
            .break_even()
            .unwrap()
            .kmh()
    }

    #[test]
    fn evaluate_balance_matches_direct_sweep() {
        let executor = SweepExecutor::serial();
        let payload = evaluate(&Request::new(Op::Breakeven), &executor).unwrap();
        let Payload::Breakeven { break_even_kmh } = payload else {
            panic!("wrong payload kind: {payload:?}");
        };
        assert_eq!(
            break_even_kmh.unwrap().to_bits(),
            reference_breakeven_kmh().to_bits()
        );
    }

    #[test]
    fn served_scenarios_carry_no_speed_memo() {
        let cached = CachedScenario::build(&ScenarioSpec::default()).unwrap();
        assert!(!cached.cache.has_memo());
    }

    #[test]
    fn fanout_takes_one_thread_per_other_live_connection() {
        for (ceiling, live, threads) in [
            (2, 1, 2),
            (2, 2, 1),
            (4, 2, 3),
            (4, 9, 1),
            (1, 0, 1),
            (1, 1, 1),
            (1, 2, 1),
            (1, 50, 1),
        ] {
            assert_eq!(
                fanout_threads(ceiling, live),
                threads,
                "ceiling {ceiling}, {live} live"
            );
        }
    }

    #[test]
    fn lru_hits_evicts_and_caps() {
        let lru = ScenarioLru::new(2);
        let stats = Stats::new();
        let a = ScenarioSpec::default();
        let b = ScenarioSpec {
            temp_c: Some(85.0),
            ..ScenarioSpec::default()
        };
        let c = ScenarioSpec {
            temp_c: Some(-10.0),
            ..ScenarioSpec::default()
        };
        let first = lru.get_or_build(&a, &stats).unwrap();
        let again = lru.get_or_build(&a, &stats).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "second lookup must be a hit");
        lru.get_or_build(&b, &stats).unwrap();
        lru.get_or_build(&c, &stats).unwrap(); // evicts `a` (coldest)
        assert_eq!(lru.len(), 2);
        let rebuilt = lru.get_or_build(&a, &stats).unwrap();
        assert!(!Arc::ptr_eq(&first, &rebuilt), "evicted entry was rebuilt");
        let snap = stats.snapshot();
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 4);
    }

    #[test]
    fn expired_deadline_cancels_before_work() {
        let cached = CachedScenario::build(&ScenarioSpec::default()).unwrap();
        let request = Request::new(Op::Balance);
        let outcome = run_op(&request, &cached, &SweepExecutor::serial(), &|| true).unwrap();
        assert!(outcome.is_none());
    }

    #[test]
    fn control_ops_are_rejected_by_run_op() {
        let cached = CachedScenario::build(&ScenarioSpec::default()).unwrap();
        for op in [Op::Stats, Op::Shutdown, Op::Series, Op::Health, Op::Profile] {
            let err = run_op(
                &Request::new(op),
                &cached,
                &SweepExecutor::serial(),
                &|| false,
            )
            .unwrap_err();
            assert_eq!(err.0, ErrorCode::BadRequest);
        }
    }

    #[test]
    fn evaluate_rejects_invalid_requests() {
        let executor = SweepExecutor::serial();
        let mut request = Request::new(Op::Sweep);
        request.params.steps = Some(1);
        let (code, _) = evaluate(&request, &executor).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
    }

    #[test]
    fn evaluate_ingest_uses_a_fresh_pipeline() {
        let executor = SweepExecutor::serial();
        let mut request = Request::new(Op::Ingest);
        request.params.points = Some(monityre_ingest::synthetic_points(4, 16, 2011, 0));
        let payload = evaluate(&request, &executor).unwrap();
        let Payload::Ingest {
            accepted,
            points_total,
            ..
        } = payload
        else {
            panic!("wrong payload kind: {payload:?}");
        };
        assert_eq!(accepted, 16);
        assert_eq!(points_total, 16, "fresh pipeline starts from zero");
        // An empty-batch request is rejected at validation.
        let bare = Request::new(Op::Ingest);
        let (code, _) = evaluate(&bare, &executor).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
    }

    #[test]
    fn run_ingest_op_reports_state_and_rejects_foreign_ops() {
        let mut ingest = Ingestor::in_memory(60_000_000);
        let mut request = Request::new(Op::Ingest);
        request.params.points = Some(monityre_ingest::synthetic_points(9, 8, 7, 0));
        run_ingest_op(&request, &mut ingest, None).unwrap();
        let mut read = Request::new(Op::IngestState);
        read.params.vehicle = Some(9);
        let Payload::IngestState { vehicles, .. } =
            run_ingest_op(&read, &mut ingest, None).unwrap()
        else {
            panic!("wrong payload kind");
        };
        assert_eq!(vehicles.len(), 1);
        assert_eq!(vehicles[0].vehicle, 9);
        read.params.vehicle = Some(404);
        let Payload::IngestState { vehicles, .. } =
            run_ingest_op(&read, &mut ingest, None).unwrap()
        else {
            panic!("wrong payload kind");
        };
        assert!(vehicles.is_empty(), "unknown vehicle filters to empty");
        let err = run_ingest_op(&Request::new(Op::Ping), &mut ingest, None).unwrap_err();
        assert_eq!(err.0, ErrorCode::BadRequest);
    }

    /// Polls until `gate` has `n` waiters (each test thread has drawn its
    /// ticket), so arrival order is deterministic.
    fn await_waiting(gate: &Gate, n: usize) {
        let start = Instant::now();
        while gate.waiting() != n {
            assert!(
                start.elapsed() < std::time::Duration::from_secs(10),
                "waiters never reached {n} (at {})",
                gate.waiting()
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn gate_admits_waiters_in_arrival_order() {
        let gate = Arc::new(Gate::new(1, 8));
        let order = Arc::new(Mutex::new(Vec::new()));
        let held = gate.enter().unwrap();
        let waiters: Vec<_> = (0..6)
            .map(|i| {
                let handle = {
                    let (gate, order) = (Arc::clone(&gate), Arc::clone(&order));
                    std::thread::spawn(move || {
                        let _permit = gate.enter().unwrap();
                        order.lock().unwrap().push(i);
                    })
                };
                await_waiting(&gate, i + 1);
                handle
            })
            .collect();
        // The releasing thread enters again at once, while the waiters are
        // still waking: it must queue behind them, not barge in.
        drop(held);
        drop(gate.enter().unwrap());
        order.lock().unwrap().push(6);
        for waiter in waiters {
            waiter.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn gate_capacity_and_slots_are_clamped_to_one() {
        let gate = Arc::new(Gate::new(0, 0));
        assert_eq!(gate.capacity(), 1);
        let held = gate.enter().unwrap();
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.enter().map(drop))
        };
        await_waiting(&gate, 1);
        assert_eq!(gate.enter().err(), Some(Refusal::Full));
        drop(held);
        assert_eq!(waiter.join().unwrap(), Ok(()));
    }

    #[test]
    fn full_gate_sheds_without_blocking() {
        let gate = Arc::new(Gate::new(1, 2));
        let held = gate.enter().unwrap();
        let waiters: Vec<_> = (0..2)
            .map(|i| {
                let handle = {
                    let gate = Arc::clone(&gate);
                    std::thread::spawn(move || gate.enter().map(drop))
                };
                await_waiting(&gate, i + 1);
                handle
            })
            .collect();
        // Every slot stays held, so only a refusal that never waits can
        // return here.
        assert_eq!(gate.enter().err(), Some(Refusal::Full));
        // Shedding must not have disturbed the waiters.
        drop(held);
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), Ok(()));
        }
        assert!(gate.enter().is_ok(), "the drained gate admits again");
    }

    #[test]
    fn closed_gate_refuses_new_but_admits_waiting() {
        let gate = Arc::new(Gate::new(1, 4));
        let held = gate.enter().unwrap();
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.enter().map(drop))
        };
        await_waiting(&gate, 1);
        gate.close();
        assert_eq!(gate.enter().err(), Some(Refusal::Closed));
        drop(held);
        assert_eq!(waiter.join().unwrap(), Ok(()), "waiting request drained");
        assert_eq!(gate.enter().err(), Some(Refusal::Closed));
    }

    #[test]
    fn contended_gate_caps_running_and_answers_everyone() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let gate = Arc::new(Gate::new(2, 3));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let entrants: Vec<_> = (0..8)
            .map(|_| {
                let (gate, running, peak) =
                    (Arc::clone(&gate), Arc::clone(&running), Arc::clone(&peak));
                std::thread::spawn(move || {
                    let (mut admitted, mut shed) = (0u32, 0u32);
                    while admitted < 50 {
                        match gate.enter() {
                            Ok(_permit) => {
                                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                                peak.fetch_max(now, Ordering::SeqCst);
                                std::thread::yield_now();
                                running.fetch_sub(1, Ordering::SeqCst);
                                admitted += 1;
                            }
                            Err(Refusal::Full) => {
                                shed += 1;
                                std::thread::yield_now();
                            }
                            Err(Refusal::Closed) => unreachable!(),
                        }
                    }
                    (admitted, shed)
                })
            })
            .collect();
        let admitted: u32 = entrants.into_iter().map(|e| e.join().unwrap().0).sum();
        assert_eq!(admitted, 400);
        let peak = peak.load(Ordering::SeqCst);
        assert!((1..=2).contains(&peak), "running peaked at {peak}");
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn panicking_holder_frees_its_slot() {
        let gate = Arc::new(Gate::new(1, 1));
        let holder = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let _permit = gate.enter().unwrap();
                panic!("evaluation panics while holding the slot");
            })
        };
        assert!(holder.join().is_err());
        assert_eq!(gate.lock().running, 0, "the unwound permit freed its slot");
        assert!(gate.enter().is_ok());
    }

    #[test]
    fn evaluate_emulate_reports_coverage() {
        let executor = SweepExecutor::serial();
        let mut request = Request::new(Op::Emulate);
        request.params.cycle = Some("urban".to_owned());
        let payload = evaluate(&request, &executor).unwrap();
        let Payload::Emulate {
            coverage, span_s, ..
        } = payload
        else {
            panic!("wrong payload kind: {payload:?}");
        };
        assert!((0.0..=1.0).contains(&coverage));
        assert!(span_s > 0.0);
    }
}
