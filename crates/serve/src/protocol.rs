//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response per line, in order. A request names
//! an operation ([`Op`]), an optional scenario override ([`ScenarioSpec`])
//! and operation parameters ([`Params`]); the response carries either an
//! `ok` payload ([`Payload`]) or a structured `error` ([`WireError`]) with
//! a machine-readable [`ErrorCode`]. All physical quantities travel in
//! base SI units (m/s, joules, seconds) exactly as the core report types
//! serialize them, so a served result is byte-identical to the same
//! evaluation serialized in-process.

use monityre_core::{
    BalanceReport, EnergyLedger, OptimizeReport, RadioLink, Scenario, ScenarioExtras,
    StorageAgeing, MAX_AGE_YEARS, MAX_RADIO_RETRIES,
};
use monityre_ingest::{TelemetryPoint, VehicleWindow};
use monityre_node::NodeConfig;
use monityre_obs::{FlameTable, HealthReport, SeriesSlice, TraceContext};
use monityre_power::{ProcessCorner, WorkingConditions};
use monityre_profile::NAMED_CYCLES;
use monityre_units::{Temperature, Voltage};
use serde::{Deserialize, Serialize, Value};

use crate::stats::StatsSnapshot;

/// Longest request or response line the server will read (1 MiB).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Largest `ingest` batch a single request may carry. Together with the
/// lockstep protocol (one outstanding request per connection) and the
/// bounded admission gate, this caps how much un-acked telemetry any one
/// connection can force the server to hold — the per-connection
/// backpressure bound.
pub const MAX_INGEST_POINTS: usize = 4096;

/// The operations the server accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Fig. 2 sweep returning the summary (break-even + point counts).
    Balance,
    /// Fig. 2 break-even speed alone, scanned up to the crossing.
    Breakeven,
    /// Fig. 2 sweep returning the full point series.
    Sweep,
    /// Monte Carlo break-even distribution summary.
    Montecarlo,
    /// Long-window emulation over a named driving cycle.
    Emulate,
    /// One edit against the server's shared compiled workbook: set a cell
    /// to a literal (`params.value`) or a formula (`params.formula`) and
    /// recompute its dependents incrementally (queued like evaluations;
    /// idempotent, so `DedupMap` replay is safe).
    SheetEdit,
    /// Read one cell of the server's shared compiled workbook.
    SheetEval,
    /// Ingest one batch of telemetry points (`params.points`) into the
    /// server's streaming pipeline: durable segment append, then the
    /// per-vehicle sliding-window fold. Queued like evaluations; NOT
    /// idempotent by construction — re-ingesting a batch double-counts —
    /// so retry safety comes from the idempotency key (`idem`), which
    /// the retrying client stamps automatically.
    Ingest,
    /// Read the windowed per-vehicle energy-balance state (all vehicles,
    /// or one via `params.vehicle`). Queued, so a read observes a
    /// consistent post-batch state.
    IngestState,
    /// Server statistics snapshot (handled inline, never queued).
    Stats,
    /// Prometheus text exposition of the server's metric registry
    /// (handled inline, never queued).
    Metrics,
    /// Liveness probe (handled inline, never queued).
    Ping,
    /// Flight-recorder dump: append the server's recent span/event rings
    /// to its armed dump file (handled inline, never queued). The wire
    /// replacement for `SIGUSR1` — works over the protocol and on
    /// platforms without signals.
    Dump,
    /// Graceful shutdown: stop accepting, drain, exit (handled inline).
    Shutdown,
    /// One self-observation time series (`params.metric`, optional
    /// `params.resolution` / `params.range_s`): timestamped points from
    /// the server's in-process ring, downsampled to the coarsest tier
    /// that still covers the asked range (handled inline, never queued).
    Series,
    /// SLO health report: per-objective burn rates and the worst state
    /// across objectives — the readiness answer (handled inline).
    Health,
    /// Wall-clock profiler flame table: per-stack sample counts
    /// accumulated by the sampler thread (handled inline, never queued).
    Profile,
    /// Break-even search: evaluate the node-config / duty-cycle candidate
    /// grid against this request's scenario (extras included) and return
    /// the configuration minimizing break-even speed. Queued like
    /// evaluations; deterministic, so idempotent replay is safe.
    Optimize,
    /// Full energy-ledger attribution of this request's scenario at one
    /// speed (`params.speed_kmh`, default 60): per-block dynamic/static
    /// nanojoules, axis surcharges, harvested energy, regulator loss and
    /// the conservation verdict. Queued like evaluations; deterministic,
    /// so idempotent replay is safe.
    Explain,
}

impl Op {
    /// Every operation, for enumeration in tests and docs.
    pub const ALL: [Op; 19] = [
        Op::Balance,
        Op::Breakeven,
        Op::Sweep,
        Op::Montecarlo,
        Op::Emulate,
        Op::SheetEdit,
        Op::SheetEval,
        Op::Ingest,
        Op::IngestState,
        Op::Stats,
        Op::Metrics,
        Op::Ping,
        Op::Dump,
        Op::Shutdown,
        Op::Series,
        Op::Health,
        Op::Profile,
        Op::Optimize,
        Op::Explain,
    ];

    /// The wire name (lowercase).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Op::Balance => "balance",
            Op::Breakeven => "breakeven",
            Op::Sweep => "sweep",
            Op::Montecarlo => "montecarlo",
            Op::Emulate => "emulate",
            Op::SheetEdit => "sheet_edit",
            Op::SheetEval => "sheet_eval",
            Op::Ingest => "ingest",
            Op::IngestState => "ingest_state",
            Op::Stats => "stats",
            Op::Metrics => "metrics",
            Op::Ping => "ping",
            Op::Dump => "dump",
            Op::Shutdown => "shutdown",
            Op::Series => "series",
            Op::Health => "health",
            Op::Profile => "profile",
            Op::Optimize => "optimize",
            Op::Explain => "explain",
        }
    }

    /// Parses a wire name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|op| op.name() == name)
    }

    /// Whether the operation is served at once by the connection handler
    /// (control plane) instead of going through the admission gate.
    #[must_use]
    pub fn is_control(self) -> bool {
        matches!(
            self,
            Op::Stats
                | Op::Metrics
                | Op::Ping
                | Op::Dump
                | Op::Shutdown
                | Op::Series
                | Op::Health
                | Op::Profile
        )
    }
}

impl Serialize for Op {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_owned())
    }
    fn write_json(&self, out: &mut String) {
        serde::json::write_str(out, self.name());
    }
}

impl Deserialize for Op {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let name = value
            .as_str()
            .ok_or_else(|| serde::Error::invalid("operation name", value))?;
        Self::from_name(name)
            .ok_or_else(|| serde::Error::custom(format!("unknown operation `{name}`")))
    }
}

/// Machine-readable error codes of the structured error responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Every evaluation slot was busy and the admission gate's waiting
    /// room was full — load was shed, retry later.
    QueueFull,
    /// The request's deadline elapsed before evaluation finished.
    DeadlineExceeded,
    /// The request line did not parse or failed validation.
    BadRequest,
    /// The evaluation itself failed (malformed architecture, no crossing).
    EvalFailed,
    /// The server is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// The server hit an internal failure (e.g. a panicking evaluation) before
    /// the job completed — nothing was committed, safe to retry.
    Internal,
}

impl ErrorCode {
    /// Every error code, for enumeration in tests and docs.
    pub const ALL: [ErrorCode; 6] = [
        ErrorCode::QueueFull,
        ErrorCode::DeadlineExceeded,
        ErrorCode::BadRequest,
        ErrorCode::EvalFailed,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
    ];

    /// The wire name (snake_case).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::EvalFailed => "eval_failed",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|code| code.name() == name)
    }

    /// Whether a client may transparently retry after this error — the
    /// single classification the resilient client and the docs share.
    ///
    /// `queue_full` is an explicit invitation to retry later; `internal`
    /// means the job aborted before completing (with an idempotency key,
    /// a retry is deduplicated server-side either way). Everything else
    /// is terminal: the request itself is wrong (`bad_request`), the
    /// evaluation deterministically fails (`eval_failed`), the deadline
    /// budget is spent (`deadline_exceeded`), or the server is going
    /// away (`shutting_down`).
    #[must_use]
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::QueueFull | ErrorCode::Internal)
    }
}

impl Serialize for ErrorCode {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_owned())
    }
    fn write_json(&self, out: &mut String) {
        serde::json::write_str(out, self.name());
    }
}

impl Deserialize for ErrorCode {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let name = value
            .as_str()
            .ok_or_else(|| serde::Error::invalid("error code", value))?;
        Self::from_name(name)
            .ok_or_else(|| serde::Error::custom(format!("unknown error code `{name}`")))
    }
}

/// Scenario overrides: every field defaults to the reference value, so an
/// empty spec is the reference scenario. The spec doubles as the warm
/// scenario cache's key (via [`ScenarioSpec::cache_key`]).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Working temperature in °C (reference: 27).
    #[serde(default)]
    pub temp_c: Option<f64>,
    /// Supply voltage in volts (reference: 1.2).
    #[serde(default)]
    pub supply_v: Option<f64>,
    /// Process corner: `ss`, `tt` or `ff` (reference: `tt`).
    #[serde(default)]
    pub corner: Option<String>,
    /// ADC samples acquired per wheel round.
    #[serde(default)]
    pub samples_per_round: Option<u32>,
    /// Rounds between radio transmissions.
    #[serde(default)]
    pub tx_period_rounds: Option<u32>,
    /// Radio payload size in bytes.
    #[serde(default)]
    pub payload_bytes: Option<u32>,
    /// Scale factor on the reference harvesting chain (e.g. 2.0 = a
    /// scavenger twice the size).
    #[serde(default)]
    pub chain_scale: Option<f64>,
    /// Radio-axis packet loss probability in [0, 1). Setting it attaches
    /// the retransmission-delay/energy model; unset (the default) keeps
    /// the base physics and — being omitted from the wire — keeps old
    /// request lines and warm-cache keys byte-identical.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub radio_loss_prob: Option<f64>,
    /// Radio-axis retry budget (default 3; requires `radio_loss_prob`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub radio_retries: Option<u32>,
    /// Ageing-axis supercap age in years [0, 30]. Setting it attaches
    /// the temperature-dependent leakage model; unset costs nothing.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub age_years: Option<f64>,
}

impl ScenarioSpec {
    /// Validates ranges (mirroring the CLI's checks) without building.
    ///
    /// # Errors
    ///
    /// Returns a printable message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(temp) = self.temp_c {
            if !(-273.0..=200.0).contains(&temp) {
                return Err(format!("temp_c: {temp} °C is not a physical temperature"));
            }
        }
        if let Some(supply) = self.supply_v {
            if !(0.3..=2.0).contains(&supply) {
                return Err(format!(
                    "supply_v: {supply} V is outside the sane 0.3–2.0 V range"
                ));
            }
        }
        if let Some(corner) = &self.corner {
            if ProcessCorner::from_id(corner).is_none() {
                return Err(format!("corner: `{corner}` is not one of ss, tt, ff"));
            }
        }
        if let Some(scale) = self.chain_scale {
            if !(scale.is_finite() && scale > 0.0 && scale <= 100.0) {
                return Err(format!("chain_scale: {scale} is not in (0, 100]"));
            }
        }
        for (name, value) in [
            ("samples_per_round", self.samples_per_round),
            ("tx_period_rounds", self.tx_period_rounds),
        ] {
            if value == Some(0) {
                return Err(format!("{name}: must be positive"));
            }
        }
        if let Some(loss) = self.radio_loss_prob {
            if !(loss.is_finite() && (0.0..1.0).contains(&loss)) {
                return Err(format!("radio_loss_prob: {loss} is not in [0, 1)"));
            }
        }
        if let Some(retries) = self.radio_retries {
            if self.radio_loss_prob.is_none() {
                return Err("radio_retries: requires radio_loss_prob".to_owned());
            }
            if retries > MAX_RADIO_RETRIES {
                return Err(format!(
                    "radio_retries: {retries} exceeds the {MAX_RADIO_RETRIES}-retry bound"
                ));
            }
        }
        if let Some(age) = self.age_years {
            if !(age.is_finite() && (0.0..=MAX_AGE_YEARS).contains(&age)) {
                return Err(format!("age_years: {age} is not in [0, {MAX_AGE_YEARS}]"));
            }
        }
        Ok(())
    }

    /// Builds the scenario this spec describes.
    ///
    /// # Errors
    ///
    /// Returns a printable message for out-of-range fields.
    pub fn build(&self) -> Result<Scenario, String> {
        self.validate()?;
        let reference = WorkingConditions::reference();
        let mut builder = WorkingConditions::builder()
            .supply(
                self.supply_v
                    .map_or(reference.supply(), Voltage::from_volts),
            )
            .temperature(
                self.temp_c
                    .map_or(reference.temperature(), Temperature::from_celsius),
            );
        if let Some(corner) = &self.corner {
            builder = builder.corner(ProcessCorner::from_id(corner).expect("validated above"));
        }
        let conditions = builder.build();

        let mut config = NodeConfig::reference();
        if let Some(samples) = self.samples_per_round {
            config = config.with_samples_per_round(samples);
        }
        if let Some(rounds) = self.tx_period_rounds {
            config = config.with_tx_period_rounds(rounds);
        }
        if let Some(bytes) = self.payload_bytes {
            config = config.with_payload_bytes(bytes);
        }

        let mut extras = ScenarioExtras::none();
        if let Some(loss) = self.radio_loss_prob {
            // Amortize retransmissions over this scenario's own TX period.
            let link = RadioLink::new(loss, self.radio_retries.unwrap_or(3))
                .with_tx_period_rounds(config.tx_period_rounds());
            extras = extras.with_radio(link);
        }
        if let Some(age) = self.age_years {
            extras = extras.with_ageing(StorageAgeing::new(age));
        }

        let mut scenario = Scenario::builder()
            .config(config)
            .conditions(conditions)
            .extras(extras);
        if let Some(scale) = self.chain_scale {
            scenario = scenario.chain(monityre_harvest::HarvestChain::reference().scaled(scale));
        }
        Ok(scenario.build())
    }

    /// The canonical cache key: the spec's own JSON rendering (field
    /// order is fixed by the struct, floats render shortest-round-trip),
    /// so equal specs — and only equal specs — share a warm cache slot.
    #[must_use]
    pub fn cache_key(&self) -> String {
        serde_json::to_string(self).expect("spec serializes")
    }
}

/// Operation parameters; every field has an operation-specific default.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Params {
    /// Sweep start in km/h (default 5).
    #[serde(default)]
    pub from_kmh: Option<f64>,
    /// Sweep end in km/h (default 200).
    #[serde(default)]
    pub to_kmh: Option<f64>,
    /// Sweep sample count (default 100, clamped to [2, 1_000_000]).
    #[serde(default)]
    pub steps: Option<usize>,
    /// Monte Carlo draw count (default 128, clamped to [1, 65_536]).
    #[serde(default)]
    pub samples: Option<usize>,
    /// Monte Carlo RNG seed (default 2011).
    #[serde(default)]
    pub seed: Option<u64>,
    /// Driving cycle name for `emulate` (default `nedc`).
    #[serde(default)]
    pub cycle: Option<String>,
    /// Cycle repeat count for `emulate` (default 1).
    #[serde(default)]
    pub repeat: Option<usize>,
    /// Supercap size in millifarads for `emulate` (default 47).
    #[serde(default)]
    pub cap_mf: Option<f64>,
    /// Target cell for `sheet_edit` / `sheet_eval` (required for both).
    #[serde(default)]
    pub cell: Option<String>,
    /// Literal value for `sheet_edit` (exclusive with `formula`).
    #[serde(default)]
    pub value: Option<f64>,
    /// Formula source text for `sheet_edit` (exclusive with `value`).
    #[serde(default)]
    pub formula: Option<String>,
    /// Telemetry batch for `ingest` (required, 1..=[`MAX_INGEST_POINTS`]
    /// points). Omitted from the wire for every other operation.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub points: Option<Vec<TelemetryPoint>>,
    /// Vehicle filter for `ingest_state` (default: all vehicles).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub vehicle: Option<u64>,
    /// Metric name for `series` (required for that op).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub metric: Option<String>,
    /// Resolution for `series` as a duration string (`"1s"`, `"10s"`,
    /// `"1m"`; default: the finest tier covering the asked range).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub resolution: Option<String>,
    /// History range for `series` in seconds (default: one full ring of
    /// the selected tier).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub range_s: Option<u64>,
    /// Operating point for `explain` in km/h (default 60). Omitted from
    /// the wire for every other operation, keeping pre-ledger request
    /// bytes (and warm-cache keys) identical.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub speed_kmh: Option<f64>,
}

/// One request line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// The operation to run.
    pub op: Op,
    /// Caller-chosen correlation id, echoed verbatim in the response.
    #[serde(default)]
    pub id: Option<u64>,
    /// Per-request deadline in milliseconds, measured from the moment the
    /// server parses the request. Jobs exceeding it — waiting for admission
    /// or mid-sweep — get a `deadline_exceeded` error.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Idempotency key. When present, the server deduplicates: the first
    /// completed evaluation for a key is remembered and every later
    /// request carrying the same key is answered from that memory,
    /// byte-identically, without re-executing. The retrying client
    /// stamps one per *logical* call so retried batches are never
    /// double-executed or double-counted.
    #[serde(default)]
    pub idem: Option<u64>,
    /// Trace context propagated from the client: `"<trace id>:<parent
    /// span id>"` as two 16-hex-digit halves. When present, every span
    /// the server records while handling this request links under the
    /// client's logical-call tree; when absent (e.g. an old client), the
    /// field is omitted from the wire entirely, keeping request bytes
    /// identical to the pre-tracing protocol.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<TraceContext>,
    /// Scenario overrides (empty = reference scenario).
    #[serde(default)]
    pub scenario: ScenarioSpec,
    /// Operation parameters (empty = defaults).
    #[serde(default)]
    pub params: Params,
}

impl Request {
    /// A request for `op` with reference scenario and default parameters.
    #[must_use]
    pub fn new(op: Op) -> Self {
        Self {
            op,
            id: None,
            deadline_ms: None,
            idem: None,
            trace: None,
            scenario: ScenarioSpec::default(),
            params: Params::default(),
        }
    }

    /// Sets the correlation id.
    #[must_use]
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = Some(id);
        self
    }

    /// Sets the deadline.
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the idempotency key.
    #[must_use]
    pub fn with_idem(mut self, key: u64) -> Self {
        self.idem = Some(key);
        self
    }

    /// Sets the trace context to propagate.
    #[must_use]
    pub fn with_trace(mut self, ctx: TraceContext) -> Self {
        self.trace = Some(ctx);
        self
    }

    /// Validates the parameter ranges this request's operation reads.
    ///
    /// # Errors
    ///
    /// Returns a printable message naming the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        self.scenario.validate()?;
        let p = &self.params;
        match self.op {
            Op::Balance | Op::Breakeven | Op::Sweep => {
                let from = p.from_kmh.unwrap_or(5.0);
                let to = p.to_kmh.unwrap_or(200.0);
                let steps = p.steps.unwrap_or(100);
                if !(from.is_finite() && to.is_finite() && from > 0.0 && to > from) {
                    return Err(format!("need 0 < from_kmh < to_kmh, got {from}..{to}"));
                }
                if !(2..=1_000_000).contains(&steps) {
                    return Err(format!("steps: {steps} is not in [2, 1000000]"));
                }
            }
            Op::Montecarlo => {
                let samples = p.samples.unwrap_or(128);
                if !(1..=65_536).contains(&samples) {
                    return Err(format!("samples: {samples} is not in [1, 65536]"));
                }
            }
            Op::Emulate => {
                let cycle = p.cycle.as_deref().unwrap_or("nedc");
                if !NAMED_CYCLES.contains(&cycle) {
                    return Err(format!(
                        "cycle: `{cycle}` is not one of {}",
                        NAMED_CYCLES.join(", ")
                    ));
                }
                let repeat = p.repeat.unwrap_or(1);
                if !(1..=64).contains(&repeat) {
                    return Err(format!("repeat: {repeat} is not in [1, 64]"));
                }
                let cap = p.cap_mf.unwrap_or(47.0);
                if !(cap.is_finite() && cap > 0.0) {
                    return Err(format!("cap_mf: {cap} must be positive"));
                }
            }
            Op::SheetEdit => {
                if p.cell.as_deref().unwrap_or("").is_empty() {
                    return Err("cell: sheet_edit requires a target cell".to_owned());
                }
                match (p.value, p.formula.as_deref()) {
                    (Some(value), None) => {
                        if !value.is_finite() {
                            return Err(format!("value: {value} is not finite"));
                        }
                    }
                    (None, Some(formula)) => {
                        if formula.trim().is_empty() {
                            return Err("formula: must not be empty".to_owned());
                        }
                    }
                    (Some(_), Some(_)) => {
                        return Err(
                            "sheet_edit takes either `value` or `formula`, not both".to_owned()
                        );
                    }
                    (None, None) => {
                        return Err("sheet_edit requires `value` or `formula`".to_owned());
                    }
                }
            }
            Op::SheetEval => {
                if p.cell.as_deref().unwrap_or("").is_empty() {
                    return Err("cell: sheet_eval requires a cell".to_owned());
                }
            }
            Op::Ingest => match p.points.as_deref() {
                None | Some([]) => {
                    return Err("points: ingest requires a non-empty batch".to_owned());
                }
                Some(points) if points.len() > MAX_INGEST_POINTS => {
                    return Err(format!(
                        "points: batch of {} exceeds the {MAX_INGEST_POINTS}-point bound",
                        points.len()
                    ));
                }
                Some(_) => {}
            },
            Op::Series => {
                if p.metric.as_deref().unwrap_or("").is_empty() {
                    return Err("metric: series requires a metric name".to_owned());
                }
                if let Some(resolution) = p.resolution.as_deref() {
                    monityre_obs::parse_duration_us(resolution)
                        .ok_or_else(|| format!("resolution: `{resolution}` does not parse"))?;
                }
                if p.range_s == Some(0) {
                    return Err("range_s: must be positive".to_owned());
                }
            }
            Op::Optimize => {
                let from = p.from_kmh.unwrap_or(5.0);
                let to = p.to_kmh.unwrap_or(200.0);
                // Each of the ~226 candidates scans up to `steps` speeds
                // (stopping at its crossing), so the per-candidate grid
                // is bounded much tighter than a plain sweep's.
                let steps = p.steps.unwrap_or(48);
                if !(from.is_finite() && to.is_finite() && from > 0.0 && to > from) {
                    return Err(format!("need 0 < from_kmh < to_kmh, got {from}..{to}"));
                }
                if !(2..=4096).contains(&steps) {
                    return Err(format!("steps: {steps} is not in [2, 4096] for optimize"));
                }
            }
            Op::Explain => {
                let speed = p.speed_kmh.unwrap_or(60.0);
                if !(speed.is_finite() && speed > 0.0) {
                    return Err(format!("speed_kmh: {speed} must be positive and finite"));
                }
            }
            Op::IngestState
            | Op::Stats
            | Op::Metrics
            | Op::Ping
            | Op::Dump
            | Op::Shutdown
            | Op::Health
            | Op::Profile => {}
        }
        Ok(())
    }
}

/// The `ok` payload of a successful response, tagged by result kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// Summary of a balance sweep.
    Balance {
        /// Break-even speed in km/h, `null` when the curves never cross.
        break_even_kmh: Option<f64>,
        /// Swept sample count.
        steps: usize,
        /// Samples running at an energy surplus.
        surplus_steps: usize,
    },
    /// Only the break-even speed.
    Breakeven {
        /// Break-even speed in km/h, `null` when the curves never cross.
        break_even_kmh: Option<f64>,
    },
    /// The full swept series, bit-identical to a direct evaluation.
    Sweep {
        /// The swept points in base SI units (m/s, joules).
        report: BalanceReport,
        /// Break-even speed in km/h, `null` when the curves never cross.
        break_even_kmh: Option<f64>,
    },
    /// Monte Carlo break-even distribution summary.
    Montecarlo {
        /// Draws that reached surplus.
        samples: usize,
        /// Draws that never crossed in the swept range.
        never_crossed: usize,
        /// Mean break-even in km/h.
        mean_kmh: f64,
        /// 5th percentile in km/h.
        p05_kmh: f64,
        /// Median in km/h.
        p50_kmh: f64,
        /// 95th percentile in km/h.
        p95_kmh: f64,
        /// Standard deviation in m/s.
        std_dev_mps: f64,
    },
    /// Long-window emulation summary.
    Emulate {
        /// Fraction of the window the node was active.
        coverage: f64,
        /// Operating window count.
        windows: usize,
        /// Brownout count.
        brownouts: usize,
        /// Harvested energy in joules.
        harvested_j: f64,
        /// Consumed energy in joules.
        consumed_j: f64,
        /// Spilled (reservoir-full) energy in joules.
        spilled_j: f64,
        /// Emulated span in seconds.
        span_s: f64,
    },
    /// One applied workbook edit plus its recompute-wave counters.
    SheetEdit {
        /// The edited cell.
        cell: String,
        /// The cell's value after the edit.
        value: f64,
        /// Formula cells the recompute wave evaluated.
        evaluated: u64,
        /// Cells cut by value cutoff (bit-equal result stopped
        /// propagation there).
        cut: u64,
    },
    /// One workbook cell read.
    SheetEval {
        /// The read cell.
        cell: String,
        /// Its current value.
        value: f64,
    },
    /// One accepted telemetry batch.
    Ingest {
        /// Points accepted from this batch.
        accepted: u64,
        /// Deficit-alert edges this batch triggered.
        alerts: u64,
        /// Points folded since the segment store began (replay + live) —
        /// a monotone cursor clients can use to detect double-counting.
        points_total: u64,
    },
    /// The windowed per-vehicle energy-balance state.
    IngestState {
        /// Window span, microseconds.
        window_us: u64,
        /// Per-vehicle aggregates, ordered by vehicle id.
        vehicles: Vec<VehicleWindow>,
    },
    /// Server statistics.
    Stats(StatsSnapshot),
    /// Prometheus text exposition of the server's metric registry.
    Metrics(String),
    /// Flight-recorder dump acknowledgement.
    Dumped {
        /// Where the dump landed, `null` when no dump path is armed (the
        /// records were still snapshotted, just had nowhere to go).
        path: Option<String>,
        /// How many records the dump contained.
        records: usize,
    },
    /// Liveness probe answer.
    Pong,
    /// Shutdown acknowledged; the server drains and exits.
    Draining,
    /// One self-observation time series.
    Series(SeriesSlice),
    /// SLO health report — the readiness answer.
    Health(HealthReport),
    /// Wall-clock profiler flame table.
    Profile(FlameTable),
    /// Break-even search result: baseline vs best candidate, in the
    /// core optimizer's own serialization.
    Optimize(OptimizeReport),
    /// Full energy-ledger attribution at one operating point, in the
    /// core ledger's own serialization.
    Explain(EnergyLedger),
}

/// The structured error of a failed response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Machine-readable code (`queue_full`, `deadline_exceeded`, ...).
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// One response line: exactly one of `ok` / `error` is set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The request's correlation id, echoed back (`null` when the request
    /// did not parse far enough to recover one).
    #[serde(default)]
    pub id: Option<u64>,
    /// The result payload on success.
    #[serde(default)]
    pub ok: Option<Payload>,
    /// The structured error on failure.
    #[serde(default)]
    pub error: Option<WireError>,
}

impl Response {
    /// A success response.
    #[must_use]
    pub fn success(id: Option<u64>, payload: Payload) -> Self {
        Self {
            id,
            ok: Some(payload),
            error: None,
        }
    }

    /// A failure response.
    #[must_use]
    pub fn failure(id: Option<u64>, code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            id,
            ok: None,
            error: Some(WireError {
                code,
                message: message.into(),
            }),
        }
    }

    /// Whether this is a success response.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.ok.is_some()
    }

    /// The error code, if this is a failure response.
    #[must_use]
    pub fn error_code(&self) -> Option<ErrorCode> {
        self.error.as_ref().map(|e| e.code)
    }
}

/// Why a raw wire line failed to decode. Every way a frame can be
/// damaged — truncated, interleaved, byte-flipped, oversized — maps to
/// one of these variants; the decoders below never panic, which the
/// fuzzing suite in `tests/properties.rs` pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The line exceeds [`MAX_LINE_BYTES`].
    Oversize {
        /// The offending line length.
        len: usize,
    },
    /// The line is not valid UTF-8.
    NotUtf8,
    /// The line is empty (or only whitespace) — a keep-alive, never a
    /// frame.
    Empty,
    /// The line is UTF-8 but is not the expected JSON shape.
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Oversize { len } => {
                write!(f, "line of {len} bytes exceeds {MAX_LINE_BYTES}")
            }
            ProtocolError::NotUtf8 => f.write_str("line is not UTF-8"),
            ProtocolError::Empty => f.write_str("line is empty"),
            ProtocolError::Malformed(detail) => write!(f, "line does not parse: {detail}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Shared frame plumbing: bounds-checks, strips the newline, checks
/// UTF-8. Returns the trimmed text ready for JSON parsing.
fn decode_text(raw: &[u8]) -> Result<&str, ProtocolError> {
    if raw.len() > MAX_LINE_BYTES {
        return Err(ProtocolError::Oversize { len: raw.len() });
    }
    let text = std::str::from_utf8(raw).map_err(|_| ProtocolError::NotUtf8)?;
    let text = text.trim_end_matches(['\n', '\r']).trim();
    if text.is_empty() {
        return Err(ProtocolError::Empty);
    }
    Ok(text)
}

/// Decodes one raw request line (with or without the trailing newline).
///
/// # Errors
///
/// Returns the typed [`ProtocolError`]; never panics, whatever the bytes.
pub fn decode_request_line(raw: &[u8]) -> Result<Request, ProtocolError> {
    let text = decode_text(raw)?;
    serde_json::from_str(text).map_err(|e| ProtocolError::Malformed(e.to_string()))
}

/// Decodes one raw response line (with or without the trailing newline).
///
/// # Errors
///
/// Returns the typed [`ProtocolError`]; never panics, whatever the bytes.
pub fn decode_response_line(raw: &[u8]) -> Result<Response, ProtocolError> {
    let text = decode_text(raw)?;
    serde_json::from_str(text).map_err(|e| ProtocolError::Malformed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_names_round_trip() {
        for op in Op::ALL {
            assert_eq!(Op::from_name(op.name()), Some(op));
            let json = serde_json::to_string(&op).unwrap();
            let back: Op = serde_json::from_str(&json).unwrap();
            assert_eq!(back, op);
        }
        assert!(Op::from_name("frobnicate").is_none());
    }

    #[test]
    fn error_codes_round_trip() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_name(code.name()), Some(code));
            let json = serde_json::to_string(&code).unwrap();
            assert_eq!(json, format!("\"{}\"", code.name()));
            let back: ErrorCode = serde_json::from_str(&json).unwrap();
            assert_eq!(back, code);
        }
    }

    #[test]
    fn minimal_request_parses_with_defaults() {
        let request: Request = serde_json::from_str(r#"{"op":"balance"}"#).unwrap();
        assert_eq!(request.op, Op::Balance);
        assert_eq!(request.id, None);
        assert_eq!(request.scenario, ScenarioSpec::default());
        assert_eq!(request.params, Params::default());
        assert!(request.validate().is_ok());
    }

    #[test]
    fn request_round_trips() {
        let request = Request {
            op: Op::Sweep,
            id: Some(7),
            deadline_ms: Some(250),
            idem: Some(0xdead_beef),
            trace: Some(TraceContext::root(0xdead_beef)),
            scenario: ScenarioSpec {
                temp_c: Some(85.0),
                corner: Some("ff".to_owned()),
                chain_scale: Some(2.0),
                ..ScenarioSpec::default()
            },
            params: Params {
                from_kmh: Some(5.0),
                to_kmh: Some(200.0),
                steps: Some(196),
                ..Params::default()
            },
        };
        let json = serde_json::to_string(&request).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, request);
    }

    #[test]
    fn traceless_requests_serialize_without_the_field() {
        // Back-compat anchor: a request that carries no trace context
        // must be byte-identical to what a pre-tracing client sends —
        // the field is omitted, not `"trace":null`.
        let request = Request::new(Op::Breakeven).with_id(9).with_idem(42);
        let json = serde_json::to_string(&request).unwrap();
        assert!(!json.contains("trace"), "{json}");
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back.trace, None);
    }

    #[test]
    fn traced_requests_round_trip_the_context() {
        let ctx = TraceContext::root(2011);
        let request = Request::new(Op::Balance).with_trace(ctx);
        let json = serde_json::to_string(&request).unwrap();
        assert!(
            json.contains(&format!("\"trace\":\"{}\"", ctx.wire())),
            "{json}"
        );
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back.trace, Some(ctx));
    }

    #[test]
    fn damaged_trace_fields_are_malformed_not_panics() {
        for bad in [
            r#"{"op":"balance","trace":"xyz"}"#,
            r#"{"op":"balance","trace":17}"#,
            r#"{"op":"balance","trace":"00:00"}"#,
        ] {
            assert!(matches!(
                decode_request_line(bad.as_bytes()),
                Err(ProtocolError::Malformed(_))
            ));
        }
        // An explicit null is tolerated (it is what `default` means).
        let request: Request = serde_json::from_str(r#"{"op":"balance","trace":null}"#).unwrap();
        assert_eq!(request.trace, None);
    }

    #[test]
    fn reference_spec_builds_reference_scenario() {
        let spec = ScenarioSpec::default();
        let scenario = spec.build().unwrap();
        let reference = Scenario::reference();
        assert_eq!(scenario.conditions(), reference.conditions());
        assert_eq!(
            scenario.architecture().len(),
            reference.architecture().len()
        );
    }

    #[test]
    fn spec_overrides_apply() {
        let spec = ScenarioSpec {
            temp_c: Some(85.0),
            supply_v: Some(1.0),
            corner: Some("ff".to_owned()),
            samples_per_round: Some(32),
            ..ScenarioSpec::default()
        };
        let scenario = spec.build().unwrap();
        assert!((scenario.conditions().temperature().celsius() - 85.0).abs() < 1e-9);
        assert!((scenario.conditions().supply().volts() - 1.0).abs() < 1e-12);
        assert_eq!(scenario.conditions().corner().id(), "ff");
    }

    #[test]
    fn spec_validation_rejects_out_of_range() {
        for spec in [
            ScenarioSpec {
                temp_c: Some(-400.0),
                ..ScenarioSpec::default()
            },
            ScenarioSpec {
                supply_v: Some(9.0),
                ..ScenarioSpec::default()
            },
            ScenarioSpec {
                corner: Some("zz".to_owned()),
                ..ScenarioSpec::default()
            },
            ScenarioSpec {
                chain_scale: Some(0.0),
                ..ScenarioSpec::default()
            },
            ScenarioSpec {
                samples_per_round: Some(0),
                ..ScenarioSpec::default()
            },
        ] {
            assert!(spec.validate().is_err(), "{spec:?}");
            assert!(spec.build().is_err(), "{spec:?}");
        }
    }

    #[test]
    fn request_validation_rejects_bad_params() {
        let mut request = Request::new(Op::Sweep);
        request.params.steps = Some(1);
        assert!(request.validate().is_err());
        let mut request = Request::new(Op::Montecarlo);
        request.params.samples = Some(0);
        assert!(request.validate().is_err());
        let mut request = Request::new(Op::Emulate);
        request.params.cycle = Some("autobahn".to_owned());
        assert!(request.validate().is_err());
    }

    #[test]
    fn cache_keys_distinguish_specs() {
        let a = ScenarioSpec::default();
        let b = ScenarioSpec {
            temp_c: Some(85.0),
            ..ScenarioSpec::default()
        };
        assert_ne!(a.cache_key(), b.cache_key());
        assert_eq!(a.cache_key(), ScenarioSpec::default().cache_key());
    }

    #[test]
    fn retryability_splits_the_codes() {
        for code in ErrorCode::ALL {
            let expected = matches!(code, ErrorCode::QueueFull | ErrorCode::Internal);
            assert_eq!(code.is_retryable(), expected, "{code:?}");
        }
    }

    #[test]
    fn decoders_classify_damaged_lines() {
        let line = serde_json::to_string(&Request::new(Op::Balance).with_id(3)).unwrap();
        assert!(decode_request_line(line.as_bytes()).is_ok());
        assert!(decode_request_line(format!("{line}\n").as_bytes()).is_ok());
        assert_eq!(decode_request_line(b"  \n"), Err(ProtocolError::Empty));
        assert_eq!(
            decode_request_line(&[0xff, 0xfe, b'{']),
            Err(ProtocolError::NotUtf8)
        );
        assert!(matches!(
            decode_request_line(&line.as_bytes()[..line.len() / 2]),
            Err(ProtocolError::Malformed(_))
        ));
        let oversize = vec![b'x'; MAX_LINE_BYTES + 1];
        assert!(matches!(
            decode_request_line(&oversize),
            Err(ProtocolError::Oversize { .. })
        ));
        let response = serde_json::to_string(&Response::success(Some(1), Payload::Pong)).unwrap();
        assert!(decode_response_line(response.as_bytes()).is_ok());
    }

    #[test]
    fn ingest_requests_round_trip_and_validate() {
        let mut request = Request::new(Op::Ingest).with_idem(7);
        assert!(request.validate().is_err(), "a batch is required");
        request.params.points = Some(vec![]);
        assert!(request.validate().is_err(), "an empty batch is invalid");
        let points = monityre_ingest::synthetic_points(3, 8, 2011, 1_000_000);
        request.params.points = Some(points.clone());
        assert!(request.validate().is_ok());
        let json = serde_json::to_string(&request).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, request);
        assert_eq!(back.params.points.as_deref(), Some(&points[..]));

        // The batch bound is the backpressure contract.
        request.params.points = Some(monityre_ingest::synthetic_points(
            3,
            MAX_INGEST_POINTS + 1,
            2011,
            0,
        ));
        assert!(request.validate().is_err());

        // Non-ingest requests never carry the heavy fields on the wire.
        let bare = serde_json::to_string(&Request::new(Op::Balance)).unwrap();
        assert!(!bare.contains("points"), "{bare}");
        assert!(!bare.contains("vehicle"), "{bare}");
    }

    #[test]
    fn ingest_state_payload_round_trips() {
        let mut ingestor = monityre_ingest::Ingestor::in_memory(60_000_000);
        ingestor
            .ingest(&monityre_ingest::synthetic_points(9, 16, 2011, 0), None)
            .unwrap();
        let payload = Payload::IngestState {
            window_us: 60_000_000,
            vehicles: ingestor.state(),
        };
        let json = serde_json::to_string(&payload).unwrap();
        assert!(json.contains("\"IngestState\""), "{json}");
        let back: Payload = serde_json::from_str(&json).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn series_requests_validate_and_round_trip() {
        let mut request = Request::new(Op::Series);
        assert!(request.validate().is_err(), "a metric is required");
        request.params.metric = Some("serve.served".to_owned());
        assert!(request.validate().is_ok());
        request.params.resolution = Some("10s".to_owned());
        request.params.range_s = Some(300);
        assert!(request.validate().is_ok());
        let json = serde_json::to_string(&request).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, request);

        request.params.resolution = Some("sideways".to_owned());
        assert!(request.validate().is_err());
        request.params.resolution = None;
        request.params.range_s = Some(0);
        assert!(request.validate().is_err());

        // `health` and `profile` take no parameters and are control ops.
        for op in [Op::Health, Op::Profile, Op::Series] {
            assert!(op.is_control(), "{op:?}");
        }
        assert!(Request::new(Op::Health).validate().is_ok());
        assert!(Request::new(Op::Profile).validate().is_ok());

        // The observation params never burden other ops' wire lines.
        let bare = serde_json::to_string(&Request::new(Op::Balance)).unwrap();
        for field in ["metric", "resolution", "range_s"] {
            assert!(!bare.contains(field), "{bare}");
        }
    }

    #[test]
    fn observation_payloads_round_trip() {
        let store = monityre_obs::SeriesStore::new(&monityre_obs::DEFAULT_TIERS);
        store.record(
            5_000_000,
            "serve.served",
            monityre_obs::SampleValue::Counter(17),
        );
        let slice = store
            .query("serve.served", None, None, 5_000_000)
            .expect("series exists");
        let payload = Payload::Series(slice);
        let json = serde_json::to_string(&payload).unwrap();
        assert!(json.contains("\"Series\""), "{json}");
        let back: Payload = serde_json::from_str(&json).unwrap();
        assert_eq!(back, payload);

        let health = monityre_obs::HealthReport {
            status: "ok".to_owned(),
            objectives: Vec::new(),
        };
        let payload = Payload::Health(health);
        let back: Payload =
            serde_json::from_str(&serde_json::to_string(&payload).unwrap()).unwrap();
        assert_eq!(back, payload);

        let payload = Payload::Profile(monityre_obs::FlameTable {
            ticks: 100,
            idle_ticks: 40,
            rows: vec![monityre_obs::FlameRow {
                stack: "serve.execute".to_owned(),
                samples: 60,
                pct: 60.0,
            }],
        });
        let back: Payload =
            serde_json::from_str(&serde_json::to_string(&payload).unwrap()).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn axis_fields_stay_off_the_wire_when_unset() {
        // Back-compat anchor: a spec without the new axes serializes to
        // the same bytes as before they existed — which also keeps warm
        // scenario-cache keys stable across the protocol extension.
        let bare = ScenarioSpec::default().cache_key();
        for field in ["radio_loss_prob", "radio_retries", "age_years"] {
            assert!(!bare.contains(field), "{bare}");
        }
        let with_axes = ScenarioSpec {
            radio_loss_prob: Some(0.1),
            radio_retries: Some(5),
            age_years: Some(4.0),
            ..ScenarioSpec::default()
        };
        assert_ne!(with_axes.cache_key(), bare);
        let back: ScenarioSpec = serde_json::from_str(&with_axes.cache_key()).unwrap();
        assert_eq!(back, with_axes);
    }

    #[test]
    fn axis_specs_validate_and_build() {
        let spec = ScenarioSpec {
            radio_loss_prob: Some(0.2),
            age_years: Some(5.0),
            tx_period_rounds: Some(8),
            ..ScenarioSpec::default()
        };
        let scenario = spec.build().unwrap();
        let extras = scenario.extras().expect("axes attached");
        assert!(extras.radio().is_some() && extras.ageing().is_some());

        for bad in [
            ScenarioSpec {
                radio_loss_prob: Some(1.0),
                ..ScenarioSpec::default()
            },
            ScenarioSpec {
                radio_loss_prob: Some(-0.1),
                ..ScenarioSpec::default()
            },
            ScenarioSpec {
                radio_retries: Some(3),
                ..ScenarioSpec::default()
            },
            ScenarioSpec {
                radio_loss_prob: Some(0.1),
                radio_retries: Some(65),
                ..ScenarioSpec::default()
            },
            ScenarioSpec {
                age_years: Some(31.0),
                ..ScenarioSpec::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }

        // No axes set ⇒ no extras allocated at all.
        assert!(ScenarioSpec::default().build().unwrap().extras().is_none());
    }

    #[test]
    fn optimize_requests_validate_and_round_trip() {
        let request = Request::new(Op::Optimize).with_id(4);
        assert!(request.validate().is_ok());
        assert!(!Op::Optimize.is_control());
        let json = serde_json::to_string(&request).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, request);

        let mut request = Request::new(Op::Optimize);
        request.params.steps = Some(5000);
        assert!(request.validate().is_err(), "optimize caps steps at 4096");
        request.params.steps = Some(48);
        request.params.from_kmh = Some(-1.0);
        assert!(request.validate().is_err());
    }

    #[test]
    fn responses_carry_exactly_one_arm() {
        let ok = Response::success(Some(1), Payload::Pong);
        assert!(ok.is_ok());
        assert_eq!(ok.error_code(), None);
        let err = Response::failure(Some(2), ErrorCode::QueueFull, "shed");
        assert!(!err.is_ok());
        assert_eq!(err.error_code(), Some(ErrorCode::QueueFull));
        let json = serde_json::to_string(&err).unwrap();
        assert!(json.contains("queue_full"), "{json}");
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back, err);
    }

    /// Every key of a data tree, nested ones included.
    fn keys(value: &Value, out: &mut Vec<String>) {
        match value {
            Value::Map(entries) => {
                for (key, item) in entries {
                    out.push(key.clone());
                    keys(item, out);
                }
            }
            Value::Seq(items) => items.iter().for_each(|item| keys(item, out)),
            _ => {}
        }
    }

    #[test]
    fn design_grammar_names_every_op_code_and_field() {
        let design = include_str!("../../../DESIGN.md");
        let start = design
            .find("request  := {")
            .expect("DESIGN §7 grammar block");
        let grammar = &design[start..start + design[start..].find("```").expect("block end")];
        // Every field is listed and set, so a new one fails to compile
        // here until it is added (and, through this test, documented).
        let scenario = ScenarioSpec {
            temp_c: Some(85.0),
            supply_v: Some(1.1),
            corner: Some("ss".to_owned()),
            samples_per_round: Some(4),
            tx_period_rounds: Some(8),
            payload_bytes: Some(16),
            chain_scale: Some(1.5),
            radio_loss_prob: Some(0.2),
            radio_retries: Some(3),
            age_years: Some(6.0),
        };
        let params = Params {
            from_kmh: Some(5.0),
            to_kmh: Some(200.0),
            steps: Some(24),
            samples: Some(8),
            seed: Some(2011),
            cycle: Some("nedc".to_owned()),
            repeat: Some(1),
            cap_mf: Some(47.0),
            cell: Some("what_if.base".to_owned()),
            value: Some(2.0),
            formula: Some("what_if.base * 2".to_owned()),
            points: Some(monityre_ingest::synthetic_points(1, 1, 7, 0)),
            vehicle: Some(1),
            metric: Some("serve.served".to_owned()),
            resolution: Some("1s".to_owned()),
            range_s: Some(60),
            speed_kmh: Some(60.0),
        };
        let request = Request {
            op: Op::Ingest,
            id: Some(1),
            deadline_ms: Some(5_000),
            idem: Some(11),
            trace: Some(TraceContext::root(7)),
            scenario,
            params,
        };
        let mut names: Vec<String> = Op::ALL.iter().map(|op| op.name().to_owned()).collect();
        names.extend(ErrorCode::ALL.iter().map(|code| code.name().to_owned()));
        keys(&request.to_value(), &mut names);
        keys(
            &Response::failure(Some(1), ErrorCode::Internal, "").to_value(),
            &mut names,
        );
        for name in names {
            assert!(
                grammar.contains(&format!("\"{name}\"")),
                "DESIGN §7's grammar does not name `{name}`"
            );
        }
    }
}
