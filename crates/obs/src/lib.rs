//! Observability for the monityre evaluation and serving stack.
//!
//! The paper's whole contribution is *visibility into where energy goes* —
//! per-block power split by dynamic/static and weighted by duty cycle. This
//! crate gives the reproduction the same visibility into where *time* goes,
//! with three layers and no heavy dependencies:
//!
//! 1. a **metrics registry** ([`Registry`]) — lock-sharded maps of named
//!    [`Counter`]s, [`Gauge`]s and fixed-bucket latency [`Histogram`]s with
//!    p50/p90/p99 estimation. One process-wide instance ([`Registry::global`])
//!    collects the core evaluation spans; subsystems that need exact,
//!    isolated counters (the serving layer's `stats` op) own private
//!    instances of the same type;
//! 2. a **span API** ([`span!`]/[`span()`]) — lightweight timer guards that
//!    record wall time into a global histogram on drop, and optionally emit
//!    one JSON line per span to a trace sink selected via the
//!    [`TRACE_ENV_VAR`] environment variable or [`set_trace_path`] (the CLI's
//!    `--trace-out`);
//! 3. an **exporter** ([`RegistrySnapshot::to_prometheus`]) — Prometheus
//!    text exposition format, served by `monityre-serve`'s `metrics` op and
//!    checked by the loopback tests, with per-bucket **exemplar** trace ids on traced
//!    histograms so a tail bucket points at a concrete request;
//! 4. a **trace context** ([`TraceContext`]) — a wire-propagated
//!    (trace id, span id) pair installed per thread; every span started
//!    while a context is current links itself into one causal tree per
//!    request, emitted to the trace sink and the flight recorder;
//! 5. a **flight recorder** ([`recorder`]) — always-on fixed-size
//!    per-thread rings of recent span/event records, dumped as JSON lines
//!    (to [`FLIGHT_RECORDER_ENV_VAR`]) on worker panic, injected fault,
//!    deadline miss, or explicit `obs dump` — post-mortem visibility
//!    without steady-state trace-sink overhead;
//! 6. a **time-series store** ([`SeriesStore`]) — fixed-memory ring
//!    buffers with tiered downsampling (1s×600 → 10s×360 → 60s×360)
//!    fed by a background self-scrape of the registry, so the process
//!    remembers the last hour of every counter/gauge/quantile;
//! 7. an **SLO engine** ([`SloEngine`]) — declarative objectives
//!    evaluated against the rings with fast/slow-window burn-rate
//!    alerting; transitions land in the flight recorder and roll up
//!    into a [`HealthReport`] readiness answer;
//! 8. a **sampling profiler** ([`Profiler`]) — wall-clock samples of
//!    every thread's open-span stack, accumulated into a phase
//!    attribution [`FlameTable`].
//!
//! Instrumentation is on by default and costs one relaxed atomic load when
//! disabled via [`set_enabled`]; the spans sit at *batch* boundaries
//! (per sweep, per Monte Carlo run, per cache build, per served request),
//! never inside per-point loops, so the measured overhead on a full sweep
//! stays well under the 2 % budget pinned by `BENCH_obs.json`.
//!
//! ```
//! use monityre_obs as obs;
//!
//! {
//!     let _guard = obs::span!("doc.example");
//!     // ... timed work ...
//! }
//! let snapshot = obs::Registry::global().snapshot();
//! assert!(snapshot.histograms.iter().any(|h| h.name == "doc.example"));
//! let text = snapshot.to_prometheus();
//! assert!(text.contains("monityre_doc_example_seconds_count"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod export;
mod metrics;
pub mod names;
pub mod profiler;
pub mod recorder;
mod registry;
mod sink;
pub mod slo;
mod span;
pub mod timeseries;

pub use context::{
    current_context, install_context, splitmix64, ContextGuard, SpanIds, TraceContext,
};
pub use metrics::{
    BucketCount, Counter, CounterSnapshot, ExemplarSnapshot, Gauge, GaugeSnapshot, Histogram,
    HistogramSnapshot, Reservoir, BUCKET_BOUNDS_US,
};
pub use profiler::{FlameRow, FlameTable, Profiler};
pub use recorder::{FlightRecord, RecordKind, FLIGHT_RECORDER_ENV_VAR};
pub use registry::{Registry, RegistrySnapshot};
pub use sink::{
    set_trace_path, set_trace_writer, trace_event, trace_event_with, trace_sink_active,
    TRACE_ENV_VAR,
};
pub use slo::{
    HealthReport, ObjectiveHealth, SloEngine, SloKind, SloSpec, SloState, DEFAULT_FAST_US,
    DEFAULT_SLOW_US,
};
pub use span::{enabled, now_us, record_phase, set_enabled, span, SpanGuard};
pub use timeseries::{
    parse_duration_us, GaugePoint, SampleValue, SeriesKind, SeriesPoint, SeriesSlice, SeriesStore,
    TierSpec, DEFAULT_TIERS,
};

/// Starts a named timer scope recording into the global registry — see
/// [`span()`]. The guard records on drop:
///
/// ```
/// let _guard = monityre_obs::span!("sweep.batch");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}
