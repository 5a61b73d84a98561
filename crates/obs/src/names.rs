//! Well-known metric names shared across crates.
//!
//! The registry is stringly keyed on purpose — subsystems mint names
//! freely — but a few names form cross-crate contracts: the fault layer
//! increments them, the serving layer exposes them, and the chaos suite
//! asserts on them. Those live here so a rename cannot silently split a
//! metric in two.

/// Total injected faults (process-global; per-kind counters append
/// `.<kind>`, e.g. `faults.injected.conn_reset`).
pub const FAULTS_INJECTED: &str = "faults.injected";

/// Retries performed by `RetryingClient` (process-global).
pub const CLIENT_RETRIES: &str = "client.retries";

/// Idempotent-replay hits served from the server's dedup map (per-server
/// private registry).
pub const SERVE_DEDUP_HITS: &str = "serve.dedup_hits";

/// The retrying client's logical-call root span: one per `call`, parent
/// of every attempt. The chaos suite asserts trace trees hang off it.
pub const CLIENT_CALL: &str = "client.call";

/// One client attempt span (per connect-send-receive try); retries show
/// up as siblings under [`CLIENT_CALL`].
pub const CLIENT_ATTEMPT: &str = "client.attempt";

/// Queue-wait phase of one served request (private stats histogram; also
/// the trace-tree span name for the same phase).
pub const SERVE_QUEUE_WAIT: &str = "serve.queue_wait";

/// Execution phase of one served request (private stats histogram; also
/// the trace-tree span name for the same phase).
pub const SERVE_EXECUTE: &str = "serve.execute";

/// Dedup-map lookup/claim span of one served request.
pub const SERVE_DEDUP: &str = "serve.dedup";

/// Write-back span: committing a finished response to the dedup map.
pub const SERVE_WRITEBACK: &str = "serve.writeback";

/// One spreadsheet recompute wave triggered by a served `sheet_edit`
/// (span name in the trace tree; histogram in the server's registry).
pub const SHEET_RECOMPUTE: &str = "sheet.recompute";

/// Cells whose recomputed value was bit-equal to the old one during
/// served sheet recomputes — propagation stopped there (value cutoff).
pub const SHEET_CELLS_CUT: &str = "sheet.cells_cut";

/// One served `ingest` batch: append + window fold, end to end
/// (histogram in the server's registry, exemplar-stamped).
pub const SERVE_INGEST: &str = "serve.ingest";

/// Served requests evaluated on fewer `SweepExecutor` threads than the
/// server's ceiling, because other connections were live (per-server
/// private registry).
pub const SERVE_EXECUTOR_NARROWED: &str = "serve.executor.narrowed";

/// Telemetry points accepted by served `ingest` batches.
pub const SERVE_INGEST_POINTS: &str = "serve.ingest_points";

/// Deficit-alert edges emitted by the served ingest pipeline.
pub const SERVE_INGEST_ALERTS: &str = "serve.ingest_alerts";

/// Flight-recorder event prefix of a live deficit alert
/// (`ingest.deficit.vehicle.<id>`); the event links the trace context of
/// the batch that crossed the edge — the alert's exemplar.
pub const INGEST_DEFICIT_EVENT: &str = "ingest.deficit";

/// Flight-recorder event prefix of an SLO state transition
/// (`slo.transition.<objective>.<from>_to_<to>[.trace.<exemplar>]`);
/// the observation tests look for it to prove alerting fired.
pub const SLO_TRANSITION_EVENT: &str = "slo.transition";

/// Append phase of one durable ingest batch (encode + write); a real
/// span so the sampling profiler can attribute wall time to it.
pub const INGEST_APPEND: &str = "ingest.append";

/// Fsync phase of one durable ingest batch; a real span so blocked-on-
/// disk time shows up in the profiler's flame-table.
pub const INGEST_FSYNC: &str = "ingest.fsync";

/// Telemetry points streamed at a server by the fleet workload generator
/// (process-global).
pub const FLEET_STREAMED: &str = "fleet.streamed";

/// One vehicle's end-to-end fleet run (stream + evaluate) — span name in
/// the trace tree, so per-vehicle wall time shows up in dumps.
pub const FLEET_VEHICLE: &str = "fleet.vehicle";

/// Energy-ledger conservation violations (process-global). The ledger
/// and the aggregate `point()` figure share one per-block walk, so
/// nothing increments it; the chaos matrix and the benchmark assert
/// it reads zero.
pub const LEDGER_CONSERVATION_VIOLATIONS: &str = "ledger.conservation_violations";

/// Per-block attribution gauge prefix
/// (`energy.block.<name>.{dynamic,static}_nj`), refreshed from the most
/// recent ledger on every stats snapshot so the series store charts any
/// block's share over time.
pub const ENERGY_BLOCK_PREFIX: &str = "energy.block";

/// Deficit-alert attribution counter prefix
/// (`ingest.deficit.block.<name>`, process-global): which ledger block
/// dominated the implied operating point of an alerting vehicle.
pub const INGEST_DEFICIT_BLOCK_PREFIX: &str = "ingest.deficit.block";

/// Connect-send-receive attempts the retrying client made, including
/// first tries (process-global; `client.retries` counts only re-tries).
pub const CLIENT_ATTEMPTS: &str = "client.attempts";

/// Backoff the retrying client actually slept, milliseconds
/// (process-global histogram; one sample per retry).
pub const CLIENT_BACKOFF_MS: &str = "client.backoff_ms";

/// Failed client attempts by error class
/// (`client.errors.{transport,protocol,server}`, process-global).
pub const CLIENT_ERRORS_PREFIX: &str = "client.errors";

/// Sweep maps that spawned helper threads (process-global). Each
/// `SweepExecutor` map records one `sweep.batch` span, so the two read
/// together give the share of maps that fanned out.
pub const SWEEP_FANOUT: &str = "sweep.fanout";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct_and_prometheus_safe() {
        let all = [
            FAULTS_INJECTED,
            CLIENT_RETRIES,
            SERVE_DEDUP_HITS,
            CLIENT_CALL,
            CLIENT_ATTEMPT,
            SERVE_QUEUE_WAIT,
            SERVE_EXECUTE,
            SERVE_DEDUP,
            SERVE_WRITEBACK,
            SHEET_RECOMPUTE,
            SHEET_CELLS_CUT,
            SERVE_INGEST,
            SERVE_INGEST_POINTS,
            SERVE_INGEST_ALERTS,
            SERVE_EXECUTOR_NARROWED,
            INGEST_DEFICIT_EVENT,
            SLO_TRANSITION_EVENT,
            INGEST_APPEND,
            INGEST_FSYNC,
            FLEET_STREAMED,
            FLEET_VEHICLE,
            LEDGER_CONSERVATION_VIOLATIONS,
            ENERGY_BLOCK_PREFIX,
            INGEST_DEFICIT_BLOCK_PREFIX,
            CLIENT_ATTEMPTS,
            CLIENT_BACKOFF_MS,
            CLIENT_ERRORS_PREFIX,
            SWEEP_FANOUT,
        ];
        for (i, name) in all.iter().enumerate() {
            assert!(name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'));
            assert!(!all[..i].contains(name), "duplicate metric name {name}");
        }
    }
}
