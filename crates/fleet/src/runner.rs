//! The fleet runner: fans vehicles out over a [`SweepExecutor`], each
//! with its own seeded [`RetryingClient`], streams telemetry batches and
//! evaluation requests at a live server, and folds the results into a
//! canonical, golden-comparable report.
//!
//! Determinism contract: every field of [`FleetReport`] is a pure
//! function of the fleet spec and the server's durable state. Fields
//! that depend on batch *interleaving* across vehicles — the server's
//! monotone `points_total` cursor, retry tallies, wall-clock anything —
//! are deliberately excluded, so the canonical JSON is byte-identical
//! at 1, 2 or 4 worker threads and across a server restart + replay.

use std::net::SocketAddr;

use monityre_core::{OptimizeReport, SweepExecutor};
use monityre_obs::{names, span, splitmix64, Registry};
use monityre_serve::{Op, Payload, Request, Response, RetryPolicy, RetryingClient, VehicleWindow};
use serde::{Deserialize, Serialize};

use crate::sim::FleetSpec;
use crate::FleetError;

/// Grid resolution of the fleet's evaluation requests. Pinned — and
/// sent explicitly on both `breakeven` and `optimize` — so the served
/// break-even and the optimizer's baseline scan the *same* grid and
/// agree bit-for-bit (the break-even interpolates between grid samples,
/// so mismatched step counts would disagree in the last ulps).
pub const FLEET_EVAL_STEPS: usize = 48;

/// One fleet run: the spec plus run-shaping knobs that do not affect
/// the generated workload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetRun {
    /// The seeded fleet to stream.
    pub spec: FleetSpec,
    /// Worker threads fanning vehicles out (1 = serial). Never affects
    /// report bytes — that is the golden-fleet invariant.
    pub threads: usize,
    /// Also run the break-even `optimize` search per vehicle. Off by
    /// default: each of the ~226 candidates per vehicle scans its grid
    /// up to its crossing.
    pub optimize: bool,
}

impl FleetRun {
    /// A serial run of `spec` without the optimizer.
    #[must_use]
    pub fn new(spec: FleetSpec) -> Self {
        Self {
            spec,
            threads: 1,
            optimize: false,
        }
    }

    /// A derived run fanning out over `threads` workers.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// A derived run that also searches block configs / duty policies
    /// for each vehicle's minimal break-even speed.
    #[must_use]
    pub fn with_optimize(mut self, optimize: bool) -> Self {
        self.optimize = optimize;
        self
    }
}

/// One vehicle's end-to-end outcome: its drawn identity, what the
/// server accepted, and what the energy model says about it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VehicleOutcome {
    /// Vehicle id (1-based).
    pub vehicle: u64,
    /// Drawn driving cycle.
    pub cycle: String,
    /// Drawn working temperature, °C.
    pub temp_c: f64,
    /// Drawn radio packet-loss probability (`None` = axis off).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub radio_loss_prob: Option<f64>,
    /// Drawn radio retry budget.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub radio_retries: Option<u32>,
    /// Drawn supercap age, years (`None` = axis off).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub age_years: Option<f64>,
    /// Mean cycle speed over the streamed span, km/h.
    pub mean_speed_kmh: f64,
    /// Telemetry points the server accepted from this vehicle.
    pub accepted: u64,
    /// Deficit-alert edges this vehicle's stream triggered.
    pub alerts: u64,
    /// Served break-even speed under the vehicle's scenario, km/h
    /// (`null` when the curves never cross).
    pub break_even_kmh: Option<f64>,
    /// The served break-even search report, when the run asked for it.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub optimize: Option<OptimizeReport>,
}

/// The canonical result of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// The spec that generated everything below.
    pub spec: FleetSpec,
    /// FNV-1a fingerprint of the generated workload bytes.
    pub workload_digest: u64,
    /// Per-vehicle outcomes, ordered by vehicle id.
    pub vehicles: Vec<VehicleOutcome>,
    /// The server's ingest window span, microseconds.
    pub window_us: u64,
    /// The server's final per-vehicle window state, ordered by vehicle
    /// id — byte-identical across thread counts because the window fold
    /// is per-vehicle and every batch is single-vehicle.
    pub ingest_state: Vec<VehicleWindow>,
}

impl FleetReport {
    /// The canonical JSON bytes the golden tests compare. Field order is
    /// fixed by declaration order; every field is interleaving-free.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("fleet report serializes")
    }

    /// The per-vehicle break-even table, `(vehicle, km/h)`.
    #[must_use]
    pub fn break_even_table(&self) -> Vec<(u64, Option<f64>)> {
        self.vehicles
            .iter()
            .map(|v| (v.vehicle, v.break_even_kmh))
            .collect()
    }

    /// Total deficit-alert edges across the fleet.
    #[must_use]
    pub fn alerts_total(&self) -> u64 {
        self.vehicles.iter().map(|v| v.alerts).sum()
    }

    /// Total telemetry points the server accepted.
    #[must_use]
    pub fn accepted_total(&self) -> u64 {
        self.vehicles.iter().map(|v| v.accepted).sum()
    }
}

/// Streams the whole fleet at the server behind `addr` and returns the
/// canonical report.
///
/// Vehicles fan out over a [`SweepExecutor`] with `run.threads`
/// workers; each vehicle gets its own [`RetryingClient`] whose jitter
/// seed (and hence idempotency keys and trace ids) derive from the
/// fleet seed, so even the retry behaviour is reproducible. After all
/// vehicles finish, one extra read collects the server's final
/// `ingest_state`.
///
/// # Errors
///
/// The first vehicle's [`FleetError`], or the state read's.
pub fn run_fleet(addr: SocketAddr, run: &FleetRun) -> Result<FleetReport, FleetError> {
    let executor = if run.threads <= 1 {
        SweepExecutor::serial()
    } else {
        SweepExecutor::new(run.threads)
    };
    let ids = run.spec.vehicle_ids();
    let outcomes = executor.map(&ids, |_, &id| run_vehicle(addr, run, id));
    let mut vehicles = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        vehicles.push(outcome?);
    }

    let mut client = client_for(addr, &run.spec, 0);
    let state = request_for(&run.spec, Op::IngestState, 0, u64::MAX);
    let response = client.call(&state)?;
    let Some(Payload::IngestState {
        window_us,
        vehicles: ingest_state,
    }) = response.ok
    else {
        return Err(unexpected("IngestState", &response));
    };

    Ok(FleetReport {
        spec: run.spec.clone(),
        workload_digest: run.spec.workload_digest()?,
        vehicles,
        window_us,
        ingest_state,
    })
}

/// One vehicle's run: stream every telemetry batch, then ask the server
/// for the vehicle's break-even (and optionally the optimize search)
/// under its drawn scenario.
fn run_vehicle(addr: SocketAddr, run: &FleetRun, id: u64) -> Result<VehicleOutcome, FleetError> {
    let _vehicle_span = span(names::FLEET_VEHICLE);
    let streamed = Registry::global().counter(names::FLEET_STREAMED);
    let spec = &run.spec;
    let profile = spec.vehicle(id);
    let workload = profile.workload(spec)?;
    let mut client = client_for(addr, spec, id);

    let mut accepted_total = 0u64;
    let mut alerts_total = 0u64;
    for (i, batch) in workload.chunks(spec.batch.max(1)).enumerate() {
        let mut request = request_for(spec, Op::Ingest, id, i as u64);
        request.params.points = Some(batch.to_vec());
        let response = client.call(&request)?;
        let Some(Payload::Ingest {
            accepted, alerts, ..
        }) = response.ok
        else {
            return Err(unexpected("Ingest", &response));
        };
        accepted_total += accepted;
        alerts_total += alerts;
        streamed.add(accepted);
    }

    let mut breakeven = request_for(spec, Op::Breakeven, id, u64::MAX - 1);
    breakeven.scenario = profile.scenario_spec();
    breakeven.params.steps = Some(FLEET_EVAL_STEPS);
    let response = client.call(&breakeven)?;
    let Some(Payload::Breakeven { break_even_kmh }) = response.ok else {
        return Err(unexpected("Breakeven", &response));
    };

    let optimize = if run.optimize {
        let mut request = request_for(spec, Op::Optimize, id, u64::MAX - 2);
        request.scenario = profile.scenario_spec();
        request.params.steps = Some(FLEET_EVAL_STEPS);
        let response = client.call(&request)?;
        let Some(Payload::Optimize(report)) = response.ok else {
            return Err(unexpected("Optimize", &response));
        };
        Some(report)
    } else {
        None
    };

    Ok(VehicleOutcome {
        vehicle: id,
        cycle: profile.cycle.clone(),
        temp_c: profile.temp_c,
        radio_loss_prob: profile.radio_loss_prob,
        radio_retries: profile.radio_retries,
        age_years: profile.age_years,
        mean_speed_kmh: profile.mean_speed_kmh(spec),
        accepted: accepted_total,
        alerts: alerts_total,
        break_even_kmh,
        optimize,
    })
}

/// A per-vehicle client whose jitter seed derives from the fleet seed,
/// making retry timing, idempotency keys, and trace ids reproducible.
fn client_for(addr: SocketAddr, spec: &FleetSpec, vehicle: u64) -> RetryingClient {
    let policy = RetryPolicy {
        jitter_seed: splitmix64(spec.seed ^ vehicle.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        ..RetryPolicy::default()
    };
    RetryingClient::new(addr, policy)
}

/// A request with a deterministic correlation id derived from
/// `(vehicle, sequence)` — ids never collide across the fleet and never
/// depend on interleaving.
fn request_for(spec: &FleetSpec, op: Op, vehicle: u64, sequence: u64) -> Request {
    let _ = spec;
    Request::new(op).with_id(vehicle.wrapping_mul(1 << 32).wrapping_add(sequence))
}

fn unexpected(wanted: &str, response: &Response) -> FleetError {
    FleetError::Protocol(format!("expected a {wanted} payload, got {response:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use monityre_serve::ServerConfig;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "monityre-fleet-runner-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_run() -> FleetRun {
        FleetRun::new(FleetSpec::reference().with_vehicles(3).with_rounds(12))
    }

    fn serve_fleet(run: &FleetRun, dir: Option<PathBuf>) -> FleetReport {
        let handle = ServerConfig {
            ingest_dir: dir,
            ..ServerConfig::default()
        }
        .start()
        .expect("bind loopback");
        let report = run_fleet(handle.addr(), run).expect("fleet run");
        handle.shutdown();
        report
    }

    #[test]
    fn report_is_byte_identical_across_runs_and_servers() {
        let run = small_run();
        let first = serve_fleet(&run, None);
        let second = serve_fleet(&run, None);
        assert_eq!(first.canonical_json(), second.canonical_json());
        assert_eq!(first.accepted_total(), run.spec.total_points());
        assert_eq!(first.vehicles.len(), 3);
        assert!(
            first.vehicles.iter().all(|v| v.break_even_kmh.is_some()),
            "palette scenarios always cross break-even"
        );
    }

    #[test]
    fn thread_count_never_changes_report_bytes() {
        let run = small_run();
        let serial = serve_fleet(&run, None);
        let fanned = serve_fleet(&run.clone().with_threads(4), None);
        assert_eq!(serial.canonical_json(), fanned.canonical_json());
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = serve_fleet(&small_run(), None);
        let back: FleetReport = serde_json::from_str(&report.canonical_json()).expect("parse");
        assert_eq!(back, report);
        assert_eq!(back.break_even_table().len(), 3);
    }

    #[test]
    fn durable_run_survives_restart_with_identical_state() {
        let dir = temp_dir("restart");
        let run = small_run();
        let report = serve_fleet(&run, Some(dir.clone()));
        // A fresh server over the same segments replays to the same
        // per-vehicle window state the live run ended with.
        let handle = ServerConfig {
            ingest_dir: Some(dir.clone()),
            ..ServerConfig::default()
        }
        .start()
        .expect("bind loopback");
        assert_eq!(handle.ingest_replay().points, run.spec.total_points());
        let mut client = client_for(handle.addr(), &run.spec, 0);
        let response = client
            .call(&request_for(&run.spec, Op::IngestState, 0, u64::MAX))
            .expect("state");
        let Some(Payload::IngestState { vehicles, .. }) = response.ok else {
            panic!("unexpected state response: {response:?}");
        };
        assert_eq!(
            serde_json::to_string(&vehicles).expect("serialize"),
            serde_json::to_string(&report.ingest_state).expect("serialize"),
            "replay must reconstruct the fleet's final window state"
        );
        handle.shutdown();
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
