//! The golden-fleet layer: the reference fleet seed produces
//! byte-identical results across runs, worker thread counts, and server
//! restarts.
//!
//! Each run gets a FRESH server and segment directory — the retrying
//! client's idempotency keys are deterministic per (seed, vehicle), so
//! re-streaming the same fleet at a server that already saw those keys
//! would be absorbed by the dedup map instead of exercising the full
//! path. Fresh state per run is the honest comparison.
//!
//! The digest and break-even constants pinned here are the generator's
//! fingerprint: a change to the draw order, the palettes, the energy
//! quantization, or the served evaluation changes them, and this file
//! must be bumped deliberately.

use std::path::PathBuf;

use monityre_fleet::{run_fleet, FleetReport, FleetRun, FleetSpec};
use monityre_serve::ServerConfig;

/// The reference workload fingerprint (FNV-1a over the canonical point
/// encoding). `monityre fleet --digest` prints it.
const REFERENCE_DIGEST: u64 = 0xe97f_47e0_f0fc_47f5;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "monityre-fleet-golden-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Streams `run` at a fresh server (durable when `dir` is given) and
/// returns the canonical report.
fn golden_run(run: &FleetRun, dir: Option<PathBuf>) -> FleetReport {
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
fn reference_workload_digest_is_pinned() {
    let digest = FleetSpec::reference().workload_digest().expect("digest");
    assert_eq!(
        digest, REFERENCE_DIGEST,
        "the fleet generator's fingerprint moved: 0x{digest:016x} — if \
         deliberate, bump REFERENCE_DIGEST"
    );
}

#[test]
fn golden_fleet_is_byte_identical_across_thread_counts() {
    let reference = golden_run(&FleetRun::new(FleetSpec::reference()), None);
    assert_eq!(reference.workload_digest, REFERENCE_DIGEST);
    assert_eq!(
        reference.accepted_total(),
        FleetSpec::reference().total_points()
    );
    for threads in [2, 4] {
        let fanned = golden_run(
            &FleetRun::new(FleetSpec::reference()).with_threads(threads),
            None,
        );
        assert_eq!(
            reference.canonical_json(),
            fanned.canonical_json(),
            "fleet report bytes diverged at {threads} worker threads"
        );
    }
}

#[test]
fn golden_fleet_survives_a_server_restart_bit_identically() {
    let dir = temp_dir("restart");
    let live = golden_run(&FleetRun::new(FleetSpec::reference()), Some(dir.clone()));

    // A fresh server over the same segments: replay must reconstruct
    // exactly the state the live fleet left behind.
    let handle = ServerConfig {
        ingest_dir: Some(dir.clone()),
        ..ServerConfig::default()
    }
    .start()
    .expect("bind loopback");
    let replay = handle.ingest_replay().clone();
    assert_eq!(replay.points, FleetSpec::reference().total_points());
    assert_eq!(replay.truncated_bytes, 0);
    let mut client = monityre_serve::Client::connect(handle.addr()).expect("connect");
    let response = client
        .request(&monityre_serve::Request::new(monityre_serve::Op::IngestState).with_id(1))
        .expect("state");
    let Some(monityre_serve::Payload::IngestState { vehicles, .. }) = response.ok else {
        panic!("unexpected state response: {response:?}");
    };
    assert_eq!(
        serde_json::to_string(&vehicles).expect("serialize"),
        serde_json::to_string(&live.ingest_state).expect("serialize"),
        "restart + replay must reproduce the golden fleet's window state"
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn golden_fleet_break_even_table_is_stable_and_complete() {
    let report = golden_run(&FleetRun::new(FleetSpec::reference()), None);
    let table = report.break_even_table();
    assert_eq!(table.len(), 6, "one row per reference vehicle");
    for (vehicle, kmh) in &table {
        let kmh = kmh.expect("palette scenarios always cross break-even");
        assert!(
            (5.0..200.0).contains(&kmh),
            "vehicle {vehicle}: break-even {kmh} outside the sweep range"
        );
    }
    // The axes must actually matter: vehicles with different draws land
    // on different break-evens (all-equal would mean the scenario wiring
    // is dead).
    let distinct: std::collections::BTreeSet<u64> = table
        .iter()
        .map(|(_, kmh)| kmh.unwrap().to_bits())
        .collect();
    assert!(distinct.len() > 1, "all vehicles broke even identically");
}

#[test]
fn optimize_search_is_deterministic_and_never_worse() {
    // One vehicle with the optimizer on: the searched best never loses
    // to the unoptimized baseline, and the whole report (search result
    // included) is byte-stable across fresh servers.
    let run = FleetRun::new(FleetSpec::reference().with_vehicles(1)).with_optimize(true);
    let first = golden_run(&run, None);
    let second = golden_run(&run, None);
    assert_eq!(first.canonical_json(), second.canonical_json());
    let outcome = &first.vehicles[0];
    let report = outcome.optimize.as_ref().expect("optimize ran");
    let baseline = report.baseline_kmh.expect("baseline crosses");
    let best = report.best_kmh.expect("best crosses");
    assert!(
        best <= baseline,
        "optimize returned a worse config: {best} > {baseline}"
    );
    assert_eq!(
        report.baseline_kmh, outcome.break_even_kmh,
        "the optimizer's baseline is the served break-even itself"
    );
}
