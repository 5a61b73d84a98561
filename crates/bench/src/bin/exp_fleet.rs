//! EXP-FLEET — end-to-end throughput of the deterministic K-vehicle
//! workload generator: a seeded fleet streams telemetry batches and
//! break-even requests at a loopback server through the retrying
//! client, serially and fanned out, and served `optimize` ops time the
//! break-even candidate search. Determinism is asserted on every run —
//! every fanned report must be byte-identical to the serial one — so the
//! recorded throughput always describes a *verified* golden fleet.

use monityre_bench::{expect, header, parse_args, record_bench, secs, BenchRow};
use monityre_fleet::{run_fleet, FleetReport, FleetRun, FleetSpec, FLEET_EVAL_STEPS};
use monityre_serve::{Client, Op, Payload, Request, ServerConfig};

/// Worker threads for the fanned passes.
const FAN_THREADS: usize = 4;
/// Timed fanned passes (and timed `optimize` ops) in the recording run.
const PASSES: usize = 5;

/// Streams `run` at a fresh loopback server and times it.
fn timed_run(run: &FleetRun) -> (f64, FleetReport) {
    let handle = ServerConfig::default().start().expect("bind loopback");
    let mut report = None;
    let elapsed = secs(|| report = Some(run_fleet(handle.addr(), run).expect("fleet run")));
    handle.shutdown();
    (elapsed, report.expect("the run reported"))
}

fn main() {
    let options = parse_args();
    header(
        "EXP-FLEET",
        "deterministic fleet streaming and optimize-search throughput",
    );

    let spec = if options.check {
        FleetSpec::reference()
    } else {
        FleetSpec::reference().with_vehicles(24).with_rounds(96)
    };
    let total = spec.total_points() as usize;

    let (_, serial) = timed_run(&FleetRun::new(spec.clone()));
    let fanned_run = FleetRun::new(spec.clone()).with_threads(FAN_THREADS);
    let (_, fanned) = timed_run(&fanned_run);

    expect(
        options,
        "the server accepted every generated point",
        serial.accepted_total() == spec.total_points(),
    );
    expect(
        options,
        "every vehicle crossed break-even in the swept range",
        serial.vehicles.iter().all(|v| v.break_even_kmh.is_some()),
    );
    let golden = serial.canonical_json();
    expect(
        options,
        "serial and fanned fleet reports are byte-identical",
        fanned.canonical_json() == golden,
    );

    // The optimize search, timed per served op (after an untimed first
    // op builds the candidate table): the worst-drawn vehicle's scenario
    // against the full candidate grid.
    let handle = ServerConfig::default().start().expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut request = Request::new(Op::Optimize).with_id(1);
    request.scenario = spec.vehicle(1).scenario_spec();
    request.params.steps = Some(FLEET_EVAL_STEPS);
    let mut serve_optimize = || {
        let response = client.request(&request).expect("optimize");
        let Some(Payload::Optimize(report)) = response.ok else {
            panic!("unexpected optimize response: {response:?}");
        };
        report
    };
    let report = serve_optimize();
    expect(
        options,
        "the optimizer never loses to its own baseline",
        match (report.baseline_kmh, report.best_kmh) {
            (Some(base), Some(best)) => best <= base,
            _ => false,
        },
    );

    if !options.check {
        let candidates = report.candidates as f64;
        let optimize = BenchRow::sampled(
            "exp-fleet-optimize",
            "core.optimizer",
            "candidates/s",
            &format!(
                "{} candidates, {FLEET_EVAL_STEPS} steps, 1 served op",
                report.candidates
            ),
            PASSES,
            || candidates / secs(|| drop(serve_optimize())),
        );
        let stream = BenchRow::sampled(
            "exp-fleet-stream",
            "fleet",
            "points/s",
            &format!(
                "{} vehicles x {} rounds = {total} pts, {FAN_THREADS} threads, fresh server per pass",
                spec.vehicles, spec.rounds
            ),
            PASSES,
            || {
                let (elapsed, report) = timed_run(&fanned_run);
                assert_eq!(report.canonical_json(), golden, "fanned report drifted");
                total as f64 / elapsed
            },
        );
        record_bench("BENCH_fleet.json", vec![optimize, stream]);
    }
    handle.shutdown();
}
