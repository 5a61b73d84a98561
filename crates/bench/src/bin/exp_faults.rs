//! EXP-FAULTS — the price of resilience: the same loopback batch served
//! twice through the retrying client, once with the fault hooks inert
//! and once under an armed chaos plan (connection resets after the
//! evaluation ran, corrupted frames, worker panics). Every logical call
//! must still return the correct payload; the harness reports the
//! throughput cost plus the retry/replay telemetry that paid for it.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use monityre_bench::{expect, header, parse_args, record_bench, FaultsBenchResult};
use monityre_faults::{FaultKind, FaultPlan};
use monityre_serve::{Op, Request, RetryPolicy, RetryingClient, ServerConfig};

/// Concurrent client connections.
const CLIENTS: usize = 4;
/// Requests each client sends during a timed pass.
const BATCH: usize = 48;
/// Server concurrent-evaluation limit (`ServerConfig::workers`).
const WORKERS: usize = 2;
/// The armed plan of the faulty pass: every kind is client-detectable
/// and retryable, so the pass must converge to clean results.
const PLAN: &str = "2011:conn_reset=0.2,corrupt_frame=0.1,worker_panic=0.1";

/// The benchmarked request: a small break-even sweep on the warm cache.
fn breakeven(id: u64) -> Request {
    let mut request = Request::new(Op::Breakeven).with_id(id);
    request.params.steps = Some(32);
    request
}

/// A retry policy tuned for loopback chaos: cheap backoff, plenty of
/// attempts, per-client jitter/idempotency seed.
fn policy(client: usize) -> RetryPolicy {
    RetryPolicy {
        attempts: 16,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(10),
        attempt_timeout: Duration::from_secs(5),
        overall_deadline: Duration::from_secs(60),
        jitter_seed: 0x2011 + client as u64,
    }
}

/// Serves `CLIENTS × batch` requests through retrying clients and
/// returns `(requests per second, retries performed)`.
fn drive(addr: std::net::SocketAddr, batch: usize) -> (f64, u64) {
    let start = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || {
                let mut client = RetryingClient::new(addr, policy(c));
                for i in 0..batch {
                    let id = (c * batch + i) as u64;
                    let response = client.call(&breakeven(id)).expect("logical call");
                    assert!(response.is_ok(), "request {id} failed: {response:?}");
                    assert_eq!(response.id, Some(id));
                }
                client.retries_performed()
            })
        })
        .collect();
    let retries: u64 = clients
        .into_iter()
        .map(|client| client.join().expect("client thread"))
        .sum();
    let elapsed = start.elapsed().as_secs_f64();
    ((CLIENTS * batch) as f64 / elapsed, retries)
}

fn main() {
    let options = parse_args();
    header(
        "EXP-FAULTS",
        "resilient-client throughput under an armed fault plan",
    );
    let batch = if options.check { 8 } else { BATCH };

    // Clean pass: hooks compiled in but inert.
    let handle = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    }
    .start()
    .expect("bind loopback (clean)");
    let (clean_rps, clean_retries) = drive(handle.addr(), batch);
    handle.shutdown();

    // The plan injects worker panics on purpose; keep their backtraces
    // out of the harness output (real panics still print).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("injected worker panic"));
        if !injected {
            default_hook(info);
        }
    }));

    // Faulty pass: same batch, same client, plan armed. Tight timings so
    // the time-shaped faults cost milliseconds, not the default seconds.
    let plan = Arc::new(FaultPlan::parse(PLAN).expect("plan parses").with_timings(
        Duration::from_millis(2),
        Duration::from_millis(50),
        Duration::from_millis(1),
    ));
    let handle = ServerConfig {
        workers: WORKERS,
        faults: Some(Arc::clone(&plan)),
        ..ServerConfig::default()
    }
    .start()
    .expect("bind loopback (faulty)");
    let (faulty_rps, retries) = drive(handle.addr(), batch);
    let stats = handle.stats();
    handle.shutdown();

    let result = FaultsBenchResult {
        name: "exp-faults-loopback".to_owned(),
        plan: PLAN.to_owned(),
        clients: CLIENTS,
        batches: batch,
        workers: WORKERS,
        cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        clean_requests_per_sec: clean_rps,
        faulty_requests_per_sec: faulty_rps,
        faults_injected: plan.injected_total(),
        retries,
        dedup_hits: stats.dedup_hits,
    };

    expect(
        options,
        "the clean pass never needed a retry",
        clean_retries == 0,
    );
    expect(
        options,
        "the armed plan actually fired",
        result.faults_injected > 0,
    );
    expect(
        options,
        "the faults forced retries and every call still succeeded",
        result.retries > 0,
    );
    expect(
        options,
        "post-execution resets were replayed from the dedup map",
        plan.injected(FaultKind::ConnReset) == 0 || result.dedup_hits > 0,
    );
    expect(
        options,
        "throughput is positive in both passes",
        result.clean_requests_per_sec > 0.0 && result.faulty_requests_per_sec > 0.0,
    );
    if options.check {
        return; // never race concurrent test runs on BENCH_faults.json
    }
    record_bench(result);
}
