//! EXP-FAULTS — the price of resilience: the same loopback batch served
//! twice through the retrying client, once with the fault hooks inert
//! and once under an armed chaos plan (connection resets after the
//! evaluation ran, corrupted frames, worker panics). Every logical call
//! must still return the correct payload; the harness reports both
//! throughputs plus the per-pass fault, retry and replay tallies that
//! paid for the difference.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use monityre_bench::{expect, header, parse_args, record_bench, secs, BenchRow};
use monityre_faults::{FaultKind, FaultPlan};
use monityre_serve::{Op, Request, RetryPolicy, RetryingClient, ServerConfig};

/// Concurrent client connections.
const CLIENTS: usize = 4;
/// Requests each client sends during a timed pass.
const BATCH: usize = 48;
/// Server concurrent-evaluation limit (`ServerConfig::workers`).
const WORKERS: usize = 2;
/// Timed passes per server in the recording run.
const PASSES: usize = 7;
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
/// attempts, a jitter/idempotency seed of its own.
fn policy(seed: usize) -> RetryPolicy {
    RetryPolicy {
        attempts: 16,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(10),
        attempt_timeout: Duration::from_secs(5),
        overall_deadline: Duration::from_secs(60),
        jitter_seed: 0x2011 + seed as u64,
    }
}

/// Serves `CLIENTS × batch` requests through retrying clients and
/// returns `(requests per second, retries performed)`. Each `pass` seeds
/// its clients apart from every other pass, so a repeated pass mints
/// fresh idempotency keys instead of being answered from the server's
/// dedup map.
fn drive(addr: std::net::SocketAddr, batch: usize, pass: usize) -> (f64, u64) {
    let mut retries = 0;
    let elapsed = secs(|| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                thread::spawn(move || {
                    let mut client = RetryingClient::new(addr, policy(pass * CLIENTS + c));
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
        retries = clients
            .into_iter()
            .map(|client| client.join().expect("client thread"))
            .sum();
    });
    ((CLIENTS * batch) as f64 / elapsed, retries)
}

fn main() {
    let options = parse_args();
    header(
        "EXP-FAULTS",
        "resilient-client throughput under an armed fault plan",
    );
    let batch = if options.check { 8 } else { BATCH };
    let passes = if options.check { 1 } else { PASSES };
    let input = format!("{CLIENTS} retrying clients x {batch} breakeven reqs, {WORKERS} workers");

    // Clean passes: hooks compiled in but inert.
    let handle = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    }
    .start()
    .expect("bind loopback (clean)");
    let (mut clean_retries, mut pass) = (0, 0);
    let clean = BenchRow::sampled(
        "exp-faults-loopback.clean",
        "serve.retry",
        "req/s",
        &format!("{input}, no faults"),
        passes,
        || {
            pass += 1;
            let (rate, retries) = drive(handle.addr(), batch, pass);
            clean_retries += retries;
            rate
        },
    );
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

    // Faulty passes: same batch, same client, plan armed. Tight timings
    // so the time-shaped faults cost milliseconds, not the default
    // seconds. Each pass's tallies are the plan's and the server's
    // counters moved during it.
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
    let mut tallies = [Vec::new(), Vec::new(), Vec::new()];
    let faulty_input = format!("{input}, plan {PLAN}");
    let faulty = BenchRow::sampled(
        "exp-faults-loopback.faulty",
        "serve.retry",
        "req/s",
        &faulty_input,
        passes,
        || {
            let (injected, replays) = (plan.injected_total(), handle.stats().dedup_hits);
            pass += 1;
            let (rate, retries) = drive(handle.addr(), batch, pass);
            tallies[0].push((plan.injected_total() - injected) as f64);
            tallies[1].push(retries as f64);
            tallies[2].push((handle.stats().dedup_hits - replays) as f64);
            rate
        },
    );
    handle.shutdown();
    let [faults, retries, replays] = tallies;

    expect(
        options,
        "the clean pass never needed a retry",
        clean_retries == 0,
    );
    expect(
        options,
        "the armed plan actually fired",
        faults.iter().all(|&n| n > 0.0),
    );
    expect(
        options,
        "the faults forced retries and every call still succeeded",
        retries.iter().all(|&n| n > 0.0),
    );
    expect(
        options,
        "post-execution resets were replayed from the dedup map",
        plan.injected(FaultKind::ConnReset) == 0 || replays.iter().sum::<f64>() > 0.0,
    );
    if options.check {
        return; // never race concurrent test runs on BENCH_faults.json
    }
    let tally = |name: &str, values: Vec<f64>| {
        BenchRow::from_values(name, "serve.retry", "count", &faulty_input, values)
    };
    record_bench(
        "BENCH_faults.json",
        vec![
            clean,
            faulty,
            tally("exp-faults-loopback.faults", faults),
            tally("exp-faults-loopback.replays", replays),
            tally("exp-faults-loopback.retries", retries),
        ],
    );
}
