//! EXP-SERVE — what the server's own instrumentation costs a client:
//! the same lockstep loopback batch (one outstanding warm-cache
//! `breakeven` per connection) timed with a wire trace context vs
//! without, and against a server running each continuous
//! self-observation thread vs a bare one. Each overhead is a paired
//! median recorded into `BENCH_obs.json`. Loopback throughput itself is
//! measured end to end by perfbench's query-hot workload.

use std::net::SocketAddr;

use monityre_bench::{
    expect, expect_timing, header, parse_args, record_overheads, secs, BenchRow, Pairing,
};
use monityre_serve::{Client, Op, Request, ServerConfig, ServerHandle, TraceContext};

/// Requests per timed batch.
const BATCH: usize = 256;
/// On/off pairs per row in the recording run.
const PAIRS: usize = 101;
/// Server concurrent-evaluation limit (`ServerConfig::workers`).
const WORKERS: usize = 2;

/// The benchmarked request: a small break-even sweep that hits the
/// shared scenario cache after the warm-up request.
fn breakeven(id: u64, traced: bool) -> Request {
    let mut request = Request::new(Op::Breakeven).with_id(id);
    request.params.steps = Some(32);
    if traced {
        request = request.with_trace(TraceContext::root(id));
    }
    request
}

/// A connection to `addr` whose server has already built the scenario.
fn warm_client(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    let response = client.request(&breakeven(0, false)).expect("warm-up");
    assert!(response.is_ok(), "warm-up failed: {response:?}");
    client
}

/// Requests per second of one lockstep batch over `client`.
fn lockstep_rate(client: &mut Client, batch: usize, traced: bool) -> f64 {
    batch as f64
        / secs(|| {
            for i in 0..batch {
                let id = 1 + i as u64;
                let response = client.request(&breakeven(id, traced)).expect("request");
                assert!(response.is_ok(), "request {id} failed: {response:?}");
            }
        })
}

fn start(scrape_interval_us: u64, profile_interval_us: u64) -> ServerHandle {
    ServerConfig {
        workers: WORKERS,
        scrape_interval_us,
        profile_interval_us,
        ..ServerConfig::default()
    }
    .start()
    .expect("bind loopback")
}

fn main() {
    let options = parse_args();
    header(
        "EXP-SERVE",
        "tracing and self-observation overhead of the batch evaluation server",
    );
    let batch = if options.check { 8 } else { BATCH };
    let pairs = if options.check { 3 } else { PAIRS };
    let defaults = ServerConfig::default();
    let input = |what: &str| format!("{batch} breakeven reqs (32 steps), 1 conn; {what}");

    // Tracing overhead: every request stamped with a wire trace context
    // (so the server installs it, links every phase span, and stamps
    // exemplars) vs the trace-less protocol, one connection per side.
    let handle = start(defaults.scrape_interval_us, defaults.profile_interval_us);
    let (mut traced, mut plain) = (warm_client(handle.addr()), warm_client(handle.addr()));
    let trace = BenchRow::paired(
        "serve-loopback-traced",
        "obs.trace",
        &input("traced vs untraced"),
        pairs,
        Pairing::OverheadPct,
        || lockstep_rate(&mut traced, batch, true),
        || lockstep_rate(&mut plain, batch, false),
    );
    handle.shutdown();

    // Continuous-self-observation overhead: the same batch against a
    // server whose observer thread is armed vs one with both observers
    // off. Each observer is measured alone so a regression names its
    // culprit. The scrape runs at 10 ms — 100× the production cadence —
    // and the profiler at its production ~100 Hz; both still have to
    // fit the 2 % budget.
    let mut rows = vec![trace];
    for (name, layer, scrape_us, profile_us) in [
        ("serve-self-scrape", "obs.timeseries", 10_000, 0),
        (
            "serve-profiler",
            "obs.profiler",
            0,
            defaults.profile_interval_us,
        ),
    ] {
        let (observed, bare) = (start(scrape_us, profile_us), start(0, 0));
        let (mut on, mut off) = (warm_client(observed.addr()), warm_client(bare.addr()));
        rows.push(BenchRow::paired(
            name,
            layer,
            &input("observed vs bare server"),
            pairs,
            Pairing::OverheadPct,
            || lockstep_rate(&mut on, batch, false),
            || lockstep_rate(&mut off, batch, false),
        ));
        if name == "serve-self-scrape" {
            // The armed server must actually have been self-scraping.
            expect(
                options,
                "the scrape loop filled the served counter's ring",
                observed.series("serve.served").is_some(),
            );
        }
        observed.shutdown();
        bare.shutdown();
    }

    if options.check {
        // Check mode is a functional smoke that runs concurrently with the
        // whole test suite on shared CPUs: the guards only screen out
        // catastrophic (order-of-magnitude) regressions and warn unless
        // MONITYRE_BENCH_STRICT=1; the release run enforces the real
        // budget (`record_overheads`).
        for row in &rows {
            expect_timing(
                options,
                &format!("{} overhead is within the noise guard (< 50 %)", row.name),
                row.median < 50.0,
            );
        }
        return; // never race concurrent test runs on the BENCH files
    }
    record_overheads("BENCH_obs.json", rows);
}
