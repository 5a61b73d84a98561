//! Loopback integration tests: a real server on an ephemeral port, real
//! TCP clients, and the four serving guarantees — bit-identity,
//! backpressure, deadlines, graceful shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use monityre_core::{CacheCounts, SweepExecutor};
use monityre_serve::{
    evaluate, Client, ErrorCode, Op, Payload, Request, Response, ServerConfig, TraceContext,
    MAX_LINE_BYTES,
};

/// The workspace's pinned reference break-even (see
/// `crates/core/tests/sweep_determinism.rs`); a served result must carry
/// exactly this value.
const REFERENCE_BREAK_EVEN_KMH: f64 = 34.526_307_817_678_656;

fn start_default() -> monityre_serve::ServerHandle {
    ServerConfig::default().start().expect("bind loopback")
}

/// The response line the server must produce for `request`, built by
/// evaluating directly in-process and serializing through the same
/// serde_json.
fn expected_line(request: &Request) -> String {
    let payload = evaluate(request, &SweepExecutor::serial()).expect("direct evaluation");
    serde_json::to_string(&Response::success(request.id, payload)).expect("serialize")
}

#[test]
fn concurrent_clients_receive_bit_identical_payloads() {
    let handle = start_default();
    let addr = handle.addr();

    // A mixed batch; every client sends all of them.
    let mut sweep = Request::new(Op::Sweep).with_id(3);
    sweep.params.steps = Some(24);
    let mut montecarlo = Request::new(Op::Montecarlo).with_id(4);
    montecarlo.params.samples = Some(12);
    montecarlo.params.seed = Some(7);
    let requests = vec![
        Request::new(Op::Balance).with_id(1),
        Request::new(Op::Breakeven).with_id(2),
        sweep,
        montecarlo,
    ];
    let expected: Vec<String> = requests.iter().map(expected_line).collect();

    let clients: Vec<_> = (0..8)
        .map(|_| {
            let requests = requests.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                requests
                    .iter()
                    .map(|request| client.request_raw(request).expect("request"))
                    .collect::<Vec<String>>()
            })
        })
        .collect();

    for client in clients {
        let lines = client.join().expect("client thread");
        assert_eq!(
            lines, expected,
            "served bytes differ from direct evaluation"
        );
    }
    handle.shutdown();
}

#[test]
fn reference_break_even_is_pinned_through_the_wire() {
    let handle = start_default();
    let mut client = Client::connect(handle.addr()).expect("connect");
    // The same grid the pinned core test sweeps: 5..200 km/h, 196 steps.
    let mut request = Request::new(Op::Breakeven).with_id(11);
    request.params.from_kmh = Some(5.0);
    request.params.to_kmh = Some(200.0);
    request.params.steps = Some(196);
    let response = client.request(&request).expect("request");
    let Some(Payload::Breakeven { break_even_kmh }) = response.ok else {
        panic!("unexpected response: {response:?}");
    };
    assert_eq!(
        break_even_kmh.expect("curves cross").to_bits(),
        REFERENCE_BREAK_EVEN_KMH.to_bits(),
        "served break-even drifted from the pinned reference"
    );
    handle.shutdown();
}

/// Writes a request line without reading the response, so the job sits
/// in the server while we probe the queue from another connection.
fn fire_and_forget(addr: std::net::SocketAddr, request: &Request) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut line = serde_json::to_string(request).expect("serialize");
    line.push('\n');
    stream.write_all(line.as_bytes()).expect("write");
    stream.flush().expect("flush");
    stream
}

fn slow_sweep(id: u64) -> Request {
    let mut request = Request::new(Op::Sweep).with_id(id);
    request.params.steps = Some(400_000);
    request
}

/// Polls the server's exposition until `serve_queue_depth` reads
/// `depth`, failing after a generous bound instead of hanging.
fn wait_for_queue_depth(handle: &monityre_serve::ServerHandle, depth: usize) {
    let line = format!("monityre_serve_queue_depth {depth}");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !handle.prometheus_text().lines().any(|l| l == line) {
        assert!(
            Instant::now() < deadline,
            "queue depth never reached {depth}:\n{}",
            handle.prometheus_text()
        );
        thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn full_queue_sheds_with_structured_queue_full() {
    let handle = ServerConfig {
        workers: 1,
        threads: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    }
    .start()
    .expect("bind loopback");
    let addr = handle.addr();

    // Occupy the single worker, then the single queue slot: one sweep
    // runs while the other waits at the gate.
    let busy = fire_and_forget(addr, &slow_sweep(100));
    let queued = fire_and_forget(addr, &slow_sweep(101));
    wait_for_queue_depth(&handle, 1);

    // A burst against the full queue: every extra request is shed
    // immediately with `queue_full` — no blocking, no panic.
    let mut shed = 0;
    for i in 0..4 {
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let response = client
            .request(&Request::new(Op::Breakeven).with_id(200 + i))
            .expect("burst request must be answered promptly");
        if response.error_code() == Some(ErrorCode::QueueFull) {
            shed += 1;
        }
    }
    assert!(shed >= 1, "a burst against a size-1 queue must shed load");

    // The occupying jobs still complete normally.
    for stream in [busy, queued] {
        let mut client = Client::from_stream(stream).expect("wrap");
        client
            .set_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        let raw = client.recv_raw().expect("read pending response");
        let response: Response = serde_json::from_str(&raw).expect("parse");
        assert!(response.is_ok(), "occupying job failed: {response:?}");
    }
    let stats = handle.stats();
    assert_eq!(stats.rejected, shed, "stats must count each shed job once");
    handle.shutdown();
}

#[test]
fn tight_deadline_on_a_large_sweep_is_cancelled() {
    let handle = ServerConfig {
        workers: 1,
        threads: 1,
        ..ServerConfig::default()
    }
    .start()
    .expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let request = slow_sweep(31).with_deadline_ms(1);
    let response = client.request(&request).expect("request");
    assert_eq!(
        response.error_code(),
        Some(ErrorCode::DeadlineExceeded),
        "a 1 ms deadline on a 400k-point sweep must expire: {response:?}"
    );
    assert_eq!(
        handle.stats().timed_out,
        1,
        "one expired request, counted once"
    );
    handle.shutdown();
}

#[test]
fn shutdown_drains_in_flight_jobs() {
    let handle = ServerConfig {
        workers: 1,
        threads: 1,
        queue_capacity: 8,
        ..ServerConfig::default()
    }
    .start()
    .expect("bind loopback");
    let addr = handle.addr();

    // One job runs, one waits in the queue; both must be answered even
    // though shutdown arrives while they are in flight.
    let busy = fire_and_forget(addr, &slow_sweep(50));
    thread::sleep(Duration::from_millis(150));
    let queued = fire_and_forget(addr, &slow_sweep(51));
    thread::sleep(Duration::from_millis(50));

    let mut controller = Client::connect(addr).expect("connect");
    let ack = controller
        .request(&Request::new(Op::Shutdown).with_id(99))
        .expect("shutdown request");
    assert_eq!(ack.ok, Some(Payload::Draining), "{ack:?}");

    for (name, stream) in [("busy", busy), ("queued", queued)] {
        let mut client = Client::from_stream(stream).expect("wrap");
        client
            .set_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        let raw = client.recv_raw().expect("drained response");
        let response: Response = serde_json::from_str(&raw).expect("parse");
        assert!(
            response.is_ok(),
            "{name} job must be drained, got {response:?}"
        );
        assert_eq!(response.id, Some(if name == "busy" { 50 } else { 51 }));
    }

    // wait() returns only after every thread joined — the graceful exit.
    assert!(handle.is_shutting_down());
    handle.wait();

    // New connections are refused or reset once the listener is gone.
    assert!(
        Client::connect(addr).is_err() || {
            let mut late = Client::connect(addr).unwrap();
            late.set_timeout(Some(Duration::from_secs(2))).unwrap();
            late.request(&Request::new(Op::Ping)).is_err()
        }
    );
}

#[test]
fn malformed_and_invalid_requests_get_structured_errors() {
    let handle = start_default();
    let mut client = Client::connect(handle.addr()).expect("connect");

    let raw = client.send_line("this is not json").expect("send");
    let response: Response = serde_json::from_str(&raw).expect("parse");
    assert_eq!(response.error_code(), Some(ErrorCode::BadRequest));

    let raw = client.send_line(r#"{"op":"frobnicate"}"#).expect("send");
    let response: Response = serde_json::from_str(&raw).expect("parse");
    assert_eq!(response.error_code(), Some(ErrorCode::BadRequest));

    // Validation failures echo the request id.
    let raw = client
        .send_line(r#"{"op":"sweep","id":77,"params":{"steps":1}}"#)
        .expect("send");
    let response: Response = serde_json::from_str(&raw).expect("parse");
    assert_eq!(response.error_code(), Some(ErrorCode::BadRequest));
    assert_eq!(response.id, Some(77));

    // The connection survives all of the above.
    let pong = client.request(&Request::new(Op::Ping)).expect("ping");
    assert_eq!(pong.ok, Some(Payload::Pong));
    assert!(handle.stats().bad_requests >= 3);
    handle.shutdown();
}

/// Sends each raw line and reads the reply; a blank line gets none.
fn replies(stream: &mut TcpStream, lines: &[&[u8]]) -> Vec<String> {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    lines
        .iter()
        .filter_map(|line| {
            stream.write_all(line).expect("send");
            if line.iter().all(u8::is_ascii_whitespace) {
                return None;
            }
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reply");
            Some(reply)
        })
        .collect()
}

/// The exact bytes answering each kind of bad line. Recorded from a
/// server whose handler decoded lines on its own before the handler and
/// `decode_request_line` shared one decoder; they must never drift.
#[test]
fn bad_request_lines_are_answered_byte_for_byte() {
    let refused = |message: &str| {
        format!(
            "{{\"id\":null,\"ok\":null,\"error\":{{\"code\":\"bad_request\",\"message\":{}}}}}\n",
            serde_json::to_string(message).expect("serializes")
        )
    };
    let pong = |id: u64| format!("{{\"id\":{id},\"ok\":\"Pong\",\"error\":null}}\n");
    let handle = start_default();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let lines: [&[u8]; 12] = [
        b"\xff\xfe{\"op\":\"ping\"}\n",
        b"this is not json\n",
        b"{\"op\":\"frobnicate\",\"id\":5}\n",
        b"{\"op\":\"ping\",\"id\":\n",
        b"{\"op\":\"ping\"} x\n",
        b"{\"op\":\"sweep\",\"params\":{\"steps\":\"many\"}}\n",
        b"{\"op\":\"ingest\",\"params\":{\"points\":[{\"vehicle\":1}]}}\n",
        // A repeated key: the first copy wins, later ones only parse.
        b"{\"op\":\"ping\",\"op\":\"nope\",\"id\":3}\n",
        b"{\"op\":\"ping\",\"id\":4,\"id\":\"x\"}\n",
        b"{\"op\":\"ping\",\"id\":4,\"id\":[}\n",
        // A blank keep-alive line is not answered.
        b"  \r\n",
        b"{\"op\":\"ping\",\"id\":6}\r\n",
    ];
    let expected = [
        refused("request line is not UTF-8"),
        refused("request does not parse: invalid literal at offset 0"),
        refused("request does not parse: unknown operation `frobnicate`"),
        refused("request does not parse: unexpected end of input"),
        refused("request does not parse: trailing characters at offset 14"),
        refused("request does not parse: expected integer, got string"),
        refused("request does not parse: missing field `wheel` in `TelemetryPoint`"),
        pong(3),
        pong(4),
        refused("request does not parse: unexpected character `}` at offset 26"),
        pong(6),
    ];
    assert_eq!(replies(&mut stream, &lines), expected);

    // An oversize line is refused and the connection closed.
    let mut oversize = vec![b'x'; MAX_LINE_BYTES + 1];
    oversize.push(b'\n');
    let exceeds = refused("request line exceeds 1048576 bytes");
    assert_eq!(
        replies(&mut stream, &[&oversize]),
        std::slice::from_ref(&exceeds)
    );
    let mut rest = String::new();
    let mut reader = BufReader::new(&stream);
    assert_eq!(reader.read_line(&mut rest).expect("eof"), 0);

    // So is an unterminated one that ends the connection.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .write_all(&oversize[..=MAX_LINE_BYTES])
        .expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("reply");
    assert_eq!(reply, exceeds);
    assert!(handle.stats().bad_requests >= 10);
    handle.shutdown();
}

#[test]
fn stats_op_reports_counters_and_percentiles() {
    let handle = start_default();
    let mut client = Client::connect(handle.addr()).expect("connect");
    for i in 0..3 {
        let response = client
            .request(&Request::new(Op::Breakeven).with_id(i))
            .expect("request");
        assert!(response.is_ok());
    }
    let response = client
        .request(&Request::new(Op::Stats).with_id(9))
        .expect("stats");
    let Some(Payload::Stats(snapshot)) = response.ok else {
        panic!("unexpected stats response: {response:?}");
    };
    assert_eq!(snapshot.served, 3);
    assert_eq!(snapshot.rejected, 0);
    assert!(snapshot.p50_ms >= 0.0 && snapshot.p50_ms <= snapshot.p99_ms);
    // The three identical requests share one scenario cache entry.
    assert_eq!(snapshot.cache_misses, 1);
    assert_eq!(snapshot.cache_hits, 2);
    // The registry rebuild rides along: per-op latency series. The
    // repeated grid is evaluated afresh each time, so the per-speed memo
    // tallies stay zero.
    let breakeven = snapshot
        .ops
        .iter()
        .find(|op| op.op == "breakeven")
        .expect("breakeven latency series");
    assert_eq!(breakeven.count, 3);
    assert!(breakeven.p50_ms <= breakeven.p99_ms);
    assert_eq!(snapshot.eval_memo, CacheCounts::default());
    handle.shutdown();
}

/// Lockstep clients (one outstanding request per connection) that
/// outnumber the evaluation slots never overflow the waiting room, every
/// request counts as served, and identical scenarios share one cache
/// build.
#[test]
fn lockstep_clients_share_one_scenario_and_are_never_shed() {
    const CLIENTS: usize = 4;
    const BATCH: usize = 16;
    fn breakeven(id: u64) -> Request {
        let mut request = Request::new(Op::Breakeven).with_id(id);
        request.params.steps = Some(32);
        request
    }
    let handle = start_default();
    let addr = handle.addr();
    // Build the scenario once before the clients race for it.
    let warm = Client::connect(addr)
        .expect("connect")
        .request(&breakeven(0))
        .expect("warm-up");
    assert!(warm.is_ok(), "warm-up failed: {warm:?}");
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..BATCH {
                    let id = 1 + (c * BATCH + i) as u64;
                    let response = client.request(&breakeven(id)).expect("request");
                    assert!(response.is_ok(), "request {id} failed: {response:?}");
                    assert_eq!(response.id, Some(id));
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    let total = (CLIENTS * BATCH) as u64;
    let stats = handle.stats();
    assert_eq!(stats.served, total + 1, "served counts every request");
    assert_eq!(
        (stats.rejected, stats.timed_out),
        (0, 0),
        "lockstep clients never overflow the queue"
    );
    assert_eq!(
        (stats.cache_misses, stats.cache_hits),
        (1, total),
        "the warm cache absorbed the identical scenarios"
    );
    handle.shutdown();
}

#[test]
fn stats_snapshots_are_monotonic_across_requests() {
    let handle = start_default();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let stats_of = |client: &mut Client| -> monityre_serve::StatsSnapshot {
        let response = client.request(&Request::new(Op::Stats)).expect("stats");
        let Some(Payload::Stats(snapshot)) = response.ok else {
            panic!("unexpected stats response: {response:?}");
        };
        snapshot
    };
    let mut previous = stats_of(&mut client);
    for i in 0..4 {
        if i == 2 {
            // Interleave a bad request so that counter moves too.
            let _ = client.send_line("not json").expect("send");
        }
        let response = client
            .request(&Request::new(Op::Breakeven).with_id(i))
            .expect("request");
        assert!(response.is_ok());
        let current = stats_of(&mut client);
        assert!(current.served >= previous.served, "served went backwards");
        assert!(current.served > previous.served, "served must advance");
        assert!(current.rejected >= previous.rejected);
        assert!(current.timed_out >= previous.timed_out);
        assert!(current.bad_requests >= previous.bad_requests);
        assert!(current.eval_failed >= previous.eval_failed);
        assert!(current.cache_hits >= previous.cache_hits);
        assert!(current.cache_misses >= previous.cache_misses);
        previous = current;
    }
    assert!(previous.bad_requests >= 1, "the bad line must be counted");
    handle.shutdown();
}

#[test]
fn metrics_op_serves_prometheus_text() {
    let handle = start_default();
    let mut client = Client::connect(handle.addr()).expect("connect");
    // A traced request, so the phase histograms carry its exemplar.
    let trace = TraceContext {
        trace_id: 0xe1,
        span_id: 1,
    };
    let response = client
        .request(&Request::new(Op::Breakeven).with_id(1).with_trace(trace))
        .expect("request");
    assert!(response.is_ok());
    let response = client
        .request(&Request::new(Op::Metrics).with_id(2))
        .expect("metrics");
    let Some(Payload::Metrics(text)) = response.ok else {
        panic!("unexpected metrics response: {response:?}");
    };
    assert!(!text.is_empty(), "exposition must not be empty");
    assert!(
        text.contains("# TYPE monityre_serve_served counter"),
        "{text}"
    );
    assert!(text.contains("monityre_serve_served 1"), "{text}");
    assert!(
        text.contains("monityre_serve_op_breakeven_seconds_count 1"),
        "{text}"
    );
    assert!(
        text.contains("monityre_serve_queue_wait_seconds_count"),
        "{text}"
    );
    assert!(text.contains("monityre_serve_queue_capacity"), "{text}");
    // Every non-comment line must parse as `name[{labels}] value`, with
    // an optional OpenMetrics exemplar suffix ` # {trace_id="…"} value`.
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (sample, exemplar) = line
            .split_once(" # ")
            .map_or((line, None), |(sample, exemplar)| (sample, Some(exemplar)));
        let fields: Vec<&str> = sample.split(' ').collect();
        assert_eq!(fields.len(), 2, "unparseable sample {line:?}");
        assert!(!fields[0].is_empty(), "metric name missing in {line:?}");
        assert!(
            fields[1].parse::<f64>().is_ok(),
            "unparseable sample value in {line:?}"
        );
        if let Some(exemplar) = exemplar {
            let (labels, value) = exemplar.split_once(' ').expect("exemplar value");
            assert!(labels.starts_with("{trace_id=\""), "{line:?}");
            assert!(value.parse::<f64>().is_ok(), "{line:?}");
        }
    }
    // The traced request's id is the exemplar on the execute and
    // queue-wait buckets, so a tail bucket points at a dump-able trace.
    for histogram in ["execute", "queue_wait"] {
        let bucket = format!("monityre_serve_{histogram}_seconds_bucket");
        assert!(
            text.lines().any(
                |l| l.starts_with(&bucket) && l.contains(" # {trace_id=\"00000000000000e1\"} ")
            ),
            "no exemplar on {bucket}:\n{text}"
        );
    }
    // The handle-side exposition agrees in shape.
    assert!(handle.prometheus_text().contains("monityre_serve_served 1"));
    handle.shutdown();
}

#[test]
fn scenario_overrides_travel_the_wire() {
    let handle = start_default();
    let mut client = Client::connect(handle.addr()).expect("connect");

    let mut reference = Request::new(Op::Breakeven).with_id(1);
    reference.params.steps = Some(96);
    let mut hot = reference.clone();
    hot.id = Some(2);
    hot.scenario.temp_c = Some(85.0);
    let mut big_chain = reference.clone();
    big_chain.id = Some(3);
    big_chain.scenario.chain_scale = Some(2.0);

    let mut kmh = |request: &Request| -> f64 {
        let response = client.request(request).expect("request");
        let Some(Payload::Breakeven { break_even_kmh }) = response.ok else {
            panic!("unexpected response: {response:?}");
        };
        break_even_kmh.expect("curves cross")
    };
    let base = kmh(&reference);
    assert!(kmh(&hot) > base, "heat must raise the break-even");
    assert!(
        kmh(&big_chain) < base,
        "a larger scavenger must lower the break-even"
    );
    handle.shutdown();
}

#[test]
fn sheet_ops_serve_the_shared_workbook() {
    let handle = start_default();
    let mut client = Client::connect(handle.addr()).expect("connect");

    // A read of the untouched workbook is byte-identical to evaluating
    // the same request in-process against a fresh reference workbook.
    let mut read = Request::new(Op::SheetEval).with_id(1);
    read.params.cell = Some("node.active_uw".to_owned());
    assert_eq!(
        client.request_raw(&read).expect("eval"),
        expected_line(&read)
    );

    // So is the first edit (the server's workbook is still pristine).
    let mut edit = Request::new(Op::SheetEdit).with_id(2);
    edit.params.cell = Some("what_if.base".to_owned());
    edit.params.value = Some(2.0);
    assert_eq!(
        client.request_raw(&edit).expect("edit"),
        expected_line(&edit)
    );

    // A formula over the new cell, then a dependent-triggering edit: the
    // recompute wave's counters travel in the payload.
    let mut formula = Request::new(Op::SheetEdit).with_id(3);
    formula.params.cell = Some("what_if.double".to_owned());
    formula.params.formula = Some("what_if.base * 2".to_owned());
    let response = client.request(&formula).expect("formula");
    let Some(Payload::SheetEdit { value, .. }) = response.ok else {
        panic!("unexpected response: {response:?}");
    };
    assert_eq!(value, 4.0);

    let mut bump = Request::new(Op::SheetEdit).with_id(4);
    bump.params.cell = Some("what_if.base".to_owned());
    bump.params.value = Some(3.0);
    let response = client.request(&bump).expect("bump");
    let Some(Payload::SheetEdit { evaluated, cut, .. }) = response.ok else {
        panic!("unexpected response: {response:?}");
    };
    assert_eq!((evaluated, cut), (1, 0), "one dependent recomputed");

    let mut read_double = Request::new(Op::SheetEval).with_id(5);
    read_double.params.cell = Some("what_if.double".to_owned());
    let response = client.request(&read_double).expect("read");
    let Some(Payload::SheetEval { value, .. }) = response.ok else {
        panic!("unexpected response: {response:?}");
    };
    assert_eq!(value, 6.0);

    // A bit-identical rewrite is a pure cutoff over the wire: zero
    // dependents recomputed.
    let mut noop = bump.clone();
    noop.id = Some(6);
    let response = client.request(&noop).expect("noop");
    let Some(Payload::SheetEdit {
        value,
        evaluated,
        cut,
        ..
    }) = response.ok
    else {
        panic!("unexpected response: {response:?}");
    };
    assert_eq!((value, evaluated, cut), (3.0, 0, 1));

    // Dedup replay: the same idempotency key answers byte-identically
    // without re-executing the (stateful!) edit.
    let mut keyed = Request::new(Op::SheetEdit).with_id(7).with_idem(0x5eed);
    keyed.params.cell = Some("what_if.base".to_owned());
    keyed.params.value = Some(9.5);
    let first = client.request_raw(&keyed).expect("keyed edit");
    let replay = client.request_raw(&keyed).expect("keyed replay");
    assert_eq!(first, replay, "replay must be byte-identical");
    assert!(handle.stats().dedup_hits >= 1);

    // Validation failures come back as structured bad_request errors.
    let no_cell = Request::new(Op::SheetEdit).with_id(8);
    let response = client.request(&no_cell).expect("bad edit");
    assert_eq!(response.error_code(), Some(ErrorCode::BadRequest));
    let mut both = Request::new(Op::SheetEdit).with_id(9);
    both.params.cell = Some("what_if.base".to_owned());
    both.params.value = Some(1.0);
    both.params.formula = Some("1 + 1".to_owned());
    let response = client.request(&both).expect("ambiguous edit");
    assert_eq!(response.error_code(), Some(ErrorCode::BadRequest));

    // The sheet metrics are live in the Prometheus exposition.
    let text = handle.prometheus_text();
    assert!(text.contains("monityre_sheet_cells_cut"), "{text}");
    assert!(
        text.contains("monityre_sheet_recompute_seconds_count"),
        "{text}"
    );
    handle.shutdown();
}

/// The explain requests the byte-identity test sends: default speed,
/// explicit speeds either side of the break-even, and the extended axes
/// (lossy radio + aged supercap) travelling over the wire.
fn explain_requests() -> Vec<Request> {
    let mut slow = Request::new(Op::Explain).with_id(21);
    slow.params.speed_kmh = Some(12.5);
    let mut fast = Request::new(Op::Explain).with_id(22);
    fast.params.speed_kmh = Some(140.0);
    let mut axes = Request::new(Op::Explain).with_id(23);
    axes.params.speed_kmh = Some(60.0);
    axes.scenario.radio_loss_prob = Some(0.3);
    axes.scenario.radio_retries = Some(5);
    axes.scenario.age_years = Some(8.0);
    vec![Request::new(Op::Explain).with_id(20), slow, fast, axes]
}

#[test]
fn explain_is_byte_identical_across_threads_and_to_in_process() {
    let requests = explain_requests();
    // The in-process serial evaluation is the reference bytes; every
    // thread count must serve exactly those.
    let expected: Vec<String> = requests.iter().map(expected_line).collect();

    for threads in [1usize, 2, 4] {
        let handle = ServerConfig {
            threads,
            ..ServerConfig::default()
        }
        .start()
        .expect("bind loopback");
        let mut client = Client::connect(handle.addr()).expect("connect");
        for (request, want) in requests.iter().zip(&expected) {
            let raw = client.request_raw(request).expect("explain");
            assert_eq!(
                &raw, want,
                "explain bytes diverged at {threads} worker threads"
            );
        }
        handle.shutdown();
    }
}

/// A request evaluated while another connection is live gets fewer
/// executor threads. Monte Carlo and the optimizer answer the serial
/// bytes either way, and `serve.executor.narrowed` counts exactly the
/// narrowed requests.
#[test]
fn narrowed_requests_answer_the_serial_bytes() {
    let handle = ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    }
    .start()
    .expect("bind loopback");
    let requests = [
        Request::new(Op::Montecarlo).with_id(40),
        Request::new(Op::Optimize).with_id(41),
    ];
    let expected: Vec<String> = requests.iter().map(expected_line).collect();
    let served = |client: &mut Client| -> Vec<String> {
        requests
            .iter()
            .map(|request| client.request_raw(request).expect("request"))
            .collect()
    };
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(served(&mut client), expected, "one live connection");
    assert_eq!(handle.stats().executor_narrowed, 0);

    // A second connection, idle once its ping is answered, stays live.
    let mut idle = Client::connect(handle.addr()).expect("connect");
    assert!(idle.request(&Request::new(Op::Ping)).expect("ping").is_ok());
    assert_eq!(served(&mut client), expected, "two live connections");
    assert_eq!(handle.stats().executor_narrowed, 2);
    let text = handle.prometheus_text();
    assert!(
        text.contains("monityre_serve_executor_narrowed 2"),
        "{text}"
    );
    drop(idle);
    handle.shutdown();
}

#[test]
fn explained_ledgers_conserve_and_replay_through_dedup() {
    let handle = start_default();
    let mut client = Client::connect(handle.addr()).expect("connect");

    for request in explain_requests() {
        let response = client.request(&request).expect("explain");
        let Some(Payload::Explain(ledger)) = response.ok else {
            panic!("unexpected explain response: {response:?}");
        };
        assert!(ledger.conserved, "float-layer replay diverged: {ledger:?}");
        assert!(ledger.conservation_holds(), "{ledger:?}");
        assert!(!ledger.blocks.is_empty());
        assert_eq!(
            ledger.storage_delta_nj,
            ledger.harvested_nj - ledger.consumed_nj
        );
    }

    // Explain is queued like an evaluation, so an idempotency key must
    // replay the exact bytes without recomputing.
    let mut keyed = Request::new(Op::Explain).with_id(30).with_idem(0xd0e);
    keyed.params.speed_kmh = Some(45.0);
    let first = client.request_raw(&keyed).expect("keyed explain");
    let replay = client.request_raw(&keyed).expect("keyed replay");
    assert_eq!(first, replay, "dedup replay must be byte-identical");
    assert!(handle.stats().dedup_hits >= 1);

    // A non-positive speed is a structured validation error.
    let mut bad = Request::new(Op::Explain).with_id(31);
    bad.params.speed_kmh = Some(0.0);
    let response = client.request(&bad).expect("bad explain");
    assert_eq!(response.error_code(), Some(ErrorCode::BadRequest));
    handle.shutdown();
}
