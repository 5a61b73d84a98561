//! The wire codec's byte-level contracts.
//!
//! The direct JSON writer (`Serialize::write_json`) emits exactly the
//! bytes of the tree path (`to_value()` rendered by `Value::write_json`)
//! for every wire type. Each case starts from a real value — an in-process evaluation or a
//! live server's answer, one per `Payload` variant and one request per
//! operation — and overwrites a few nodes of its data tree with edge
//! values: NaN/±∞ (written `null`), `-0.0`, subnormals, `i64::MIN` /
//! `u64::MAX`, escape-heavy and non-ASCII strings (as values and as map
//! keys), and `null` (which turns an `Option` field into `None`, so
//! `skip_serializing_if` fields disappear). A substitution the type
//! refuses to deserialize is dropped. The typed value rebuilt from the
//! tree is then encoded both ways.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::thread;
use std::time::Duration;

use monityre_core::SweepExecutor;
use monityre_serve::{
    decode_request_line, decode_response_line, evaluate, Client, Op, Payload, Request, Response,
    ScenarioSpec, ServerConfig, TelemetryPoint, TraceContext, MAX_LINE_BYTES,
};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// Asserts that the direct writer, the tree path and `serde_json` agree.
fn same_bytes<T: Serialize>(value: &T) -> Result<(), TestCaseError> {
    let mut direct = String::new();
    value.write_json(&mut direct);
    let mut tree = String::new();
    value.to_value().write_json(&mut tree);
    prop_assert_eq!(&direct, &tree);
    prop_assert_eq!(&serde_json::to_string(value).expect("serializes"), &direct);
    Ok(())
}

/// Where a node sits in a data tree.
#[derive(Clone, Copy)]
enum Step {
    Item(usize),
    Value(usize),
    Key(usize),
}

/// Every node of `value` (subtrees included) and every map key.
fn paths(value: &Value, path: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match value {
        Value::Seq(items) => {
            for (i, item) in items.iter().enumerate() {
                path.push(Step::Item(i));
                paths(item, path, out);
                path.pop();
            }
        }
        Value::Map(entries) => {
            for (i, (_, item)) in entries.iter().enumerate() {
                path.push(Step::Key(i));
                out.push(path.clone());
                path.pop();
                path.push(Step::Value(i));
                paths(item, path, out);
                path.pop();
            }
        }
        _ => {}
    }
    out.push(path.clone());
}

/// Replaces the node (or, for a key, the key string) at `path`.
fn replace(value: &mut Value, path: &[Step], with: &Value) {
    match (path.split_first(), value) {
        (None, value) => *value = with.clone(),
        (Some((Step::Item(i), rest)), Value::Seq(items)) => replace(&mut items[*i], rest, with),
        (Some((Step::Value(i), rest)), Value::Map(entries)) => {
            replace(&mut entries[*i].1, rest, with);
        }
        (Some((Step::Key(i), _)), Value::Map(entries)) => {
            if let Value::Str(key) = with {
                entries[*i].0.clone_from(key);
            }
        }
        _ => unreachable!("paths come from the tree they index"),
    }
}

/// The substitutions a case draws from.
fn edge_values() -> Vec<Value> {
    let mut values: Vec<Value> = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        f64::MIN_POSITIVE / 3.0,
        f64::MAX,
        -f64::MAX,
        1e-300,
        1e21,
        0.1,
        -2.5e-7,
        34.526307817678656,
    ]
    .into_iter()
    .map(Value::Float)
    .collect();
    values.extend([i64::MIN, i64::MAX, -1, 0, 7].map(Value::Int));
    values.extend([u64::MAX, 1 << 63].map(Value::UInt));
    values.extend(
        [
            "",
            "plain",
            "\u{1f}",
            "\u{0}a\u{7f}",
            "quote \" and \\ backslash",
            "\n\r\t\u{8}\u{c}",
            "é🙂 中文",
            "/</script>",
        ]
        .map(|s| Value::Str(s.to_owned())),
    );
    values.extend([Value::Null, Value::Bool(true), Value::Seq(Vec::new())]);
    values
}

/// `base` with the drawn substitutions applied, keeping only those the
/// type accepts.
fn perturb<T: Serialize + Deserialize>(base: &T, picks: &[(usize, usize)]) -> T {
    let edges = edge_values();
    let mut tree = base.to_value();
    for &(node, edge) in picks {
        let mut all = Vec::new();
        paths(&tree, &mut Vec::new(), &mut all);
        let mut trial = tree.clone();
        replace(
            &mut trial,
            &all[node % all.len()],
            &edges[edge % edges.len()],
        );
        if T::from_value(&trial).is_ok() {
            tree = trial;
        }
    }
    T::from_value(&tree).expect("only accepted substitutions are kept")
}

fn points(n: u64) -> Vec<TelemetryPoint> {
    (0..n)
        .map(|i| TelemetryPoint {
            vehicle: i % 3,
            wheel: (i % 4) as u32,
            round: i,
            ts_us: 1_000 * i,
            harvested_nj: 500 + i,
            consumed_nj: 400 + 3 * i,
        })
        .collect()
}

/// One request per operation, every optional field set.
fn request_bases() -> Vec<Request> {
    Op::ALL
        .into_iter()
        .map(|op| {
            let mut request = Request::new(op)
                .with_id(7)
                .with_deadline_ms(5_000)
                .with_idem(11)
                .with_trace(TraceContext {
                    trace_id: 0xfeed,
                    span_id: 1,
                });
            request.scenario = ScenarioSpec {
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
            let p = &mut request.params;
            p.from_kmh = Some(5.0);
            p.to_kmh = Some(200.0);
            p.steps = Some(24);
            p.samples = Some(8);
            p.seed = Some(2011);
            p.cycle = Some("nedc".to_owned());
            p.repeat = Some(1);
            p.cap_mf = Some(47.0);
            p.cell = Some("what_if.base".to_owned());
            p.value = Some(2.0);
            p.formula = Some("what_if.base * 2".to_owned());
            p.points = Some(points(5));
            p.vehicle = Some(1);
            p.metric = Some("serve.served".to_owned());
            p.resolution = Some("1s".to_owned());
            p.range_s = Some(60);
            p.speed_kmh = Some(60.0);
            request
        })
        .collect()
}

/// One real payload per `Payload` variant.
fn payload_bases() -> &'static [Payload] {
    static BASES: OnceLock<Vec<Payload>> = OnceLock::new();
    BASES.get_or_init(|| {
        let executor = SweepExecutor::serial();
        let eval = |op: Op, edit: &dyn Fn(&mut Request)| {
            let mut request = Request::new(op);
            edit(&mut request);
            evaluate(&request, &executor).expect("reference evaluation succeeds")
        };
        let mut bases = vec![
            eval(Op::Balance, &|_| {}),
            eval(Op::Breakeven, &|_| {}),
            eval(Op::Sweep, &|r| r.params.steps = Some(16)),
            eval(Op::Montecarlo, &|r| r.params.samples = Some(4)),
            eval(Op::Emulate, &|_| {}),
            eval(Op::SheetEdit, &|r| {
                r.params.cell = Some("what_if.base".to_owned());
                r.params.value = Some(2.0);
            }),
            eval(Op::SheetEval, &|r| {
                r.params.cell = Some("node.active_uw".to_owned());
            }),
            eval(Op::Ingest, &|r| r.params.points = Some(points(6))),
            eval(Op::Optimize, &|r| r.params.steps = Some(8)),
            eval(Op::Explain, &|_| {}),
            Payload::Pong,
            Payload::Draining,
        ];

        // The rest come from a live server.
        let handle = ServerConfig {
            scrape_interval_us: 20_000,
            profile_interval_us: 1_000,
            ..ServerConfig::default()
        }
        .start()
        .expect("bind loopback");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let mut ask = |request: Request| {
            client
                .request(&request)
                .expect("request")
                .ok
                .expect("answered")
        };
        let mut ingest = Request::new(Op::Ingest);
        ingest.params.points = Some(points(12));
        ask(ingest);
        let mut series = Request::new(Op::Series);
        series.params.metric = Some("serve.served".to_owned());
        // Wait (without a deadline to assert) until the scrape loop has
        // sampled the counter, so the slice carries points.
        let mut slice = ask(series.clone());
        for _ in 0..250 {
            if matches!(&slice, Payload::Series(s) if s.points.len() >= 2) {
                break;
            }
            thread::sleep(Duration::from_millis(20));
            slice = ask(series.clone());
        }
        bases.extend([
            ask(Request::new(Op::IngestState)),
            ask(Request::new(Op::Stats)),
            ask(Request::new(Op::Metrics)),
            ask(Request::new(Op::Dump)),
            ask(Request::new(Op::Health)),
            ask(Request::new(Op::Profile)),
            slice,
        ]);
        drop(client);
        handle.shutdown();
        bases
    })
}

/// Checks the payload and, where it wraps one, the core report type on
/// its own.
fn check_payload(payload: &Payload) -> Result<(), TestCaseError> {
    same_bytes(payload)?;
    match payload {
        Payload::Stats(stats) => same_bytes(stats),
        Payload::Series(slice) => same_bytes(slice),
        Payload::Health(health) => same_bytes(health),
        Payload::Profile(table) => same_bytes(table),
        Payload::Optimize(report) => same_bytes(report),
        Payload::Explain(ledger) => same_bytes(ledger),
        Payload::Sweep { report, .. } => same_bytes(report),
        Payload::IngestState { vehicles, .. } => same_bytes(vehicles),
        _ => Ok(()),
    }
}

#[test]
fn bases_cover_every_payload_variant() {
    let mut names: Vec<String> = payload_bases()
        .iter()
        .map(|payload| match payload.to_value() {
            Value::Str(unit) => unit,
            Value::Map(entries) => entries[0].0.clone(),
            other => panic!("payloads are externally tagged, got {other:?}"),
        })
        .collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), 19, "{names:?}");
}

#[test]
fn edge_scalars_render_like_the_tree() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(serde_json::to_string(&x).unwrap(), "null");
    }
    assert_eq!(serde_json::to_string(&-0.0f64).unwrap(), "-0");
    assert_eq!(
        serde_json::to_string(&i64::MIN).unwrap(),
        "-9223372036854775808"
    );
    assert_eq!(
        serde_json::to_string(&u64::MAX).unwrap(),
        "18446744073709551615"
    );
    assert_eq!(
        serde_json::to_string("\u{1f}é\"").unwrap(),
        "\"\\u001fé\\\"\""
    );
    for value in edge_values() {
        let direct = match &value {
            Value::Float(x) => serde_json::to_string(x),
            Value::Int(n) => serde_json::to_string(n),
            Value::UInt(n) => serde_json::to_string(n),
            Value::Str(s) => serde_json::to_string(s),
            Value::Bool(b) => serde_json::to_string(b),
            _ => continue,
        };
        let mut tree = String::new();
        value.write_json(&mut tree);
        assert_eq!(direct.unwrap(), tree);
    }
}

#[test]
fn skipped_options_leave_no_trace() {
    let bare = ScenarioSpec::default();
    let key = bare.cache_key();
    assert!(!key.contains("radio_loss_prob") && !key.contains("age_years"));
    assert_eq!(
        key,
        "{\"temp_c\":null,\"supply_v\":null,\"corner\":null,\"samples_per_round\":null,\
         \"tx_period_rounds\":null,\"payload_bytes\":null,\"chain_scale\":null}"
    );
    let with_axes = ScenarioSpec {
        radio_loss_prob: Some(0.2),
        age_years: Some(6.0),
        ..ScenarioSpec::default()
    };
    assert!(with_axes
        .cache_key()
        .ends_with(",\"radio_loss_prob\":0.2,\"age_years\":6}"));
    let request = serde_json::to_string(&Request::new(Op::Ping)).unwrap();
    assert!(!request.contains("trace") && !request.contains("points"));
}

fn picks() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0usize..1_000_000, 0usize..1_000), 0..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    fn responses_write_like_the_tree(
        base in 0usize..64,
        picks in picks(),
        id in 0u64..4,
        failure in 0usize..4,
    ) {
        let bases = payload_bases();
        let payload = perturb(&bases[base % bases.len()], &picks);
        check_payload(&payload)?;
        let id = [None, Some(0), Some(u64::MAX), Some(42)][id as usize];
        same_bytes(&Response::success(id, payload))?;
        let code = monityre_serve::ErrorCode::ALL[failure % 6];
        let message = ["", "shed \"now\"\n", "é\u{1f}", "deadline"][failure];
        let failed = perturb(&Response::failure(id, code, message), &picks);
        same_bytes(&failed)?;
        if let Some(error) = &failed.error {
            same_bytes(error)?;
        }
    }

    fn requests_write_like_the_tree(op in 0usize..Op::ALL.len(), picks in picks()) {
        let request = perturb(&request_bases()[op], &picks);
        same_bytes(&request)?;
        same_bytes(&request.scenario)?;
        same_bytes(&request.params)?;
        for point in request.params.points.iter().flatten() {
            same_bytes(point)?;
        }
        // The warm-cache key is the spec's tree rendering, as it always was.
        let mut tree = String::new();
        request.scenario.to_value().write_json(&mut tree);
        prop_assert_eq!(request.scenario.cache_key(), tree);
    }
}

/// A request line of `é`s in a field no type reads: the decoder builds
/// the whole tree before the typed decode, so every string is decoded.
/// Decoding stays linear in the non-ASCII bytes; a decoder that
/// re-validated the rest of the input per byte would hold the
/// connection for minutes on this one line.
#[test]
fn long_multibyte_strings_in_unknown_fields_are_served() {
    let note = "é".repeat(256 * 1024);
    let line = format!("{{\"op\":\"ping\",\"id\":9,\"note\":\"{note}\"}}\n");
    assert!(line.len() >= 512 * 1024 && line.len() < MAX_LINE_BYTES);
    assert_eq!(
        decode_request_line(line.as_bytes()).expect("decodes"),
        Request::new(Op::Ping).with_id(9)
    );

    let handle = ServerConfig {
        scrape_interval_us: 0,
        profile_interval_us: 0,
        ..ServerConfig::default()
    }
    .start()
    .expect("bind loopback");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(line.as_bytes()).expect("send");
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("reply");
    let response = decode_response_line(reply.as_bytes()).expect("a response line");
    assert_eq!(response, Response::success(Some(9), Payload::Pong));

    // The same string round-trips as a value.
    let mut request = Request::new(Op::SheetEval);
    request.params.cell = Some(note.clone() + "\"🙂\\");
    let json = serde_json::to_string(&request).expect("serializes");
    assert_eq!(
        decode_request_line(json.as_bytes()).expect("decodes"),
        request
    );
    drop(stream);
    handle.shutdown();
}
