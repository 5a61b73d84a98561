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
//!
//! The direct JSON reader (`Deserialize::read_json`, behind
//! `serde_json::from_str`) decodes exactly as the tree path does
//! (`from_value` of the parsed `Value`): the same value or the same error
//! message, on the same substituted trees with the rejected substitutions
//! kept, and on lines with repeated keys, unknown keys holding nested
//! JSON, truncations and flipped bytes.

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

/// `text` read by `T`'s direct reader alone, without the tree retry
/// `serde_json::from_str` makes on failure.
fn direct<T: Deserialize>(text: &str) -> Option<T> {
    let mut reader = serde::json::Reader::new(text);
    let value = T::read_json(&mut reader).ok()?;
    reader.end().ok().map(|()| value)
}

/// `serde_json::from_str::<T>` gives the tree oracle's value or its exact
/// error message, and the direct reader alone succeeds exactly when the
/// oracle does.
fn same_decode<T>(text: &str) -> Result<(), TestCaseError>
where
    T: Deserialize + PartialEq + std::fmt::Debug,
{
    let oracle = serde_json::from_str::<Value>(text)
        .and_then(|tree| T::from_value(&tree).map_err(serde_json::Error::from));
    let got = serde_json::from_str::<T>(text);
    prop_assert_eq!(
        got.as_ref().map_err(ToString::to_string),
        oracle.as_ref().map_err(ToString::to_string),
        "{}",
        text
    );
    let alone = direct::<T>(text);
    prop_assert_eq!(alone.as_ref(), oracle.as_ref().ok(), "{}", text);
    Ok(())
}

/// The node at `path`, if it is a node (not a key).
fn node_mut<'a>(value: &'a mut Value, path: &[Step]) -> Option<&'a mut Value> {
    match (path.split_first(), value) {
        (None, value) => Some(value),
        (Some((Step::Item(i), rest)), Value::Seq(items)) => node_mut(&mut items[*i], rest),
        (Some((Step::Value(i), rest)), Value::Map(entries)) => node_mut(&mut entries[*i].1, rest),
        _ => None,
    }
}

/// `tree` with every drawn substitution applied, accepted or not.
fn substituted(tree: &Value, picks: &[(usize, usize)]) -> Value {
    let edges = edge_values();
    let mut tree = tree.clone();
    for &(node, edge) in picks {
        let mut all = Vec::new();
        paths(&tree, &mut Vec::new(), &mut all);
        let path = all[node % all.len()].clone();
        replace(&mut tree, &path, &edges[edge % edges.len()]);
    }
    tree
}

/// The drawn map of `tree`, if it holds any.
fn map_at(tree: &mut Value, pick: usize) -> Option<&mut Vec<(String, Value)>> {
    let mut all = Vec::new();
    paths(tree, &mut Vec::new(), &mut all);
    let maps: Vec<Vec<Step>> = all
        .into_iter()
        .filter(|path| matches!(node_mut(tree, path), Some(Value::Map(_))))
        .collect();
    let path = maps.get(pick % maps.len().max(1))?;
    match node_mut(tree, path) {
        Some(Value::Map(entries)) => Some(entries),
        _ => None,
    }
}

/// A copy of a drawn entry, holding an edge value, inserted before or
/// after it in the same map: the first or a later copy may be mistyped.
fn with_repeated_key(tree: &Value, (map, at): (usize, usize), edge: usize) -> Option<Value> {
    let mut tree = tree.clone();
    let entries = map_at(&mut tree, map).filter(|entries| !entries.is_empty())?;
    let key = entries[at % entries.len()].0.clone();
    let edges = edge_values();
    entries.insert(
        at % (entries.len() + 1),
        (key, edges[edge % edges.len()].clone()),
    );
    Some(tree)
}

/// Nested JSON drawn from `bytes`: sequences and maps (with escape-heavy
/// keys) of edge values, at most four levels deep.
fn nested(bytes: &mut impl Iterator<Item = u8>, depth: usize) -> Value {
    let edges = edge_values();
    match bytes.next() {
        Some(b) if depth < 4 && b % 4 == 0 => {
            Value::Seq((0..b % 5).map(|_| nested(bytes, depth + 1)).collect())
        }
        Some(b) if depth < 4 && b % 4 == 1 => Value::Map(
            (0..b % 5)
                .map(|i| (format!("k{i}\"é\\"), nested(bytes, depth + 1)))
                .collect(),
        ),
        Some(b) => edges[usize::from(b) % edges.len()].clone(),
        None => Value::Null,
    }
}

fn render(tree: &Value) -> String {
    let mut text = String::new();
    tree.write_json(&mut text);
    text
}

/// The response lines the differential cases start from.
fn response_trees(base: usize, id: u64, failure: usize) -> [Value; 2] {
    let bases = payload_bases();
    let id = [None, Some(0), Some(u64::MAX), Some(42)][id as usize % 4];
    let code = monityre_serve::ErrorCode::ALL[failure % 6];
    [
        Response::success(id, bases[base % bases.len()].clone()).to_value(),
        Response::failure(id, code, "shed \"now\"\n").to_value(),
    ]
}

/// Every way a line is decoded, checked against the tree oracle.
fn decodes_like_the_tree<T>(
    tree: &Value,
    picks: &[(usize, usize)],
    at: (usize, usize),
    edge: usize,
    junk: &[u8],
) -> Result<(), TestCaseError>
where
    T: Deserialize + PartialEq + std::fmt::Debug,
{
    let tree = substituted(tree, picks);
    same_decode::<T>(&render(&tree))?;
    if let Some(repeated) = with_repeated_key(&tree, at, edge) {
        same_decode::<T>(&render(&repeated))?;
    }
    let mut unknown = tree;
    if let Some(entries) = map_at(&mut unknown, at.0) {
        let junk = nested(&mut junk.iter().copied(), 0);
        entries.insert(
            at.1 % (entries.len() + 1),
            ("zz_unknown_é".to_owned(), junk),
        );
        same_decode::<T>(&render(&unknown))?;
    }
    Ok(())
}

/// `text` with one byte replaced, when that leaves it UTF-8.
fn flipped(text: &str, at: usize, byte: u8) -> Option<String> {
    let mut bytes = text.as_bytes().to_vec();
    let at = at % bytes.len();
    bytes[at] = byte;
    String::from_utf8(bytes).ok()
}

#[test]
fn truncated_lines_decode_like_the_tree() {
    let mut lines: Vec<(String, bool)> = request_bases()
        .iter()
        .map(|request| (serde_json::to_string(request).unwrap(), true))
        .collect();
    for payload in payload_bases() {
        let line = serde_json::to_string(&Response::success(Some(1), payload.clone())).unwrap();
        if line.len() <= 4096 {
            lines.push((line, false));
        }
    }
    for (line, is_request) in &lines {
        for cut in (0..=line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            let text = &line[..cut];
            if *is_request {
                same_decode::<Request>(text).unwrap();
            } else {
                same_decode::<Response>(text).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    fn requests_decode_like_the_tree(
        op in 0usize..Op::ALL.len(),
        picks in picks(),
        at in (0usize..1_000_000, 0usize..1_000_000),
        edge in 0usize..1_000,
        junk in prop::collection::vec(0u8..=255, 0..24),
    ) {
        let tree = request_bases()[op].to_value();
        decodes_like_the_tree::<Request>(&tree, &picks, at, edge, &junk)?;
    }

    fn responses_decode_like_the_tree(
        base in 0usize..64,
        id in 0u64..4,
        failure in 0usize..6,
        picks in picks(),
        at in (0usize..1_000_000, 0usize..1_000_000),
        edge in 0usize..1_000,
        junk in prop::collection::vec(0u8..=255, 0..24),
    ) {
        for tree in response_trees(base, id, failure) {
            decodes_like_the_tree::<Response>(&tree, &picks, at, edge, &junk)?;
        }
    }

    fn flipped_bytes_decode_like_the_tree(
        op in 0usize..Op::ALL.len(),
        base in 0usize..64,
        at in 0usize..1_000_000,
        byte in 0u8..=255,
    ) {
        let request = serde_json::to_string(&request_bases()[op]).unwrap();
        if let Some(text) = flipped(&request, at, byte) {
            same_decode::<Request>(&text)?;
        }
        let [success, failure] = response_trees(base, 0, base);
        for tree in [success, failure] {
            if let Some(text) = flipped(&render(&tree), at, byte) {
                same_decode::<Response>(&text)?;
            }
        }
    }
}

/// A request line of `é`s in a field no type reads: the direct reader
/// steps over it with its syntax checked, and the tree path (taken on
/// any failure) decodes it. Both stay linear in the non-ASCII bytes; a
/// scanner that re-validated the rest of the input per byte would hold
/// the connection for minutes on this one line.
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
