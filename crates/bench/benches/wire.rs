//! Criterion bench: decoding request lines as the server does, through
//! `decode_request_line` — a 512-point telemetry-ingest batch, and a
//! small `breakeven` query.

use criterion::{criterion_group, criterion_main, Criterion};
use monityre_ingest::synthetic_points;
use monityre_serve::{decode_request_line, Op, Request};

fn line(request: &Request) -> String {
    serde_json::to_string(request).expect("serializes") + "\n"
}

fn bench_wire(c: &mut Criterion) {
    let mut ingest = Request::new(Op::Ingest).with_id(1).with_idem(7);
    ingest.params.points = Some(synthetic_points(3, 512, 2011, 1_000_000));
    let ingest = line(&ingest);
    let mut breakeven = Request::new(Op::Breakeven).with_id(2);
    breakeven.scenario.temp_c = Some(85.0);
    breakeven.params.steps = Some(196);
    let breakeven = line(&breakeven);

    let mut group = c.benchmark_group("wire");
    group.bench_function("decode_ingest_512", |b| {
        b.iter(|| std::hint::black_box(decode_request_line(ingest.as_bytes()).unwrap()));
    });
    group.bench_function("decode_breakeven", |b| {
        b.iter(|| std::hint::black_box(decode_request_line(breakeven.as_bytes()).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
