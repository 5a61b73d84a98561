//! Criterion bench: the ingest store's start-up path. `crc32_record`
//! checksums one 44-byte record payload (paid once per record on append
//! and again on every replay); `open_131072` reopens a 131072-point
//! history — 8 vehicles × 16384 points written in 512-point batches, the
//! shape of perfbench's telemetry-ingest history — which scans, CRCs and
//! folds every record into a fresh window engine.

use criterion::{criterion_group, criterion_main, Criterion};
use monityre_ingest::{crc32, synthetic_points, IngestConfig, Ingestor, RECORD_PAYLOAD_BYTES};

const VEHICLES: u64 = 8;
const POINTS_PER_VEHICLE: usize = 16_384;
const BATCH: usize = 512;

/// Writes the history into a fresh directory, timestamp-ordered across
/// vehicles as a live fleet writes it.
fn seed_history(dir: &std::path::Path) -> IngestConfig {
    let _ = std::fs::remove_dir_all(dir);
    let config = IngestConfig {
        dir: Some(dir.to_path_buf()),
        fsync: false,
        ..IngestConfig::default()
    };
    let mut history: Vec<_> = (0..VEHICLES)
        .flat_map(|v| synthetic_points(v, POINTS_PER_VEHICLE, 2011 + v, 1_000_000 + v))
        .collect();
    history.sort_by_key(|p| (p.ts_us, p.vehicle));
    let mut ingestor = Ingestor::open(config.clone()).expect("open history store");
    for batch in history.chunks(BATCH) {
        ingestor.ingest(batch, None).expect("append history");
    }
    config
}

fn bench_ingest(c: &mut Criterion) {
    let mut record = Vec::new();
    synthetic_points(3, 1, 2011, 1_000_000)[0].encode(&mut record);
    let payload: [u8; RECORD_PAYLOAD_BYTES] = record[8..].try_into().expect("44-byte payload");

    let dir = std::env::temp_dir().join(format!("monityre-bench-ingest-{}", std::process::id()));
    let config = seed_history(&dir);

    let mut group = c.benchmark_group("ingest");
    group.bench_function("crc32_record", |b| {
        b.iter(|| crc32(std::hint::black_box(&payload)));
    });
    group.bench_function("open_131072", |b| {
        b.iter(|| {
            let ingestor = Ingestor::open(config.clone()).expect("reopen");
            assert_eq!(
                ingestor.replay_report().points,
                VEHICLES * POINTS_PER_VEHICLE as u64
            );
            ingestor
        });
    });
    group.finish();
    std::fs::remove_dir_all(&dir).expect("remove history");
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
