//! EXP-INGEST — the recovery cost of the streaming-ingest pipeline: a
//! synthetic multi-vehicle telemetry stream is pushed through the full
//! append + sliding-window pipeline, then the segment directory is
//! reopened to time the startup replay that reconstructs the window
//! state after a crash. The replayed state must match the live run bit
//! for bit — the harness asserts it on every run, so the recorded replay
//! cost is always a *verified* recovery. Live ingest throughput is
//! measured end to end by perfbench's telemetry-ingest workload.

use monityre_bench::{expect, header, parse_args, record_bench, secs, BenchRow};
use monityre_ingest::{synthetic_points, IngestConfig, Ingestor, TelemetryPoint};

/// Vehicles interleaved in the stream.
const VEHICLES: usize = 8;
/// Points per ingested batch (one append + one fsync each).
const BATCH: usize = 512;
/// Sliding-window span: long enough to keep a few hundred points per
/// vehicle live at the synthetic 4 Hz per-vehicle rate.
const WINDOW_US: u64 = 60_000_000;
/// Timed replays in the recording run.
const REPLAYS: usize = 11;

/// A deterministic stream: `total` points across [`VEHICLES`] vehicles,
/// interleaved in timestamp order (the window engine's fast path).
fn stream(total: usize) -> Vec<TelemetryPoint> {
    let per_vehicle = total / VEHICLES;
    let mut lanes: Vec<Vec<TelemetryPoint>> = (0..VEHICLES)
        .map(|v| synthetic_points(v as u64, per_vehicle, 2011 + v as u64, 1_000_000))
        .collect();
    let mut merged = Vec::with_capacity(per_vehicle * VEHICLES);
    for i in 0..per_vehicle {
        for lane in &mut lanes {
            merged.push(lane[i]);
        }
    }
    merged
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("monityre-exp-ingest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let options = parse_args();
    header("EXP-INGEST", "streaming-ingest crash-recovery replay cost");

    let total = if options.check { 20_000 } else { 200_000 };
    let points = stream(total);
    let total = points.len(); // VEHICLES-divisible

    let dir = temp_dir("pipeline");
    let durable = IngestConfig {
        dir: Some(dir.clone()),
        window_us: WINDOW_US,
        ..IngestConfig::default()
    };
    let (live_state, live_alerts) = {
        let mut ingestor = Ingestor::open(durable.clone()).expect("open pipeline");
        for chunk in points.chunks(BATCH) {
            ingestor.ingest(chunk, None).expect("ingest");
        }
        let state = serde_json::to_string(&ingestor.state()).expect("serialize state");
        (state, ingestor.alerts_total())
    };

    // Crash recovery: reopen the directory and replay every durable
    // record into a fresh window engine.
    let replayed = Ingestor::open(durable.clone()).expect("replay");
    expect(
        options,
        "the pipeline tracked every vehicle",
        replayed.vehicles() == VEHICLES,
    );
    expect(
        options,
        "replay folded every durable point",
        replayed.replay_report().points == total as u64
            && replayed.replay_report().truncated_bytes == 0,
    );
    expect(
        options,
        "replayed window state is bit-identical to the live run",
        serde_json::to_string(&replayed.state()).expect("serialize state") == live_state,
    );
    expect(
        options,
        "replay reconstructed the alert history",
        replayed.alerts_total() == live_alerts,
    );
    drop(replayed);

    if !options.check {
        let row = BenchRow::sampled(
            "exp-ingest-stream.replay",
            "ingest.replay",
            "ms per 1M points",
            &format!("{total} pts in {BATCH}-pt batches, {VEHICLES} vehicles"),
            REPLAYS,
            || {
                let ms = 1e3 * secs(|| drop(Ingestor::open(durable.clone()).expect("replay")));
                ms * 1e6 / total as f64
            },
        );
        record_bench("BENCH_ingest.json", vec![row]);
    }
    std::fs::remove_dir_all(&dir).expect("cleanup pipeline dir");
}
