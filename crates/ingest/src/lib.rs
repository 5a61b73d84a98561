//! monityre-ingest: streaming telemetry ingestion.
//!
//! The paper's energy-balance analysis assumes continuous per-wheel-round
//! telemetry; this crate turns the one-shot evaluation stack into an
//! always-on monitoring pipeline:
//!
//! ```text
//!   ingest wire op ──▶ Ingestor ──▶ SegmentStore (durable, append-only)
//!                        │
//!                        └────────▶ WindowEngine (per-vehicle sliding
//!                                   window, deficit alerts)
//! ```
//!
//! The [`Ingestor`] is the transactional seam: each batch is appended to
//! the [`SegmentStore`] *first* and folded into the [`WindowEngine`]
//! second, under one caller-held lock, so the store's record order is
//! the canonical event order. After a crash, [`Ingestor::open`] replays
//! that order into a fresh engine and reconstructs the live window state
//! **bit-identically** — the window arithmetic is pure integer
//! nanojoules, so no float rounding history can diverge (see
//! [`window`]).
//!
//! Live ingest additionally emits observability: a flight-recorder
//! event per deficit-alert edge (linked to the current trace context, so
//! alerts carry trace-id exemplars) — replay emits none, since those
//! alerts already happened.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod point;
pub mod segment;
pub mod window;

use std::io;
use std::path::PathBuf;

use monityre_faults::FaultPlan;

pub use point::{
    crc32, decode_prefix, synthetic_points, DecodeError, TelemetryPoint, RECORD_BYTES,
    RECORD_PAYLOAD_BYTES,
};
pub use segment::{
    read_pruned_tallies, replay_dir, ReplayReport, SegmentStore, SegmentTally, StoreConfig,
    DEFAULT_SEGMENT_BYTES,
};
pub use window::{VehicleWindow, WindowEngine, DEFAULT_WINDOW_US};

/// The flight-recorder event-name prefix a live deficit-alert edge
/// emits (the shared cross-crate name, so serve-side assertions and the
/// emitter cannot drift apart).
pub use monityre_obs::names::INGEST_DEFICIT_EVENT as DEFICIT_EVENT;

/// Ingestor construction parameters.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Segment directory; `None` runs the ingestor purely in memory
    /// (no durability — the local-evaluation and bench "aggregation
    /// only" modes).
    pub dir: Option<PathBuf>,
    /// Sliding-window span, microseconds.
    pub window_us: u64,
    /// Segment rotation threshold, bytes.
    pub segment_bytes: u64,
    /// Whether the store fsyncs each batch.
    pub fsync: bool,
    /// Segment retention bound (see [`StoreConfig::retain_segments`]).
    pub retain_segments: Option<usize>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            dir: None,
            window_us: DEFAULT_WINDOW_US,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            fsync: true,
            retain_segments: None,
        }
    }
}

/// What one ingested batch did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IngestSummary {
    /// Points accepted from this batch.
    pub accepted: u64,
    /// Deficit-alert edges this batch triggered.
    pub alerts: u64,
    /// The vehicle behind each alert edge, in batch order (one entry per
    /// edge, so a vehicle oscillating within the batch appears twice) —
    /// the serving layer attributes each to its dominant ledger block.
    pub alerted: Vec<u64>,
}

/// The streaming ingestion pipeline: durable store + window engine.
#[derive(Debug)]
pub struct Ingestor {
    window: WindowEngine,
    store: Option<SegmentStore>,
    /// Points folded in since the store began (live + replayed).
    points_total: u64,
    /// Alert edges since the store began (live + replayed).
    alerts_total: u64,
    /// What startup replay found (all zeros for a fresh/in-memory store).
    replay: ReplayReport,
}

impl Ingestor {
    /// Opens the ingestor: when `config.dir` is set, replays every
    /// durable record through a fresh window engine — reconstructing the
    /// pre-crash aggregation state exactly — then recovers the segment
    /// store, truncating any torn tail. Each segment is read and decoded
    /// once: the store takes the active segment's valid prefix from the
    /// replay scan.
    ///
    /// # Errors
    ///
    /// Propagates store I/O errors.
    pub fn open(config: IngestConfig) -> io::Result<Self> {
        let mut window = WindowEngine::new(config.window_us);
        let mut points_total = 0u64;
        let mut alerts_total = 0u64;
        let (store, replay) = match &config.dir {
            Some(dir) => {
                let store_config = StoreConfig {
                    dir: dir.clone(),
                    segment_bytes: config.segment_bytes,
                    fsync: config.fsync,
                    retain_segments: config.retain_segments,
                };
                let mut per_segment: Vec<(u64, u64, u64)> = Vec::new();
                // The scan folds only each segment's valid record prefix,
                // so the torn tail the store cuts below never replays.
                let (mut replay, active) = segment::scan_dir(dir, |segment, point| {
                    points_total += 1;
                    let alert = u64::from(window.observe(point));
                    alerts_total += alert;
                    match per_segment.last_mut() {
                        Some(entry) if entry.0 == segment => {
                            entry.1 += 1;
                            entry.2 += alert;
                        }
                        _ => per_segment.push((segment, 1, alert)),
                    }
                })?;
                let mut store = SegmentStore::open_after_scan(store_config, active)?;
                // Seed the store's per-segment tallies so a later prune
                // checkpoints counts for records this process replayed
                // rather than wrote...
                for (segment, points, alerts) in per_segment {
                    store.seed_tally(segment, points, alerts);
                }
                // ...and fold the counts of segments already pruned by
                // earlier runs back into the running totals — retention
                // must not make `ingest_alerts` forget history.
                points_total += replay.pruned_points;
                alerts_total += replay.pruned_alerts;
                // The tail the store cut during recovery is part of the
                // crash story the report tells; the scan above left it
                // out, so it is counted once.
                replay.truncated_bytes += store.truncated_on_open();
                (Some(store), replay)
            }
            None => (None, ReplayReport::default()),
        };
        Ok(Self {
            window,
            store,
            points_total,
            alerts_total,
            replay,
        })
    }

    /// A purely in-memory ingestor (no store) with the given window.
    #[must_use]
    pub fn in_memory(window_us: u64) -> Self {
        Self {
            window: WindowEngine::new(window_us),
            store: None,
            points_total: 0,
            alerts_total: 0,
            replay: ReplayReport::default(),
        }
    }

    /// Ingests one batch: durable append first (when a store is
    /// configured), window fold second. Each live alert edge leaves an
    /// [`DEFICIT_EVENT`] flight-recorder event carrying the current
    /// trace context as its exemplar.
    ///
    /// # Errors
    ///
    /// Returns the store's append error — including injected torn
    /// writes — *without* folding the batch: a batch the store did not
    /// fully accept must not reach the window, or replay would
    /// reconstruct less state than live ingest saw.
    pub fn ingest(
        &mut self,
        points: &[TelemetryPoint],
        faults: Option<&FaultPlan>,
    ) -> io::Result<IngestSummary> {
        if let Some(store) = &mut self.store {
            store.append_batch(points, faults)?;
        }
        let mut summary = IngestSummary::default();
        for point in points {
            if self.window.observe(point) {
                summary.alerts += 1;
                summary.alerted.push(point.vehicle);
                monityre_obs::recorder::record_event(format!(
                    "{DEFICIT_EVENT}.vehicle.{}",
                    point.vehicle
                ));
            }
        }
        summary.accepted = points.len() as u64;
        if let Some(store) = &mut self.store {
            // Credit the batch to the active segment's retention
            // checkpoint tally (the append above rotated first, so the
            // whole batch sits in the current segment).
            store.note_batch(summary.accepted, summary.alerts);
        }
        self.points_total += summary.accepted;
        self.alerts_total += summary.alerts;
        Ok(summary)
    }

    /// The sliding-window span, microseconds.
    #[must_use]
    pub fn window_us(&self) -> u64 {
        self.window.window_us()
    }

    /// Every vehicle's window aggregate, ordered by vehicle id.
    #[must_use]
    pub fn state(&self) -> Vec<VehicleWindow> {
        self.window.snapshot()
    }

    /// One vehicle's window aggregate.
    #[must_use]
    pub fn state_of(&self, vehicle: u64) -> Option<VehicleWindow> {
        self.window.snapshot_of(vehicle)
    }

    /// Points folded since the store began (replayed + live).
    #[must_use]
    pub fn points_total(&self) -> u64 {
        self.points_total
    }

    /// Alert edges since the store began (replayed + live).
    #[must_use]
    pub fn alerts_total(&self) -> u64 {
        self.alerts_total
    }

    /// Vehicles currently tracked.
    #[must_use]
    pub fn vehicles(&self) -> usize {
        self.window.vehicles()
    }

    /// Points currently inside some window.
    #[must_use]
    pub fn points_in_window(&self) -> u64 {
        self.window.points_in_window()
    }

    /// What startup replay found.
    #[must_use]
    pub fn replay_report(&self) -> &ReplayReport {
        &self.replay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monityre_faults::FaultKind;
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("monityre-ingest-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn durable_config(dir: &std::path::Path) -> IngestConfig {
        IngestConfig {
            dir: Some(dir.to_path_buf()),
            window_us: 5_000_000,
            ..IngestConfig::default()
        }
    }

    #[test]
    fn reopen_reconstructs_state_bit_identically() {
        let dir = temp_dir("reopen");
        let points = synthetic_points(11, 400, 2011, 1_000_000);
        let live_state;
        let live_alerts;
        {
            let mut ingestor = Ingestor::open(durable_config(&dir)).unwrap();
            for batch in points.chunks(25) {
                ingestor.ingest(batch, None).unwrap();
            }
            live_state = serde_json::to_string(&ingestor.state()).unwrap();
            live_alerts = ingestor.alerts_total();
        }
        let reopened = Ingestor::open(durable_config(&dir)).unwrap();
        assert_eq!(reopened.replay_report().points, 400);
        assert_eq!(
            serde_json::to_string(&reopened.state()).unwrap(),
            live_state
        );
        assert_eq!(reopened.alerts_total(), live_alerts);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_crash_recovers_the_durable_prefix() {
        let dir = temp_dir("chaos");
        let plan = FaultPlan::new(3).with_fault(FaultKind::TornWrite, 1.0);
        let points = synthetic_points(5, 64, 77, 1_000_000);
        {
            let mut ingestor = Ingestor::open(durable_config(&dir)).unwrap();
            ingestor.ingest(&points[..32], None).unwrap();
            let err = ingestor.ingest(&points[32..], Some(&plan)).unwrap_err();
            assert!(err.to_string().contains("torn write"), "{err}");
            // The failed batch must not have reached the window.
            assert_eq!(ingestor.points_total(), 32);
            // The poisoned store rejects further ingest.
            assert!(ingestor.ingest(&points[..1], None).is_err());
        }
        // "Restart": reopen and compare against an uninterrupted run fed
        // exactly the durable records — whole-record prefix of the torn
        // batch included.
        let recovered = Ingestor::open(durable_config(&dir)).unwrap();
        assert!(recovered.replay_report().truncated_bytes > 0);
        let durable = recovered.replay_report().points as usize;
        assert!((32..64).contains(&durable), "durable {durable}");
        let mut reference = Ingestor::in_memory(5_000_000);
        reference.ingest(&points[..durable], None).unwrap();
        assert_eq!(
            serde_json::to_string(&recovered.state()).unwrap(),
            serde_json::to_string(&reference.state()).unwrap()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_checkpoint_preserves_totals_across_reopen() {
        let dir = temp_dir("retention");
        let config = || IngestConfig {
            dir: Some(dir.clone()),
            // Tiny windows + timestamp gaps: every point's window is
            // self-contained, so replaying only retained segments still
            // reconstructs live window state.
            window_us: 10,
            segment_bytes: 2 * RECORD_BYTES as u64,
            retain_segments: Some(1),
            ..IngestConfig::default()
        };
        // Every point is a fresh deficit entry → one alert edge each.
        let deficit = |i: u64| TelemetryPoint {
            vehicle: i,
            wheel: 0,
            round: i,
            // 1-based: a ts of 0 would sit at the saturated eviction
            // cutoff and leave the window immediately, alerting nothing.
            ts_us: (i + 1) * 1_000,
            harvested_nj: 1,
            consumed_nj: 10,
        };
        {
            let mut ingestor = Ingestor::open(config()).unwrap();
            for i in 0..20 {
                ingestor.ingest(&[deficit(i)], None).unwrap();
            }
            assert_eq!(ingestor.points_total(), 20);
            assert_eq!(ingestor.alerts_total(), 20);
        }
        // Retention pruned most segments, but the checkpoint folds their
        // counts back into the totals on replay.
        let reopened = Ingestor::open(config()).unwrap();
        let replay = reopened.replay_report().clone();
        assert!(replay.pruned_points > 0, "{replay:?}");
        assert_eq!(replay.pruned_alerts, replay.pruned_points, "{replay:?}");
        assert!(
            replay.points < 20,
            "pruned records must be gone: {replay:?}"
        );
        assert_eq!(replay.points + replay.pruned_points, 20, "{replay:?}");
        assert_eq!(reopened.points_total(), 20);
        assert_eq!(reopened.alerts_total(), 20);
        // Replay seeded the surviving segments' tallies, so a further
        // prune (driven by fresh ingest) checkpoints those too.
        let mut reopened = reopened;
        for i in 20..30 {
            reopened.ingest(&[deficit(i)], None).unwrap();
        }
        assert_eq!(reopened.points_total(), 30);
        drop(reopened);
        let third = Ingestor::open(config()).unwrap();
        assert_eq!(third.points_total(), 30);
        assert_eq!(third.alerts_total(), 30);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes 16 points of two vehicles in 4-point batches into 4-record
    /// segments: four segments, `seg-00000003` the active one.
    fn four_segment_dir(tag: &str) -> (PathBuf, IngestConfig) {
        let dir = temp_dir(tag);
        let config = IngestConfig {
            segment_bytes: 4 * RECORD_BYTES as u64,
            ..durable_config(&dir)
        };
        let mut points = synthetic_points(5, 8, 77, 1_000_000);
        points.extend(synthetic_points(6, 8, 78, 1_100_000));
        points.sort_by_key(|p| (p.ts_us, p.vehicle));
        let mut ingestor = Ingestor::open(config.clone()).unwrap();
        for batch in points.chunks(4) {
            ingestor.ingest(batch, None).unwrap();
        }
        (dir, config)
    }

    /// Cuts the active segment to three records plus a 20-byte torn tail.
    fn tear_active_tail(dir: &std::path::Path) {
        let active = dir.join("seg-00000003.seg");
        let mut bytes = fs::read(&active).unwrap();
        bytes.truncate(3 * RECORD_BYTES + 20);
        fs::write(&active, bytes).unwrap();
    }

    fn active_len(dir: &std::path::Path) -> u64 {
        fs::metadata(dir.join("seg-00000003.seg")).unwrap().len()
    }

    fn state_json(ingestor: &Ingestor) -> String {
        serde_json::to_string(&ingestor.state()).unwrap()
    }

    #[test]
    fn open_reports_clean_torn_and_corrupt_sealed_directories_exactly() {
        // Clean: every record replays, nothing is cut.
        let (dir, config) = four_segment_dir("pin-clean");
        let clean = Ingestor::open(config.clone()).unwrap();
        assert_eq!(
            *clean.replay_report(),
            ReplayReport {
                points: 16,
                segments: 4,
                ..ReplayReport::default()
            }
        );
        assert_eq!(active_len(&dir), 4 * RECORD_BYTES as u64);
        assert_eq!(clean.points_total(), 16);
        assert_eq!(clean.alerts_total(), 1);
        assert_eq!(
            state_json(&clean),
            "[{\"vehicle\":5,\"points\":8,\"harvested_j\":0.0083372,\
             \"consumed_j\":0.008,\"net_j\":0.0003372,\"in_deficit\":false,\
             \"alerts\":0,\"newest_ts_us\":2750000},\
             {\"vehicle\":6,\"points\":8,\"harvested_j\":0.008163476,\
             \"consumed_j\":0.008,\"net_j\":0.000163476,\"in_deficit\":false,\
             \"alerts\":1,\"newest_ts_us\":2850000}]"
        );
        drop(clean);
        fs::remove_dir_all(&dir).unwrap();

        // Torn active tail: the 20 stray bytes are cut once, on open.
        let (dir, config) = four_segment_dir("pin-torn");
        tear_active_tail(&dir);
        let torn = Ingestor::open(config.clone()).unwrap();
        assert_eq!(
            *torn.replay_report(),
            ReplayReport {
                points: 15,
                segments: 4,
                truncated_bytes: 20,
                ..ReplayReport::default()
            }
        );
        assert_eq!(active_len(&dir), 3 * RECORD_BYTES as u64);
        assert_eq!(torn.points_total(), 15);
        assert_eq!(torn.alerts_total(), 1);
        assert_eq!(
            state_json(&torn),
            "[{\"vehicle\":5,\"points\":8,\"harvested_j\":0.0083372,\
             \"consumed_j\":0.008,\"net_j\":0.0003372,\"in_deficit\":false,\
             \"alerts\":0,\"newest_ts_us\":2750000},\
             {\"vehicle\":6,\"points\":7,\"harvested_j\":0.007159023,\
             \"consumed_j\":0.007,\"net_j\":0.000159023,\"in_deficit\":false,\
             \"alerts\":1,\"newest_ts_us\":2600000}]"
        );
        drop(torn);
        // The cut is durable: a second open finds nothing to cut.
        let again = Ingestor::open(config).unwrap();
        assert_eq!(again.replay_report().truncated_bytes, 0);
        assert_eq!(again.replay_report().points, 15);
        drop(again);
        fs::remove_dir_all(&dir).unwrap();

        // A corrupt record mid-history in sealed segment 1, plus a torn
        // active tail: replay stops early inside segment 1 and never
        // reaches the active segment, whose tail the store still cuts.
        let (dir, config) = four_segment_dir("pin-corrupt");
        let sealed = dir.join("seg-00000001.seg");
        let mut bytes = fs::read(&sealed).unwrap();
        bytes[RECORD_BYTES + 20] ^= 0xff;
        fs::write(&sealed, bytes).unwrap();
        tear_active_tail(&dir);
        let corrupt = Ingestor::open(config.clone()).unwrap();
        assert_eq!(
            *corrupt.replay_report(),
            ReplayReport {
                points: 5,
                segments: 2,
                truncated_bytes: 3 * RECORD_BYTES as u64 + 20,
                stopped_early: true,
                ..ReplayReport::default()
            }
        );
        assert_eq!(active_len(&dir), 3 * RECORD_BYTES as u64);
        assert_eq!(corrupt.points_total(), 5);
        assert_eq!(corrupt.alerts_total(), 0);
        assert_eq!(
            state_json(&corrupt),
            "[{\"vehicle\":5,\"points\":3,\"harvested_j\":0.003154057,\
             \"consumed_j\":0.003,\"net_j\":0.000154057,\"in_deficit\":false,\
             \"alerts\":0,\"newest_ts_us\":1500000},\
             {\"vehicle\":6,\"points\":2,\"harvested_j\":0.00222322,\
             \"consumed_j\":0.002,\"net_j\":0.00022322,\"in_deficit\":false,\
             \"alerts\":0,\"newest_ts_us\":1350000}]"
        );
        drop(corrupt);
        // Sealed segments are never cut, so the mid-history damage is
        // reported again; the active tail was cut and is not.
        let again = Ingestor::open(config).unwrap();
        assert_eq!(
            *again.replay_report(),
            ReplayReport {
                points: 5,
                segments: 2,
                truncated_bytes: 3 * RECORD_BYTES as u64,
                stopped_early: true,
                ..ReplayReport::default()
            }
        );
        drop(again);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_ingestor_counts_alerts() {
        let mut ingestor = Ingestor::in_memory(DEFAULT_WINDOW_US);
        let deficit = TelemetryPoint {
            vehicle: 1,
            wheel: 0,
            round: 0,
            ts_us: 1,
            harvested_nj: 1,
            consumed_nj: 10,
        };
        let summary = ingestor.ingest(&[deficit], None).unwrap();
        assert_eq!(summary.accepted, 1);
        assert_eq!(summary.alerts, 1);
        assert_eq!(ingestor.alerts_total(), 1);
        assert!(ingestor.state_of(1).unwrap().in_deficit);
        assert_eq!(ingestor.vehicles(), 1);
    }
}
