//! The crash-safe append-only segment store.
//!
//! Durable storage for telemetry records, generalizing the flight
//! recorder's in-memory ring into fixed-size on-disk segments:
//!
//! - **Segments** are files named `seg-NNNNNNNN.seg` holding framed
//!   records back to back. When the active segment reaches the
//!   configured size a new one is started (rotation); optionally the
//!   oldest segments beyond a retention count are deleted.
//! - **Appends are batched.** One `ingest` batch becomes one contiguous
//!   write followed by (at most) one `fsync` — the fsync batching the
//!   issue asks for. Records within a batch are never individually
//!   synced.
//! - **Crashes tear only the tail.** Appends never touch earlier bytes,
//!   so a `kill -9` can leave at most a partial batch at the end of the
//!   *active* segment. [`SegmentStore::open`] scans the last segment,
//!   truncates it to its longest valid record prefix, and the store is
//!   clean again. [`crate::Ingestor::open`] reads each segment once:
//!   its replay scan hands the store the active segment's valid prefix,
//!   so the store cuts the tail without decoding the segment again.
//!
//! Fault injection hooks ([`FaultKind::TornWrite`], [`FaultKind::ShortFsync`],
//! [`FaultKind::FailFsync`]) reproduce the crash artifacts
//! deterministically in-process: a torn write persists a prefix of the
//! batch and then poisons the store — modelling the writing process
//! dying mid-write — so the only way forward is the same
//! reopen-and-recover path a real crash takes; a failed fsync leaves the
//! batch's bytes in the file, so the store heals by cutting the segment
//! back to the batch start before reporting the batch uncommitted.
//! While poisoned the store refuses every append — including the
//! rotation that would otherwise start a fresh segment — because a
//! rotated-past torn tail would sit mid-history where replay stops
//! early and discards everything after it.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use monityre_faults::{FaultKind, FaultPlan};
use monityre_obs::names::{INGEST_APPEND, INGEST_FSYNC};
use serde::{Deserialize, Serialize};

use crate::point::{for_each_record, TelemetryPoint, RECORD_BYTES};

/// File extension of a segment.
const SEGMENT_EXT: &str = "seg";

/// The retention checkpoint: one JSON line per *pruned* segment,
/// carrying the point/alert tallies its records contributed before the
/// bytes were deleted. Replay folds the sums back into the totals so
/// `ingest_alerts` does not undercount after retention kicks in.
const TALLY_FILE: &str = "alerts.ckpt";

/// Default segment size: 8 MiB ≈ 160k records.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// Store construction parameters.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the segments (created if missing).
    pub dir: PathBuf,
    /// Rotation threshold: a segment at or above this many bytes is
    /// sealed and a new one started before the next batch.
    pub segment_bytes: u64,
    /// Whether to `fsync` once per appended batch. Disable only for
    /// benchmarks — without it a host crash can lose acknowledged
    /// batches (process crashes are still safe: the page cache survives).
    pub fsync: bool,
    /// Keep at most this many segments, deleting the oldest beyond it.
    /// `None` (the default) retains everything. **Caveat:** per-vehicle
    /// alert counters are path-dependent — replay after deletion only
    /// reproduces live state exactly if the deleted segments had fully
    /// left every window; retain generously relative to the window span.
    pub retain_segments: Option<usize>,
}

impl StoreConfig {
    /// A store in `dir` with default sizing: 8 MiB segments, fsync on,
    /// unbounded retention.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            fsync: true,
            retain_segments: None,
        }
    }
}

/// What startup recovery found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Valid records replayed, across all segments.
    pub points: u64,
    /// Segments scanned.
    pub segments: u64,
    /// Torn-tail bytes truncated from the active segment.
    pub truncated_bytes: u64,
    /// Whether scanning stopped before a segment's end on damage found
    /// *before* the active tail (mid-history corruption: everything from
    /// the damage onward is discarded from replay, conservatively).
    pub stopped_early: bool,
    /// Points recorded in segments retention has since deleted, folded
    /// back from the `alerts.ckpt` tally checkpoint (0 when retention never
    /// pruned).
    pub pruned_points: u64,
    /// Alert edges those pruned segments contributed.
    pub pruned_alerts: u64,
}

/// Point/alert tallies one segment's records contributed while live —
/// checkpointed when retention deletes the segment's bytes, so totals
/// survive the prune.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentTally {
    /// Segment index the tallies belong to.
    pub segment: u64,
    /// Points appended to the segment.
    pub points: u64,
    /// Deficit-alert edges those points triggered when first folded.
    pub alerts: u64,
}

/// Sums the retention checkpoint of `dir`: total points and alert edges
/// recorded in segments that retention has deleted. A missing file means
/// no segment was ever pruned. The sum is crash-consistent against the
/// prune protocol (line written + synced, *then* segment deleted):
///
/// - a torn or damaged trailing line is skipped, not an error — its
///   segment's bytes are then still on disk and replay folds them
///   directly;
/// - a valid line whose segment file still exists (writer died between
///   sync and delete) is skipped too, so the records are never counted
///   twice;
/// - duplicate lines for one segment (a retried prune) collapse to one.
///
/// # Errors
///
/// Propagates I/O errors reading an existing checkpoint file.
pub fn read_pruned_tallies(dir: &Path) -> io::Result<(u64, u64)> {
    let path = dir.join(TALLY_FILE);
    if !path.exists() {
        return Ok((0, 0));
    }
    let text = fs::read_to_string(&path)?;
    let mut by_segment: HashMap<u64, SegmentTally> = HashMap::new();
    for line in text.lines() {
        if let Ok(tally) = serde_json::from_str::<SegmentTally>(line) {
            if segment_path(dir, tally.segment).exists() {
                continue;
            }
            by_segment.insert(tally.segment, tally);
        }
    }
    let points = by_segment.values().map(|t| t.points).sum();
    let alerts = by_segment.values().map(|t| t.alerts).sum();
    Ok((points, alerts))
}

/// The append-only segment store.
#[derive(Debug)]
pub struct SegmentStore {
    config: StoreConfig,
    /// Active segment file handle; `None` after poisoning.
    active: Option<File>,
    /// Active segment path (for error messages and truncation).
    active_path: PathBuf,
    /// Active segment index (the `NNNNNNNN` in its name).
    active_index: u64,
    /// Bytes currently in the active segment.
    active_bytes: u64,
    /// Torn-tail bytes [`SegmentStore::open`] cut from the active
    /// segment — the durable evidence of a crash mid-batch.
    truncated_on_open: u64,
    /// Reusable encode buffer.
    buf: Vec<u8>,
    /// Per-segment point/alert tallies for segments still on disk,
    /// checkpointed to [`TALLY_FILE`] when retention deletes them. Fed
    /// by [`SegmentStore::note_batch`] (live) and
    /// [`SegmentStore::seed_tally`] (replay).
    tallies: HashMap<u64, SegmentTally>,
}

/// Lists the segment files of `dir`, ordered by index.
fn segment_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some(SEGMENT_EXT) {
            continue;
        }
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        if let Some(index) = stem
            .strip_prefix("seg-")
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            segments.push((index, path));
        }
    }
    segments.sort();
    Ok(segments)
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:08}.{SEGMENT_EXT}"))
}

/// The error every append returns once the store is poisoned. Several
/// paths poison (an injected torn write, a heal that failed to truncate,
/// a failed rotation sync), so the message stays neutral about the cause
/// — reopening recovers in all of them.
fn poisoned_error() -> io::Error {
    io::Error::other("segment store is poisoned after a failed write; reopen to recover")
}

/// Replays every valid record in `dir` (oldest segment first) through
/// `fold`, without opening the store for writing. This is the read side
/// of crash recovery: [`SegmentStore::open`] truncates the torn tail,
/// and callers fold the surviving records into a fresh
/// [`crate::WindowEngine`] to reconstruct state.
///
/// # Errors
///
/// Propagates I/O errors reading the directory or segments; damaged
/// record bytes are not an error — replay stops cleanly at the last
/// valid record of the damaged segment.
pub fn replay_dir(dir: &Path, mut fold: impl FnMut(&TelemetryPoint)) -> io::Result<ReplayReport> {
    let (mut report, active) = scan_dir(dir, |_, point| fold(point))?;
    if let Some(active) = active {
        report.truncated_bytes += active.len - active.valid;
    }
    Ok(report)
}

/// What a replay scan found in the last (active) segment: its index, its
/// length, and the bytes of its longest valid record prefix.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActiveScan {
    index: u64,
    len: u64,
    valid: u64,
}

/// The replay scan behind [`replay_dir`] and [`crate::Ingestor::open`]:
/// reads each segment once and folds its valid records, with the segment
/// index of each (the retention checkpoint's per-segment tallies need
/// it). The report leaves the active segment's torn tail out of
/// `truncated_bytes`; the scan of that segment comes back instead
/// (`None` when there is no segment, or when damage before the active
/// tail stopped the scan early), so [`SegmentStore::open_after_scan`]
/// can cut the tail without reading the segment again.
pub(crate) fn scan_dir(
    dir: &Path,
    mut fold: impl FnMut(u64, &TelemetryPoint),
) -> io::Result<(ReplayReport, Option<ActiveScan>)> {
    let mut report = ReplayReport::default();
    if !dir.exists() {
        return Ok((report, None));
    }
    let (pruned_points, pruned_alerts) = read_pruned_tallies(dir)?;
    report.pruned_points = pruned_points;
    report.pruned_alerts = pruned_alerts;
    let segments = segment_files(dir)?;
    let last = segments.len().saturating_sub(1);
    for (at, (index, path)) in segments.iter().enumerate() {
        let bytes = fs::read(path)?;
        report.segments += 1;
        let valid = for_each_record(&bytes, |point| fold(*index, point));
        report.points += (valid / RECORD_BYTES) as u64;
        if at == last {
            let scan = ActiveScan {
                index: *index,
                len: bytes.len() as u64,
                valid: valid as u64,
            };
            return Ok((report, Some(scan)));
        }
        if valid < bytes.len() {
            // Damage before the active tail is disk corruption, not a
            // crash artifact. Later segments were written after the
            // damaged records, so folding them would replay a different
            // order than the live run saw — stop instead.
            report.truncated_bytes += (bytes.len() - valid) as u64;
            report.stopped_early = true;
            return Ok((report, None));
        }
    }
    Ok((report, None))
}

impl SegmentStore {
    /// Opens (or creates) the store in `config.dir`, recovering from any
    /// torn tail: the last segment is truncated to its longest valid
    /// record prefix before the store accepts appends.
    ///
    /// # Errors
    ///
    /// Propagates directory/file I/O errors.
    pub fn open(config: StoreConfig) -> io::Result<Self> {
        Self::open_after_scan(config, None)
    }

    /// [`SegmentStore::open`] given replay's scan of the active segment:
    /// when `scan` covers the segment the store is about to append to,
    /// its valid prefix is trusted and the segment is not decoded again;
    /// otherwise the store scans the segment itself.
    pub(crate) fn open_after_scan(
        config: StoreConfig,
        scan: Option<ActiveScan>,
    ) -> io::Result<Self> {
        fs::create_dir_all(&config.dir)?;
        let segments = segment_files(&config.dir)?;
        let (active_index, active_path) = match segments.last() {
            Some((index, path)) => (*index, path.clone()),
            None => (0, segment_path(&config.dir, 0)),
        };
        let (len, valid) = match scan {
            Some(scan) if scan.index == active_index => (scan.len, scan.valid),
            _ if active_path.exists() => {
                let bytes = fs::read(&active_path)?;
                let valid = for_each_record(&bytes, |_| {});
                (bytes.len() as u64, valid as u64)
            }
            _ => (0, 0),
        };
        // Cut the torn tail, if any.
        if valid < len {
            let file = OpenOptions::new().write(true).open(&active_path)?;
            file.set_len(valid)?;
            file.sync_data()?;
        }
        let active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&active_path)?;
        Ok(Self {
            config,
            active: Some(active),
            active_path,
            active_index,
            active_bytes: valid,
            truncated_on_open: len - valid,
            buf: Vec::new(),
            tallies: HashMap::new(),
        })
    }

    /// Credits the batch just appended (and folded by the caller) to the
    /// active segment's tally. Call after a successful
    /// [`SegmentStore::append_batch`]: rotation happens *before* the
    /// write, so the whole batch landed in the current active segment.
    pub fn note_batch(&mut self, points: u64, alerts: u64) {
        let entry = self
            .tallies
            .entry(self.active_index)
            .or_insert(SegmentTally {
                segment: self.active_index,
                points: 0,
                alerts: 0,
            });
        entry.points += points;
        entry.alerts += alerts;
    }

    /// Seeds one segment's tally from startup replay, so a later prune
    /// checkpoints counts for records that predate this process.
    pub fn seed_tally(&mut self, segment: u64, points: u64, alerts: u64) {
        let entry = self.tallies.entry(segment).or_insert(SegmentTally {
            segment,
            points: 0,
            alerts: 0,
        });
        entry.points += points;
        entry.alerts += alerts;
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Bytes in the active segment (for tests and gauges).
    #[must_use]
    pub fn active_bytes(&self) -> u64 {
        self.active_bytes
    }

    /// Torn-tail bytes truncated during [`SegmentStore::open`] — zero
    /// after a clean shutdown, positive after a crash mid-batch.
    #[must_use]
    pub fn truncated_on_open(&self) -> u64 {
        self.truncated_on_open
    }

    /// Current segment count on disk.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures.
    pub fn segment_count(&self) -> io::Result<usize> {
        Ok(segment_files(&self.config.dir)?.len())
    }

    /// Appends a batch of points as one contiguous write with at most
    /// one fsync, rotating (and applying retention) first when the
    /// active segment is full.
    ///
    /// `faults` drives the storage fault kinds: a fired
    /// [`FaultKind::TornWrite`] persists only a prefix of the batch and
    /// poisons the store (every later append fails until reopen — the
    /// in-process analogue of the writer dying mid-batch); a fired
    /// [`FaultKind::ShortFsync`] skips the batch's sync; a fired
    /// [`FaultKind::FailFsync`] fails the sync after the write landed,
    /// exercising the heal-back-to-batch-start path.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, a poisoned-store error when a
    /// previous failure left the store unusable, or the injected fault's
    /// error itself.
    pub fn append_batch(
        &mut self,
        points: &[TelemetryPoint],
        faults: Option<&FaultPlan>,
    ) -> io::Result<()> {
        if points.is_empty() {
            return Ok(());
        }
        // The poison check must come BEFORE rotation: rotate() recreates
        // the active handle, and a poisoned store that rotated would ack
        // fresh batches into a new segment while a mid-record torn tail
        // sits in the sealed earlier one — exactly where replay stops
        // early and silently discards everything written after it.
        if self.active.is_none() {
            return Err(poisoned_error());
        }
        if self.active_bytes >= self.config.segment_bytes {
            self.rotate()?;
        }
        let file = self.active.as_mut().ok_or_else(poisoned_error)?;
        self.buf.clear();
        for point in points {
            point.encode(&mut self.buf);
        }
        let torn = faults.is_some_and(|plan| plan.decide(FaultKind::TornWrite));
        if torn {
            // Persist a strict prefix ending mid-record — the exact
            // artifact a crash leaves — then poison the store so the
            // "process" cannot keep writing past its own death.
            let cut = self.buf.len() - RECORD_BYTES / 2;
            file.write_all(&self.buf[..cut])?;
            file.sync_data()?;
            self.active_bytes += cut as u64;
            self.active = None;
            return Err(io::Error::other("injected torn write: batch tail lost"));
        }
        // A real span (not just a phase record) so the sampling profiler
        // can attribute wall time stuck in the write syscall.
        let append_span = monityre_obs::span(INGEST_APPEND);
        let wrote = file.write_all(&self.buf);
        drop(append_span);
        if let Err(error) = wrote {
            // A real short write may have torn the tail; try to cut the
            // segment back to the batch start so the store can continue.
            let healed = OpenOptions::new()
                .write(true)
                .open(&self.active_path)
                .and_then(|f| f.set_len(self.active_bytes));
            if healed.is_err() {
                self.active = None;
            }
            return Err(error);
        }
        let skip_sync = faults.is_some_and(|plan| plan.decide(FaultKind::ShortFsync));
        if self.config.fsync && !skip_sync {
            let fail_sync = faults.is_some_and(|plan| plan.decide(FaultKind::FailFsync));
            let synced = if fail_sync {
                Err(io::Error::other(
                    "injected fsync failure: batch durability unknown",
                ))
            } else {
                // Spanned for the profiler: time blocked on the disk's
                // flush shows up as the `ingest.fsync` phase.
                let _fsync_span = monityre_obs::span(INGEST_FSYNC);
                file.sync_data()
            };
            if let Err(error) = synced {
                // The batch's bytes are in the file but the caller will
                // be told the batch did not commit — cut the segment
                // back to the batch start so an idempotent retry cannot
                // append a second copy, and keep active_bytes honest
                // against the O_APPEND file length.
                let healed = OpenOptions::new()
                    .write(true)
                    .open(&self.active_path)
                    .and_then(|f| f.set_len(self.active_bytes));
                if healed.is_err() {
                    self.active = None;
                }
                return Err(error);
            }
        }
        self.active_bytes += self.buf.len() as u64;
        Ok(())
    }

    /// Seals the active segment and starts the next one, deleting the
    /// oldest segments beyond the retention bound.
    fn rotate(&mut self) -> io::Result<()> {
        if let Some(file) = self.active.take() {
            file.sync_data()?;
        }
        self.active_index += 1;
        self.active_path = segment_path(&self.config.dir, self.active_index);
        self.active = Some(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.active_path)?,
        );
        self.active_bytes = 0;
        if let Some(retain) = self.config.retain_segments {
            let segments = segment_files(&self.config.dir)?;
            if segments.len() > retain.max(1) {
                let pruned = &segments[..segments.len() - retain.max(1)];
                // Checkpoint the pruned segments' tallies BEFORE deleting
                // their bytes: one synced JSON line each, so replay can
                // fold the counts back in once the records are gone. The
                // write-then-delete order makes a crash in between
                // harmless — `read_pruned_tallies` skips lines whose
                // segment still exists.
                let with_tallies: Vec<SegmentTally> = pruned
                    .iter()
                    .filter_map(|(index, _)| self.tallies.get(index).copied())
                    .collect();
                if !with_tallies.is_empty() {
                    let mut ckpt = OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(self.config.dir.join(TALLY_FILE))?;
                    for tally in &with_tallies {
                        writeln!(
                            ckpt,
                            "{}",
                            serde_json::to_string(tally).map_err(io::Error::other)?
                        )?;
                    }
                    ckpt.sync_data()?;
                }
                for (index, path) in pruned {
                    fs::remove_file(path)?;
                    self.tallies.remove(index);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::synthetic_points;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("monityre-segment-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_replay_round_trips() {
        let dir = temp_dir("roundtrip");
        let points = synthetic_points(1, 64, 7, 0);
        {
            let mut store = SegmentStore::open(StoreConfig::new(&dir)).unwrap();
            for batch in points.chunks(10) {
                store.append_batch(batch, None).unwrap();
            }
        }
        let mut seen = Vec::new();
        let report = replay_dir(&dir, |p| seen.push(*p)).unwrap();
        assert_eq!(seen, points);
        assert_eq!(report.points, 64);
        assert_eq!(report.truncated_bytes, 0);
        assert!(!report.stopped_early);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_and_retention_prunes() {
        let dir = temp_dir("rotate");
        let mut config = StoreConfig::new(&dir);
        config.segment_bytes = 4 * RECORD_BYTES as u64;
        config.retain_segments = Some(2);
        let points = synthetic_points(1, 40, 7, 0);
        let mut store = SegmentStore::open(config).unwrap();
        for batch in points.chunks(4) {
            store.append_batch(batch, None).unwrap();
        }
        let count = store.segment_count().unwrap();
        assert!(count <= 3, "retention must prune, saw {count} segments");
        let report = replay_dir(&dir, |_| {}).unwrap();
        assert!(report.points < 40, "old segments must be gone");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        let points = synthetic_points(1, 8, 7, 0);
        {
            let mut store = SegmentStore::open(StoreConfig::new(&dir)).unwrap();
            store.append_batch(&points, None).unwrap();
        }
        // Tear the tail by hand: append garbage + cut mid-record.
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        bytes.truncate(bytes.len() - RECORD_BYTES / 3);
        bytes.extend_from_slice(&[0xde, 0xad]);
        fs::write(&seg, &bytes).unwrap();
        // Reopen: recovery truncates, appends continue cleanly.
        let more = synthetic_points(2, 4, 9, 0);
        {
            let mut store = SegmentStore::open(StoreConfig::new(&dir)).unwrap();
            assert_eq!(store.active_bytes(), 7 * RECORD_BYTES as u64);
            store.append_batch(&more, None).unwrap();
        }
        let mut seen = Vec::new();
        let report = replay_dir(&dir, |p| seen.push(*p)).unwrap();
        assert_eq!(report.points, 11);
        assert_eq!(&seen[..7], &points[..7]);
        assert_eq!(&seen[7..], &more[..]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_torn_write_poisons_until_reopen() {
        let dir = temp_dir("fault");
        let plan = FaultPlan::new(1).with_fault(FaultKind::TornWrite, 1.0);
        let points = synthetic_points(1, 6, 7, 0);
        let mut store = SegmentStore::open(StoreConfig::new(&dir)).unwrap();
        store.append_batch(&points[..2], None).unwrap();
        let err = store.append_batch(&points[2..], Some(&plan)).unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        // Poisoned: even a fault-free append now fails.
        assert!(store.append_batch(&points[..1], None).is_err());
        drop(store);
        // Reopen recovers exactly the pre-crash durable prefix: the two
        // clean records plus the torn batch's whole-record prefix.
        let store = SegmentStore::open(StoreConfig::new(&dir)).unwrap();
        let mut seen = Vec::new();
        let report = replay_dir(&dir, |p| seen.push(*p)).unwrap();
        assert_eq!(report.points, 5);
        assert_eq!(seen, points[..5].to_vec());
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poisoned_store_never_rotates_back_to_life() {
        let dir = temp_dir("poisonrotate");
        let mut config = StoreConfig::new(&dir);
        config.segment_bytes = 4 * RECORD_BYTES as u64;
        let points = synthetic_points(1, 12, 7, 0);
        let mut store = SegmentStore::open(config).unwrap();
        // Fill segment 0 to the rotation threshold.
        store.append_batch(&points[..4], None).unwrap();
        // The torn write lands in segment 1 (rotation happens first) and
        // leaves active_bytes past the threshold before poisoning — the
        // exact setup where a poison check placed after rotation would
        // resurrect the store on the next append.
        let plan = FaultPlan::new(1).with_fault(FaultKind::TornWrite, 1.0);
        let err = store.append_batch(&points[4..10], Some(&plan)).unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        let segments = store.segment_count().unwrap();
        for _ in 0..2 {
            let err = store.append_batch(&points[10..], None).unwrap_err();
            assert!(err.to_string().contains("poisoned"), "{err}");
        }
        assert_eq!(
            store.segment_count().unwrap(),
            segments,
            "a poisoned store must not rotate into a fresh segment"
        );
        drop(store);
        // Reopen cuts the torn tail; nothing ever landed beyond it, so
        // replay sees every acked record and no mid-history damage.
        let mut seen = Vec::new();
        let report = replay_dir(&dir, |p| seen.push(*p)).unwrap();
        assert!(!report.stopped_early);
        assert_eq!(report.points, 9);
        assert_eq!(seen, points[..9].to_vec());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_fsync_heals_to_batch_start() {
        let dir = temp_dir("failfsync");
        let plan = FaultPlan::new(1).with_fault(FaultKind::FailFsync, 1.0);
        let points = synthetic_points(1, 6, 7, 0);
        let mut store = SegmentStore::open(StoreConfig::new(&dir)).unwrap();
        store.append_batch(&points[..2], None).unwrap();
        let err = store.append_batch(&points[2..], Some(&plan)).unwrap_err();
        assert!(err.to_string().contains("fsync"), "{err}");
        assert_eq!(plan.injected(FaultKind::FailFsync), 1);
        // The failed batch's bytes were cut back out, so the store is
        // not poisoned and an idempotent retry lands exactly one copy.
        assert_eq!(store.active_bytes(), 2 * RECORD_BYTES as u64);
        store.append_batch(&points[2..], None).unwrap();
        drop(store);
        let mut seen = Vec::new();
        let report = replay_dir(&dir, |p| seen.push(*p)).unwrap();
        assert_eq!(report.points, 6);
        assert_eq!(
            report.truncated_bytes, 0,
            "no stray bytes past active_bytes"
        );
        assert_eq!(seen, points);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_fsync_skips_sync_but_keeps_data() {
        let dir = temp_dir("shortfsync");
        let plan = FaultPlan::new(1).with_fault(FaultKind::ShortFsync, 1.0);
        let points = synthetic_points(1, 4, 7, 0);
        let mut store = SegmentStore::open(StoreConfig::new(&dir)).unwrap();
        store.append_batch(&points, Some(&plan)).unwrap();
        assert_eq!(plan.injected(FaultKind::ShortFsync), 1);
        drop(store);
        let report = replay_dir(&dir, |_| {}).unwrap();
        assert_eq!(report.points, 4, "page cache still has the bytes");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_history_corruption_stops_replay_early() {
        let dir = temp_dir("midcorrupt");
        let mut config = StoreConfig::new(&dir);
        config.segment_bytes = 4 * RECORD_BYTES as u64;
        let points = synthetic_points(1, 16, 7, 0);
        {
            let mut store = SegmentStore::open(config).unwrap();
            for batch in points.chunks(4) {
                store.append_batch(batch, None).unwrap();
            }
        }
        // Flip a byte in the FIRST segment's second record.
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        bytes[RECORD_BYTES + 20] ^= 0xff;
        fs::write(&seg, &bytes).unwrap();
        let mut seen = 0u64;
        let report = replay_dir(&dir, |_| seen += 1).unwrap();
        assert!(report.stopped_early);
        assert_eq!(report.points, 1, "replay stops at the damage");
        assert_eq!(seen, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
