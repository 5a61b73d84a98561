//! Per-vehicle sliding-window energy balance.
//!
//! The engine folds [`TelemetryPoint`]s into one window per vehicle and
//! answers the paper's operational question — *is this vehicle above or
//! below break-even right now?* — continuously instead of per request. A
//! vehicle sits at break-even when its harvested energy covers its
//! consumption (the speed where that happens is the pinned
//! `34.526 km/h` reference the rest of the repo tests against); a
//! window whose harvested total drops strictly below its consumed total
//! is **in deficit**, and the not-deficit → deficit edge is an alert.
//!
//! Two properties make the engine replay-exact:
//!
//! 1. **Pure integer state.** Sums are `u128` nanojoules; additions and
//!    eviction subtractions cancel exactly, so state is a function of
//!    the point sequence alone, not of float rounding history.
//! 2. **Data-driven time.** The window's "now" is the newest timestamp
//!    seen per vehicle — never the wall clock — so replaying the store
//!    after a crash walks through the same eviction sequence the live
//!    run did.
//!
//! The engine performs no I/O and touches no observability state; the
//! [`crate::Ingestor`] wrapper owns side effects, which keeps replay
//! (state only) and live ingest (state + alerts + metrics) on one code
//! path.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::point::TelemetryPoint;

/// Default sliding-window span: one minute of telemetry.
pub const DEFAULT_WINDOW_US: u64 = 60_000_000;

/// Nanojoules per joule, as the one conversion constant reports use.
const NJ_PER_J: f64 = 1e9;

/// One vehicle's live window state.
#[derive(Debug, Default)]
struct VehicleState {
    /// In-window points, oldest first: `(ts_us, harvested_nj, consumed_nj)`.
    points: VecDeque<(u64, u64, u64)>,
    /// Running in-window harvested sum. `u128` cannot overflow: it bounds
    /// `len × u64::MAX`, and `len` never nears `2^64`.
    harvested_nj: u128,
    /// Running in-window consumed sum.
    consumed_nj: u128,
    /// Newest timestamp seen — the vehicle's data-driven "now".
    newest_ts_us: u64,
    /// Whether the window is currently below break-even.
    in_deficit: bool,
    /// How many not-deficit → deficit edges this vehicle has crossed.
    alerts: u64,
}

/// A vehicle's window aggregate, as reported on the wire.
///
/// Every field is a deterministic function of the integer window state,
/// so two engines that folded the same point sequence serialize to
/// byte-identical JSON — the property the crash drill asserts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VehicleWindow {
    /// Vehicle identifier.
    pub vehicle: u64,
    /// Points currently inside the window.
    pub points: u64,
    /// Windowed harvested energy, joules.
    pub harvested_j: f64,
    /// Windowed consumed energy, joules.
    pub consumed_j: f64,
    /// Windowed balance (harvested − consumed), joules; negative below
    /// break-even.
    pub net_j: f64,
    /// Whether the vehicle is currently in deficit.
    pub in_deficit: bool,
    /// Deficit-alert edges crossed since the store began.
    pub alerts: u64,
    /// The newest point timestamp folded in, microseconds.
    pub newest_ts_us: u64,
}

/// The windowed aggregation engine: one sliding window per vehicle.
#[derive(Debug)]
pub struct WindowEngine {
    window_us: u64,
    vehicles: BTreeMap<u64, VehicleState>,
}

impl WindowEngine {
    /// An empty engine with the given window span (microseconds; zero is
    /// clamped to one so "in window" stays well defined).
    #[must_use]
    pub fn new(window_us: u64) -> Self {
        Self {
            window_us: window_us.max(1),
            vehicles: BTreeMap::new(),
        }
    }

    /// The window span, microseconds.
    #[must_use]
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// Folds one point in. Returns `true` when the point pushes its
    /// vehicle across the not-deficit → deficit edge (a fresh alert).
    pub fn observe(&mut self, point: &TelemetryPoint) -> bool {
        let state = self.vehicles.entry(point.vehicle).or_default();
        // Keep the deque in timestamp order so front-eviction sees exactly
        // the expired prefix even when points arrive out of order. The
        // in-order common case appends in O(1); only a straggler pays the
        // binary search (which would return `len` for an in-order point).
        let entry = (point.ts_us, point.harvested_nj, point.consumed_nj);
        match state.points.back() {
            Some(&(back_ts, _, _)) if back_ts > point.ts_us => {
                let at = state
                    .points
                    .partition_point(|&(ts, _, _)| ts <= point.ts_us);
                state.points.insert(at, entry);
            }
            _ => state.points.push_back(entry),
        }
        state.harvested_nj += u128::from(point.harvested_nj);
        state.consumed_nj += u128::from(point.consumed_nj);
        state.newest_ts_us = state.newest_ts_us.max(point.ts_us);
        // Evict by data time: a point leaves once it trails the vehicle's
        // newest timestamp by the full window. Integer subtraction undoes
        // the earlier addition exactly.
        let cutoff = state.newest_ts_us.saturating_sub(self.window_us);
        while let Some(&(ts, harvested, consumed)) = state.points.front() {
            if ts > cutoff {
                break;
            }
            state.points.pop_front();
            state.harvested_nj -= u128::from(harvested);
            state.consumed_nj -= u128::from(consumed);
        }
        let deficit = state.harvested_nj < state.consumed_nj;
        let edge = deficit && !state.in_deficit;
        state.in_deficit = deficit;
        if edge {
            state.alerts += 1;
        }
        edge
    }

    /// The aggregate of one vehicle, if it has reported.
    #[must_use]
    pub fn snapshot_of(&self, vehicle: u64) -> Option<VehicleWindow> {
        self.vehicles
            .get(&vehicle)
            .map(|state| window_of(vehicle, state))
    }

    /// Every vehicle's aggregate, ordered by vehicle id.
    #[must_use]
    pub fn snapshot(&self) -> Vec<VehicleWindow> {
        self.vehicles
            .iter()
            .map(|(&vehicle, state)| window_of(vehicle, state))
            .collect()
    }

    /// How many vehicles have reported.
    #[must_use]
    pub fn vehicles(&self) -> usize {
        self.vehicles.len()
    }

    /// Total points currently held across all windows.
    #[must_use]
    pub fn points_in_window(&self) -> u64 {
        self.vehicles
            .values()
            .map(|state| state.points.len() as u64)
            .sum()
    }
}

fn window_of(vehicle: u64, state: &VehicleState) -> VehicleWindow {
    // i128 holds the full signed range of the u128 sums' difference for
    // any realistic window; convert once, at the report boundary.
    let net_nj = state.harvested_nj as i128 - state.consumed_nj as i128;
    VehicleWindow {
        vehicle,
        points: state.points.len() as u64,
        harvested_j: state.harvested_nj as f64 / NJ_PER_J,
        consumed_j: state.consumed_nj as f64 / NJ_PER_J,
        net_j: net_nj as f64 / NJ_PER_J,
        in_deficit: state.in_deficit,
        alerts: state.alerts,
        newest_ts_us: state.newest_ts_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn point(vehicle: u64, ts_us: u64, harvested: u64, consumed: u64) -> TelemetryPoint {
        TelemetryPoint {
            vehicle,
            wheel: 0,
            round: ts_us,
            ts_us,
            harvested_nj: harvested,
            consumed_nj: consumed,
        }
    }

    #[test]
    fn windows_are_per_vehicle() {
        let mut engine = WindowEngine::new(1_000_000);
        engine.observe(&point(1, 10, 5, 1));
        engine.observe(&point(2, 10, 1, 5));
        let snap = engine.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].vehicle, 1);
        assert!(!snap[0].in_deficit);
        assert!(snap[1].in_deficit);
        assert_eq!(engine.points_in_window(), 2);
    }

    #[test]
    fn eviction_follows_data_time() {
        let mut engine = WindowEngine::new(1_000_000);
        engine.observe(&point(1, 0, 100, 0));
        engine.observe(&point(1, 500_000, 100, 0));
        // ts 0 trails the new "now" (1_000_001) by the full window: out.
        engine.observe(&point(1, 1_000_001, 100, 0));
        let win = engine.snapshot_of(1).unwrap();
        assert_eq!(win.points, 2);
        assert_eq!(win.harvested_j, 200.0 / 1e9);
        assert_eq!(win.newest_ts_us, 1_000_001);
    }

    #[test]
    fn out_of_order_points_do_not_rewind_now() {
        let mut engine = WindowEngine::new(1_000_000);
        engine.observe(&point(1, 2_000_000, 10, 0));
        // A late straggler older than the cutoff sorts into the expired
        // prefix and is evicted immediately — "now" never moves backwards.
        engine.observe(&point(1, 100, 10, 0));
        let win = engine.snapshot_of(1).unwrap();
        assert_eq!(win.points, 1);
        assert_eq!(win.newest_ts_us, 2_000_000);
    }

    #[test]
    fn deficit_alert_fires_on_the_edge_only() {
        let mut engine = WindowEngine::new(10_000_000);
        assert!(!engine.observe(&point(1, 1, 10, 5)), "surplus: no alert");
        assert!(engine.observe(&point(1, 2, 0, 10)), "crossing: alert");
        assert!(!engine.observe(&point(1, 3, 0, 10)), "still down: no edge");
        assert!(!engine.observe(&point(1, 4, 100, 0)), "recovered");
        assert!(engine.observe(&point(1, 5, 0, 200)), "second crossing");
        assert_eq!(engine.snapshot_of(1).unwrap().alerts, 2);
    }

    #[test]
    fn same_sequence_same_snapshot() {
        let points: Vec<TelemetryPoint> = crate::point::synthetic_points(3, 500, 99, 1_000);
        let mut a = WindowEngine::new(2_000_000);
        let mut b = WindowEngine::new(2_000_000);
        for p in &points {
            a.observe(p);
        }
        for p in &points {
            b.observe(p);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(
            serde_json::to_string(&a.snapshot()).unwrap(),
            serde_json::to_string(&b.snapshot()).unwrap()
        );
    }

    /// The engine before its in-order fast path: every point goes
    /// through the binary-search insert. Returns the snapshot.
    fn insert_only_snapshot(window_us: u64, points: &[TelemetryPoint]) -> Vec<VehicleWindow> {
        let mut vehicles: BTreeMap<u64, VehicleState> = BTreeMap::new();
        for point in points {
            let state = vehicles.entry(point.vehicle).or_default();
            let at = state
                .points
                .partition_point(|&(ts, _, _)| ts <= point.ts_us);
            state
                .points
                .insert(at, (point.ts_us, point.harvested_nj, point.consumed_nj));
            state.harvested_nj += u128::from(point.harvested_nj);
            state.consumed_nj += u128::from(point.consumed_nj);
            state.newest_ts_us = state.newest_ts_us.max(point.ts_us);
            let cutoff = state.newest_ts_us.saturating_sub(window_us);
            while let Some(&(ts, harvested, consumed)) = state.points.front() {
                if ts > cutoff {
                    break;
                }
                state.points.pop_front();
                state.harvested_nj -= u128::from(harvested);
                state.consumed_nj -= u128::from(consumed);
            }
            let deficit = state.harvested_nj < state.consumed_nj;
            if deficit && !state.in_deficit {
                state.alerts += 1;
            }
            state.in_deficit = deficit;
        }
        vehicles
            .iter()
            .map(|(&vehicle, state)| window_of(vehicle, state))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Jittered, partly out-of-order streams (ties, stragglers older
        /// than the window, bursts ahead) fold to the same snapshot bytes
        /// with the fast path as through the insert-only reference.
        fn in_order_fast_path_matches_the_insert_only_reference(
            steps in prop::collection::vec(
                (0u64..3, 0u64..40, 0u64..4, 0u64..1_500, 0u64..1_500),
                1..200,
            ),
            window_us in 1u64..400,
        ) {
            let mut engine = WindowEngine::new(window_us);
            let mut points = Vec::new();
            let mut base = 0u64;
            for (i, &(vehicle, advance, shape, harvested, consumed)) in steps.iter().enumerate() {
                base += advance;
                // Shape 0 sends a straggler up to 276 µs late, 1 a tie
                // with the base clock, the rest an in-order point.
                let ts_us = match shape {
                    0 => base.saturating_sub(advance * 7 + 3),
                    1 => base,
                    _ => base + advance / 2,
                };
                let point = TelemetryPoint {
                    vehicle,
                    wheel: 0,
                    round: i as u64,
                    ts_us,
                    harvested_nj: harvested,
                    consumed_nj: consumed,
                };
                engine.observe(&point);
                points.push(point);
            }
            prop_assert_eq!(
                serde_json::to_string(&engine.snapshot()).unwrap(),
                serde_json::to_string(&insert_only_snapshot(engine.window_us(), &points)).unwrap()
            );
        }
    }
}
