//! Declarative service-level objectives with multi-window burn-rate
//! alerting.
//!
//! An objective ([`SloSpec`]) names a budget — "p99 execute latency
//! below X", "error ratio below 0.1 %", "deficit alerts below N/s" —
//! and the engine ([`SloEngine`]) evaluates it against the time-series
//! rings ([`crate::SeriesStore`]) over **two** windows, the SRE-workbook
//! shape: a *fast* window (default 5 m) that notices a problem while it
//! is still happening, and a *slow* window (default 1 h) that confirms
//! it has been burning long enough to matter. The **burn rate** is
//! "observed badness ÷ budgeted badness" over a window: 1.0 means the
//! budget is being consumed exactly as fast as it accrues.
//!
//! State machine per objective:
//!
//! * `ok` — neither window burns (fast < 1);
//! * `warning` — the fast window burns (fast ≥ 1, slow < 1): the problem
//!   is live but not yet sustained;
//! * `page` — both windows burn (fast ≥ 1 and slow ≥ 1): live *and*
//!   sustained.
//!
//! Every transition leaves a flight-recorder event
//! (`slo.transition.<objective>.<from>_to_<to>[.trace.<id>]`, see
//! [`crate::names::SLO_TRANSITION_EVENT`]) carrying the newest exemplar
//! trace id of the objective's related histogram — the concrete request
//! to go look at. The aggregate [`HealthReport`] is the process's
//! readiness answer: `degraded` while any objective warns, `unhealthy`
//! while any pages.

use serde::{Deserialize, Serialize};

use crate::names::SLO_TRANSITION_EVENT;
use crate::registry::RegistrySnapshot;
use crate::timeseries::SeriesStore;

/// Default fast burn window: 5 minutes.
pub const DEFAULT_FAST_US: u64 = 300_000_000;
/// Default slow burn window: 1 hour.
pub const DEFAULT_SLOW_US: u64 = 3_600_000_000;

/// What one objective bounds.
#[derive(Debug, Clone, PartialEq)]
pub enum SloKind {
    /// A gauge series must stay below `threshold`; up to `tolerance`
    /// (fraction of window samples) may violate before the budget burns.
    /// E.g. `serve.execute.p99_us < 250_000` with tolerance 0.1.
    GaugeAbove {
        /// The gauge series name (often a derived histogram quantile).
        metric: String,
        /// The value a sample must stay below.
        threshold: f64,
        /// Violating-sample fraction budget, (0, 1].
        tolerance: f64,
    },
    /// Σ(bad counter deltas) / Σ(total counter deltas) must stay below
    /// `budget` over the window. E.g. errors / requests < 0.001.
    RatioAbove {
        /// Counter series summed as the numerator.
        bad: Vec<String>,
        /// Counter series summed as the denominator.
        total: Vec<String>,
        /// Bad fraction budget, (0, 1].
        budget: f64,
    },
    /// A counter's rate must stay below `max_per_sec`.
    RateAbove {
        /// The counter series name.
        metric: String,
        /// Events per second the budget allows.
        max_per_sec: f64,
    },
}

/// One declarative objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Short kebab-case objective name (appears in events and reports).
    pub name: String,
    /// What is bounded.
    pub kind: SloKind,
    /// Fast burn window, microseconds.
    pub fast_us: u64,
    /// Slow burn window, microseconds.
    pub slow_us: u64,
    /// Histogram whose newest exemplar trace id annotates transitions.
    pub exemplar_from: Option<String>,
}

impl SloSpec {
    /// An objective with the default 5 m / 1 h windows.
    #[must_use]
    pub fn new(name: impl Into<String>, kind: SloKind) -> Self {
        Self {
            name: name.into(),
            kind,
            fast_us: DEFAULT_FAST_US,
            slow_us: DEFAULT_SLOW_US,
            exemplar_from: None,
        }
    }

    /// Overrides both burn windows (tests use seconds-scale windows).
    #[must_use]
    pub fn with_windows(mut self, fast_us: u64, slow_us: u64) -> Self {
        self.fast_us = fast_us;
        self.slow_us = slow_us;
        self
    }

    /// Names the histogram whose exemplars annotate transitions.
    #[must_use]
    pub fn with_exemplar_from(mut self, histogram: impl Into<String>) -> Self {
        self.exemplar_from = Some(histogram.into());
        self
    }
}

/// Objective alert state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SloState {
    /// Neither window burns.
    #[default]
    Ok,
    /// The fast window burns: live, not yet sustained.
    Warning,
    /// Both windows burn: live and sustained.
    Page,
}

impl SloState {
    /// The wire/event spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warning => "warning",
            SloState::Page => "page",
        }
    }
}

/// One objective's evaluated health.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ObjectiveHealth {
    /// The objective name.
    pub name: String,
    /// `"ok"`, `"warning"` or `"page"`.
    pub state: String,
    /// Burn rate over the fast window (1.0 = budget consumed at accrual).
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// Newest exemplar trace id of the related histogram, when one exists.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub exemplar: Option<String>,
}

/// The process's aggregate readiness answer.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HealthReport {
    /// `"ok"`, `"degraded"` (some objective warns) or `"unhealthy"`
    /// (some objective pages).
    pub status: String,
    /// Per-objective detail.
    pub objectives: Vec<ObjectiveHealth>,
}

#[derive(Debug)]
struct Objective {
    spec: SloSpec,
    state: SloState,
}

/// Evaluates a set of objectives against the time-series rings.
#[derive(Debug)]
pub struct SloEngine {
    objectives: Vec<Objective>,
}

impl SloEngine {
    /// An engine over the given objectives.
    #[must_use]
    pub fn new(specs: Vec<SloSpec>) -> Self {
        Self {
            objectives: specs
                .into_iter()
                .map(|spec| Objective {
                    spec,
                    state: SloState::Ok,
                })
                .collect(),
        }
    }

    /// Evaluates every objective at `now_us` against `store`, emitting a
    /// flight-recorder event per state transition (annotated with the
    /// newest exemplar trace id found in `snapshot`'s related histogram).
    pub fn evaluate(
        &mut self,
        store: &SeriesStore,
        snapshot: &RegistrySnapshot,
        now_us: u64,
    ) -> HealthReport {
        let mut report = HealthReport {
            status: "ok".to_owned(),
            objectives: Vec::with_capacity(self.objectives.len()),
        };
        let mut worst = SloState::Ok;
        for objective in &mut self.objectives {
            let fast_burn = burn_rate(store, &objective.spec.kind, objective.spec.fast_us, now_us);
            let slow_burn = burn_rate(store, &objective.spec.kind, objective.spec.slow_us, now_us);
            let next = if fast_burn >= 1.0 && slow_burn >= 1.0 {
                SloState::Page
            } else if fast_burn >= 1.0 {
                SloState::Warning
            } else {
                SloState::Ok
            };
            let exemplar = objective
                .spec
                .exemplar_from
                .as_deref()
                .and_then(|name| newest_exemplar(snapshot, name));
            if next != objective.state {
                let mut event = format!(
                    "{SLO_TRANSITION_EVENT}.{}.{}_to_{}",
                    objective.spec.name,
                    objective.state.as_str(),
                    next.as_str()
                );
                if let Some(trace) = &exemplar {
                    event.push_str(".trace.");
                    event.push_str(trace);
                }
                crate::recorder::record_event(event);
                objective.state = next;
            }
            if state_rank(next) > state_rank(worst) {
                worst = next;
            }
            report.objectives.push(ObjectiveHealth {
                name: objective.spec.name.clone(),
                state: next.as_str().to_owned(),
                fast_burn,
                slow_burn,
                exemplar,
            });
        }
        report.status = match worst {
            SloState::Ok => "ok",
            SloState::Warning => "degraded",
            SloState::Page => "unhealthy",
        }
        .to_owned();
        report
    }
}

fn state_rank(state: SloState) -> u8 {
    match state {
        SloState::Ok => 0,
        SloState::Warning => 1,
        SloState::Page => 2,
    }
}

/// The newest (largest observed value) exemplar trace id of `histogram`.
fn newest_exemplar(snapshot: &RegistrySnapshot, histogram: &str) -> Option<String> {
    snapshot
        .histograms
        .iter()
        .find(|h| h.name == histogram)?
        .exemplars
        .as_ref()?
        .iter()
        .max_by_key(|e| e.value_us)
        .map(|e| e.trace_id.clone())
}

/// Burn rate of one objective over one window ending at `now_us`.
/// Windows with no (or too little) data burn 0 — absence of evidence is
/// not an alert.
fn burn_rate(store: &SeriesStore, kind: &SloKind, window_us: u64, now_us: u64) -> f64 {
    match kind {
        SloKind::GaugeAbove {
            metric,
            threshold,
            tolerance,
        } => {
            let Some(slice) = store.query(metric, None, Some(window_us), now_us) else {
                return 0.0;
            };
            let mut samples = 0u64;
            let mut violating = 0u64;
            for point in &slice.points {
                let Some(gauge) = point.gauge else { continue };
                samples += gauge.count;
                // A bucket's max bounds every sample in it; its min bounds
                // none. Count conservatively by the bucket's last sample,
                // scaled by the bucket's population when max violates.
                if gauge.max > *threshold {
                    // Upper-bound the violators by the bucket population
                    // when even the minimum violates; otherwise count one.
                    violating += if gauge.min > *threshold {
                        gauge.count
                    } else {
                        1
                    };
                }
            }
            if samples == 0 {
                return 0.0;
            }
            #[allow(clippy::cast_precision_loss)]
            let fraction = violating as f64 / samples as f64;
            fraction / tolerance.max(f64::MIN_POSITIVE)
        }
        SloKind::RatioAbove { bad, total, budget } => {
            let bad_delta: u64 = bad
                .iter()
                .map(|name| counter_delta(store, name, window_us, now_us))
                .sum();
            let total_delta: u64 = total
                .iter()
                .map(|name| counter_delta(store, name, window_us, now_us))
                .sum();
            if total_delta == 0 {
                return 0.0;
            }
            #[allow(clippy::cast_precision_loss)]
            let ratio = bad_delta as f64 / total_delta as f64;
            ratio / budget.max(f64::MIN_POSITIVE)
        }
        SloKind::RateAbove {
            metric,
            max_per_sec,
        } => {
            let delta = counter_delta(store, metric, window_us, now_us);
            if delta == 0 {
                return 0.0;
            }
            #[allow(clippy::cast_precision_loss)]
            let rate = delta as f64 / (window_us.max(1) as f64 / 1_000_000.0);
            rate / max_per_sec.max(f64::MIN_POSITIVE)
        }
    }
}

/// Last-minus-first cumulative value of a counter series over a window;
/// 0 when fewer than two buckets exist (no rate is observable yet).
fn counter_delta(store: &SeriesStore, metric: &str, window_us: u64, now_us: u64) -> u64 {
    let Some(slice) = store.query(metric, None, Some(window_us), now_us) else {
        return 0;
    };
    let mut first = None;
    let mut last = None;
    for point in &slice.points {
        let Some(value) = point.counter else { continue };
        if first.is_none() {
            first = Some(value);
        }
        last = Some(value);
    }
    match (first, last) {
        (Some(first), Some(last)) if slice.points.len() >= 2 => last.saturating_sub(first),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::{SampleValue, TierSpec};

    fn store() -> SeriesStore {
        SeriesStore::new(&[TierSpec {
            step_us: 1_000_000,
            slots: 600,
        }])
    }

    fn sec(n: u64) -> u64 {
        n * 1_000_000
    }

    #[test]
    fn error_ratio_burns_and_recovers() {
        let store = store();
        let snapshot = RegistrySnapshot::default();
        let spec = SloSpec::new(
            "error-ratio",
            SloKind::RatioAbove {
                bad: vec!["bad".into()],
                total: vec!["good".into(), "bad".into()],
                // A generous 10 % budget so the short storm below burns the
                // fast window (20 % bad) before the slow one (9.4 % bad) —
                // the warning stage is observable before the page.
                budget: 0.1,
            },
        )
        .with_windows(sec(10), sec(30));
        let mut engine = SloEngine::new(vec![spec]);

        // 20 clean seconds: ok.
        for t in 0..20u64 {
            store.record(sec(t), "good", SampleValue::Counter(t * 10));
            store.record(sec(t), "bad", SampleValue::Counter(0));
        }
        let report = engine.evaluate(&store, &snapshot, sec(19));
        assert_eq!(report.status, "ok");

        // A 5-second error storm: the fast window trips first.
        for t in 20..25u64 {
            store.record(sec(t), "good", SampleValue::Counter(200 + (t - 20) * 10));
            store.record(sec(t), "bad", SampleValue::Counter((t - 19) * 5));
        }
        let report = engine.evaluate(&store, &snapshot, sec(24));
        assert_eq!(report.status, "degraded", "{report:?}");
        assert_eq!(report.objectives[0].state, "warning");
        assert!(report.objectives[0].fast_burn >= 1.0);

        // Sustained: the slow window catches up and it pages.
        for t in 25..55u64 {
            store.record(sec(t), "good", SampleValue::Counter(250 + (t - 24) * 10));
            store.record(sec(t), "bad", SampleValue::Counter(25 + (t - 24) * 5));
        }
        let report = engine.evaluate(&store, &snapshot, sec(54));
        assert_eq!(report.status, "unhealthy", "{report:?}");
        assert_eq!(report.objectives[0].state, "page");

        // Recovery: errors stop, windows drain, state returns to ok.
        for t in 55..100u64 {
            store.record(sec(t), "good", SampleValue::Counter(550 + (t - 54) * 10));
            store.record(sec(t), "bad", SampleValue::Counter(175));
        }
        let report = engine.evaluate(&store, &snapshot, sec(99));
        assert_eq!(report.status, "ok", "{report:?}");
    }

    #[test]
    fn transitions_emit_flight_recorder_events() {
        let store = store();
        let snapshot = RegistrySnapshot::default();
        let spec = SloSpec::new(
            "deficit-rate",
            SloKind::RateAbove {
                metric: "alerts".into(),
                max_per_sec: 1.0,
            },
        )
        .with_windows(sec(5), sec(10));
        let mut engine = SloEngine::new(vec![spec]);
        for t in 0..10u64 {
            store.record(sec(t), "alerts", SampleValue::Counter(t * 50));
        }
        let report = engine.evaluate(&store, &snapshot, sec(9));
        assert_eq!(report.status, "unhealthy");
        let events: Vec<String> = crate::recorder::snapshot()
            .into_iter()
            .filter(|r| r.name.starts_with(SLO_TRANSITION_EVENT))
            .map(|r| r.name.into_owned())
            .collect();
        assert!(
            events.iter().any(|e| e.contains("deficit-rate.ok_to_page")),
            "{events:?}"
        );
    }

    #[test]
    fn latency_objective_reads_quantile_gauges_and_exemplars() {
        let store = store();
        let registry = crate::Registry::new();
        let hist = registry.histogram("slo.exec");
        hist.record_us_traced(900_000, 0xabcd);
        let snapshot = registry.snapshot();
        let spec = SloSpec::new(
            "exec-p99",
            SloKind::GaugeAbove {
                metric: "slo.exec.p99_us".into(),
                threshold: 250_000.0,
                tolerance: 0.1,
            },
        )
        .with_windows(sec(5), sec(10))
        .with_exemplar_from("slo.exec");
        let mut engine = SloEngine::new(vec![spec]);
        for t in 0..10u64 {
            store.record_snapshot(sec(t), &snapshot);
        }
        let report = engine.evaluate(&store, &snapshot, sec(9));
        assert_eq!(report.status, "unhealthy", "{report:?}");
        assert_eq!(
            report.objectives[0].exemplar.as_deref(),
            Some(format!("{:016x}", 0xabcdu64).as_str())
        );
    }

    #[test]
    fn empty_windows_never_alert() {
        let store = store();
        let snapshot = RegistrySnapshot::default();
        let mut engine = SloEngine::new(vec![SloSpec::new(
            "quiet",
            SloKind::RatioAbove {
                bad: vec!["nothing".into()],
                total: vec!["nothing".into()],
                budget: 0.001,
            },
        )]);
        let report = engine.evaluate(&store, &snapshot, sec(100));
        assert_eq!(report.status, "ok");
        assert_eq!(report.objectives[0].fast_burn, 0.0);
    }

    #[test]
    fn gauge_exactly_at_threshold_does_not_burn() {
        // "Stay below X" is strict: a sample sitting exactly on the
        // threshold spends no budget; one ULP above it does.
        let at_threshold = store();
        let snapshot = RegistrySnapshot::default();
        let threshold = 250_000.0f64;
        let spec = SloSpec::new(
            "edge-gauge",
            SloKind::GaugeAbove {
                metric: "edge.gauge".into(),
                threshold,
                tolerance: 0.1,
            },
        )
        .with_windows(sec(5), sec(10));
        let mut engine = SloEngine::new(vec![spec.clone()]);
        for t in 0..10u64 {
            at_threshold.record(sec(t), "edge.gauge", SampleValue::Gauge(threshold));
        }
        let report = engine.evaluate(&at_threshold, &snapshot, sec(9));
        assert_eq!(report.status, "ok", "{report:?}");
        assert_eq!(report.objectives[0].fast_burn, 0.0);
        assert_eq!(report.objectives[0].slow_burn, 0.0);

        // The next representable value above the threshold violates.
        let above = store();
        for t in 0..10u64 {
            above.record(
                sec(t),
                "edge.gauge",
                SampleValue::Gauge(threshold.next_up()),
            );
        }
        let mut engine = SloEngine::new(vec![spec]);
        let report = engine.evaluate(&above, &snapshot, sec(9));
        assert_ne!(report.status, "ok", "{report:?}");
        assert!(report.objectives[0].fast_burn >= 1.0);
    }

    #[test]
    fn ratio_exactly_at_budget_burns_at_exactly_one() {
        // bad/total == budget is the burn-rate fixed point: the budget
        // is consumed exactly as fast as it accrues, and `>= 1.0` means
        // the boundary itself alerts.
        let store = store();
        let snapshot = RegistrySnapshot::default();
        let spec = SloSpec::new(
            "edge-ratio",
            SloKind::RatioAbove {
                bad: vec!["edge.bad".into()],
                total: vec!["edge.total".into()],
                budget: 0.1,
            },
        )
        .with_windows(sec(10), sec(30));
        let mut engine = SloEngine::new(vec![spec]);
        // One bad per ten total, every second: the ratio is exactly the
        // budget over every window.
        for t in 0..40u64 {
            store.record(sec(t), "edge.bad", SampleValue::Counter(t));
            store.record(sec(t), "edge.total", SampleValue::Counter(t * 10));
        }
        let report = engine.evaluate(&store, &snapshot, sec(39));
        assert_eq!(report.objectives[0].fast_burn, 1.0, "{report:?}");
        assert_eq!(report.objectives[0].slow_burn, 1.0, "{report:?}");
        assert_eq!(
            report.status, "unhealthy",
            "both windows at the fixed point must page: {report:?}"
        );
    }

    #[test]
    fn fast_fires_slow_holds_pins_warning_across_evaluations() {
        // A live-but-not-yet-sustained burn (fast ≥ 1, slow < 1) lands
        // in `warning` and *stays* there while the slow window holds —
        // re-evaluating must neither escalate nor flap back to ok.
        let store = store();
        let snapshot = RegistrySnapshot::default();
        let spec = SloSpec::new(
            "edge-pin",
            SloKind::GaugeAbove {
                metric: "edge.pin".into(),
                threshold: 100.0,
                tolerance: 0.5,
            },
        )
        .with_windows(sec(4), sec(40));
        let mut engine = SloEngine::new(vec![spec]);
        // 36 clean seconds, then a 4-second spike: the fast window is
        // pure violation, the slow one mostly clean.
        for t in 0..36u64 {
            store.record(sec(t), "edge.pin", SampleValue::Gauge(50.0));
        }
        for t in 36..40u64 {
            store.record(sec(t), "edge.pin", SampleValue::Gauge(500.0));
        }
        let report = engine.evaluate(&store, &snapshot, sec(39));
        assert_eq!(report.status, "degraded", "{report:?}");
        assert_eq!(report.objectives[0].state, "warning");
        assert!(report.objectives[0].fast_burn >= 1.0);
        assert!(report.objectives[0].slow_burn < 1.0);

        // Same data, repeated evaluation: the state is pinned, and no
        // further transition events accumulate.
        let events_before = crate::recorder::snapshot()
            .into_iter()
            .filter(|r| r.name.contains("edge-pin"))
            .count();
        for _ in 0..3 {
            let report = engine.evaluate(&store, &snapshot, sec(39));
            assert_eq!(report.objectives[0].state, "warning", "{report:?}");
        }
        let events_after = crate::recorder::snapshot()
            .into_iter()
            .filter(|r| r.name.contains("edge-pin"))
            .count();
        assert_eq!(
            events_before, events_after,
            "a pinned state must not re-emit transition events"
        );
    }

    #[test]
    fn health_reports_round_trip_through_json() {
        let report = HealthReport {
            status: "degraded".into(),
            objectives: vec![ObjectiveHealth {
                name: "error-ratio".into(),
                state: "warning".into(),
                fast_burn: 3.5,
                slow_burn: 0.25,
                exemplar: Some("00000000000000a1".into()),
            }],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: HealthReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        // No-exemplar objectives keep the field off the wire.
        let bare = HealthReport::default();
        assert!(!serde_json::to_string(&bare).unwrap().contains("exemplar"));
    }
}
