//! The fault taxonomy and the seeded decision schedule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use monityre_obs::{names, splitmix64, Counter, Registry};

/// The environment variable `monityre serve` reads at startup:
/// `MONITYRE_FAULTS=<seed>:<kind>=<prob>[,<kind>=<prob>...]`.
pub const FAULTS_ENV_VAR: &str = "MONITYRE_FAULTS";

/// Every fault the serving stack can inject, named after the failure it
/// simulates. The injection *site* is part of the contract — the chaos
/// suite's invariants depend on whether a fault fires before or after a
/// job's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Drop a freshly accepted connection before reading anything — the
    /// client experiences a refused/reset connect. Fires before any
    /// request is parsed, so nothing is executed.
    AcceptDrop,
    /// Close the connection instead of writing a response. Fires after
    /// evaluation, so the result exists server-side but never travels.
    ConnReset,
    /// Split the response write into two flushes with a pause between —
    /// a benign fragmentation fault; the response still completes.
    PartialWrite,
    /// Sleep before parsing a request line — a slow server.
    SlowRead,
    /// Hold the connection open without responding (for [`FaultPlan::stall`]),
    /// then close it — the client's read must time out, not hang.
    StallRead,
    /// Write only a newline-less prefix of the response, then close.
    TruncateFrame,
    /// Flip the response line's first byte to an invalid-UTF-8 value, so
    /// the corruption is always detectable by the client.
    CorruptFrame,
    /// Panic inside an evaluation mid-job; the server must catch it,
    /// answer the client with a retryable `internal` error, and keep
    /// serving.
    WorkerPanic,
    /// Pause an admitted evaluation before it starts, holding its slot —
    /// queue-wait and deadline pressure without any protocol damage.
    QueueStall,
    /// Sleep before writing the (correct) response.
    DelayResponse,
    /// Write only a prefix of a segment-store batch, then poison the
    /// store — the in-process stand-in for `kill -9` landing mid-write.
    /// The torn tail stays on disk; startup recovery must truncate it.
    TornWrite,
    /// Skip the segment store's batch fsync: the bytes reach the page
    /// cache but durability is not guaranteed if the host dies next.
    ShortFsync,
    /// Fail the segment store's batch fsync after the write landed: the
    /// store must cut the segment back to the batch start (the batch is
    /// reported uncommitted) so an idempotent retry cannot double it.
    FailFsync,
}

impl FaultKind {
    /// Every kind, for enumeration in specs, tests and docs.
    pub const ALL: [FaultKind; 13] = [
        FaultKind::AcceptDrop,
        FaultKind::ConnReset,
        FaultKind::PartialWrite,
        FaultKind::SlowRead,
        FaultKind::StallRead,
        FaultKind::TruncateFrame,
        FaultKind::CorruptFrame,
        FaultKind::WorkerPanic,
        FaultKind::QueueStall,
        FaultKind::DelayResponse,
        FaultKind::TornWrite,
        FaultKind::ShortFsync,
        FaultKind::FailFsync,
    ];

    /// The spec name (snake_case).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::AcceptDrop => "accept_drop",
            FaultKind::ConnReset => "conn_reset",
            FaultKind::PartialWrite => "partial_write",
            FaultKind::SlowRead => "slow_read",
            FaultKind::StallRead => "stall_read",
            FaultKind::TruncateFrame => "truncate_frame",
            FaultKind::CorruptFrame => "corrupt_frame",
            FaultKind::WorkerPanic => "worker_panic",
            FaultKind::QueueStall => "queue_stall",
            FaultKind::DelayResponse => "delay_response",
            FaultKind::TornWrite => "torn_write",
            FaultKind::ShortFsync => "short_fsync",
            FaultKind::FailFsync => "fail_fsync",
        }
    }

    /// Parses a spec name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }

    fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|kind| *kind == self)
            .expect("every kind is in ALL")
    }
}

/// A seeded, deterministic fault schedule.
///
/// The plan holds one probability threshold and one decision counter per
/// [`FaultKind`]; [`FaultPlan::decide`] hashes `(seed, kind, n)` for the
/// kind's *n*-th decision and fires when the hash lands under the
/// threshold. Share it across threads behind an [`Arc`].
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Per-kind firing thresholds: a decision fires when the hash of its
    /// occurrence index is strictly below the threshold.
    thresholds: [u64; FaultKind::ALL.len()],
    /// Per-kind occurrence counters — the `n` in `(seed, kind, n)`.
    counters: [AtomicU64; FaultKind::ALL.len()],
    delay: Duration,
    stall: Duration,
    pause: Duration,
    injected_total: Arc<Counter>,
    injected_kind: [Arc<Counter>; FaultKind::ALL.len()],
}

impl FaultPlan {
    /// An inert plan (no fault fires) with the given seed and default
    /// timings: 25 ms delay, 1.5 s stall, 10 ms pause.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let registry = Registry::global();
        Self {
            seed,
            thresholds: [0; FaultKind::ALL.len()],
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            delay: Duration::from_millis(25),
            stall: Duration::from_millis(1500),
            pause: Duration::from_millis(10),
            injected_total: registry.counter(names::FAULTS_INJECTED),
            injected_kind: std::array::from_fn(|i| {
                registry.counter(&format!(
                    "{}.{}",
                    names::FAULTS_INJECTED,
                    FaultKind::ALL[i].name()
                ))
            }),
        }
    }

    /// Sets `kind`'s firing probability (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_fault(mut self, kind: FaultKind, probability: f64) -> Self {
        self.thresholds[kind.index()] = threshold_of(probability);
        self
    }

    /// Overrides the plan's timings: `delay` (slow read / delayed
    /// response), `stall` (stalled read hold), `pause` (partial-write and
    /// queue-stall pauses). Chaos tests shrink these to keep runtime low.
    #[must_use]
    pub fn with_timings(mut self, delay: Duration, stall: Duration, pause: Duration) -> Self {
        self.delay = delay;
        self.stall = stall;
        self.pause = pause;
        self
    }

    /// Parses `<seed>:<kind>=<prob>[,<kind>=<prob>...]` — the
    /// [`FAULTS_ENV_VAR`] / `--faults` format. An empty fault list
    /// (`"7:"`) is a valid inert plan.
    ///
    /// # Errors
    ///
    /// Returns a printable message naming the malformed part.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (seed_text, faults) = spec
            .split_once(':')
            .ok_or_else(|| format!("fault spec `{spec}` is missing the `<seed>:` prefix"))?;
        let seed: u64 = seed_text
            .trim()
            .parse()
            .map_err(|_| format!("fault spec seed `{seed_text}` is not an unsigned integer"))?;
        let mut plan = Self::new(seed);
        for entry in faults.split(',').filter(|e| !e.trim().is_empty()) {
            let (name, prob_text) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry `{entry}` is not `<kind>=<prob>`"))?;
            let kind = FaultKind::from_name(name.trim()).ok_or_else(|| {
                format!(
                    "unknown fault kind `{}`; kinds: {}",
                    name.trim(),
                    FaultKind::ALL
                        .iter()
                        .map(|k| k.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })?;
            let probability: f64 = prob_text
                .trim()
                .parse()
                .map_err(|_| format!("fault probability `{prob_text}` is not a number"))?;
            if !(0.0..=1.0).contains(&probability) {
                return Err(format!(
                    "fault probability {probability} for `{}` is not in [0, 1]",
                    kind.name()
                ));
            }
            plan = plan.with_fault(kind, probability);
        }
        Ok(plan)
    }

    /// Builds the plan described by [`FAULTS_ENV_VAR`], if set.
    ///
    /// # Errors
    ///
    /// Returns the parse failure when the variable is set but malformed —
    /// a typo must fail loudly, not silently disarm the chaos run.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var(FAULTS_ENV_VAR) {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(spec.trim()).map(Some),
            _ => Ok(None),
        }
    }

    /// The plan's seed (for failure-reproduction logs).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the *next* occurrence of `kind` fires, advancing the
    /// kind's occurrence counter. Deterministic in `(seed, kind, n)`;
    /// fired decisions are tallied into the `faults.injected` counters.
    pub fn decide(&self, kind: FaultKind) -> bool {
        let threshold = self.thresholds[kind.index()];
        // Count every decision, fired or not, so occurrence indices stay
        // aligned with the observable event sequence.
        let n = self.counters[kind.index()].fetch_add(1, Ordering::Relaxed);
        if threshold == 0 {
            return false;
        }
        let salt = (kind.index() as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let hash = splitmix64(self.seed ^ salt ^ splitmix64(n));
        let fire = threshold == u64::MAX || hash < threshold;
        if fire {
            self.injected_total.inc();
            self.injected_kind[kind.index()].inc();
            // Leave a flight-recorder event (linked to the current trace
            // context, if any) and trigger a post-mortem dump when one is
            // armed — an injected fault is exactly the moment the recent
            // span history is worth keeping.
            monityre_obs::recorder::record_event(format!("fault.{}", kind.name()));
            monityre_obs::recorder::dump("fault_injected");
        }
        fire
    }

    /// How many decisions of `kind` fired so far.
    #[must_use]
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected_kind[kind.index()].get()
    }

    /// Total fired decisions across all kinds.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.injected_total.get()
    }

    /// The sleep for [`FaultKind::SlowRead`] / [`FaultKind::DelayResponse`].
    #[must_use]
    pub fn delay(&self) -> Duration {
        self.delay
    }

    /// How long [`FaultKind::StallRead`] holds the connection silent.
    #[must_use]
    pub fn stall(&self) -> Duration {
        self.stall
    }

    /// The pause of [`FaultKind::PartialWrite`] / [`FaultKind::QueueStall`].
    #[must_use]
    pub fn pause(&self) -> Duration {
        self.pause
    }

    /// The armed kinds and their probabilities, for startup logs.
    #[must_use]
    pub fn describe(&self) -> String {
        let armed: Vec<String> = FaultKind::ALL
            .iter()
            .filter(|kind| self.thresholds[kind.index()] > 0)
            .map(|kind| {
                format!(
                    "{}={:.3}",
                    kind.name(),
                    self.thresholds[kind.index()] as f64 / u64::MAX as f64
                )
            })
            .collect();
        if armed.is_empty() {
            format!("seed {} (inert)", self.seed)
        } else {
            format!("seed {}: {}", self.seed, armed.join(", "))
        }
    }
}

/// Maps a probability to the `u64` firing threshold.
fn threshold_of(probability: f64) -> u64 {
    if probability <= 0.0 || !probability.is_finite() {
        0
    } else if probability >= 1.0 {
        u64::MAX
    } else {
        // Rounding at the extremes is irrelevant: the chaos invariants
        // never depend on the exact firing *rate*, only on determinism.
        (probability * u64::MAX as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_name(kind.name()), Some(kind));
        }
        assert!(FaultKind::from_name("gremlin").is_none());
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::new(42).with_fault(FaultKind::ConnReset, 0.5);
        let b = FaultPlan::new(42).with_fault(FaultKind::ConnReset, 0.5);
        let fired_a: Vec<bool> = (0..256).map(|_| a.decide(FaultKind::ConnReset)).collect();
        let fired_b: Vec<bool> = (0..256).map(|_| b.decide(FaultKind::ConnReset)).collect();
        assert_eq!(fired_a, fired_b);
        assert!(fired_a.iter().any(|f| *f), "p=0.5 must fire sometimes");
        assert!(fired_a.iter().any(|f| !*f), "p=0.5 must also pass");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::new(1).with_fault(FaultKind::CorruptFrame, 0.5);
        let b = FaultPlan::new(2).with_fault(FaultKind::CorruptFrame, 0.5);
        let fired_a: Vec<bool> = (0..256)
            .map(|_| a.decide(FaultKind::CorruptFrame))
            .collect();
        let fired_b: Vec<bool> = (0..256)
            .map(|_| b.decide(FaultKind::CorruptFrame))
            .collect();
        assert_ne!(fired_a, fired_b);
    }

    #[test]
    fn kinds_draw_independent_streams() {
        let plan = FaultPlan::new(7)
            .with_fault(FaultKind::ConnReset, 0.5)
            .with_fault(FaultKind::TruncateFrame, 0.5);
        let resets: Vec<bool> = (0..256)
            .map(|_| plan.decide(FaultKind::ConnReset))
            .collect();
        let truncs: Vec<bool> = (0..256)
            .map(|_| plan.decide(FaultKind::TruncateFrame))
            .collect();
        assert_ne!(resets, truncs, "kind must salt the hash");
    }

    #[test]
    fn extreme_probabilities_are_exact() {
        let plan = FaultPlan::new(9)
            .with_fault(FaultKind::WorkerPanic, 1.0)
            .with_fault(FaultKind::ConnReset, 0.0);
        for _ in 0..64 {
            assert!(plan.decide(FaultKind::WorkerPanic));
            assert!(!plan.decide(FaultKind::ConnReset));
            assert!(!plan.decide(FaultKind::AcceptDrop), "unarmed kind is inert");
        }
        assert_eq!(plan.injected(FaultKind::WorkerPanic), 64);
        assert_eq!(plan.injected(FaultKind::ConnReset), 0);
        assert!(plan.injected_total() >= 64);
    }

    #[test]
    fn parse_round_trips_the_env_format() {
        let plan = FaultPlan::parse("2011:conn_reset=0.5, corrupt_frame=1.0").unwrap();
        assert_eq!(plan.seed(), 2011);
        assert!(plan.decide(FaultKind::CorruptFrame));
        assert!(plan.describe().contains("conn_reset"));
        let inert = FaultPlan::parse("7:").unwrap();
        assert!(inert.describe().contains("inert"));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "no-seed",
            "x:conn_reset=0.5",
            "1:gremlin=0.5",
            "1:conn_reset",
            "1:conn_reset=high",
            "1:conn_reset=1.5",
            "1:conn_reset=-0.1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn decisions_fire_at_roughly_the_requested_rate() {
        let plan = FaultPlan::new(123).with_fault(FaultKind::DelayResponse, 0.25);
        let fired = (0..4096)
            .filter(|_| plan.decide(FaultKind::DelayResponse))
            .count();
        let rate = fired as f64 / 4096.0;
        assert!((rate - 0.25).abs() < 0.05, "rate {rate} far from 0.25");
    }
}
