//! Wheel-round duty-cycle schedules.
//!
//! "For this particular monitoring system, the functioning of each block
//! (data acquisition, memories, etc.) should be considered during a single
//! wheel round, that is the basic timing unit. Hence, a duty cycle …
//! for each specific component should be defined" (§II). A
//! [`RoundSchedule`] is that definition: an ordered list of phases a block
//! goes through within a round, plus the rest mode it falls back to.

use monityre_power::OperatingMode;
use monityre_units::{Duration, DutyCycle};
use serde::{Deserialize, Serialize};

use crate::NodeError;

/// How long a phase lasts within a wheel round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Span {
    /// A fixed wall-clock duration (e.g. a 0.8 ms TX burst) — independent
    /// of speed.
    Fixed(Duration),
    /// A fraction of the wheel round (e.g. the 12 % contact-patch
    /// acquisition window) — scales with the round period.
    Fraction(f64),
}

impl Span {
    /// The concrete duration of this span in a round of length `period`,
    /// clamped to the period itself.
    #[must_use]
    pub fn resolve(&self, period: Duration) -> Duration {
        match *self {
            Self::Fixed(d) => d.min(period),
            Self::Fraction(f) => period * f,
        }
    }

    fn validate(&self) -> Result<(), NodeError> {
        match *self {
            Self::Fixed(d) => {
                if d.is_finite() && !d.is_negative() {
                    Ok(())
                } else {
                    Err(NodeError::invalid_schedule(
                        "fixed span must be a finite non-negative duration",
                    ))
                }
            }
            Self::Fraction(f) => {
                if f.is_finite() && (0.0..=1.0).contains(&f) {
                    Ok(())
                } else {
                    Err(NodeError::invalid_schedule(
                        "fractional span must lie in [0, 1]",
                    ))
                }
            }
        }
    }
}

/// One phase of a block's round: a mode held for a span, recurring once
/// every `period_rounds` rounds.
///
/// `period_rounds = 1` means every round; `4` means the phase runs in one
/// round out of four (e.g. a transmission every 4th round) and the block
/// stays in its rest mode during that span in the other three.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// The operating mode during the phase.
    pub mode: OperatingMode,
    /// How long the phase lasts.
    pub span: Span,
    /// Recurrence period in rounds (≥ 1).
    pub period_rounds: u32,
}

impl PhaseSpec {
    /// A phase recurring every round.
    #[must_use]
    pub fn every_round(mode: OperatingMode, span: Span) -> Self {
        Self {
            mode,
            span,
            period_rounds: 1,
        }
    }

    /// A phase recurring once every `period_rounds` rounds.
    #[must_use]
    pub fn every_n_rounds(mode: OperatingMode, span: Span, period_rounds: u32) -> Self {
        Self {
            mode,
            span,
            period_rounds,
        }
    }
}

/// A phase resolved against a concrete round period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedPhase {
    /// The operating mode during the phase.
    pub mode: OperatingMode,
    /// Concrete duration within the rounds where the phase runs.
    pub duration: Duration,
    /// Recurrence period in rounds.
    pub period_rounds: u32,
}

impl ResolvedPhase {
    /// The phase's amortized share of one round: `duration / period`.
    #[must_use]
    pub fn amortized_duration(&self) -> Duration {
        self.duration / f64::from(self.period_rounds)
    }
}

/// A block's duty-cycle schedule within the wheel round.
///
/// ```
/// use monityre_node::{PhaseSpec, RoundSchedule, Span};
/// use monityre_power::OperatingMode;
/// use monityre_units::Duration;
///
/// # fn main() -> Result<(), monityre_node::NodeError> {
/// // ADC: converts during the 12 % contact-patch window, sleeps otherwise.
/// let schedule = RoundSchedule::new(
///     vec![PhaseSpec::every_round(OperatingMode::Burst, Span::Fraction(0.12))],
///     OperatingMode::Sleep,
/// )?;
/// let duty = schedule.duty_cycle(Duration::from_millis(100.0));
/// assert!((duty.active_fraction() - 0.12).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundSchedule {
    phases: Vec<PhaseSpec>,
    rest_mode: OperatingMode,
}

impl RoundSchedule {
    /// Builds a schedule from phases and the rest mode filling the rest of
    /// the round.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::InvalidSchedule`] when a span is malformed,
    /// a recurrence period is zero, or the per-round fractional spans
    /// alone already exceed the full round.
    pub fn new(phases: Vec<PhaseSpec>, rest_mode: OperatingMode) -> Result<Self, NodeError> {
        let mut fraction_total = 0.0;
        for phase in &phases {
            phase.span.validate()?;
            if phase.period_rounds == 0 {
                return Err(NodeError::invalid_schedule(
                    "phase recurrence period must be at least 1 round",
                ));
            }
            if let Span::Fraction(f) = phase.span {
                fraction_total += f;
            }
        }
        if fraction_total > 1.0 + 1e-9 {
            return Err(NodeError::invalid_schedule(
                "fractional spans exceed one full round",
            ));
        }
        Ok(Self { phases, rest_mode })
    }

    /// A schedule that keeps the block permanently in one mode.
    #[must_use]
    pub fn always(mode: OperatingMode) -> Self {
        Self {
            phases: Vec::new(),
            rest_mode: mode,
        }
    }

    /// The scheduled phases.
    #[must_use]
    pub fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    /// The mode filling the unscheduled remainder of each round.
    #[must_use]
    pub fn rest_mode(&self) -> OperatingMode {
        self.rest_mode
    }

    /// Resolves the phases against a concrete round period, lazily and in
    /// order, so a per-point walk never allocates.
    ///
    /// Fixed spans are truncated greedily, in order, when their cumulative
    /// duration would exceed the round (the high-speed regime where a
    /// round is shorter than the node's fixed work — real firmware skips
    /// work there, and truncation models that degradation).
    pub fn resolve(&self, period: Duration) -> impl Iterator<Item = ResolvedPhase> + '_ {
        let mut remaining = period;
        let mut fraction_budget = period;
        self.phases.iter().map(move |phase| {
            let want = match phase.span {
                Span::Fixed(_) => phase.span.resolve(period),
                Span::Fraction(_) => phase.span.resolve(fraction_budget.max(Duration::ZERO)),
            };
            let take = want.min(remaining.max(Duration::ZERO));
            remaining -= take;
            if let Span::Fixed(_) = phase.span {
                fraction_budget -= take;
            }
            ResolvedPhase {
                mode: phase.mode,
                duration: take,
                period_rounds: phase.period_rounds,
            }
        })
    }

    /// The rest-of-round duration once every *amortized* phase share is
    /// accounted: `period − Σ duration/period_rounds`, floored at zero.
    #[must_use]
    pub fn rest_duration(&self, period: Duration) -> Duration {
        let scheduled: Duration = self
            .resolve(period)
            .map(|phase| phase.amortized_duration())
            .sum();
        (period - scheduled).max(Duration::ZERO)
    }

    /// The block's *duty cycle* in the paper's sense: the amortized share
    /// of the round spent in clocked (active-ish) modes.
    #[must_use]
    pub fn duty_cycle(&self, period: Duration) -> DutyCycle {
        if !period.is_finite() || period.secs() <= 0.0 {
            // Degenerate round (standstill): the block sits in its rest mode.
            return if self.rest_mode.is_clocked() {
                DutyCycle::ALWAYS_ACTIVE
            } else {
                DutyCycle::ALWAYS_IDLE
            };
        }
        let mut active = Duration::ZERO;
        for phase in self.resolve(period) {
            if phase.mode.is_clocked() {
                active += phase.amortized_duration();
            }
        }
        if self.rest_mode.is_clocked() {
            active += self.rest_duration(period);
        }
        DutyCycle::saturating(active / period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: f64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn fraction_scales_with_period() {
        let s = RoundSchedule::new(
            vec![PhaseSpec::every_round(
                OperatingMode::Active,
                Span::Fraction(0.25),
            )],
            OperatingMode::Sleep,
        )
        .unwrap();
        let slow: Vec<_> = s.resolve(ms(200.0)).collect();
        let fast: Vec<_> = s.resolve(ms(40.0)).collect();
        assert!(slow[0].duration.approx_eq(ms(50.0), 1e-12));
        assert!(fast[0].duration.approx_eq(ms(10.0), 1e-12));
    }

    #[test]
    fn fixed_is_speed_independent_until_truncation() {
        let s = RoundSchedule::new(
            vec![PhaseSpec::every_round(
                OperatingMode::Burst,
                Span::Fixed(ms(2.0)),
            )],
            OperatingMode::Off,
        )
        .unwrap();
        let first = |period| s.resolve(period).next().unwrap().duration;
        assert!(first(ms(100.0)).approx_eq(ms(2.0), 1e-12));
        assert!(first(ms(10.0)).approx_eq(ms(2.0), 1e-12));
        // Round shorter than the phase: truncated.
        assert!(first(ms(1.0)).approx_eq(ms(1.0), 1e-12));
    }

    #[test]
    fn greedy_truncation_preserves_order() {
        let s = RoundSchedule::new(
            vec![
                PhaseSpec::every_round(OperatingMode::Active, Span::Fixed(ms(6.0))),
                PhaseSpec::every_round(OperatingMode::Burst, Span::Fixed(ms(6.0))),
            ],
            OperatingMode::Sleep,
        )
        .unwrap();
        let resolved: Vec<_> = s.resolve(ms(8.0)).collect();
        assert!(resolved[0].duration.approx_eq(ms(6.0), 1e-12));
        assert!(resolved[1].duration.approx_eq(ms(2.0), 1e-12));
    }

    #[test]
    fn rest_duration_accounts_amortization() {
        let s = RoundSchedule::new(
            vec![PhaseSpec::every_n_rounds(
                OperatingMode::Burst,
                Span::Fixed(ms(4.0)),
                4,
            )],
            OperatingMode::Off,
        )
        .unwrap();
        // Amortized burst time is 1 ms per round.
        assert!(s.rest_duration(ms(100.0)).approx_eq(ms(99.0), 1e-12));
    }

    #[test]
    fn duty_cycle_counts_only_clocked_modes() {
        let s = RoundSchedule::new(
            vec![
                PhaseSpec::every_round(OperatingMode::Active, Span::Fraction(0.10)),
                PhaseSpec::every_round(OperatingMode::Sleep, Span::Fraction(0.30)),
            ],
            OperatingMode::DeepSleep,
        )
        .unwrap();
        let duty = s.duty_cycle(ms(100.0));
        assert!((duty.active_fraction() - 0.10).abs() < 1e-9);
    }

    #[test]
    fn duty_cycle_with_amortized_phase() {
        let s = RoundSchedule::new(
            vec![PhaseSpec::every_n_rounds(
                OperatingMode::Burst,
                Span::Fixed(ms(2.0)),
                8,
            )],
            OperatingMode::Off,
        )
        .unwrap();
        let duty = s.duty_cycle(ms(100.0));
        assert!((duty.active_fraction() - 0.0025).abs() < 1e-9);
        assert!(duty.is_short());
    }

    #[test]
    fn always_schedule_has_no_phases() {
        let s = RoundSchedule::always(OperatingMode::Active);
        assert!(s.phases().is_empty());
        assert_eq!(s.duty_cycle(ms(50.0)), DutyCycle::ALWAYS_ACTIVE);
        let idle = RoundSchedule::always(OperatingMode::Sleep);
        assert_eq!(idle.duty_cycle(ms(50.0)), DutyCycle::ALWAYS_IDLE);
    }

    #[test]
    fn standstill_duty_follows_rest_mode() {
        let s = RoundSchedule::new(
            vec![PhaseSpec::every_round(
                OperatingMode::Active,
                Span::Fraction(0.5),
            )],
            OperatingMode::Sleep,
        )
        .unwrap();
        let duty = s.duty_cycle(Duration::from_secs(f64::INFINITY));
        assert_eq!(duty, DutyCycle::ALWAYS_IDLE);
    }

    #[test]
    fn rejects_fraction_overflow() {
        let r = RoundSchedule::new(
            vec![
                PhaseSpec::every_round(OperatingMode::Active, Span::Fraction(0.7)),
                PhaseSpec::every_round(OperatingMode::Burst, Span::Fraction(0.5)),
            ],
            OperatingMode::Sleep,
        );
        assert!(r.is_err());
    }

    #[test]
    fn rejects_zero_recurrence() {
        let r = RoundSchedule::new(
            vec![PhaseSpec::every_n_rounds(
                OperatingMode::Burst,
                Span::Fixed(ms(1.0)),
                0,
            )],
            OperatingMode::Sleep,
        );
        assert!(r.is_err());
    }

    #[test]
    fn rejects_negative_fraction() {
        let r = RoundSchedule::new(
            vec![PhaseSpec::every_round(
                OperatingMode::Active,
                Span::Fraction(-0.1),
            )],
            OperatingMode::Sleep,
        );
        assert!(r.is_err());
    }

    #[test]
    fn serde_round_trip() {
        let s = RoundSchedule::new(
            vec![PhaseSpec::every_n_rounds(
                OperatingMode::Burst,
                Span::Fixed(ms(0.8)),
                4,
            )],
            OperatingMode::Off,
        )
        .unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: RoundSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
