//! Instant power traces — the paper's Fig. 3.
//!
//! "Instant power consumption of the Sensor Node during a limited timing
//! window": the node's total power sampled at fine time resolution while
//! cruising, showing the per-round phase structure (acquisition plateau,
//! compute window, TX spikes every N rounds) over the leakage floor.

use monityre_units::{Duration, Energy, Power, Speed};

use crate::cache::ensure_rolling;
use crate::{CoreError, Scenario};

/// One sample of the instant-power trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSample {
    /// Elapsed time from the window start.
    pub time: Duration,
    /// Total node power at this instant.
    pub total: Power,
    /// Per-block contributions, aligned with
    /// [`InstantTrace::block_names`].
    pub per_block: Vec<Power>,
}

/// An instant-power trace over a limited timing window at constant speed.
///
/// Phases are laid out back-to-back from each round start, in schedule
/// order; a phase recurring every N rounds appears only in rounds whose
/// index is a multiple of N. Event energy (samples, packet bytes) is drawn
/// uniformly across each block's clocked time in the rounds where it runs,
/// so the trace's integral matches the per-round energy of
/// [`crate::EvalCache`].
///
/// ```
/// use monityre_core::{InstantTrace, Scenario};
/// use monityre_units::{Duration, Speed};
///
/// let trace = InstantTrace::generate(
///     &Scenario::reference(),
///     Speed::from_kmh(60.0),
///     Duration::from_millis(500.0),
///     Duration::from_micros(100.0),
/// ).unwrap();
/// assert!(trace.peak() > trace.floor() * 100.0); // TX spikes tower over the floor
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InstantTrace {
    block_names: Vec<String>,
    samples: Vec<TraceSample>,
    round_period: Duration,
    speed: Speed,
}

impl InstantTrace {
    /// Generates the trace.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] at standstill, or
    /// [`CoreError::InvalidParameter`] for a non-positive window/step.
    pub fn generate(
        scenario: &Scenario,
        speed: Speed,
        window: Duration,
        step: Duration,
    ) -> Result<Self, CoreError> {
        if window.secs() <= 0.0 || !window.is_finite() {
            return Err(CoreError::invalid_parameter("window must be positive"));
        }
        if step.secs() <= 0.0 || !step.is_finite() {
            return Err(CoreError::invalid_parameter("step must be positive"));
        }
        ensure_rolling(speed)?;
        let period = scenario.wheel().round_period(speed);
        let arch = scenario.architecture();
        let cond = scenario.conditions();

        // Pre-resolve each block's layout once.
        struct BlockLayout {
            /// (start offset, end offset, mode, recurrence) per phase.
            phases: Vec<(f64, f64, monityre_power::OperatingMode, u32)>,
            rest_mode: monityre_power::OperatingMode,
            /// Extra power drawn during clocked phases to account for the
            /// workload event energy.
            event_power: Power,
            model: monityre_power::BlockPowerModel,
        }

        let mut names = Vec::new();
        let mut layouts = Vec::new();
        for name in arch.block_names() {
            let plan = arch.plan(name)?;
            let model = arch.database().block(name)?.clone();
            let mut offset = 0.0;
            let mut phases = Vec::with_capacity(plan.schedule().phases().len());
            let mut clocked_amortized = 0.0;
            for phase in plan.schedule().resolve(period) {
                let start = offset;
                let end = offset + phase.duration.secs();
                phases.push((start, end, phase.mode, phase.period_rounds));
                offset = end;
                if phase.mode.is_clocked() {
                    clocked_amortized += phase.duration.secs() / f64::from(phase.period_rounds);
                }
            }
            let rest_mode = plan.schedule().rest_mode();
            if rest_mode.is_clocked() {
                clocked_amortized += (period.secs() - offset).max(0.0);
            }
            // Amortized event energy per round, spread over clocked time.
            let mut event_energy = Energy::ZERO;
            for (kind, count) in plan.workload().iter() {
                if let Some(e) = model.event_energy(kind, &cond) {
                    event_energy += e * count;
                }
            }
            let event_power = if clocked_amortized > 0.0 {
                Power::from_watts(event_energy.joules() / clocked_amortized)
            } else {
                Power::ZERO
            };
            names.push(name.to_owned());
            layouts.push(BlockLayout {
                phases,
                rest_mode,
                event_power,
                model,
            });
        }

        let n = (window.secs() / step.secs()).ceil() as usize;
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            let t = step * i as f64;
            let rounds_elapsed = t.secs() / period.secs();
            let round_index = rounds_elapsed.floor() as u64;
            let offset = (rounds_elapsed - rounds_elapsed.floor()) * period.secs();

            let mut per_block = Vec::with_capacity(layouts.len());
            let mut total = Power::ZERO;
            for layout in &layouts {
                let mut mode = layout.rest_mode;
                let mut in_clocked_phase = false;
                for &(start, end, phase_mode, recurrence) in &layout.phases {
                    let runs_this_round = round_index.is_multiple_of(u64::from(recurrence));
                    if runs_this_round && offset >= start && offset < end {
                        mode = phase_mode;
                        in_clocked_phase = phase_mode.is_clocked();
                        break;
                    }
                }
                let mut p = layout.model.power(mode, &cond).total();
                if in_clocked_phase || (layout.phases.is_empty() && mode.is_clocked()) {
                    p += layout.event_power;
                }
                per_block.push(p);
                total += p;
            }
            samples.push(TraceSample {
                time: t,
                total,
                per_block,
            });
        }

        Ok(Self {
            block_names: names,
            samples,
            round_period: period,
            speed,
        })
    }

    /// The block names aligned with [`TraceSample::per_block`].
    #[must_use]
    pub fn block_names(&self) -> &[String] {
        &self.block_names
    }

    /// The samples, in time order.
    #[must_use]
    pub fn samples(&self) -> &[TraceSample] {
        &self.samples
    }

    /// The wheel-round period at the trace's speed.
    #[must_use]
    pub fn round_period(&self) -> Duration {
        self.round_period
    }

    /// The cruising speed.
    #[must_use]
    pub fn speed(&self) -> Speed {
        self.speed
    }

    /// The highest instantaneous power (the TX spike).
    #[must_use]
    pub fn peak(&self) -> Power {
        self.samples
            .iter()
            .map(|s| s.total)
            .fold(Power::ZERO, Power::max)
    }

    /// The lowest instantaneous power (the leakage + always-on floor).
    #[must_use]
    pub fn floor(&self) -> Power {
        self.samples
            .iter()
            .map(|s| s.total)
            .fold(Power::from_watts(f64::INFINITY), Power::min)
    }

    /// The time-average power of the trace.
    #[must_use]
    pub fn mean(&self) -> Power {
        if self.samples.is_empty() {
            return Power::ZERO;
        }
        let sum: f64 = self.samples.iter().map(|s| s.total.watts()).sum();
        Power::from_watts(sum / self.samples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_at(kmh: f64, window_ms: f64, step_us: f64) -> InstantTrace {
        InstantTrace::generate(
            &Scenario::reference(),
            Speed::from_kmh(kmh),
            Duration::from_millis(window_ms),
            Duration::from_micros(step_us),
        )
        .unwrap()
    }

    #[test]
    fn spikes_tower_over_floor() {
        let trace = trace_at(60.0, 600.0, 50.0);
        // Radio burst ≈ 21 mW vs floor of a few µW.
        assert!(trace.peak().milliwatts() > 15.0, "peak {}", trace.peak());
        assert!(trace.floor().microwatts() < 20.0, "floor {}", trace.floor());
    }

    #[test]
    fn tx_spikes_every_fourth_round() {
        let trace = trace_at(60.0, 1000.0, 50.0);
        let period = trace.round_period().secs();
        // Count samples above 10 mW, group into bursts.
        let mut burst_times = Vec::new();
        let mut last_burst: Option<f64> = None;
        for s in trace.samples() {
            if s.total.milliwatts() > 10.0 {
                let t = s.time.secs();
                if last_burst.is_none_or(|lb| t - lb > period / 2.0) {
                    burst_times.push(t);
                }
                last_burst = Some(t);
            }
        }
        assert!(!burst_times.is_empty(), "no TX bursts found");
        for pair in burst_times.windows(2) {
            let gap = pair[1] - pair[0];
            // Bursts every 4 rounds.
            assert!((gap - 4.0 * period).abs() < period * 0.5, "gap {gap}");
        }
    }

    #[test]
    fn integral_matches_cached_energy() {
        let scenario = Scenario::reference();
        let cache = scenario.cache().unwrap();
        let speed = Speed::from_kmh(60.0);
        let period = cache.round_period(speed).unwrap();
        // Exactly 4 rounds (one full TX cycle) at fine resolution.
        let window = period * 4.0;
        let step = Duration::from_micros(20.0);
        let trace = InstantTrace::generate(&scenario, speed, window, step).unwrap();
        let integral: f64 = trace
            .samples()
            .iter()
            .map(|s| s.total.watts() * step.secs())
            .sum();
        let expected = cache.required_per_round(speed).unwrap().joules() * 4.0;
        let rel = (integral - expected).abs() / expected;
        assert!(rel < 0.02, "integral {integral} vs expected {expected}");
    }

    #[test]
    fn per_block_sums_to_total() {
        let trace = trace_at(80.0, 100.0, 100.0);
        for s in trace.samples() {
            let sum: Power = s.per_block.iter().copied().sum();
            assert!(sum.approx_eq(s.total, 1e-9));
        }
    }

    #[test]
    fn acquisition_plateau_visible() {
        let trace = trace_at(60.0, 114.0, 20.0);
        // Early in the round (acquisition window): afe + adc + sram active,
        // total in the hundreds of µW.
        let early = &trace.samples()[2];
        assert!(
            early.total.microwatts() > 200.0,
            "acquisition plateau missing: {}",
            early.total
        );
    }

    #[test]
    fn mean_between_floor_and_peak() {
        let trace = trace_at(90.0, 400.0, 50.0);
        assert!(trace.mean() > trace.floor());
        assert!(trace.mean() < trace.peak());
    }

    #[test]
    fn rejects_bad_parameters() {
        let scenario = Scenario::reference();
        assert!(InstantTrace::generate(
            &scenario,
            Speed::ZERO,
            Duration::from_millis(10.0),
            Duration::from_micros(10.0)
        )
        .is_err());
        assert!(InstantTrace::generate(
            &scenario,
            Speed::from_kmh(50.0),
            Duration::ZERO,
            Duration::from_micros(10.0)
        )
        .is_err());
        assert!(InstantTrace::generate(
            &scenario,
            Speed::from_kmh(50.0),
            Duration::from_millis(10.0),
            Duration::ZERO
        )
        .is_err());
    }
}
