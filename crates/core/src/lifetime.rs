//! Battery-vs-scavenger lifetime analysis.
//!
//! §I of the paper motivates harvesting with one sentence: "standard
//! batteries cannot supply this chip for a full tyre lifetime". This
//! module quantifies the claim — and its nuance. A frugal TPMS-class
//! configuration *can* live on a coin cell (which is why plain TPMS
//! sensors ship with batteries); it is the Cyber-Tyre-class monitoring
//! rates (hundreds of samples per round, frequent transmissions) combined
//! with in-tyre temperatures (battery derating and hot leakage) that push
//! the battery below the tyre's wear life, while the scavenger sustains
//! the load indefinitely above the break-even speed.

use monityre_harvest::{IdealBattery, Storage};
use monityre_units::{Distance, Duration, Energy, Speed};

use crate::{CoreError, EvalCache, Scenario};

/// A driver's daily usage pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsagePattern {
    /// Time spent driving per day.
    pub daily_driving: Duration,
    /// Mean cruising speed while driving.
    pub mean_speed: Speed,
}

impl UsagePattern {
    /// A typical commuter: 1.5 h/day at a 55 km/h mean.
    #[must_use]
    pub fn commuter() -> Self {
        Self {
            daily_driving: Duration::from_hours(1.5),
            mean_speed: Speed::from_kmh(55.0),
        }
    }

    /// A light-usage commuter: 45 min/day at a 55 km/h mean. Long tyre
    /// life — the regime where battery self-discharge dominates.
    #[must_use]
    pub fn light_commuter() -> Self {
        Self {
            daily_driving: Duration::from_hours(0.75),
            mean_speed: Speed::from_kmh(55.0),
        }
    }

    /// A long-haul pattern: 7 h/day at a 85 km/h mean.
    #[must_use]
    pub fn long_haul() -> Self {
        Self {
            daily_driving: Duration::from_hours(7.0),
            mean_speed: Speed::from_kmh(85.0),
        }
    }

    /// Distance covered per day.
    #[must_use]
    pub fn daily_distance(&self) -> Distance {
        self.mean_speed * self.daily_driving
    }

    /// Validates the pattern.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when the driving time is
    /// not positive, exceeds a day, or the speed is not positive.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.daily_driving.secs() <= 0.0 || self.daily_driving.hours() > 24.0 {
            return Err(CoreError::invalid_parameter(
                "daily driving must lie in (0 h, 24 h]",
            ));
        }
        if self.mean_speed.mps() <= 0.0 || !self.mean_speed.is_finite() {
            return Err(CoreError::invalid_parameter("mean speed must be positive"));
        }
        Ok(())
    }
}

/// The verdict of the lifetime comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeReport {
    /// Energy the node consumes per day under the pattern.
    pub daily_consumption: Energy,
    /// Energy the scavenging chain delivers per day under the pattern.
    pub daily_harvest: Energy,
    /// Days until the given battery is empty (self-discharge included;
    /// capped at 20 years).
    pub battery_days: f64,
    /// Days until the tyre reaches its wear life under the pattern.
    pub tyre_days: f64,
    /// Whether the battery outlives the tyre.
    pub battery_outlives_tyre: bool,
    /// Whether the scavenger covers the daily demand (net-positive days).
    pub scavenger_sustains: bool,
}

/// Conventional passenger-tyre wear life.
const TYRE_LIFE_KM: f64 = 50_000.0;
const SECONDS_PER_DAY: f64 = 24.0 * 3600.0;
/// Simulation horizon: past 20 years the comparison is settled.
const MAX_DAYS: u32 = 20 * 365;

/// Estimates node lifetime on a battery vs on the scavenger.
///
/// The battery is drained by day-stepped simulation (consumption plus its
/// own self-discharge), so hot in-tyre cells are treated faithfully.
///
/// ```
/// use monityre_core::{LifetimeEstimator, Scenario, UsagePattern};
/// use monityre_harvest::{HarvestChain, IdealBattery, PiezoScavenger, Regulator};
/// use monityre_node::NodeConfig;
/// use monityre_power::WorkingConditions;
/// use monityre_profile::Wheel;
/// use monityre_units::Temperature;
///
/// // Full-rate monitoring on a warm tyre — the application the paper
/// // means — with a harvester sized 1.5x for that load (§I: available
/// // energy depends on the size of the scavenging device).
/// let scenario = Scenario::builder()
///     .config(
///         NodeConfig::reference()
///             .with_samples_per_round(512)
///             .with_tx_period_rounds(1)
///             .with_payload_bytes(64),
///     )
///     .conditions(WorkingConditions::reference().with_temperature(Temperature::from_celsius(45.0)))
///     .chain(HarvestChain::new(
///         PiezoScavenger::reference().scaled(1.5),
///         Regulator::reference(),
///         Wheel::reference(),
///     ))
///     .build();
///
/// let estimator = LifetimeEstimator::new(&scenario).unwrap();
/// let report = estimator
///     .compare(UsagePattern::light_commuter(), IdealBattery::coin_cell_in_tyre())
///     .unwrap();
/// assert!(!report.battery_outlives_tyre); // the paper's §I claim
/// assert!(report.scavenger_sustains);
/// ```
#[derive(Debug)]
pub struct LifetimeEstimator {
    scenario: Scenario,
    cache: EvalCache,
}

impl LifetimeEstimator {
    /// Creates an estimator for the scenario's node, conditions and
    /// harvesting chain.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors for malformed architectures.
    pub fn new(scenario: &Scenario) -> Result<Self, CoreError> {
        Ok(Self {
            scenario: scenario.clone(),
            cache: scenario.cache()?,
        })
    }

    /// The node's consumption over one day of the pattern: driving at the
    /// mean speed plus standby for the remainder.
    ///
    /// # Errors
    ///
    /// Propagates pattern validation and evaluation errors.
    pub fn daily_consumption(&self, pattern: UsagePattern) -> Result<Energy, CoreError> {
        pattern.validate()?;
        let driving = self.cache.average_power(pattern.mean_speed)? * pattern.daily_driving;
        let parked_time = Duration::from_secs(SECONDS_PER_DAY) - pattern.daily_driving;
        let parked = self.cache.standby_power() * parked_time;
        Ok(driving + parked)
    }

    /// The chain's delivery over one day of the pattern.
    ///
    /// # Errors
    ///
    /// Propagates pattern validation errors.
    pub fn daily_harvest(&self, pattern: UsagePattern) -> Result<Energy, CoreError> {
        pattern.validate()?;
        Ok(self.scenario.chain().delivered_power(pattern.mean_speed) * pattern.daily_driving)
    }

    /// Days the battery survives under the pattern (day-stepped, capped
    /// at 20 years).
    ///
    /// # Errors
    ///
    /// Propagates pattern validation and evaluation errors.
    pub fn battery_days(
        &self,
        pattern: UsagePattern,
        mut battery: IdealBattery,
    ) -> Result<f64, CoreError> {
        let daily = self.daily_consumption(pattern)?;
        let one_day = Duration::from_hours(24.0);
        for day in 0..MAX_DAYS {
            if battery.withdraw(daily).is_err() {
                // Fraction of the final day covered by the remainder.
                let fraction = battery.available() / daily;
                return Ok(f64::from(day) + fraction.clamp(0.0, 1.0));
            }
            battery.self_discharge(one_day);
        }
        Ok(f64::from(MAX_DAYS))
    }

    /// Compares a primary battery against the scavenger over the tyre's
    /// wear life.
    ///
    /// # Errors
    ///
    /// Propagates pattern validation and evaluation errors.
    pub fn compare(
        &self,
        pattern: UsagePattern,
        battery: IdealBattery,
    ) -> Result<LifetimeReport, CoreError> {
        let daily_consumption = self.daily_consumption(pattern)?;
        let daily_harvest = self.daily_harvest(pattern)?;
        let battery_days = self.battery_days(pattern, battery)?;
        let tyre_days = TYRE_LIFE_KM / pattern.daily_distance().kilometres();

        Ok(LifetimeReport {
            daily_consumption,
            daily_harvest,
            battery_days,
            tyre_days,
            battery_outlives_tyre: battery_days >= tyre_days,
            scavenger_sustains: daily_harvest >= daily_consumption,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monityre_harvest::HarvestChain;
    use monityre_node::NodeConfig;
    use monityre_power::WorkingConditions;
    use monityre_units::Temperature;

    /// Full-rate monitoring on a warm tyre, the Cyber-Tyre-class load, fed
    /// by `chain`.
    fn full_rate(chain: HarvestChain) -> LifetimeEstimator {
        let scenario = Scenario::builder()
            .config(
                NodeConfig::reference()
                    .with_samples_per_round(512)
                    .with_tx_period_rounds(1)
                    .with_payload_bytes(64),
            )
            .conditions(
                WorkingConditions::reference().with_temperature(Temperature::from_celsius(45.0)),
            )
            .chain(chain)
            .build();
        LifetimeEstimator::new(&scenario).unwrap()
    }

    /// A harvester sized 1.5x for the full-rate load.
    fn sized_chain() -> HarvestChain {
        HarvestChain::new(
            monityre_harvest::PiezoScavenger::reference().scaled(1.5),
            monityre_harvest::Regulator::reference(),
            monityre_profile::Wheel::reference(),
        )
    }

    #[test]
    fn full_rate_monitoring_outlives_a_coin_cell() {
        let estimator = full_rate(sized_chain());
        let report = estimator
            .compare(
                UsagePattern::light_commuter(),
                IdealBattery::coin_cell_in_tyre(),
            )
            .unwrap();
        assert!(
            !report.battery_outlives_tyre,
            "battery {:.0} days vs tyre {:.0} days",
            report.battery_days, report.tyre_days
        );
        assert!(report.scavenger_sustains);
    }

    #[test]
    fn tpms_class_node_survives_on_a_cell() {
        // The nuance: a frugal TPMS-class configuration (few samples,
        // sparse TX) does fine on a battery — which is why plain TPMS
        // sensors ship with one.
        let scenario = Scenario::builder()
            .config(
                NodeConfig::reference()
                    .with_samples_per_round(32)
                    .with_tx_period_rounds(16)
                    .with_acquisition_fraction(0.03),
            )
            .build();
        let estimator = LifetimeEstimator::new(&scenario).unwrap();
        let report = estimator
            .compare(UsagePattern::commuter(), IdealBattery::coin_cell())
            .unwrap();
        assert!(report.battery_outlives_tyre);
    }

    #[test]
    fn long_haul_wears_the_tyre_before_anything_else() {
        let estimator = full_rate(HarvestChain::reference());
        let report = estimator
            .compare(UsagePattern::long_haul(), IdealBattery::coin_cell_in_tyre())
            .unwrap();
        assert!(
            report.tyre_days < 150.0,
            "tyre {:.0} days",
            report.tyre_days
        );
    }

    #[test]
    fn self_discharge_shortens_battery_life() {
        let estimator = full_rate(HarvestChain::reference());
        let pattern = UsagePattern::commuter();
        let shelf = estimator
            .battery_days(pattern, IdealBattery::coin_cell())
            .unwrap();
        let in_tyre = estimator
            .battery_days(pattern, IdealBattery::coin_cell_in_tyre())
            .unwrap();
        assert!(in_tyre < shelf, "in-tyre {in_tyre} vs shelf {shelf}");
    }

    #[test]
    fn daily_accounting_splits_driving_and_standby() {
        let estimator = full_rate(HarvestChain::reference());
        let pattern = UsagePattern::commuter();
        let consumption = estimator.daily_consumption(pattern).unwrap();
        let driving_only =
            estimator.cache.average_power(pattern.mean_speed).unwrap() * pattern.daily_driving;
        assert!(consumption > driving_only);
        assert!(consumption < driving_only * 2.0);
    }

    #[test]
    fn scavenger_fails_below_break_even() {
        let estimator = full_rate(HarvestChain::reference());
        let crawl = UsagePattern {
            daily_driving: Duration::from_hours(2.0),
            mean_speed: Speed::from_kmh(15.0),
        };
        let report = estimator.compare(crawl, IdealBattery::coin_cell()).unwrap();
        assert!(!report.scavenger_sustains);
    }

    #[test]
    fn rejects_invalid_patterns() {
        let estimator = full_rate(HarvestChain::reference());
        let bad_time = UsagePattern {
            daily_driving: Duration::ZERO,
            mean_speed: Speed::from_kmh(50.0),
        };
        assert!(estimator.daily_consumption(bad_time).is_err());
        let bad_speed = UsagePattern {
            daily_driving: Duration::from_hours(1.0),
            mean_speed: Speed::ZERO,
        };
        assert!(estimator.daily_harvest(bad_speed).is_err());
    }

    #[test]
    fn daily_distance() {
        let pattern = UsagePattern {
            daily_driving: Duration::from_hours(2.0),
            mean_speed: Speed::from_kmh(60.0),
        };
        assert!((pattern.daily_distance().kilometres() - 120.0).abs() < 1e-9);
    }
}
