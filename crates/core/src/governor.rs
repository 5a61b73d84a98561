//! Adaptive configuration governor.
//!
//! §II-A closes the loop by hand: "user can evaluate if the monitoring
//! system can be active during all the considered time. Otherwise, some
//! parameters should be modified in order to reach a positive energy
//! balance." This module automates that modification at run time: instead
//! of a binary on/off node, a ladder of configurations (full-rate →
//! reduced → TPMS-class) selected by the storage state of charge, so the
//! node *degrades gracefully* through deficits instead of going dark.

use monityre_harvest::Storage;
use monityre_node::{Architecture, NodeConfig};
use monityre_profile::{ProfileSampler, SpeedProfile};
use monityre_units::{Duration, Energy, Power};

use crate::emulator::exchange;
use crate::{CoreError, EvalCache, Scenario};

/// One rung of the governor's ladder.
#[derive(Debug, Clone)]
pub struct GovernorLevel {
    /// Human-readable label for reports.
    pub label: String,
    /// State of charge at (or above) which this level may run.
    pub min_soc: f64,
    /// The node configuration at this level.
    pub config: NodeConfig,
}

/// The governed emulation outcome.
#[derive(Debug, Clone)]
pub struct GovernedReport {
    /// Time spent in each level (index-aligned with the ladder), plus a
    /// final slot for "off".
    pub level_time: Vec<Duration>,
    /// Samples acquired over the whole window (the monitoring *quality*
    /// metric — what the vehicle actually received).
    pub samples_acquired: f64,
    /// Total energy harvested (post-spill).
    pub harvested: Energy,
    /// Total energy consumed.
    pub consumed: Energy,
    /// Number of level switches (thrash indicator).
    pub switches: u32,
    /// The emulated span.
    pub span: Duration,
}

impl GovernedReport {
    /// Fraction of the span with *any* monitoring running.
    #[must_use]
    pub fn active_fraction(&self) -> f64 {
        if self.span.secs() <= 0.0 {
            return 0.0;
        }
        let off = self.level_time.last().map_or(0.0, |d| d.secs());
        ((self.span.secs() - off) / self.span.secs()).clamp(0.0, 1.0)
    }
}

/// Runs a speed profile against a ladder of configurations selected by
/// the storage state of charge.
///
/// Levels must be ordered from highest to lowest `min_soc`; the governor
/// picks the *first* level whose threshold the current SoC meets, with a
/// small hysteresis band (2 % SoC) to avoid thrashing. Below every
/// threshold the node is off (standby only). The harvest chain, the
/// working conditions and the wheel all come from the [`Scenario`].
///
/// ```
/// use monityre_core::{Governor, Scenario};
/// use monityre_harvest::Supercap;
/// use monityre_profile::ConstantProfile;
/// use monityre_units::{Duration, Speed};
///
/// let governor = Governor::reference_ladder(&Scenario::reference());
/// let cruise = ConstantProfile::new(Speed::from_kmh(90.0), Duration::from_mins(2.0));
/// let mut storage = Supercap::reference();
/// let report = governor.run(&cruise, &mut storage).unwrap();
/// assert!(report.active_fraction() > 0.9);
/// ```
#[derive(Debug)]
pub struct Governor {
    scenario: Scenario,
    levels: Vec<GovernorLevel>,
    /// One cache per level, priced once: the conditions never change.
    caches: Vec<EvalCache>,
    step: Duration,
    hysteresis: f64,
}

impl Governor {
    /// Builds a governor from a ladder of levels over one scenario.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when the ladder is empty,
    /// thresholds are outside `[0, 1]`, or not strictly decreasing, and
    /// propagates lookup errors for malformed architectures.
    pub fn new(scenario: &Scenario, levels: Vec<GovernorLevel>) -> Result<Self, CoreError> {
        if levels.is_empty() {
            return Err(CoreError::invalid_parameter("governor needs >= 1 level"));
        }
        for level in &levels {
            if !(0.0..=1.0).contains(&level.min_soc) {
                return Err(CoreError::invalid_parameter(
                    "level thresholds must lie in [0, 1]",
                ));
            }
        }
        if levels.windows(2).any(|w| w[0].min_soc <= w[1].min_soc) {
            return Err(CoreError::invalid_parameter(
                "level thresholds must be strictly decreasing",
            ));
        }
        let caches = levels
            .iter()
            .map(|l| {
                scenario
                    .with_architecture(Architecture::from_config(l.config))
                    .cache()
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            scenario: scenario.clone(),
            levels,
            caches,
            step: Duration::from_millis(10.0),
            hysteresis: 0.02,
        })
    }

    /// The reference three-rung ladder: full-rate above 50 % SoC, the
    /// reference configuration above 30 %, a TPMS-class trickle above
    /// 12 %, off below.
    ///
    /// # Panics
    ///
    /// Never panics: the reference ladder is statically valid.
    #[must_use]
    pub fn reference_ladder(scenario: &Scenario) -> Self {
        Self::new(
            scenario,
            vec![
                GovernorLevel {
                    label: "full-rate".to_owned(),
                    min_soc: 0.50,
                    config: NodeConfig::reference()
                        .with_samples_per_round(512)
                        .with_tx_period_rounds(2),
                },
                GovernorLevel {
                    label: "reference".to_owned(),
                    min_soc: 0.30,
                    config: NodeConfig::reference(),
                },
                GovernorLevel {
                    label: "tpms-class".to_owned(),
                    min_soc: 0.12,
                    config: NodeConfig::reference()
                        .with_samples_per_round(32)
                        .with_tx_period_rounds(16)
                        .with_acquisition_fraction(0.03),
                },
            ],
        )
        .expect("reference ladder is valid")
    }

    /// The ladder's levels.
    #[must_use]
    pub fn levels(&self) -> &[GovernorLevel] {
        &self.levels
    }

    /// The evaluation session the governor runs in.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Runs the governed emulation.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn run<S: Storage>(
        &self,
        profile: &dyn SpeedProfile,
        storage: &mut S,
    ) -> Result<GovernedReport, CoreError> {
        let chain = self.scenario.chain();
        let off_index = self.levels.len();
        let mut level_time = vec![Duration::ZERO; off_index + 1];
        let mut samples_acquired = 0.0f64;
        let mut harvested = Energy::ZERO;
        let mut consumed = Energy::ZERO;
        let mut switches = 0u32;
        let mut current: usize = off_index;

        for sample in ProfileSampler::new(profile, self.step) {
            let v = sample.speed;
            let dt = sample.step;

            let mut rate = 0.0f64;
            let flow = exchange(storage, chain.delivered_power(v) * dt, dt, |soc| {
                // Level selection with hysteresis: moving *up* requires the
                // threshold plus the band; staying only the threshold.
                let mut selected = off_index;
                for (i, level) in self.levels.iter().enumerate() {
                    let needed = if i < current {
                        level.min_soc + self.hysteresis
                    } else {
                        level.min_soc
                    };
                    if soc >= needed {
                        selected = i;
                        break;
                    }
                }
                if selected != current {
                    switches += 1;
                    current = selected;
                }

                // Demand at the selected level.
                let power: Power = if current < off_index && v.mps() > 0.0 {
                    let cache = &self.caches[current];
                    let rounds_per_sec = chain.wheel().rounds_per_second(v).hertz();
                    rate =
                        f64::from(self.levels[current].config.samples_per_round()) * rounds_per_sec;
                    cache
                        .average_power(v)
                        .unwrap_or_else(|_| cache.standby_power())
                } else if current < off_index {
                    self.caches[current].standby_power()
                } else {
                    self.caches[0].standby_power()
                };
                power * dt
            });
            harvested += flow.harvested;
            consumed += flow.consumed;
            if !flow.short {
                samples_acquired += rate * dt.secs();
            } else if current != off_index {
                switches += 1;
                current = off_index;
            }
            level_time[current] += dt;
        }

        Ok(GovernedReport {
            level_time,
            samples_acquired,
            harvested,
            consumed,
            switches,
            span: profile.duration(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monityre_harvest::Supercap;
    use monityre_profile::{CompositeProfile, ConstantProfile, UrbanCycle, WltcLikeCycle};
    use monityre_units::Speed;

    fn fixture() -> Governor {
        Governor::reference_ladder(&Scenario::reference())
    }

    #[test]
    fn highway_runs_full_rate() {
        let governor = fixture();
        let cruise = ConstantProfile::new(Speed::from_kmh(120.0), Duration::from_mins(5.0));
        let mut storage = Supercap::reference();
        let report = governor.run(&cruise, &mut storage).unwrap();
        // Starts at 50 % SoC: full-rate from the first step, surplus keeps
        // it there.
        let full = report.level_time[0].secs();
        assert!(full / report.span.secs() > 0.9, "full-rate share {full}");
        assert!(report.active_fraction() > 0.99);
    }

    #[test]
    fn crawl_degrades_instead_of_dying() {
        let governor = fixture();
        // 12 km/h: deep deficit for full-rate, near break-even for the
        // TPMS-class trickle.
        let crawl = ConstantProfile::new(Speed::from_kmh(12.0), Duration::from_mins(40.0));
        let mut storage = Supercap::reference();
        let report = governor.run(&crawl, &mut storage).unwrap();
        // The node must pass through the lower rungs.
        assert!(
            report.level_time[2].secs() > 60.0,
            "tpms time {:?}",
            report.level_time
        );
        // And keep acquiring *some* samples late in the window.
        assert!(report.samples_acquired > 0.0);
    }

    #[test]
    fn governed_node_outlives_static_full_rate() {
        // Static full-rate on an urban crawl dies; the governed ladder
        // keeps monitoring (at reduced quality) for longer.
        let governor = fixture();
        let trip = CompositeProfile::new(vec![
            Box::new(UrbanCycle::new()),
            Box::new(UrbanCycle::new()),
            Box::new(UrbanCycle::new()),
            Box::new(UrbanCycle::new()),
        ]);

        let mut governed_storage = Supercap::reference();
        let governed = governor.run(&trip, &mut governed_storage).unwrap();

        let static_full = Governor::new(
            &Scenario::reference(),
            vec![GovernorLevel {
                label: "full-rate-only".to_owned(),
                min_soc: 0.15,
                config: NodeConfig::reference()
                    .with_samples_per_round(512)
                    .with_tx_period_rounds(2),
            }],
        )
        .unwrap();
        let mut static_storage = Supercap::reference();
        let static_report = static_full.run(&trip, &mut static_storage).unwrap();

        assert!(
            governed.active_fraction() >= static_report.active_fraction(),
            "governed {} vs static {}",
            governed.active_fraction(),
            static_report.active_fraction()
        );
    }

    #[test]
    fn wltc_mix_visits_multiple_levels() {
        let governor = fixture();
        let mut storage = Supercap::reference();
        let report = governor.run(&WltcLikeCycle::new(), &mut storage).unwrap();
        let visited = report
            .level_time
            .iter()
            .take(governor.levels().len())
            .filter(|d| d.secs() > 1.0)
            .count();
        assert!(visited >= 2, "level times {:?}", report.level_time);
        assert!(report.switches > 0);
    }

    #[test]
    fn level_times_tile_the_span() {
        let governor = fixture();
        let cruise = ConstantProfile::new(Speed::from_kmh(60.0), Duration::from_mins(3.0));
        let mut storage = Supercap::reference();
        let report = governor.run(&cruise, &mut storage).unwrap();
        let total: f64 = report.level_time.iter().map(|d| d.secs()).sum();
        assert!((total - report.span.secs()).abs() < 1e-6);
    }

    #[test]
    fn ladder_validation() {
        let scenario = Scenario::reference();
        assert!(Governor::new(&scenario, vec![]).is_err());
        let unordered = vec![
            GovernorLevel {
                label: "a".into(),
                min_soc: 0.3,
                config: NodeConfig::reference(),
            },
            GovernorLevel {
                label: "b".into(),
                min_soc: 0.5,
                config: NodeConfig::reference(),
            },
        ];
        assert!(Governor::new(&scenario, unordered).is_err());
        let bad_threshold = vec![GovernorLevel {
            label: "a".into(),
            min_soc: 1.5,
            config: NodeConfig::reference(),
        }];
        assert!(Governor::new(&scenario, bad_threshold).is_err());
    }
}
