//! Four-corner vehicle emulation.
//!
//! The paper's system is per-wheel, but its purpose is vehicle-level:
//! "a real time monitoring system for tyre status analysis … and also for
//! operating conditions analysis (i.e., potential friction)" (§I).
//! Friction estimation needs *all four* corners reporting at once, so the
//! vehicle-level figure of merit is not one node's coverage but the
//! fraction of the trip during which **every** node is active. This
//! module runs the four emulations against a shared speed profile with
//! per-corner parameter spreads and computes exactly that.

use monityre_harvest::Supercap;
use monityre_profile::{SpeedProfile, TyreThermalModel};
use monityre_units::Duration;

use crate::{
    CoreError, EmulationReport, EmulatorConfig, Scenario, SweepExecutor, TransientEmulator,
};

/// The four wheel stations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WheelPosition {
    /// Front left.
    FrontLeft,
    /// Front right.
    FrontRight,
    /// Rear left.
    RearLeft,
    /// Rear right.
    RearRight,
}

impl WheelPosition {
    /// All four corners.
    pub const ALL: [Self; 4] = [
        Self::FrontLeft,
        Self::FrontRight,
        Self::RearLeft,
        Self::RearRight,
    ];

    /// Whether the wheel is on the (more loaded, hotter) front axle of a
    /// front-engined car.
    #[must_use]
    pub fn is_front(self) -> bool {
        matches!(self, Self::FrontLeft | Self::FrontRight)
    }

    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::FrontLeft => "FL",
            Self::FrontRight => "FR",
            Self::RearLeft => "RL",
            Self::RearRight => "RR",
        }
    }
}

/// Per-corner spread applied to the reference node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerSetup {
    /// The wheel station.
    pub position: WheelPosition,
    /// Scavenger size/efficiency spread (1.0 = nominal).
    pub scavenger_scale: f64,
    /// Thermal heating-coefficient spread (front axle runs hotter).
    pub thermal_scale: f64,
}

impl CornerSetup {
    /// The reference spread: front axle heats ≈ 15 % more; scavengers
    /// spread ±4 % left/right (mounting/tolerance).
    #[must_use]
    pub fn reference() -> [Self; 4] {
        [
            Self {
                position: WheelPosition::FrontLeft,
                scavenger_scale: 1.04,
                thermal_scale: 1.15,
            },
            Self {
                position: WheelPosition::FrontRight,
                scavenger_scale: 0.96,
                thermal_scale: 1.15,
            },
            Self {
                position: WheelPosition::RearLeft,
                scavenger_scale: 1.02,
                thermal_scale: 1.0,
            },
            Self {
                position: WheelPosition::RearRight,
                scavenger_scale: 0.98,
                thermal_scale: 1.0,
            },
        ]
    }
}

/// The vehicle-level emulation outcome.
#[derive(Debug)]
pub struct VehicleReport {
    /// Per-corner emulation reports, in [`WheelPosition::ALL`] order.
    pub corners: Vec<(WheelPosition, EmulationReport)>,
    /// Fraction of the trip during which **all four** nodes were active —
    /// the availability of vehicle-level friction estimation.
    pub all_active_fraction: f64,
    /// Fraction of the trip during which at least one node was active.
    pub any_active_fraction: f64,
}

impl VehicleReport {
    /// The corner with the worst coverage (the availability bottleneck).
    ///
    /// # Panics
    ///
    /// Never panics: a report always carries four corners.
    #[must_use]
    pub fn bottleneck(&self) -> WheelPosition {
        self.corners
            .iter()
            .min_by(|a, b| a.1.coverage().total_cmp(&b.1.coverage()))
            .expect("four corners by construction")
            .0
    }
}

/// Runs the four per-wheel emulations against one speed profile.
///
/// Each corner derives its chain from the scenario's chain (scaled by the
/// corner's scavenger spread), so one [`Scenario`] describes the whole
/// vehicle.
///
/// ```
/// use monityre_core::VehicleEmulator;
/// use monityre_profile::ConstantProfile;
/// use monityre_units::{Duration, Speed};
///
/// let emulator = VehicleEmulator::reference();
/// let cruise = ConstantProfile::new(Speed::from_kmh(100.0), Duration::from_mins(3.0));
/// let report = emulator.run(&cruise).unwrap();
/// assert!(report.all_active_fraction > 0.9);
/// ```
#[derive(Debug)]
pub struct VehicleEmulator {
    scenario: Scenario,
    config: EmulatorConfig,
    corners: [CornerSetup; 4],
}

impl VehicleEmulator {
    /// The reference vehicle: the reference scenario at every corner with
    /// the reference spreads.
    #[must_use]
    pub fn reference() -> Self {
        Self::new(
            &Scenario::reference(),
            EmulatorConfig::new(),
            CornerSetup::reference(),
        )
    }

    /// Builds a custom vehicle.
    #[must_use]
    pub fn new(scenario: &Scenario, config: EmulatorConfig, corners: [CornerSetup; 4]) -> Self {
        Self {
            scenario: scenario.clone(),
            config,
            corners,
        }
    }

    /// The per-corner base session.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Runs the trip on all four corners serially.
    ///
    /// # Errors
    ///
    /// Propagates emulator configuration errors.
    pub fn run(&self, profile: &(dyn SpeedProfile + Sync)) -> Result<VehicleReport, CoreError> {
        self.run_with(profile, &SweepExecutor::serial())
    }

    /// Runs the trip with the corners fanned out on `executor`'s workers.
    /// Corners are independent, so the report is bit-identical to
    /// [`Self::run`] for any thread count.
    ///
    /// # Errors
    ///
    /// Propagates emulator configuration errors.
    pub fn run_with(
        &self,
        profile: &(dyn SpeedProfile + Sync),
        executor: &SweepExecutor,
    ) -> Result<VehicleReport, CoreError> {
        let outcomes = executor.map(&self.corners, |_, setup| {
            self.emulate_corner(setup, profile)
        });
        let mut corners = Vec::with_capacity(4);
        for outcome in outcomes {
            corners.push(outcome?);
        }

        let span = profile.duration();
        let all_active = overlap_fraction(&corners, span, true);
        let any_active = overlap_fraction(&corners, span, false);

        Ok(VehicleReport {
            corners,
            all_active_fraction: all_active,
            any_active_fraction: any_active,
        })
    }

    /// One corner's emulation: the scenario's chain scaled by the corner's
    /// scavenger spread, the thermal model scaled by the axle spread.
    fn emulate_corner(
        &self,
        setup: &CornerSetup,
        profile: &dyn SpeedProfile,
    ) -> Result<(WheelPosition, EmulationReport), CoreError> {
        let chain = self.scenario.chain().scaled(setup.scavenger_scale);
        let mut config = self.config.clone();
        config.thermal = TyreThermalModel::new(
            config.thermal.heating_coefficient() * setup.thermal_scale,
            config.thermal.time_constant(),
        );
        let emulator = TransientEmulator::new(&self.scenario.with_chain(chain), config)?;
        let mut storage = Supercap::reference();
        let report = emulator.run(profile, &mut storage);
        Ok((setup.position, report))
    }
}

/// Fraction of the span covered by the intersection (`all = true`) or
/// union (`all = false`) of the corners' operating windows, measured on a
/// fine uniform grid.
fn overlap_fraction(
    corners: &[(WheelPosition, EmulationReport)],
    span: Duration,
    all: bool,
) -> f64 {
    const GRID: usize = 4096;
    if span.secs() <= 0.0 {
        return 0.0;
    }
    let mut covered = 0usize;
    for i in 0..GRID {
        let t = span.secs() * (i as f64 + 0.5) / GRID as f64;
        let mut active_count = 0;
        for (_, report) in corners {
            if report
                .windows
                .iter()
                .any(|w| t >= w.start.secs() && t < w.end.secs())
            {
                active_count += 1;
            }
        }
        let hit = if all {
            active_count == corners.len()
        } else {
            active_count > 0
        };
        if hit {
            covered += 1;
        }
    }
    covered as f64 / GRID as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use monityre_profile::{CompositeProfile, ConstantProfile, RepeatProfile, UrbanCycle};
    use monityre_units::Speed;

    #[test]
    fn cruise_keeps_all_corners_alive() {
        let emulator = VehicleEmulator::reference();
        let cruise = ConstantProfile::new(Speed::from_kmh(110.0), Duration::from_mins(3.0));
        let report = emulator.run(&cruise).unwrap();
        assert_eq!(report.corners.len(), 4);
        assert!(
            report.all_active_fraction > 0.9,
            "{}",
            report.all_active_fraction
        );
    }

    #[test]
    fn all_active_bounded_by_worst_corner() {
        let emulator = VehicleEmulator::reference();
        let trip = CompositeProfile::new(vec![
            Box::new(RepeatProfile::new(UrbanCycle::new(), 2)),
            Box::new(ConstantProfile::new(
                Speed::from_kmh(90.0),
                Duration::from_mins(2.0),
            )),
        ]);
        let report = emulator.run(&trip).unwrap();
        let worst = report
            .corners
            .iter()
            .map(|(_, r)| r.coverage())
            .fold(1.0f64, f64::min);
        assert!(report.all_active_fraction <= worst + 1e-6);
        assert!(report.any_active_fraction + 1e-6 >= worst);
        assert!(report.all_active_fraction <= report.any_active_fraction + 1e-6);
    }

    #[test]
    fn bottleneck_is_a_real_corner() {
        let emulator = VehicleEmulator::reference();
        let cruise = ConstantProfile::new(Speed::from_kmh(50.0), Duration::from_mins(2.0));
        let report = emulator.run(&cruise).unwrap();
        assert!(WheelPosition::ALL.contains(&report.bottleneck()));
    }

    #[test]
    fn front_axle_runs_hotter() {
        let emulator = VehicleEmulator::reference();
        let cruise = ConstantProfile::new(Speed::from_kmh(130.0), Duration::from_mins(30.0));
        let report = emulator.run(&cruise).unwrap();
        let temp_of = |pos: WheelPosition| {
            report
                .corners
                .iter()
                .find(|(p, _)| *p == pos)
                .unwrap()
                .1
                .samples
                .last()
                .unwrap()
                .tyre_temperature
        };
        assert!(temp_of(WheelPosition::FrontLeft) > temp_of(WheelPosition::RearLeft));
    }

    #[test]
    fn positions_have_unique_labels() {
        let mut labels: Vec<_> = WheelPosition::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn parallel_corners_match_serial() {
        let emulator = VehicleEmulator::reference();
        let cruise = ConstantProfile::new(Speed::from_kmh(80.0), Duration::from_mins(2.0));
        let serial = emulator.run(&cruise).unwrap();
        let parallel = emulator.run_with(&cruise, &SweepExecutor::new(4)).unwrap();
        assert_eq!(parallel.corners.len(), serial.corners.len());
        for ((sp, sr), (pp, pr)) in serial.corners.iter().zip(&parallel.corners) {
            assert_eq!(sp, pp);
            assert_eq!(sr.coverage().to_bits(), pr.coverage().to_bits());
            assert_eq!(sr.windows.len(), pr.windows.len());
        }
        assert_eq!(
            serial.all_active_fraction.to_bits(),
            parallel.all_active_fraction.to_bits()
        );
    }
}
