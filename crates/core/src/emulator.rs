//! Long-window transient emulation.
//!
//! §II-A: "In order to evaluate the behavior of the Sensor Node within a
//! long timing window, a realistic model has been developed … It directly
//! interfaces with the energy profile of the scavenger device for a
//! dynamic comparison between the available energy and the required one.
//! After setting a desired cruising speed profile and Sensor Node
//! configuration, user can evaluate if the monitoring system can be active
//! during all the considered time. … The last step is useful for
//! identifying operating windows of the conceived monitoring system."

use monityre_harvest::Storage;
use monityre_profile::{ProfileSampler, SpeedProfile, TyreThermalModel};
use monityre_units::{Duration, Energy, Power, Speed, Temperature};

use crate::{CoreError, EvalCache, Scenario};

/// Emulator tuning: step size, activation hysteresis, thermal coupling.
#[derive(Debug, Clone, PartialEq)]
pub struct EmulatorConfig {
    /// Integration step (default 10 ms).
    pub step: Duration,
    /// State of charge at (or above) which the node switches on.
    pub activate_soc: f64,
    /// State of charge at (or below) which the node switches off.
    pub deactivate_soc: f64,
    /// Ambient temperature around the tyre.
    pub ambient: Temperature,
    /// Tyre self-heating model driving the leakage temperature.
    pub thermal: TyreThermalModel,
    /// Keep one recorded sample every this many steps (≥ 1).
    pub record_every: usize,
}

impl EmulatorConfig {
    /// Sensible defaults: 10 ms step, 35 %/15 % hysteresis, 25 °C ambient.
    #[must_use]
    pub fn new() -> Self {
        Self {
            step: Duration::from_millis(10.0),
            activate_soc: 0.35,
            deactivate_soc: 0.15,
            ambient: Temperature::from_celsius(25.0),
            thermal: TyreThermalModel::reference(),
            record_every: 10,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a non-positive step,
    /// inverted hysteresis, or zero record interval.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.step.secs() <= 0.0 || !self.step.is_finite() {
            return Err(CoreError::invalid_parameter("step must be positive"));
        }
        if !(0.0..=1.0).contains(&self.activate_soc)
            || !(0.0..=1.0).contains(&self.deactivate_soc)
            || self.deactivate_soc >= self.activate_soc
        {
            return Err(CoreError::invalid_parameter(
                "hysteresis must satisfy 0 <= deactivate < activate <= 1",
            ));
        }
        if self.record_every == 0 {
            return Err(CoreError::invalid_parameter(
                "record interval must be at least 1",
            ));
        }
        Ok(())
    }
}

impl Default for EmulatorConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// One recorded point of the emulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmulatorSample {
    /// Elapsed time.
    pub time: Duration,
    /// Vehicle speed.
    pub speed: Speed,
    /// Storage state of charge in `[0, 1]`.
    pub soc: f64,
    /// Whether the monitoring function was on.
    pub active: bool,
    /// Tyre (working) temperature.
    pub tyre_temperature: Temperature,
    /// Node power drawn at this instant (mode-average).
    pub node_power: Power,
}

/// A contiguous interval during which the node was active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingWindow {
    /// Window start.
    pub start: Duration,
    /// Window end.
    pub end: Duration,
}

impl OperatingWindow {
    /// The window's length.
    #[must_use]
    pub fn length(&self) -> Duration {
        self.end - self.start
    }
}

/// The emulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct EmulationReport {
    /// Decimated samples over the window.
    pub samples: Vec<EmulatorSample>,
    /// Extracted operating windows.
    pub windows: Vec<OperatingWindow>,
    /// Total usable energy deposited into storage (post-spill).
    pub harvested: Energy,
    /// Total energy drawn by the node.
    pub consumed: Energy,
    /// Energy the full reservoir could not absorb.
    pub spilled: Energy,
    /// Times the node browned out (withdrawal failed while active).
    pub brownouts: u32,
    /// The emulated span.
    pub span: Duration,
}

impl EmulationReport {
    /// Fraction of the span the node was active, in `[0, 1]`.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.span.secs() <= 0.0 {
            return 0.0;
        }
        let active: f64 = self.windows.iter().map(|w| w.length().secs()).sum();
        (active / self.span.secs()).clamp(0.0, 1.0)
    }

    /// Whether the node stayed active for the whole span — the question
    /// the paper's user asks ("user can evaluate if the monitoring system
    /// can be active during all the considered time").
    #[must_use]
    pub fn always_active(&self) -> bool {
        self.windows.len() == 1
            && self.windows[0].start.secs() == 0.0
            && (self.windows[0].end.secs() - self.span.secs()).abs() < 1e-6
    }
}

/// What one integration step moved through the storage element.
#[derive(Debug, Default)]
pub(crate) struct StepExchange {
    /// Inflow the storage absorbed.
    pub(crate) harvested: Energy,
    /// Inflow the full reservoir could not absorb.
    pub(crate) spilled: Energy,
    /// Energy actually withdrawn for the node.
    pub(crate) consumed: Energy,
    /// Whether the storage could not cover the whole demand.
    pub(crate) short: bool,
}

/// One step's storage exchange, shared by the emulator and the governor:
/// deposit `inflow` when positive, self-discharge over `step`, then
/// withdraw the demand `demand` prices at the resulting state of charge.
/// On a shortfall (a brownout) whatever is left is taken instead.
pub(crate) fn exchange<S: Storage>(
    storage: &mut S,
    inflow: Energy,
    step: Duration,
    demand: impl FnOnce(f64) -> Energy,
) -> StepExchange {
    let mut flow = StepExchange::default();
    if inflow > Energy::ZERO {
        let spill = storage.deposit(inflow);
        flow.harvested = inflow - spill;
        flow.spilled = spill;
    }
    storage.self_discharge(step);
    let demand = demand(storage.state_of_charge());
    match storage.withdraw(demand) {
        Ok(()) => flow.consumed = demand,
        Err(e) => {
            flow.short = true;
            let available = demand - e.shortfall();
            if available > Energy::ZERO && storage.withdraw(available).is_ok() {
                flow.consumed = available;
            }
        }
    }
    flow
}

/// The long-window emulator.
///
/// ```
/// use monityre_core::{EmulatorConfig, Scenario, TransientEmulator};
/// use monityre_harvest::Supercap;
/// use monityre_profile::ConstantProfile;
/// use monityre_units::{Duration, Speed};
///
/// let emulator = TransientEmulator::new(&Scenario::reference(), EmulatorConfig::new()).unwrap();
/// let cruise = ConstantProfile::new(Speed::from_kmh(90.0), Duration::from_mins(2.0));
/// let mut storage = Supercap::reference();
/// let report = emulator.run(&cruise, &mut storage);
/// assert!(report.coverage() > 0.9); // highway cruise keeps the node alive
/// ```
#[derive(Debug)]
pub struct TransientEmulator {
    scenario: Scenario,
    /// Priced under the scenario's conditions; each run re-prices a copy
    /// at every step's tyre temperature.
    cache: EvalCache,
    config: EmulatorConfig,
}

impl TransientEmulator {
    /// Creates an emulator over the scenario's architecture, chain and
    /// wheel.
    ///
    /// The temperature inside the scenario's conditions is ignored — the
    /// thermal model supplies the working temperature at every step.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an invalid config, or
    /// a lookup error for a malformed architecture.
    pub fn new(scenario: &Scenario, config: EmulatorConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(Self {
            scenario: scenario.clone(),
            cache: scenario.cache()?,
            config,
        })
    }

    /// The emulator configuration.
    #[must_use]
    pub fn config(&self) -> &EmulatorConfig {
        &self.config
    }

    /// Runs the emulation over `profile`, mutating `storage`.
    pub fn run<S: Storage>(&self, profile: &dyn SpeedProfile, storage: &mut S) -> EmulationReport {
        let dt = self.config.step;
        let chain = self.scenario.chain();
        let base_conditions = self.scenario.conditions();
        let mut cache = self.cache.clone();
        let mut tyre_temp = self.config.ambient;
        let mut active = storage.state_of_charge() >= self.config.activate_soc;

        let mut samples = Vec::new();
        let mut windows: Vec<OperatingWindow> = Vec::new();
        let mut window_start = if active { Some(Duration::ZERO) } else { None };

        let mut harvested = Energy::ZERO;
        let mut consumed = Energy::ZERO;
        let mut spilled = Energy::ZERO;
        let mut brownouts = 0u32;

        for (index, sample) in ProfileSampler::new(profile, dt).enumerate() {
            let t = sample.time;
            let v = sample.speed;
            let step = sample.step;

            // Thermal state drives the leakage term.
            tyre_temp = self
                .config
                .thermal
                .step(tyre_temp, v, self.config.ambient, step);
            cache.reprice(base_conditions.with_temperature(tyre_temp));

            let mut node_power = Power::ZERO;
            let flow = exchange(storage, chain.delivered_power(v) * step, step, |soc| {
                // Hysteresis on the state of charge.
                if active && soc <= self.config.deactivate_soc {
                    active = false;
                    if let Some(start) = window_start.take() {
                        windows.push(OperatingWindow { start, end: t });
                    }
                } else if !active && soc >= self.config.activate_soc {
                    active = true;
                    window_start = Some(t);
                }
                // Demand side.
                node_power = if active && v.mps() > 0.0 {
                    cache
                        .average_power(v)
                        .unwrap_or_else(|_| cache.standby_power())
                } else {
                    cache.standby_power()
                };
                node_power * step
            });
            harvested += flow.harvested;
            spilled += flow.spilled;
            consumed += flow.consumed;
            if flow.short && active {
                // Brownout: what was left is taken, the node shuts down.
                brownouts += 1;
                active = false;
                if let Some(start) = window_start.take() {
                    windows.push(OperatingWindow { start, end: t });
                }
            }

            if index % self.config.record_every == 0 {
                samples.push(EmulatorSample {
                    time: t,
                    speed: v,
                    soc: storage.state_of_charge(),
                    active,
                    tyre_temperature: tyre_temp,
                    node_power,
                });
            }
        }

        let span = profile.duration();
        if let Some(start) = window_start {
            windows.push(OperatingWindow { start, end: span });
        }

        EmulationReport {
            samples,
            windows,
            harvested,
            consumed,
            spilled,
            brownouts,
            span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monityre_harvest::Supercap;
    use monityre_profile::{CompositeProfile, ConstantProfile, UrbanCycle};
    use monityre_units::{Capacitance, Resistance, Voltage};

    fn emulator() -> TransientEmulator {
        TransientEmulator::new(&Scenario::reference(), EmulatorConfig::new()).unwrap()
    }

    #[test]
    fn highway_cruise_stays_active() {
        let emu = emulator();
        let cruise = ConstantProfile::new(Speed::from_kmh(110.0), Duration::from_mins(5.0));
        let mut storage = Supercap::reference();
        let report = emu.run(&cruise, &mut storage);
        assert!(report.coverage() > 0.95, "coverage {}", report.coverage());
        assert_eq!(report.brownouts, 0);
        assert!(report.harvested > report.consumed);
    }

    #[test]
    fn crawl_drains_and_deactivates() {
        let emu = emulator();
        // 8 km/h: above cut-in but deep in the deficit region.
        let crawl = ConstantProfile::new(Speed::from_kmh(8.0), Duration::from_mins(30.0));
        let mut storage = Supercap::reference();
        let report = emu.run(&crawl, &mut storage);
        assert!(report.coverage() < 0.8, "coverage {}", report.coverage());
        // Once off, it must not flap back on at this speed.
        let last = report.samples.last().unwrap();
        assert!(!last.active);
    }

    #[test]
    fn parked_node_goes_dark_but_survives_on_floor() {
        let emu = emulator();
        let parked = ConstantProfile::new(Speed::ZERO, Duration::from_hours(1.0));
        let mut storage = Supercap::reference();
        let soc0 = storage.state_of_charge();
        let report = emu.run(&parked, &mut storage);
        assert_eq!(report.harvested, Energy::ZERO);
        // Standby drain is tiny: SoC barely moves in an hour.
        assert!(storage.state_of_charge() > soc0 - 0.2);
    }

    #[test]
    fn urban_cycle_produces_multiple_windows_or_partial_coverage() {
        let emu = emulator();
        // Start the reservoir right at the activation threshold so the
        // stop-and-go cycle visibly modulates the node.
        let mut storage = Supercap::new(
            Capacitance::from_millifarads(10.0),
            Voltage::from_volts(1.8),
            Voltage::from_volts(3.6),
            Resistance::from_megaohms(5.0),
            Voltage::from_volts(2.3),
        );
        let trip = CompositeProfile::new(vec![
            Box::new(UrbanCycle::new()),
            Box::new(UrbanCycle::new()),
            Box::new(UrbanCycle::new()),
            Box::new(UrbanCycle::new()),
        ]);
        let report = emu.run(&trip, &mut storage);
        assert!(report.coverage() > 0.0 && report.coverage() < 1.0);
    }

    #[test]
    fn energy_conservation_with_negligible_self_discharge() {
        let emu = emulator();
        // Practically leak-free supercap isolates the accounting.
        let mut storage = Supercap::new(
            Capacitance::from_millifarads(47.0),
            Voltage::from_volts(1.8),
            Voltage::from_volts(3.6),
            Resistance::from_megaohms(1.0e9),
            Voltage::from_volts(2.7),
        );
        let before = storage.stored();
        let cruise = ConstantProfile::new(Speed::from_kmh(70.0), Duration::from_mins(3.0));
        let report = emu.run(&cruise, &mut storage);
        let after = storage.stored();
        let delta = after - before;
        let balance = report.harvested - report.consumed;
        assert!(
            delta.approx_eq(balance, 1e-3),
            "ΔE {delta} vs harvested−consumed {balance}"
        );
    }

    #[test]
    fn windows_are_ordered_and_within_span() {
        let emu = emulator();
        let trip = CompositeProfile::new(vec![
            Box::new(ConstantProfile::new(
                Speed::from_kmh(60.0),
                Duration::from_mins(2.0),
            )),
            Box::new(ConstantProfile::new(
                Speed::from_kmh(5.0),
                Duration::from_mins(20.0),
            )),
            Box::new(ConstantProfile::new(
                Speed::from_kmh(60.0),
                Duration::from_mins(2.0),
            )),
        ]);
        let mut storage = Supercap::reference();
        let report = emu.run(&trip, &mut storage);
        for w in &report.windows {
            assert!(w.start <= w.end);
            assert!(w.end.secs() <= report.span.secs() + 1e-9);
        }
        for pair in report.windows.windows(2) {
            assert!(pair[0].end <= pair[1].start);
        }
    }

    #[test]
    fn motorway_heats_the_tyre() {
        let emu = emulator();
        let cruise = ConstantProfile::new(Speed::from_kmh(130.0), Duration::from_mins(30.0));
        let mut storage = Supercap::reference();
        let report = emu.run(&cruise, &mut storage);
        let last = report.samples.last().unwrap();
        assert!(
            last.tyre_temperature.celsius() > 35.0,
            "tyre stayed at {}",
            last.tyre_temperature
        );
    }

    #[test]
    fn invalid_config_rejected() {
        let mut config = EmulatorConfig::new();
        config.activate_soc = 0.1;
        config.deactivate_soc = 0.5;
        assert!(TransientEmulator::new(&Scenario::reference(), config).is_err());
    }

    #[test]
    fn coverage_of_always_active_run_is_one() {
        let emu = emulator();
        let cruise = ConstantProfile::new(Speed::from_kmh(120.0), Duration::from_mins(1.0));
        let mut storage = Supercap::reference();
        let report = emu.run(&cruise, &mut storage);
        assert!(report.always_active());
        assert!((report.coverage() - 1.0).abs() < 1e-6);
    }
}
