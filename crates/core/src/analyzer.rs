//! Per-wheel-round energy evaluation.
//!
//! The step the paper calls the "evaluation tool that calculates the
//! contribute in term of energy consumption" (§II): power figures alone
//! are not enough, because "temporal aspects are not considered" — the
//! analyzer integrates each block's power over its duty-cycle schedule
//! within a wheel round, and adds the workload-proportional event energy.

use std::borrow::Cow;

use monityre_node::{Architecture, RoundSchedule};
use monityre_power::{EnergyBreakdown, PowerBreakdown, WorkingConditions};
use monityre_profile::Wheel;
use monityre_units::{Duration, DutyCycle, Energy, Power, Speed};

use crate::CoreError;

/// Rejects standstill, reversing and non-finite speeds, at which a wheel
/// round is undefined — the guard every evaluator shares.
pub(crate) fn ensure_rolling(speed: Speed) -> Result<(), CoreError> {
    if speed.mps() <= 0.0 || !speed.is_finite() {
        return Err(CoreError::round_undefined(speed.kmh()));
    }
    Ok(())
}

/// One block's speed-independent figures under fixed conditions, and
/// [`Self::breakdown`], the one place a block's per-round energy is
/// computed. The analyzer borrows the block's name and schedule for one
/// evaluation; [`crate::EvalCache`] keeps an owned copy
/// ([`Self::into_owned`]).
#[derive(Debug, Clone)]
pub(crate) struct BlockFigures<'a> {
    name: Cow<'a, str>,
    schedule: Cow<'a, RoundSchedule>,
    rest_power: PowerBreakdown,
    /// Power in each scheduled phase's mode, aligned with
    /// `schedule.phases()` (and therefore with `schedule.resolve(..)`).
    phase_powers: Vec<PowerBreakdown>,
    /// Pre-multiplied `per_event × count` workload contributions, in
    /// workload iteration order.
    event_contributions: Vec<Energy>,
}

impl<'a> BlockFigures<'a> {
    /// Looks up `name`'s plan and power model in `architecture` and
    /// evaluates every speed-independent figure under `conditions`.
    pub(crate) fn new(
        architecture: &'a Architecture,
        name: &'a str,
        conditions: &WorkingConditions,
    ) -> Result<Self, CoreError> {
        let plan = architecture.plan(name)?;
        let model = architecture.database().block(name)?;
        let schedule = plan.schedule();
        let rest_power = model.power(schedule.rest_mode(), conditions);
        let phase_powers = schedule
            .phases()
            .iter()
            .map(|phase| model.power(phase.mode, conditions))
            .collect();
        let event_contributions = plan
            .workload()
            .iter()
            .filter_map(|(kind, count)| Some(model.event_energy(kind, conditions)? * count))
            .collect();
        Ok(Self {
            name: Cow::Borrowed(name),
            schedule: Cow::Borrowed(schedule),
            rest_power,
            phase_powers,
            event_contributions,
        })
    }

    /// Detaches the figures from the architecture they were read from.
    pub(crate) fn into_owned(self) -> BlockFigures<'static> {
        BlockFigures {
            name: Cow::Owned(self.name.into_owned()),
            schedule: Cow::Owned(self.schedule.into_owned()),
            rest_power: self.rest_power,
            phase_powers: self.phase_powers,
            event_contributions: self.event_contributions,
        }
    }

    /// The block's energy over one round of `period`, split dynamic and
    /// leakage — the walk itself, which allocates nothing.
    ///
    /// The average over the phase recurrence periods is taken: a phase
    /// running every N rounds contributes `1/N` of its energy to each
    /// round, with the rest mode covering that span in the other rounds.
    pub(crate) fn breakdown(&self, period: Duration) -> EnergyBreakdown {
        // Baseline: the whole round in the rest mode…
        let mut energy = self.rest_power.over(period);
        // …corrected by each phase's amortized delta over the rest mode.
        for (phase, phase_power) in self.schedule.resolve(period).zip(&self.phase_powers) {
            let delta_dyn = phase_power.dynamic - self.rest_power.dynamic;
            let delta_leak = phase_power.leakage - self.rest_power.leakage;
            let share = phase.amortized_duration();
            energy.dynamic += delta_dyn * share;
            energy.leakage += delta_leak * share;
        }
        // Event energy is workload-proportional switching energy.
        for contribution in &self.event_contributions {
            energy.dynamic += *contribution;
        }
        energy
    }

    /// [`Self::breakdown`] labelled with the block's name and duty cycle,
    /// for the per-block reports.
    pub(crate) fn energy(&self, period: Duration) -> BlockEnergy {
        BlockEnergy {
            name: self.name.as_ref().to_owned(),
            energy: self.breakdown(period),
            duty_cycle: self.schedule.duty_cycle(period),
        }
    }
}

/// One block's per-round energy, with the inputs the advisor needs.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockEnergy {
    /// The block's name.
    pub name: String,
    /// Energy per wheel round, split dynamic/leakage.
    pub energy: EnergyBreakdown,
    /// The block's duty cycle in this round.
    pub duty_cycle: DutyCycle,
}

/// The whole node's per-round energy figure.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeEnergy {
    /// The evaluation speed.
    pub speed: Speed,
    /// The wheel-round period at that speed.
    pub round_period: Duration,
    /// Per-block figures, sorted by name.
    pub blocks: Vec<BlockEnergy>,
}

impl NodeEnergy {
    /// Total energy per round across blocks.
    #[must_use]
    pub fn total(&self) -> EnergyBreakdown {
        self.blocks.iter().map(|b| b.energy).sum()
    }

    /// Average node power over the round.
    #[must_use]
    pub fn average_power(&self) -> Power {
        self.total().total() / self.round_period
    }

    /// Looks up one block's figure.
    #[must_use]
    pub fn block(&self, name: &str) -> Option<&BlockEnergy> {
        self.blocks.iter().find(|b| b.name == name)
    }
}

/// Evaluates per-round energies for one architecture under fixed working
/// conditions.
///
/// ```
/// use monityre_core::EnergyAnalyzer;
/// use monityre_node::Architecture;
/// use monityre_power::WorkingConditions;
/// use monityre_units::Speed;
///
/// let arch = Architecture::reference();
/// let analyzer = EnergyAnalyzer::new(&arch, WorkingConditions::reference());
/// let energy = analyzer.node_energy(Speed::from_kmh(60.0)).unwrap();
/// // µJ-class budget per round for the reference node.
/// assert!(energy.total().total().microjoules() > 1.0);
/// assert!(energy.total().total().microjoules() < 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyAnalyzer<'a> {
    architecture: &'a Architecture,
    conditions: WorkingConditions,
    wheel: Wheel,
}

impl<'a> EnergyAnalyzer<'a> {
    /// Creates an analyzer on the reference wheel.
    #[must_use]
    pub fn new(architecture: &'a Architecture, conditions: WorkingConditions) -> Self {
        Self {
            architecture,
            conditions,
            wheel: Wheel::reference(),
        }
    }

    /// Returns a copy using a different wheel.
    #[must_use]
    pub fn with_wheel(mut self, wheel: Wheel) -> Self {
        self.wheel = wheel;
        self
    }

    /// The architecture under analysis.
    #[must_use]
    pub fn architecture(&self) -> &'a Architecture {
        self.architecture
    }

    /// The working conditions.
    #[must_use]
    pub fn conditions(&self) -> WorkingConditions {
        self.conditions
    }

    /// Returns a copy evaluated under different conditions.
    #[must_use]
    pub fn with_conditions(mut self, conditions: WorkingConditions) -> Self {
        self.conditions = conditions;
        self
    }

    /// The wheel.
    #[must_use]
    pub fn wheel(&self) -> &Wheel {
        &self.wheel
    }

    /// The wheel-round period at `speed`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] at standstill or below.
    pub fn round_period(&self, speed: Speed) -> Result<Duration, CoreError> {
        ensure_rolling(speed)?;
        Ok(self.wheel.round_period(speed))
    }

    /// One block's energy per wheel round at `speed` (see
    /// [`Self::node_energy`] for the whole node).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] at standstill, or a lookup
    /// error for unknown blocks.
    pub fn block_energy(&self, name: &str, speed: Speed) -> Result<BlockEnergy, CoreError> {
        let period = self.round_period(speed)?;
        Ok(BlockFigures::new(self.architecture, name, &self.conditions)?.energy(period))
    }

    /// The whole node's energy per wheel round at `speed`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] at standstill.
    pub fn node_energy(&self, speed: Speed) -> Result<NodeEnergy, CoreError> {
        let round_period = self.round_period(speed)?;
        let blocks = self
            .architecture
            .block_names()
            .map(|name| self.block_energy(name, speed))
            .collect::<Result<_, _>>()?;
        Ok(NodeEnergy {
            speed,
            round_period,
            blocks,
        })
    }

    /// Required energy per round at `speed` — the demand curve of Fig. 2.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] at standstill.
    pub fn required_per_round(&self, speed: Speed) -> Result<Energy, CoreError> {
        Ok(self.node_energy(speed)?.total().total())
    }

    /// Average node power while rolling at `speed`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] at standstill.
    pub fn average_power(&self, speed: Speed) -> Result<Power, CoreError> {
        Ok(self.node_energy(speed)?.average_power())
    }

    /// Node power while the monitoring function is *switched off*: every
    /// block falls to `Off` except the always-on power management, which
    /// keeps its rest behaviour. This is the floor the transient emulator
    /// charges while waiting for the energy balance to turn positive.
    #[must_use]
    pub fn standby_power(&self) -> Power {
        let mut total = Power::ZERO;
        for name in self.architecture.block_names() {
            let model = match self.architecture.database().block(name) {
                Ok(m) => m,
                Err(_) => continue,
            };
            let mode = if name == "pm" {
                self.architecture
                    .plan(name)
                    .map(|p| p.schedule().rest_mode())
                    .unwrap_or(monityre_power::OperatingMode::Sleep)
            } else {
                monityre_power::OperatingMode::Off
            };
            total += model.power(mode, &self.conditions).total();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monityre_power::ProcessCorner;
    use monityre_units::Temperature;

    fn reference() -> Architecture {
        Architecture::reference()
    }

    #[test]
    fn node_energy_is_microjoule_class() {
        let arch = reference();
        let analyzer = EnergyAnalyzer::new(&arch, WorkingConditions::reference());
        let e = analyzer.node_energy(Speed::from_kmh(60.0)).unwrap();
        let total = e.total().total();
        assert!(
            total.microjoules() > 5.0 && total.microjoules() < 50.0,
            "got {total}"
        );
    }

    #[test]
    fn standstill_is_rejected() {
        let arch = reference();
        let analyzer = EnergyAnalyzer::new(&arch, WorkingConditions::reference());
        assert!(matches!(
            analyzer.node_energy(Speed::ZERO),
            Err(CoreError::RoundUndefined { .. })
        ));
    }

    #[test]
    fn unknown_block_propagates() {
        let arch = reference();
        let analyzer = EnergyAnalyzer::new(&arch, WorkingConditions::reference());
        assert!(analyzer.block_energy("gpu", Speed::from_kmh(50.0)).is_err());
    }

    #[test]
    fn radio_energy_amortizes_tx_period() {
        let arch = reference();
        let analyzer = EnergyAnalyzer::new(&arch, WorkingConditions::reference());
        let sparse = analyzer
            .block_energy("radio", Speed::from_kmh(60.0))
            .unwrap();

        let dense_cfg = monityre_node::NodeConfig::reference().with_tx_period_rounds(1);
        let dense_arch = Architecture::from_config(dense_cfg);
        let dense_analyzer = EnergyAnalyzer::new(&dense_arch, WorkingConditions::reference());
        let dense = dense_analyzer
            .block_energy("radio", Speed::from_kmh(60.0))
            .unwrap();
        // Transmitting every round costs ~4× the every-4th-round budget.
        let ratio = dense.energy.total() / sparse.energy.total();
        assert!(ratio > 3.0 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn leakage_share_grows_at_low_speed() {
        let arch = reference();
        let analyzer = EnergyAnalyzer::new(&arch, WorkingConditions::reference());
        let slow = analyzer.node_energy(Speed::from_kmh(10.0)).unwrap().total();
        let fast = analyzer
            .node_energy(Speed::from_kmh(150.0))
            .unwrap()
            .total();
        assert!(slow.leakage > fast.leakage); // longer round ⇒ more idle leakage
    }

    #[test]
    fn hot_conditions_raise_leakage_energy() {
        let arch = reference();
        let cool = EnergyAnalyzer::new(&arch, WorkingConditions::reference());
        let hot = cool.clone().with_conditions(
            WorkingConditions::reference().with_temperature(Temperature::from_celsius(85.0)),
        );
        let v = Speed::from_kmh(50.0);
        let e_cool = cool.node_energy(v).unwrap().total();
        let e_hot = hot.node_energy(v).unwrap().total();
        assert!(e_hot.leakage > e_cool.leakage * 10.0);
        // Dynamic barely moves.
        assert!((e_hot.dynamic / e_cool.dynamic - 1.0).abs() < 0.05);
    }

    #[test]
    fn corner_shifts_total() {
        let arch = reference();
        let tt = EnergyAnalyzer::new(&arch, WorkingConditions::reference());
        let ff = tt
            .clone()
            .with_conditions(WorkingConditions::reference().with_corner(ProcessCorner::FastFast));
        let v = Speed::from_kmh(50.0);
        assert!(ff.required_per_round(v).unwrap() > tt.required_per_round(v).unwrap());
    }

    #[test]
    fn average_power_consistent_with_energy() {
        let arch = reference();
        let analyzer = EnergyAnalyzer::new(&arch, WorkingConditions::reference());
        let v = Speed::from_kmh(90.0);
        let e = analyzer.node_energy(v).unwrap();
        let p = analyzer.average_power(v).unwrap();
        let recomputed = e.total().total() / e.round_period;
        assert!(p.approx_eq(recomputed, 1e-12));
    }

    #[test]
    fn standby_power_is_sub_threshold() {
        let arch = reference();
        let analyzer = EnergyAnalyzer::new(&arch, WorkingConditions::reference());
        let standby = analyzer.standby_power();
        let rolling = analyzer.average_power(Speed::from_kmh(60.0)).unwrap();
        assert!(
            standby < rolling * 0.2,
            "standby {standby} rolling {rolling}"
        );
        assert!(standby > Power::ZERO);
    }

    #[test]
    fn duty_cycles_reported() {
        let arch = reference();
        let analyzer = EnergyAnalyzer::new(&arch, WorkingConditions::reference());
        let e = analyzer.node_energy(Speed::from_kmh(60.0)).unwrap();
        let radio = e.block("radio").unwrap();
        assert!(radio.duty_cycle.is_short());
        let pm = e.block("pm").unwrap();
        assert_eq!(pm.duty_cycle, DutyCycle::ALWAYS_ACTIVE);
    }

    #[test]
    fn block_energies_sum_to_total() {
        let arch = reference();
        let analyzer = EnergyAnalyzer::new(&arch, WorkingConditions::reference());
        let e = analyzer.node_energy(Speed::from_kmh(70.0)).unwrap();
        let sum: Energy = e.blocks.iter().map(|b| b.energy.total()).sum();
        assert!(sum.approx_eq(e.total().total(), 1e-12));
    }
}
