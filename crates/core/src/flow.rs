//! The energy analysis flow of the paper's Fig. 1, as an executable
//! pipeline.
//!
//! > architecture definition → per-block power estimation → energy
//! > evaluation → optimization (advisor) → re-estimation → energy-source
//! > integration → long-window emulation → operating windows.
//!
//! Each stage's artifact is kept in the [`FlowReport`], so a harness can
//! print the same intermediate results the paper's tool surfaces.

use monityre_harvest::{Storage, Supercap};
use monityre_power::{OperatingMode, PowerBreakdown};
use monityre_profile::SpeedProfile;
use monityre_units::Speed;

use crate::{
    BalanceReport, CoreError, EmulationReport, EmulatorConfig, EnergyBalance, NodeEnergy,
    NodeOptimization, Scenario, SelectionPolicy, SweepExecutor, TransientEmulator,
};

/// The complete artifact trail of one flow execution.
#[derive(Debug)]
pub struct FlowReport {
    /// Stage 1 — per-block active-mode power estimates.
    pub power_estimates: Vec<(String, PowerBreakdown)>,
    /// Stage 2 — per-round energy evaluation of the initial architecture.
    pub initial_energy: NodeEnergy,
    /// Stage 3+4 — optimization and re-estimation.
    pub optimization: NodeOptimization,
    /// Stage 5 — energy balance of the *optimized* node vs speed.
    pub balance: BalanceReport,
    /// Stage 5 (baseline) — balance of the unoptimized node, for the
    /// break-even comparison.
    pub balance_before: BalanceReport,
    /// Stage 6 — long-window emulation of the optimized node.
    pub emulation: EmulationReport,
}

impl FlowReport {
    /// Break-even speed before optimization, if the curves cross.
    #[must_use]
    pub fn break_even_before(&self) -> Option<Speed> {
        self.balance_before.break_even()
    }

    /// Break-even speed after optimization, if the curves cross.
    #[must_use]
    pub fn break_even_after(&self) -> Option<Speed> {
        self.balance.break_even()
    }

    /// A multi-line textual summary of every stage (what the fig1 harness
    /// prints).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str("== Stage 1: power estimation (active mode) ==\n");
        for (name, p) in &self.power_estimates {
            out.push_str(&format!("  {name:<8} {p}\n"));
        }
        out.push_str("== Stage 2: energy evaluation (per wheel round) ==\n");
        for b in &self.initial_energy.blocks {
            out.push_str(&format!(
                "  {:<8} {}  (duty {})\n",
                b.name, b.energy, b.duty_cycle
            ));
        }
        out.push_str(&format!("  total    {}\n", self.initial_energy.total()));
        out.push_str("== Stage 3: optimization ==\n");
        for rec in &self.optimization.recommendations {
            out.push_str(&format!("  {:<8} {}\n", rec.block, rec.rationale));
        }
        out.push_str(&format!(
            "== Stage 4: re-estimation == {} -> {} ({:.1} % saved)\n",
            self.optimization.energy_before,
            self.optimization.energy_after,
            self.optimization.saving() * 100.0
        ));
        out.push_str("== Stage 5: source integration ==\n");
        out.push_str(&format!(
            "  break-even before {:?}, after {:?}\n",
            self.break_even_before().map(|s| s.kmh()),
            self.break_even_after().map(|s| s.kmh())
        ));
        out.push_str("== Stage 6: long-window emulation ==\n");
        out.push_str(&format!(
            "  coverage {:.1} %, {} operating window(s), {} brownout(s)\n",
            self.emulation.coverage() * 100.0,
            self.emulation.windows.len(),
            self.emulation.brownouts
        ));
        out
    }
}

/// The Fig. 1 pipeline runner over one [`Scenario`].
///
/// ```
/// use monityre_core::{Flow, Scenario, SelectionPolicy};
/// use monityre_profile::ConstantProfile;
/// use monityre_units::{Duration, Speed};
///
/// let flow = Flow::new(
///     &Scenario::reference(),
///     Speed::from_kmh(30.0),
///     SelectionPolicy::DutyCycleAware,
/// );
/// let profile = ConstantProfile::new(Speed::from_kmh(60.0), Duration::from_mins(1.0));
/// let report = flow.run(&profile).unwrap();
/// assert!(report.optimization.saving() > 0.0);
/// ```
#[derive(Debug)]
pub struct Flow {
    scenario: Scenario,
    design_speed: Speed,
    policy: SelectionPolicy,
    emulator_config: EmulatorConfig,
    executor: SweepExecutor,
}

impl Flow {
    /// Creates a flow over a scenario: the paper's "entry point of this
    /// flow is the definition of the architecture".
    #[must_use]
    pub fn new(scenario: &Scenario, design_speed: Speed, policy: SelectionPolicy) -> Self {
        Self {
            scenario: scenario.clone(),
            design_speed,
            policy,
            emulator_config: EmulatorConfig::new(),
            executor: SweepExecutor::serial(),
        }
    }

    /// Overrides the emulator configuration for stage 6.
    #[must_use]
    pub fn with_emulator_config(mut self, config: EmulatorConfig) -> Self {
        self.emulator_config = config;
        self
    }

    /// Runs stage-5 sweeps on `executor` (bit-identical to serial).
    #[must_use]
    pub fn with_executor(mut self, executor: SweepExecutor) -> Self {
        self.executor = executor;
        self
    }

    /// The evaluation session this flow runs in.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Runs every stage with the default reservoir (reference supercap).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from any stage.
    pub fn run(&self, profile: &dyn SpeedProfile) -> Result<FlowReport, CoreError> {
        let mut storage = Supercap::reference();
        self.run_with_storage(profile, &mut storage)
    }

    /// Runs every stage against a caller-supplied storage element.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from any stage.
    pub fn run_with_storage<S: Storage>(
        &self,
        profile: &dyn SpeedProfile,
        storage: &mut S,
    ) -> Result<FlowReport, CoreError> {
        let architecture = self.scenario.architecture();
        let conditions = self.scenario.conditions();

        // Stage 1: power estimation.
        let mut power_estimates = Vec::new();
        for name in architecture.block_names() {
            let p =
                architecture
                    .database()
                    .block_power(name, OperatingMode::Active, &conditions)?;
            power_estimates.push((name.to_owned(), p));
        }

        // Stage 2: energy evaluation.
        let initial_energy = self.scenario.cache()?.node_energy(self.design_speed)?;

        // Stages 3 + 4: optimization and re-estimation.
        let advisor = crate::OptimizationAdvisor::new(&self.scenario, self.design_speed)?;
        let optimization = advisor.optimize(self.policy)?;
        let optimized = self
            .scenario
            .with_architecture(optimization.architecture.clone());

        // Stage 5: energy-source integration (both architectures).
        let balance_before = self.stage5_sweep(&self.scenario)?;
        let balance = self.stage5_sweep(&optimized)?;

        // Stage 6: long-window emulation of the optimized node.
        let emulator = TransientEmulator::new(&optimized, self.emulator_config.clone())?;
        let emulation = emulator.run(profile, storage);

        Ok(FlowReport {
            power_estimates,
            initial_energy,
            optimization,
            balance,
            balance_before,
            emulation,
        })
    }

    /// The stage-5 balance sweep for one candidate session.
    fn stage5_sweep(&self, session: &Scenario) -> Result<BalanceReport, CoreError> {
        Ok(EnergyBalance::new(session)?.sweep_with(
            Speed::from_kmh(5.0),
            Speed::from_kmh(200.0),
            118,
            &self.executor,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monityre_profile::ConstantProfile;
    use monityre_units::Duration;

    fn run_reference() -> FlowReport {
        let flow = Flow::new(
            &Scenario::reference(),
            Speed::from_kmh(30.0),
            SelectionPolicy::DutyCycleAware,
        );
        let profile = ConstantProfile::new(Speed::from_kmh(60.0), Duration::from_mins(1.0));
        flow.run(&profile).unwrap()
    }

    #[test]
    fn all_stages_produce_artifacts() {
        let report = run_reference();
        assert_eq!(report.power_estimates.len(), 6);
        assert_eq!(report.initial_energy.blocks.len(), 6);
        assert_eq!(report.optimization.recommendations.len(), 6);
        assert!(!report.balance.is_empty());
        assert!(!report.emulation.samples.is_empty());
    }

    #[test]
    fn optimization_lowers_break_even() {
        let report = run_reference();
        let before = report.break_even_before().expect("crosses before");
        let after = report.break_even_after().expect("crosses after");
        assert!(
            after < before,
            "optimization must lower the activation speed: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn summary_covers_every_stage() {
        let report = run_reference();
        let text = report.summary();
        for needle in [
            "Stage 1",
            "Stage 2",
            "Stage 3",
            "Stage 4",
            "Stage 5",
            "Stage 6",
            "break-even",
            "coverage",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn emulation_runs_on_optimized_architecture() {
        let report = run_reference();
        // At 60 km/h the optimized node must hold coverage.
        assert!(report.emulation.coverage() > 0.9);
    }

    #[test]
    fn parallel_flow_matches_serial() {
        let serial = run_reference();
        let flow = Flow::new(
            &Scenario::reference(),
            Speed::from_kmh(30.0),
            SelectionPolicy::DutyCycleAware,
        )
        .with_executor(SweepExecutor::new(4));
        let profile = ConstantProfile::new(Speed::from_kmh(60.0), Duration::from_mins(1.0));
        let parallel = flow.run(&profile).unwrap();
        assert_eq!(parallel.balance, serial.balance);
        assert_eq!(parallel.balance_before, serial.balance_before);
    }
}
