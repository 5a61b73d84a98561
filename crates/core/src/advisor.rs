//! The optimization advisor: technique selection from the
//! (dynamic/static split × duty cycle) pair.
//!
//! The paper's pivotal observation (§II): "if we consider a functional
//! block with an high dynamic power and a low leakage power, we normally
//! want to optimize this block for minimizing the dynamic power only. But
//! if we consider also temporal information and the block results having a
//! short duty cycle, it is worth to optimize not only the dynamic power
//! but also the static one since the idle time is significant. This
//! approach is thus useful to increase the efficiency of the optimization
//! step."
//!
//! Two selection policies are implemented:
//!
//! * [`SelectionPolicy::PowerFigures`] — the naive baseline the paper
//!   criticizes: look only at the dynamic/static *power* split of the
//!   active block;
//! * [`SelectionPolicy::DutyCycleAware`] — the paper's method: look at the
//!   per-round *energy* split, which folds in the duty cycle, so a
//!   dynamic-power-dominated block that idles 95 % of the round still gets
//!   its leakage treated.

use std::fmt;

use monityre_node::Architecture;
use monityre_power::{BlockPowerModel, ModePolicy, OperatingMode};
use monityre_units::{Energy, Speed};

use crate::{CoreError, EvalCache, Scenario};

/// An optimization technique with its effect model.
///
/// Effects are multiplicative factors on the block's power model,
/// representative of published results for each technique class; overheads
/// (area ⇒ extra leakage, gating headers, wake-up penalties) are included
/// so a technique is never free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Technique {
    /// RTL clock gating: removes spurious toggles (≈ 30 % of dynamic),
    /// costs ~2 % extra leakage in gating cells.
    ClockGating,
    /// Operand isolation on datapaths: a further ≈ 8 % dynamic cut.
    OperandIsolation,
    /// High-Vt cell swap on non-critical paths: leakage to ≈ 35 %, dynamic
    /// essentially unchanged.
    MultiVt,
    /// Sleep-transistor power gating of the idle block: gated-mode leakage
    /// residue halves, at the cost of a header (+3 % full-rail leakage)
    /// and a wake-up energy penalty (+20 % on event costs).
    PowerGating,
    /// Retention-flop sleep: state held on a low-leakage rail; improves
    /// the deep-sleep residue by a further 25 %.
    RetentionSleep,
}

impl Technique {
    /// All techniques.
    pub const ALL: [Self; 5] = [
        Self::ClockGating,
        Self::OperandIsolation,
        Self::MultiVt,
        Self::PowerGating,
        Self::RetentionSleep,
    ];

    /// Whether the technique primarily attacks dynamic power.
    #[must_use]
    pub fn targets_dynamic(self) -> bool {
        matches!(self, Self::ClockGating | Self::OperandIsolation)
    }

    /// Whether the technique primarily attacks static power.
    #[must_use]
    pub fn targets_static(self) -> bool {
        !self.targets_dynamic()
    }

    /// Applies the technique's effect model to a block.
    #[must_use]
    pub fn apply(self, model: &BlockPowerModel) -> BlockPowerModel {
        match self {
            Self::ClockGating => model
                .with_dynamic(model.dynamic().scaled(0.70))
                .with_leakage(model.leakage().scaled(1.02)),
            Self::OperandIsolation => model.with_dynamic(model.dynamic().scaled(0.92)),
            Self::MultiVt => model.with_leakage(model.leakage().scaled(0.35)),
            Self::PowerGating => {
                let off = model.mode_policy(OperatingMode::Off);
                let sleep = model.mode_policy(OperatingMode::Sleep);
                model
                    .with_leakage(model.leakage().scaled(1.03))
                    .with_mode_policy(
                        OperatingMode::Off,
                        ModePolicy::new(off.activity_scale, (off.leakage_fraction * 0.5).min(1.0)),
                    )
                    .with_mode_policy(
                        OperatingMode::Sleep,
                        ModePolicy::new(sleep.activity_scale, 0.03),
                    )
                    .with_event_costs_scaled(1.20)
            }
            Self::RetentionSleep => {
                let ds = model.mode_policy(OperatingMode::DeepSleep);
                model.with_mode_policy(
                    OperatingMode::DeepSleep,
                    ModePolicy::new(ds.activity_scale, (ds.leakage_fraction * 0.75).min(1.0)),
                )
            }
        }
    }

    /// Short identifier for reports.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Self::ClockGating => "clock_gating",
            Self::OperandIsolation => "operand_isolation",
            Self::MultiVt => "multi_vt",
            Self::PowerGating => "power_gating",
            Self::RetentionSleep => "retention_sleep",
        }
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// How the advisor decides which power component is worth attacking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// The naive baseline: use the *power* split of the block in its
    /// active mode, ignoring duty cycles ("using power figures for
    /// choosing the components … may end up with a non expected energy
    /// balance", §II).
    PowerFigures,
    /// The paper's method: use the per-round *energy* split, which folds
    /// in the duty cycle and working conditions.
    DutyCycleAware,
}

/// The advisor's verdict for one block.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The block's name.
    pub block: String,
    /// Selected techniques, in application order.
    pub techniques: Vec<Technique>,
    /// Human-readable rationale (for reports).
    pub rationale: String,
}

/// The outcome of optimizing a whole node.
#[derive(Debug, Clone)]
pub struct NodeOptimization {
    /// The optimized architecture (database rewritten, revisions bumped).
    pub architecture: Architecture,
    /// Per-block recommendations, in block-name order.
    pub recommendations: Vec<Recommendation>,
    /// Node energy per round before optimization.
    pub energy_before: Energy,
    /// Node energy per round after optimization (same speed/conditions).
    pub energy_after: Energy,
}

impl NodeOptimization {
    /// Fractional energy saving (can be negative if a policy backfires).
    #[must_use]
    pub fn saving(&self) -> f64 {
        1.0 - self.energy_after / self.energy_before
    }
}

/// Threshold above which a component's share makes it worth attacking.
const SHARE_THRESHOLD: f64 = 0.25;

/// Selects and applies optimization techniques for each block of an
/// architecture.
///
/// ```
/// use monityre_core::{OptimizationAdvisor, Scenario, SelectionPolicy};
/// use monityre_units::Speed;
///
/// let advisor = OptimizationAdvisor::new(&Scenario::reference(), Speed::from_kmh(30.0)).unwrap();
/// let outcome = advisor.optimize(SelectionPolicy::DutyCycleAware).unwrap();
/// assert!(outcome.saving() > 0.0);
/// ```
#[derive(Debug)]
pub struct OptimizationAdvisor {
    scenario: Scenario,
    cache: EvalCache,
    design_speed: Speed,
}

impl OptimizationAdvisor {
    /// Creates an advisor evaluating the scenario's blocks at
    /// `design_speed` — typically the activation-threshold region the
    /// designer wants to improve.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors for malformed architectures.
    pub fn new(scenario: &Scenario, design_speed: Speed) -> Result<Self, CoreError> {
        Ok(Self {
            scenario: scenario.clone(),
            cache: scenario.cache()?,
            design_speed,
        })
    }

    /// The design speed.
    #[must_use]
    pub fn design_speed(&self) -> Speed {
        self.design_speed
    }

    /// Recommends techniques for one block under the given policy.
    ///
    /// # Errors
    ///
    /// Propagates lookup/evaluation errors.
    pub fn recommend(
        &self,
        block: &str,
        policy: SelectionPolicy,
    ) -> Result<Recommendation, CoreError> {
        let energy = self.cache.block_energy(block, self.design_speed)?;
        let model = self.scenario.architecture().database().block(block)?;
        let active = model.power(OperatingMode::Active, &self.scenario.conditions());

        let (dyn_share, leak_share, basis) = match policy {
            SelectionPolicy::PowerFigures => (
                active.dynamic_fraction(),
                active.leakage_fraction(),
                "active-power split",
            ),
            SelectionPolicy::DutyCycleAware => {
                let d = energy.energy.dynamic_fraction();
                (d, 1.0 - d, "per-round energy split")
            }
        };

        let mut techniques = Vec::new();
        if dyn_share >= SHARE_THRESHOLD {
            techniques.push(Technique::ClockGating);
            techniques.push(Technique::OperandIsolation);
        }
        if leak_share >= SHARE_THRESHOLD {
            techniques.push(Technique::MultiVt);
            // Gating/retention only help blocks that actually idle.
            if energy.duty_cycle.active_fraction() < 0.999 {
                techniques.push(Technique::PowerGating);
                techniques.push(Technique::RetentionSleep);
            }
        }

        let chosen = if techniques.is_empty() {
            "no action".to_owned()
        } else {
            techniques
                .iter()
                .map(|t| t.id().to_owned())
                .collect::<Vec<_>>()
                .join(" + ")
        };
        let rationale = format!(
            "{basis}: dynamic {:.0} %, static {:.0} %, duty cycle {} → {chosen}",
            dyn_share * 100.0,
            leak_share * 100.0,
            energy.duty_cycle,
        );

        Ok(Recommendation {
            block: block.to_owned(),
            techniques,
            rationale,
        })
    }

    /// Optimizes the whole node: recommends per block, applies every
    /// selected technique, and re-estimates ("after advanced optimizations
    /// on single functional blocks, the total power has to be re-estimated
    /// in order to evaluate the energy reduction", §II).
    ///
    /// # Errors
    ///
    /// Propagates lookup/evaluation errors.
    pub fn optimize(&self, policy: SelectionPolicy) -> Result<NodeOptimization, CoreError> {
        let before = self.cache.required_per_round(self.design_speed)?;
        let original = self.scenario.architecture();
        let mut architecture = original.clone();
        let mut recommendations = Vec::new();

        for name in original.block_names() {
            let rec = self.recommend(name, policy)?;
            let mut model = original.database().block(name)?.clone();
            for technique in &rec.techniques {
                model = technique.apply(&model);
            }
            architecture.replace_block_model(model)?;
            recommendations.push(rec);
        }

        let optimized = self.scenario.with_architecture(architecture);
        let after = optimized.cache()?.required_per_round(self.design_speed)?;

        Ok(NodeOptimization {
            architecture: optimized.into_architecture(),
            recommendations,
            energy_before: before,
            energy_after: after,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monityre_node::Architecture;
    use monityre_power::WorkingConditions;

    fn setup() -> (Architecture, WorkingConditions) {
        (Architecture::reference(), WorkingConditions::reference())
    }

    fn advisor() -> OptimizationAdvisor {
        OptimizationAdvisor::new(&Scenario::reference(), Speed::from_kmh(30.0)).unwrap()
    }

    #[test]
    fn duty_cycle_aware_beats_naive() {
        let advisor = advisor();

        let aware = advisor.optimize(SelectionPolicy::DutyCycleAware).unwrap();
        let naive = advisor.optimize(SelectionPolicy::PowerFigures).unwrap();
        assert!(
            aware.energy_after < naive.energy_after,
            "aware {} vs naive {}",
            aware.energy_after,
            naive.energy_after
        );
        assert!(aware.saving() > 0.05, "saving {}", aware.saving());
    }

    #[test]
    fn optimization_never_inflates_reference_node() {
        let advisor = advisor();
        for policy in [
            SelectionPolicy::PowerFigures,
            SelectionPolicy::DutyCycleAware,
        ] {
            let outcome = advisor.optimize(policy).unwrap();
            assert!(outcome.energy_after <= outcome.energy_before, "{policy:?}");
        }
    }

    #[test]
    fn dsp_gets_static_treatment_only_when_duty_aware() {
        // The DSP's active power is dynamic-dominated, but it idles ≈ 95 %
        // of the round — the paper's motivating case.
        let advisor = advisor();

        let naive = advisor
            .recommend("dsp", SelectionPolicy::PowerFigures)
            .unwrap();
        let aware = advisor
            .recommend("dsp", SelectionPolicy::DutyCycleAware)
            .unwrap();

        assert!(
            !naive.techniques.iter().any(|t| t.targets_static()),
            "naive policy should see a dynamic-dominated block: {naive:?}"
        );
        assert!(
            aware.techniques.iter().any(|t| t.targets_static()),
            "duty-cycle-aware policy must treat idle leakage: {aware:?}"
        );
    }

    #[test]
    fn always_active_block_not_power_gated() {
        let advisor = advisor();
        let rec = advisor
            .recommend("pm", SelectionPolicy::DutyCycleAware)
            .unwrap();
        assert!(
            !rec.techniques.contains(&Technique::PowerGating),
            "pm never idles: {rec:?}"
        );
    }

    #[test]
    fn techniques_have_modelled_overheads() {
        let (arch, _) = setup();
        let dsp = arch.database().block("dsp").unwrap();
        let gated = Technique::PowerGating.apply(dsp);
        // Header costs extra full-rail leakage…
        assert!(gated.leakage().reference() > dsp.leakage().reference());
        // …but the gated-mode residue improves.
        assert!(
            gated.mode_policy(OperatingMode::Sleep).leakage_fraction
                < dsp.mode_policy(OperatingMode::Sleep).leakage_fraction
        );
    }

    #[test]
    fn clock_gating_cuts_dynamic_only() {
        let (arch, cond) = setup();
        let dsp = arch.database().block("dsp").unwrap();
        let gated = Technique::ClockGating.apply(dsp);
        let before = dsp.power(OperatingMode::Active, &cond);
        let after = gated.power(OperatingMode::Active, &cond);
        assert!(after.dynamic.approx_eq(before.dynamic * 0.7, 1e-9));
        assert!(after.leakage > before.leakage);
    }

    #[test]
    fn revisions_bumped_by_reestimation() {
        let advisor = advisor();
        let outcome = advisor.optimize(SelectionPolicy::DutyCycleAware).unwrap();
        // Every block was rewritten exactly once.
        for (_, record) in outcome.architecture.database().iter() {
            assert_eq!(record.revision(), 2);
        }
    }

    #[test]
    fn recommendation_rationale_is_informative() {
        let advisor = advisor();
        let rec = advisor
            .recommend("sram", SelectionPolicy::DutyCycleAware)
            .unwrap();
        assert!(rec.rationale.contains('%'));
        assert!(rec.rationale.contains("energy split"));
    }

    #[test]
    fn technique_ids_unique() {
        let mut ids: Vec<_> = Technique::ALL.iter().map(|t| t.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Technique::ALL.len());
    }
}
