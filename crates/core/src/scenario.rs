//! The shared evaluation session.
//!
//! Every evaluator in this crate answers a question about the same four
//! things: a node architecture, the working conditions it runs under, the
//! harvesting chain supplying it, and the wheel it rides on. A
//! [`Scenario`] bundles them once, immutably, so the energy balance, the
//! Monte Carlo runner, the vehicle emulator, the governor and the flow all
//! consume one value instead of plumbing the tuple by hand — and so sweep
//! workers share the architecture and the chain through an [`Arc`]: a
//! clone is a few reference-count bumps, never a deep copy.

use std::sync::Arc;

use monityre_harvest::HarvestChain;
use monityre_node::{Architecture, NodeConfig};
use monityre_power::WorkingConditions;
use monityre_profile::Wheel;

use crate::{CoreError, EvalCache, ScenarioExtras};

/// One immutable evaluation session: architecture + conditions + harvest
/// chain + wheel.
///
/// ```
/// use monityre_core::{EnergyBalance, Scenario};
/// use monityre_units::Speed;
///
/// let scenario = Scenario::reference();
/// let balance = EnergyBalance::new(&scenario).unwrap();
/// let report = balance.sweep(Speed::from_kmh(5.0), Speed::from_kmh(200.0), 196);
/// let break_even = report.break_even().expect("curves cross");
/// assert!(break_even.kmh() > 10.0 && break_even.kmh() < 60.0);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    architecture: Arc<Architecture>,
    conditions: WorkingConditions,
    chain: Arc<HarvestChain>,
    wheel: Wheel,
    /// Optional extended physics axes (radio retransmission, storage
    /// ageing). `None` — the default — runs the paper's base model with
    /// zero additional float operations, keeping reference results
    /// bit-identical.
    extras: Option<Arc<ScenarioExtras>>,
}

impl Scenario {
    /// Starts a builder with every field defaulting to its reference value.
    #[must_use]
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// The all-reference session: reference node, reference conditions,
    /// reference piezo chain, reference wheel.
    #[must_use]
    pub fn reference() -> Self {
        Self::builder().build()
    }

    /// The node architecture under evaluation.
    #[must_use]
    pub fn architecture(&self) -> &Architecture {
        &self.architecture
    }

    /// The working conditions (temperature, supply, process corner).
    #[must_use]
    pub fn conditions(&self) -> WorkingConditions {
        self.conditions
    }

    /// The harvesting chain supplying the node.
    #[must_use]
    pub fn chain(&self) -> &HarvestChain {
        &self.chain
    }

    /// A shared handle to the chain, for spawning derived sessions without
    /// copying the transducer model.
    #[must_use]
    pub fn chain_arc(&self) -> Arc<HarvestChain> {
        Arc::clone(&self.chain)
    }

    /// The wheel the node rides on.
    #[must_use]
    pub fn wheel(&self) -> &Wheel {
        &self.wheel
    }

    /// The extended physics axes, if any were attached.
    #[must_use]
    pub fn extras(&self) -> Option<&ScenarioExtras> {
        self.extras.as_deref()
    }

    /// A shared handle to the architecture, for the cache built from it.
    pub(crate) fn architecture_arc(&self) -> Arc<Architecture> {
        Arc::clone(&self.architecture)
    }

    /// Precomputes the per-block, per-conditions energy figures.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors for malformed architectures.
    pub fn cache(&self) -> Result<EvalCache, CoreError> {
        let _span = monityre_obs::span!("scenario.cache_build");
        EvalCache::new(self)
    }

    /// A derived session with a different architecture (same conditions,
    /// chain and wheel) — how per-draw and per-level variants are spawned.
    #[must_use]
    pub fn with_architecture(&self, architecture: Architecture) -> Self {
        self.with_shared_architecture(Arc::new(architecture))
    }

    /// [`Self::with_architecture`] around an already shared architecture,
    /// which the derived session then shares instead of copying.
    pub(crate) fn with_shared_architecture(&self, architecture: Arc<Architecture>) -> Self {
        Self {
            architecture,
            conditions: self.conditions,
            chain: Arc::clone(&self.chain),
            wheel: self.wheel,
            extras: self.extras.clone(),
        }
    }

    /// A derived session under different working conditions.
    #[must_use]
    pub fn with_conditions(&self, conditions: WorkingConditions) -> Self {
        Self {
            architecture: Arc::clone(&self.architecture),
            conditions,
            chain: Arc::clone(&self.chain),
            wheel: self.wheel,
            extras: self.extras.clone(),
        }
    }

    /// The architecture, moved out when no other session or cache shares
    /// it (copied otherwise).
    pub(crate) fn into_architecture(self) -> Architecture {
        Arc::try_unwrap(self.architecture).unwrap_or_else(|shared| (*shared).clone())
    }

    /// A derived session on a different harvesting chain; as in the
    /// builder, the wheel follows the chain's.
    pub(crate) fn with_chain(&self, chain: HarvestChain) -> Self {
        Self {
            architecture: Arc::clone(&self.architecture),
            conditions: self.conditions,
            wheel: *chain.wheel(),
            chain: Arc::new(chain),
            extras: self.extras.clone(),
        }
    }
}

/// Builds a [`Scenario`], defaulting every unset field to its reference
/// value; the wheel defaults to the chain's wheel so supply and demand
/// agree on the round period.
#[derive(Debug, Default)]
pub struct ScenarioBuilder {
    architecture: Option<Architecture>,
    conditions: Option<WorkingConditions>,
    chain: Option<Arc<HarvestChain>>,
    wheel: Option<Wheel>,
    extras: Option<ScenarioExtras>,
}

impl ScenarioBuilder {
    /// An empty builder (all fields default to reference values).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the node architecture.
    #[must_use]
    pub fn architecture(mut self, architecture: Architecture) -> Self {
        self.architecture = Some(architecture);
        self
    }

    /// Sets the architecture from a node configuration.
    #[must_use]
    pub fn config(self, config: NodeConfig) -> Self {
        self.architecture(Architecture::from_config(config))
    }

    /// Sets the working conditions.
    #[must_use]
    pub fn conditions(mut self, conditions: WorkingConditions) -> Self {
        self.conditions = Some(conditions);
        self
    }

    /// Sets the harvesting chain.
    #[must_use]
    pub fn chain(mut self, chain: HarvestChain) -> Self {
        self.chain = Some(Arc::new(chain));
        self
    }

    /// Sets the harvesting chain from an existing shared handle.
    #[must_use]
    pub fn chain_arc(mut self, chain: Arc<HarvestChain>) -> Self {
        self.chain = Some(chain);
        self
    }

    /// Overrides the wheel (defaults to the chain's wheel).
    #[must_use]
    pub fn wheel(mut self, wheel: Wheel) -> Self {
        self.wheel = Some(wheel);
        self
    }

    /// Attaches extended physics axes. A vacuous value (no axis set) is
    /// dropped, so only scenarios that actually carry extra physics pay
    /// anything for them.
    #[must_use]
    pub fn extras(mut self, extras: ScenarioExtras) -> Self {
        self.extras = (!extras.is_vacuous()).then_some(extras);
        self
    }

    /// Assembles the scenario.
    #[must_use]
    pub fn build(self) -> Scenario {
        let chain = self
            .chain
            .unwrap_or_else(|| Arc::new(HarvestChain::reference()));
        let wheel = self.wheel.unwrap_or(*chain.wheel());
        Scenario {
            architecture: Arc::new(self.architecture.unwrap_or_else(Architecture::reference)),
            conditions: self.conditions.unwrap_or_else(WorkingConditions::reference),
            chain,
            wheel,
            extras: self.extras.map(Arc::new),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monityre_units::Temperature;

    #[test]
    fn reference_defaults_are_consistent() {
        let scenario = Scenario::reference();
        assert_eq!(scenario.architecture().len(), 6);
        assert_eq!(scenario.wheel(), scenario.chain().wheel());
        assert_eq!(scenario.conditions(), WorkingConditions::reference());
    }

    #[test]
    fn builder_overrides_stick() {
        let hot = WorkingConditions::reference().with_temperature(Temperature::from_celsius(85.0));
        let scenario = Scenario::builder()
            .config(NodeConfig::reference().with_samples_per_round(32))
            .conditions(hot)
            .build();
        assert_eq!(scenario.conditions(), hot);
    }

    #[test]
    fn wheel_defaults_to_chain_wheel() {
        let chain = HarvestChain::reference();
        let wheel = *chain.wheel();
        let scenario = Scenario::builder().chain(chain).build();
        assert_eq!(*scenario.wheel(), wheel);
    }

    #[test]
    fn derived_sessions_share_the_chain() {
        let scenario = Scenario::reference();
        let derived = scenario.with_conditions(
            WorkingConditions::reference().with_temperature(Temperature::from_celsius(0.0)),
        );
        assert!(Arc::ptr_eq(&scenario.chain_arc(), &derived.chain_arc()));
        assert!(std::ptr::eq(
            scenario.architecture(),
            derived.architecture()
        ));
        assert!(std::ptr::eq(
            scenario.architecture(),
            scenario.clone().architecture()
        ));
        let rearch = scenario.with_architecture(Architecture::reference());
        assert!(Arc::ptr_eq(&scenario.chain_arc(), &rearch.chain_arc()));
    }
}
