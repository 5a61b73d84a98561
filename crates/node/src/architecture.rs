//! The assembled Sensor Node architecture.

use std::collections::BTreeMap;
use std::fmt;

use monityre_power::{
    BlockPowerModel, DynamicPowerModel, EventCost, EventKind, GridAxis, LeakageModel, ModePolicy,
    OperatingMode, PowerDatabase, PowerGrid, Provenance,
};
use monityre_units::{Capacitance, Energy, Frequency, Power};
use serde::{Deserialize, Serialize};

use crate::{NodeConfig, NodeError, PhaseSpec, RoundSchedule, Span, Workload};

/// A block's behavioural plan: its duty-cycle schedule within the wheel
/// round and the event workload it performs per round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockPlan {
    schedule: RoundSchedule,
    workload: Workload,
}

impl BlockPlan {
    /// Creates a plan.
    #[must_use]
    pub fn new(schedule: RoundSchedule, workload: Workload) -> Self {
        Self { schedule, workload }
    }

    /// The schedule.
    #[must_use]
    pub fn schedule(&self) -> &RoundSchedule {
        &self.schedule
    }

    /// The workload.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }
}

/// The complete Sensor Node: a power database plus a plan per block.
///
/// The *entry point of the flow is the definition of the architecture*
/// (§II) — this type is that entry point. It owns a consistent pair of
/// (power models, behavioural plans) keyed by block name, and the
/// [`NodeConfig`] it was generated from.
///
/// ```
/// use monityre_node::Architecture;
///
/// let arch = Architecture::reference();
/// let names: Vec<_> = arch.block_names().collect();
/// assert!(names.contains(&"radio"));
/// assert!(names.contains(&"pm"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Architecture {
    name: String,
    database: PowerDatabase,
    plans: BTreeMap<String, BlockPlan>,
    config: NodeConfig,
}

impl Architecture {
    /// Starts building a custom architecture.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    #[must_use]
    pub fn builder(name: &str) -> ArchitectureBuilder {
        assert!(!name.is_empty(), "architecture name must not be empty");
        ArchitectureBuilder {
            name: name.to_owned(),
            database: PowerDatabase::new(),
            plans: BTreeMap::new(),
            config: NodeConfig::reference(),
        }
    }

    /// The calibrated reference Sensor Node (see [`NodeConfig::reference`]).
    #[must_use]
    pub fn reference() -> Self {
        Self::from_config(NodeConfig::reference())
    }

    /// Builds the Sensor Node for an arbitrary configuration.
    ///
    /// Block power figures are synthetic but calibrated to the 130 nm ULP
    /// automotive class reported for this application (µW-class blocks,
    /// mW-class radio bursts); see `DESIGN.md` for the substitution note.
    #[must_use]
    pub fn from_config(config: NodeConfig) -> Self {
        let mut builder = Self::builder("sensor-node");
        builder.config = config;

        // --- Always-on power management: wake-up timer, POR, rail control.
        builder = builder.block(
            BlockPowerModel::builder("pm")
                .analog(flat_grid(Power::from_microwatts(1.2)))
                .leakage(LeakageModel::with_reference(Power::from_nanowatts(300.0)))
                .build(),
            BlockPlan::new(
                RoundSchedule::always(OperatingMode::Active),
                Workload::new(),
            ),
        );

        // --- Analog front-end: awake for the contact-patch window.
        let afe_grid = PowerGrid::new(
            GridAxis::new(vec![1.0, 1.2]).expect("axis"),
            GridAxis::new(vec![-40.0, 27.0, 125.0]).expect("axis"),
            vec![
                vec![
                    Power::from_microwatts(60.0),
                    Power::from_microwatts(64.0),
                    Power::from_microwatts(70.0),
                ],
                vec![
                    Power::from_microwatts(75.0),
                    Power::from_microwatts(80.0),
                    Power::from_microwatts(88.0),
                ],
            ],
        )
        .expect("grid");
        builder = builder.block(
            BlockPowerModel::builder("afe")
                .analog(afe_grid)
                .leakage(LeakageModel::with_reference(Power::from_nanowatts(150.0)))
                .event_cost(EventCost::new(EventKind::WakeUp, Energy::from_nanos(30.0)))
                .build(),
            BlockPlan::new(
                RoundSchedule::new(
                    vec![PhaseSpec::every_round(
                        OperatingMode::Active,
                        Span::Fraction(config.acquisition_fraction()),
                    )],
                    OperatingMode::Off,
                )
                .expect("afe schedule"),
                Workload::new().with(EventKind::WakeUp, 1.0),
            ),
        );

        // --- ADC: converts back-to-back inside the acquisition window.
        builder = builder.block(
            BlockPowerModel::builder("adc")
                .dynamic(DynamicPowerModel::new(
                    0.9,
                    Capacitance::from_picofarads(40.0),
                    Frequency::from_megahertz(4.0),
                ))
                .leakage(LeakageModel::with_reference(Power::from_nanowatts(800.0)))
                .event_cost(EventCost::new(EventKind::Sample, Energy::from_nanos(20.0)))
                .build(),
            BlockPlan::new(
                RoundSchedule::new(
                    vec![PhaseSpec::every_round(
                        OperatingMode::Active,
                        Span::Fraction(config.acquisition_fraction()),
                    )],
                    OperatingMode::Off,
                )
                .expect("adc schedule"),
                Workload::new().with(EventKind::Sample, f64::from(config.samples_per_round())),
            ),
        );

        // --- DSP: one feature-extraction kernel per round. The unoptimized
        //     design merely stops the clock between kernels (full-leakage
        //     Sleep) — the advisor is what introduces gating/retention.
        builder = builder.block(
            BlockPowerModel::builder("dsp")
                .dynamic(DynamicPowerModel::new(
                    0.18,
                    Capacitance::from_picofarads(300.0),
                    config.dsp_clock(),
                ))
                .leakage(LeakageModel::with_reference(Power::from_microwatts(6.0)))
                .event_cost(EventCost::new(
                    EventKind::ComputeKernel,
                    Energy::from_nanos(200.0),
                ))
                .build(),
            BlockPlan::new(
                RoundSchedule::new(
                    vec![PhaseSpec::every_round(
                        OperatingMode::Active,
                        Span::Fixed(config.compute_time()),
                    )],
                    OperatingMode::Sleep,
                )
                .expect("dsp schedule"),
                Workload::new().with(EventKind::ComputeKernel, 1.0),
            ),
        );

        // --- SRAM: written during acquisition, read by the kernel. The
        //     array dominates the chip's leakage; the unoptimized design
        //     keeps the full rail up between accesses.
        builder = builder.block(
            BlockPowerModel::builder("sram")
                .dynamic(DynamicPowerModel::new(
                    0.10,
                    Capacitance::from_picofarads(120.0),
                    config.dsp_clock(),
                ))
                .leakage(LeakageModel::with_reference(Power::from_microwatts(8.0)))
                .mode_policy(OperatingMode::DeepSleep, ModePolicy::new(0.0, 0.08))
                .event_cost(EventCost::new(
                    EventKind::MemoryWrite,
                    Energy::from_nanos(5.0),
                ))
                .event_cost(EventCost::new(
                    EventKind::MemoryRead,
                    Energy::from_nanos(3.0),
                ))
                .build(),
            BlockPlan::new(
                RoundSchedule::new(
                    vec![PhaseSpec::every_round(
                        OperatingMode::Active,
                        Span::Fraction(config.acquisition_fraction()),
                    )],
                    OperatingMode::Sleep,
                )
                .expect("sram schedule"),
                Workload::new()
                    .with(
                        EventKind::MemoryWrite,
                        f64::from(config.samples_per_round()),
                    )
                    .with(EventKind::MemoryRead, f64::from(config.samples_per_round())),
            ),
        );

        // --- Radio: one burst every TX period, off otherwise.
        let radio_grid = PowerGrid::new(
            GridAxis::new(vec![1.0, 1.2]).expect("axis"),
            GridAxis::new(vec![-40.0, 125.0]).expect("axis"),
            vec![
                vec![Power::from_milliwatts(18.0), Power::from_milliwatts(18.0)],
                vec![Power::from_milliwatts(21.0), Power::from_milliwatts(21.0)],
            ],
        )
        .expect("grid");
        let tx_period = config.tx_period_rounds();
        builder = builder.block(
            BlockPowerModel::builder("radio")
                .analog(radio_grid)
                .leakage(LeakageModel::with_reference(Power::from_nanowatts(200.0)))
                // The PA grid is already the burst power; don't apply the
                // generic 1.6× burst activity scale on top of it.
                .mode_policy(OperatingMode::Burst, ModePolicy::new(1.0, 1.0))
                .event_cost(EventCost::new(
                    EventKind::ByteTransmitted,
                    Energy::from_nanos(150.0),
                ))
                .event_cost(EventCost::new(EventKind::WakeUp, Energy::from_nanos(500.0)))
                .build(),
            BlockPlan::new(
                RoundSchedule::new(
                    vec![PhaseSpec::every_n_rounds(
                        OperatingMode::Burst,
                        Span::Fixed(config.tx_burst()),
                        tx_period,
                    )],
                    OperatingMode::Off,
                )
                .expect("radio schedule"),
                Workload::new()
                    .with(
                        EventKind::ByteTransmitted,
                        f64::from(config.payload_bytes()) / f64::from(tx_period),
                    )
                    .with(EventKind::WakeUp, 1.0 / f64::from(tx_period)),
            ),
        );

        builder
            .build()
            .expect("reference architecture is consistent")
    }

    /// The architecture's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The power database.
    #[must_use]
    pub fn database(&self) -> &PowerDatabase {
        &self.database
    }

    /// The configuration the architecture was generated from.
    #[must_use]
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// Iterates over block names in sorted order.
    pub fn block_names(&self) -> impl Iterator<Item = &str> {
        self.plans.keys().map(String::as_str)
    }

    /// The plan for one block.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::UnknownBlock`] when absent.
    pub fn plan(&self, name: &str) -> Result<&BlockPlan, NodeError> {
        self.plans
            .get(name)
            .ok_or_else(|| NodeError::unknown_block(name))
    }

    /// Number of blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the architecture has no blocks (never true once built).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Returns a copy with one block's power model replaced — how the
    /// optimization step's re-estimation writes back into the flow.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::Power`] when the block does not exist.
    pub fn with_block_model(&self, model: BlockPowerModel) -> Result<Self, NodeError> {
        let mut copy = self.clone();
        copy.replace_block_model(model)?;
        Ok(copy)
    }

    /// Replaces one block's power model in place, bumping its revision
    /// like [`Self::with_block_model`] — for loops that vary every block
    /// of one owned copy instead of cloning the architecture per block.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::Power`] when the block does not exist.
    pub fn replace_block_model(&mut self, model: BlockPowerModel) -> Result<(), NodeError> {
        self.database.replace(model)?;
        Ok(())
    }

    /// Returns a copy with one block's plan replaced (e.g. a rescheduled
    /// TX period).
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::UnknownBlock`] when the block does not exist.
    pub fn with_plan(&self, name: &str, plan: BlockPlan) -> Result<Self, NodeError> {
        if !self.plans.contains_key(name) {
            return Err(NodeError::unknown_block(name));
        }
        let mut copy = self.clone();
        copy.plans.insert(name.to_owned(), plan);
        Ok(copy)
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} blocks)", self.name, self.plans.len())
    }
}

/// Builder for custom [`Architecture`]s.
#[derive(Debug)]
pub struct ArchitectureBuilder {
    name: String,
    database: PowerDatabase,
    plans: BTreeMap<String, BlockPlan>,
    config: NodeConfig,
}

impl ArchitectureBuilder {
    /// Adds a block: its power model and behavioural plan together, so the
    /// two can never drift apart.
    ///
    /// # Panics
    ///
    /// Panics when a block with the same name was already added.
    #[must_use]
    pub fn block(mut self, model: BlockPowerModel, plan: BlockPlan) -> Self {
        let name = model.name().to_owned();
        self.database
            .insert_with_provenance(model, Provenance::Estimate)
            .unwrap_or_else(|e| panic!("duplicate block in architecture: {e}"));
        self.plans.insert(name, plan);
        self
    }

    /// Records the configuration the architecture represents.
    #[must_use]
    pub fn config(mut self, config: NodeConfig) -> Self {
        self.config = config;
        self
    }

    /// Finalizes the architecture.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::InvalidSchedule`] when no blocks were added.
    pub fn build(self) -> Result<Architecture, NodeError> {
        if self.plans.is_empty() {
            return Err(NodeError::invalid_schedule(
                "architecture needs at least one block",
            ));
        }
        Ok(Architecture {
            name: self.name,
            database: self.database,
            plans: self.plans,
            config: self.config,
        })
    }
}

/// A single-point grid: constant power across (V, T) — used for always-on
/// domains characterized by one figure.
fn flat_grid(power: Power) -> PowerGrid {
    PowerGrid::new(
        GridAxis::new(vec![1.2]).expect("axis"),
        GridAxis::new(vec![27.0]).expect("axis"),
        vec![vec![power]],
    )
    .expect("flat grid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use monityre_power::WorkingConditions;
    use monityre_units::Duration;

    #[test]
    fn reference_has_all_six_blocks() {
        let arch = Architecture::reference();
        let names: Vec<_> = arch.block_names().collect();
        assert_eq!(names, vec!["adc", "afe", "dsp", "pm", "radio", "sram"]);
        assert_eq!(arch.len(), 6);
    }

    #[test]
    fn database_and_plans_are_consistent() {
        let arch = Architecture::reference();
        for name in arch.block_names() {
            assert!(arch.database().contains(name), "{name} missing from db");
        }
        assert_eq!(arch.database().len(), arch.len());
    }

    #[test]
    fn radio_burst_is_mw_class() {
        let arch = Architecture::reference();
        let p = arch
            .database()
            .block_power(
                "radio",
                OperatingMode::Burst,
                &WorkingConditions::reference(),
            )
            .unwrap();
        assert!(p.total().milliwatts() > 15.0, "got {}", p.total());
    }

    #[test]
    fn radio_off_is_nearly_free() {
        let arch = Architecture::reference();
        let p = arch
            .database()
            .block_power("radio", OperatingMode::Off, &WorkingConditions::reference())
            .unwrap();
        assert!(p.total().nanowatts() < 100.0, "got {}", p.total());
    }

    #[test]
    fn pm_is_always_active() {
        let arch = Architecture::reference();
        let plan = arch.plan("pm").unwrap();
        assert!(plan.schedule().phases().is_empty());
        assert_eq!(plan.schedule().rest_mode(), OperatingMode::Active);
    }

    #[test]
    fn adc_workload_follows_config() {
        let config = NodeConfig::reference().with_samples_per_round(256);
        let arch = Architecture::from_config(config);
        let plan = arch.plan("adc").unwrap();
        assert_eq!(plan.workload().count(EventKind::Sample), 256.0);
    }

    #[test]
    fn radio_workload_amortizes_payload() {
        let config = NodeConfig::reference()
            .with_payload_bytes(64)
            .with_tx_period_rounds(8);
        let arch = Architecture::from_config(config);
        let plan = arch.plan("radio").unwrap();
        assert!((plan.workload().count(EventKind::ByteTransmitted) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_plan_lookup_fails() {
        let arch = Architecture::reference();
        assert!(matches!(
            arch.plan("gpu"),
            Err(NodeError::UnknownBlock { .. })
        ));
    }

    #[test]
    fn with_block_model_is_pure_and_bumps_revision() {
        let arch = Architecture::reference();
        let dsp = arch.database().block("dsp").unwrap().clone();
        let optimized = arch
            .with_block_model(dsp.with_leakage(dsp.leakage().scaled(0.2)))
            .unwrap();
        assert_eq!(arch.database().record("dsp").unwrap().revision(), 1);
        assert_eq!(optimized.database().record("dsp").unwrap().revision(), 2);
    }

    #[test]
    fn replace_block_model_bumps_revision_in_place() {
        let mut arch = Architecture::reference();
        let dsp = arch.database().block("dsp").unwrap().clone();
        let scaled = dsp.with_leakage(dsp.leakage().scaled(0.2));
        let copied = arch.with_block_model(scaled.clone()).unwrap();
        arch.replace_block_model(scaled).unwrap();
        assert_eq!(arch, copied);
        assert_eq!(arch.database().record("dsp").unwrap().revision(), 2);
        assert!(arch
            .replace_block_model(BlockPowerModel::builder("gpu").build())
            .is_err());
    }

    #[test]
    fn with_plan_rejects_unknown() {
        let arch = Architecture::reference();
        let plan = arch.plan("dsp").unwrap().clone();
        assert!(arch.with_plan("gpu", plan).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate block")]
    fn builder_rejects_duplicates() {
        let model = BlockPowerModel::builder("x").build();
        let plan = BlockPlan::new(RoundSchedule::always(OperatingMode::Sleep), Workload::new());
        let _ = Architecture::builder("test")
            .block(model.clone(), plan.clone())
            .block(model, plan);
    }

    #[test]
    fn empty_builder_fails() {
        assert!(Architecture::builder("test").build().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let arch = Architecture::reference();
        let json = serde_json::to_string(&arch).unwrap();
        let back: Architecture = serde_json::from_str(&json).unwrap();
        assert_eq!(back, arch);
    }

    #[test]
    fn dsp_compute_window_fixed_duration() {
        let arch = Architecture::reference();
        let plan = arch.plan("dsp").unwrap();
        let resolved: Vec<_> = plan
            .schedule()
            .resolve(Duration::from_millis(100.0))
            .collect();
        assert_eq!(resolved.len(), 1);
        assert!(resolved[0]
            .duration
            .approx_eq(Duration::from_millis(5.0), 1e-12));
    }
}
