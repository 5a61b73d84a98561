//! Per-wheel-round energy evaluation.
//!
//! The step the paper calls the "evaluation tool that calculates the
//! contribute in term of energy consumption" (§II): power figures alone
//! are not enough, because "temporal aspects are not considered" — each
//! block's power is integrated over its duty-cycle schedule within a
//! wheel round, plus the workload-proportional event energy.
//!
//! A sweep evaluates the same architecture under the same conditions at
//! hundreds of speeds, but only the round *period* changes between points:
//! every power lookup (`model.power(mode, conditions)`) and every
//! workload event energy is speed-independent. [`EvalCache`] hoists those
//! out of the per-point loop once per [`Scenario`], so a point costs one
//! allocation-free walk over the lazily resolved phases of each block
//! instead of a full database traversal. When the conditions drift (the
//! emulator's tyre temperature), the figures are re-priced in place
//! rather than rebuilt.
//!
//! A cache for a related node is derived from a priced one instead of
//! built from nothing: `derive` swaps the architecture (an optimizer
//! candidate) and `vary` swaps the power models (a Monte Carlo draw).
//! Reuse is keyed on the block's *model*: where it equals the priced
//! cache's, the powers of every mode priced there are taken over, and
//! only the block's own schedule and workload figures are computed.
//! Every path prices through one function, so a derived cache reports
//! the bits a fresh build of the same node would.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use monityre_node::{Architecture, BlockPlan, NodeError, RoundSchedule, Workload};
use monityre_power::{
    BlockPowerModel, EnergyBreakdown, OperatingMode, PowerBreakdown, WorkingConditions,
};
use monityre_profile::Wheel;
use monityre_units::{Duration, DutyCycle, Energy, Power, Speed};
use serde::{Deserialize, Serialize};

use crate::{ledger, CoreError, Scenario};

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
/// computed. The schedule is an owned copy, so the per-point walk reads
/// contiguous memory instead of going back to the architecture.
#[derive(Debug, Clone)]
struct BlockFigures {
    name: String,
    schedule: RoundSchedule,
    rest_power: PowerBreakdown,
    /// Power in each scheduled phase's mode, aligned with
    /// `schedule.phases()` (and therefore with `schedule.resolve(..)`).
    phase_powers: Vec<PowerBreakdown>,
    /// Pre-multiplied `per_event × count` workload contributions, in
    /// workload iteration order.
    event_contributions: Vec<Energy>,
}

impl BlockFigures {
    /// Prices block `name`'s `plan` with `model` under `conditions` (see
    /// [`Self::price`]).
    fn new(
        name: &str,
        plan: &BlockPlan,
        model: &BlockPowerModel,
        conditions: &WorkingConditions,
        known: Option<&BlockFigures>,
    ) -> Self {
        let mut figures = Self {
            name: name.to_owned(),
            schedule: plan.schedule().clone(),
            rest_power: PowerBreakdown::ZERO,
            phase_powers: Vec::new(),
            event_contributions: Vec::new(),
        };
        figures.price(model, plan.workload(), conditions, known);
        figures
    }

    /// Evaluates every power and event figure of the schedule and
    /// `workload` with `model` under `conditions`, reusing the vectors'
    /// storage — the one pricing function every cache goes through.
    /// `known` is a block already priced from an equal model under the
    /// same conditions: the power of each mode it priced is taken from it
    /// instead of evaluated again, which gives the same bits.
    fn price(
        &mut self,
        model: &BlockPowerModel,
        workload: &Workload,
        conditions: &WorkingConditions,
        known: Option<&BlockFigures>,
    ) {
        let power = |mode| {
            known
                .and_then(|known| known.priced_power(mode))
                .unwrap_or_else(|| model.power(mode, conditions))
        };
        self.rest_power = power(self.schedule.rest_mode());
        self.phase_powers.clear();
        self.phase_powers
            .extend(self.schedule.phases().iter().map(|phase| power(phase.mode)));
        self.event_contributions.clear();
        self.event_contributions.extend(
            workload
                .iter()
                .filter_map(|(kind, count)| Some(model.event_energy(kind, conditions)? * count)),
        );
    }

    /// The power this block was priced at in `mode`, if its schedule
    /// uses that mode.
    fn priced_power(&self, mode: OperatingMode) -> Option<PowerBreakdown> {
        if mode == self.schedule.rest_mode() {
            return Some(self.rest_power);
        }
        self.schedule
            .phases()
            .iter()
            .zip(&self.phase_powers)
            .find(|(phase, _)| phase.mode == mode)
            .map(|(_, power)| *power)
    }

    /// The block's energy over one round of `period`, split dynamic and
    /// leakage — the walk itself, which allocates nothing.
    ///
    /// The average over the phase recurrence periods is taken: a phase
    /// running every N rounds contributes `1/N` of its energy to each
    /// round, with the rest mode covering that span in the other rounds.
    fn breakdown(&self, period: Duration) -> EnergyBreakdown {
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
    fn energy(&self, period: Duration) -> BlockEnergy {
        BlockEnergy {
            name: self.name.clone(),
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

/// Hit/miss/eviction tallies of an [`EvalCache`]'s per-speed memo —
/// see [`EvalCache::stats`]. All zeros when no memo is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheCounts {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that had to evaluate.
    pub misses: u64,
    /// Entries displaced to stay within capacity.
    pub evictions: u64,
}

impl CacheCounts {
    /// Element-wise sum — the serving layer aggregates one `CacheCounts`
    /// per warm scenario into a node-wide view.
    #[must_use]
    pub fn merged(self, other: CacheCounts) -> CacheCounts {
        CacheCounts {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
        }
    }
}

/// How many independent shards a [`SpeedMemo`] spreads keys over.
const MEMO_SHARDS: usize = 8;

/// A bounded, sharded speed → energy memo (FIFO eviction per shard).
///
/// Keys are the exact `f64` bit pattern of the speed in m/s, so a hit
/// returns the *identical* previously computed figure — memoization can
/// never perturb bit-identity. Shared via `Arc`, so clones of the owning
/// cache keep one tally.
#[derive(Debug)]
struct SpeedMemo {
    shards: [Mutex<MemoShard>; MEMO_SHARDS],
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Debug, Default)]
struct MemoShard {
    entries: HashMap<u64, f64>,
    order: VecDeque<u64>,
}

impl SpeedMemo {
    fn new(capacity: usize) -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::new(MemoShard::default())),
            per_shard_capacity: capacity.div_ceil(MEMO_SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Fibonacci hashing over the raw bits: speeds on a uniform grid
    /// differ in low mantissa bits, which this spreads across shards.
    fn shard_of(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61) as usize % MEMO_SHARDS
    }

    fn get(&self, key: u64) -> Option<f64> {
        let shard = self.shards[Self::shard_of(key)].lock().expect("memo shard");
        let found = shard.entries.get(&key).copied();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn insert(&self, key: u64, value: f64) {
        let mut shard = self.shards[Self::shard_of(key)].lock().expect("memo shard");
        if shard.entries.contains_key(&key) {
            return; // a racing worker beat us to the same speed
        }
        if shard.entries.len() >= self.per_shard_capacity {
            if let Some(oldest) = shard.order.pop_front() {
                shard.entries.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.entries.insert(key, value);
        shard.order.push_back(key);
    }

    fn counts(&self) -> CacheCounts {
        CacheCounts {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Per-block, per-conditions energy figures hoisted out of the sweep loop
/// — the one evaluator every per-round energy, power and standby figure
/// comes from.
///
/// Built once per [`Scenario`] (see [`Scenario::cache`]) and only read
/// afterwards, so sweep workers can evaluate points through a shared
/// reference; the one exception is the emulator, which re-prices its own
/// copy in place as the tyre temperature moves.
///
/// ```
/// use monityre_core::{EvalCache, Scenario};
/// use monityre_units::Speed;
///
/// let cache = Scenario::reference().cache().unwrap();
/// let energy = cache.node_energy(Speed::from_kmh(60.0)).unwrap();
/// // µJ-class budget per round for the reference node.
/// assert!(energy.total().total().microjoules() > 1.0);
/// assert!(energy.total().total().microjoules() < 100.0);
/// let total = cache.required_per_round(Speed::from_kmh(60.0)).unwrap();
/// assert_eq!(total.joules().to_bits(), energy.total().total().joules().to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct EvalCache {
    source: BlockSource,
    conditions: WorkingConditions,
    wheel: Wheel,
    /// Shared between clones, so a warm cache clones without copying a
    /// block; [`Self::reprice`] copies them on write.
    blocks: Arc<[BlockFigures]>,
    /// Opt-in per-speed memo ([`Self::with_memo`]); `None` keeps the
    /// sweep hot path allocation- and lock-free (pinned by
    /// `tests/cold_kernel_allocations.rs`).
    memo: Option<Arc<SpeedMemo>>,
}

/// Where a cache's blocks come from: the architecture's plans, and its
/// power models unless a Monte Carlo draw replaced them.
#[derive(Debug, Clone)]
struct BlockSource {
    architecture: Arc<Architecture>,
    /// A draw's varied models, aligned with the cache's blocks.
    varied: Option<Arc<[BlockPowerModel]>>,
}

impl BlockSource {
    /// Block `index`'s model; `name` is that block's name.
    fn model(&self, index: usize, name: &str) -> Result<&BlockPowerModel, CoreError> {
        match &self.varied {
            Some(models) => Ok(&models[index]),
            None => Ok(self.architecture.database().block(name)?),
        }
    }

    /// The workload `name`'s plan performs per round.
    fn workload(&self, name: &str) -> Result<&Workload, CoreError> {
        Ok(self.architecture.plan(name)?.workload())
    }
}

impl EvalCache {
    /// Precomputes every speed-independent figure of the scenario's
    /// architecture, in `block_names()` order.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors for malformed architectures.
    pub fn new(scenario: &Scenario) -> Result<Self, CoreError> {
        let source = BlockSource {
            architecture: scenario.architecture_arc(),
            varied: None,
        };
        Self::priced(source, scenario.conditions(), *scenario.wheel(), None)
    }

    /// The cache of `architecture` under this cache's conditions and
    /// wheel, as [`Self::new`] would build it for this scenario with only
    /// the node swapped.
    pub(crate) fn derive(&self, architecture: Arc<Architecture>) -> Result<Self, CoreError> {
        let source = BlockSource {
            architecture,
            varied: None,
        };
        Self::priced(source, self.conditions, self.wheel, Some(self))
    }

    /// This cache with every block's model replaced by `models` (one per
    /// block, in block order): a Monte Carlo draw's silicon, priced
    /// without copying the architecture.
    pub(crate) fn vary(&self, models: Vec<BlockPowerModel>) -> Result<Self, CoreError> {
        let source = BlockSource {
            architecture: Arc::clone(&self.source.architecture),
            varied: Some(models.into()),
        };
        Self::priced(source, self.conditions, self.wheel, Some(self))
    }

    /// Prices every block of `source` under `conditions`, in block order.
    /// A block whose model equals `template`'s model of the same name
    /// takes the powers priced there instead of evaluating them again;
    /// only its schedule and workload figures are its own.
    fn priced(
        source: BlockSource,
        conditions: WorkingConditions,
        wheel: Wheel,
        template: Option<&Self>,
    ) -> Result<Self, CoreError> {
        let blocks = source
            .architecture
            .block_names()
            .enumerate()
            .map(|(index, name)| {
                let plan = source.architecture.plan(name)?;
                let model = source.model(index, name)?;
                let known = template.and_then(|template| template.priced_block(name, model));
                Ok(BlockFigures::new(name, plan, model, &conditions, known))
            })
            .collect::<Result<_, CoreError>>()?;
        Ok(Self {
            source,
            conditions,
            wheel,
            blocks,
            memo: None,
        })
    }

    /// The figures of block `name`, if they were priced from a model equal
    /// to `model`.
    fn priced_block(&self, name: &str, model: &BlockPowerModel) -> Option<&BlockFigures> {
        let (index, figures) = self
            .blocks
            .iter()
            .enumerate()
            .find(|(_, figures)| figures.name == name)?;
        let priced = self.source.model(index, name).ok()?;
        (priced == model).then_some(figures)
    }

    /// Re-prices every block under `conditions` in place — what a drifting
    /// tyre temperature costs per step instead of a fresh build — and
    /// drops the memo, whose figures belonged to the old conditions. The
    /// first re-price of a clone copies the blocks it shares.
    pub(crate) fn reprice(&mut self, conditions: WorkingConditions) {
        self.conditions = conditions;
        for (index, figures) in Arc::make_mut(&mut self.blocks).iter_mut().enumerate() {
            let model = self.source.model(index, &figures.name);
            let workload = self.source.workload(&figures.name);
            let (Ok(model), Ok(workload)) = (model, workload) else {
                unreachable!("figures were built from this source");
            };
            figures.price(model, workload, &conditions, None);
        }
        self.memo = None;
    }

    /// Attaches a bounded per-speed memo of [`Self::required_per_round`]
    /// results (total `capacity` entries across shards, FIFO eviction).
    /// A memo hit returns the identical previously computed `f64`, so
    /// memoized and fresh figures are bit-identical by construction.
    /// The server does not attach one: a cold point costs less than a
    /// memo lookup (its shard lock, hash and shared counter), and a miss
    /// costs several points.
    #[must_use]
    pub fn with_memo(mut self, capacity: usize) -> Self {
        self.memo = Some(Arc::new(SpeedMemo::new(capacity)));
        self
    }

    /// Whether a per-speed memo is attached.
    #[must_use]
    pub fn has_memo(&self) -> bool {
        self.memo.is_some()
    }

    /// The memo's hit/miss/eviction tallies (all zeros without a memo).
    /// Clones of this cache share one memo, so the tallies aggregate
    /// across every sweep worker that touched it.
    #[must_use]
    pub fn stats(&self) -> CacheCounts {
        self.memo
            .as_ref()
            .map_or_else(CacheCounts::default, |m| m.counts())
    }

    /// The number of cached blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
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
        let figures = self
            .blocks
            .iter()
            .find(|figures| figures.name == name)
            .ok_or_else(|| NodeError::UnknownBlock {
                name: name.to_owned(),
            })?;
        Ok(figures.energy(period))
    }

    /// The whole node's energy per wheel round at `speed`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] at standstill.
    pub fn node_energy(&self, speed: Speed) -> Result<NodeEnergy, CoreError> {
        let round_period = self.round_period(speed)?;
        let blocks = self
            .blocks
            .iter()
            .map(|figures| figures.energy(round_period))
            .collect();
        Ok(NodeEnergy {
            speed,
            round_period,
            blocks,
        })
    }

    /// Required energy per round at `speed` — the demand curve of Fig. 2.
    /// With a memo attached ([`Self::with_memo`]) repeated speeds are
    /// answered from it, bit-identically.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] at standstill.
    pub fn required_per_round(&self, speed: Speed) -> Result<Energy, CoreError> {
        let Some(memo) = &self.memo else {
            return Ok(self.walk_total(self.round_period(speed)?));
        };
        let key = speed.mps().to_bits();
        if let Some(joules) = memo.get(key) {
            return Ok(Energy::from_joules(joules));
        }
        let value = self.walk_total(self.round_period(speed)?);
        memo.insert(key, value.joules());
        Ok(value)
    }

    /// The per-block walk folded straight into the node total, in block
    /// order — the fold [`NodeEnergy::total`] performs, without labelling
    /// or collecting the blocks, so it allocates nothing.
    fn walk_total(&self, period: Duration) -> Energy {
        self.blocks
            .iter()
            .map(|figures| figures.breakdown(period))
            .sum::<EnergyBreakdown>()
            .total()
    }

    /// Average node power while rolling at `speed` — the fold
    /// [`NodeEnergy::average_power`] performs, without the labelled
    /// blocks.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] at standstill.
    pub fn average_power(&self, speed: Speed) -> Result<Power, CoreError> {
        let period = self.round_period(speed)?;
        Ok(self.walk_total(period) / period)
    }

    /// Node power while the monitoring function is *switched off*: every
    /// block falls to `Off` except the always-on power management, which
    /// keeps its rest behaviour. This is the floor the transient emulator
    /// charges while waiting for the energy balance to turn positive.
    #[must_use]
    pub fn standby_power(&self) -> Power {
        let mut total = Power::ZERO;
        for (index, figures) in self.blocks.iter().enumerate() {
            let Ok(model) = self.source.model(index, &figures.name) else {
                continue;
            };
            let mode = if figures.name == "pm" {
                figures.schedule.rest_mode()
            } else {
                OperatingMode::Off
            };
            total += model.power(mode, &self.conditions).total();
        }
        total
    }

    /// The nanojoules the blocks consume per round at `speed`: the block
    /// part of [`crate::EnergyLedger`]'s `consumed_nj`, each block booked
    /// as the ledger books it, without labelling or collecting the blocks.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] at standstill.
    pub(crate) fn attributed_nj(&self, speed: Speed) -> Result<i64, CoreError> {
        let period = self.round_period(speed)?;
        Ok(self
            .blocks
            .iter()
            .map(|figures| {
                let (dynamic_nj, static_nj) = ledger::block_nj(figures.breakdown(period));
                dynamic_nj + static_nj
            })
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BreakEvenOptimizer, MonteCarlo, VariationModel, DUTY_POLICIES};
    use monityre_node::NodeConfig;
    use monityre_power::ProcessCorner;
    use monityre_units::{Temperature, Voltage};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scenarios() -> Vec<Scenario> {
        vec![
            Scenario::reference(),
            Scenario::builder()
                .conditions(
                    WorkingConditions::reference()
                        .with_temperature(Temperature::from_celsius(85.0)),
                )
                .build(),
            Scenario::builder()
                .conditions(WorkingConditions::reference().with_corner(ProcessCorner::FastFast))
                .build(),
            Scenario::builder()
                .architecture(Architecture::from_config(
                    NodeConfig::reference()
                        .with_samples_per_round(512)
                        .with_tx_period_rounds(1),
                ))
                .build(),
        ]
    }

    /// Every figure the cache reports agrees bit for bit with the
    /// labelled per-block walk: the memo-free and memoized totals, the
    /// single-block lookup and the average power.
    #[test]
    fn every_figure_folds_the_same_walk() {
        for scenario in scenarios() {
            let cache = scenario.cache().unwrap();
            let memoized = scenario.cache().unwrap().with_memo(64);
            for kmh in [6.0, 13.7, 30.0, 61.3, 99.0, 187.5] {
                let v = Speed::from_kmh(kmh);
                let node = cache.node_energy(v).unwrap();
                let total = node.total().total().joules().to_bits();
                assert_eq!(
                    total,
                    cache.required_per_round(v).unwrap().joules().to_bits()
                );
                for _ in 0..2 {
                    // The second lookup is a memo hit.
                    let hit = memoized.required_per_round(v).unwrap();
                    assert_eq!(total, hit.joules().to_bits(), "memo at {kmh} km/h");
                }
                assert_eq!(
                    node.average_power().watts().to_bits(),
                    cache.average_power(v).unwrap().watts().to_bits(),
                );
                for block in &node.blocks {
                    assert_eq!(&cache.block_energy(&block.name, v).unwrap(), block);
                }
            }
        }
    }

    #[test]
    fn repricing_matches_a_fresh_build() {
        let scenario = Scenario::reference();
        let hot = WorkingConditions::reference().with_temperature(Temperature::from_celsius(85.0));
        let mut cache = scenario.cache().unwrap().with_memo(16);
        let _ = cache.required_per_round(Speed::from_kmh(50.0)).unwrap();
        cache.reprice(hot);
        assert!(!cache.has_memo(), "a memo of the old conditions is dropped");
        let fresh = scenario.with_conditions(hot).cache().unwrap();
        for kmh in [6.0, 50.0, 187.5] {
            let v = Speed::from_kmh(kmh);
            assert_eq!(cache.node_energy(v).unwrap(), fresh.node_energy(v).unwrap());
        }
        assert_eq!(
            cache.standby_power().watts().to_bits(),
            fresh.standby_power().watts().to_bits()
        );
    }

    /// Every figure `cache` reports at a spread of speeds: the labelled
    /// walk, and as bits the per-block energies and duty cycles, the
    /// memo-free and memoized totals, the average power and the standby
    /// power.
    fn reported(cache: &EvalCache) -> (Vec<NodeEnergy>, Vec<u64>) {
        let memoized = cache.clone().with_memo(64);
        let mut nodes = Vec::new();
        let mut bits = vec![cache.standby_power().watts().to_bits()];
        for kmh in [6.0, 13.7, 34.5, 61.3, 99.0, 187.5] {
            let v = Speed::from_kmh(kmh);
            let node = cache.node_energy(v).unwrap();
            for block in &node.blocks {
                let single = cache.block_energy(&block.name, v).unwrap();
                bits.extend([
                    single.energy.dynamic.joules().to_bits(),
                    single.energy.leakage.joules().to_bits(),
                    single.duty_cycle.active_fraction().to_bits(),
                ]);
            }
            bits.push(cache.required_per_round(v).unwrap().joules().to_bits());
            for _ in 0..2 {
                // The second lookup is a memo hit.
                bits.push(memoized.required_per_round(v).unwrap().joules().to_bits());
            }
            bits.push(cache.average_power(v).unwrap().watts().to_bits());
            nodes.push(node);
        }
        (nodes, bits)
    }

    /// `derived` reports what `fresh` does, before and after both are
    /// re-priced at another temperature.
    fn assert_matches_fresh(mut derived: EvalCache, mut fresh: EvalCache, what: &str) {
        assert_eq!(reported(&derived), reported(&fresh), "{what}");
        let cold =
            WorkingConditions::reference().with_temperature(Temperature::from_celsius(-20.0));
        derived.reprice(cold);
        fresh.reprice(cold);
        assert_eq!(reported(&derived), reported(&fresh), "{what}, re-priced");
    }

    /// A cache derived from another one — an optimizer candidate from
    /// the baseline's, a Monte Carlo draw from the nominal one — cannot
    /// be told apart from a fresh build of the same node.
    #[test]
    fn derived_caches_match_fresh_builds() {
        let table = BreakEvenOptimizer::candidate_table();
        let per_policy = table.len() / DUTY_POLICIES.len();
        let conditions = [
            WorkingConditions::reference(),
            WorkingConditions::reference().with_temperature(Temperature::from_celsius(85.0)),
            WorkingConditions::reference().with_corner(ProcessCorner::FastFast),
            WorkingConditions::reference()
                .with_corner(ProcessCorner::SlowSlow)
                .with_supply(Voltage::from_volts(1.1)),
        ];
        for conditions in conditions {
            let scenario = Scenario::builder().conditions(conditions).build();
            let template = scenario.cache().unwrap();
            for policy in 0..DUTY_POLICIES.len() {
                let first = policy * per_policy;
                for entry in [first, first + per_policy / 2, first + per_policy - 1] {
                    let (config, architecture) = &table[entry];
                    assert_matches_fresh(
                        template.derive(Arc::clone(architecture)).unwrap(),
                        scenario
                            .with_architecture(Architecture::from_config(*config))
                            .cache()
                            .unwrap(),
                        &format!("{conditions:?}, candidate {config:?}"),
                    );
                }
            }
            let mc = MonteCarlo::new(&scenario, VariationModel::reference(), 42);
            for draw in 0..8 {
                let models = mc.draw(&mut StdRng::seed_from_u64(draw)).unwrap();
                let mut varied = scenario.architecture().clone();
                for model in &models {
                    varied.replace_block_model(model.clone()).unwrap();
                }
                assert_matches_fresh(
                    template.vary(models).unwrap(),
                    scenario.with_architecture(varied).cache().unwrap(),
                    &format!("{conditions:?}, draw {draw}"),
                );
            }
        }
    }

    #[test]
    fn node_energy_is_microjoule_class() {
        let cache = Scenario::reference().cache().unwrap();
        let total = cache
            .node_energy(Speed::from_kmh(60.0))
            .unwrap()
            .total()
            .total();
        assert!(
            total.microjoules() > 5.0 && total.microjoules() < 50.0,
            "got {total}"
        );
    }

    #[test]
    fn unknown_block_is_a_lookup_error() {
        let cache = Scenario::reference().cache().unwrap();
        assert!(matches!(
            cache.block_energy("gpu", Speed::from_kmh(50.0)),
            Err(CoreError::Node(NodeError::UnknownBlock { .. }))
        ));
    }

    #[test]
    fn radio_energy_amortizes_tx_period() {
        let v = Speed::from_kmh(60.0);
        let sparse = Scenario::reference().cache().unwrap();
        let dense = Scenario::builder()
            .config(NodeConfig::reference().with_tx_period_rounds(1))
            .build()
            .cache()
            .unwrap();
        // Transmitting every round costs ~4× the every-4th-round budget.
        let ratio = dense.block_energy("radio", v).unwrap().energy.total()
            / sparse.block_energy("radio", v).unwrap().energy.total();
        assert!(ratio > 3.0 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn leakage_share_grows_at_low_speed() {
        let cache = Scenario::reference().cache().unwrap();
        let slow = cache.node_energy(Speed::from_kmh(10.0)).unwrap().total();
        let fast = cache.node_energy(Speed::from_kmh(150.0)).unwrap().total();
        assert!(slow.leakage > fast.leakage); // longer round ⇒ more idle leakage
    }

    #[test]
    fn hot_conditions_raise_leakage_energy() {
        let v = Speed::from_kmh(50.0);
        let mut cache = Scenario::reference().cache().unwrap();
        let e_cool = cache.node_energy(v).unwrap().total();
        cache.reprice(
            WorkingConditions::reference().with_temperature(Temperature::from_celsius(85.0)),
        );
        let e_hot = cache.node_energy(v).unwrap().total();
        assert!(e_hot.leakage > e_cool.leakage * 10.0);
        // Dynamic barely moves.
        assert!((e_hot.dynamic / e_cool.dynamic - 1.0).abs() < 0.05);
    }

    #[test]
    fn corner_shifts_total() {
        let v = Speed::from_kmh(50.0);
        let tt = Scenario::reference().cache().unwrap();
        let ff = Scenario::builder()
            .conditions(WorkingConditions::reference().with_corner(ProcessCorner::FastFast))
            .build()
            .cache()
            .unwrap();
        assert!(ff.required_per_round(v).unwrap() > tt.required_per_round(v).unwrap());
    }

    #[test]
    fn standby_power_is_sub_threshold() {
        let cache = Scenario::reference().cache().unwrap();
        let standby = cache.standby_power();
        let rolling = cache.average_power(Speed::from_kmh(60.0)).unwrap();
        assert!(
            standby < rolling * 0.2,
            "standby {standby} rolling {rolling}"
        );
        assert!(standby > Power::ZERO);
    }

    #[test]
    fn duty_cycles_reported() {
        let cache = Scenario::reference().cache().unwrap();
        let e = cache.node_energy(Speed::from_kmh(60.0)).unwrap();
        assert!(e.block("radio").unwrap().duty_cycle.is_short());
        assert_eq!(e.block("pm").unwrap().duty_cycle, DutyCycle::ALWAYS_ACTIVE);
    }

    #[test]
    fn block_energies_sum_to_total() {
        let cache = Scenario::reference().cache().unwrap();
        let e = cache.node_energy(Speed::from_kmh(70.0)).unwrap();
        let sum: Energy = e.blocks.iter().map(|b| b.energy.total()).sum();
        assert!(sum.approx_eq(e.total().total(), 1e-12));
    }

    #[test]
    fn standstill_is_rejected() {
        let cache = Scenario::reference().cache().unwrap();
        assert!(cache.node_energy(Speed::ZERO).is_err());
        assert!(cache.round_period(Speed::from_kmh(-3.0)).is_err());
    }

    #[test]
    fn cache_covers_every_block() {
        let scenario = Scenario::reference();
        let cache = scenario.cache().unwrap();
        assert_eq!(cache.len(), scenario.architecture().len());
        assert!(!cache.is_empty());
    }

    #[test]
    fn memo_hits_are_bit_identical_and_counted() {
        let cache = Scenario::reference().cache().unwrap().with_memo(64);
        assert!(cache.has_memo());
        let v = Speed::from_kmh(72.5);
        let first = cache.required_per_round(v).unwrap();
        let second = cache.required_per_round(v).unwrap();
        assert_eq!(first.joules().to_bits(), second.joules().to_bits());
        let counts = cache.stats();
        assert_eq!(counts.hits, 1);
        assert_eq!(counts.misses, 1);
        assert_eq!(counts.evictions, 0);
        // And the memoized figure matches the memo-free evaluation.
        let plain = Scenario::reference().cache().unwrap();
        assert_eq!(
            plain.required_per_round(v).unwrap().joules().to_bits(),
            second.joules().to_bits()
        );
    }

    #[test]
    fn without_memo_stats_stay_zero() {
        let cache = Scenario::reference().cache().unwrap();
        assert!(!cache.has_memo());
        let _ = cache.required_per_round(Speed::from_kmh(60.0)).unwrap();
        assert_eq!(cache.stats(), CacheCounts::default());
    }

    #[test]
    fn eviction_accounting_balances() {
        // Capacity 8 over 8 shards = 1 entry per shard: 100 distinct
        // speeds force evictions everywhere while each shard keeps its
        // most recent key.
        let cache = Scenario::reference().cache().unwrap().with_memo(8);
        let mut last = Speed::from_kmh(10.0);
        for i in 0..100u32 {
            last = Speed::from_kmh(10.0 + f64::from(i));
            let _ = cache.required_per_round(last).unwrap();
        }
        let counts = cache.stats();
        assert_eq!(counts.misses, 100, "{counts:?}");
        assert_eq!(counts.hits, 0, "{counts:?}");
        // Every insertion past each shard's first evicts exactly one
        // entry, so the books balance: live = inserted - evicted ≤ 8.
        assert!(
            counts.evictions >= 92 && counts.evictions < 100,
            "{counts:?}"
        );
        // FIFO per shard: the newest key is always still resident.
        let _ = cache.required_per_round(last).unwrap();
        let after = cache.stats();
        assert_eq!(after.hits, 1, "{after:?}");
        assert_eq!(after.evictions, counts.evictions, "a hit evicts nothing");
    }

    #[test]
    fn clones_share_the_memo_tallies() {
        let cache = Scenario::reference().cache().unwrap().with_memo(32);
        let clone = cache.clone();
        let v = Speed::from_kmh(50.0);
        let _ = cache.required_per_round(v).unwrap();
        let _ = clone.required_per_round(v).unwrap();
        let counts = cache.stats();
        assert_eq!((counts.hits, counts.misses), (1, 1));
        assert_eq!(clone.stats(), counts);
    }

    #[test]
    fn cache_counts_merge_elementwise() {
        let a = CacheCounts {
            hits: 1,
            misses: 2,
            evictions: 3,
        };
        let b = CacheCounts {
            hits: 10,
            misses: 20,
            evictions: 30,
        };
        assert_eq!(
            a.merged(b),
            CacheCounts {
                hits: 11,
                misses: 22,
                evictions: 33
            }
        );
    }
}
