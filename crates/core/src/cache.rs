//! Memoized per-block energy figures.
//!
//! A sweep evaluates the same architecture under the same conditions at
//! hundreds of speeds, but only the round *period* changes between points:
//! every power lookup (`model.power(mode, conditions)`) and every
//! workload event energy is speed-independent. [`EvalCache`] hoists those
//! out of the per-point loop once per [`Scenario`], so a sweep point costs
//! one allocation-free walk over the lazily resolved phases of each block
//! instead of a full database traversal.
//!
//! The hoisted figures are the analyzer's own per-block evaluator, built
//! once per block instead of once per call, so cached and uncached
//! figures are bit-identical — the property the parallel sweep tests pin
//! down.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use monityre_power::EnergyBreakdown;
use monityre_profile::Wheel;
use monityre_units::{Duration, Energy, Power, Speed};
use serde::{Deserialize, Serialize};

use crate::analyzer::{ensure_rolling, BlockFigures};
use crate::{CoreError, NodeEnergy, Scenario};

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

/// Per-block, per-conditions energy figures hoisted out of the sweep loop.
///
/// Built once per [`Scenario`] (see [`Scenario::cache`]) and immutable
/// afterwards, so sweep workers can evaluate points through a shared
/// reference.
///
/// ```
/// use monityre_core::{EvalCache, Scenario};
/// use monityre_units::Speed;
///
/// let scenario = Scenario::reference();
/// let cache = scenario.cache().unwrap();
/// let direct = scenario.analyzer().required_per_round(Speed::from_kmh(60.0)).unwrap();
/// let cached = cache.required_per_round(Speed::from_kmh(60.0)).unwrap();
/// assert_eq!(cached.joules().to_bits(), direct.joules().to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct EvalCache {
    wheel: Wheel,
    blocks: Vec<BlockFigures<'static>>,
    /// Opt-in per-speed memo ([`Self::with_memo`]); `None` keeps the
    /// sweep hot path allocation- and lock-free (pinned by
    /// `tests/cold_kernel_allocations.rs`).
    memo: Option<Arc<SpeedMemo>>,
}

impl EvalCache {
    /// Precomputes every speed-independent figure of the scenario's
    /// architecture, in `block_names()` order.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors for malformed architectures.
    pub fn new(scenario: &Scenario) -> Result<Self, CoreError> {
        let architecture = scenario.architecture();
        let conditions = scenario.conditions();
        let blocks = architecture
            .block_names()
            .map(|name| Ok(BlockFigures::new(architecture, name, &conditions)?.into_owned()))
            .collect::<Result<_, CoreError>>()?;
        Ok(Self {
            wheel: *scenario.wheel(),
            blocks,
            memo: None,
        })
    }

    /// Attaches a bounded per-speed memo of [`Self::required_per_round`]
    /// results (total `capacity` entries across shards, FIFO eviction).
    /// A memo hit returns the identical previously computed `f64`, so
    /// bit-identity with the analyzer is preserved by construction. The
    /// serving layer enables this for its warm scenarios, where repeated
    /// requests revisit the same speed grids; one-shot sweeps should not.
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

    /// The whole node's energy per wheel round at `speed` — bit-identical
    /// to [`crate::EnergyAnalyzer::node_energy`] on the same scenario.
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
            return self.walk_total(speed);
        };
        let key = speed.mps().to_bits();
        if let Some(joules) = memo.get(key) {
            return Ok(Energy::from_joules(joules));
        }
        let value = self.walk_total(speed)?;
        memo.insert(key, value.joules());
        Ok(value)
    }

    /// The per-block walk folded straight into the node total, in block
    /// order — the fold [`NodeEnergy::total`] performs, without labelling
    /// or collecting the blocks, so it allocates nothing.
    fn walk_total(&self, speed: Speed) -> Result<Energy, CoreError> {
        let period = self.round_period(speed)?;
        Ok(self
            .blocks
            .iter()
            .map(|figures| figures.breakdown(period))
            .sum::<EnergyBreakdown>()
            .total())
    }

    /// Average node power while rolling at `speed`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] at standstill.
    pub fn average_power(&self, speed: Speed) -> Result<Power, CoreError> {
        Ok(self.node_energy(speed)?.average_power())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monityre_node::{Architecture, NodeConfig};
    use monityre_power::{ProcessCorner, WorkingConditions};
    use monityre_units::Temperature;

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

    #[test]
    fn cached_node_energy_is_bit_identical_to_analyzer() {
        for scenario in scenarios() {
            let cache = scenario.cache().unwrap();
            let analyzer = scenario.analyzer();
            for kmh in [6.0, 13.7, 30.0, 61.3, 99.0, 187.5] {
                let v = Speed::from_kmh(kmh);
                let direct = analyzer.node_energy(v).unwrap();
                let cached = cache.node_energy(v).unwrap();
                assert_eq!(direct.blocks.len(), cached.blocks.len());
                for (d, c) in direct.blocks.iter().zip(&cached.blocks) {
                    assert_eq!(d.name, c.name);
                    assert_eq!(
                        d.energy.dynamic.joules().to_bits(),
                        c.energy.dynamic.joules().to_bits(),
                        "dynamic of {} at {kmh} km/h",
                        d.name
                    );
                    assert_eq!(
                        d.energy.leakage.joules().to_bits(),
                        c.energy.leakage.joules().to_bits(),
                        "leakage of {} at {kmh} km/h",
                        d.name
                    );
                    assert_eq!(d.duty_cycle, c.duty_cycle);
                }
                assert_eq!(
                    direct.total().total().joules().to_bits(),
                    cache.required_per_round(v).unwrap().joules().to_bits(),
                );
            }
        }
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

    #[test]
    fn average_power_matches_analyzer() {
        let scenario = Scenario::reference();
        let cache = scenario.cache().unwrap();
        let v = Speed::from_kmh(90.0);
        assert_eq!(
            cache.average_power(v).unwrap(),
            scenario.analyzer().average_power(v).unwrap()
        );
    }
}
