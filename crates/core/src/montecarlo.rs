//! Monte Carlo analysis of process variation.
//!
//! §II-A lists "process variation" among the parameters the evaluation
//! platform must expose. Beyond the three discrete corners, real silicon
//! spreads continuously: this module samples per-block leakage and
//! dynamic-power multipliers and reports the resulting *distribution* of
//! the break-even speed — the yield question "what fraction of
//! manufactured nodes activates below X km/h?".
//!
//! Each draw owns an independent RNG seeded from `mix(seed, index)`, so
//! draws can be evaluated on any [`SweepExecutor`] in any schedule and the
//! distribution stays bit-identical to the serial run.

use monityre_node::Architecture;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use monityre_units::Speed;

use crate::{CoreError, EnergyBalance, Scenario, SweepExecutor};

/// Spread parameters of the manufacturing distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariationModel {
    /// Sigma of the log-normal leakage multiplier (lnN(0, σ)); leakage
    /// spreads by multiples across a lot.
    pub leakage_sigma: f64,
    /// Sigma of the (approximately normal) dynamic multiplier around 1.
    pub dynamic_sigma: f64,
}

impl VariationModel {
    /// Representative 130 nm spread: leakage σ = 0.45 (≈ 2.5× at ±2σ),
    /// dynamic σ = 0.03.
    #[must_use]
    pub fn reference() -> Self {
        Self {
            leakage_sigma: 0.45,
            dynamic_sigma: 0.03,
        }
    }

    /// Validates the spreads.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for negative or non-finite
    /// sigmas.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.leakage_sigma.is_finite() && self.leakage_sigma >= 0.0) {
            return Err(CoreError::invalid_parameter("leakage sigma must be >= 0"));
        }
        if !(self.dynamic_sigma.is_finite() && self.dynamic_sigma >= 0.0) {
            return Err(CoreError::invalid_parameter("dynamic sigma must be >= 0"));
        }
        Ok(())
    }
}

/// The sampled break-even distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakEvenDistribution {
    /// Sorted break-even speeds of the samples that crossed.
    samples: Vec<Speed>,
    /// Samples whose balance never crossed in the swept range.
    never_crossed: usize,
}

impl BreakEvenDistribution {
    /// The sorted break-even samples.
    #[must_use]
    pub fn samples(&self) -> &[Speed] {
        &self.samples
    }

    /// How many Monte Carlo draws never reached surplus.
    #[must_use]
    pub fn never_crossed(&self) -> usize {
        self.never_crossed
    }

    /// Mean break-even speed.
    ///
    /// # Panics
    ///
    /// Panics if no sample crossed (checked at construction).
    #[must_use]
    pub fn mean(&self) -> Speed {
        let sum: f64 = self.samples.iter().map(|s| s.mps()).sum();
        Speed::from_mps(sum / self.samples.len() as f64)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Speed {
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.samples.len() - 1) as f64 * q).round() as usize;
        self.samples[idx]
    }

    /// Standard deviation of the break-even speed.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        let mean = self.mean().mps();
        let var: f64 = self
            .samples
            .iter()
            .map(|s| (s.mps() - mean).powi(2))
            .sum::<f64>()
            / self.samples.len() as f64;
        var.sqrt()
    }

    /// Fraction of manufactured nodes whose break-even is at or below
    /// `target` — the yield against an activation-speed spec.
    #[must_use]
    pub fn yield_at(&self, target: Speed) -> f64 {
        let total = self.samples.len() + self.never_crossed;
        let ok = self.samples.iter().filter(|s| **s <= target).count();
        ok as f64 / total as f64
    }
}

/// The Monte Carlo runner.
///
/// ```
/// use monityre_core::{MonteCarlo, Scenario, VariationModel};
/// use monityre_units::Speed;
///
/// let scenario = Scenario::reference();
/// let mc = MonteCarlo::new(&scenario, VariationModel::reference(), 42);
/// let dist = mc.break_even_distribution(64).unwrap();
/// assert!(dist.mean().kmh() > 20.0 && dist.mean().kmh() < 60.0);
/// ```
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    scenario: Scenario,
    variation: VariationModel,
    seed: u64,
}

impl MonteCarlo {
    /// Creates a runner with a fixed RNG seed (reproducible draws).
    #[must_use]
    pub fn new(scenario: &Scenario, variation: VariationModel, seed: u64) -> Self {
        Self {
            scenario: scenario.clone(),
            variation,
            seed,
        }
    }

    /// The nominal (undrawn) evaluation session.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Draws one manufactured instance of the architecture: every block's
    /// leakage scaled log-normally, dynamic scaled normally. The nominal
    /// architecture is copied once and varied in place, block by block.
    fn draw(&self, rng: &mut StdRng) -> Result<Architecture, CoreError> {
        let nominal = self.scenario.architecture();
        let mut arch = nominal.clone();
        for name in nominal.block_names() {
            let model = nominal.database().block(name)?;
            let leak_factor = (standard_normal(rng) * self.variation.leakage_sigma).exp();
            let dyn_factor = (1.0 + standard_normal(rng) * self.variation.dynamic_sigma).max(0.5);
            let varied = model
                .with_leakage(model.leakage().scaled(leak_factor))
                .with_dynamic(model.dynamic().scaled(dyn_factor));
            arch.replace_block_model(varied)?;
        }
        Ok(arch)
    }

    /// Evaluates draw `index`: an independent RNG, a varied architecture,
    /// and the break-even of its balance (or `None` when it never crosses).
    fn sample(&self, index: u64) -> Result<Option<Speed>, CoreError> {
        let mut rng = StdRng::seed_from_u64(mix_seed(self.seed, index));
        let arch = self.draw(&mut rng)?;
        let varied = self.scenario.with_architecture(arch);
        let break_even = EnergyBalance::new(&varied)?.break_even(
            Speed::from_kmh(6.0),
            Speed::from_kmh(220.0),
            108,
            &SweepExecutor::serial(),
            &|| false,
        );
        Ok(break_even.expect("a never-cancelled scan always completes"))
    }

    /// Samples `n` instances serially and collects the break-even
    /// distribution.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for `n == 0`, an invalid
    /// variation model, or when *no* sampled instance ever crosses.
    pub fn break_even_distribution(&self, n: usize) -> Result<BreakEvenDistribution, CoreError> {
        self.break_even_distribution_with(n, &SweepExecutor::serial())
    }

    /// Samples `n` instances on `executor`'s workers. Seeds are
    /// partitioned per draw, so the distribution is bit-identical to
    /// [`Self::break_even_distribution`] for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for `n == 0`, an invalid
    /// variation model, or when *no* sampled instance ever crosses.
    pub fn break_even_distribution_with(
        &self,
        n: usize,
        executor: &SweepExecutor,
    ) -> Result<BreakEvenDistribution, CoreError> {
        self.break_even_distribution_cancellable(n, executor, &|| false)
            .map(|dist| dist.expect("a never-cancelled run always completes"))
    }

    /// Samples `n` instances on `executor`'s workers, polling `cancelled`
    /// between draw chunks; returns `Ok(None)` when the run was abandoned.
    /// A completed run is bit-identical to
    /// [`Self::break_even_distribution_with`] — the serving layer uses
    /// this to honour per-request deadlines.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for `n == 0`, an invalid
    /// variation model, or when *no* sampled instance ever crosses.
    pub fn break_even_distribution_cancellable<C: Fn() -> bool + Sync>(
        &self,
        n: usize,
        executor: &SweepExecutor,
        cancelled: &C,
    ) -> Result<Option<BreakEvenDistribution>, CoreError> {
        if n == 0 {
            return Err(CoreError::invalid_parameter("need at least one sample"));
        }
        self.variation.validate()?;
        let _span = monityre_obs::span!("mc.draws");
        let indices: Vec<u64> = (0..n as u64).collect();
        let Some(outcomes) =
            executor.map_cancellable(&indices, cancelled, |_, &index| self.sample(index))
        else {
            return Ok(None);
        };
        let mut samples = Vec::with_capacity(n);
        let mut never_crossed = 0usize;
        for outcome in outcomes {
            match outcome? {
                Some(speed) => samples.push(speed),
                None => never_crossed += 1,
            }
        }
        if samples.is_empty() {
            return Err(CoreError::invalid_parameter(
                "no sampled instance ever reached surplus",
            ));
        }
        samples.sort_by(Speed::total_cmp);
        Ok(Some(BreakEvenDistribution {
            samples,
            never_crossed,
        }))
    }
}

/// Derives draw `index`'s seed from the base seed: a splitmix64 finalizer
/// over `base ⊕ index·φ64`, so neighbouring indices land in uncorrelated
/// streams and every draw is schedule-independent.
fn mix_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Approximately standard-normal draw (Irwin–Hall with 12 uniforms),
/// adequate for spread modelling and free of extra dependencies.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let sum: f64 = (0..12).map(|_| rng.gen_range(0.0..1.0)).sum();
    sum - 6.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_centers_near_nominal() {
        let scenario = Scenario::reference();
        let nominal = EnergyBalance::new(&scenario)
            .unwrap()
            .sweep(Speed::from_kmh(6.0), Speed::from_kmh(220.0), 108)
            .break_even()
            .unwrap();
        let mc = MonteCarlo::new(&scenario, VariationModel::reference(), 7);
        let dist = mc.break_even_distribution(96).unwrap();
        assert!(
            (dist.mean().kmh() - nominal.kmh()).abs() < 5.0,
            "mean {} vs nominal {}",
            dist.mean(),
            nominal
        );
    }

    #[test]
    fn quantiles_are_ordered() {
        let mc = MonteCarlo::new(&Scenario::reference(), VariationModel::reference(), 11);
        let dist = mc.break_even_distribution(64).unwrap();
        assert!(dist.quantile(0.05) <= dist.quantile(0.5));
        assert!(dist.quantile(0.5) <= dist.quantile(0.95));
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let scenario = Scenario::reference();
        let a = MonteCarlo::new(&scenario, VariationModel::reference(), 5)
            .break_even_distribution(32)
            .unwrap();
        let b = MonteCarlo::new(&scenario, VariationModel::reference(), 5)
            .break_even_distribution(32)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_draws_match_serial_bit_for_bit() {
        let mc = MonteCarlo::new(&Scenario::reference(), VariationModel::reference(), 13);
        let serial = mc.break_even_distribution(48).unwrap();
        for threads in [2, 3, 8] {
            let parallel = mc
                .break_even_distribution_with(48, &SweepExecutor::new(threads))
                .unwrap();
            assert_eq!(parallel.samples().len(), serial.samples().len());
            for (s, p) in serial.samples().iter().zip(parallel.samples()) {
                assert_eq!(s.mps().to_bits(), p.mps().to_bits(), "threads {threads}");
            }
            assert_eq!(parallel.never_crossed(), serial.never_crossed());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let scenario = Scenario::reference();
        let a = MonteCarlo::new(&scenario, VariationModel::reference(), 5)
            .break_even_distribution(32)
            .unwrap();
        let b = MonteCarlo::new(&scenario, VariationModel::reference(), 6)
            .break_even_distribution(32)
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn zero_variation_collapses_the_distribution() {
        let model = VariationModel {
            leakage_sigma: 0.0,
            dynamic_sigma: 0.0,
        };
        let dist = MonteCarlo::new(&Scenario::reference(), model, 3)
            .break_even_distribution(16)
            .unwrap();
        assert!(dist.std_dev() < 1e-9, "std {}", dist.std_dev());
    }

    #[test]
    fn wider_spread_widens_the_distribution() {
        let scenario = Scenario::reference();
        let narrow = MonteCarlo::new(
            &scenario,
            VariationModel {
                leakage_sigma: 0.1,
                dynamic_sigma: 0.01,
            },
            9,
        )
        .break_even_distribution(64)
        .unwrap();
        let wide = MonteCarlo::new(
            &scenario,
            VariationModel {
                leakage_sigma: 0.8,
                dynamic_sigma: 0.08,
            },
            9,
        )
        .break_even_distribution(64)
        .unwrap();
        assert!(wide.std_dev() > narrow.std_dev());
    }

    #[test]
    fn yield_is_monotone_in_target() {
        let dist = MonteCarlo::new(&Scenario::reference(), VariationModel::reference(), 21)
            .break_even_distribution(64)
            .unwrap();
        let y30 = dist.yield_at(Speed::from_kmh(30.0));
        let y40 = dist.yield_at(Speed::from_kmh(40.0));
        let y60 = dist.yield_at(Speed::from_kmh(60.0));
        assert!(y30 <= y40 && y40 <= y60);
        assert!(y60 > 0.8);
    }

    #[test]
    fn rejects_bad_inputs() {
        let scenario = Scenario::reference();
        let mc = MonteCarlo::new(&scenario, VariationModel::reference(), 1);
        assert!(mc.break_even_distribution(0).is_err());
        let bad = MonteCarlo::new(
            &scenario,
            VariationModel {
                leakage_sigma: -1.0,
                dynamic_sigma: 0.0,
            },
            1,
        );
        assert!(bad.break_even_distribution(4).is_err());
    }

    #[test]
    fn cancellable_run_matches_and_cancels() {
        let mc = MonteCarlo::new(&Scenario::reference(), VariationModel::reference(), 17);
        let plain = mc.break_even_distribution(24).unwrap();
        let completed = mc
            .break_even_distribution_cancellable(24, &SweepExecutor::new(2), &|| false)
            .unwrap()
            .expect("not cancelled");
        assert_eq!(plain, completed);
        let abandoned = mc
            .break_even_distribution_cancellable(24, &SweepExecutor::new(2), &|| true)
            .unwrap();
        assert!(abandoned.is_none());
    }

    #[test]
    fn distribution_round_trips_through_json() {
        let mc = MonteCarlo::new(&Scenario::reference(), VariationModel::reference(), 23);
        let dist = mc.break_even_distribution(16).unwrap();
        let json = serde_json::to_string(&dist).unwrap();
        let back: BreakEvenDistribution = serde_json::from_str(&json).unwrap();
        assert_eq!(dist, back);
    }

    #[test]
    fn mixed_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..256 {
            assert!(seen.insert(mix_seed(42, i)));
        }
    }
}
