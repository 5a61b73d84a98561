//! The energy balance versus cruising speed — the paper's Fig. 2.
//!
//! "Figure 2 reports … the two curves of the energy generated by scavenger
//! device and required by the whole system at different cruising speeds.
//! The break-even point corresponds to the intersection of the two curves
//! and, for lower speeds, there is a deficit of energy" (§II-A).

use monityre_units::{Energy, Speed};
use serde::{Deserialize, Serialize};

use crate::{CoreError, EnergyLedger, EvalCache, Scenario, SweepExecutor};

/// One operating point of the balance: both curves at one speed.
///
/// Serializes as `{speed, generated, required}` in base SI units (m/s and
/// joules), round-tripping float bits exactly — the serving layer ships
/// these over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BalancePoint {
    /// Cruising speed.
    pub speed: Speed,
    /// Energy generated by the harvesting chain per wheel round.
    pub generated: Energy,
    /// Energy required by the node per wheel round.
    pub required: Energy,
}

impl BalancePoint {
    /// Net energy per round (positive = surplus).
    #[must_use]
    pub fn net(&self) -> Energy {
        self.generated - self.required
    }

    /// Whether the node runs at a surplus here.
    #[must_use]
    pub fn is_surplus(&self) -> bool {
        self.generated >= self.required
    }
}

/// A swept balance: the two curves over a speed range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BalanceReport {
    points: Vec<BalancePoint>,
}

impl BalanceReport {
    /// Reassembles a report from explicit points (e.g. deserialized from
    /// the wire). Points are expected in increasing speed order, as every
    /// sweep produces them.
    #[must_use]
    pub fn from_points(points: Vec<BalancePoint>) -> Self {
        Self { points }
    }

    /// The swept points, in increasing speed order.
    #[must_use]
    pub fn points(&self) -> &[BalancePoint] {
        &self.points
    }

    /// The break-even speed: the lowest speed at which the generated curve
    /// crosses above the required curve, linearly interpolated between
    /// sweep samples. `None` when the node never reaches surplus in the
    /// swept range.
    #[must_use]
    pub fn break_even(&self) -> Option<Speed> {
        let first_surplus = self.points.iter().position(BalancePoint::is_surplus)?;
        let before = first_surplus.checked_sub(1).map(|i| &self.points[i]);
        Some(crossing(before, &self.points[first_surplus]))
    }

    /// The worst (most negative) deficit point, if any speed runs at a
    /// deficit.
    #[must_use]
    pub fn worst_deficit(&self) -> Option<BalancePoint> {
        self.points
            .iter()
            .filter(|p| !p.is_surplus())
            .min_by(|a, b| a.net().total_cmp(&b.net()))
            .copied()
    }

    /// The number of sampled speeds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sweep is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// The uniform speed grid a sweep samples: `steps` points over `[lo, hi]`.
///
/// Shared by every sweep-shaped consumer so serial and parallel runs (and
/// every harness) sample bit-identical speeds.
///
/// # Panics
///
/// Panics if `steps < 2`, `lo` is not positive, or `hi ≤ lo`.
#[must_use]
pub fn speed_grid(lo: Speed, hi: Speed, steps: usize) -> Vec<Speed> {
    check_grid(lo, hi, steps);
    (0..steps).map(|i| grid_speed(lo, hi, steps, i)).collect()
}

/// The contract of [`speed_grid`], checked up front by every grid walk.
fn check_grid(lo: Speed, hi: Speed, steps: usize) {
    assert!(steps >= 2, "sweep needs at least two samples");
    assert!(lo.mps() > 0.0, "sweep must start above standstill");
    assert!(hi > lo, "sweep range must be increasing");
}

/// Sample `i` of [`speed_grid`]`(lo, hi, steps)`, computed on its own so
/// a scan can walk a prefix of the grid without materialising the rest.
fn grid_speed(lo: Speed, hi: Speed, steps: usize, i: usize) -> Speed {
    let w = i as f64 / (steps - 1) as f64;
    lo + (hi - lo) * w
}

/// The break-even given the first surplus sample `first` and the sample
/// just below it, `before` (`None` when `first` opens the grid): the
/// linear root of net(v) between the two, or `first`'s own speed when
/// the grid starts in surplus. [`BalanceReport::break_even`] and
/// [`EnergyBalance::break_even`] both end here, so their bits agree.
fn crossing(before: Option<&BalancePoint>, first: &BalancePoint) -> Speed {
    let Some(a) = before else {
        return first.speed;
    };
    // Root of net(v) between a (negative) and first (non-negative).
    let na = a.net().joules();
    let nb = first.net().joules();
    let w = if (nb - na).abs() < f64::EPSILON {
        1.0
    } else {
        -na / (nb - na)
    };
    a.speed + (first.speed - a.speed) * w.clamp(0.0, 1.0)
}

/// Samples in the first chunk of an [`EnergyBalance::break_even`] scan;
/// each later chunk doubles, so an early crossing costs one small inline
/// map while a late one on a long grid still gets chunks worth fanning
/// out.
const SCAN_FIRST_CHUNK: usize = 16;

/// Couples a [`Scenario`]'s demand (through a memoized [`EvalCache`]) to
/// its harvesting chain's supply.
///
/// ```
/// use monityre_core::{EnergyBalance, Scenario};
/// use monityre_units::Speed;
///
/// let scenario = Scenario::reference();
/// let balance = EnergyBalance::new(&scenario).unwrap();
/// let point = balance.point(Speed::from_kmh(120.0)).unwrap();
/// assert!(point.is_surplus());
/// ```
#[derive(Debug, Clone)]
pub struct EnergyBalance {
    scenario: Scenario,
    cache: EvalCache,
}

impl EnergyBalance {
    /// Couples demand and supply, precomputing the per-block figures.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors for malformed architectures.
    pub fn new(scenario: &Scenario) -> Result<Self, CoreError> {
        Ok(Self {
            scenario: scenario.clone(),
            cache: scenario.cache()?,
        })
    }

    /// Couples demand and supply around an already-built cache, so warm
    /// state (e.g. the serving layer's scenario LRU) is reused instead of
    /// recomputed. The cache must have been built from `scenario` (or an
    /// identical one) — evaluation replays the cached figures verbatim.
    #[must_use]
    pub fn with_cache(scenario: &Scenario, cache: EvalCache) -> Self {
        Self {
            scenario: scenario.clone(),
            cache,
        }
    }

    /// The evaluation session this balance runs in.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The demand side's evaluation cache.
    pub(crate) fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// Evaluates both curves at one speed. The required curve is the
    /// total of the per-block walk [`Self::explain`] attributes, plus the
    /// fold of the same surcharge pair.
    ///
    /// Extended physics axes (radio retransmission, storage ageing) are
    /// added to the required curve *here*, outside the per-speed memo:
    /// the memo stores only the base-model figure, so a memo slot warmed
    /// by one scenario can never leak another scenario's extras, and a
    /// scenario without extras performs zero additional float
    /// operations — the branch below is the whole cost.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] at standstill.
    pub fn point(&self, speed: Speed) -> Result<BalancePoint, CoreError> {
        let mut required = self.cache.required_per_round(speed)?;
        if let Some(extras) = self.scenario.extras() {
            required += extras.extra_required_per_round(
                self.scenario.conditions().temperature(),
                self.scenario.wheel(),
                speed,
            );
        }
        Ok(BalancePoint {
            speed,
            generated: self.scenario.chain().delivered_per_round(speed),
            required,
        })
    }

    /// Evaluates one speed into a fully attributed [`EnergyLedger`]:
    /// per-block dynamic/static nanojoules, the extended axes'
    /// surcharges, harvested energy and regulator loss. The ledger is
    /// built from the per-block walk and the surcharge pair that
    /// [`Self::point`] folds, so its float figures conserve by
    /// construction. Costs one per-block walk and leaves the per-speed
    /// memo untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] at standstill.
    pub fn explain(&self, speed: Speed) -> Result<EnergyLedger, CoreError> {
        let node = self.cache.node_energy(speed)?;
        let temperature = self.scenario.conditions().temperature();
        let (radio, ageing) = self.scenario.extras().map_or(Default::default(), |extras| {
            extras.surcharges(temperature, self.scenario.wheel(), speed)
        });
        Ok(EnergyLedger::build(
            &node,
            radio,
            ageing,
            self.scenario.chain().delivered_per_round(speed),
            self.scenario.chain().raw_per_round(speed),
        ))
    }

    /// Sweeps `[lo, hi]` with `steps` uniform samples (≥ 2) — the data of
    /// Fig. 2. Serial; see [`Self::sweep_with`] for the parallel form.
    ///
    /// # Panics
    ///
    /// Panics if `steps < 2`, `lo` is not positive, or `hi ≤ lo`.
    #[must_use]
    pub fn sweep(&self, lo: Speed, hi: Speed, steps: usize) -> BalanceReport {
        self.sweep_with(lo, hi, steps, &SweepExecutor::serial())
    }

    /// Sweeps `[lo, hi]` on `executor`'s workers. Points are evaluated
    /// independently and reassembled in speed order, so the result is
    /// bit-identical to [`Self::sweep`] for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `steps < 2`, `lo` is not positive, or `hi ≤ lo`.
    #[must_use]
    pub fn sweep_with(
        &self,
        lo: Speed,
        hi: Speed,
        steps: usize,
        executor: &SweepExecutor,
    ) -> BalanceReport {
        self.sweep_cancellable(lo, hi, steps, executor, &|| false)
            .expect("a never-cancelled sweep always completes")
    }

    /// Sweeps `[lo, hi]` on `executor`'s workers, polling `cancelled`
    /// between chunks; returns `None` when the sweep was abandoned. A
    /// completed sweep is bit-identical to [`Self::sweep_with`] — the
    /// serving layer uses this to honour per-request deadlines.
    ///
    /// # Panics
    ///
    /// Panics if `steps < 2`, `lo` is not positive, or `hi ≤ lo`.
    #[must_use]
    pub fn sweep_cancellable<C: Fn() -> bool + Sync>(
        &self,
        lo: Speed,
        hi: Speed,
        steps: usize,
        executor: &SweepExecutor,
        cancelled: &C,
    ) -> Option<BalanceReport> {
        let _span = monityre_obs::span!("balance.sweep");
        let speeds = speed_grid(lo, hi, steps);
        let points =
            executor.map_cancellable(&speeds, cancelled, |_, &speed| self.grid_point(speed))?;
        Some(BalanceReport { points })
    }

    /// The break-even speed of the `[lo, hi]` grid with `steps` samples,
    /// found by scanning the grid upwards and stopping at the first
    /// surplus instead of sweeping all of it. Chunks of 16 samples
    /// (`SCAN_FIRST_CHUNK`), then twice as many, and so on, each go
    /// through `executor` with `cancelled` polled between them. Returns
    /// `None` when cancelled, `Some(None)` when the curves never cross,
    /// and otherwise exactly the bits of
    /// `self.sweep(lo, hi, steps).break_even()` for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `steps < 2`, `lo` is not positive, or `hi ≤ lo`.
    #[must_use]
    pub fn break_even<C: Fn() -> bool + Sync>(
        &self,
        lo: Speed,
        hi: Speed,
        steps: usize,
        executor: &SweepExecutor,
        cancelled: &C,
    ) -> Option<Option<Speed>> {
        let _span = monityre_obs::span!("balance.break_even");
        check_grid(lo, hi, steps);
        let mut before: Option<BalancePoint> = None;
        let (mut start, mut chunk) = (0, SCAN_FIRST_CHUNK);
        while start < steps {
            let end = steps.min(start + chunk);
            let speeds: Vec<Speed> = (start..end).map(|i| grid_speed(lo, hi, steps, i)).collect();
            let points =
                executor.map_cancellable(&speeds, cancelled, |_, &speed| self.grid_point(speed))?;
            if let Some(first) = points.iter().position(BalancePoint::is_surplus) {
                let below = first.checked_sub(1).map(|i| &points[i]);
                return Some(Some(crossing(below.or(before.as_ref()), &points[first])));
            }
            before = points.last().copied();
            (start, chunk) = (end, chunk * 2);
        }
        Some(None)
    }

    /// [`Self::point`] at a speed of a grid already checked to be
    /// positive.
    fn grid_point(&self, speed: Speed) -> BalancePoint {
        self.point(speed)
            .expect("speeds in a validated sweep are positive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monityre_harvest::HarvestChain;
    use monityre_power::WorkingConditions;
    use monityre_units::Temperature;

    fn sweep_reference() -> BalanceReport {
        let balance = EnergyBalance::new(&Scenario::reference()).unwrap();
        balance.sweep(Speed::from_kmh(5.0), Speed::from_kmh(200.0), 196)
    }

    #[test]
    fn break_even_in_low_tens_of_kmh() {
        let report = sweep_reference();
        let be = report.break_even().expect("curves must cross");
        assert!(be.kmh() > 10.0 && be.kmh() < 60.0, "break-even {be:?}");
    }

    #[test]
    fn deficit_below_surplus_above() {
        let report = sweep_reference();
        let be = report.break_even().unwrap();
        for p in report.points() {
            if p.speed.kmh() < be.kmh() - 1.0 {
                assert!(!p.is_surplus(), "expected deficit at {}", p.speed);
            }
            if p.speed.kmh() > be.kmh() + 1.0 {
                assert!(p.is_surplus(), "expected surplus at {}", p.speed);
            }
        }
    }

    #[test]
    fn single_crossing() {
        let report = sweep_reference();
        let crossings = report
            .points()
            .windows(2)
            .filter(|w| w[0].is_surplus() != w[1].is_surplus())
            .count();
        assert_eq!(crossings, 1);
    }

    #[test]
    fn generated_curve_monotone() {
        let report = sweep_reference();
        for w in report.points().windows(2) {
            assert!(w[1].generated >= w[0].generated);
        }
    }

    #[test]
    fn worst_deficit_is_at_low_speed() {
        let report = sweep_reference();
        let worst = report.worst_deficit().unwrap();
        assert!(worst.speed.kmh() < 30.0);
        assert!(worst.net().is_negative());
    }

    #[test]
    fn hot_conditions_raise_break_even() {
        let scenario = Scenario::reference();
        let hot = scenario.with_conditions(
            WorkingConditions::reference().with_temperature(Temperature::from_celsius(85.0)),
        );
        let be_cool = EnergyBalance::new(&scenario)
            .unwrap()
            .sweep(Speed::from_kmh(5.0), Speed::from_kmh(200.0), 100)
            .break_even()
            .unwrap();
        let be_hot = EnergyBalance::new(&hot)
            .unwrap()
            .sweep(Speed::from_kmh(5.0), Speed::from_kmh(200.0), 100)
            .break_even()
            .unwrap();
        assert!(be_hot > be_cool, "hot {be_hot:?} vs cool {be_cool:?}");
    }

    #[test]
    fn bigger_scavenger_lowers_break_even() {
        let big = Scenario::builder()
            .chain(HarvestChain::reference().scaled(2.0))
            .build();
        let be_ref = EnergyBalance::new(&Scenario::reference())
            .unwrap()
            .sweep(Speed::from_kmh(5.0), Speed::from_kmh(200.0), 100)
            .break_even()
            .unwrap();
        let be_big = EnergyBalance::new(&big)
            .unwrap()
            .sweep(Speed::from_kmh(5.0), Speed::from_kmh(200.0), 100)
            .break_even()
            .unwrap();
        assert!(be_big < be_ref);
    }

    #[test]
    fn point_at_standstill_fails() {
        let balance = EnergyBalance::new(&Scenario::reference()).unwrap();
        assert!(balance.point(Speed::ZERO).is_err());
    }

    #[test]
    #[should_panic(expected = "sweep needs at least two samples")]
    fn sweep_rejects_single_sample() {
        let balance = EnergyBalance::new(&Scenario::reference()).unwrap();
        let _ = balance.sweep(Speed::from_kmh(10.0), Speed::from_kmh(20.0), 1);
    }

    #[test]
    fn no_crossing_reports_none() {
        // A starved scavenger (1 % size) never reaches surplus.
        let starved = Scenario::builder()
            .chain(HarvestChain::reference().scaled(0.01))
            .build();
        let report = EnergyBalance::new(&starved).unwrap().sweep(
            Speed::from_kmh(5.0),
            Speed::from_kmh(200.0),
            60,
        );
        assert!(report.break_even().is_none());
        assert!(report.worst_deficit().is_some());
    }

    #[test]
    fn with_cache_matches_fresh_construction() {
        let scenario = Scenario::reference();
        let cache = scenario.cache().unwrap();
        let warm = EnergyBalance::with_cache(&scenario, cache);
        let fresh = EnergyBalance::new(&scenario).unwrap();
        let v = Speed::from_kmh(42.0);
        let a = warm.point(v).unwrap();
        let b = fresh.point(v).unwrap();
        assert_eq!(a.required.joules().to_bits(), b.required.joules().to_bits());
        assert_eq!(
            a.generated.joules().to_bits(),
            b.generated.joules().to_bits()
        );
    }

    #[test]
    fn cancellable_sweep_matches_plain_sweep() {
        let balance = EnergyBalance::new(&Scenario::reference()).unwrap();
        let lo = Speed::from_kmh(5.0);
        let hi = Speed::from_kmh(200.0);
        let plain = balance.sweep(lo, hi, 96);
        let cancellable = balance
            .sweep_cancellable(lo, hi, 96, &SweepExecutor::new(3), &|| false)
            .expect("not cancelled");
        assert_eq!(plain, cancellable);
        assert!(balance
            .sweep_cancellable(lo, hi, 96, &SweepExecutor::new(3), &|| true)
            .is_none());
    }

    #[test]
    fn cancelled_break_even_scan_returns_none() {
        let balance = EnergyBalance::new(&Scenario::reference()).unwrap();
        let (lo, hi) = (Speed::from_kmh(5.0), Speed::from_kmh(200.0));
        for threads in [1, 3] {
            let executor = SweepExecutor::new(threads);
            assert_eq!(balance.break_even(lo, hi, 196, &executor, &|| true), None);
            assert_eq!(
                balance.break_even(lo, hi, 196, &executor, &|| false),
                Some(balance.sweep(lo, hi, 196).break_even())
            );
        }
    }

    #[test]
    fn balance_points_round_trip_through_json() {
        let balance = EnergyBalance::new(&Scenario::reference()).unwrap();
        let report = balance.sweep(Speed::from_kmh(5.0), Speed::from_kmh(200.0), 24);
        let json = serde_json::to_string(&report).unwrap();
        let back: BalanceReport = serde_json::from_str(&json).unwrap();
        for (a, b) in report.points().iter().zip(back.points()) {
            assert_eq!(a.speed.mps().to_bits(), b.speed.mps().to_bits());
            assert_eq!(
                a.generated.joules().to_bits(),
                b.generated.joules().to_bits()
            );
            assert_eq!(a.required.joules().to_bits(), b.required.joules().to_bits());
        }
        assert_eq!(
            report.break_even().unwrap().mps().to_bits(),
            back.break_even().unwrap().mps().to_bits()
        );
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let balance = EnergyBalance::new(&Scenario::reference()).unwrap();
        let lo = Speed::from_kmh(5.0);
        let hi = Speed::from_kmh(200.0);
        let serial = balance.sweep(lo, hi, 196);
        for threads in [2, 4, 7] {
            let parallel = balance.sweep_with(lo, hi, 196, &SweepExecutor::new(threads));
            assert_eq!(parallel.len(), serial.len());
            for (s, p) in serial.points().iter().zip(parallel.points()) {
                assert_eq!(s.speed.mps().to_bits(), p.speed.mps().to_bits());
                assert_eq!(
                    s.generated.joules().to_bits(),
                    p.generated.joules().to_bits()
                );
                assert_eq!(s.required.joules().to_bits(), p.required.joules().to_bits());
            }
        }
    }
}
