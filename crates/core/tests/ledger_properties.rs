//! Property-based tests for the energy ledger's conservation invariant:
//! across random scenarios × extended axes × speeds, the cache's node
//! and block figures, `point()` and the ledger all read one per-block walk (float
//! layer), the attributed components sum integer-exactly to the aggregate
//! `BalancePoint` figures (nanojoule layer), and a ledger is byte-stable
//! across memo states and repeated builds.

use monityre_core::{
    quantize_nj, EnergyBalance, RadioLink, Scenario, ScenarioExtras, StorageAgeing,
};
use monityre_node::{Architecture, NodeConfig};
use monityre_power::{EnergyBreakdown, ProcessCorner, WorkingConditions};
use monityre_units::{Speed, Temperature};
use proptest::prelude::*;

/// Builds a scenario from the full knob space the serving layer exposes.
#[allow(clippy::too_many_arguments)]
fn scenario_of(
    celsius: f64,
    corner: usize,
    samples: u32,
    tx_period: u32,
    loss: f64,
    retries: u32,
    age: f64,
    with_extras: bool,
) -> Scenario {
    let corner = [
        ProcessCorner::SlowSlow,
        ProcessCorner::Typical,
        ProcessCorner::FastFast,
    ][corner % 3];
    let mut builder = Scenario::builder()
        .conditions(
            WorkingConditions::reference()
                .with_temperature(Temperature::from_celsius(celsius))
                .with_corner(corner),
        )
        .architecture(Architecture::from_config(
            NodeConfig::reference()
                .with_samples_per_round(samples)
                .with_tx_period_rounds(tx_period),
        ));
    if with_extras {
        builder = builder.extras(
            ScenarioExtras::none()
                .with_radio(RadioLink::new(loss, retries).with_tx_period_rounds(tx_period))
                .with_ageing(StorageAgeing::new(age)),
        );
    }
    builder.build()
}

/// The exact bit patterns of a breakdown's two halves.
fn bits(e: EnergyBreakdown) -> [u64; 2] {
    [e.dynamic.joules().to_bits(), e.leakage.joules().to_bits()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One per-block walk feeds every consumer: the cache's node and
    /// single-block figures agree on it, bit for bit; `point().required` is
    /// its total folded with `extra_required_per_round`, bit for bit,
    /// without a memo, on a cold memo and on a warm one; and the
    /// ledger's lines are its figures and the axes' surcharges,
    /// quantized. Explaining leaves the memo untouched.
    #[test]
    fn one_walk_feeds_cache_point_and_ledger(
        celsius in -40.0f64..125.0,
        corner in 0usize..3,
        samples in 1u32..512,
        tx_period in 1u32..16,
        loss in 0.0f64..0.9,
        retries in 0u32..16,
        age in 0.0f64..=30.0,
        extras_coin in 0u32..2,
        kmh in 5.0f64..220.0,
    ) {
        let scenario = scenario_of(celsius, corner, samples, tx_period, loss, retries, age, extras_coin == 1);
        let speed = Speed::from_kmh(kmh);
        let cache = scenario.cache().unwrap();
        let walk = cache.node_energy(speed).unwrap();
        prop_assert_eq!(walk.blocks.len(), scenario.architecture().len());
        for w in &walk.blocks {
            let d = cache.block_energy(&w.name, speed).unwrap();
            prop_assert_eq!(&d.name, &w.name);
            prop_assert_eq!(bits(d.energy), bits(w.energy));
            prop_assert_eq!(d.duty_cycle, w.duty_cycle);
        }

        let temperature = scenario.conditions().temperature();
        let (radio, ageing) = scenario.extras().map_or(Default::default(), |extras| {
            extras.surcharges(temperature, scenario.wheel(), speed)
        });
        let mut required = walk.total().total();
        if let Some(extras) = scenario.extras() {
            required += extras.extra_required_per_round(temperature, scenario.wheel(), speed);
        }
        let plain = EnergyBalance::with_cache(&scenario, cache.clone());
        let memo_cache = cache.with_memo(32);
        let memoized = EnergyBalance::with_cache(&scenario, memo_cache.clone());
        for balance in [&plain, &memoized, &memoized] {
            let point = balance.point(speed).unwrap();
            prop_assert_eq!(point.required.joules().to_bits(), required.joules().to_bits());
        }

        let ledger = memoized.explain(speed).unwrap();
        prop_assert_eq!(ledger.blocks.len(), walk.blocks.len());
        for (line, w) in ledger.blocks.iter().zip(&walk.blocks) {
            prop_assert_eq!(&line.block, &w.name);
            prop_assert_eq!(line.dynamic_nj, quantize_nj(w.energy.dynamic));
            prop_assert_eq!(line.static_nj, quantize_nj(w.energy.leakage));
            prop_assert_eq!(line.duty.to_bits(), w.duty_cycle.active_fraction().to_bits());
        }
        prop_assert_eq!(ledger.radio_retx_nj, quantize_nj(radio));
        prop_assert_eq!(ledger.ageing_leak_nj, quantize_nj(ageing));
        let memo = memo_cache.stats();
        prop_assert_eq!((memo.hits, memo.misses), (1, 1));
    }

    /// The two conservation layers hold for every scenario × speed the
    /// generator can produce, and the ledger's aggregates are the
    /// `point()` aggregates: harvested quantizes identically, consumed
    /// differs from the quantized aggregate only by per-component
    /// rounding slack, and the float-layer replay was bit-exact.
    #[test]
    fn ledger_conserves_across_scenarios_and_axes(
        celsius in -40.0f64..125.0,
        corner in 0usize..3,
        samples in 1u32..512,
        tx_period in 1u32..16,
        loss in 0.0f64..0.9,
        retries in 0u32..16,
        age in 0.0f64..=30.0,
        extras_coin in 0u32..2,
        kmh in 5.0f64..220.0,
    ) {
        let with_extras = extras_coin == 1;
        let scenario = scenario_of(celsius, corner, samples, tx_period, loss, retries, age, with_extras);
        let balance = EnergyBalance::new(&scenario).unwrap();
        let speed = Speed::from_kmh(kmh);
        let ledger = balance.explain(speed).unwrap();
        let point = balance.point(speed).unwrap();

        prop_assert!(ledger.conserved, "float-layer replay diverged at {kmh} km/h");
        prop_assert!(ledger.conservation_holds());
        prop_assert_eq!(ledger.harvested_nj, quantize_nj(point.generated));
        // Per-component quantization loses at most 0.5 nJ per line item
        // versus quantizing the aggregate once.
        let slack = ledger.blocks.len() as i64 + 2;
        let required_nj = quantize_nj(point.required);
        prop_assert!(
            (ledger.consumed_nj - required_nj).abs() <= slack,
            "consumed {} vs aggregate {} (slack {})",
            ledger.consumed_nj,
            required_nj,
            slack
        );
        prop_assert_eq!(ledger.storage_delta_nj, ledger.harvested_nj - ledger.consumed_nj);
        // Axis surcharges appear exactly when the axes are attached.
        if !with_extras {
            prop_assert_eq!(ledger.radio_retx_nj, 0);
            prop_assert_eq!(ledger.ageing_leak_nj, 0);
        }
        prop_assert!(ledger.radio_retx_nj >= 0 && ledger.ageing_leak_nj >= 0);
    }

    /// A ledger is byte-identical whether the cache carries a memo or
    /// not, whether the memo is cold or warm, and across repeated
    /// builds — the property the `explain` wire op extends to threads.
    #[test]
    fn ledger_bytes_are_memo_invariant(
        celsius in -20.0f64..90.0,
        extras_coin in 0u32..2,
        kmh in 5.0f64..220.0,
    ) {
        let scenario = scenario_of(celsius, 1, 64, 4, 0.25, 4, 6.0, extras_coin == 1);
        let speed = Speed::from_kmh(kmh);
        let fresh = EnergyBalance::new(&scenario).unwrap();
        let memoized = EnergyBalance::with_cache(
            &scenario,
            scenario.cache().unwrap().with_memo(32),
        );
        let baseline = serde_json::to_string(&fresh.explain(speed).unwrap()).unwrap();
        // Cold memo, then warm memo, then warm through the point() path.
        let cold = serde_json::to_string(&memoized.explain(speed).unwrap()).unwrap();
        let warm = serde_json::to_string(&memoized.explain(speed).unwrap()).unwrap();
        let _ = memoized.point(speed).unwrap();
        let after_point = serde_json::to_string(&memoized.explain(speed).unwrap()).unwrap();
        prop_assert_eq!(&cold, &baseline);
        prop_assert_eq!(&warm, &baseline);
        prop_assert_eq!(&after_point, &baseline);
    }
}

/// The global violation counter stays untouched by a healthy run — the
/// same metric the chaos matrix asserts is zero.
#[test]
fn healthy_ledgers_do_not_bump_the_violation_counter() {
    let before = monityre_obs::Registry::global()
        .counter(monityre_obs::names::LEDGER_CONSERVATION_VIOLATIONS)
        .get();
    let balance = EnergyBalance::new(&Scenario::reference()).unwrap();
    for kmh in [7.0, 34.5, 90.0, 180.0] {
        let ledger = balance.explain(Speed::from_kmh(kmh)).unwrap();
        assert!(ledger.conserved);
    }
    let after = monityre_obs::Registry::global()
        .counter(monityre_obs::names::LEDGER_CONSERVATION_VIOLATIONS)
        .get();
    assert_eq!(before, after);
}
