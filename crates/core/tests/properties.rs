//! Property-based tests for the analysis flow invariants.

use monityre_core::{EnergyBalance, InstantTrace, OptimizationAdvisor, Scenario, SelectionPolicy};
use monityre_node::{Architecture, NodeConfig};
use monityre_power::{ProcessCorner, WorkingConditions};
use monityre_units::{Duration, Frequency, Speed, Temperature, Voltage};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = NodeConfig> {
    (
        prop_oneof![Just(32u32), Just(128), Just(512)],
        1u32..=16,
        8u32..=64,
        0.05f64..0.4,
        2.0f64..16.0,
    )
        .prop_map(|(samples, tx, payload, acq, mhz)| {
            NodeConfig::reference()
                .with_samples_per_round(samples)
                .with_tx_period_rounds(tx)
                .with_payload_bytes(payload)
                .with_acquisition_fraction(acq)
                .with_dsp_clock(Frequency::from_megahertz(mhz))
        })
}

fn arb_conditions() -> impl Strategy<Value = WorkingConditions> {
    (
        1.0f64..1.32,
        -20.0f64..60.0,
        prop_oneof![
            Just(ProcessCorner::SlowSlow),
            Just(ProcessCorner::Typical),
            Just(ProcessCorner::FastFast),
        ],
    )
        .prop_map(|(v, t, corner)| {
            WorkingConditions::builder()
                .supply(Voltage::from_volts(v))
                .temperature(Temperature::from_celsius(t))
                .corner(corner)
                .build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The duty-cycle-aware optimizer never makes an architecture worse at
    /// its design speed, for arbitrary configurations and conditions.
    #[test]
    fn optimizer_never_worsens(
        config in arb_config(),
        cond in arb_conditions(),
        design_kmh in 15.0f64..120.0,
    ) {
        let scenario = Scenario::builder().config(config).conditions(cond).build();
        let advisor = OptimizationAdvisor::new(&scenario, Speed::from_kmh(design_kmh)).unwrap();
        for policy in [SelectionPolicy::PowerFigures, SelectionPolicy::DutyCycleAware] {
            let outcome = advisor.optimize(policy).unwrap();
            prop_assert!(
                outcome.energy_after <= outcome.energy_before * 1.000_001,
                "{policy:?}: {} -> {}",
                outcome.energy_before,
                outcome.energy_after
            );
        }
    }

    /// Optimizing at one speed helps (or is neutral) across the whole
    /// speed range for the duty-cycle-aware policy — techniques only scale
    /// components down net of overheads.
    #[test]
    fn optimized_architecture_dominates_everywhere(
        cond in arb_conditions(),
        check_kmh in 10.0f64..180.0,
    ) {
        let scenario = Scenario::builder().conditions(cond).build();
        let advisor = OptimizationAdvisor::new(&scenario, Speed::from_kmh(30.0)).unwrap();
        let outcome = advisor.optimize(SelectionPolicy::DutyCycleAware).unwrap();
        let optimized = scenario.with_architecture(outcome.architecture).cache().unwrap();
        let speed = Speed::from_kmh(check_kmh);
        let before = scenario.cache().unwrap().required_per_round(speed).unwrap();
        let after = optimized.required_per_round(speed).unwrap();
        prop_assert!(after <= before * 1.01, "at {check_kmh} km/h: {before} -> {after}");
    }

    /// The Fig. 3 trace integral matches the cache's per-round energy
    /// over whole TX cycles, for arbitrary configurations.
    #[test]
    fn trace_integral_consistency(config in arb_config(), kmh in 30.0f64..150.0) {
        let scenario = Scenario::builder().config(config).build();
        let cache = scenario.cache().unwrap();
        let speed = Speed::from_kmh(kmh);
        let period = cache.round_period(speed).unwrap();
        let cycles = config.tx_period_rounds();
        let window = period * f64::from(cycles);
        // The step must resolve the narrowest feature (the TX burst) or
        // the Riemann sum over the spike dominates the error.
        let step = Duration::from_secs(
            (window.secs() / 8000.0)
                .min(config.tx_burst().secs() / 16.0)
                .max(2e-6),
        );
        let trace = InstantTrace::generate(&scenario, speed, window, step).unwrap();
        let integral: f64 = trace
            .samples()
            .iter()
            .map(|s| s.total.watts() * step.secs())
            .sum();
        let expected = cache.required_per_round(speed).unwrap().joules()
            * f64::from(cycles);
        let rel = (integral - expected).abs() / expected;
        prop_assert!(rel < 0.06, "rel err {rel:.4} over {cycles} rounds at {kmh} km/h");
    }

    /// Break-even (when it exists) is consistent with point queries: a
    /// point 5 km/h above it is surplus, 5 km/h below deficit.
    #[test]
    fn break_even_consistent_with_points(config in arb_config(), cond in arb_conditions()) {
        let scenario = Scenario::builder()
            .architecture(Architecture::from_config(config))
            .conditions(cond)
            .build();
        let balance = EnergyBalance::new(&scenario).unwrap();
        let report = balance.sweep(Speed::from_kmh(6.0), Speed::from_kmh(220.0), 216);
        if let Some(be) = report.break_even() {
            prop_assume!(be.kmh() > 12.0 && be.kmh() < 214.0);
            let above = balance.point(Speed::from_kmh(be.kmh() + 5.0)).unwrap();
            let below = balance.point(Speed::from_kmh(be.kmh() - 5.0)).unwrap();
            prop_assert!(above.is_surplus(), "above: {above:?}");
            prop_assert!(!below.is_surplus(), "below: {below:?}");
        }
    }

    /// Required energy per round is continuous-ish in speed: halving the
    /// sweep step never reveals a jump larger than the local trend.
    #[test]
    fn demand_curve_is_smooth(config in arb_config(), kmh in 20.0f64..180.0) {
        let cache = Scenario::builder().config(config).build().cache().unwrap();
        let e = |k: f64| cache.required_per_round(Speed::from_kmh(k)).unwrap().joules();
        let mid = e(kmh);
        let lo = e(kmh - 0.5);
        let hi = e(kmh + 0.5);
        // mid lies within the [lo, hi] band stretched by 1 %.
        let min = lo.min(hi) * 0.99;
        let max = lo.max(hi) * 1.01;
        prop_assert!(mid >= min && mid <= max, "{lo} {mid} {hi}");
    }
}
