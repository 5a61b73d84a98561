//! Cross-crate property tests: invariants that must hold for arbitrary
//! configurations, conditions and drive profiles.

use monityre::core::{EmulatorConfig, EnergyBalance, Scenario, TransientEmulator};
use monityre::harvest::{HarvestChain, PiezoScavenger, Regulator, Supercap};
use monityre::node::{Architecture, NodeConfig};
use monityre::power::{ProcessCorner, WorkingConditions};
use monityre::profile::{PiecewiseProfile, Wheel};
use monityre::units::{
    Capacitance, Duration, Energy, Frequency, Resistance, Speed, Temperature, Voltage,
};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = NodeConfig> {
    (
        prop_oneof![Just(32u32), Just(64), Just(128), Just(256), Just(512)],
        1u32..=16,
        8u32..=64,
        0.02f64..0.5,
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
        0.9f64..1.4,
        -40.0f64..125.0,
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-round energy is positive and finite for every configuration,
    /// condition and speed.
    #[test]
    fn node_energy_positive_and_finite(
        config in arb_config(),
        cond in arb_conditions(),
        kmh in 1.0f64..250.0,
    ) {
        let scenario = Scenario::builder().config(config).conditions(cond).build();
        let e = scenario.cache().unwrap().required_per_round(Speed::from_kmh(kmh)).unwrap();
        prop_assert!(e.is_finite());
        prop_assert!(e > Energy::ZERO);
    }

    /// The required energy never increases when the node is configured to
    /// do strictly less work (fewer samples, sparser TX).
    #[test]
    fn less_work_never_costs_more(
        cond in arb_conditions(),
        kmh in 10.0f64..200.0,
        samples in 64u32..512,
        tx in 1u32..8,
    ) {
        let required = |config: NodeConfig| {
            Scenario::builder()
                .config(config)
                .conditions(cond)
                .build()
                .cache()
                .unwrap()
                .required_per_round(Speed::from_kmh(kmh))
                .unwrap()
        };
        let e_heavy = required(
            NodeConfig::reference()
                .with_samples_per_round(samples)
                .with_tx_period_rounds(tx),
        );
        let e_light = required(
            NodeConfig::reference()
                .with_samples_per_round(samples / 2)
                .with_tx_period_rounds(tx * 2),
        );
        prop_assert!(e_light <= e_heavy * 1.000_001);
    }

    /// The balance sweep has at most one surplus↔deficit transition for
    /// any scavenger sizing (monotone supply vs near-monotone demand).
    #[test]
    fn at_most_one_crossing(scale in 0.2f64..4.0, cond in arb_conditions()) {
        let chain = HarvestChain::new(
            PiezoScavenger::reference().scaled(scale),
            Regulator::reference(),
            Wheel::reference(),
        );
        let scenario = Scenario::builder().conditions(cond).chain(chain).build();
        let report = EnergyBalance::new(&scenario)
            .unwrap()
            .sweep(Speed::from_kmh(6.0), Speed::from_kmh(220.0), 108);
        let crossings = report
            .points()
            .windows(2)
            .filter(|w| w[0].is_surplus() != w[1].is_surplus())
            .count();
        prop_assert!(crossings <= 1, "{crossings} crossings at scale {scale}");
    }

    /// Emulator energy accounting balances for arbitrary piecewise drive
    /// profiles: ΔE_stored == harvested − consumed when self-discharge is
    /// negligible.
    #[test]
    fn emulator_conserves_energy(
        speeds in proptest::collection::vec(0.0f64..150.0, 3..8),
        seed_minutes in 1.0f64..4.0,
    ) {
        let mut points = vec![(Duration::ZERO, Speed::from_kmh(speeds[0]))];
        let segment = Duration::from_mins(seed_minutes / speeds.len() as f64);
        for (i, &kmh) in speeds.iter().enumerate().skip(1) {
            points.push((segment * i as f64, Speed::from_kmh(kmh)));
        }
        let profile = PiecewiseProfile::new(points).unwrap();

        let emulator = TransientEmulator::new(&Scenario::reference(), EmulatorConfig::new()).unwrap();
        let mut storage = Supercap::new(
            Capacitance::from_millifarads(47.0),
            Voltage::from_volts(1.8),
            Voltage::from_volts(3.6),
            Resistance::from_megaohms(1.0e9),
            Voltage::from_volts(2.7),
        );
        let before = storage.stored();
        let report = emulator.run(&profile, &mut storage);
        let delta = storage.stored() - before;
        let expected = report.harvested - report.consumed;
        prop_assert!(
            delta.approx_eq(expected, 1e-3),
            "ΔE {delta} vs harvested − consumed {expected}"
        );
        // Coverage is a valid fraction and windows fit the span.
        prop_assert!((0.0..=1.0).contains(&report.coverage()));
        for w in &report.windows {
            prop_assert!(w.start <= w.end);
        }
    }

    /// Serde round-trips any generated architecture exactly.
    #[test]
    fn architecture_serde_round_trip(config in arb_config()) {
        let arch = Architecture::from_config(config);
        let json = serde_json::to_string(&arch).unwrap();
        let back: Architecture = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, arch);
    }
}
