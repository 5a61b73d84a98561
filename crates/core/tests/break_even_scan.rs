//! The early-stopping break-even scan agrees with the full sweep bit for
//! bit: `EnergyBalance::break_even` must return exactly what
//! `sweep(lo, hi, steps).break_even()` interpolates, for any scenario,
//! grid and thread count — including grids that never cross, grids that
//! start in surplus, and crossings that straddle a scan-chunk boundary.

use monityre_core::{
    EnergyBalance, RadioLink, Scenario, ScenarioExtras, StorageAgeing, SweepExecutor,
};
use monityre_harvest::HarvestChain;
use monityre_power::WorkingConditions;
use monityre_units::{Speed, Temperature};
use proptest::prelude::*;

/// The bits of a break-even speed, so comparisons catch last-ulp drift.
fn bits(break_even: Option<Speed>) -> Option<u64> {
    break_even.map(|speed| speed.mps().to_bits())
}

/// Asserts the scan matches the full sweep at every tested thread count
/// and returns the sweep's answer.
fn assert_scan_matches_sweep(
    balance: &EnergyBalance,
    lo: Speed,
    hi: Speed,
    steps: usize,
) -> Option<Speed> {
    let expected = balance.sweep(lo, hi, steps).break_even();
    for threads in [1, 2, 4] {
        let scanned = balance
            .break_even(lo, hi, steps, &SweepExecutor::new(threads), &|| false)
            .expect("a never-cancelled scan completes");
        assert_eq!(
            bits(scanned),
            bits(expected),
            "{lo}..{hi} x {steps} at {threads} thread(s)"
        );
    }
    expected
}

/// Index of the first surplus sample of the full sweep.
fn first_surplus(balance: &EnergyBalance, lo: Speed, hi: Speed, steps: usize) -> Option<usize> {
    balance
        .sweep(lo, hi, steps)
        .points()
        .iter()
        .position(|point| point.is_surplus())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scan_is_bit_identical_to_the_full_sweep(
        celsius in -30.0f64..110.0,
        scale in 0.05f64..3.0,
        axes in 0u8..4,
        loss in 0.0f64..0.9,
        retries in 0u32..8,
        age in 0.0f64..25.0,
        lo_kmh in 0.5f64..120.0,
        span_kmh in 0.5f64..300.0,
        steps in 2usize..=2000,
        threads in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let mut extras = ScenarioExtras::none();
        // Bit 0 switches the radio axis on, bit 1 the ageing axis.
        if axes & 1 != 0 {
            extras = extras.with_radio(RadioLink::new(loss, retries));
        }
        if axes & 2 != 0 {
            extras = extras.with_ageing(StorageAgeing::new(age));
        }
        let scenario = Scenario::builder()
            .conditions(
                WorkingConditions::reference().with_temperature(Temperature::from_celsius(celsius)),
            )
            .chain(HarvestChain::reference().scaled(scale))
            .extras(extras)
            .build();
        let balance = EnergyBalance::new(&scenario).unwrap();
        let lo = Speed::from_kmh(lo_kmh);
        let hi = Speed::from_kmh(lo_kmh + span_kmh);
        let expected = balance.sweep(lo, hi, steps).break_even();
        let scanned = balance
            .break_even(lo, hi, steps, &SweepExecutor::new(threads), &|| false)
            .expect("a never-cancelled scan completes");
        prop_assert_eq!(bits(scanned), bits(expected));
    }
}

#[test]
fn starved_chain_never_crosses() {
    let starved = Scenario::builder()
        .chain(HarvestChain::reference().scaled(0.01))
        .build();
    let balance = EnergyBalance::new(&starved).unwrap();
    for steps in [2, 17, 600] {
        let found = assert_scan_matches_sweep(
            &balance,
            Speed::from_kmh(5.0),
            Speed::from_kmh(200.0),
            steps,
        );
        assert!(found.is_none(), "a 1 % scavenger must never cross");
    }
}

#[test]
fn surplus_at_the_first_sample_is_the_low_end() {
    let balance = EnergyBalance::new(&Scenario::reference()).unwrap();
    let lo = Speed::from_kmh(100.0);
    for steps in [2, 16, 300] {
        let found = assert_scan_matches_sweep(&balance, lo, Speed::from_kmh(200.0), steps);
        assert_eq!(bits(found), bits(Some(lo)));
    }
}

#[test]
fn crossing_on_a_chunk_boundary_interpolates_across_chunks() {
    // The reference crosses near 34.5 km/h. These grids put the first
    // surplus sample at the first index of the scan's second and third
    // chunks (16 and 16 + 32), so the sample just below it comes from
    // the previous chunk.
    let balance = EnergyBalance::new(&Scenario::reference()).unwrap();
    for (boundary, hi_kmh) in [(16, 5.0 + 1.9 * 99.0), (48, 5.0 + 0.62 * 99.0)] {
        let (lo, hi) = (Speed::from_kmh(5.0), Speed::from_kmh(hi_kmh));
        assert_eq!(
            first_surplus(&balance, lo, hi, 100),
            Some(boundary),
            "grid up to {hi_kmh} km/h must first reach surplus at index {boundary}"
        );
        let found = assert_scan_matches_sweep(&balance, lo, hi, 100);
        let found = found.expect("the reference crosses").kmh();
        assert!(found > 5.0 && found < hi_kmh, "{found}");
    }
}

#[test]
fn two_sample_grids_match() {
    let balance = EnergyBalance::new(&Scenario::reference()).unwrap();
    for (lo, hi) in [(5.0, 200.0), (5.0, 20.0), (60.0, 90.0)] {
        assert_scan_matches_sweep(&balance, Speed::from_kmh(lo), Speed::from_kmh(hi), 2);
    }
}
