//! Integration tests for long-window emulation on realistic cycles.

use monityre::core::{EmulatorConfig, Scenario, TransientEmulator, VehicleEmulator};
use monityre::harvest::{Storage, Supercap};
use monityre::profile::{SpeedProfile, WltcLikeCycle};

#[test]
fn wltc_like_cycle_sustains_the_reference_node() {
    let emulator = TransientEmulator::new(&Scenario::reference(), EmulatorConfig::new()).unwrap();
    let cycle = WltcLikeCycle::new();
    let mut storage = Supercap::reference();
    let report = emulator.run(&cycle, &mut storage);

    // The WLTC-like mix averages ≈ 45 km/h — above break-even, so the trip
    // as a whole must be net positive and keep high coverage.
    assert!(report.coverage() > 0.8, "coverage {}", report.coverage());
    assert!(report.harvested > report.consumed);
    assert_eq!(report.brownouts, 0);
    // The low phase contains multi-minute crawls; the reservoir must
    // visibly cycle (SoC moves more than a couple of percent).
    let socs: Vec<f64> = report.samples.iter().map(|s| s.soc).collect();
    let min = socs.iter().copied().fold(1.0f64, f64::min);
    let max = socs.iter().copied().fold(0.0f64, f64::max);
    assert!(max - min > 0.02, "SoC band {min}..{max} too flat");
}

#[test]
fn wltc_like_cycle_supports_four_corner_friction_estimation() {
    let emulator = VehicleEmulator::reference();
    let report = emulator.run(&WltcLikeCycle::new()).unwrap();
    assert!(
        report.all_active_fraction > 0.7,
        "all-active {}",
        report.all_active_fraction
    );
    assert!(report.any_active_fraction >= report.all_active_fraction);
}

#[test]
fn emulation_respects_storage_bounds_throughout() {
    let emulator = TransientEmulator::new(&Scenario::reference(), EmulatorConfig::new()).unwrap();
    let cycle = WltcLikeCycle::new();
    let mut storage = Supercap::reference();
    let report = emulator.run(&cycle, &mut storage);
    for s in &report.samples {
        assert!((0.0..=1.0).contains(&s.soc), "SoC {} out of bounds", s.soc);
        assert!(!s.node_power.is_negative());
        assert!(s.tyre_temperature.celsius() > -50.0 && s.tyre_temperature.celsius() < 150.0);
    }
    assert!(storage.state_of_charge() >= 0.0);
    // Sanity: trip span recorded faithfully.
    assert!((report.span.secs() - cycle.duration().secs()).abs() < 1e-9);
}
