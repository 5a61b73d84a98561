//! EXP-BATTERY — §I claim: "standard batteries cannot supply this chip
//! for a full tyre lifetime." Coin-cell vs tyre-life comparison across
//! monitoring intensities and usage patterns, with the scavenger as the
//! sustainable alternative.

use monityre_bench::{expect, header, parse_args};
use monityre_core::report::Table;
use monityre_core::{LifetimeEstimator, Scenario, UsagePattern};
use monityre_harvest::{HarvestChain, IdealBattery, PiezoScavenger, Regulator};
use monityre_node::NodeConfig;
use monityre_power::WorkingConditions;
use monityre_profile::Wheel;
use monityre_units::Temperature;

struct Case {
    label: &'static str,
    config: NodeConfig,
}

fn main() {
    let options = parse_args();
    header("EXP-BATTERY", "coin cell vs tyre lifetime vs scavenger");

    let cases = [
        Case {
            label: "tpms-class (32 samples, TX/16)",
            config: NodeConfig::reference()
                .with_samples_per_round(32)
                .with_tx_period_rounds(16)
                .with_acquisition_fraction(0.03),
        },
        Case {
            label: "reference (128 samples, TX/4)",
            config: NodeConfig::reference(),
        },
        Case {
            label: "full-rate (512 samples, TX/1)",
            config: NodeConfig::reference()
                .with_samples_per_round(512)
                .with_tx_period_rounds(1)
                .with_payload_bytes(64),
        },
    ];
    // Harvester sized 1.5x for the full-rate load (§I: output depends on
    // the size of the scavenging device).
    let chain = HarvestChain::new(
        PiezoScavenger::reference().scaled(1.5),
        Regulator::reference(),
        Wheel::reference(),
    );
    // Warm in-tyre working temperature while rolling.
    let cond = WorkingConditions::reference().with_temperature(Temperature::from_celsius(45.0));
    let pattern = UsagePattern::light_commuter();

    let mut rows = Vec::new();
    for case in &cases {
        let scenario = Scenario::builder()
            .config(case.config)
            .conditions(cond)
            .chain(chain.clone())
            .build();
        let estimator = LifetimeEstimator::new(&scenario).expect("scenario evaluates");
        let report = estimator
            .compare(pattern, IdealBattery::coin_cell_in_tyre())
            .expect("comparison runs");
        rows.push((case.label, report));
    }

    if options.check {
        let tpms = &rows[0].1;
        let full = &rows[2].1;
        expect(
            options,
            "TPMS-class node lives on a battery",
            tpms.battery_outlives_tyre,
        );
        expect(
            options,
            "full-rate monitoring kills the in-tyre cell before the tyre wears",
            !full.battery_outlives_tyre,
        );
        expect(
            options,
            "the sized scavenger sustains the full-rate node",
            full.scavenger_sustains,
        );
        return;
    }

    let mut table = Table::new(vec![
        "configuration",
        "daily_consumption_j",
        "battery_days",
        "tyre_days",
        "battery_outlives_tyre",
        "scavenger_sustains",
    ]);
    for (label, r) in &rows {
        table.row(vec![
            (*label).to_owned(),
            format!("{:.2}", r.daily_consumption.joules()),
            format!("{:.0}", r.battery_days),
            format!("{:.0}", r.tyre_days),
            r.battery_outlives_tyre.to_string(),
            r.scavenger_sustains.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "pattern: {:.2} h/day at {:.0} km/h; cell: CR2032-class, in-tyre derated (40 %/yr); tyre life 50,000 km",
        pattern.daily_driving.hours(),
        pattern.mean_speed.kmh()
    );
}
