//! EXP-STORAGE — ablation of the design choices DESIGN.md calls out for
//! the emulator: reservoir capacitance and activation-hysteresis window
//! vs coverage and brownouts over the NEDC-like trip.

use monityre_bench::{expect, header, parse_args, reference_scenario};
use monityre_core::report::Table;
use monityre_core::{EmulatorConfig, TransientEmulator};
use monityre_harvest::Supercap;
use monityre_profile::{CompositeProfile, ExtraUrbanCycle, RepeatProfile, UrbanCycle};
use monityre_units::{Capacitance, Resistance, Voltage};

fn trip() -> CompositeProfile {
    CompositeProfile::new(vec![
        Box::new(RepeatProfile::new(UrbanCycle::new(), 4)),
        Box::new(ExtraUrbanCycle::new()),
    ])
}

fn reservoir(mf: f64) -> Supercap {
    Supercap::new(
        Capacitance::from_millifarads(mf),
        Voltage::from_volts(1.8),
        Voltage::from_volts(3.6),
        Resistance::from_megaohms(5.0),
        Voltage::from_volts(2.4),
    )
}

fn main() {
    let options = parse_args();
    header("EXP-STORAGE", "reservoir size and hysteresis vs coverage");

    let scenario = reference_scenario();

    // Sweep 1: capacitance at the default hysteresis.
    let mut cap_rows = Vec::new();
    for mf in [2.0, 5.0, 10.0, 22.0, 47.0, 100.0] {
        let emulator =
            TransientEmulator::new(&scenario, EmulatorConfig::new()).expect("emulator configures");
        let mut storage = reservoir(mf);
        let report = emulator.run(&trip(), &mut storage);
        cap_rows.push((
            mf,
            report.coverage(),
            report.windows.len(),
            report.brownouts,
        ));
    }

    // Sweep 2: hysteresis window at the 10 mF reservoir.
    let mut hyst_rows = Vec::new();
    for (on, off) in [
        (0.20, 0.15),
        (0.35, 0.15),
        (0.50, 0.15),
        (0.35, 0.05),
        (0.35, 0.30),
    ] {
        let mut config = EmulatorConfig::new();
        config.activate_soc = on;
        config.deactivate_soc = off;
        let emulator = TransientEmulator::new(&scenario, config).expect("emulator configures");
        let mut storage = reservoir(10.0);
        let report = emulator.run(&trip(), &mut storage);
        hyst_rows.push((
            on,
            off,
            report.coverage(),
            report.windows.len(),
            report.brownouts,
        ));
    }

    if options.check {
        // Coverage peaks at an intermediate size: a tiny reservoir cannot
        // ride through the idles, while an oversized one (same initial
        // voltage, below the activation SoC) spends the whole trip
        // charging toward its threshold.
        let best = cap_rows.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        let first = cap_rows.first().unwrap();
        let last = cap_rows.last().unwrap();
        expect(
            options,
            "coverage peaks at an intermediate reservoir size",
            best.0 > first.0 && best.0 < last.0,
        );
        expect(
            options,
            "no run browns out (hysteresis margin holds)",
            cap_rows.iter().all(|r| r.3 == 0) && hyst_rows.iter().all(|r| r.4 == 0),
        );
        let eager = hyst_rows.iter().find(|r| r.0 == 0.20).unwrap();
        let cautious = hyst_rows.iter().find(|r| r.0 == 0.50).unwrap();
        expect(
            options,
            "an eager activation threshold yields at least the coverage of a cautious one",
            eager.2 >= cautious.2,
        );
        let default = hyst_rows
            .iter()
            .find(|r| r.0 == 0.35 && r.1 == 0.15)
            .unwrap();
        let tight = hyst_rows
            .iter()
            .find(|r| r.0 == 0.35 && r.1 == 0.30)
            .unwrap();
        expect(
            options,
            "a narrow hysteresis band fragments the operating windows",
            tight.3 > default.3,
        );
        return;
    }

    let mut table = Table::new(vec![
        "capacitance_mf",
        "coverage_pct",
        "windows",
        "brownouts",
    ]);
    for (mf, cov, windows, brownouts) in &cap_rows {
        table.row(vec![
            format!("{mf:.0}"),
            format!("{:.1}", cov * 100.0),
            windows.to_string(),
            brownouts.to_string(),
        ]);
    }
    println!("{table}");

    let mut table = Table::new(vec![
        "activate_soc",
        "deactivate_soc",
        "coverage_pct",
        "windows",
        "brownouts",
    ]);
    for (on, off, cov, windows, brownouts) in &hyst_rows {
        table.row(vec![
            format!("{on:.2}"),
            format!("{off:.2}"),
            format!("{:.1}", cov * 100.0),
            windows.to_string(),
            brownouts.to_string(),
        ]);
    }
    println!("{table}");
}
