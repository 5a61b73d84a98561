//! EXP-WINDOW — §II-A claim: the long-window emulation "is useful for
//! identifying operating windows of the conceived monitoring system".
//! NEDC-like trip: four urban cycles + one extra-urban segment.

use monityre_bench::{expect, header, parse_args, reference_scenario};
use monityre_core::report::{ascii_chart, Series, Table};
use monityre_core::{EmulatorConfig, TransientEmulator};
use monityre_harvest::Supercap;
use monityre_profile::{CompositeProfile, ExtraUrbanCycle, RepeatProfile, UrbanCycle};
use monityre_units::{Capacitance, Resistance, Voltage};

fn main() {
    let options = parse_args();
    header("EXP-WINDOW", "operating windows over an NEDC-like trip");

    let scenario = reference_scenario();
    let trip = CompositeProfile::new(vec![
        Box::new(RepeatProfile::new(UrbanCycle::new(), 4)),
        Box::new(ExtraUrbanCycle::new()),
    ]);

    // A small, half-empty reservoir makes the windows visible.
    let mut storage = Supercap::new(
        Capacitance::from_millifarads(10.0),
        Voltage::from_volts(1.8),
        Voltage::from_volts(3.6),
        Resistance::from_megaohms(5.0),
        Voltage::from_volts(2.4),
    );

    let emulator =
        TransientEmulator::new(&scenario, EmulatorConfig::new()).expect("emulator configures");
    let report = emulator.run(&trip, &mut storage);

    if options.check {
        expect(options, "trip produced samples", !report.samples.is_empty());
        expect(
            options,
            "coverage is partial on urban stop-and-go",
            report.coverage() > 0.05 && report.coverage() < 1.0,
        );
        expect(
            options,
            "windows were identified",
            !report.windows.is_empty(),
        );
        return;
    }

    let mut table = Table::new(vec!["window", "start_s", "end_s", "length_s"]);
    for (i, w) in report.windows.iter().enumerate() {
        table.row(vec![
            format!("{}", i + 1),
            format!("{:.1}", w.start.secs()),
            format!("{:.1}", w.end.secs()),
            format!("{:.1}", w.length().secs()),
        ]);
    }
    println!("{table}");

    let soc: Vec<(f64, f64)> = report
        .samples
        .iter()
        .map(|s| (s.time.secs(), s.soc * 100.0))
        .collect();
    let speed: Vec<(f64, f64)> = report
        .samples
        .iter()
        .map(|s| (s.time.secs(), s.speed.kmh()))
        .collect();
    println!(
        "{}",
        ascii_chart(
            &[
                Series {
                    label: "state of charge (%)",
                    glyph: '*',
                    points: soc
                },
                Series {
                    label: "speed (km/h)",
                    glyph: '.',
                    points: speed
                },
            ],
            96,
            20,
        )
    );
    println!(
        "coverage {:.1} % over {:.0} s, harvested {}, consumed {}, spilled {}, {} brownout(s)",
        report.coverage() * 100.0,
        report.span.secs(),
        report.harvested,
        report.consumed,
        report.spilled,
        report.brownouts
    );
}
