//! Road trip: emulate the Sensor Node over a mixed urban/extra-urban/
//! motorway journey and report its operating windows.
//!
//! ```sh
//! cargo run --example road_trip
//! ```

use monityre::core::{EmulatorConfig, Scenario, TransientEmulator};
use monityre::harvest::Supercap;
use monityre::profile::{
    CompositeProfile, ExtraUrbanCycle, MotorwayCycle, RepeatProfile, SpeedProfile, UrbanCycle,
};
use monityre::units::{Duration, Speed};

fn main() {
    // A one-hour-ish trip: city, then a country road, then motorway.
    let trip = CompositeProfile::new(vec![
        Box::new(RepeatProfile::new(UrbanCycle::new(), 4)),
        Box::new(ExtraUrbanCycle::new()),
        Box::new(
            MotorwayCycle::new(Speed::from_kmh(120.0), Duration::from_mins(25.0))
                .expect("valid motorway leg"),
        ),
        Box::new(RepeatProfile::new(UrbanCycle::new(), 2)),
    ]);
    println!(
        "trip: {:.0} s, mean speed {:.1} km/h",
        trip.duration().secs(),
        trip.mean_speed(2000).kmh()
    );

    let emulator = TransientEmulator::new(&Scenario::reference(), EmulatorConfig::new())
        .expect("valid emulator configuration");

    let mut storage = Supercap::reference();
    let report = emulator.run(&trip, &mut storage);

    println!("operating windows:");
    for (i, w) in report.windows.iter().enumerate() {
        println!(
            "  #{:<2} {:>7.1} s … {:>7.1} s  ({:.1} s)",
            i + 1,
            w.start.secs(),
            w.end.secs(),
            w.length().secs()
        );
    }
    println!(
        "coverage {:.1} %, harvested {}, consumed {}, spilled {}, {} brownout(s)",
        report.coverage() * 100.0,
        report.harvested,
        report.consumed,
        report.spilled,
        report.brownouts
    );
    let last = report.samples.last().expect("samples recorded");
    println!(
        "final state: SoC {:.0} %, tyre at {}",
        last.soc * 100.0,
        last.tyre_temperature
    );
}
