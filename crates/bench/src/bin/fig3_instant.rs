//! FIG3 — instant power consumption of the Sensor Node during a limited
//! timing window (Fig. 3 of the paper): the per-round phase structure at
//! 60 km/h, 100 µs resolution, ~0.5 s window.

use monityre_bench::{expect, header, parse_args, reference_scenario};
use monityre_core::report::{ascii_chart, Series, Table};
use monityre_core::InstantTrace;
use monityre_units::{Duration, Speed};

fn main() {
    let options = parse_args();
    header("FIG3", "instant power in a limited timing window (Fig. 3)");

    let scenario = reference_scenario();
    let speed = Speed::from_kmh(60.0);
    let trace = InstantTrace::generate(
        &scenario,
        speed,
        Duration::from_millis(500.0),
        Duration::from_micros(100.0),
    )
    .expect("trace generates");

    if options.check {
        expect(
            options,
            "mW-class TX spikes",
            trace.peak().milliwatts() > 15.0,
        );
        expect(options, "µW-class floor", trace.floor().microwatts() < 25.0);
        expect(
            options,
            "mean sits between floor and peak",
            trace.mean() > trace.floor() && trace.mean() < trace.peak(),
        );
        return;
    }

    let mut table = Table::new(vec!["time_ms", "power_uw"]);
    for s in trace.samples() {
        table.row(vec![
            format!("{:.3}", s.time.millis()),
            format!("{:.2}", s.total.microwatts()),
        ]);
    }
    println!("{}", table.to_csv());

    let points: Vec<(f64, f64)> = trace
        .samples()
        .iter()
        .map(|s| (s.time.millis(), s.total.microwatts()))
        .collect();
    println!(
        "{}",
        ascii_chart(
            &[Series {
                label: "node power (µW)",
                glyph: '*',
                points
            }],
            96,
            24,
        )
    );
    println!(
        "round period {:.1} ms, floor {}, peak {}, mean {}",
        trace.round_period().millis(),
        trace.floor(),
        trace.peak(),
        trace.mean()
    );
}
