//! Integration assertions on the shapes of the paper's data figures.

use monityre::core::{EnergyBalance, InstantTrace, Scenario};
use monityre::units::{Duration, Speed};

#[test]
fn fig2_has_paper_shape() {
    let scenario = Scenario::reference();
    let balance = EnergyBalance::new(&scenario).unwrap();
    let report = balance.sweep(Speed::from_kmh(5.0), Speed::from_kmh(200.0), 391);

    // Generated: zero at cut-in, monotone increasing, saturating.
    let first = report.points().first().unwrap();
    let last = report.points().last().unwrap();
    assert_eq!(first.generated.joules(), 0.0, "below cut-in");
    for w in report.points().windows(2) {
        assert!(w[1].generated >= w[0].generated);
    }
    let near_end = &report.points()[report.len() - 40];
    assert!(
        last.generated.joules() < near_end.generated.joules() * 1.15,
        "generated curve must flatten at high speed"
    );

    // Required: decreasing from the low-speed leakage-dominated regime.
    assert!(first.required > last.required);

    // Exactly one crossing, in the calibrated band.
    let crossings = report
        .points()
        .windows(2)
        .filter(|w| w[0].is_surplus() != w[1].is_surplus())
        .count();
    assert_eq!(crossings, 1);
    let be = report.break_even().unwrap();
    assert!(be.kmh() > 20.0 && be.kmh() < 50.0, "break-even {be:?}");
}

#[test]
fn fig3_has_paper_structure() {
    let scenario = Scenario::reference();
    let speed = Speed::from_kmh(60.0);
    let trace = InstantTrace::generate(
        &scenario,
        speed,
        Duration::from_millis(500.0),
        Duration::from_micros(50.0),
    )
    .unwrap();

    // Three power scales: µW floor, hundreds-of-µW acquisition plateau,
    // mW TX spike.
    assert!(trace.floor().microwatts() < 25.0);
    assert!(trace.peak().milliwatts() > 15.0);
    let plateau = trace
        .samples()
        .iter()
        .filter(|s| s.total.microwatts() > 200.0 && s.total.milliwatts() < 5.0)
        .count();
    assert!(
        plateau > 100,
        "acquisition plateau missing ({plateau} samples)"
    );

    // Periodicity at the wheel round.
    let period = trace.round_period();
    let at = |t: Duration| {
        trace
            .samples()
            .iter()
            .min_by(|a, b| {
                (a.time.secs() - t.secs())
                    .abs()
                    .total_cmp(&(b.time.secs() - t.secs()).abs())
            })
            .unwrap()
            .total
    };
    // Same phase offset one round apart (both rounds without TX).
    let t1 = period * 1.3;
    let t2 = period * 2.3;
    assert!(at(t1).approx_eq(at(t2), 1e-6), "{} vs {}", at(t1), at(t2));
}

#[test]
fn fig2_and_fig3_are_mutually_consistent() {
    // The Fig. 3 trace's mean power must match the Fig. 2 required energy
    // divided by the round period (over whole TX cycles).
    let scenario = Scenario::reference();
    let cache = scenario.cache().unwrap();
    let speed = Speed::from_kmh(60.0);
    let period = cache.round_period(speed).unwrap();
    let trace = InstantTrace::generate(
        &scenario,
        speed,
        period * 8.0, // two full TX cycles
        Duration::from_micros(20.0),
    )
    .unwrap();
    let required = cache.required_per_round(speed).unwrap();
    let expected_mean = required / period;
    let rel = (trace.mean().watts() - expected_mean.watts()).abs() / expected_mean.watts();
    assert!(
        rel < 0.02,
        "trace mean {} vs cache {}",
        trace.mean(),
        expected_mean
    );
}
