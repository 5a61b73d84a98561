//! FIG2 — the energy balance at different cruising speeds: the curves of
//! energy generated by the scavenger and required by the whole system,
//! with the break-even point (Fig. 2 of the paper).

use monityre_bench::{
    expect, header, parse_args, record_bench, reference_scenario, secs, BenchRow, Pairing,
    BENCH_THREADS, EXECUTOR_LAYER,
};
use monityre_core::report::{ascii_chart, Series, Table};
use monityre_core::{speed_grid, EnergyBalance, SweepExecutor};
use monityre_units::Speed;

const STEPS: usize = 196;

fn main() {
    let options = parse_args();
    header("FIG2", "energy balance vs cruising speed (Fig. 2)");

    let scenario = reference_scenario();
    let balance = EnergyBalance::new(&scenario).expect("reference scenario evaluates");
    let lo = Speed::from_kmh(5.0);
    let hi = Speed::from_kmh(200.0);
    let report = balance.sweep(lo, hi, STEPS);
    let break_even = report.break_even();

    if options.check {
        let be = break_even.expect("curves must cross");
        expect(
            options,
            "break-even in the low tens of km/h",
            be.kmh() > 10.0 && be.kmh() < 60.0,
        );
        expect(
            options,
            "deficit at 10 km/h",
            !report.points().first().unwrap().is_surplus(),
        );
        expect(
            options,
            "surplus at 200 km/h",
            report.points().last().unwrap().is_surplus(),
        );
        return;
    }

    let mut table = Table::new(vec!["speed_kmh", "generated_uj", "required_uj", "net_uj"]);
    for p in report.points() {
        table.row(vec![
            format!("{:.1}", p.speed.kmh()),
            format!("{:.3}", p.generated.microjoules()),
            format!("{:.3}", p.required.microjoules()),
            format!("{:.3}", p.net().microjoules()),
        ]);
    }
    println!("{}", table.to_csv());

    let generated: Vec<(f64, f64)> = report
        .points()
        .iter()
        .map(|p| (p.speed.kmh(), p.generated.microjoules()))
        .collect();
    let required: Vec<(f64, f64)> = report
        .points()
        .iter()
        .map(|p| (p.speed.kmh(), p.required.microjoules()))
        .collect();
    println!(
        "{}",
        ascii_chart(
            &[
                Series {
                    label: "generated (µJ/round)",
                    glyph: '*',
                    points: generated
                },
                Series {
                    label: "required (µJ/round)",
                    glyph: 'o',
                    points: required
                },
            ],
            96,
            24,
        )
    );
    match break_even {
        Some(be) => println!("break-even speed: {:.1} km/h", be.kmh()),
        None => println!("break-even speed: none in the swept range"),
    }

    // Throughput of the Fig. 2 sweep, serial vs parallel, in two shapes:
    // one 196-point batch per executor pass (what a served sweep runs, so
    // the executor decides alone whether helpers pay), and the batch
    // replicated 64× into one pass (sustained throughput, the way corner/
    // config grids and Monte Carlo hand the executor long maps).
    let speeds = speed_grid(lo, hi, STEPS);
    let serial = SweepExecutor::serial();
    let parallel = SweepExecutor::new(BENCH_THREADS);
    let mut rows = Vec::new();
    for (name, batches, samples) in [
        ("fig2-balance-sweep-1x", 1, 200),
        ("fig2-balance-sweep", 64, 20),
    ] {
        let items: Vec<Speed> = speeds
            .iter()
            .copied()
            .cycle()
            .take(STEPS * batches)
            .collect();
        let rate = |executor: &SweepExecutor| {
            items.len() as f64
                / secs(|| {
                    let points = executor.map(&items, |_, &speed| {
                        balance.point(speed).expect("swept speeds are positive")
                    });
                    assert_eq!(points.len(), items.len());
                })
        };
        let shape = format!("{STEPS} pts x {batches} batches");
        let threads = format!("{shape}, {BENCH_THREADS} threads");
        rows.push(BenchRow::sampled(
            &format!("{name}.serial"),
            "core.balance",
            "points/s",
            &format!("{shape}, serial"),
            samples,
            || rate(&serial),
        ));
        rows.push(BenchRow::sampled(
            &format!("{name}.parallel"),
            "core.balance",
            "points/s",
            &threads,
            samples,
            || rate(&parallel),
        ));
        rows.push(BenchRow::paired(
            &format!("{name}.speedup"),
            EXECUTOR_LAYER,
            &format!("{threads} over serial"),
            samples,
            Pairing::Ratio,
            || rate(&parallel),
            || rate(&serial),
        ));
    }
    record_bench("BENCH_sweep.json", rows);
}
