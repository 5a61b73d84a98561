//! EXP-MC — continuous process variation (§II-A): Monte Carlo over
//! per-block leakage/dynamic spreads, reporting the break-even speed
//! distribution and the yield against an activation-speed spec. Draws
//! are seeded per index, so the parallel batch is bit-identical to the
//! serial one; the harness also records the draw throughput.

use monityre_bench::{
    expect, header, parse_args, record_bench, reference_scenario, secs, BenchRow, Pairing,
    BENCH_THREADS, EXECUTOR_LAYER,
};
use monityre_core::report::Table;
use monityre_core::{MonteCarlo, SweepExecutor, VariationModel};
use monityre_units::Speed;

const SAMPLES: usize = 256;

fn main() {
    let options = parse_args();
    header(
        "EXP-MC",
        "Monte Carlo process variation of the break-even speed",
    );

    let scenario = reference_scenario();
    let mc = MonteCarlo::new(&scenario, VariationModel::reference(), 2011);
    let dist = mc
        .break_even_distribution_with(SAMPLES, &SweepExecutor::new(BENCH_THREADS))
        .expect("distribution samples");

    if options.check {
        expect(
            options,
            "mean near the nominal break-even",
            (dist.mean().kmh() - 34.5).abs() < 5.0,
        );
        expect(options, "spread is visible", dist.std_dev() > 0.1);
        expect(
            options,
            "p95 above p05",
            dist.quantile(0.95) > dist.quantile(0.05),
        );
        expect(
            options,
            "yield at 45 km/h is high",
            dist.yield_at(Speed::from_kmh(45.0)) > 0.9,
        );
        return;
    }

    let mut table = Table::new(vec!["statistic", "break_even_kmh"]);
    table.row(vec!["mean".into(), format!("{:.2}", dist.mean().kmh())]);
    table.row(vec![
        "std_dev".into(),
        format!("{:.2}", dist.std_dev() * 3.6),
    ]);
    for q in [0.05, 0.25, 0.50, 0.75, 0.95] {
        table.row(vec![
            format!("p{:02.0}", q * 100.0),
            format!("{:.2}", dist.quantile(q).kmh()),
        ]);
    }
    println!("{table}");

    println!("yield against an activation-speed spec:");
    for spec in [30.0, 35.0, 40.0, 45.0] {
        println!(
            "  <= {spec:.0} km/h: {:.1} % of {} samples",
            dist.yield_at(Speed::from_kmh(spec)) * 100.0,
            SAMPLES
        );
    }
    if dist.never_crossed() > 0 {
        println!("  ({} samples never reached surplus)", dist.never_crossed());
    }

    // Throughput of the draw batch (each draw re-sweeps the balance),
    // serial vs parallel.
    let serial = SweepExecutor::serial();
    let parallel = SweepExecutor::new(BENCH_THREADS);
    let rate = |executor: &SweepExecutor| {
        SAMPLES as f64
            / secs(|| {
                let timed = mc
                    .break_even_distribution_with(SAMPLES, executor)
                    .expect("distribution samples");
                assert!(timed.yield_at(Speed::from_kmh(45.0)) > 0.0);
            })
    };
    const RUNS: usize = 10;
    let threads = format!("{SAMPLES} draws, {BENCH_THREADS} threads");
    record_bench(
        "BENCH_sweep.json",
        vec![
            BenchRow::sampled(
                "exp-mc-draws.serial",
                "core.montecarlo",
                "draws/s",
                &format!("{SAMPLES} draws, serial"),
                RUNS,
                || rate(&serial),
            ),
            BenchRow::sampled(
                "exp-mc-draws.parallel",
                "core.montecarlo",
                "draws/s",
                &threads,
                RUNS,
                || rate(&parallel),
            ),
            BenchRow::paired(
                "exp-mc-draws.speedup",
                EXECUTOR_LAYER,
                &format!("{threads} over serial"),
                RUNS,
                Pairing::Ratio,
                || rate(&parallel),
                || rate(&serial),
            ),
        ],
    );
}
