//! Criterion bench: energy-balance sweep throughput (the FIG2 workload),
//! serial and on the parallel sweep executor, beside the early-stopping
//! break-even scan over the same grids — and the per-scenario costs a
//! cold query pays around them: the balance build, a cold served
//! `balance` (cache build plus a memo-free sweep), Monte Carlo draws and
//! optimizer candidates (the in-process counterparts of perfbench's
//! `core.scenario.build_us`, `core.montecarlo.us_per_draw` and
//! `core.optimizer.us_per_candidate`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use monityre_bench::{reference_scenario, BENCH_THREADS};
use monityre_core::{
    BreakEvenOptimizer, EnergyBalance, MonteCarlo, Scenario, SweepExecutor, VariationModel,
};
use monityre_node::NodeConfig;
use monityre_power::WorkingConditions;
use monityre_units::{Speed, Temperature};

fn bench_balance(c: &mut Criterion) {
    let scenario = reference_scenario();
    let balance = EnergyBalance::new(&scenario).expect("reference scenario evaluates");

    let mut group = c.benchmark_group("balance");
    for steps in [50usize, 200, 800] {
        group.bench_with_input(BenchmarkId::new("sweep", steps), &steps, |b, &steps| {
            b.iter(|| {
                let report = balance.sweep(Speed::from_kmh(5.0), Speed::from_kmh(200.0), steps);
                std::hint::black_box(report.break_even())
            });
        });
        group.bench_with_input(
            BenchmarkId::new("sweep_parallel", steps),
            &steps,
            |b, &steps| {
                let executor = SweepExecutor::new(BENCH_THREADS);
                b.iter(|| {
                    let report = balance.sweep_with(
                        Speed::from_kmh(5.0),
                        Speed::from_kmh(200.0),
                        steps,
                        &executor,
                    );
                    std::hint::black_box(report.break_even())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("break_even", steps),
            &steps,
            |b, &steps| {
                let executor = SweepExecutor::serial();
                b.iter(|| {
                    std::hint::black_box(balance.break_even(
                        Speed::from_kmh(5.0),
                        Speed::from_kmh(200.0),
                        steps,
                        &executor,
                        &|| false,
                    ))
                });
            },
        );
    }
    group.bench_function("single_point", |b| {
        b.iter(|| std::hint::black_box(balance.point(Speed::from_kmh(60.0)).unwrap()));
    });
    // Every iteration builds a fresh evaluation cache, as a cold query
    // does for a scenario it has not seen.
    group.bench_function("new", |b| {
        b.iter(|| std::hint::black_box(EnergyBalance::new(&scenario).unwrap()));
    });
    // What a cold served `balance` evaluates: a fresh cache, no per-speed
    // memo, and one serial 250-point sweep.
    group.bench_function("served_cold_250", |b| {
        let serial = SweepExecutor::serial();
        b.iter(|| {
            let cache = scenario.cache().unwrap();
            let report = EnergyBalance::with_cache(&scenario, cache).sweep_with(
                Speed::from_kmh(5.0),
                Speed::from_kmh(200.0),
                250,
                &serial,
            );
            std::hint::black_box(report.break_even())
        });
    });
    group.finish();
}

/// 48 serial draws: per draw, the varied models priced into a cache
/// derived from the nominal one, and a break-even scan.
fn bench_montecarlo(c: &mut Criterion) {
    let scenario = reference_scenario();
    let mc = MonteCarlo::new(&scenario, VariationModel::reference(), 42);
    let mut group = c.benchmark_group("montecarlo");
    group.bench_function("draws_48", |b| {
        b.iter(|| std::hint::black_box(mc.break_even_distribution(48).unwrap()));
    });
    group.finish();
}

/// The serial optimizer search on a 48-step grid: per candidate, a
/// cache derived from the baseline's, a scan and the consumed fold — on
/// the reference scenario and on a hot tyre with a node transmitting
/// every round, whose candidates cross later in the grid.
fn bench_optimizer(c: &mut Criterion) {
    let hot_radio = Scenario::builder()
        .config(NodeConfig::reference().with_tx_period_rounds(1))
        .conditions(
            WorkingConditions::reference().with_temperature(Temperature::from_celsius(85.0)),
        )
        .build();
    let serial = SweepExecutor::serial();
    let mut group = c.benchmark_group("optimizer");
    for (name, scenario) in [
        ("search_48", reference_scenario()),
        ("search_48_hot_radio", hot_radio),
    ] {
        let optimizer = BreakEvenOptimizer::new(&scenario);
        group.bench_function(name, |b| {
            b.iter(|| {
                std::hint::black_box(optimizer.search(
                    Speed::from_kmh(5.0),
                    Speed::from_kmh(200.0),
                    48,
                    &serial,
                    &|| false,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_balance, bench_montecarlo, bench_optimizer);
criterion_main!(benches);
