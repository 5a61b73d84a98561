//! Criterion bench: energy-balance sweep throughput (the FIG2 workload),
//! serial and on the parallel sweep executor, beside the early-stopping
//! break-even scan over the same grids — and the per-scenario costs a
//! cold query pays around them: the balance build, Monte Carlo draws and
//! optimizer candidates (the in-process counterparts of perfbench's
//! `core.scenario.build_us`, `core.montecarlo.us_per_draw` and
//! `core.optimizer.us_per_candidate`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use monityre_bench::{reference_scenario, BENCH_THREADS};
use monityre_core::{BreakEvenOptimizer, EnergyBalance, MonteCarlo, SweepExecutor, VariationModel};
use monityre_units::Speed;

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
    group.finish();
}

/// 48 serial draws: per draw, one varied copy of the architecture, its
/// balance build and a break-even scan.
fn bench_montecarlo(c: &mut Criterion) {
    let scenario = reference_scenario();
    let mc = MonteCarlo::new(&scenario, VariationModel::reference(), 42);
    let mut group = c.benchmark_group("montecarlo");
    group.bench_function("draws_48", |b| {
        b.iter(|| std::hint::black_box(mc.break_even_distribution(48).unwrap()));
    });
    group.finish();
}

/// The serial optimizer search on a 48-step grid: one architecture,
/// balance build and scan per candidate.
fn bench_optimizer(c: &mut Criterion) {
    let optimizer = BreakEvenOptimizer::new(&reference_scenario());
    let serial = SweepExecutor::serial();
    let mut group = c.benchmark_group("optimizer");
    group.bench_function("search_48", |b| {
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
    group.finish();
}

criterion_group!(benches, bench_balance, bench_montecarlo, bench_optimizer);
criterion_main!(benches);
