//! Criterion bench: energy-balance sweep throughput (the FIG2 workload),
//! serial and on the parallel sweep executor, beside the early-stopping
//! break-even scan over the same grids.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use monityre_bench::{reference_scenario, BENCH_THREADS};
use monityre_core::{EnergyBalance, SweepExecutor};
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
    group.finish();
}

criterion_group!(benches, bench_balance);
criterion_main!(benches);
