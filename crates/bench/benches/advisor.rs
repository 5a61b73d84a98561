//! Criterion bench: optimization advisor search (EXP-OPT workload).

use criterion::{criterion_group, criterion_main, Criterion};
use monityre_bench::reference_scenario;
use monityre_core::{OptimizationAdvisor, SelectionPolicy};
use monityre_units::Speed;

fn bench_advisor(c: &mut Criterion) {
    let advisor =
        OptimizationAdvisor::new(&reference_scenario(), Speed::from_kmh(30.0)).expect("builds");

    let mut group = c.benchmark_group("advisor");
    group.bench_function("recommend_block", |b| {
        b.iter(|| {
            std::hint::black_box(
                advisor
                    .recommend("dsp", SelectionPolicy::DutyCycleAware)
                    .unwrap(),
            )
        });
    });
    group.bench_function("optimize_node", |b| {
        b.iter(|| std::hint::black_box(advisor.optimize(SelectionPolicy::DutyCycleAware).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_advisor);
criterion_main!(benches);
