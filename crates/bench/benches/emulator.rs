//! Criterion bench: transient emulator steps/s (FIG3 + EXP-WINDOW
//! workloads).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use monityre_bench::reference_scenario;
use monityre_core::{EmulatorConfig, InstantTrace, TransientEmulator};
use monityre_harvest::Supercap;
use monityre_profile::UrbanCycle;
use monityre_units::{Duration, Speed};

fn bench_emulator(c: &mut Criterion) {
    let scenario = reference_scenario();

    let mut group = c.benchmark_group("emulator");
    for step_ms in [50.0f64, 10.0] {
        group.bench_with_input(
            BenchmarkId::new("urban_cycle_step_ms", step_ms as u64),
            &step_ms,
            |b, &step_ms| {
                let mut config = EmulatorConfig::new();
                config.step = Duration::from_millis(step_ms);
                let emulator = TransientEmulator::new(&scenario, config).expect("configures");
                let cycle = UrbanCycle::new();
                b.iter(|| {
                    let mut storage = Supercap::reference();
                    std::hint::black_box(emulator.run(&cycle, &mut storage))
                });
            },
        );
    }

    group.bench_function("instant_trace_500ms", |b| {
        b.iter(|| {
            std::hint::black_box(
                InstantTrace::generate(
                    &scenario,
                    Speed::from_kmh(60.0),
                    Duration::from_millis(500.0),
                    Duration::from_micros(100.0),
                )
                .unwrap(),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_emulator);
criterion_main!(benches);
