//! EXP-BREAKEVEN — the design goal of §I: "reduce the minimum speed for
//! the monitoring system activation". Break-even speed before/after the
//! advisor's optimizations, under both selection policies.

use monityre_bench::{expect, header, parse_args, reference_scenario, BENCH_THREADS};
use monityre_core::report::Table;
use monityre_core::{EnergyBalance, OptimizationAdvisor, Scenario, SelectionPolicy, SweepExecutor};
use monityre_units::Speed;

fn break_even_of(scenario: &Scenario, executor: &SweepExecutor) -> Option<Speed> {
    EnergyBalance::new(scenario)
        .expect("scenario evaluates")
        .sweep_with(Speed::from_kmh(5.0), Speed::from_kmh(200.0), 391, executor)
        .break_even()
}

fn main() {
    let options = parse_args();
    header(
        "EXP-BREAKEVEN",
        "minimum activation speed before/after optimization",
    );

    let scenario = reference_scenario();
    let executor = SweepExecutor::new(BENCH_THREADS);
    let advisor =
        OptimizationAdvisor::new(&scenario, Speed::from_kmh(30.0)).expect("scenario evaluates");

    let baseline = break_even_of(&scenario, &executor).expect("baseline crosses");
    let naive = advisor.optimize(SelectionPolicy::PowerFigures).unwrap();
    let aware = advisor.optimize(SelectionPolicy::DutyCycleAware).unwrap();
    let be_naive = break_even_of(
        &scenario.with_architecture(naive.architecture.clone()),
        &executor,
    )
    .expect("naive crosses");
    let be_aware = break_even_of(
        &scenario.with_architecture(aware.architecture.clone()),
        &executor,
    )
    .expect("aware crosses");

    if options.check {
        expect(options, "naive lowers break-even", be_naive < baseline);
        expect(
            options,
            "aware lowers break-even further",
            be_aware < be_naive,
        );
        return;
    }

    let mut table = Table::new(vec!["design", "break_even_kmh"]);
    table.row(vec!["unoptimized".into(), format!("{:.2}", baseline.kmh())]);
    table.row(vec![
        "power-figures-only".into(),
        format!("{:.2}", be_naive.kmh()),
    ]);
    table.row(vec![
        "duty-cycle-aware".into(),
        format!("{:.2}", be_aware.kmh()),
    ]);
    println!("{table}");
    println!(
        "activation speed reduced by {:.1} km/h ({:.1} %) with the paper's method",
        baseline.kmh() - be_aware.kmh(),
        (1.0 - be_aware.kmh() / baseline.kmh()) * 100.0
    );
}
