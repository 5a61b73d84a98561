//! EXP-OPT — duty-cycle-aware vs power-figures-only optimization: the
//! paper's §II claim that adding temporal information to the technique
//! selection "increases the efficiency of the optimization step".

use monityre_bench::{expect, header, parse_args, reference_scenario};
use monityre_core::report::Table;
use monityre_core::{OptimizationAdvisor, SelectionPolicy};
use monityre_units::Speed;

fn main() {
    let options = parse_args();
    header("EXP-OPT", "duty-cycle-aware vs naive optimization");

    let scenario = reference_scenario();
    let advisor =
        OptimizationAdvisor::new(&scenario, Speed::from_kmh(30.0)).expect("scenario evaluates");

    let naive = advisor
        .optimize(SelectionPolicy::PowerFigures)
        .expect("naive optimization runs");
    let aware = advisor
        .optimize(SelectionPolicy::DutyCycleAware)
        .expect("aware optimization runs");

    if options.check {
        expect(
            options,
            "both policies save energy",
            naive.saving() > 0.0 && aware.saving() > 0.0,
        );
        expect(
            options,
            "duty-cycle-aware beats power-figures-only",
            aware.energy_after < naive.energy_after,
        );
        return;
    }

    let mut table = Table::new(vec!["block", "naive_techniques", "aware_techniques"]);
    for (n, a) in naive
        .recommendations
        .iter()
        .zip(aware.recommendations.iter())
    {
        let fmt = |rec: &monityre_core::Recommendation| {
            if rec.techniques.is_empty() {
                "-".to_owned()
            } else {
                rec.techniques
                    .iter()
                    .map(|t| t.id().to_owned())
                    .collect::<Vec<_>>()
                    .join("+")
            }
        };
        table.row(vec![n.block.clone(), fmt(n), fmt(a)]);
    }
    println!("{table}");

    println!("per-block rationale (duty-cycle-aware):");
    for rec in &aware.recommendations {
        println!("  {:<8} {}", rec.block, rec.rationale);
    }
    println!();
    println!(
        "energy per round @30 km/h: unoptimized {}, naive {} ({:.1} % saved), aware {} ({:.1} % saved)",
        aware.energy_before,
        naive.energy_after,
        naive.saving() * 100.0,
        aware.energy_after,
        aware.saving() * 100.0,
    );
}
