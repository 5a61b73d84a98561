//! Optimize the node the paper's way: select techniques per block from the
//! (dynamic/static split × duty cycle) pair, apply, re-estimate, and show
//! the activation-speed gain over the naive power-figures-only approach.
//!
//! ```sh
//! cargo run --example optimize_node
//! ```

use monityre::core::{EnergyBalance, OptimizationAdvisor, Scenario, SelectionPolicy};
use monityre::units::Speed;

fn break_even(scenario: &Scenario) -> Option<Speed> {
    EnergyBalance::new(scenario)
        .expect("scenario evaluates")
        .sweep(Speed::from_kmh(5.0), Speed::from_kmh(200.0), 391)
        .break_even()
}

fn main() {
    let scenario = Scenario::reference();
    let design_speed = Speed::from_kmh(30.0);

    let advisor = OptimizationAdvisor::new(&scenario, design_speed).expect("scenario evaluates");

    for (label, policy) in [
        ("power-figures-only (naive)", SelectionPolicy::PowerFigures),
        ("duty-cycle-aware (paper)", SelectionPolicy::DutyCycleAware),
    ] {
        let outcome = advisor.optimize(policy).expect("optimization runs");
        println!("== {label} ==");
        for rec in &outcome.recommendations {
            println!("  {:<8} {}", rec.block, rec.rationale);
        }
        println!(
            "  energy per round @ {:.0} km/h: {} -> {} ({:.1} % saved)",
            design_speed.kmh(),
            outcome.energy_before,
            outcome.energy_after,
            outcome.saving() * 100.0
        );
        if let Some(be) = break_even(&scenario.with_architecture(outcome.architecture.clone())) {
            println!("  break-even after optimization: {:.1} km/h", be.kmh());
        }
        println!();
    }

    if let Some(be) = break_even(&scenario) {
        println!("baseline break-even (unoptimized): {:.1} km/h", be.kmh());
    }
}
