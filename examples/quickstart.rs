//! Quickstart: evaluate the reference Sensor Node's energy balance and
//! find its break-even speed.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use monityre::core::{EnergyBalance, Scenario};
use monityre::harvest::HarvestChain;
use monityre::node::Architecture;
use monityre::power::WorkingConditions;
use monityre::units::Speed;

fn main() {
    // 1. Bundle architecture, conditions and harvest chain into a scenario
    //    — the immutable evaluation session everything else consumes.
    let scenario = Scenario::builder()
        .architecture(Architecture::reference())
        .conditions(WorkingConditions::reference())
        .chain(HarvestChain::reference())
        .build();

    // 2. Evaluate energy per wheel round at a cruising speed.
    let cache = scenario.cache().expect("reference scenario evaluates");
    let energy = cache
        .node_energy(Speed::from_kmh(60.0))
        .expect("60 km/h is a valid operating point");
    println!("energy per wheel round @ 60 km/h:");
    for block in &energy.blocks {
        println!(
            "  {:<8} {}  (duty cycle {})",
            block.name,
            block.energy.total(),
            block.duty_cycle
        );
    }
    println!("  total    {}", energy.total().total());
    println!("  average power: {}", energy.average_power());
    println!();

    // 3. Integrate the scavenger model and find the break-even speed.
    let balance = EnergyBalance::new(&scenario).expect("reference scenario evaluates");
    let report = balance.sweep(Speed::from_kmh(5.0), Speed::from_kmh(200.0), 196);
    match report.break_even() {
        Some(speed) => println!("break-even speed: {:.1} km/h", speed.kmh()),
        None => println!("the node never reaches a positive balance"),
    }
}
