//! Drive the energy analysis entirely from the dynamic spreadsheet: the
//! generated workbook whose formulas compute the per-round energy, live.
//!
//! ```sh
//! cargo run --example spreadsheet_workbook
//! ```

use monityre::core::{EnergyWorkbook, Scenario};
use monityre::units::Speed;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::reference();
    let mut workbook = EnergyWorkbook::build(
        scenario.architecture(),
        scenario.conditions(),
        scenario.wheel(),
        Speed::from_kmh(60.0),
    )?;
    println!(
        "workbook generated: {} cells over {} blocks",
        workbook.sheet().len(),
        workbook.block_names().len()
    );

    // Sweep the speed cell and watch the formulas re-derive the budget.
    let cache = scenario.cache()?;
    println!("\nspeed sweep (workbook vs cache):");
    for kmh in [15.0, 30.0, 60.0, 120.0] {
        workbook.set_speed(Speed::from_kmh(kmh))?;
        let sheet_uj = workbook.node_energy()?.microjoules();
        let rust_uj = cache
            .required_per_round(Speed::from_kmh(kmh))?
            .microjoules();
        println!("  {kmh:>5.0} km/h  workbook {sheet_uj:>9.4} µJ   cache {rust_uj:>9.4} µJ");
    }

    // Per-block breakdown straight from the cells.
    println!("\nper-block cells at 120 km/h:");
    for name in workbook.block_names().to_vec() {
        println!("  {:<8} {}", name, workbook.block_energy(&name)?);
    }

    // And the audit trail for one block.
    println!("\nwhere does the DSP number come from?");
    print!("{}", workbook.sheet().explain("dsp.energy_uj")?);
    Ok(())
}
