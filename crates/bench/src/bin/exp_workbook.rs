//! EXP-WORKBOOK — §II-A: "This spreadsheet also estimates the power and
//! energy consumption of the Sensor Node under different working and
//! operating conditions." The generated energy workbook (the evaluation
//! carried entirely by live spreadsheet formulas) versus the Rust
//! evaluator: exact equivalence across the speed range, plus the
//! incremental-recompute cost of a speed edit.

use monityre_bench::{expect, header, parse_args, reference_scenario};
use monityre_core::report::Table;
use monityre_core::EnergyWorkbook;
use monityre_units::Speed;

fn main() {
    let options = parse_args();
    header("EXP-WORKBOOK", "the spreadsheet as the evaluation tool");

    let scenario = reference_scenario();
    let cache = scenario.cache().expect("scenario evaluates");
    let mut workbook = EnergyWorkbook::build(
        scenario.architecture(),
        scenario.conditions(),
        scenario.wheel(),
        Speed::from_kmh(60.0),
    )
    .expect("workbook builds");

    let speeds = [10.0, 20.0, 34.5, 60.0, 90.0, 130.0, 200.0];
    let mut rows = Vec::new();
    let mut worst_rel = 0.0f64;
    for &kmh in &speeds {
        workbook
            .set_speed(Speed::from_kmh(kmh))
            .expect("valid speed");
        let sheet_uj = workbook.node_energy().unwrap().microjoules();
        let rust_uj = cache
            .required_per_round(Speed::from_kmh(kmh))
            .unwrap()
            .microjoules();
        let rel = ((sheet_uj - rust_uj) / rust_uj).abs();
        worst_rel = worst_rel.max(rel);
        rows.push((kmh, sheet_uj, rust_uj, rel));
    }
    let evals = workbook.sheet().evaluation_count();
    let cells = workbook.sheet().len();

    if options.check {
        expect(
            options,
            "workbook matches the analyzer to 1e-9 across the sweep",
            worst_rel < 1e-9,
        );
        expect(options, "workbook carries a real cell graph", cells > 50);
        expect(options, "speed edits recompute incrementally", evals > 0);
        return;
    }

    let mut table = Table::new(vec!["speed_kmh", "workbook_uj", "analyzer_uj", "rel_err"]);
    for (kmh, sheet_uj, rust_uj, rel) in &rows {
        table.row(vec![
            format!("{kmh:.1}"),
            format!("{sheet_uj:.6}"),
            format!("{rust_uj:.6}"),
            format!("{rel:.2e}"),
        ]);
    }
    println!("{table}");
    println!(
        "{cells} cells, {evals} formula evaluations across {} speed edits",
        speeds.len()
    );
    println!();
    println!("where does the number come from? (node total at 200 km/h)");
    let explain = workbook
        .sheet()
        .explain("node.energy_uj")
        .expect("cell exists");
    // The full tree is deep; show the first levels.
    for line in explain.lines().take(10) {
        println!("{line}");
    }
    println!("…");
}
