//! Runs every experiment harness in `--check` mode: each binary asserts
//! the expected qualitative shape of its paper figure or claim.

use std::process::Command;

fn run_check(bin: &str) {
    let path = match bin {
        "fig1_flow" => env!("CARGO_BIN_EXE_fig1_flow"),
        "fig2_balance" => env!("CARGO_BIN_EXE_fig2_balance"),
        "fig3_instant" => env!("CARGO_BIN_EXE_fig3_instant"),
        "exp_optimizer" => env!("CARGO_BIN_EXE_exp_optimizer"),
        "exp_breakeven" => env!("CARGO_BIN_EXE_exp_breakeven"),
        "exp_temperature" => env!("CARGO_BIN_EXE_exp_temperature"),
        "exp_corners" => env!("CARGO_BIN_EXE_exp_corners"),
        "exp_windows" => env!("CARGO_BIN_EXE_exp_windows"),
        "exp_architectures" => env!("CARGO_BIN_EXE_exp_architectures"),
        "exp_sheet" => env!("CARGO_BIN_EXE_exp_sheet"),
        "exp_battery" => env!("CARGO_BIN_EXE_exp_battery"),
        "exp_sizing" => env!("CARGO_BIN_EXE_exp_sizing"),
        "exp_montecarlo" => env!("CARGO_BIN_EXE_exp_montecarlo"),
        "exp_gatelevel" => env!("CARGO_BIN_EXE_exp_gatelevel"),
        "exp_storage" => env!("CARGO_BIN_EXE_exp_storage"),
        "exp_vehicle" => env!("CARGO_BIN_EXE_exp_vehicle"),
        "exp_adaptive" => env!("CARGO_BIN_EXE_exp_adaptive"),
        "exp_workbook" => env!("CARGO_BIN_EXE_exp_workbook"),
        "exp_serve" => env!("CARGO_BIN_EXE_exp_serve"),
        "exp_faults" => env!("CARGO_BIN_EXE_exp_faults"),
        "exp_sweep" => env!("CARGO_BIN_EXE_exp_sweep"),
        "exp_ingest" => env!("CARGO_BIN_EXE_exp_ingest"),
        "exp_fleet" => env!("CARGO_BIN_EXE_exp_fleet"),
        other => panic!("unknown harness {other}"),
    };
    let output = Command::new(path)
        .arg("--check")
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(
        output.status.success(),
        "{bin} --check failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("ok:"),
        "{bin} reported no checks:\n{stdout}"
    );
}

#[test]
fn fig1_flow_check() {
    run_check("fig1_flow");
}

#[test]
fn fig2_balance_check() {
    run_check("fig2_balance");
}

#[test]
fn fig3_instant_check() {
    run_check("fig3_instant");
}

#[test]
fn exp_optimizer_check() {
    run_check("exp_optimizer");
}

#[test]
fn exp_breakeven_check() {
    run_check("exp_breakeven");
}

#[test]
fn exp_temperature_check() {
    run_check("exp_temperature");
}

#[test]
fn exp_corners_check() {
    run_check("exp_corners");
}

#[test]
fn exp_windows_check() {
    run_check("exp_windows");
}

#[test]
fn exp_architectures_check() {
    run_check("exp_architectures");
}

#[test]
fn exp_sheet_check() {
    run_check("exp_sheet");
}

#[test]
fn exp_battery_check() {
    run_check("exp_battery");
}

#[test]
fn exp_sizing_check() {
    run_check("exp_sizing");
}

#[test]
fn exp_montecarlo_check() {
    run_check("exp_montecarlo");
}

#[test]
fn exp_gatelevel_check() {
    run_check("exp_gatelevel");
}

#[test]
fn exp_storage_check() {
    run_check("exp_storage");
}

#[test]
fn exp_vehicle_check() {
    run_check("exp_vehicle");
}

#[test]
fn exp_adaptive_check() {
    run_check("exp_adaptive");
}

#[test]
fn exp_workbook_check() {
    run_check("exp_workbook");
}

#[test]
fn exp_serve_check() {
    run_check("exp_serve");
}

#[test]
fn exp_faults_check() {
    run_check("exp_faults");
}

#[test]
fn exp_sweep_check() {
    run_check("exp_sweep");
}

#[test]
fn exp_ingest_check() {
    run_check("exp_ingest");
}

#[test]
fn exp_fleet_check() {
    run_check("exp_fleet");
}

#[test]
fn harnesses_print_series_without_flags() {
    // Spot check: the FIG3 harness emits CSV rows when not in check mode.
    // It records no BENCH row, so this run rewrites no tracked file.
    let output = Command::new(env!("CARGO_BIN_EXE_fig3_instant"))
        .output()
        .expect("fig3 runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("time_ms,power_uw"));
    assert!(stdout.contains("round period"));
}
