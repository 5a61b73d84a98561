//! The command implementations. Each returns its full output as a string.

use std::fmt::Write as _;

use monityre_core::report::{ascii_chart, Series, Table};
use monityre_core::{
    EmulatorConfig, EnergyBalance, Flow, InstantTrace, LifetimeEstimator, MonteCarlo,
    OptimizationAdvisor, Scenario, SelectionPolicy, SweepExecutor, TransientEmulator, UsagePattern,
    VariationModel, VehicleEmulator,
};
use monityre_harvest::{IdealBattery, Supercap};
use monityre_node::Architecture;
use monityre_power::WorkingConditions;
use monityre_profile::{
    named_cycle, CompositeProfile, ExtraUrbanCycle, SpeedProfile, UrbanCycle, NAMED_CYCLES,
};
use monityre_sheet::PowerSheet;
use monityre_units::{Capacitance, Duration, Resistance, Speed, Voltage};

use crate::{Args, CliError};

fn eval_error(e: impl std::error::Error) -> CliError {
    CliError::new(format!("evaluation failed: {e}"))
}

/// The reference scenario under caller-chosen working conditions.
fn scenario_for(conditions: WorkingConditions) -> Scenario {
    Scenario::builder().conditions(conditions).build()
}

/// Parses the shared `--threads` and `--trace-out` flags. Every
/// evaluating subcommand calls this, so both are accepted uniformly even
/// where the evaluation happens to be serial. `--trace-out <file>` routes
/// the process-wide span trace (one JSON line per finished span) to the
/// given path, exactly like setting the `MONITYRE_TRACE` environment
/// variable.
pub(crate) fn executor_from(args: &Args) -> Result<SweepExecutor, CliError> {
    let threads = args.count("threads", 1)?;
    if threads == 0 {
        return Err(CliError::new("flag --threads: must be at least 1"));
    }
    if let Some(path) = args.text_opt("trace-out") {
        monityre_obs::set_trace_path(std::path::Path::new(&path))
            .map_err(|message| CliError::new(format!("flag --trace-out: {message}")))?;
    }
    Ok(SweepExecutor::new(threads))
}

/// `monityre balance` — the Fig. 2 sweep.
pub(crate) fn balance(args: &Args) -> Result<String, CliError> {
    let from = args.number("from", 5.0)?;
    let to = args.number("to", 200.0)?;
    let steps = args.count("steps", 100)?;
    let chart = args.flag("chart");
    let executor = executor_from(args)?;
    let conditions = args.conditions()?;
    args.finish()?;
    if !(from > 0.0 && to > from && steps >= 2) {
        return Err(CliError::new("need 0 < --from < --to and --steps >= 2"));
    }

    let scenario = scenario_for(conditions);
    let report = EnergyBalance::new(&scenario)
        .map_err(eval_error)?
        .sweep_with(Speed::from_kmh(from), Speed::from_kmh(to), steps, &executor);

    let mut out = String::new();
    let mut table = Table::new(vec!["speed_kmh", "generated_uj", "required_uj", "net_uj"]);
    for p in report.points() {
        table.row(vec![
            format!("{:.1}", p.speed.kmh()),
            format!("{:.3}", p.generated.microjoules()),
            format!("{:.3}", p.required.microjoules()),
            format!("{:.3}", p.net().microjoules()),
        ]);
    }
    out.push_str(&table.to_csv());
    if chart {
        let generated: Vec<(f64, f64)> = report
            .points()
            .iter()
            .map(|p| (p.speed.kmh(), p.generated.microjoules()))
            .collect();
        let required: Vec<(f64, f64)> = report
            .points()
            .iter()
            .map(|p| (p.speed.kmh(), p.required.microjoules()))
            .collect();
        out.push_str(&ascii_chart(
            &[
                Series {
                    label: "generated (µJ/round)",
                    glyph: '*',
                    points: generated,
                },
                Series {
                    label: "required (µJ/round)",
                    glyph: 'o',
                    points: required,
                },
            ],
            90,
            22,
        ));
    }
    match report.break_even() {
        Some(speed) => {
            let _ = writeln!(
                out,
                "break-even speed: {:.1} km/h (at {conditions})",
                speed.kmh()
            );
        }
        None => {
            let _ = writeln!(
                out,
                "break-even speed: none in the swept range (at {conditions})"
            );
        }
    }
    Ok(out)
}

/// `monityre trace` — the Fig. 3 instant-power trace.
pub(crate) fn trace(args: &Args) -> Result<String, CliError> {
    let speed = args.number("speed", 60.0)?;
    let window_ms = args.number("window-ms", 500.0)?;
    let step_us = args.number("step-us", 100.0)?;
    executor_from(args)?; // the trace is serial; the flag is still accepted
    let conditions = args.conditions()?;
    args.finish()?;

    let trace = InstantTrace::generate(
        &scenario_for(conditions),
        Speed::from_kmh(speed),
        Duration::from_millis(window_ms),
        Duration::from_micros(step_us),
    )
    .map_err(eval_error)?;

    let mut out = String::new();
    let points: Vec<(f64, f64)> = trace
        .samples()
        .iter()
        .map(|s| (s.time.millis(), s.total.microwatts()))
        .collect();
    out.push_str(&ascii_chart(
        &[Series {
            label: "node power (µW)",
            glyph: '*',
            points,
        }],
        90,
        22,
    ));
    let _ = writeln!(
        out,
        "round {:.1} ms | floor {} | mean {} | peak {}",
        trace.round_period().millis(),
        trace.floor(),
        trace.mean(),
        trace.peak()
    );
    Ok(out)
}

fn build_cycle(name: &str, repeat: usize) -> Result<Box<dyn SpeedProfile + Send + Sync>, CliError> {
    named_cycle(name, repeat).ok_or_else(|| {
        CliError::new(format!(
            "flag --cycle: `{name}` is not one of {}",
            NAMED_CYCLES.join(", ")
        ))
    })
}

/// `monityre emulate` — the long-window emulation.
pub(crate) fn emulate(args: &Args) -> Result<String, CliError> {
    let cycle_name = args.text("cycle", "nedc");
    let repeat = args.count("repeat", 1)?;
    let cap_mf = args.number("cap-mf", 47.0)?;
    executor_from(args)?; // the emulation is serial; the flag is still accepted
    let conditions = args.conditions()?;
    args.finish()?;
    if cap_mf <= 0.0 {
        return Err(CliError::new("flag --cap-mf: must be positive"));
    }

    let cycle = build_cycle(&cycle_name, repeat)?;
    let scenario = scenario_for(conditions);
    let emulator = TransientEmulator::new(&scenario, EmulatorConfig::new()).map_err(eval_error)?;
    let mut storage = Supercap::new(
        Capacitance::from_millifarads(cap_mf),
        Voltage::from_volts(1.8),
        Voltage::from_volts(3.6),
        Resistance::from_megaohms(5.0),
        Voltage::from_volts(2.7),
    );
    let report = emulator.run(cycle.as_ref(), &mut storage);

    let mut out = String::new();
    let soc: Vec<(f64, f64)> = report
        .samples
        .iter()
        .map(|s| (s.time.secs(), s.soc * 100.0))
        .collect();
    out.push_str(&ascii_chart(
        &[Series {
            label: "state of charge (%)",
            glyph: '*',
            points: soc,
        }],
        90,
        16,
    ));
    let _ = writeln!(
        out,
        "cycle {cycle_name} x{repeat} ({:.0} s): coverage {:.1} %, {} window(s), {} brownout(s)",
        report.span.secs(),
        report.coverage() * 100.0,
        report.windows.len(),
        report.brownouts
    );
    let _ = writeln!(
        out,
        "harvested {}, consumed {}, spilled {}",
        report.harvested, report.consumed, report.spilled
    );
    Ok(out)
}

/// `monityre optimize` — advisor + re-estimation.
pub(crate) fn optimize(args: &Args) -> Result<String, CliError> {
    let speed = args.number("speed", 30.0)?;
    let policy_text = args.text("policy", "aware");
    executor_from(args)?; // re-estimation is serial; the flag is still accepted
    let conditions = args.conditions()?;
    args.finish()?;
    let policy = match policy_text.as_str() {
        "aware" => SelectionPolicy::DutyCycleAware,
        "naive" => SelectionPolicy::PowerFigures,
        other => {
            return Err(CliError::new(format!(
                "flag --policy: `{other}` is not one of aware, naive"
            )))
        }
    };

    let scenario = scenario_for(conditions);
    let advisor =
        OptimizationAdvisor::new(&scenario, Speed::from_kmh(speed)).map_err(eval_error)?;
    let outcome = advisor.optimize(policy).map_err(eval_error)?;

    let mut out = String::new();
    for rec in &outcome.recommendations {
        let _ = writeln!(out, "{:<8} {}", rec.block, rec.rationale);
    }
    let _ = writeln!(
        out,
        "energy per round @{speed:.0} km/h: {} -> {} ({:.1} % saved)",
        outcome.energy_before,
        outcome.energy_after,
        outcome.saving() * 100.0
    );
    Ok(out)
}

/// `monityre flow` — the Fig. 1 pipeline.
pub(crate) fn flow(args: &Args) -> Result<String, CliError> {
    let speed = args.number("speed", 30.0)?;
    let executor = executor_from(args)?;
    let conditions = args.conditions()?;
    args.finish()?;

    let flow = Flow::new(
        &scenario_for(conditions),
        Speed::from_kmh(speed),
        SelectionPolicy::DutyCycleAware,
    )
    .with_executor(executor);
    let profile = CompositeProfile::new(vec![
        Box::new(UrbanCycle::new()),
        Box::new(ExtraUrbanCycle::new()),
    ]);
    let report = flow.run(&profile).map_err(eval_error)?;
    Ok(report.summary())
}

/// `monityre mc` — Monte Carlo process variation.
pub(crate) fn montecarlo(args: &Args) -> Result<String, CliError> {
    let samples = args.count("samples", 128)?;
    let seed = args.number("seed", 2011.0)? as u64;
    let executor = executor_from(args)?;
    let conditions = args.conditions()?;
    args.finish()?;

    let mc = MonteCarlo::new(&scenario_for(conditions), VariationModel::reference(), seed);
    let dist = mc
        .break_even_distribution_with(samples, &executor)
        .map_err(eval_error)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "break-even over {samples} draws: mean {:.2} km/h, p05 {:.2}, p50 {:.2}, p95 {:.2}",
        dist.mean().kmh(),
        dist.quantile(0.05).kmh(),
        dist.quantile(0.50).kmh(),
        dist.quantile(0.95).kmh()
    );
    for spec in [30.0, 35.0, 40.0, 45.0] {
        let _ = writeln!(
            out,
            "yield at <= {spec:.0} km/h: {:.1} %",
            dist.yield_at(Speed::from_kmh(spec)) * 100.0
        );
    }
    Ok(out)
}

/// `monityre lifetime` — battery vs tyre life vs scavenger.
pub(crate) fn lifetime(args: &Args) -> Result<String, CliError> {
    let hours = args.number("hours-per-day", 1.5)?;
    let kmh = args.number("mean-kmh", 55.0)?;
    let in_tyre = args.flag("in-tyre-cell");
    executor_from(args)?; // the estimate is serial; the flag is still accepted
    let conditions = args.conditions()?;
    args.finish()?;

    let scenario = scenario_for(conditions);
    let estimator = LifetimeEstimator::new(&scenario).map_err(eval_error)?;
    let pattern = UsagePattern {
        daily_driving: Duration::from_hours(hours),
        mean_speed: Speed::from_kmh(kmh),
    };
    let battery = if in_tyre {
        IdealBattery::coin_cell_in_tyre()
    } else {
        IdealBattery::coin_cell()
    };
    let report = estimator.compare(pattern, battery).map_err(eval_error)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "usage: {hours:.2} h/day at {kmh:.0} km/h ({:.0} km/day)",
        pattern.daily_distance().kilometres()
    );
    let _ = writeln!(
        out,
        "daily: consumes {}, harvests {}",
        report.daily_consumption, report.daily_harvest
    );
    let _ = writeln!(
        out,
        "battery lasts {:.0} days vs tyre life {:.0} days -> battery outlives tyre: {}",
        report.battery_days, report.tyre_days, report.battery_outlives_tyre
    );
    let _ = writeln!(
        out,
        "scavenger sustains the load: {}",
        report.scavenger_sustains
    );
    Ok(out)
}

/// `monityre vehicle` — four-corner availability.
pub(crate) fn vehicle(args: &Args) -> Result<String, CliError> {
    let cycle_name = args.text("cycle", "nedc");
    let repeat = args.count("repeat", 1)?;
    let executor = executor_from(args)?;
    args.finish()?;

    let cycle = build_cycle(&cycle_name, repeat)?;
    let emulator = VehicleEmulator::reference();
    let report = emulator
        .run_with(cycle.as_ref(), &executor)
        .map_err(eval_error)?;

    let mut out = String::new();
    let mut table = Table::new(vec!["corner", "coverage_pct", "windows"]);
    for (pos, r) in &report.corners {
        table.row(vec![
            pos.label().to_owned(),
            format!("{:.1}", r.coverage() * 100.0),
            r.windows.len().to_string(),
        ]);
    }
    out.push_str(&table.to_string());
    let _ = writeln!(
        out,
        "friction estimation available (all four): {:.1} % | any corner: {:.1} % | bottleneck {}",
        report.all_active_fraction * 100.0,
        report.any_active_fraction * 100.0,
        report.bottleneck().label()
    );
    Ok(out)
}

/// `monityre sheet` — the dynamic spreadsheet.
///
/// `--set name=value` (repeatable, applied in order) edits cells before
/// the table is printed: a numeric right-hand side writes a literal, any
/// other text is parsed as a formula. Recompute runs serially on the
/// compiled engine.
pub(crate) fn sheet(args: &Args) -> Result<String, CliError> {
    let explain = args.text_opt("explain");
    let edits = args.texts("set");
    executor_from(args)?; // recompute is serial; the flag is still accepted
    let conditions = args.conditions()?;
    args.finish()?;

    let architecture = Architecture::reference();
    let db = architecture.database().clone();
    let mut sheet = PowerSheet::new(&db).map_err(eval_error)?;
    sheet
        .set_temperature(conditions.temperature(), &db)
        .map_err(eval_error)?;
    sheet
        .set_supply(conditions.supply(), &db)
        .map_err(eval_error)?;
    for spec in &edits {
        let Some((name, raw)) = spec.split_once('=') else {
            return Err(CliError::new(format!(
                "flag --set: `{spec}` is not `cell=value` or `cell=formula`"
            )));
        };
        let (name, raw) = (name.trim(), raw.trim());
        if name.is_empty() || raw.is_empty() {
            return Err(CliError::new(format!(
                "flag --set: `{spec}` needs a cell name and a value"
            )));
        }
        if let Ok(value) = raw.parse::<f64>() {
            sheet.sheet_mut().set_number(name, value)
        } else {
            sheet.sheet_mut().set_formula(name, raw)
        }
        .map_err(|e| CliError::new(format!("flag --set {spec}: {e}")))?;
    }

    let mut out = String::new();
    let mut table = Table::new(vec!["cell", "value"]);
    for name in sheet.sheet().names() {
        let value = sheet.value(name).map_err(eval_error)?;
        table.row(vec![name.to_owned(), format!("{value:.4}")]);
    }
    out.push_str(&table.to_string());
    if !edits.is_empty() {
        let stats = sheet.sheet().last_recompute();
        let _ = writeln!(
            out,
            "last edit: {} cell(s) recomputed, {} cut by value, {} level(s)",
            stats.evaluated, stats.cut, stats.levels
        );
    }
    if let Some(cell) = explain {
        out.push('\n');
        out.push_str(&sheet.sheet().explain(&cell).map_err(eval_error)?);
    }
    Ok(out)
}
