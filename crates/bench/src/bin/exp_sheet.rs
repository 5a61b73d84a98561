//! EXP-SHEET — the "dynamic spreadsheet" of §II-A: hosting the power
//! database on the live sheet, measuring edit-propagation correctness,
//! and benchmarking the compiled recalculation engine (full rebuild vs
//! incremental edit vs value cutoff).
//!
//! Modes:
//! - default: the power-database ripple table, then the recalculation
//!   benchmark recorded into `BENCH_sheet.json`.
//! - `--check`: assert the qualitative shape without touching any file.

use std::cell::{Cell, RefCell};

use monityre_bench::{
    expect, header, parse_args, record_bench, reference_fixture, secs, BenchRow, HarnessOptions,
    Pairing,
};
use monityre_core::report::Table;
use monityre_sheet::{PowerSheet, Sheet};
use monityre_units::Temperature;

/// Builds the synthetic layered workbook: `width` literal cells feed
/// `depth` formula layers of the same width (each cell mixing two cells
/// of the layer below through transcendental ops, so every value is
/// ≥ 1 and a single-literal edit dirties a cone that doubles — rather
/// than explodes — per layer), topped by a saturated-clamp layer and a
/// dependent layer the value cutoff shields from upstream edits.
fn build_workbook(width: usize, depth: usize) -> Sheet {
    let mut sheet = Sheet::default();
    for i in 0..width {
        sheet
            .set_number(&format!("l0c{i}"), 1.0 + i as f64 * 0.5)
            .expect("literal writes");
    }
    for layer in 1..=depth {
        let below = layer - 1;
        for i in 0..width {
            let (a, b) = (i, (i + 1) % width);
            sheet
                .set_formula(
                    &format!("l{layer}c{i}"),
                    &format!(
                        "sqrt(abs(l{below}c{a})) + exp(l{below}c{b} / 50) + l{below}c{a} * 0.25"
                    ),
                )
                .expect("layer formula parses");
        }
    }
    // Every layer value is ≥ 1, so these clamps sit saturated at 1.0:
    // upstream edits recompute them to the bit-identical value and the
    // cutoff stops the `post` layer from ever re-evaluating.
    for i in 0..width {
        sheet
            .set_formula(&format!("sat{i}"), &format!("clamp(l{depth}c{i}, 0, 1)"))
            .expect("clamp formula parses");
        sheet
            .set_formula(&format!("post{i}"), &format!("sat{i} * 2 + 1"))
            .expect("post formula parses");
    }
    sheet
}

/// Synthetic workbook shape: literal width and formula layers.
const WIDTH: usize = 256;
const DEPTH: usize = 4;
/// Incremental literal edits per timed pass.
const EDITS: usize = 64;
/// Full rebuilds per timed pass.
const BATCHES: usize = 2;
/// Timed passes (and rebuild/edit pairs) per row.
const SAMPLES: usize = 31;

/// Times full rebuilds and incremental edits over the synthetic workbook
/// and returns the rows.
fn measure_recalc(options: HarnessOptions) -> Vec<BenchRow> {
    let sheet = RefCell::new(build_workbook(WIDTH, DEPTH));
    sheet.borrow_mut().compile().expect("graph builds");
    let formulas = DEPTH * WIDTH + 2 * WIDTH;
    let input = format!(
        "{} cells ({formulas} formulas), serial",
        sheet.borrow().len()
    );
    let rebuilds_per_sec = || {
        let mut sheet = sheet.borrow_mut();
        BATCHES as f64
            / secs(|| {
                for _ in 0..BATCHES {
                    sheet.recompute_all().expect("rebuild succeeds");
                }
            })
    };
    // Monotonic tick so every edit really changes the literal — a
    // repeated value would be a bit-equal early exit, measuring the
    // cutoff instead of propagation.
    let tick = Cell::new(0u64);
    let cuts = RefCell::new(Vec::new());
    let edits_per_sec = || {
        let mut sheet = sheet.borrow_mut();
        let before = sheet.cutoff_count();
        let rate = EDITS as f64
            / secs(|| {
                for _ in 0..EDITS {
                    tick.set(tick.get() + 1);
                    sheet
                        .set_number("l0c0", 1.0 + tick.get() as f64 * 1e-6)
                        .expect("edit propagates");
                }
            });
        cuts.borrow_mut()
            .push((sheet.cutoff_count() - before) as f64);
        rate
    };

    let full = BenchRow::sampled(
        "sheet-recalc.full",
        "sheet.recompute",
        "cells/s",
        &format!("{input}, {BATCHES} rebuilds per pass"),
        SAMPLES,
        || rebuilds_per_sec() * formulas as f64,
    );
    let incremental = BenchRow::sampled(
        "sheet-recalc.incremental",
        "sheet.recompute",
        "edits/s",
        &format!("{input}, {EDITS} single-literal edits per pass"),
        SAMPLES,
        edits_per_sec,
    );
    // How many incremental edits fit in the time of one full rebuild.
    let speedup = BenchRow::paired(
        "sheet-recalc.incremental-speedup",
        "sheet.recompute",
        &format!("{input}, edits per full rebuild"),
        SAMPLES,
        Pairing::Ratio,
        edits_per_sec,
        rebuilds_per_sec,
    );
    // Every edit pass above, sampled and paired alike.
    let cut = BenchRow::from_values(
        "sheet-recalc.cutoff",
        "sheet.recompute",
        "count",
        &format!("{input}, cells cut per {EDITS} edits"),
        cuts.take(),
    );
    expect(
        options,
        "incremental edits beat a full rebuild 10x",
        speedup.median >= 10.0,
    );
    vec![cut, full, incremental, speedup]
}

/// The structural `--check` assertions over a small workbook: leveled
/// recompute, value cutoff, and no-op edit behaviour — timing-free, so
/// concurrent test runs never race on the BENCH file.
fn check_engine(options: HarnessOptions) {
    let mut sheet = build_workbook(8, 2);
    sheet.compile().expect("graph builds");
    let widths = sheet.level_widths().expect("levels build");
    expect(
        options,
        "workbook stratifies into one level per layer",
        widths.len() == 4 && widths.iter().all(|&w| w == 8),
    );
    let before = sheet.evaluation_count();
    sheet.set_number("l0c0", 1.0).expect("no-op edit");
    expect(
        options,
        "no-op edit recomputes zero dependents",
        sheet.evaluation_count() == before && sheet.last_recompute().evaluated == 0,
    );
    sheet.set_number("l0c0", 2.0).expect("real edit");
    let last = sheet.last_recompute();
    expect(
        options,
        "value cutoff stops saturated clamps mid-graph",
        last.evaluated > 0 && last.cut > 0,
    );
}

fn main() {
    let options = parse_args();
    header(
        "EXP-SHEET",
        "dynamic spreadsheet hosting the power database",
    );

    let (arch, _, _) = reference_fixture();
    let db = arch.database().clone();
    let mut sheet = PowerSheet::new(&db).expect("sheet builds");

    // A user-defined derived cell: the chip's sleep budget over a 114 ms
    // round, in µJ.
    sheet
        .sheet_mut()
        .set_formula("round.sleep_uj", "node.sleep_uw * 0.114")
        .expect("formula parses");

    let mut rows = Vec::new();
    for celsius in [-20.0, 0.0, 27.0, 50.0, 85.0] {
        sheet
            .set_temperature(Temperature::from_celsius(celsius), &db)
            .expect("edit propagates");
        rows.push((
            celsius,
            sheet.value("node.active_uw").unwrap(),
            sheet.value("node.leak_uw").unwrap(),
            sheet.value("round.sleep_uj").unwrap(),
        ));
    }

    if options.check {
        expect(
            options,
            "leakage cells ripple with temperature",
            rows.last().unwrap().2 > rows.first().unwrap().2 * 50.0,
        );
        expect(
            options,
            "user formula follows the condition edits",
            rows.last().unwrap().3 > rows.first().unwrap().3,
        );
        let evals = sheet.sheet().evaluation_count();
        expect(options, "engine recomputes incrementally", evals > 0);
        check_engine(options);
        return;
    }

    let mut table = Table::new(vec![
        "temp_c",
        "node_active_uw",
        "node_leak_uw",
        "round_sleep_uj",
    ]);
    for (t, active, leak, uj) in &rows {
        table.row(vec![
            format!("{t:.0}"),
            format!("{active:.2}"),
            format!("{leak:.3}"),
            format!("{uj:.4}"),
        ]);
    }
    println!("{}", table.to_csv());
    println!("{table}");
    println!(
        "{} cells, {} formula evaluations across 5 temperature edits",
        sheet.sheet().len(),
        sheet.sheet().evaluation_count()
    );
    println!();

    record_bench("BENCH_sheet.json", measure_recalc(options));
}
