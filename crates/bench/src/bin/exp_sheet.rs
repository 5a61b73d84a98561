//! EXP-SHEET — the "dynamic spreadsheet" of §II-A: hosting the power
//! database on the live sheet, measuring edit-propagation correctness,
//! and benchmarking the compiled recalculation engine (full rebuild vs
//! incremental edit vs value cutoff).
//!
//! Modes:
//! - default: the power-database ripple table, then the full-size
//!   recalculation benchmark recorded into `BENCH_sheet.json`.
//! - `--check`: assert the qualitative shape without touching any file.
//! - `--smoke`: a scaled-down benchmark pass that still writes
//!   `BENCH_sheet.json` and asserts the recorded schema — the CI guard.

use monityre_bench::{
    bench_path, expect, header, parse_args, points_per_sec, record_bench, reference_fixture,
    HarnessOptions, SheetBenchResult,
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

/// Times full rebuilds and incremental edits over the workbook shape and
/// returns the row.
fn measure_recalc(
    width: usize,
    depth: usize,
    edits: usize,
    batches: usize,
    reps: usize,
) -> SheetBenchResult {
    let mut sheet = build_workbook(width, depth);
    sheet.compile().expect("graph builds");
    let formulas = depth * width + 2 * width;
    let cells = sheet.len();

    let full = points_per_sec(formulas * batches, reps, || {
        for _ in 0..batches {
            sheet.recompute_all().expect("rebuild succeeds");
        }
    });

    // Monotonic tick so every edit really changes the literal — a
    // repeated value would be a bit-equal early exit, measuring the
    // cutoff instead of propagation.
    let mut tick = 0u64;
    let cuts_before = sheet.cutoff_count();
    let incremental = points_per_sec(edits, reps, || {
        for _ in 0..edits {
            tick += 1;
            sheet
                .set_number("l0c0", 1.0 + tick as f64 * 1e-6)
                .expect("edit propagates");
        }
    });
    let cutoff_cut_cells = sheet.cutoff_count() - cuts_before;

    let full_rebuilds_per_sec = full / formulas as f64;
    SheetBenchResult {
        name: "sheet-recalc".to_owned(),
        cells,
        formulas,
        edits,
        batches,
        cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        full_cells_per_sec: full,
        incremental_edits_per_sec: incremental,
        incremental_speedup: incremental / full_rebuilds_per_sec,
        cutoff_cut_cells,
    }
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

fn run_benchmark(options: HarnessOptions) {
    let (width, depth, edits, batches, reps) = if options.smoke {
        (32, 3, 16, 1, 1)
    } else {
        (256, 4, 64, 2, 3)
    };
    let row = measure_recalc(width, depth, edits, batches, reps);
    if !options.smoke {
        expect(
            options,
            "incremental edits beat a full rebuild 10x",
            row.incremental_speedup >= 10.0,
        );
    }
    record_bench(row);

    if options.smoke {
        let text = std::fs::read_to_string(bench_path::<SheetBenchResult>())
            .expect("BENCH_sheet.json exists");
        let rows: Vec<SheetBenchResult> =
            serde_json::from_str(&text).expect("BENCH_sheet.json parses");
        expect(
            options,
            "BENCH_sheet.json carries the serial sheet-recalc row",
            rows.iter().any(|r| r.name == "sheet-recalc"),
        );
        expect(
            options,
            "rows are self-describing (cells, formulas, batches, cpus)",
            rows.iter().all(|r| {
                r.cells > r.formulas
                    && r.formulas > 0
                    && r.edits > 0
                    && r.batches >= 1
                    && r.cpus >= 1
            }),
        );
        expect(
            options,
            "throughput and cutoff counters are live",
            rows.iter().all(|r| {
                r.full_cells_per_sec > 0.0
                    && r.incremental_edits_per_sec > 0.0
                    && r.incremental_speedup > 0.0
                    && r.cutoff_cut_cells > 0
            }),
        );
    }
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

    run_benchmark(options);
}
