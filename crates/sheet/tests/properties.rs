//! Property-based tests for the spreadsheet engine: the incremental
//! recompute path must agree with a full recompute for arbitrary DAGs and
//! edit sequences, and the compiled bytecode VM must agree bit-for-bit
//! with the reference AST interpreter.

use monityre_sheet::compile::{compile, Vm};
use monityre_sheet::{parse, CellContent, Sheet};
use proptest::prelude::*;

/// A recipe for building a random formula DAG over `n_lit` literal cells:
/// each formula references up to three earlier cells with a mix of
/// operators chosen by `shape`.
#[derive(Debug, Clone)]
struct DagRecipe {
    literals: Vec<f64>,
    formulas: Vec<(usize, usize, usize, u8)>,
}

fn arb_recipe() -> impl Strategy<Value = DagRecipe> {
    (
        proptest::collection::vec(-100.0f64..100.0, 2..6),
        proptest::collection::vec((0usize..64, 0usize..64, 0usize..64, 0u8..8), 1..25),
    )
        .prop_map(|(literals, formulas)| DagRecipe { literals, formulas })
}

fn cell_name(i: usize) -> String {
    format!("c{i}")
}

/// Builds the sheet from a recipe; returns the total cell count.
fn build(recipe: &DagRecipe) -> (Sheet, usize) {
    let mut sheet = Sheet::new();
    let mut count = 0usize;
    for &value in &recipe.literals {
        sheet.set_number(&cell_name(count), value).unwrap();
        count += 1;
    }
    for &(a, b, c, shape) in &recipe.formulas {
        let (a, b, c) = (a % count, b % count, c % count);
        let (na, nb, nc) = (cell_name(a), cell_name(b), cell_name(c));
        let formula = match shape {
            0 => format!("{na} + {nb}"),
            1 => format!("{na} - {nb} * 0.5"),
            2 => format!("min({na}, {nb}, {nc})"),
            3 => format!("max({na}, {nb}) + abs({nc})"),
            4 => format!("if({na} > {nb}, {nc}, {na} + 1)"),
            5 => format!("clamp({na}, {nb}, {nc})"),
            6 => format!("sqrt(abs({na})) + exp({nb} / 200)"),
            _ => format!("sum({na}, {nb}, {nc}) * 0.25"),
        };
        // Formula cells may fail only on non-finite results; skip those.
        if sheet.set_formula(&cell_name(count), &formula).is_ok() {
            count += 1;
        }
    }
    (sheet, count)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After an arbitrary sequence of literal edits, every cell's
    /// incrementally-maintained value equals a from-scratch recompute.
    #[test]
    fn incremental_equals_full_recompute(
        recipe in arb_recipe(),
        edits in proptest::collection::vec((0usize..64, -50.0f64..50.0), 1..10),
    ) {
        let (mut sheet, count) = build(&recipe);
        let n_lit = recipe.literals.len();
        for (slot, value) in edits {
            let target = cell_name(slot % n_lit);
            sheet.set_number(&target, value).unwrap();
        }
        let incremental: Vec<f64> = (0..count)
            .map(|i| sheet.value(&cell_name(i)).unwrap())
            .collect();
        sheet.recompute_all().unwrap();
        let full: Vec<f64> = (0..count)
            .map(|i| sheet.value(&cell_name(i)).unwrap())
            .collect();
        prop_assert_eq!(incremental, full);
    }

    /// Serialization round-trips values exactly for arbitrary DAGs.
    #[test]
    fn json_round_trip(recipe in arb_recipe()) {
        let (sheet, count) = build(&recipe);
        let json = sheet.to_json().unwrap();
        let restored = Sheet::from_json(&json).unwrap();
        for i in 0..count {
            let name = cell_name(i);
            prop_assert_eq!(
                restored.value(&name).unwrap().to_bits(),
                sheet.value(&name).unwrap().to_bits(),
                "cell {}", name
            );
        }
    }

    /// Overwriting a formula with another never leaves stale dependents:
    /// values always match a full recompute afterwards.
    #[test]
    fn redefinition_consistency(
        recipe in arb_recipe(),
        redefine in (0usize..64, 0usize..64),
    ) {
        let (mut sheet, count) = build(&recipe);
        let n_lit = recipe.literals.len();
        prop_assume!(count > n_lit); // need at least one formula
        // Redefine the first formula cell to a fresh expression over a
        // random literal.
        let target = cell_name(n_lit);
        let src = cell_name(redefine.0 % n_lit);
        // Only allowed if it creates no cycle: the target is the earliest
        // formula, so referencing a literal is always acyclic.
        sheet
            .set_formula(&target, &format!("{src} * 2 + 1"))
            .unwrap();
        sheet.set_number(&cell_name(redefine.1 % n_lit), 7.25).unwrap();
        let incremental: Vec<f64> = (0..count)
            .map(|i| sheet.value(&cell_name(i)).unwrap())
            .collect();
        sheet.recompute_all().unwrap();
        let full: Vec<f64> = (0..count)
            .map(|i| sheet.value(&cell_name(i)).unwrap())
            .collect();
        prop_assert_eq!(incremental, full);
    }

    /// The engine never accepts a cycle, no matter the edit order: trying
    /// to point a literal-rooted chain back at its tail is rejected and
    /// leaves values untouched.
    #[test]
    fn cycles_always_rejected(depth in 2usize..12) {
        let mut sheet = Sheet::new();
        sheet.set_number("base", 1.0).unwrap();
        let mut prev = "base".to_owned();
        for i in 0..depth {
            let name = format!("link{i}");
            sheet.set_formula(&name, &format!("{prev} + 1")).unwrap();
            prev = name;
        }
        let before = sheet.value(&prev).unwrap();
        let result = sheet.set_formula("base", &format!("{prev} * 2"));
        prop_assert!(result.is_err());
        prop_assert_eq!(sheet.value(&prev).unwrap(), before);
    }

    /// The compiled bytecode VM is bit-identical to the reference AST
    /// interpreter on every formula of every randomized workbook, before
    /// and after a burst of edits.
    #[test]
    fn compiled_vm_bit_identical_to_interpreter(
        recipe in arb_recipe(),
        edits in proptest::collection::vec((0usize..64, -50.0f64..50.0), 0..8),
    ) {
        let (mut sheet, count) = build(&recipe);
        let n_lit = recipe.literals.len();
        for (slot, value) in edits {
            sheet.set_number(&cell_name(slot % n_lit), value).unwrap();
        }
        let mut vm = Vm::new();
        for i in 0..count {
            let name = cell_name(i);
            let CellContent::Formula { source_text } = sheet.content(&name).unwrap() else {
                continue;
            };
            let expr = parse(source_text).unwrap();
            let interpreted = expr.eval(&|dep: &str| sheet.value(dep)).unwrap();
            let program = compile(&expr);
            let compiled = vm.run(&program, |slot| {
                sheet.value(&program.cells()[slot]).unwrap()
            });
            prop_assert_eq!(
                compiled.to_bits(),
                interpreted.to_bits(),
                "cell {}: vm {} vs ast {}", name, compiled, interpreted
            );
            // And the engine's stored value (produced by its own compiled
            // wave) carries the same bits.
            prop_assert_eq!(sheet.value(&name).unwrap().to_bits(), compiled.to_bits());
        }
    }

    /// A bit-identical rewrite of any literal is a pure cutoff: zero
    /// dependents recompute, by `evaluation_count`.
    #[test]
    fn noop_edits_recompute_zero_dependents(recipe in arb_recipe()) {
        let (mut sheet, _) = build(&recipe);
        for i in 0..recipe.literals.len() {
            let name = cell_name(i);
            let current = sheet.value(&name).unwrap();
            let evals = sheet.evaluation_count();
            let cuts = sheet.cutoff_count();
            sheet.set_number(&name, current).unwrap();
            prop_assert_eq!(sheet.evaluation_count(), evals, "cell {}", &name);
            prop_assert_eq!(sheet.cutoff_count(), cuts + 1);
            prop_assert_eq!(sheet.last_recompute().evaluated, 0);
        }
    }

    /// Mid-graph cutoff: a clamp that saturates to the same value stops
    /// propagation — deeper dependents never re-evaluate.
    #[test]
    fn saturated_clamp_cuts_downstream(x in 2.0f64..100.0, y in 2.0f64..100.0) {
        prop_assume!(x.to_bits() != y.to_bits());
        let mut sheet = Sheet::new();
        sheet.set_number("x", x).unwrap();
        sheet.set_formula("sat", "clamp(x, 0, 1)").unwrap();
        sheet.set_formula("down", "sat * 3 + 1").unwrap();
        sheet.set_formula("deeper", "down - 0.5").unwrap();
        let evals = sheet.evaluation_count();
        sheet.set_number("x", y).unwrap();
        // Only `sat` ran; the saturated value was bit-equal, cutting the
        // rest of the chain.
        prop_assert_eq!(sheet.evaluation_count(), evals + 1);
        prop_assert_eq!(sheet.last_recompute().cut, 1);
        prop_assert_eq!(sheet.value("deeper").unwrap(), 3.5);
    }
}
