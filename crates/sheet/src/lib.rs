//! The "dynamic spreadsheet": a dependency-tracked cell engine.
//!
//! §II-A of the paper: "all data about power estimation of each functional
//! blocks are collected into a dynamic spreadsheet that has to be
//! considered as a complete database for the energy analysis. This
//! spreadsheet also estimates the power and energy consumption of the
//! Sensor Node under different working and operating conditions."
//!
//! The authors' Excel workbook was never released, so this crate implements
//! the thing itself: a small spreadsheet engine with
//!
//! * **named cells** (`dsp.active_uw`, `cond.temp_c`) holding numbers or
//!   formulas;
//! * a **formula language** (`=0.5 * (adc.active_uw + afe.active_uw)`)
//!   with arithmetic, comparisons, and the usual scalar functions,
//!   parsed by a recursive-descent parser into an AST;
//! * a **compiled recalc engine**: each formula is lowered once to
//!   stack bytecode ([`compile::Program`]), the dependency graph is
//!   stratified into topological levels, and editing a cell re-evaluates
//!   only its dirty dependents level by level — stopping early wherever a
//!   recomputed value is bit-equal to the old one (**value cutoff**);
//! * **cycle rejection** at edit time;
//! * a **power-database binding** ([`PowerSheet`]) that hosts a
//!   [`monityre_power::PowerDatabase`] on the sheet: condition cells
//!   (supply, temperature, corner) drive model-evaluated block cells,
//!   and user formulas aggregate them — edit the temperature, watch the
//!   node totals move.
//!
//! # Example
//!
//! ```
//! use monityre_sheet::Sheet;
//!
//! # fn main() -> Result<(), monityre_sheet::SheetError> {
//! let mut sheet = Sheet::new();
//! sheet.set_number("adc.active_uw", 210.0)?;
//! sheet.set_number("afe.active_uw", 80.0)?;
//! sheet.set_formula("acq.total_uw", "adc.active_uw + afe.active_uw")?;
//! assert_eq!(sheet.value("acq.total_uw")?, 290.0);
//!
//! sheet.set_number("adc.active_uw", 100.0)?; // incremental recompute
//! assert_eq!(sheet.value("acq.total_uw")?, 180.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binding;
pub mod compile;
mod engine;
mod error;
mod formula;

pub use binding::PowerSheet;
pub use engine::{CellContent, RecomputeStats, Sheet};
pub use error::SheetError;
pub use formula::{parse, Expr};
