//! The DATE 2011 energy analysis flow.
//!
//! This crate is the paper's primary contribution, implemented end to end:
//!
//! 1. **Per-round energy evaluation** ([`EvalCache`]) — converts the
//!    power database's figures into *energy per wheel round* using each
//!    block's duty-cycle schedule and event workload, under explicit
//!    working conditions, once per [`Scenario`];
//! 2. **Energy balance** ([`EnergyBalance`]) — the generated-vs-required
//!    curves of the paper's Fig. 2, with break-even extraction;
//! 3. **Optimization advisor** ([`OptimizationAdvisor`]) — the paper's
//!    central methodological claim: select per-block optimization
//!    techniques from the *(dynamic/static split × duty cycle)* pair
//!    rather than from power figures alone, apply them, and re-estimate;
//! 4. **Transient emulation** ([`TransientEmulator`]) — long-window
//!    emulation of the node against a speed profile, a thermal model and a
//!    storage element, with activation hysteresis and operating-window
//!    extraction; plus the instant-power trace of Fig. 3
//!    ([`InstantTrace`]);
//! 5. **The flow itself** ([`Flow`]) — Fig. 1 as a typed pipeline;
//! 6. **Reporting** ([`report`]) — text tables, CSV series and ASCII
//!    charts used by every experiment harness.
//!
//! All of them run inside a shared evaluation session: a [`Scenario`]
//! bundles architecture + conditions + harvest chain + wheel, its
//! [`EvalCache`] holds the per-block, per-conditions figures, and a
//! [`SweepExecutor`] fans sweep batches out across threads with
//! bit-identical-to-serial results.
//!
//! # Example: find the break-even speed
//!
//! ```
//! use monityre_core::{EnergyBalance, Scenario, SweepExecutor};
//! use monityre_units::Speed;
//!
//! let scenario = Scenario::reference();
//! let balance = EnergyBalance::new(&scenario).unwrap();
//! let report = balance.sweep_with(
//!     Speed::from_kmh(5.0),
//!     Speed::from_kmh(200.0),
//!     196,
//!     &SweepExecutor::new(4),
//! );
//! let break_even = report.break_even().expect("curves cross");
//! assert!(break_even.kmh() > 10.0 && break_even.kmh() < 60.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod advisor;
mod axes;
mod balance;
mod cache;
mod emulator;
mod error;
mod executor;
mod flow;
mod governor;
mod ledger;
mod lifetime;
mod montecarlo;
mod optimizer;
pub mod report;
mod scenario;
mod trace;
mod vehicle;
mod workbook;

pub use advisor::{
    NodeOptimization, OptimizationAdvisor, Recommendation, SelectionPolicy, Technique,
};
pub use axes::{
    RadioLink, ScenarioExtras, StorageAgeing, AGEING_RATE_PER_YEAR, MAX_AGE_YEARS,
    MAX_RADIO_RETRIES,
};
pub use balance::{speed_grid, BalancePoint, BalanceReport, EnergyBalance};
pub use cache::{BlockEnergy, CacheCounts, EvalCache, NodeEnergy};
pub use emulator::{EmulationReport, EmulatorConfig, OperatingWindow, TransientEmulator};
pub use error::CoreError;
pub use executor::{SweepExecutor, THREADS_ENV_VAR};
pub use flow::{Flow, FlowReport};
pub use governor::{GovernedReport, Governor, GovernorLevel};
pub use ledger::{quantize_nj, EnergyLedger, LedgerEntry};
pub use lifetime::{LifetimeEstimator, LifetimeReport, UsagePattern};
pub use montecarlo::{BreakEvenDistribution, MonteCarlo, VariationModel};
pub use optimizer::{
    BreakEvenOptimizer, CandidateConfig, LedgerDelta, OptimizeReport, DUTY_POLICIES,
};
pub use scenario::{Scenario, ScenarioBuilder};
pub use trace::{InstantTrace, TraceSample};
pub use vehicle::{CornerSetup, VehicleEmulator, VehicleReport, WheelPosition};
pub use workbook::EnergyWorkbook;
