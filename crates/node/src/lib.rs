//! The Sensor Node architecture: blocks, wheel-round schedules, workloads.
//!
//! "The architecture of the Sensor Node requires, at least, a sensor data
//! acquisition block, a data computing system and a wireless communication
//! device" (§I). This crate models that architecture as the evaluation
//! tools need it:
//!
//! * [`BlockKind`] — the canonical functional blocks (analog front-end,
//!   ADC, computing DSP, SRAM, radio transmitter, always-on power
//!   management);
//! * [`RoundSchedule`] — each block's duty cycle *within one wheel round*,
//!   the paper's basic timing unit: a list of phases (mode + span), where a
//!   span is either a fixed duration (a 0.8 ms TX burst) or a fraction of
//!   the round (the contact-patch acquisition window), optionally recurring
//!   only every N rounds (a transmission every 4th round);
//! * [`Workload`] — per-round event counts (samples converted, bytes
//!   radiated, kernels run) charged against the blocks' event costs;
//! * [`NodeConfig`] — the user-tunable configuration knobs (samples per
//!   round, TX period and payload, clock) whose sweep is the paper's
//!   "custom architectures" evaluation;
//! * [`Architecture`] — the assembled node: a power database plus a plan
//!   (schedule + workload) per block, with [`Architecture::reference`]
//!   building the calibrated reference Sensor Node.
//!
//! # Example
//!
//! ```
//! use monityre_node::{Architecture, NodeConfig};
//! use monityre_units::Duration;
//!
//! let arch = Architecture::reference();
//! assert!(arch.block_names().count() >= 6);
//! let plan = arch.plan("radio").unwrap();
//! let phases: Vec<_> = plan.schedule().resolve(Duration::from_millis(114.0)).collect();
//! assert!(!phases.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod architecture;
mod block;
mod config;
mod error;
mod schedule;
mod workload;

pub use architecture::{Architecture, ArchitectureBuilder, BlockPlan};
pub use block::BlockKind;
pub use config::{ConfigSpace, NodeConfig};
pub use error::NodeError;
pub use schedule::{PhaseSpec, ResolvedPhase, RoundSchedule, Span};
pub use workload::Workload;
