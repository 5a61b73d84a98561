//! The power-estimation database.
//!
//! §II-A: "all data about power estimation of each functional blocks are
//! collected into a dynamic spreadsheet that has to be considered as a
//! complete database for the energy analysis". `PowerDatabase` is that
//! database: a named collection of [`BlockPowerModel`]s with provenance
//! metadata, queried by the evaluation tools and hosted on the live
//! spreadsheet by `monityre-sheet`.

use std::collections::BTreeMap;
use std::fmt;

use monityre_units::Power;
use serde::{Deserialize, Serialize};

use crate::{BlockPowerModel, OperatingMode, PowerBreakdown, PowerError, WorkingConditions};

/// Where a block's power figures came from — the database is assembled from
/// heterogeneous estimates whose trustworthiness matters when reading a
/// report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Provenance {
    /// Transistor-level (SPICE) simulation.
    Spice,
    /// Gate-level power analysis of synthesized RTL.
    GateLevel,
    /// Vendor datasheet figure.
    Datasheet,
    /// Engineering estimate / spreadsheet extrapolation.
    #[default]
    Estimate,
    /// Silicon measurement.
    Measured,
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Spice => "spice",
            Self::GateLevel => "gate-level",
            Self::Datasheet => "datasheet",
            Self::Estimate => "estimate",
            Self::Measured => "measured",
        };
        f.write_str(s)
    }
}

/// One database entry: a block model plus provenance and a revision counter
/// bumped on every replacement (the "dynamic" in dynamic spreadsheet).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockRecord {
    model: BlockPowerModel,
    provenance: Provenance,
    revision: u32,
}

impl BlockRecord {
    /// Creates a first-revision record.
    #[must_use]
    pub fn new(model: BlockPowerModel, provenance: Provenance) -> Self {
        Self {
            model,
            provenance,
            revision: 1,
        }
    }

    /// The block model.
    #[must_use]
    pub fn model(&self) -> &BlockPowerModel {
        &self.model
    }

    /// The figure's provenance.
    #[must_use]
    pub fn provenance(&self) -> Provenance {
        self.provenance
    }

    /// How many times this entry has been replaced (starts at 1).
    #[must_use]
    pub fn revision(&self) -> u32 {
        self.revision
    }
}

/// The complete power database for the energy analysis.
///
/// ```
/// use monityre_power::{BlockPowerModel, DynamicPowerModel, LeakageModel,
///                      OperatingMode, PowerDatabase, WorkingConditions};
/// use monityre_units::{Capacitance, Frequency, Power};
///
/// # fn main() -> Result<(), monityre_power::PowerError> {
/// let mut db = PowerDatabase::new();
/// db.insert(BlockPowerModel::builder("mcu")
///     .dynamic(DynamicPowerModel::new(
///         0.15, Capacitance::from_picofarads(180.0), Frequency::from_megahertz(8.0)))
///     .leakage(LeakageModel::with_reference(Power::from_microwatts(2.0)))
///     .build())?;
///
/// let p = db.block_power("mcu", OperatingMode::Active, &WorkingConditions::reference())?;
/// assert!(p.total() > Power::ZERO);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PowerDatabase {
    blocks: BTreeMap<String, BlockRecord>,
}

impl PowerDatabase {
    /// Creates an empty database.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new block with [`Provenance::Estimate`].
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::DuplicateBlock`] if a block with the same name
    /// exists; use [`PowerDatabase::replace`] to update an entry.
    pub fn insert(&mut self, model: BlockPowerModel) -> Result<(), PowerError> {
        self.insert_with_provenance(model, Provenance::Estimate)
    }

    /// Registers a new block with explicit provenance.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::DuplicateBlock`] if a block with the same name
    /// exists.
    pub fn insert_with_provenance(
        &mut self,
        model: BlockPowerModel,
        provenance: Provenance,
    ) -> Result<(), PowerError> {
        let name = model.name().to_owned();
        if self.blocks.contains_key(&name) {
            return Err(PowerError::duplicate_block(&name));
        }
        self.blocks
            .insert(name, BlockRecord::new(model, provenance));
        Ok(())
    }

    /// Replaces an existing block's model, bumping its revision — this is
    /// the edit operation the re-estimation step of the flow performs after
    /// optimization.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::UnknownBlock`] when no block with that name
    /// exists.
    pub fn replace(&mut self, model: BlockPowerModel) -> Result<(), PowerError> {
        match self.blocks.get_mut(model.name()) {
            Some(record) => {
                record.revision += 1;
                record.model = model;
                Ok(())
            }
            None => Err(PowerError::unknown_block(model.name())),
        }
    }

    /// Removes a block, returning its record.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::UnknownBlock`] when absent.
    pub fn remove(&mut self, name: &str) -> Result<BlockRecord, PowerError> {
        self.blocks
            .remove(name)
            .ok_or_else(|| PowerError::unknown_block(name))
    }

    /// Looks up a block record.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::UnknownBlock`] when absent.
    pub fn record(&self, name: &str) -> Result<&BlockRecord, PowerError> {
        self.blocks
            .get(name)
            .ok_or_else(|| PowerError::unknown_block(name))
    }

    /// Looks up a block model.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::UnknownBlock`] when absent.
    pub fn block(&self, name: &str) -> Result<&BlockPowerModel, PowerError> {
        self.record(name).map(BlockRecord::model)
    }

    /// Whether a block is registered.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.blocks.contains_key(name)
    }

    /// Number of registered blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the database is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Iterates over block names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.blocks.keys().map(String::as_str)
    }

    /// Iterates over records in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &BlockRecord)> {
        self.blocks.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Power of one block in one mode.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::UnknownBlock`] when absent.
    pub fn block_power(
        &self,
        name: &str,
        mode: OperatingMode,
        cond: &WorkingConditions,
    ) -> Result<PowerBreakdown, PowerError> {
        Ok(self.block(name)?.power(mode, cond))
    }

    /// Whole-database power for a uniform mode — a coarse sanity figure
    /// ("what does the chip draw if everything is active?").
    #[must_use]
    pub fn total_power(&self, mode: OperatingMode, cond: &WorkingConditions) -> PowerBreakdown {
        self.blocks
            .values()
            .map(|r| r.model.power(mode, cond))
            .sum()
    }

    /// The chip's leakage floor: every block in its lowest-leakage state
    /// that still retains state (`DeepSleep`).
    #[must_use]
    pub fn retention_floor(&self, cond: &WorkingConditions) -> Power {
        self.blocks
            .values()
            .map(|r| r.model.power(OperatingMode::DeepSleep, cond).leakage)
            .sum()
    }

    /// Serializes the database to pretty JSON (the portable form of the
    /// spreadsheet).
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` errors (practically unreachable for this
    /// data model).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Restores a database serialized by [`PowerDatabase::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicPowerModel, LeakageModel};
    use monityre_units::{Capacitance, Frequency};

    fn block(name: &str, leak_uw: f64) -> BlockPowerModel {
        BlockPowerModel::builder(name)
            .dynamic(DynamicPowerModel::new(
                0.1,
                Capacitance::from_picofarads(100.0),
                Frequency::from_megahertz(4.0),
            ))
            .leakage(LeakageModel::with_reference(Power::from_microwatts(
                leak_uw,
            )))
            .build()
    }

    fn sample_db() -> PowerDatabase {
        let mut db = PowerDatabase::new();
        db.insert(block("mcu", 2.0)).unwrap();
        db.insert(block("sram", 3.0)).unwrap();
        db.insert(block("rf_tx", 1.0)).unwrap();
        db
    }

    #[test]
    fn insert_and_lookup() {
        let db = sample_db();
        assert_eq!(db.len(), 3);
        assert!(db.contains("mcu"));
        assert_eq!(db.block("sram").unwrap().name(), "sram");
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut db = sample_db();
        let err = db.insert(block("mcu", 9.0)).unwrap_err();
        assert!(matches!(err, PowerError::DuplicateBlock { .. }));
    }

    #[test]
    fn replace_bumps_revision() {
        let mut db = sample_db();
        assert_eq!(db.record("mcu").unwrap().revision(), 1);
        db.replace(block("mcu", 0.5)).unwrap();
        assert_eq!(db.record("mcu").unwrap().revision(), 2);
        let cond = WorkingConditions::reference();
        let p = db.block_power("mcu", OperatingMode::Sleep, &cond).unwrap();
        assert!(p.leakage.approx_eq(Power::from_microwatts(0.5), 1e-9));
    }

    #[test]
    fn replace_unknown_fails() {
        let mut db = sample_db();
        assert!(matches!(
            db.replace(block("nonexistent", 1.0)),
            Err(PowerError::UnknownBlock { .. })
        ));
    }

    #[test]
    fn remove_round_trip() {
        let mut db = sample_db();
        let rec = db.remove("rf_tx").unwrap();
        assert_eq!(rec.model().name(), "rf_tx");
        assert!(!db.contains("rf_tx"));
        assert!(db.remove("rf_tx").is_err());
    }

    #[test]
    fn names_are_sorted() {
        let db = sample_db();
        let names: Vec<_> = db.names().collect();
        assert_eq!(names, vec!["mcu", "rf_tx", "sram"]);
    }

    #[test]
    fn total_power_sums_blocks() {
        let db = sample_db();
        let cond = WorkingConditions::reference();
        let total = db.total_power(OperatingMode::Sleep, &cond);
        assert!(total.leakage.approx_eq(Power::from_microwatts(6.0), 1e-9));
        assert_eq!(total.dynamic, Power::ZERO);
    }

    #[test]
    fn retention_floor_below_sleep_leakage() {
        let db = sample_db();
        let cond = WorkingConditions::reference();
        let floor = db.retention_floor(&cond);
        let sleep = db.total_power(OperatingMode::Sleep, &cond).leakage;
        assert!(floor < sleep * 0.1);
    }

    #[test]
    fn json_round_trip() {
        let db = sample_db();
        let json = db.to_json().unwrap();
        let back = PowerDatabase::from_json(&json).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn provenance_recorded() {
        let mut db = PowerDatabase::new();
        db.insert_with_provenance(block("afe", 0.2), Provenance::Spice)
            .unwrap();
        assert_eq!(db.record("afe").unwrap().provenance(), Provenance::Spice);
    }

    #[test]
    fn empty_database_behaviour() {
        let db = PowerDatabase::new();
        assert!(db.is_empty());
        assert_eq!(
            db.total_power(OperatingMode::Active, &WorkingConditions::reference())
                .total(),
            Power::ZERO
        );
    }
}
