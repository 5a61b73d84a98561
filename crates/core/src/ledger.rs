//! Per-block nanojoule energy attribution with conservation checking.
//!
//! The paper's flow computes a per-block dynamic/static energy split
//! weighted by duty cycle (§II) and then throws it away, reporting only
//! the aggregate balance of Fig. 2. An [`EnergyLedger`] keeps the
//! intermediate attribution: one entry per node block plus the extended
//! axes' surcharges (radio retransmission, supercap ageing leakage), the
//! harvested energy and the regulator's conversion loss, all quantized to
//! exact integer nanojoules.
//!
//! Two conservation layers hold on every ledger:
//!
//! 1. **Float layer** — the ledger is built from the per-block walk
//!    ([`crate::EvalCache::node_energy`]) and the surcharge pair
//!    ([`crate::ScenarioExtras::surcharges`]) whose fold is the
//!    aggregate [`crate::EnergyBalance::point`] reports. There is no
//!    second copy of the arithmetic to disagree with, so this layer holds
//!    by construction and `conserved` is always `true`; the property
//!    tests pin the walk against `point()` bit for bit.
//! 2. **Integer layer** — `consumed_nj` is *defined* as the sum of every
//!    attributed component and `storage_delta_nj` as
//!    `harvested_nj − consumed_nj`, so the nanojoule books balance by
//!    construction and [`EnergyLedger::conservation_holds`] can recheck
//!    them from the serialized form alone (the serve loopback tests do).

use monityre_power::EnergyBreakdown;
use monityre_units::{Energy, Speed};
use serde::{Deserialize, Serialize};

use crate::NodeEnergy;

/// Nanojoules per joule — the ledger's one quantization constant.
const NJ_PER_J: f64 = 1e9;

/// Deterministic joule → nanojoule quantization (round half away from
/// zero, the IEEE default of `f64::round`).
#[must_use]
pub fn quantize_nj(energy: Energy) -> i64 {
    (energy.joules() * NJ_PER_J).round() as i64
}

/// A block's round energy as the ledger books it: dynamic and static
/// nanojoules, each quantized on its own. [`EnergyLedger::build`] books
/// every block through here and sums the pairs into `consumed_nj`; the
/// optimizer's per-candidate consumed fold sums the same pairs without
/// building a ledger, so the two agree by construction.
pub(crate) fn block_nj(energy: EnergyBreakdown) -> (i64, i64) {
    (quantize_nj(energy.dynamic), quantize_nj(energy.leakage))
}

/// One block's attributed share of a round, integer nanojoules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// The block's name (architecture block names are lowercase ASCII).
    pub block: String,
    /// Dynamic (switching + event) energy, nanojoules.
    pub dynamic_nj: i64,
    /// Static (leakage) energy, nanojoules.
    pub static_nj: i64,
    /// The block's active fraction of the round.
    pub duty: f64,
}

impl LedgerEntry {
    /// The entry's whole attributed energy, nanojoules.
    #[must_use]
    pub fn total_nj(&self) -> i64 {
        self.dynamic_nj + self.static_nj
    }

    /// This entry's share of `consumed_nj`, percent (0 when the ledger
    /// consumed nothing).
    #[must_use]
    pub fn share_pct(&self, consumed_nj: i64) -> f64 {
        if consumed_nj == 0 {
            return 0.0;
        }
        self.total_nj() as f64 * 100.0 / consumed_nj as f64
    }
}

/// A fully attributed energy balance at one operating point.
///
/// Serializes with exact float bits for `speed`/`duty` and exact
/// integers for every energy figure, so two evaluations of the same
/// scenario at the same speed produce byte-identical JSON — the
/// property the `explain` wire op pins across thread counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyLedger {
    /// The evaluated operating point.
    pub speed: Speed,
    /// Per-block attribution, in architecture (name) order.
    pub blocks: Vec<LedgerEntry>,
    /// Radio retransmission surcharge (PR 9 axis), nanojoules.
    pub radio_retx_nj: i64,
    /// Supercap ageing extra leakage (PR 9 axis), nanojoules.
    pub ageing_leak_nj: i64,
    /// Total consumed per round: Σ blocks + surcharges, by construction.
    pub consumed_nj: i64,
    /// Energy the harvesting chain delivers per round, nanojoules.
    pub harvested_nj: i64,
    /// Energy the regulator burns converting the raw harvest (raw −
    /// delivered); informational — already excluded from `harvested_nj`.
    pub regulator_loss_nj: i64,
    /// Net flow into storage per round: harvested − consumed, by
    /// construction (negative below break-even).
    pub storage_delta_nj: i64,
    /// The float layer: always `true`, since the ledger and `point()`
    /// share one per-block walk. Kept on the wire for its readers.
    pub conserved: bool,
}

impl EnergyLedger {
    /// Assembles a ledger from one per-block walk and the extended axes'
    /// surcharges at the same speed.
    pub(crate) fn build(
        node: &NodeEnergy,
        radio_extra: Energy,
        ageing_extra: Energy,
        generated: Energy,
        raw: Energy,
    ) -> Self {
        let blocks: Vec<LedgerEntry> = node
            .blocks
            .iter()
            .map(|block| {
                let (dynamic_nj, static_nj) = block_nj(block.energy);
                LedgerEntry {
                    block: block.name.clone(),
                    dynamic_nj,
                    static_nj,
                    duty: block.duty_cycle.active_fraction(),
                }
            })
            .collect();
        let radio_retx_nj = quantize_nj(radio_extra);
        let ageing_leak_nj = quantize_nj(ageing_extra);
        let consumed_nj =
            blocks.iter().map(LedgerEntry::total_nj).sum::<i64>() + radio_retx_nj + ageing_leak_nj;
        let harvested_nj = quantize_nj(generated);
        Self {
            speed: node.speed,
            blocks,
            radio_retx_nj,
            ageing_leak_nj,
            consumed_nj,
            harvested_nj,
            regulator_loss_nj: quantize_nj(raw - generated),
            storage_delta_nj: harvested_nj - consumed_nj,
            conserved: true,
        }
    }

    /// Rechecks the integer books (and the `conserved` flag) from the
    /// ledger's own fields — trustworthy even after a wire round trip.
    #[must_use]
    pub fn conservation_holds(&self) -> bool {
        let component_sum = self.blocks.iter().map(LedgerEntry::total_nj).sum::<i64>()
            + self.radio_retx_nj
            + self.ageing_leak_nj;
        self.conserved
            && component_sum == self.consumed_nj
            && self.harvested_nj - self.consumed_nj == self.storage_delta_nj
    }

    /// Whether the node runs at a surplus at this point.
    #[must_use]
    pub fn is_surplus(&self) -> bool {
        self.storage_delta_nj >= 0
    }

    /// The block consuming the most energy (first wins exact ties, so
    /// the answer is deterministic); `None` on an empty architecture.
    #[must_use]
    pub fn dominant_block(&self) -> Option<&LedgerEntry> {
        self.blocks
            .iter()
            .max_by(|a, b| a.total_nj().cmp(&b.total_nj()).then(b.block.cmp(&a.block)))
    }

    /// Entries sorted by descending attributed energy (name-ordered
    /// within exact ties) — the order the CLI table prints.
    #[must_use]
    pub fn sorted_entries(&self) -> Vec<&LedgerEntry> {
        let mut entries: Vec<&LedgerEntry> = self.blocks.iter().collect();
        entries.sort_by(|a, b| b.total_nj().cmp(&a.total_nj()).then(a.block.cmp(&b.block)));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnergyBalance, RadioLink, Scenario, ScenarioExtras, StorageAgeing};

    fn explain_reference(kmh: f64) -> EnergyLedger {
        EnergyBalance::new(&Scenario::reference())
            .unwrap()
            .explain(Speed::from_kmh(kmh))
            .unwrap()
    }

    #[test]
    fn quantization_rounds_to_nearest() {
        assert_eq!(quantize_nj(Energy::from_joules(1.5e-9)), 2);
        assert_eq!(quantize_nj(Energy::from_joules(1.4e-9)), 1);
        assert_eq!(quantize_nj(Energy::from_joules(-1.5e-9)), -2);
        assert_eq!(quantize_nj(Energy::ZERO), 0);
    }

    #[test]
    fn reference_ledger_conserves_and_attributes_every_block() {
        let scenario = Scenario::reference();
        let ledger = explain_reference(60.0);
        assert!(ledger.conserved);
        assert!(ledger.conservation_holds());
        assert_eq!(ledger.blocks.len(), scenario.architecture().len());
        assert!(ledger.consumed_nj > 0);
        assert!(ledger.radio_retx_nj == 0 && ledger.ageing_leak_nj == 0);
        // 60 km/h is above the pinned ~34.5 km/h break-even.
        assert!(ledger.is_surplus());
        assert!(ledger.regulator_loss_nj >= 0);
    }

    #[test]
    fn ledger_matches_the_balance_point_aggregates() {
        let balance = EnergyBalance::new(&Scenario::reference()).unwrap();
        for kmh in [8.0, 34.5, 61.3, 144.0] {
            let v = Speed::from_kmh(kmh);
            let ledger = balance.explain(v).unwrap();
            let point = balance.point(v).unwrap();
            // Quantizing components before summing loses at most half a
            // nanojoule per component versus quantizing the sum.
            let slack = ledger.blocks.len() as i64 + 2;
            let required_nj = quantize_nj(point.required);
            assert!(
                (ledger.consumed_nj - required_nj).abs() <= slack,
                "{kmh} km/h: {} vs {required_nj}",
                ledger.consumed_nj
            );
            assert_eq!(ledger.harvested_nj, quantize_nj(point.generated));
            assert_eq!(ledger.is_surplus(), point.is_surplus());
        }
    }

    #[test]
    fn axes_surcharges_land_in_their_own_lines() {
        let base = explain_reference(40.0);
        let extras = ScenarioExtras::none()
            .with_radio(RadioLink::new(0.3, 5))
            .with_ageing(StorageAgeing::new(8.0));
        let scenario = Scenario::builder().extras(extras).build();
        let aged = EnergyBalance::new(&scenario)
            .unwrap()
            .explain(Speed::from_kmh(40.0))
            .unwrap();
        assert!(aged.conserved && aged.conservation_holds());
        assert!(aged.radio_retx_nj > 0);
        assert!(aged.ageing_leak_nj > 0);
        // The base-model block attribution is untouched by the axes.
        assert_eq!(aged.blocks, base.blocks);
        assert_eq!(
            aged.consumed_nj,
            base.consumed_nj + aged.radio_retx_nj + aged.ageing_leak_nj
        );
    }

    #[test]
    fn memoized_ledger_is_byte_identical_to_fresh() {
        let scenario = Scenario::reference();
        let v = Speed::from_kmh(47.3);
        let fresh = EnergyBalance::new(&scenario).unwrap().explain(v).unwrap();
        let memo = scenario.cache().unwrap().with_memo(64);
        let warm = EnergyBalance::with_cache(&scenario, memo);
        // Warm the memo through the point() path, then explain twice.
        let _ = warm.point(v).unwrap();
        let first = warm.explain(v).unwrap();
        let second = warm.explain(v).unwrap();
        let bytes = serde_json::to_string(&fresh).unwrap();
        assert_eq!(bytes, serde_json::to_string(&first).unwrap());
        assert_eq!(bytes, serde_json::to_string(&second).unwrap());
    }

    #[test]
    fn dominant_block_and_sort_are_deterministic() {
        let ledger = explain_reference(25.0);
        let sorted = ledger.sorted_entries();
        assert_eq!(sorted.len(), ledger.blocks.len());
        for pair in sorted.windows(2) {
            assert!(pair[0].total_nj() >= pair[1].total_nj());
        }
        assert_eq!(
            ledger.dominant_block().unwrap().block,
            sorted[0].block,
            "dominant is the sort's head"
        );
        let shares: f64 = ledger
            .blocks
            .iter()
            .map(|e| e.share_pct(ledger.consumed_nj))
            .sum();
        // Blocks alone carry 100 % when no axis surcharge exists.
        assert!((shares - 100.0).abs() < 1e-6, "{shares}");
    }

    #[test]
    fn ledger_round_trips_through_json() {
        let ledger = explain_reference(90.0);
        let json = serde_json::to_string(&ledger).unwrap();
        let back: EnergyLedger = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ledger);
        assert!(back.conservation_holds());
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }
}
