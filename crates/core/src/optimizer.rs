//! Break-even search: which node configuration / duty-cycle policy
//! minimizes the break-even speed of a scenario?
//!
//! The paper's [`crate::OptimizationAdvisor`] picks per-block
//! *techniques* from the (dynamic/static split × duty cycle) pair; this
//! module searches the orthogonal knob space the serving layer exposes —
//! the [`ConfigSpace::reference_grid`] of samples-per-round ×
//! tx-period × payload, crossed with a small set of acquisition
//! duty-cycle policies (energy-aware task-scheduling in the sense of
//! Sharma et al.) — and reports the configuration with the lowest
//! break-even speed. The unmodified scenario is always candidate zero,
//! so the optimized result is **never worse than the baseline** by
//! construction.
//!
//! Candidates are evaluated independently on a [`SweepExecutor`] in
//! candidate order and compared with a first-wins tie-break, so the
//! result is bit-identical for any thread count — the same property the
//! plain sweeps pin.
//!
//! A candidate costs a scan and little else:
//!
//! - **A shared table.** The searched configurations are constants, so
//!   the first search of the process builds their architectures once,
//!   in candidate order, and every later search indexes that table.
//! - **Derived caches.** As the paper's flow re-estimates only what an
//!   optimization step touches, a candidate's [`crate::EvalCache`] is
//!   derived from the baseline's (`EvalCache::derive`): no swept knob
//!   changes a power model, so each block takes the powers the baseline
//!   priced and computes only its own schedule and workload figures.
//! - **Consumed energy without a ledger.** Each candidate's
//!   `consumed_nj` sums its blocks booked as an [`EnergyLedger`] books
//!   them, plus the surcharges, which do not depend on the node and come
//!   from the baseline's ledger. Only the winner is explained in full,
//!   for the deltas.

use std::sync::{Arc, OnceLock};

use monityre_node::{Architecture, ConfigSpace, NodeConfig};
use monityre_units::Speed;
use serde::{Deserialize, Serialize};

use crate::{CoreError, EnergyBalance, EnergyLedger, LedgerEntry, Scenario, SweepExecutor};

/// The acquisition duty-cycle policies the search crosses the config
/// grid with (the reference node acquires for 12 % of each round).
pub const DUTY_POLICIES: &[f64] = &[0.06, 0.12, 0.24];

/// One searched configuration, in the node config's own knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateConfig {
    /// ADC samples acquired per wheel round.
    pub samples_per_round: u32,
    /// Rounds between radio transmissions.
    pub tx_period_rounds: u32,
    /// Radio payload size in bytes.
    pub payload_bytes: u32,
    /// Fraction of the round spent acquiring.
    pub acquisition_fraction: f64,
}

impl CandidateConfig {
    fn of(config: &NodeConfig) -> Self {
        Self {
            samples_per_round: config.samples_per_round(),
            tx_period_rounds: config.tx_period_rounds(),
            payload_bytes: config.payload_bytes(),
            acquisition_fraction: config.acquisition_fraction(),
        }
    }
}

/// One ledger component of the winning candidate, side by side with the
/// baseline's figure for the same component at the same speed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerDelta {
    /// The compared component: an architecture block name, or one of
    /// the aggregate rows `radio-retx`, `ageing-leak`, `consumed`,
    /// `storage-delta`.
    pub component: String,
    /// The baseline's figure at the report's ledger speed, nanojoules.
    pub baseline_nj: i64,
    /// The winning candidate's figure at the same speed, nanojoules.
    pub best_nj: i64,
}

impl LedgerDelta {
    /// Winner minus baseline, nanojoules (negative when the winner
    /// spends less on this component).
    #[must_use]
    pub fn delta_nj(&self) -> i64 {
        self.best_nj - self.baseline_nj
    }

    /// The delta as a percentage of the baseline figure (0 when the
    /// baseline attributed nothing to this component).
    #[must_use]
    pub fn delta_pct(&self) -> f64 {
        if self.baseline_nj == 0 {
            return 0.0;
        }
        self.delta_nj() as f64 * 100.0 / (self.baseline_nj as f64).abs()
    }
}

/// What a break-even search found.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizeReport {
    /// Break-even of the unmodified scenario, km/h (`null` when its
    /// curves never cross in the swept range).
    pub baseline_kmh: Option<f64>,
    /// Break-even of the best candidate, km/h. Never above
    /// `baseline_kmh` when both exist — the baseline is candidate zero.
    pub best_kmh: Option<f64>,
    /// The winning configuration; `null` when the unmodified scenario
    /// already minimizes break-even (keep what you have).
    pub best: Option<CandidateConfig>,
    /// How many candidates the search evaluated (baseline included).
    pub candidates: usize,
    /// The speed the attribution ledgers below were explained at, km/h:
    /// the baseline's break-even when it exists, else the midpoint of
    /// the swept range.
    #[serde(default)]
    pub ledger_speed_kmh: Option<f64>,
    /// Each candidate's total consumed energy at `ledger_speed_kmh`,
    /// nanojoules, in candidate order (baseline first). Empty in
    /// reports serialized before the ledger existed.
    #[serde(default)]
    pub candidate_consumed_nj: Vec<i64>,
    /// Component-by-component comparison of the winner against the
    /// baseline at `ledger_speed_kmh` — the "why" behind `best`. Empty
    /// in reports serialized before the ledger existed.
    #[serde(default)]
    pub ledger_deltas: Vec<LedgerDelta>,
}

impl OptimizeReport {
    /// Break-even improvement over the baseline, km/h (0 when either
    /// side never crosses).
    #[must_use]
    pub fn improvement_kmh(&self) -> f64 {
        match (self.baseline_kmh, self.best_kmh) {
            (Some(base), Some(best)) => base - best,
            _ => 0.0,
        }
    }

    /// The consumption component the winner saves the most on — the
    /// headline of the report ("the winner wins because *radio* drops
    /// 38 %"). `None` when no component got cheaper.
    #[must_use]
    pub fn dominant_saving(&self) -> Option<&LedgerDelta> {
        self.ledger_deltas
            .iter()
            .filter(|delta| !matches!(delta.component.as_str(), "consumed" | "storage-delta"))
            .filter(|delta| delta.delta_nj() < 0)
            .min_by_key(|delta| delta.delta_nj())
    }
}

/// Rows comparing two ledgers of the same scenario family at the same
/// speed: one row per baseline block (matched to the candidate's block
/// of the same name), then the extended-axis surcharges and the
/// aggregate consumed / storage-delta books.
fn ledger_deltas(baseline: &EnergyLedger, best: &EnergyLedger) -> Vec<LedgerDelta> {
    let row = |component: &str, baseline_nj: i64, best_nj: i64| LedgerDelta {
        component: component.to_owned(),
        baseline_nj,
        best_nj,
    };
    let mut deltas = Vec::with_capacity(baseline.blocks.len() + 4);
    for entry in &baseline.blocks {
        let matched = best
            .blocks
            .iter()
            .find(|candidate| candidate.block == entry.block)
            .map_or(0, LedgerEntry::total_nj);
        deltas.push(row(&entry.block, entry.total_nj(), matched));
    }
    deltas.push(row(
        "radio-retx",
        baseline.radio_retx_nj,
        best.radio_retx_nj,
    ));
    deltas.push(row(
        "ageing-leak",
        baseline.ageing_leak_nj,
        best.ageing_leak_nj,
    ));
    deltas.push(row("consumed", baseline.consumed_nj, best.consumed_nj));
    deltas.push(row(
        "storage-delta",
        baseline.storage_delta_nj,
        best.storage_delta_nj,
    ));
    deltas
}

/// Searches node configurations / duty policies for the lowest
/// break-even speed of a scenario.
#[derive(Debug, Clone)]
pub struct BreakEvenOptimizer {
    scenario: Scenario,
}

impl BreakEvenOptimizer {
    /// An optimizer over `scenario`'s conditions, chain, wheel and
    /// extended axes; only the node architecture varies per candidate.
    #[must_use]
    pub fn new(scenario: &Scenario) -> Self {
        Self {
            scenario: scenario.clone(),
        }
    }

    /// The candidate list: the unmodified scenario first, then the
    /// reference config grid crossed with every duty policy, in a fixed
    /// order.
    fn candidates() -> Vec<Option<NodeConfig>> {
        let mut candidates: Vec<Option<NodeConfig>> = vec![None];
        for duty in DUTY_POLICIES {
            for config in ConfigSpace::reference_grid().iter() {
                candidates.push(Some(config.with_acquisition_fraction(*duty)));
            }
        }
        candidates
    }

    /// The searched configurations after the baseline, each with its
    /// architecture, in candidate order: candidate `i` is entry `i - 1`.
    /// The configurations are constants, so the first search of the
    /// process builds their architectures and every later one shares
    /// them.
    pub(crate) fn candidate_table() -> &'static [(NodeConfig, Arc<Architecture>)] {
        static TABLE: OnceLock<Vec<(NodeConfig, Arc<Architecture>)>> = OnceLock::new();
        TABLE.get_or_init(|| {
            Self::candidates()
                .into_iter()
                .flatten()
                .map(|config| (config, Arc::new(Architecture::from_config(config))))
                .collect()
        })
    }

    /// A candidate's balance: the optimizer's scenario with only the node
    /// swapped for `architecture`, its cache derived from the baseline's
    /// priced figures.
    fn candidate_balance(
        &self,
        baseline: &EnergyBalance,
        architecture: &Arc<Architecture>,
    ) -> Result<EnergyBalance, CoreError> {
        let cache = baseline.cache().derive(Arc::clone(architecture))?;
        let scenario = self
            .scenario
            .with_shared_architecture(Arc::clone(architecture));
        Ok(EnergyBalance::with_cache(&scenario, cache))
    }

    /// Runs the search over `[lo, hi]` sampled at `steps` speeds per
    /// candidate, fanning candidates across `executor` and polling
    /// `cancelled` between chunks. Each candidate scans its grid only up
    /// to its crossing ([`EnergyBalance::break_even`]). `Ok(None)` means
    /// the search was abandoned (deadline). A completed search is
    /// bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// Propagates evaluation-cache failures for the baseline scenario.
    ///
    /// # Panics
    ///
    /// Panics if `steps < 2`, `lo` is not positive, or `hi ≤ lo` (the
    /// sweep grid's own contract).
    pub fn search<C: Fn() -> bool + Sync>(
        &self,
        lo: Speed,
        hi: Speed,
        steps: usize,
        executor: &SweepExecutor,
        cancelled: &C,
    ) -> Result<Option<OptimizeReport>, CoreError> {
        let _span = monityre_obs::span!("optimizer.search");
        // Build the baseline eagerly so malformed scenarios fail with a
        // typed error instead of panicking inside a worker.
        let baseline = EnergyBalance::new(&self.scenario)?;
        let Some(baseline_break_even) = baseline.break_even(lo, hi, steps, executor, cancelled)
        else {
            return Ok(None);
        };
        let baseline_kmh = baseline_break_even.map(Speed::kmh);
        // Every candidate is explained at one common speed — the
        // baseline's break-even (the operating point the search is
        // about) or the swept midpoint when the baseline never crosses.
        let ledger_speed_kmh = baseline_kmh.unwrap_or_else(|| (lo.kmh() + hi.kmh()) / 2.0);
        let ledger_speed = Speed::from_kmh(ledger_speed_kmh);
        let baseline_ledger = baseline.explain(ledger_speed)?;
        // The surcharges do not depend on the node, so each candidate's
        // consumed total is its blocks' nanojoules plus the baseline's
        // pair.
        let surcharges_nj = baseline_ledger.radio_retx_nj + baseline_ledger.ageing_leak_nj;
        let table = Self::candidate_table();
        let serial = SweepExecutor::serial();
        let outcomes = executor.map_cancellable(table, cancelled, |_, (_, architecture)| {
            let balance = self.candidate_balance(&baseline, architecture)?;
            let break_even = balance
                .break_even(lo, hi, steps, &serial, &|| false)
                .expect("a never-cancelled scan always completes");
            let consumed_nj = balance.cache().attributed_nj(ledger_speed)? + surcharges_nj;
            Ok((break_even.map(Speed::kmh), consumed_nj))
        });
        let Some(outcomes) = outcomes else {
            return Ok(None);
        };
        let outcomes = std::iter::once(Ok((baseline_kmh, baseline_ledger.consumed_nj)))
            .chain(outcomes)
            .collect::<Result<Vec<_>, CoreError>>()?;
        // First-wins comparison in candidate order: deterministic for
        // any executor, and the baseline wins every exact tie.
        let mut best_index = 0usize;
        let mut best = baseline_kmh.unwrap_or(f64::INFINITY);
        for (index, (outcome, _)) in outcomes.iter().enumerate().skip(1) {
            let value = outcome.unwrap_or(f64::INFINITY);
            if value < best {
                best = value;
                best_index = index;
            }
        }
        // Only the winner is explained in full.
        let winner = best_index.checked_sub(1).map(|entry| &table[entry]);
        let best_ledger = match winner {
            None => baseline_ledger.clone(),
            Some((_, architecture)) => self
                .candidate_balance(&baseline, architecture)?
                .explain(ledger_speed)?,
        };
        Ok(Some(OptimizeReport {
            baseline_kmh,
            best_kmh: outcomes[best_index].0,
            best: winner.map(|(config, _)| CandidateConfig::of(config)),
            candidates: outcomes.len(),
            ledger_speed_kmh: Some(ledger_speed_kmh),
            ledger_deltas: ledger_deltas(&baseline_ledger, &best_ledger),
            candidate_consumed_nj: outcomes.iter().map(|(_, consumed)| *consumed).collect(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RadioLink, ScenarioExtras, StorageAgeing};
    use monityre_harvest::HarvestChain;
    use monityre_power::WorkingConditions;
    use monityre_units::Temperature;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The search without shortcuts: one full sweep per candidate, then
    /// a serial pass that builds every candidate a second time to
    /// explain it. [`BreakEvenOptimizer::search`] must match its report
    /// byte for byte.
    fn reference_search(
        optimizer: &BreakEvenOptimizer,
        lo: Speed,
        hi: Speed,
        steps: usize,
        executor: &SweepExecutor,
    ) -> OptimizeReport {
        let baseline = EnergyBalance::new(&optimizer.scenario).unwrap();
        let candidates = BreakEvenOptimizer::candidates();
        let outcomes = executor.map(&candidates, |_, candidate| {
            let break_even = match candidate {
                None => baseline.sweep(lo, hi, steps).break_even(),
                Some(config) => {
                    let derived = optimizer
                        .scenario
                        .with_architecture(Architecture::from_config(*config));
                    EnergyBalance::new(&derived)
                        .unwrap()
                        .sweep(lo, hi, steps)
                        .break_even()
                }
            };
            break_even.map(|speed| speed.kmh())
        });
        let mut best_index = 0usize;
        let mut best = outcomes[0].unwrap_or(f64::INFINITY);
        for (index, outcome) in outcomes.iter().enumerate().skip(1) {
            let value = outcome.unwrap_or(f64::INFINITY);
            if value < best {
                best = value;
                best_index = index;
            }
        }
        let ledger_speed_kmh = outcomes[0].unwrap_or_else(|| (lo.kmh() + hi.kmh()) / 2.0);
        let ledger_speed = Speed::from_kmh(ledger_speed_kmh);
        let baseline_ledger = baseline.explain(ledger_speed).unwrap();
        let mut candidate_consumed_nj = Vec::with_capacity(candidates.len());
        let mut best_ledger = baseline_ledger.clone();
        for (index, candidate) in candidates.iter().enumerate() {
            let ledger = match candidate {
                None => baseline_ledger.clone(),
                Some(config) => {
                    let derived = optimizer
                        .scenario
                        .with_architecture(Architecture::from_config(*config));
                    EnergyBalance::new(&derived)
                        .unwrap()
                        .explain(ledger_speed)
                        .unwrap()
                }
            };
            candidate_consumed_nj.push(ledger.consumed_nj);
            if index == best_index {
                best_ledger = ledger;
            }
        }
        OptimizeReport {
            baseline_kmh: outcomes[0],
            best_kmh: outcomes[best_index],
            best: candidates[best_index].as_ref().map(CandidateConfig::of),
            candidates: candidates.len(),
            ledger_speed_kmh: Some(ledger_speed_kmh),
            ledger_deltas: ledger_deltas(&baseline_ledger, &best_ledger),
            candidate_consumed_nj,
        }
    }

    /// A scenario and grid like the cold `optimize` requests a fleet
    /// sends: a random temperature, scavenger size and (sometimes) each
    /// extended axis, over a random range and step count.
    fn cold_case(seed: u64) -> (Scenario, Speed, Speed, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut extras = ScenarioExtras::none();
        if rng.gen_range(0..2) == 0 {
            extras = extras.with_radio(RadioLink::new(rng.gen_range(0.0..0.5), 3));
        }
        if rng.gen_range(0..2) == 0 {
            extras = extras.with_ageing(StorageAgeing::new(rng.gen_range(0.0..12.0)));
        }
        let celsius = rng.gen_range(-20.0..90.0);
        let scenario = Scenario::builder()
            .conditions(
                WorkingConditions::reference().with_temperature(Temperature::from_celsius(celsius)),
            )
            .chain(HarvestChain::reference().scaled(rng.gen_range(0.6..2.5)))
            .extras(extras)
            .build();
        let from = rng.gen_range(3.0..40.0);
        let to = from + rng.gen_range(20.0..200.0);
        let steps = rng.gen_range(2..97);
        (scenario, Speed::from_kmh(from), Speed::from_kmh(to), steps)
    }

    #[test]
    fn search_matches_the_two_build_reference() {
        let starved = Scenario::builder()
            .chain(HarvestChain::reference().scaled(0.01))
            .build();
        let (lo, hi) = (Speed::from_kmh(5.0), Speed::from_kmh(200.0));
        let mut cases = vec![(Scenario::reference(), lo, hi, 48), (starved, lo, hi, 24)];
        cases.extend((1..=8).map(cold_case));
        let mut never_crossed = 0;
        for (case, (scenario, lo, hi, steps)) in cases.iter().enumerate() {
            let optimizer = BreakEvenOptimizer::new(scenario);
            for threads in [1, 3] {
                let executor = SweepExecutor::new(threads);
                let expected = reference_search(&optimizer, *lo, *hi, *steps, &executor);
                let report = optimizer
                    .search(*lo, *hi, *steps, &executor, &|| false)
                    .unwrap()
                    .expect("not cancelled");
                assert_eq!(
                    serde_json::to_string(&report).unwrap(),
                    serde_json::to_string(&expected).unwrap(),
                    "case {case} at {threads} thread(s)"
                );
                if report.baseline_kmh.is_none() {
                    never_crossed += 1;
                    assert_eq!(
                        report.ledger_speed_kmh,
                        Some((lo.kmh() + hi.kmh()) / 2.0),
                        "a baseline that never crosses is explained at the midpoint"
                    );
                }
            }
        }
        assert!(never_crossed >= 2, "the starved baseline must be covered");
    }

    /// The consumed total the search reports for a candidate — its
    /// blocks' nanojoules plus the baseline's surcharges — equals its full
    /// ledger's `consumed_nj` at every speed of every cold case, for the
    /// baseline and for candidates derived from it.
    #[test]
    fn consumed_fold_matches_the_ledger() {
        let table = BreakEvenOptimizer::candidate_table();
        for seed in 1..=8 {
            let (scenario, lo, hi, steps) = cold_case(seed);
            let optimizer = BreakEvenOptimizer::new(&scenario);
            let baseline = EnergyBalance::new(&scenario).unwrap();
            let mut balances = vec![baseline.clone()];
            for entry in [0, table.len() / 2, table.len() - 1] {
                let architecture = &table[entry].1;
                balances.push(
                    optimizer
                        .candidate_balance(&baseline, architecture)
                        .unwrap(),
                );
            }
            for speed in crate::speed_grid(lo, hi, steps) {
                // As in the search, every candidate adds the baseline's
                // surcharges.
                let ledger = baseline.explain(speed).unwrap();
                let surcharges_nj = ledger.radio_retx_nj + ledger.ageing_leak_nj;
                for (index, balance) in balances.iter().enumerate() {
                    assert_eq!(
                        balance.cache().attributed_nj(speed).unwrap() + surcharges_nj,
                        balance.explain(speed).unwrap().consumed_nj,
                        "case {seed}, balance {index} at {} km/h",
                        speed.kmh()
                    );
                }
            }
        }
    }

    fn search_reference(threads: usize) -> OptimizeReport {
        BreakEvenOptimizer::new(&Scenario::reference())
            .search(
                Speed::from_kmh(5.0),
                Speed::from_kmh(200.0),
                48,
                &SweepExecutor::new(threads),
                &|| false,
            )
            .unwrap()
            .expect("not cancelled")
    }

    #[test]
    fn optimized_never_worse_than_baseline() {
        let report = search_reference(1);
        let baseline = report.baseline_kmh.expect("reference curves cross");
        let best = report.best_kmh.expect("some candidate crosses");
        assert!(best <= baseline, "best {best} vs baseline {baseline}");
        assert!(report.improvement_kmh() >= 0.0);
        assert!(report.candidates > 1 + ConfigSpace::reference_grid().len());
    }

    #[test]
    fn search_is_bit_identical_across_thread_counts() {
        let serial = search_reference(1);
        for threads in [2, 4] {
            let parallel = search_reference(threads);
            assert_eq!(
                serde_json::to_string(&serial).unwrap(),
                serde_json::to_string(&parallel).unwrap(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn cancelled_search_returns_none() {
        let outcome = BreakEvenOptimizer::new(&Scenario::reference())
            .search(
                Speed::from_kmh(5.0),
                Speed::from_kmh(200.0),
                16,
                &SweepExecutor::serial(),
                &|| true,
            )
            .unwrap();
        assert!(outcome.is_none());
    }

    #[test]
    fn ledger_deltas_attribute_the_winners_saving() {
        let report = search_reference(1);
        assert_eq!(
            report.ledger_speed_kmh, report.baseline_kmh,
            "the attribution speed is the baseline break-even"
        );
        assert_eq!(report.candidate_consumed_nj.len(), report.candidates);
        let consumed = report
            .ledger_deltas
            .iter()
            .find(|delta| delta.component == "consumed")
            .expect("the aggregate consumed row exists");
        assert_eq!(
            consumed.baseline_nj, report.candidate_consumed_nj[0],
            "candidate zero is the baseline"
        );
        if report.improvement_kmh() > 0.0 {
            // A strictly lower break-even means the winner demands less
            // at the baseline's break-even speed, and some component
            // must account for the drop.
            assert!(consumed.delta_nj() < 0, "consumed delta {consumed:?}");
            let saving = report.dominant_saving().expect("a component got cheaper");
            assert!(saving.delta_nj() < 0);
            assert!(saving.delta_pct() < 0.0);
        }
    }

    #[test]
    fn pre_ledger_reports_still_deserialize() {
        let legacy = r#"{"baseline_kmh":40.0,"best_kmh":35.0,"best":null,"candidates":5}"#;
        let report: OptimizeReport = serde_json::from_str(legacy).unwrap();
        assert_eq!(report.ledger_speed_kmh, None);
        assert!(report.candidate_consumed_nj.is_empty());
        assert!(report.ledger_deltas.is_empty());
        assert!(report.dominant_saving().is_none());
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = search_reference(1);
        let json = serde_json::to_string(&report).unwrap();
        let back: OptimizeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
