//! The energy workbook: the spreadsheet *computing* the energy analysis.
//!
//! §II-A: "This spreadsheet also estimates the power and energy
//! consumption of the Sensor Node under different working and operating
//! conditions." [`crate::EvalCache`] computes per-round energy in
//! Rust; this module generates a live [`monityre_sheet::Sheet`] whose
//! *formulas* carry the same computation — round period from speed, phase
//! durations from the schedules (with the same truncation semantics),
//! amortization over recurrence periods, workload event energy, and the
//! whole-node total. Editing the speed cell re-derives everything through
//! the dependency engine, and the tests pin the workbook to the cache
//! (within float tolerance).

use std::fmt::Write as _;

use monityre_node::Architecture;
use monityre_power::WorkingConditions;
use monityre_profile::Wheel;
use monityre_sheet::Sheet;
use monityre_units::{Energy, Speed};

use crate::cache::ensure_rolling;
use crate::{CoreError, ScenarioExtras};

/// A generated spreadsheet that evaluates a node's energy per wheel round.
///
/// ```
/// use monityre_core::EnergyWorkbook;
/// use monityre_node::Architecture;
/// use monityre_power::WorkingConditions;
/// use monityre_profile::Wheel;
/// use monityre_units::Speed;
///
/// let arch = Architecture::reference();
/// let mut workbook = EnergyWorkbook::build(
///     &arch,
///     WorkingConditions::reference(),
///     &Wheel::reference(),
///     Speed::from_kmh(60.0),
/// ).unwrap();
/// let at60 = workbook.node_energy().unwrap();
/// workbook.set_speed(Speed::from_kmh(30.0)).unwrap();
/// let at30 = workbook.node_energy().unwrap();
/// assert!(at30 > at60); // longer rounds leak more
/// ```
#[derive(Debug)]
pub struct EnergyWorkbook {
    sheet: Sheet,
    block_names: Vec<String>,
}

impl EnergyWorkbook {
    /// Generates the workbook for an architecture at fixed working
    /// conditions on a given wheel, primed at `speed`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for a non-positive speed or (unreachable for
    /// valid architectures) a sheet-construction failure.
    pub fn build(
        architecture: &Architecture,
        conditions: WorkingConditions,
        wheel: &Wheel,
        speed: Speed,
    ) -> Result<Self, CoreError> {
        Self::build_with_extras(architecture, conditions, wheel, speed, None)
    }

    /// Like [`EnergyWorkbook::build`], but also materializes the extended
    /// physics axes (radio retransmission, storage ageing) as live cells:
    /// `extras.radio_uj` (per-round retransmission energy, constant),
    /// `extras.ageing_uw` (extra leakage power), and `extras.energy_uj`
    /// (their per-round total, re-derived through `round.period_s` on
    /// every speed edit) — folded into `node.energy_uj`. Passing `None`
    /// (or vacuous extras) generates exactly the base workbook.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for a non-positive speed or (unreachable for
    /// valid architectures) a sheet-construction failure.
    pub fn build_with_extras(
        architecture: &Architecture,
        conditions: WorkingConditions,
        wheel: &Wheel,
        speed: Speed,
        extras: Option<&ScenarioExtras>,
    ) -> Result<Self, CoreError> {
        ensure_rolling(speed)?;
        let mut sheet = Sheet::new();
        let sh = |e: monityre_sheet::SheetError| {
            CoreError::invalid_parameter(format!("workbook generation: {e}"))
        };

        // Inputs.
        sheet.set_number("in.speed_kmh", speed.kmh()).map_err(sh)?;
        sheet
            .set_number("in.circumference_m", wheel.rolling_circumference().metres())
            .map_err(sh)?;
        // Round period in seconds: circumference / (speed in m/s).
        sheet
            .set_formula(
                "round.period_s",
                "in.circumference_m / (in.speed_kmh / 3.6)",
            )
            .map_err(sh)?;

        let mut block_names = Vec::new();
        let mut total_terms = Vec::new();
        for name in architecture.block_names() {
            let plan = architecture.plan(name)?;
            let model = architecture.database().block(name)?;
            let rest_mode = plan.schedule().rest_mode();
            let rest_power = model.power(rest_mode, &conditions).total();
            sheet
                .set_number(&format!("{name}.rest_uw"), rest_power.microwatts())
                .map_err(sh)?;

            // Phase chain with the same truncation semantics as
            // RoundSchedule::resolve: a remaining-time chain for all spans
            // and a fraction budget reduced by fixed takes.
            sheet
                .set_formula(&format!("{name}.rem0"), "round.period_s * 1")
                .map_err(sh)?;
            sheet
                .set_formula(&format!("{name}.fb0"), "round.period_s * 1")
                .map_err(sh)?;
            let mut delta_terms = Vec::new();
            for (i, phase) in plan.schedule().phases().iter().enumerate() {
                let power = model.power(phase.mode, &conditions).total();
                sheet
                    .set_number(&format!("{name}.phase{i}_uw"), power.microwatts())
                    .map_err(sh)?;
                let want = match phase.span {
                    monityre_node::Span::Fixed(d) => {
                        // Fixed spans are independently capped at the period.
                        format!("min({}, round.period_s)", d.secs())
                    }
                    monityre_node::Span::Fraction(f) => {
                        format!("{f} * max({name}.fb{i}, 0)")
                    }
                };
                sheet
                    .set_formula(
                        &format!("{name}.dur{i}_s"),
                        &format!("min({want}, max({name}.rem{i}, 0))"),
                    )
                    .map_err(sh)?;
                sheet
                    .set_formula(
                        &format!("{name}.rem{next}", next = i + 1),
                        &format!("{name}.rem{i} - {name}.dur{i}_s"),
                    )
                    .map_err(sh)?;
                let fb_next = match phase.span {
                    monityre_node::Span::Fixed(_) => {
                        format!("{name}.fb{i} - {name}.dur{i}_s")
                    }
                    monityre_node::Span::Fraction(_) => format!("{name}.fb{i} * 1"),
                };
                sheet
                    .set_formula(&format!("{name}.fb{next}", next = i + 1), &fb_next)
                    .map_err(sh)?;
                // Amortized delta energy over the rest-mode baseline, in µJ
                // (µW × s = µJ).
                sheet
                    .set_formula(
                        &format!("{name}.e_phase{i}_uj"),
                        &format!(
                            "({name}.phase{i}_uw - {name}.rest_uw) * {name}.dur{i}_s / {n}",
                            n = phase.period_rounds
                        ),
                    )
                    .map_err(sh)?;
                delta_terms.push(format!("{name}.e_phase{i}_uj"));
            }

            // Event energy: counts × per-event cost at the conditions.
            let mut event_terms = Vec::new();
            for (kind, count) in plan.workload().iter() {
                if let Some(per_event) = model.event_energy(kind, &conditions) {
                    let id = kind.id();
                    sheet
                        .set_number(&format!("{name}.ev_{id}_count"), count)
                        .map_err(sh)?;
                    sheet
                        .set_number(&format!("{name}.ev_{id}_nj"), per_event.nanojoules())
                        .map_err(sh)?;
                    sheet
                        .set_formula(
                            &format!("{name}.ev_{id}_uj"),
                            &format!("{name}.ev_{id}_count * {name}.ev_{id}_nj / 1000"),
                        )
                        .map_err(sh)?;
                    event_terms.push(format!("{name}.ev_{id}_uj"));
                }
            }

            // Block total: rest power over the full round plus phase deltas
            // plus event energy.
            let mut expr = format!("{name}.rest_uw * round.period_s");
            for term in &delta_terms {
                let _ = write!(expr, " + {term}");
            }
            for term in &event_terms {
                let _ = write!(expr, " + {term}");
            }
            sheet
                .set_formula(&format!("{name}.energy_uj"), &expr)
                .map_err(sh)?;
            total_terms.push(format!("{name}.energy_uj"));
            block_names.push(name.to_owned());
        }

        if let Some(extras) = extras.filter(|e| !e.is_vacuous()) {
            let radio_uj = extras
                .radio()
                .map_or(0.0, |r| r.retransmission_energy_per_round().microjoules());
            let ageing_uw = extras.ageing().map_or(0.0, |a| {
                (a.aged_leakage(conditions.temperature()).microwatts())
                    - a.fresh_leakage().microwatts()
            });
            sheet.set_number("extras.radio_uj", radio_uj).map_err(sh)?;
            sheet
                .set_number("extras.ageing_uw", ageing_uw)
                .map_err(sh)?;
            sheet
                .set_formula(
                    "extras.energy_uj",
                    "extras.radio_uj + extras.ageing_uw * round.period_s",
                )
                .map_err(sh)?;
            total_terms.push("extras.energy_uj".to_owned());
        }

        sheet
            .set_formula(
                "node.energy_uj",
                &format!("sum({})", total_terms.join(", ")),
            )
            .map_err(sh)?;

        Ok(Self { sheet, block_names })
    }

    /// Re-primes the speed cell; every derived cell recomputes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] for non-positive speeds.
    pub fn set_speed(&mut self, speed: Speed) -> Result<(), CoreError> {
        ensure_rolling(speed)?;
        self.sheet
            .set_number("in.speed_kmh", speed.kmh())
            .map_err(|e| CoreError::invalid_parameter(format!("speed edit: {e}")))
    }

    /// The node's energy per wheel round according to the formulas.
    ///
    /// # Errors
    ///
    /// Propagates missing-cell failures (unreachable after `build`).
    pub fn node_energy(&self) -> Result<Energy, CoreError> {
        let uj = self
            .sheet
            .value("node.energy_uj")
            .map_err(|e| CoreError::invalid_parameter(format!("workbook read: {e}")))?;
        Ok(Energy::from_micros(uj))
    }

    /// One block's energy per round according to the formulas.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown blocks.
    pub fn block_energy(&self, name: &str) -> Result<Energy, CoreError> {
        let uj = self
            .sheet
            .value(&format!("{name}.energy_uj"))
            .map_err(|e| CoreError::invalid_parameter(format!("workbook read: {e}")))?;
        Ok(Energy::from_micros(uj))
    }

    /// The hosted sheet (inspection, `explain`, custom cells).
    #[must_use]
    pub fn sheet(&self) -> &Sheet {
        &self.sheet
    }

    /// The block names carried by the workbook.
    #[must_use]
    pub fn block_names(&self) -> &[String] {
        &self.block_names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;
    use monityre_node::NodeConfig;
    use monityre_units::Temperature;

    fn equivalence_at(
        config: NodeConfig,
        conditions: WorkingConditions,
        kmh: f64,
    ) -> (Energy, Energy) {
        let scenario = Scenario::builder()
            .config(config)
            .conditions(conditions)
            .build();
        let speed = Speed::from_kmh(kmh);
        let expected = scenario.cache().unwrap().required_per_round(speed).unwrap();
        let workbook =
            EnergyWorkbook::build(scenario.architecture(), conditions, scenario.wheel(), speed)
                .unwrap();
        (workbook.node_energy().unwrap(), expected)
    }

    #[test]
    fn workbook_matches_cache_at_reference() {
        for kmh in [10.0, 30.0, 60.0, 120.0, 200.0] {
            let (got, expected) =
                equivalence_at(NodeConfig::reference(), WorkingConditions::reference(), kmh);
            assert!(
                got.approx_eq(expected, 1e-9),
                "at {kmh} km/h: workbook {got} vs cache {expected}"
            );
        }
    }

    #[test]
    fn workbook_matches_cache_when_hot() {
        let cond = WorkingConditions::reference().with_temperature(Temperature::from_celsius(85.0));
        let (got, expected) = equivalence_at(NodeConfig::reference(), cond, 45.0);
        assert!(got.approx_eq(expected, 1e-9), "{got} vs {expected}");
    }

    #[test]
    fn workbook_matches_cache_for_custom_configs() {
        let configs = [
            NodeConfig::reference()
                .with_samples_per_round(512)
                .with_tx_period_rounds(1),
            NodeConfig::reference()
                .with_samples_per_round(32)
                .with_tx_period_rounds(16)
                .with_acquisition_fraction(0.03),
        ];
        for config in configs {
            let (got, expected) = equivalence_at(config, WorkingConditions::reference(), 50.0);
            assert!(got.approx_eq(expected, 1e-9), "{got} vs {expected}");
        }
    }

    #[test]
    fn workbook_matches_cache_under_truncation() {
        // At very high speed the round is shorter than the DSP's fixed
        // compute window — the truncation semantics must agree too.
        // 5 ms compute vs round period: push to an artificial 2000 km/h
        // (period ≈ 3.4 ms) to force truncation of fixed spans — the model
        // is speed-agnostic, only the maths is exercised.
        let (got, expected) = equivalence_at(
            NodeConfig::reference(),
            WorkingConditions::reference(),
            2000.0,
        );
        assert!(got.approx_eq(expected, 1e-9), "{got} vs {expected}");
    }

    #[test]
    fn speed_edit_recomputes_live() {
        let scenario = Scenario::reference();
        let mut workbook = EnergyWorkbook::build(
            scenario.architecture(),
            scenario.conditions(),
            scenario.wheel(),
            Speed::from_kmh(60.0),
        )
        .unwrap();
        let cache = scenario.cache().unwrap();
        for kmh in [15.0, 42.0, 88.0, 170.0] {
            workbook.set_speed(Speed::from_kmh(kmh)).unwrap();
            let expected = cache.required_per_round(Speed::from_kmh(kmh)).unwrap();
            let got = workbook.node_energy().unwrap();
            assert!(
                got.approx_eq(expected, 1e-9),
                "at {kmh}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn per_block_cells_sum_to_total() {
        let arch = Architecture::reference();
        let wheel = Wheel::reference();
        let workbook = EnergyWorkbook::build(
            &arch,
            WorkingConditions::reference(),
            &wheel,
            Speed::from_kmh(60.0),
        )
        .unwrap();
        let sum: f64 = workbook
            .block_names()
            .iter()
            .map(|n| workbook.block_energy(n).unwrap().microjoules())
            .sum();
        let total = workbook.node_energy().unwrap().microjoules();
        assert!((sum - total).abs() < 1e-9);
    }

    #[test]
    fn rejects_standstill() {
        let arch = Architecture::reference();
        let wheel = Wheel::reference();
        assert!(
            EnergyWorkbook::build(&arch, WorkingConditions::reference(), &wheel, Speed::ZERO)
                .is_err()
        );
        let mut workbook = EnergyWorkbook::build(
            &arch,
            WorkingConditions::reference(),
            &wheel,
            Speed::from_kmh(50.0),
        )
        .unwrap();
        assert!(workbook.set_speed(Speed::ZERO).is_err());
    }

    #[test]
    fn extras_cells_match_the_balance_point() {
        use crate::{EnergyBalance, RadioLink, Scenario, StorageAgeing};

        let extras = ScenarioExtras::none()
            .with_radio(RadioLink::new(0.2, 5))
            .with_ageing(StorageAgeing::new(6.0));
        let scenario = Scenario::builder().extras(extras.clone()).build();
        let balance = EnergyBalance::new(&scenario).unwrap();
        let mut workbook = EnergyWorkbook::build_with_extras(
            scenario.architecture(),
            scenario.conditions(),
            scenario.wheel(),
            Speed::from_kmh(60.0),
            Some(&extras),
        )
        .unwrap();
        for kmh in [20.0, 60.0, 140.0] {
            workbook.set_speed(Speed::from_kmh(kmh)).unwrap();
            let expected = balance.point(Speed::from_kmh(kmh)).unwrap().required;
            let got = workbook.node_energy().unwrap();
            assert!(
                got.approx_eq(expected, 1e-9),
                "at {kmh} km/h: workbook {got} vs balance {expected}"
            );
        }
    }

    #[test]
    fn vacuous_extras_add_no_cells() {
        let arch = Architecture::reference();
        let wheel = Wheel::reference();
        let extras = ScenarioExtras::none();
        let workbook = EnergyWorkbook::build_with_extras(
            &arch,
            WorkingConditions::reference(),
            &wheel,
            Speed::from_kmh(60.0),
            Some(&extras),
        )
        .unwrap();
        assert!(workbook.sheet().value("extras.energy_uj").is_err());
        let base = EnergyWorkbook::build(
            &arch,
            WorkingConditions::reference(),
            &wheel,
            Speed::from_kmh(60.0),
        )
        .unwrap();
        assert_eq!(workbook.node_energy().unwrap(), base.node_energy().unwrap());
    }

    #[test]
    fn explain_traces_the_energy_formula() {
        let arch = Architecture::reference();
        let wheel = Wheel::reference();
        let workbook = EnergyWorkbook::build(
            &arch,
            WorkingConditions::reference(),
            &wheel,
            Speed::from_kmh(60.0),
        )
        .unwrap();
        let text = workbook.sheet().explain("node.energy_uj").unwrap();
        assert!(text.contains("dsp.energy_uj"));
        assert!(text.contains("round.period_s"));
    }
}
