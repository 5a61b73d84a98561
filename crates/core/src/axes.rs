//! Extended scenario physics: the radio delay / retransmission-energy
//! axis and the supercap ageing / temperature-dependent-leakage axis.
//!
//! The DATE 2011 paper treats the radio as a lossless, instant link and
//! the storage element as eternally fresh. Two of the related works fill
//! those gaps: energy-efficient wireless tire sensing with delay
//! analysis (Mishra & Liang 2024) motivates modelling packet loss,
//! bounded retransmission and the per-packet latency it costs, and the
//! supercap literature motivates an ageing factor on leakage that grows
//! with both service years and temperature (the classic ~2× per 10 °C
//! electrolyte rule).
//!
//! Both axes are **strictly additive to the required-energy curve** and
//! are applied outside the per-speed memo (see
//! [`crate::EnergyBalance::point`]). A scenario without extras performs
//! *zero* additional float operations — branch-and-skip, never a
//! multiply by `1.0` — which keeps the pinned reference break-even
//! bit-identical.

use monityre_profile::Wheel;
use monityre_units::{Duration, Energy, Power, Speed, Temperature, Voltage};

/// A lossy radio link with bounded retransmission.
///
/// A transmission slot is attempted up to `1 + max_retries` times; each
/// attempt independently fails with probability `loss_prob`. The
/// expected number of attempts per slot is the truncated geometric sum
/// `Σₖ₌₀ⁿ pᵏ = (1 − pⁿ⁺¹) / (1 − p)`, monotone non-decreasing in the
/// retry budget and equal to exactly `1.0` on a lossless link.
///
/// ```
/// use monityre_core::RadioLink;
///
/// let lossless = RadioLink::new(0.0, 3);
/// assert_eq!(lossless.expected_attempts(), 1.0);
/// assert_eq!(lossless.retransmission_energy_per_round().joules(), 0.0);
///
/// let lossy = RadioLink::new(0.2, 3);
/// assert!(lossy.expected_attempts() > 1.0);
/// assert!(lossy.expected_delay() > lossless.expected_delay());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RadioLink {
    loss_prob: f64,
    max_retries: u32,
    tx_power: Power,
    airtime: Duration,
    tx_period_rounds: u32,
}

/// Largest retry budget a link accepts — beyond this the geometric sum
/// is saturated to machine precision anyway.
pub const MAX_RADIO_RETRIES: u32 = 64;

impl RadioLink {
    /// A link with the reference radio's burst parameters (the node
    /// config's 800 µs TX burst at 3.1 mW, one transmission every 4
    /// rounds).
    ///
    /// # Panics
    ///
    /// Panics unless `loss_prob ∈ [0, 1)` and
    /// `max_retries ≤ `[`MAX_RADIO_RETRIES`].
    #[must_use]
    pub fn new(loss_prob: f64, max_retries: u32) -> Self {
        assert!(
            loss_prob.is_finite() && (0.0..1.0).contains(&loss_prob),
            "loss probability must be in [0, 1)"
        );
        assert!(
            max_retries <= MAX_RADIO_RETRIES,
            "retry budget must be at most {MAX_RADIO_RETRIES}"
        );
        let reference = monityre_node::NodeConfig::reference();
        Self {
            loss_prob,
            max_retries,
            tx_power: Power::from_milliwatts(3.1),
            airtime: reference.tx_burst(),
            tx_period_rounds: reference.tx_period_rounds(),
        }
    }

    /// Overrides how many wheel rounds separate transmissions (the knob
    /// the node config also carries — keep them in agreement so the
    /// retransmission energy amortizes over the right period).
    ///
    /// # Panics
    ///
    /// Panics when `rounds` is zero.
    #[must_use]
    pub fn with_tx_period_rounds(mut self, rounds: u32) -> Self {
        assert!(rounds > 0, "tx period must be at least one round");
        self.tx_period_rounds = rounds;
        self
    }

    /// The per-attempt packet loss probability.
    #[must_use]
    pub fn loss_prob(&self) -> f64 {
        self.loss_prob
    }

    /// The retry budget after the first attempt.
    #[must_use]
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Expected attempts per transmission slot: the truncated geometric
    /// sum `(1 − pⁿ⁺¹) / (1 − p)`, exactly `1.0` on a lossless link.
    #[must_use]
    pub fn expected_attempts(&self) -> f64 {
        if self.loss_prob == 0.0 {
            return 1.0;
        }
        let p = self.loss_prob;
        (1.0 - p.powi(self.max_retries as i32 + 1)) / (1.0 - p)
    }

    /// Expected on-air latency per transmission slot (attempts ×
    /// airtime); never negative.
    #[must_use]
    pub fn expected_delay(&self) -> Duration {
        self.airtime * self.expected_attempts()
    }

    /// Extra radio energy per *wheel round*: the energy of the expected
    /// retransmissions (attempts beyond the first, which the base model
    /// already charges), amortized over the transmission period.
    #[must_use]
    pub fn retransmission_energy_per_round(&self) -> Energy {
        let extra_attempts = self.expected_attempts() - 1.0;
        if extra_attempts <= 0.0 {
            return Energy::ZERO;
        }
        let per_slot: Energy = self.tx_power * self.airtime;
        per_slot * extra_attempts / f64::from(self.tx_period_rounds)
    }
}

/// Supercap ageing: leakage grows with service years, accelerated by
/// temperature.
///
/// The fresh reference reservoir (2.7 V nominal across a 5 MΩ leakage
/// path) loses ~1.46 µW; an aged part multiplies that by
/// `1 + r·years·2^((T−25 °C)/10)` — the ageing rate `r` per year,
/// doubling every 10 °C above the 25 °C reference. Aged leakage is
/// therefore never below fresh leakage at equal temperature, and a
/// zero-year part is *bit-identical* to fresh.
///
/// ```
/// use monityre_core::StorageAgeing;
/// use monityre_units::Temperature;
///
/// let aged = StorageAgeing::new(5.0);
/// let t = Temperature::from_celsius(25.0);
/// assert!(aged.aged_leakage(t) > aged.fresh_leakage());
/// assert!(aged.aged_leakage(Temperature::from_celsius(85.0)) > aged.aged_leakage(t));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StorageAgeing {
    age_years: f64,
}

/// Leakage-growth rate per service year at the 25 °C reference.
pub const AGEING_RATE_PER_YEAR: f64 = 0.15;

/// Longest service life the model accepts, years.
pub const MAX_AGE_YEARS: f64 = 30.0;

/// Nominal voltage of the reference reservoir, volts.
const NOMINAL_VOLTS: f64 = 2.7;

/// Leakage resistance of the fresh reference reservoir, ohms.
const FRESH_LEAK_OHMS: f64 = 5.0e6;

impl StorageAgeing {
    /// An ageing model for a part `age_years` into its service life.
    ///
    /// # Panics
    ///
    /// Panics unless `age_years ∈ [0, `[`MAX_AGE_YEARS`]`]`.
    #[must_use]
    pub fn new(age_years: f64) -> Self {
        assert!(
            age_years.is_finite() && (0.0..=MAX_AGE_YEARS).contains(&age_years),
            "age must be in [0, {MAX_AGE_YEARS}] years"
        );
        Self { age_years }
    }

    /// The modelled service age, years.
    #[must_use]
    pub fn age_years(&self) -> f64 {
        self.age_years
    }

    /// The fresh reference reservoir's leakage: `V²/R` at nominal
    /// voltage.
    #[must_use]
    pub fn fresh_leakage(&self) -> Power {
        let volts = Voltage::from_volts(NOMINAL_VOLTS).volts();
        Power::from_watts(volts * volts / FRESH_LEAK_OHMS)
    }

    /// The leakage multiplier at `temperature`:
    /// `1 + r·years·2^((T−25)/10)` — always ≥ 1.
    #[must_use]
    pub fn ageing_factor(&self, temperature: Temperature) -> f64 {
        let acceleration = ((temperature.celsius() - 25.0) / 10.0).exp2();
        1.0 + AGEING_RATE_PER_YEAR * self.age_years * acceleration
    }

    /// Aged leakage at `temperature`; never below [`Self::fresh_leakage`]
    /// at any temperature, and bit-identical to fresh at zero years.
    #[must_use]
    pub fn aged_leakage(&self, temperature: Temperature) -> Power {
        self.fresh_leakage() * self.ageing_factor(temperature)
    }

    /// The *extra* (aged − fresh) leakage energy per wheel round at
    /// `speed` — slower wheels mean longer rounds and a bigger leak
    /// budget per round.
    #[must_use]
    pub fn extra_leakage_per_round(
        &self,
        temperature: Temperature,
        wheel: &Wheel,
        speed: Speed,
    ) -> Energy {
        let extra: Power = self.aged_leakage(temperature) - self.fresh_leakage();
        if extra.watts() <= 0.0 {
            return Energy::ZERO;
        }
        extra * wheel.round_period(speed)
    }
}

/// The optional physics axes a [`crate::Scenario`] may carry beyond the
/// paper's base model. `None` on the scenario means the base model runs
/// untouched; a vacuous `ScenarioExtras` (both axes absent) is
/// equivalent but never constructed by the builders.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioExtras {
    radio: Option<RadioLink>,
    ageing: Option<StorageAgeing>,
}

impl ScenarioExtras {
    /// No extra axes (the vacuous value builders start from).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Attaches the radio axis.
    #[must_use]
    pub fn with_radio(mut self, radio: RadioLink) -> Self {
        self.radio = Some(radio);
        self
    }

    /// Attaches the ageing axis.
    #[must_use]
    pub fn with_ageing(mut self, ageing: StorageAgeing) -> Self {
        self.ageing = Some(ageing);
        self
    }

    /// The radio axis, if attached.
    #[must_use]
    pub fn radio(&self) -> Option<&RadioLink> {
        self.radio.as_ref()
    }

    /// The ageing axis, if attached.
    #[must_use]
    pub fn ageing(&self) -> Option<&StorageAgeing> {
        self.ageing.as_ref()
    }

    /// Whether no axis is attached (callers should then leave the
    /// scenario's extras slot empty instead of carrying a vacuous value).
    #[must_use]
    pub fn is_vacuous(&self) -> bool {
        self.radio.is_none() && self.ageing.is_none()
    }

    /// The radio retransmission and ageing leakage surcharges per wheel
    /// round at this operating point, in that order. An absent axis
    /// contributes [`Energy::ZERO`]; both are always ≥ 0.
    #[must_use]
    pub fn surcharges(
        &self,
        temperature: Temperature,
        wheel: &Wheel,
        speed: Speed,
    ) -> (Energy, Energy) {
        (
            self.radio
                .as_ref()
                .map_or(Energy::ZERO, RadioLink::retransmission_energy_per_round),
            self.ageing.as_ref().map_or(Energy::ZERO, |ageing| {
                ageing.extra_leakage_per_round(temperature, wheel, speed)
            }),
        )
    }

    /// The summed extra required energy per wheel round both axes
    /// contribute at this operating point: the fold `0 + radio + ageing`
    /// of [`Self::surcharges`]. Always ≥ 0.
    #[must_use]
    pub fn extra_required_per_round(
        &self,
        temperature: Temperature,
        wheel: &Wheel,
        speed: Speed,
    ) -> Energy {
        let (radio, ageing) = self.surcharges(temperature, wheel, speed);
        Energy::ZERO + radio + ageing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_link_is_exactly_one_attempt() {
        let link = RadioLink::new(0.0, 8);
        assert_eq!(link.expected_attempts().to_bits(), 1.0f64.to_bits());
        assert_eq!(link.retransmission_energy_per_round(), Energy::ZERO);
    }

    #[test]
    fn expected_attempts_monotone_in_retries() {
        let mut last = 0.0;
        for retries in 0..=MAX_RADIO_RETRIES {
            let attempts = RadioLink::new(0.3, retries).expected_attempts();
            assert!(attempts >= last, "retries {retries}: {attempts} < {last}");
            last = attempts;
        }
        // Saturates toward the untruncated geometric mean 1/(1-p).
        assert!((last - 1.0 / 0.7).abs() < 1e-9);
    }

    #[test]
    fn delay_is_nonnegative_and_grows_with_loss() {
        let clean = RadioLink::new(0.0, 3).expected_delay();
        let noisy = RadioLink::new(0.5, 3).expected_delay();
        assert!(clean.secs() >= 0.0);
        assert!(noisy > clean);
    }

    #[test]
    fn retransmission_energy_amortizes_over_tx_period() {
        let every_round = RadioLink::new(0.2, 3).with_tx_period_rounds(1);
        let every_4 = RadioLink::new(0.2, 3).with_tx_period_rounds(4);
        let ratio = every_round.retransmission_energy_per_round().joules()
            / every_4.retransmission_energy_per_round().joules();
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_years_is_bit_identical_to_fresh() {
        let ageing = StorageAgeing::new(0.0);
        let t = Temperature::from_celsius(85.0);
        assert_eq!(
            ageing.aged_leakage(t).watts().to_bits(),
            ageing.fresh_leakage().watts().to_bits()
        );
        assert_eq!(
            ageing.extra_leakage_per_round(t, &Wheel::reference(), Speed::from_kmh(50.0)),
            Energy::ZERO
        );
    }

    #[test]
    fn aged_leakage_never_below_fresh() {
        let ageing = StorageAgeing::new(7.0);
        for celsius in [-40.0, -10.0, 25.0, 85.0, 125.0] {
            let t = Temperature::from_celsius(celsius);
            assert!(
                ageing.aged_leakage(t) >= ageing.fresh_leakage(),
                "at {celsius} °C"
            );
        }
    }

    #[test]
    fn slower_wheels_leak_more_per_round() {
        let ageing = StorageAgeing::new(5.0);
        let t = Temperature::from_celsius(45.0);
        let wheel = Wheel::reference();
        let slow = ageing.extra_leakage_per_round(t, &wheel, Speed::from_kmh(10.0));
        let fast = ageing.extra_leakage_per_round(t, &wheel, Speed::from_kmh(100.0));
        assert!(slow > fast);
    }

    #[test]
    fn extras_sum_both_axes() {
        let radio = RadioLink::new(0.2, 3);
        let ageing = StorageAgeing::new(5.0);
        let t = Temperature::from_celsius(45.0);
        let wheel = Wheel::reference();
        let v = Speed::from_kmh(60.0);
        let both = ScenarioExtras::none()
            .with_radio(radio.clone())
            .with_ageing(ageing.clone());
        let expected =
            radio.retransmission_energy_per_round() + ageing.extra_leakage_per_round(t, &wheel, v);
        assert_eq!(
            both.extra_required_per_round(t, &wheel, v)
                .joules()
                .to_bits(),
            expected.joules().to_bits()
        );
        assert!(ScenarioExtras::none().is_vacuous());
        assert!(!both.is_vacuous());
    }

    #[test]
    #[should_panic(expected = "loss probability must be in [0, 1)")]
    fn certain_loss_is_rejected() {
        let _ = RadioLink::new(1.0, 3);
    }

    #[test]
    #[should_panic(expected = "age must be in [0, 30] years")]
    fn negative_age_is_rejected() {
        let _ = StorageAgeing::new(-1.0);
    }
}
