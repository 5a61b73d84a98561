//! Whole-curve golden pins. The reference break-even pin only sees the
//! two samples around the crossing; these hash the bits of entire
//! curves, Monte Carlo draws, an optimizer report and the reports of the
//! evaluators built on the per-round energy (emulator, governor,
//! lifetime estimate, advisor, instant trace, flow), so any change that
//! reorders a float operation or an RNG draw anywhere on them — a
//! structure-of-arrays kernel, a fused multiply-add, a different draw
//! loop — fails here even when the crossing survives.
//!
//! Each constant is an FNV-1a 64 hash over little-endian `f64`/`u64`
//! bits (or report bytes). The curve, Monte Carlo and optimizer pins were
//! recorded before the allocation-free kernel landed; the evaluator pins
//! before `EvalCache` became the only evaluator. A mismatch means the
//! numbers moved: find out why before re-recording.

use monityre_core::{
    BreakEvenOptimizer, EmulationReport, EmulatorConfig, EnergyBalance, Flow, Governor,
    InstantTrace, LifetimeEstimator, MonteCarlo, OptimizationAdvisor, RadioLink, Scenario,
    ScenarioExtras, SelectionPolicy, StorageAgeing, SweepExecutor, TransientEmulator, UsagePattern,
    VariationModel,
};
use monityre_harvest::{IdealBattery, Supercap};
use monityre_node::NodeConfig;
use monityre_power::WorkingConditions;
use monityre_profile::{CompositeProfile, ExtraUrbanCycle, UrbanCycle, WltcLikeCycle};
use monityre_units::{Duration, Speed, Temperature};

/// FNV-1a 64 over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }
}

/// The hash of every sample of `sweep(lo, hi, steps)`: speed, generated
/// and required bits, in grid order.
fn curve_hash(scenario: &Scenario, lo_kmh: f64, hi_kmh: f64, steps: usize) -> u64 {
    let report = EnergyBalance::new(scenario)
        .expect("scenario builds")
        .sweep(Speed::from_kmh(lo_kmh), Speed::from_kmh(hi_kmh), steps);
    let mut hash = Fnv::new();
    for point in report.points() {
        hash.float(point.speed.mps());
        hash.float(point.generated.joules());
        hash.float(point.required.joules());
    }
    hash.0
}

/// Radio retransmission and storage ageing together, at the reference
/// temperature.
fn both_axes() -> Scenario {
    Scenario::builder()
        .extras(
            ScenarioExtras::none()
                .with_radio(RadioLink::new(0.2, 3))
                .with_ageing(StorageAgeing::new(6.0)),
        )
        .build()
}

/// A hot tyre, a node transmitting every round and aged storage.
fn hot_aged_dense_radio() -> Scenario {
    Scenario::builder()
        .config(NodeConfig::reference().with_tx_period_rounds(1))
        .conditions(
            WorkingConditions::reference().with_temperature(Temperature::from_celsius(85.0)),
        )
        .extras(ScenarioExtras::none().with_ageing(StorageAgeing::new(10.0)))
        .build()
}

/// Fails with both hashes in hex, so a re-recording reads them off.
fn assert_pinned(what: &str, actual: u64, pinned: u64) {
    assert!(
        actual == pinned,
        "{what}: hash {actual:#018x}, pinned {pinned:#018x}"
    );
}

#[test]
fn reference_fig2_curve_is_pinned() {
    assert_pinned(
        "reference 5-200 km/h x 196",
        curve_hash(&Scenario::reference(), 5.0, 200.0, 196),
        0x3c91_57f2_a944_534d,
    );
}

#[test]
fn axis_scenario_curves_are_pinned() {
    assert_pinned(
        "radio + ageing 5-200 km/h x 196",
        curve_hash(&both_axes(), 5.0, 200.0, 196),
        0x9011_594d_c4cf_bd54,
    );
    assert_pinned(
        "hot, dense radio, aged 5-200 km/h x 196",
        curve_hash(&hot_aged_dense_radio(), 5.0, 200.0, 196),
        0xe280_275c_4050_d71c,
    );
}

/// Above about 1390 km/h a reference wheel round (1.93 m) is shorter than
/// the DSP's fixed 5 ms kernel, and above about 8700 km/h shorter than
/// the radio's 0.8 ms burst, so `resolve` truncates the fixed spans: this
/// grid walks from the untruncated regime through both clipped ones.
#[test]
fn truncation_regime_curve_is_pinned() {
    assert_pinned(
        "reference 800-12000 km/h x 97",
        curve_hash(&Scenario::reference(), 800.0, 12000.0, 97),
        0xa704_d289_ba45_f717,
    );
}

#[test]
fn monte_carlo_draws_are_pinned() {
    let distribution = MonteCarlo::new(&Scenario::reference(), VariationModel::reference(), 42)
        .break_even_distribution(64)
        .expect("reference draws cross");
    let mut hash = Fnv::new();
    for sample in distribution.samples() {
        hash.float(sample.mps());
    }
    hash.word(distribution.never_crossed() as u64);
    assert_pinned("Monte Carlo seed 42 x 64", hash.0, 0xe5e8_b29b_3e91_2f95);
}

#[test]
fn reference_optimize_report_is_pinned() {
    let report = BreakEvenOptimizer::new(&Scenario::reference())
        .search(
            Speed::from_kmh(5.0),
            Speed::from_kmh(200.0),
            48,
            &SweepExecutor::serial(),
            &|| false,
        )
        .expect("reference search evaluates")
        .expect("a never-cancelled search completes");
    let json = serde_json::to_string(&report).expect("report serializes");
    let mut hash = Fnv::new();
    hash.bytes(json.as_bytes());
    assert_pinned(
        "reference OptimizeReport JSON",
        hash.0,
        0xc91c_11b3_4712_6739,
    );
}

/// Every sample, window and total of an emulation report.
fn emulation_hash(report: &EmulationReport) -> u64 {
    let mut hash = Fnv::new();
    for s in &report.samples {
        hash.float(s.time.secs());
        hash.float(s.speed.mps());
        hash.float(s.soc);
        hash.word(u64::from(s.active));
        hash.float(s.tyre_temperature.kelvin());
        hash.float(s.node_power.watts());
    }
    for w in &report.windows {
        hash.float(w.start.secs());
        hash.float(w.end.secs());
    }
    hash.float(report.harvested.joules());
    hash.float(report.consumed.joules());
    hash.float(report.spilled.joules());
    hash.word(u64::from(report.brownouts));
    hash.float(report.span.secs());
    hash.0
}

#[test]
fn urban_cycle_emulation_is_pinned() {
    let report = TransientEmulator::new(&Scenario::reference(), EmulatorConfig::new())
        .expect("reference emulator configures")
        .run(&UrbanCycle::new(), &mut Supercap::reference());
    assert_pinned(
        "UrbanCycle emulation, reference supercap",
        emulation_hash(&report),
        0xcec5_98eb_0c79_3c39,
    );
}

#[test]
fn governed_wltc_is_pinned() {
    let report = Governor::reference_ladder(&Scenario::reference())
        .run(&WltcLikeCycle::new(), &mut Supercap::reference())
        .expect("reference ladder runs");
    let mut hash = Fnv::new();
    for t in &report.level_time {
        hash.float(t.secs());
    }
    hash.float(report.samples_acquired);
    hash.float(report.harvested.joules());
    hash.float(report.consumed.joules());
    hash.word(u64::from(report.switches));
    hash.float(report.span.secs());
    assert_pinned(
        "reference ladder on WLTC-like",
        hash.0,
        0xc2fe_75ff_11fa_8248,
    );
}

#[test]
fn commuter_lifetime_is_pinned() {
    let estimator = LifetimeEstimator::new(&Scenario::reference()).expect("reference evaluates");
    let mut hash = Fnv::new();
    for battery in [IdealBattery::coin_cell(), IdealBattery::coin_cell_in_tyre()] {
        let report = estimator
            .compare(UsagePattern::commuter(), battery)
            .expect("commuter pattern is valid");
        hash.float(report.daily_consumption.joules());
        hash.float(report.daily_harvest.joules());
        hash.float(report.battery_days);
        hash.float(report.tyre_days);
        hash.word(u64::from(report.battery_outlives_tyre));
        hash.word(u64::from(report.scavenger_sustains));
    }
    assert_pinned(
        "commuter lifetime, both cells",
        hash.0,
        0x1689_86bc_a4bf_fa5b,
    );
}

#[test]
fn advisor_optimizations_are_pinned() {
    let advisor = OptimizationAdvisor::new(&Scenario::reference(), Speed::from_kmh(30.0))
        .expect("reference evaluates");
    for (policy, pinned) in [
        (SelectionPolicy::DutyCycleAware, 0xb837_bae5_9111_6c58),
        (SelectionPolicy::PowerFigures, 0x62f9_80a6_8a0d_c5df),
    ] {
        let outcome = advisor.optimize(policy).expect("reference optimizes");
        let mut hash = Fnv::new();
        for rec in &outcome.recommendations {
            hash.bytes(rec.block.as_bytes());
            for technique in &rec.techniques {
                hash.bytes(technique.id().as_bytes());
            }
            hash.bytes(rec.rationale.as_bytes());
        }
        hash.float(outcome.energy_before.joules());
        hash.float(outcome.energy_after.joules());
        assert_pinned(&format!("advisor {policy:?} @30 km/h"), hash.0, pinned);
    }
}

#[test]
fn instant_trace_is_pinned() {
    let trace = InstantTrace::generate(
        &Scenario::reference(),
        Speed::from_kmh(60.0),
        Duration::from_millis(500.0),
        Duration::from_micros(100.0),
    )
    .expect("60 km/h traces");
    let mut hash = Fnv::new();
    for name in trace.block_names() {
        hash.bytes(name.as_bytes());
    }
    for s in trace.samples() {
        hash.float(s.time.secs());
        hash.float(s.total.watts());
        for p in &s.per_block {
            hash.float(p.watts());
        }
    }
    hash.float(trace.round_period().secs());
    assert_pinned(
        "instant trace 60 km/h, 500 ms / 100 us",
        hash.0,
        0xdaab_dc7b_7bb8_9d80,
    );
}

/// The `flow` command's pipeline: design speed 30 km/h, urban then
/// extra-urban cycle.
#[test]
fn flow_summary_is_pinned() {
    let profile = CompositeProfile::new(vec![
        Box::new(UrbanCycle::new()),
        Box::new(ExtraUrbanCycle::new()),
    ]);
    let report = Flow::new(
        &Scenario::reference(),
        Speed::from_kmh(30.0),
        SelectionPolicy::DutyCycleAware,
    )
    .run(&profile)
    .expect("reference flow runs");
    let mut hash = Fnv::new();
    hash.bytes(report.summary().as_bytes());
    assert_pinned("reference flow summary", hash.0, 0x2dd0_000b_c1a1_4b53);
}
