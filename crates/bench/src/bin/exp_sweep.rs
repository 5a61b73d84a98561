//! EXP-SWEEP — the observability overhead guard. The balance sweep is the
//! hot path every tool shares; the profiling spans wrapping it
//! (`balance.sweep`, `sweep.batch`) must stay effectively free. This
//! harness times the same replicated sweep batch along four axes —
//! spans enabled vs disabled (`monityre_obs::set_enabled`), a trace
//! context installed vs not (`monityre_obs::install_context`), the
//! flight recorder on vs off (`monityre_obs::recorder::set_recording`),
//! and energy-ledger attribution on vs off (one
//! [`EnergyBalance::explain`] per batch, the shape the serve layer's
//! per-block gauges add) — verifies the spans actually reach the global
//! registry, and records each overhead in `BENCH_obs.json` (target:
//! < 2 % apiece).

use monityre_bench::{
    expect, expect_timing, header, parse_args, record_overheads, reference_scenario, secs,
    BenchRow, Pairing,
};
use monityre_core::{EnergyBalance, SweepExecutor};
use monityre_units::Speed;

/// Points per sweep batch (the canonical Fig. 2 grid).
const POINTS: usize = 196;
/// Replicated batches per timed pass. A pass must run tens of
/// milliseconds so the on/off comparison measures the spans, not the
/// timer noise of a sub-millisecond pass.
const BATCHES: usize = 1000;
/// On/off pairs per axis in the recording run.
const PAIRS: usize = 51;

fn main() {
    let options = parse_args();
    header("EXP-SWEEP", "sweep throughput with spans on vs off");

    let scenario = reference_scenario();
    let balance = EnergyBalance::new(&scenario).expect("scenario evaluates");
    let executor = SweepExecutor::serial();
    let total = POINTS * BATCHES;
    let run_pass = || {
        for _ in 0..BATCHES {
            let report = balance.sweep_with(
                Speed::from_kmh(5.0),
                Speed::from_kmh(200.0),
                POINTS,
                &executor,
            );
            assert!(report.break_even().is_some(), "curves must cross");
        }
    };

    // Functional pins first: one enabled pass must land spans in the
    // global registry, one disabled pass must record nothing.
    monityre_obs::set_enabled(true);
    let before = span_count("balance.sweep");
    run_pass();
    let recorded = span_count("balance.sweep") - before;
    monityre_obs::set_enabled(false);
    let base = span_count("balance.sweep");
    run_pass();
    let while_off = span_count("balance.sweep") - base;
    monityre_obs::set_enabled(true);

    // A loaded box drifts several percent over a run; pairing each on
    // pass with an off pass run next to it, alternating which goes
    // first, cancels the drift, and the median pair is the overhead.
    let pairs = if options.check { 3 } else { PAIRS };
    let rate = |pass: &dyn Fn()| total as f64 / secs(pass);
    let input = format!("{POINTS} pts x {BATCHES} batches, serial");
    let axis =
        |name: &str, layer: &str, what: &str, on: &dyn Fn() -> f64, off: &dyn Fn() -> f64| {
            BenchRow::paired(
                name,
                layer,
                &format!("{input}; {what}"),
                pairs,
                Pairing::OverheadPct,
                on,
                off,
            )
        };

    // Axis 1 — spans enabled (the shipped default) vs fully disabled.
    let spans = axis(
        "balance-sweep-spans",
        "obs.span",
        "spans on vs off",
        &|| {
            monityre_obs::set_enabled(true);
            rate(&run_pass)
        },
        &|| {
            monityre_obs::set_enabled(false);
            rate(&run_pass)
        },
    );
    monityre_obs::set_enabled(true);

    // Axis 2 — trace context installed (every span minting and linking
    // trace ids) vs the anonymous default, spans enabled throughout.
    let context = axis(
        "balance-sweep-context",
        "obs.context",
        "trace context installed vs not",
        &|| {
            let _ctx = monityre_obs::install_context(monityre_obs::TraceContext::root(0xbe));
            rate(&run_pass)
        },
        &|| rate(&run_pass),
    );

    // Axis 3 — flight-recorder rings on (the shipped default: every span
    // additionally writes one ring slot) vs off.
    let recorder = axis(
        "balance-sweep-recorder",
        "obs.recorder",
        "flight recorder on vs off",
        &|| {
            monityre_obs::recorder::set_recording(true);
            rate(&run_pass)
        },
        &|| {
            monityre_obs::recorder::set_recording(false);
            rate(&run_pass)
        },
    );
    monityre_obs::recorder::set_recording(true);

    // Axis 4 — ledger attribution on (each batch additionally explains
    // one operating point, the shape the serve layer's per-block gauges
    // add to a scrape interval) vs the plain sweep. The ledger is
    // pay-per-call, so this is the marginal cost of one conservation-
    // checked attribution per 196-point batch.
    let run_pass_with_ledger = || {
        for _ in 0..BATCHES {
            let report = balance.sweep_with(
                Speed::from_kmh(5.0),
                Speed::from_kmh(200.0),
                POINTS,
                &executor,
            );
            assert!(report.break_even().is_some(), "curves must cross");
            let ledger = balance
                .explain(Speed::from_kmh(60.0))
                .expect("reference scenario explains");
            assert!(ledger.conserved, "the ledger must conserve");
        }
    };
    let ledger = axis(
        "balance-sweep-ledger",
        "core.ledger",
        "one explain per batch vs none",
        &|| rate(&run_pass_with_ledger),
        &|| rate(&run_pass),
    );
    let rows = vec![context, ledger, recorder, spans];

    expect(
        options,
        "enabled spans reach the global registry",
        recorded >= BATCHES as u64,
    );
    expect(options, "disabled spans record nothing", while_off == 0);
    expect(
        options,
        "the flight recorder captured the sweep spans",
        monityre_obs::recorder::snapshot()
            .iter()
            .any(|r| r.name == "balance.sweep"),
    );

    if options.check {
        // Debug test builds race the rest of the suite for shared CPUs, so
        // the guard only screens out catastrophic (order-of-magnitude)
        // regressions and warns unless MONITYRE_BENCH_STRICT=1; the release
        // recording run enforces the budget (`record_overheads`).
        for row in &rows {
            expect_timing(
                options,
                &format!("{} is within the noise guard (< 50 %)", row.name),
                row.median < 50.0,
            );
        }
        return;
    }

    record_overheads("BENCH_obs.json", rows);
}

/// How many `name` spans the process-global registry has recorded so far.
fn span_count(name: &str) -> u64 {
    monityre_obs::Registry::global()
        .snapshot()
        .histograms
        .iter()
        .find(|h| h.name == name)
        .map_or(0, |h| h.count)
}
