//! Shared helpers for the experiment harnesses and Criterion benches.
//!
//! Each paper figure and each ablation experiment has a binary in
//! `src/bin/` that prints its series as CSV rows plus an ASCII chart;
//! every binary supports `--check`, which runs the experiment and asserts
//! its expected qualitative shape instead of printing — the integration
//! tests drive that mode.
//!
//! Sweep-shaped harnesses additionally time their batch serial vs
//! parallel and record the throughput in `BENCH_sweep.json` at the
//! repository root (skipped in `--check` mode so concurrent test runs
//! never race on the file).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::Instant;

use monityre_core::{Scenario, SweepExecutor};
use monityre_harvest::HarvestChain;
use monityre_node::Architecture;
use monityre_power::WorkingConditions;
use serde::{Deserialize, Serialize};

/// Parsed harness options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HarnessOptions {
    /// Assert the expected shape instead of printing series.
    pub check: bool,
    /// Run a scaled-down pass that still exercises the full pipeline
    /// (including BENCH file writes) and asserts the recorded schema —
    /// what CI runs to validate a harness end to end without paying for
    /// full-size measurements.
    pub smoke: bool,
}

/// Parses harness CLI arguments (`--check` and `--smoke`).
///
/// # Panics
///
/// Panics (with usage) on unknown arguments.
#[must_use]
pub fn parse_args() -> HarnessOptions {
    let mut options = HarnessOptions::default();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => options.check = true,
            "--smoke" => options.smoke = true,
            other => panic!("unknown argument `{other}` (supported: --check, --smoke)"),
        }
    }
    options
}

/// The standard experiment fixture: reference architecture, conditions and
/// harvesting chain.
#[must_use]
pub fn reference_fixture() -> (Architecture, WorkingConditions, HarvestChain) {
    (
        Architecture::reference(),
        WorkingConditions::reference(),
        HarvestChain::reference(),
    )
}

/// The standard evaluation session every sweep-shaped harness starts from.
#[must_use]
pub fn reference_scenario() -> Scenario {
    Scenario::reference()
}

/// Prints the standard experiment header.
pub fn header(id: &str, title: &str) {
    println!("# {id}: {title}");
    println!("# monityre — DATE 2011 reproduction");
    println!();
}

/// Prints (or swallows in check mode) a labelled pass/fail assertion and
/// panics on failure so `--check` mode surfaces regressions.
///
/// # Panics
///
/// Panics when `condition` is false.
pub fn expect(options: HarnessOptions, what: &str, condition: bool) {
    assert!(condition, "expectation failed: {what}");
    if options.check || options.smoke {
        println!("ok: {what}");
    }
}

/// A wall-clock guard: [`expect`] when it holds or when
/// [`BENCH_STRICT_ENV_VAR`] is `1`, otherwise only a warning — one timing
/// sample on a loaded, shared runner is too noisy to fail a test run on.
///
/// # Panics
///
/// Panics when `condition` is false under [`BENCH_STRICT_ENV_VAR`]`=1`.
pub fn expect_timing(options: HarnessOptions, what: &str, condition: bool) {
    if condition || bench_strict() {
        expect(options, what, condition);
    } else {
        eprintln!(
            "warning: timing expectation failed: {what} \
             ({BENCH_STRICT_ENV_VAR}=1 turns this warning into a failure)"
        );
    }
}

/// The worker count sweep benchmarks report against.
pub const BENCH_THREADS: usize = 4;

/// One throughput row of `BENCH_sweep.json`: the same sweep batch timed
/// serially and on [`BENCH_THREADS`] workers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepBenchResult {
    /// Which harness/batch was measured (the merge key).
    pub name: String,
    /// Batch size in sweep points (or Monte Carlo draws).
    pub points: usize,
    /// How many independent copies of the batch one timed executor pass
    /// evaluates. Throughput covers `points × batches`; values above one
    /// measure sustained throughput (worker startup amortized over the
    /// pass) rather than single-batch latency.
    pub batches: usize,
    /// Worker threads used for the parallel measurement.
    pub threads: usize,
    /// Hardware threads available when the row was measured. Speedup is
    /// bounded by this: a 1-CPU container measures ≈ 1x however many
    /// workers run, so read `speedup` against `cpus`, not `threads`.
    pub cpus: usize,
    /// Serial throughput in points per second.
    pub serial_points_per_sec: f64,
    /// Parallel throughput in points per second.
    pub parallel_points_per_sec: f64,
    /// `parallel_points_per_sec / serial_points_per_sec`.
    pub speedup: f64,
}

/// Times `run` (best of `reps` runs) and returns points per second.
///
/// # Panics
///
/// Panics if `reps` is zero or the measured time is not positive.
#[must_use]
pub fn points_per_sec<F: FnMut()>(points: usize, reps: usize, mut run: F) -> f64 {
    assert!(reps >= 1, "need at least one timing rep");
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    assert!(best > 0.0, "timed batch finished in zero time");
    points as f64 / best
}

/// Repeats an on/off throughput measurement up to `rounds` times and
/// keeps the round with the smallest *absolute* overhead, stopping early
/// once it drops inside `±target_pct`. Scheduling noise between the two
/// passes of a round skews the apparent overhead either way; the round
/// nearest zero is the least polluted one, and a real regression keeps
/// every round above the target so it still fails.
///
/// Returns `(on, off, overhead_pct)` where `overhead_pct` is
/// `(off - on) / off * 100`.
///
/// # Panics
///
/// Panics if `rounds` is zero or a pass reports non-positive throughput.
#[must_use]
pub fn best_overhead<F: FnMut() -> (f64, f64)>(
    rounds: usize,
    target_pct: f64,
    mut measure: F,
) -> (f64, f64, f64) {
    assert!(rounds >= 1, "need at least one measurement round");
    let mut best = (0.0, 0.0, f64::INFINITY);
    for _ in 0..rounds {
        let (on, off) = measure();
        assert!(on > 0.0 && off > 0.0, "passes must make progress");
        let pct = (off - on) / off * 100.0;
        if pct.abs() < best.2.abs() {
            best = (on, off, pct);
        }
        if best.2.abs() < target_pct {
            break;
        }
    }
    best
}

/// Measures one named sweep batch serially and on [`BENCH_THREADS`]
/// workers, returning the comparison row. `run` receives the executor and
/// must evaluate `points × batches` sweep points in one executor pass;
/// pass `batches > 1` (a replicated batch) to measure sustained
/// throughput with worker startup amortized over the pass.
#[must_use]
pub fn measure_sweep<F: FnMut(&SweepExecutor)>(
    name: &str,
    points: usize,
    batches: usize,
    reps: usize,
    mut run: F,
) -> SweepBenchResult {
    let total = points * batches;
    let serial = points_per_sec(total, reps, || run(&SweepExecutor::serial()));
    let executor = SweepExecutor::new(BENCH_THREADS);
    let parallel = points_per_sec(total, reps, || run(&executor));
    SweepBenchResult {
        name: name.to_owned(),
        points,
        batches,
        threads: BENCH_THREADS,
        cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        serial_points_per_sec: serial,
        parallel_points_per_sec: parallel,
        speedup: parallel / serial,
    }
}

/// One row of a `BENCH_*.json` file at the repository root. Every file
/// holds a JSON array of one row type, sorted by name.
pub trait BenchRow: Serialize + Deserialize {
    /// The file name, e.g. `BENCH_sweep.json`.
    const FILE: &'static str;

    /// The merge key: a recorded row replaces the stored row of the same
    /// name.
    fn name(&self) -> &str;

    /// The one-line summary printed when the row is recorded.
    fn summary(&self) -> String;

    /// A timing floor the row breaks, if any (see [`record_bench`]).
    fn floor_violation(&self) -> Option<String> {
        None
    }
}

/// Where `R`'s rows live: its file at the repository root.
#[must_use]
pub fn bench_path<R: BenchRow>() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join(R::FILE)
}

/// Merges `row` into its BENCH file, replacing any existing row with the
/// same name, and prints its one-line summary.
///
/// # Panics
///
/// Panics when the file cannot be read, parsed or written — a harness
/// misconfiguration worth failing loudly on — and, only when
/// [`BENCH_STRICT_ENV_VAR`] is `1`, when the row breaks its timing floor
/// ([`BenchRow::floor_violation`]). By default the floor only warns: a
/// single wall-clock sample on a loaded or throttled 1-CPU runner is too
/// noisy to fail a whole job on.
pub fn record_bench<R: BenchRow>(row: R) {
    if let Some(message) = row.floor_violation() {
        if bench_strict() {
            panic!("{message}");
        }
        eprintln!("warning: {message}");
    }
    let path = bench_path::<R>();
    let mut rows: Vec<R> = match std::fs::read_to_string(&path) {
        Ok(text) => {
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{} parses: {e}", R::FILE))
        }
        Err(_) => Vec::new(),
    };
    println!("bench {}: {}", row.name(), row.summary());
    match rows.iter_mut().find(|stored| stored.name() == row.name()) {
        Some(stored) => *stored = row,
        None => rows.push(row),
    }
    rows.sort_by(|a, b| a.name().cmp(b.name()));
    let text = serde_json::to_string_pretty(&rows).expect("rows serialize");
    std::fs::write(&path, text + "\n").unwrap_or_else(|e| panic!("{} writes: {e}", R::FILE));
}

/// The 1-CPU floor check: on a single CPU a parallel pass cannot beat
/// serial, but it should not lose to it either — the worker pool's only
/// legitimate cost there is handoff overhead, budgeted at 10 %. Returns
/// the violation message when a 1-CPU row falls below the floor.
/// (Multi-CPU speedups stay unchecked — recording runs share the machine
/// with the rest of the suite, and contention would make any floor
/// flaky.)
#[must_use]
pub fn one_cpu_floor_violation(result: &SweepBenchResult) -> Option<String> {
    (result.cpus == 1 && result.speedup < 0.9).then(|| {
        format!(
            "bench {}: {:.2}x on 1 cpu — worker handoff overhead exceeds the 10 % budget \
             ({BENCH_STRICT_ENV_VAR}=1 turns this warning into a failure)",
            result.name, result.speedup
        )
    })
}

/// Env var that turns timing-floor warnings (the 1-CPU sweep floor,
/// [`expect_timing`] guards) into hard failures.
pub const BENCH_STRICT_ENV_VAR: &str = "MONITYRE_BENCH_STRICT";

/// Whether [`BENCH_STRICT_ENV_VAR`] is `1`.
fn bench_strict() -> bool {
    std::env::var(BENCH_STRICT_ENV_VAR).is_ok_and(|v| v == "1")
}

impl BenchRow for SweepBenchResult {
    const FILE: &'static str = "BENCH_sweep.json";

    fn name(&self) -> &str {
        &self.name
    }

    fn summary(&self) -> String {
        format!(
            "{} points x {} batches, serial {:.0} pts/s, {} threads {:.0} pts/s ({:.2}x on {} cpu(s))",
            self.points,
            self.batches,
            self.serial_points_per_sec,
            self.threads,
            self.parallel_points_per_sec,
            self.speedup,
            self.cpus
        )
    }

    fn floor_violation(&self) -> Option<String> {
        one_cpu_floor_violation(self)
    }
}

/// One throughput row of `BENCH_serve.json`: concurrent loopback clients
/// driving the batch evaluation server in lockstep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBenchResult {
    /// Which serving scenario was measured (the merge key).
    pub name: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each client sends — the measured pass serves
    /// `clients × batches` requests in total.
    pub batches: usize,
    /// Server concurrent-evaluation limit (`ServerConfig::workers`)
    /// during the measurement.
    pub workers: usize,
    /// Hardware threads available when the row was measured. Loopback
    /// throughput is bounded by this: client threads, connection
    /// handlers and workers all share the same CPUs.
    pub cpus: usize,
    /// End-to-end served requests per second across all clients.
    pub requests_per_sec: f64,
    /// Median per-request service time reported by the server (ms).
    pub p50_ms: f64,
    /// 99th-percentile per-request service time reported by the server
    /// (ms).
    pub p99_ms: f64,
}

impl BenchRow for ServeBenchResult {
    const FILE: &'static str = "BENCH_serve.json";

    fn name(&self) -> &str {
        &self.name
    }

    fn summary(&self) -> String {
        format!(
            "{} client(s) x {} request(s) on {} worker(s), {:.0} req/s (p50 {:.2} ms, p99 {:.2} ms, {} cpu(s))",
            self.clients,
            self.batches,
            self.workers,
            self.requests_per_sec,
            self.p50_ms,
            self.p99_ms,
            self.cpus
        )
    }
}

/// One row of `BENCH_faults.json`: the same loopback batch served clean
/// and under an armed fault plan through the retrying client, to price
/// the cost of resilience (retries, dedup replays) in throughput.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultsBenchResult {
    /// Which chaos scenario was measured (the merge key).
    pub name: String,
    /// The armed fault spec (`<seed>:<kind=p,...>`) of the faulty pass.
    pub plan: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each client sends — `clients × batches` per pass.
    pub batches: usize,
    /// Server concurrent-evaluation limit (`ServerConfig::workers`)
    /// during the measurement.
    pub workers: usize,
    /// Hardware threads available when the row was measured.
    pub cpus: usize,
    /// Served requests per second with the fault hooks inert.
    pub clean_requests_per_sec: f64,
    /// Served requests per second with the plan armed (same client).
    pub faulty_requests_per_sec: f64,
    /// Faults the plan fired during the faulty pass.
    pub faults_injected: u64,
    /// Retries the clients performed during the faulty pass.
    pub retries: u64,
    /// Idempotent replays the server answered from the dedup map.
    pub dedup_hits: u64,
}

impl BenchRow for FaultsBenchResult {
    const FILE: &'static str = "BENCH_faults.json";

    fn name(&self) -> &str {
        &self.name
    }

    fn summary(&self) -> String {
        format!(
            "plan `{}`, clean {:.0} req/s, faulty {:.0} req/s ({} fault(s), {} retr(ies), {} replay(s), {} cpu(s))",
            self.plan,
            self.clean_requests_per_sec,
            self.faulty_requests_per_sec,
            self.faults_injected,
            self.retries,
            self.dedup_hits,
            self.cpus
        )
    }
}

/// One row of `BENCH_sheet.json`: the synthetic layered workbook timed
/// on the compiled recalculation engine — full rebuild vs incremental
/// edit vs value cutoff — on the calling thread.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SheetBenchResult {
    /// Which recalculation scenario was measured (the merge key).
    pub name: String,
    /// Total cells in the workbook (literals + formulas).
    pub cells: usize,
    /// Formula cells one full rebuild recomputes.
    pub formulas: usize,
    /// Incremental literal edits per timed pass.
    pub edits: usize,
    /// Full rebuilds one timed pass performs.
    pub batches: usize,
    /// Hardware threads available when the row was measured.
    pub cpus: usize,
    /// Full-rebuild throughput in formula cells per second.
    pub full_cells_per_sec: f64,
    /// Incremental single-literal edits per second (each propagating
    /// through the dirty cone only).
    pub incremental_edits_per_sec: f64,
    /// How many incremental edits fit in the time of one full rebuild:
    /// `incremental_edits_per_sec / (full_cells_per_sec / formulas)`.
    pub incremental_speedup: f64,
    /// Dependent cells the value cutoff stopped from recomputing during
    /// the incremental pass (bit-equal saturated clamps).
    pub cutoff_cut_cells: u64,
}

impl BenchRow for SheetBenchResult {
    const FILE: &'static str = "BENCH_sheet.json";

    fn name(&self) -> &str {
        &self.name
    }

    fn summary(&self) -> String {
        format!(
            "{} cells ({} formulas), full {:.0} cells/s ({} cpu(s)), incremental {:.0} edits/s ({:.0}x a rebuild), {} cut",
            self.cells,
            self.formulas,
            self.full_cells_per_sec,
            self.cpus,
            self.incremental_edits_per_sec,
            self.incremental_speedup,
            self.cutoff_cut_cells
        )
    }
}

/// One row of `BENCH_ingest.json`: the streaming-ingest pipeline timed
/// on a synthetic telemetry stream — durable append alone (aggregation
/// off), the full append + window-fold pipeline (aggregation on), and
/// the startup replay that reconstructs the window state after a crash.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestBenchResult {
    /// Which ingest scenario was measured (the merge key).
    pub name: String,
    /// Telemetry points per timed pass.
    pub points: usize,
    /// Points per ingested batch (each batch is one append + one fsync).
    pub batch: usize,
    /// Vehicles the stream interleaves.
    pub vehicles: usize,
    /// Hardware threads available when the row was measured.
    pub cpus: usize,
    /// Durable append throughput with the window fold skipped
    /// (aggregation off: `SegmentStore::append_batch` only).
    pub store_points_per_sec: f64,
    /// Full-pipeline throughput (aggregation on: append + sliding-window
    /// fold + deficit-edge detection).
    pub pipeline_points_per_sec: f64,
    /// `(store - pipeline) / store × 100` — what the windowed
    /// aggregation costs on top of durability.
    pub aggregation_overhead_pct: f64,
    /// Startup-replay throughput: decoded, checksummed and folded points
    /// per second when reopening the segment directory.
    pub replay_points_per_sec: f64,
    /// Recovery time normalized to a million-point backlog:
    /// `1e9 / replay_points_per_sec` milliseconds.
    pub replay_ms_per_million: f64,
}

impl BenchRow for IngestBenchResult {
    const FILE: &'static str = "BENCH_ingest.json";

    fn name(&self) -> &str {
        &self.name
    }

    fn summary(&self) -> String {
        format!(
            "{} points in batches of {}, store {:.0} pts/s, pipeline {:.0} pts/s ({:+.2} % aggregation), replay {:.0} pts/s ({:.0} ms per million points, {} cpu(s))",
            self.points,
            self.batch,
            self.store_points_per_sec,
            self.pipeline_points_per_sec,
            self.aggregation_overhead_pct,
            self.replay_points_per_sec,
            self.replay_ms_per_million,
            self.cpus
        )
    }
}

/// One row of `BENCH_obs.json`: the same sweep batch timed with the
/// observability spans enabled (the default) and disabled
/// (`monityre_obs::set_enabled(false)`), to guard the instrumentation
/// overhead budget (< 2 %).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsBenchResult {
    /// Which batch was measured (the merge key).
    pub name: String,
    /// Batch size in sweep points.
    pub points: usize,
    /// Independent copies of the batch per timed pass.
    pub batches: usize,
    /// Hardware threads available when the row was measured.
    pub cpus: usize,
    /// Throughput with spans recording into the global registry.
    pub enabled_points_per_sec: f64,
    /// Throughput with spans disabled (inert guards).
    pub disabled_points_per_sec: f64,
    /// `(disabled - enabled) / disabled × 100` — the cost of leaving the
    /// instrumentation on, as a percentage of disabled throughput.
    pub overhead_pct: f64,
}

impl BenchRow for ObsBenchResult {
    const FILE: &'static str = "BENCH_obs.json";

    fn name(&self) -> &str {
        &self.name
    }

    fn summary(&self) -> String {
        format!(
            "{} points x {} batches, spans on {:.0} pts/s, off {:.0} pts/s ({:+.2} % overhead on {} cpu(s))",
            self.points,
            self.batches,
            self.enabled_points_per_sec,
            self.disabled_points_per_sec,
            self.overhead_pct,
            self.cpus
        )
    }
}

/// One row of `BENCH_fleet.json`: the deterministic fleet workload
/// generator streamed end to end at a loopback server — generation +
/// wire + window fold as one number — plus the `optimize` break-even
/// search timed as candidate sweeps per second.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetBenchResult {
    /// Which fleet scenario was measured (the merge key).
    pub name: String,
    /// Vehicles in the streamed fleet.
    pub vehicles: usize,
    /// Telemetry samples per tyre node.
    pub rounds: usize,
    /// Total telemetry points streamed.
    pub points: usize,
    /// Worker threads fanning vehicles out.
    pub threads: usize,
    /// Hardware threads available when the row was measured.
    pub cpus: usize,
    /// End-to-end fleet throughput: vehicles fully processed (streamed +
    /// break-even served) per second.
    pub vehicles_per_sec: f64,
    /// End-to-end telemetry throughput over the wire, points per second.
    pub points_per_sec: f64,
    /// Optimize-search throughput: candidate configurations evaluated
    /// per second during one served `optimize` op.
    pub optimize_candidates_per_sec: f64,
}

impl BenchRow for FleetBenchResult {
    const FILE: &'static str = "BENCH_fleet.json";

    fn name(&self) -> &str {
        &self.name
    }

    fn summary(&self) -> String {
        format!(
            "{} vehicle(s) x {} round(s) = {} point(s), {:.1} vehicles/s, {:.0} pts/s over the wire, optimize {:.0} candidates/s ({} thread(s), {} cpu(s))",
            self.vehicles,
            self.rounds,
            self.points,
            self.vehicles_per_sec,
            self.points_per_sec,
            self.optimize_candidates_per_sec,
            self.threads,
            self.cpus
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_consistent() {
        let (arch, _, chain) = reference_fixture();
        assert_eq!(chain.wheel(), reference_scenario().wheel());
        assert_eq!(arch.len(), 6);
    }

    #[test]
    fn scenario_matches_fixture() {
        let scenario = reference_scenario();
        assert_eq!(scenario.architecture().len(), 6);
        assert_eq!(scenario.wheel(), scenario.chain().wheel());
    }

    #[test]
    #[should_panic(expected = "expectation failed")]
    fn expect_panics_on_failure() {
        expect(HarnessOptions::default(), "impossible", false);
    }

    #[test]
    fn expect_timing_fails_only_under_strict() {
        let outcome = std::panic::catch_unwind(|| {
            expect_timing(HarnessOptions::default(), "noisy ratio", false);
        });
        assert_eq!(outcome.is_err(), bench_strict());
        expect_timing(HarnessOptions::default(), "holding guard", true);
    }

    #[test]
    fn measure_sweep_reports_throughput() {
        let result = measure_sweep("unit-test", 64, 2, 2, |executor| {
            let items: Vec<u64> = (0..128).collect();
            let _ = executor.map(&items, |_, &x| x.wrapping_mul(3));
        });
        assert_eq!(result.points, 64);
        assert_eq!(result.batches, 2);
        assert_eq!(result.threads, BENCH_THREADS);
        assert!(result.cpus >= 1);
        assert!(result.serial_points_per_sec > 0.0);
        assert!(result.parallel_points_per_sec > 0.0);
        assert!(result.speedup > 0.0);
    }

    #[test]
    fn bench_rows_round_trip() {
        let row = SweepBenchResult {
            name: "round-trip".into(),
            points: 196,
            batches: 64,
            threads: 4,
            cpus: 4,
            serial_points_per_sec: 1000.0,
            parallel_points_per_sec: 2500.0,
            speedup: 2.5,
        };
        let json = serde_json::to_string(&vec![row]).unwrap();
        let back: Vec<SweepBenchResult> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].name, "round-trip");
        assert_eq!(back[0].points, 196);
    }

    #[test]
    fn sheet_bench_rows_round_trip() {
        let row = SheetBenchResult {
            name: "sheet-round-trip".into(),
            cells: 1536,
            formulas: 1280,
            edits: 64,
            batches: 2,
            cpus: 4,
            full_cells_per_sec: 1_000_000.0,
            incremental_edits_per_sec: 40_000.0,
            incremental_speedup: 51.2,
            cutoff_cut_cells: 8192,
        };
        let json = serde_json::to_string(&vec![row]).unwrap();
        let back: Vec<SheetBenchResult> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].name, "sheet-round-trip");
        assert_eq!(back[0].formulas, 1280);
        assert_eq!(back[0].cutoff_cut_cells, 8192);
        assert!(back[0].incremental_speedup > 10.0);
    }

    #[test]
    fn ingest_bench_rows_round_trip() {
        let row = IngestBenchResult {
            name: "ingest-round-trip".into(),
            points: 200_000,
            batch: 512,
            vehicles: 8,
            cpus: 4,
            store_points_per_sec: 2_000_000.0,
            pipeline_points_per_sec: 1_600_000.0,
            aggregation_overhead_pct: 20.0,
            replay_points_per_sec: 4_000_000.0,
            replay_ms_per_million: 250.0,
        };
        let json = serde_json::to_string(&vec![row]).unwrap();
        let back: Vec<IngestBenchResult> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].name, "ingest-round-trip");
        assert_eq!(back[0].batch, 512);
        assert!(back[0].replay_ms_per_million > 0.0);
    }

    /// The 1-CPU guard: a parallel pass that loses more than 10 % to
    /// serial on a single CPU is flagged (warning by default, hard
    /// failure under `MONITYRE_BENCH_STRICT=1`); multi-CPU rows and rows
    /// inside the budget pass silently.
    #[test]
    fn one_cpu_floor_violation_flags_1cpu_slowdowns() {
        let mut row = SweepBenchResult {
            name: "unit-guard".into(),
            points: 1,
            batches: 1,
            threads: BENCH_THREADS,
            cpus: 1,
            serial_points_per_sec: 1000.0,
            parallel_points_per_sec: 500.0,
            speedup: 0.5,
        };
        let message = one_cpu_floor_violation(&row).expect("0.5x on 1 cpu violates the floor");
        assert!(message.contains("worker handoff overhead"), "{message}");
        // CI logs must be self-explaining: the message itself names the
        // env var that escalates the warning, so the strict-mode panic
        // (which prints the bare message) names it too.
        assert!(message.contains("MONITYRE_BENCH_STRICT=1"), "{message}");
        row.speedup = 0.95;
        assert!(one_cpu_floor_violation(&row).is_none(), "within budget");
        row.speedup = 0.5;
        row.cpus = 4;
        assert!(
            one_cpu_floor_violation(&row).is_none(),
            "multi-CPU unchecked"
        );
    }

    #[test]
    fn obs_bench_rows_round_trip() {
        let row = ObsBenchResult {
            name: "obs-round-trip".into(),
            points: 196,
            batches: 32,
            cpus: 4,
            enabled_points_per_sec: 9900.0,
            disabled_points_per_sec: 10000.0,
            overhead_pct: 1.0,
        };
        let json = serde_json::to_string(&vec![row]).unwrap();
        let back: Vec<ObsBenchResult> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].name, "obs-round-trip");
        assert!((back[0].overhead_pct - 1.0).abs() < 1e-12);
    }

    #[test]
    fn faults_bench_rows_round_trip() {
        let row = FaultsBenchResult {
            name: "faults-round-trip".into(),
            plan: "2011:conn_reset=0.25".into(),
            clients: 4,
            batches: 48,
            workers: 2,
            cpus: 4,
            clean_requests_per_sec: 900.0,
            faulty_requests_per_sec: 600.0,
            faults_injected: 37,
            retries: 41,
            dedup_hits: 12,
        };
        let json = serde_json::to_string(&vec![row]).unwrap();
        let back: Vec<FaultsBenchResult> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].name, "faults-round-trip");
        assert_eq!(back[0].faults_injected, 37);
        assert!(back[0].clean_requests_per_sec > back[0].faulty_requests_per_sec);
    }

    #[test]
    fn serve_bench_rows_round_trip() {
        let row = ServeBenchResult {
            name: "serve-round-trip".into(),
            clients: 4,
            batches: 64,
            workers: 2,
            cpus: 4,
            requests_per_sec: 1234.5,
            p50_ms: 0.8,
            p99_ms: 2.5,
        };
        let json = serde_json::to_string(&vec![row]).unwrap();
        let back: Vec<ServeBenchResult> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].name, "serve-round-trip");
        assert_eq!(back[0].batches, 64);
        assert!(back[0].requests_per_sec > 0.0);
    }
}
