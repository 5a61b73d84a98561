//! Shared helpers for the experiment harnesses and Criterion benches.
//!
//! Each paper figure and each ablation experiment has a binary in
//! `src/bin/` that prints its series as CSV rows plus an ASCII chart;
//! every binary supports `--check`, which runs the experiment and asserts
//! its expected qualitative shape instead of printing — the integration
//! tests drive that mode.
//!
//! Harnesses that time something record [`BenchRow`]s — a median and a
//! p10–p90 spread over several samples — into a `BENCH_*.json` file at
//! the repository root (skipped in `--check` mode so concurrent test runs
//! never race on the files).

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::time::Instant;

use monityre_core::Scenario;
use monityre_harvest::HarvestChain;
use monityre_node::Architecture;
use monityre_power::WorkingConditions;
use serde::{Deserialize, Serialize};

/// Parsed harness options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HarnessOptions {
    /// Assert the expected shape instead of printing series.
    pub check: bool,
}

/// Parses harness CLI arguments (`--check`).
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
            other => panic!("unknown argument `{other}` (supported: --check)"),
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
    if options.check {
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

/// The layer of the parallel-over-serial sweep rows, the rows the 1-CPU
/// floor applies to (see [`one_cpu_floor_violation`]).
pub const EXECUTOR_LAYER: &str = "core.executor";

/// One row of a `BENCH_*.json` file at the repository root: a measured
/// quantity summarized over `samples` samples. Every file holds a JSON
/// array of rows, sorted by name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRow {
    /// What was measured (the merge key).
    pub name: String,
    /// The layer the quantity belongs to, e.g. `core.executor`.
    pub layer: String,
    /// The unit of `median`, `p10` and `p90`: a rate such as
    /// `points/s`, `x` for a ratio, `%` for an overhead, `count`.
    pub unit: String,
    /// The measured input's shape, e.g. `196 pts x 64 batches, 4 threads`.
    pub input: String,
    /// How many samples (or pairs) the row summarizes.
    pub samples: usize,
    /// The median sample.
    pub median: f64,
    /// The 10th-percentile sample.
    pub p10: f64,
    /// The 90th-percentile sample.
    pub p90: f64,
    /// Hardware threads available when the row was measured: read any
    /// parallel speedup against this, not against the worker count.
    pub cpus: usize,
}

/// How [`BenchRow::paired`] turns one pair of rates `(a, b)` into a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pairing {
    /// `a / b`, unit `x` (e.g. a parallel speedup over serial).
    Ratio,
    /// `(b - a) / b × 100`, unit `%`: what the variant `a` costs, as a
    /// percentage of the baseline `b`'s rate.
    OverheadPct,
}

impl Pairing {
    /// The value of one pair of rates.
    fn value(self, a: f64, b: f64) -> f64 {
        match self {
            Self::Ratio => a / b,
            Self::OverheadPct => (b - a) / b * 100.0,
        }
    }

    fn unit(self) -> &'static str {
        match self {
            Self::Ratio => "x",
            Self::OverheadPct => "%",
        }
    }
}

impl BenchRow {
    /// A row summarizing `values`, one per sample.
    ///
    /// # Panics
    ///
    /// Panics when `values` is empty or holds a non-finite value.
    #[must_use]
    pub fn from_values(
        name: &str,
        layer: &str,
        unit: &str,
        input: &str,
        mut values: Vec<f64>,
    ) -> Self {
        assert!(
            !values.is_empty(),
            "{name}: a row needs at least one sample"
        );
        assert!(
            values.iter().all(|v| v.is_finite()),
            "{name}: non-finite sample in {values:?}"
        );
        values.sort_by(f64::total_cmp);
        Self {
            name: name.to_owned(),
            layer: layer.to_owned(),
            unit: unit.to_owned(),
            input: input.to_owned(),
            samples: values.len(),
            median: quantile(&values, 0.5),
            p10: quantile(&values, 0.1),
            p90: quantile(&values, 0.9),
            cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }

    /// Collects `samples` values from `sample` (typically a rate timed
    /// with [`secs`]) and summarizes them.
    #[must_use]
    pub fn sampled(
        name: &str,
        layer: &str,
        unit: &str,
        input: &str,
        samples: usize,
        mut sample: impl FnMut() -> f64,
    ) -> Self {
        let values = (0..samples).map(|_| sample()).collect();
        Self::from_values(name, layer, unit, input, values)
    }

    /// Runs `a` and `b` back to back `pairs` times, `a` first in even
    /// pairs and `b` first in odd ones, so drift between the two runs of
    /// a pair favours neither side. Each closure returns its run's rate;
    /// `pairing` turns each pair into one value and the row summarizes
    /// those.
    #[must_use]
    pub fn paired(
        name: &str,
        layer: &str,
        input: &str,
        pairs: usize,
        pairing: Pairing,
        mut a: impl FnMut() -> f64,
        mut b: impl FnMut() -> f64,
    ) -> Self {
        let values = (0..pairs)
            .map(|i| {
                let (ra, rb) = if i % 2 == 0 {
                    let ra = a();
                    (ra, b())
                } else {
                    let rb = b();
                    (a(), rb)
                };
                pairing.value(ra, rb)
            })
            .collect();
        Self::from_values(name, layer, pairing.unit(), input, values)
    }
}

/// Linear interpolation between the closest ranks of a sorted slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let position = q * (sorted.len() - 1) as f64;
    let lo = position.floor() as usize;
    let hi = position.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (position - lo as f64)
}

/// Wall-clock seconds `run` takes.
///
/// # Panics
///
/// Panics if the run finished in zero time.
pub fn secs(run: impl FnOnce()) -> f64 {
    let start = Instant::now();
    run();
    let elapsed = start.elapsed().as_secs_f64();
    assert!(elapsed > 0.0, "timed run finished in zero time");
    elapsed
}

/// Merges `rows` into the repository-root BENCH file `file` (e.g.
/// `BENCH_sweep.json`), replacing stored rows of the same name, and
/// prints one summary line per row.
///
/// # Panics
///
/// Panics when the file cannot be read, parsed or written — a harness
/// misconfiguration worth failing loudly on (a missing file starts
/// empty) — and, only when [`BENCH_STRICT_ENV_VAR`] is `1`, when a row
/// breaks the 1-CPU floor ([`one_cpu_floor_violation`]). By default the
/// floor only warns: a loaded or throttled 1-CPU runner is too noisy to
/// fail a whole job on.
pub fn record_bench(file: &str, rows: Vec<BenchRow>) {
    for row in &rows {
        if let Some(message) = one_cpu_floor_violation(row) {
            if bench_strict() {
                panic!("{message}");
            }
            eprintln!("warning: {message}");
        }
        println!(
            "bench {}: median {:.4} {} (p10 {:.4}, p90 {:.4}; {} sample(s); {}; {} cpu(s))",
            row.name, row.median, row.unit, row.p10, row.p90, row.samples, row.input, row.cpus
        );
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join(file);
    merge_rows(&path, rows);
}

fn merge_rows(path: &Path, rows: Vec<BenchRow>) {
    let shown = path.display();
    let mut stored: Vec<BenchRow> = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text).unwrap_or_else(|e| panic!("{shown} parses: {e}")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => panic!("{shown} reads: {e}"),
    };
    for row in rows {
        match stored.iter_mut().find(|old| old.name == row.name) {
            Some(old) => *old = row,
            None => stored.push(row),
        }
    }
    stored.sort_by(|a, b| a.name.cmp(&b.name));
    let text = serde_json::to_string_pretty(&stored).expect("rows serialize");
    std::fs::write(path, text + "\n").unwrap_or_else(|e| panic!("{shown} writes: {e}"));
}

/// The budget every observability overhead row must stay under, in
/// percent of the uninstrumented rate.
const OVERHEAD_BUDGET_PCT: f64 = 2.0;

/// Records the overhead rows whose median is under the 2 % budget with
/// [`record_bench`], then fails on the rest.
///
/// # Panics
///
/// Panics, after recording the rows within budget, naming every row over
/// it.
pub fn record_overheads(file: &str, rows: Vec<BenchRow>) {
    let (within, over): (Vec<_>, Vec<_>) = rows
        .into_iter()
        .partition(|row| row.median < OVERHEAD_BUDGET_PCT);
    record_bench(file, within);
    let over: Vec<String> = over
        .iter()
        .map(|row| {
            format!(
                "{}: median {:.2} % (p10 {:.2}, p90 {:.2}, {} pairs)",
                row.name, row.median, row.p10, row.p90, row.samples
            )
        })
        .collect();
    assert!(
        over.is_empty(),
        "over the {OVERHEAD_BUDGET_PCT} % overhead budget, not recorded: {}",
        over.join("; ")
    );
}

/// The 1-CPU floor check: on a single CPU a parallel pass cannot beat
/// serial, but it should not lose to it either — the worker pool's only
/// legitimate cost there is handoff overhead, budgeted at 10 %. Returns
/// the violation message when an [`EXECUTOR_LAYER`] speedup row measured
/// on 1 CPU has its median below the floor. (Multi-CPU speedups stay
/// unchecked — recording runs share the machine with the rest of the
/// suite, and contention would make any floor flaky.)
#[must_use]
pub fn one_cpu_floor_violation(row: &BenchRow) -> Option<String> {
    (row.layer == EXECUTOR_LAYER && row.cpus == 1 && row.median < 0.9).then(|| {
        format!(
            "bench {}: median {:.2}x on 1 cpu — worker handoff overhead exceeds the 10 % budget \
             ({BENCH_STRICT_ENV_VAR}=1 turns this warning into a failure)",
            row.name, row.median
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

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

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

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    fn sampled(values: &[f64]) -> BenchRow {
        let mut next = values.iter().copied();
        BenchRow::sampled("unit", "test", "count", "fixed", values.len(), || {
            next.next().expect("one value per sample")
        })
    }

    #[test]
    fn sampled_rows_take_median_and_spread() {
        // Odd count: the middle sample, whatever the arrival order.
        let odd = sampled(&[9.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!((odd.samples, odd.median), (5, 5.0));
        assert!(close(odd.p10, 1.8) && close(odd.p90, 8.2), "{odd:?}");
        // Even count: halfway between the two middle samples.
        let even = sampled(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.samples, even.median), (4, 2.5));
        assert!(close(even.p10, 1.3) && close(even.p90, 3.7), "{even:?}");
        // One sample: no spread.
        let one = sampled(&[42.0]);
        assert_eq!(
            (one.samples, one.median, one.p10, one.p90),
            (1, 42.0, 42.0, 42.0)
        );
        assert!(one.cpus >= 1);
        assert_eq!(
            (one.name.as_str(), one.layer.as_str(), one.unit.as_str()),
            ("unit", "test", "count")
        );
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn a_row_needs_a_sample() {
        let _ = sampled(&[]);
    }

    #[test]
    fn paired_rows_alternate_order_and_summarize_per_pair_values() {
        let order = RefCell::new(String::new());
        let a_rates = RefCell::new([110.0, 90.0, 100.0, 120.0].into_iter());
        let b_rates = RefCell::new([100.0, 100.0, 100.0, 100.0].into_iter());
        let a = || {
            order.borrow_mut().push('a');
            a_rates.borrow_mut().next().expect("four pairs")
        };
        let b = || {
            order.borrow_mut().push('b');
            b_rates.borrow_mut().next().expect("four pairs")
        };
        let ratio = BenchRow::paired("pairs", "test", "fixed", 4, Pairing::Ratio, a, b);
        assert_eq!(order.borrow().as_str(), "abbaabba");
        assert_eq!(ratio.unit, "x");
        assert_eq!(ratio.samples, 4);
        // Per-pair ratios 1.1, 0.9, 1.0, 1.2: the median is of the
        // ratios, not a ratio of medians.
        assert!(close(ratio.median, 1.05), "{ratio:?}");
        assert!(
            close(ratio.p10, 0.93) && close(ratio.p90, 1.17),
            "{ratio:?}"
        );

        let overhead = BenchRow::paired(
            "overhead",
            "test",
            "fixed",
            3,
            Pairing::OverheadPct,
            || 98.0,
            || 100.0,
        );
        assert_eq!(overhead.unit, "%");
        assert!(close(overhead.median, 2.0), "{overhead:?}");
        assert!(close(Pairing::OverheadPct.value(102.0, 100.0), -2.0));
    }

    /// The 1-CPU guard: a parallel pass whose paired median loses more
    /// than 10 % to serial on a single CPU is flagged (warning by default,
    /// hard failure under `MONITYRE_BENCH_STRICT=1`); multi-CPU rows, rows
    /// inside the budget and rows of other layers pass silently.
    #[test]
    fn one_cpu_floor_violation_flags_1cpu_slowdowns() {
        let mut row = BenchRow::paired(
            "unit-guard",
            EXECUTOR_LAYER,
            "fixed",
            5,
            Pairing::Ratio,
            || 500.0,
            || 1000.0,
        );
        row.cpus = 1;
        assert_eq!(row.median, 0.5);
        let message = one_cpu_floor_violation(&row).expect("0.5x on 1 cpu violates the floor");
        assert!(message.contains("worker handoff overhead"), "{message}");
        // CI logs must be self-explaining: the message itself names the
        // env var that escalates the warning, so the strict-mode panic
        // (which prints the bare message) names it too.
        assert!(message.contains("MONITYRE_BENCH_STRICT=1"), "{message}");
        row.median = 0.95;
        assert!(one_cpu_floor_violation(&row).is_none(), "within budget");
        row.median = 0.5;
        row.layer = "sheet.recompute".into();
        assert!(one_cpu_floor_violation(&row).is_none(), "not a sweep row");
        row.layer = EXECUTOR_LAYER.into();
        row.cpus = 4;
        assert!(
            one_cpu_floor_violation(&row).is_none(),
            "multi-CPU unchecked"
        );
    }

    #[test]
    fn bench_rows_round_trip() {
        let row = sampled(&[1.0, 2.0, 3.0]);
        let json = serde_json::to_string(&vec![row.clone()]).unwrap();
        let back: Vec<BenchRow> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, vec![row]);
    }

    fn scratch_file(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "monityre-bench-merge-{tag}-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn merge_starts_a_missing_file_and_replaces_rows_by_name() {
        let path = scratch_file("merge");
        merge_rows(
            &path,
            vec![sampled(&[1.0]), {
                let mut b = sampled(&[2.0]);
                b.name = "b".into();
                b
            }],
        );
        let mut newer = sampled(&[3.0]);
        newer.name = "a".into();
        merge_rows(&path, vec![newer]);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let rows: Vec<BenchRow> = serde_json::from_str(&text).unwrap();
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "unit"]);
        assert_eq!(rows[0].median, 3.0);
    }

    /// A file that exists but cannot be read is never treated as empty:
    /// merging into it would overwrite every stored row with the new one.
    #[test]
    fn merge_refuses_an_unreadable_file() {
        let path = scratch_file("unreadable");
        let bytes = [0xff, 0xfe, b'[', b']'];
        std::fs::write(&path, bytes).unwrap();
        let outcome = std::panic::catch_unwind(|| merge_rows(&path, vec![sampled(&[1.0])]));
        let left = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(outcome.is_err(), "a non-UTF-8 file must fail the merge");
        assert_eq!(left, bytes, "the file is left as it was");
    }

    /// Every committed `BENCH_*.json` holds the one row type, with a
    /// sample, an ordered spread and a CPU count, sorted by unique name.
    #[test]
    fn committed_bench_files_hold_valid_rows() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let file = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(file.starts_with("BENCH_") && file.ends_with(".json")) {
                continue;
            }
            files += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            let rows: Vec<BenchRow> =
                serde_json::from_str(&text).unwrap_or_else(|e| panic!("{file} parses: {e}"));
            assert!(!rows.is_empty(), "{file} is empty");
            for row in &rows {
                assert!(row.samples >= 1, "{file} {}: no samples", row.name);
                assert!(
                    row.p10 <= row.median && row.median <= row.p90,
                    "{file} {}: spread out of order",
                    row.name
                );
                assert!(row.cpus >= 1, "{file} {}: no cpus", row.name);
            }
            assert!(
                rows.windows(2).all(|w| w[0].name < w[1].name),
                "{file}: names must be unique and sorted"
            );
        }
        assert!(files >= 1, "no BENCH files found");
    }
}
