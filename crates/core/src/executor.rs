//! Deterministic parallel batch evaluation.
//!
//! Every experiment in this crate is sweep-shaped: a list of independent
//! points (speeds, temperatures, supplies, corners, configuration-grid
//! cells, Monte Carlo draws) mapped through a pure evaluation. A
//! [`SweepExecutor`] runs that map in fixed-size chunks on the calling
//! thread, adds scoped helper threads only when the projected work pays
//! for spawning them, and reassembles the results in input order, so the
//! parallel output is **bit-identical** to the serial one: no reduction
//! happens across threads, only element-wise mapping.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

/// Environment variable overriding [`SweepExecutor::available`]'s worker
/// count, so deployments (servers, CI) can pin parallelism without
/// plumbing flags. The value must be a positive integer; `0` or anything
/// non-numeric is rejected — [`SweepExecutor::available`] warns and falls
/// back to the hardware count, [`SweepExecutor::try_available`] errors.
pub const THREADS_ENV_VAR: &str = "MONITYRE_THREADS";

/// The machine's available parallelism (1 when undetectable).
fn hardware_parallelism() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Parses a [`THREADS_ENV_VAR`] value into a worker count. `Ok(None)`
/// means unset (use the hardware count); a set-but-invalid value — zero,
/// negative, non-numeric — is an error, never a silent fallback.
fn parse_threads_override(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "{THREADS_ENV_VAR}={raw:?} is invalid: the worker count must be at least 1"
        )),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!(
            "{THREADS_ENV_VAR}={raw:?} is invalid: expected a positive integer"
        )),
    }
}

/// A chunked, order-preserving parallel map over sweep points.
///
/// The calling thread always evaluates; `threads` bounds the caller plus
/// the helpers it may add. `threads == 1` (the default) runs inline with
/// no thread machinery, and a wider executor stays inline too unless its
/// first chunk projects enough work to pay for helpers, so a small sweep
/// costs what the serial one does.
///
/// ```
/// use monityre_core::SweepExecutor;
///
/// let squares = SweepExecutor::new(4).map(&[1, 2, 3, 4, 5], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepExecutor {
    threads: usize,
    chunk_size: Option<usize>,
}

impl Default for SweepExecutor {
    fn default() -> Self {
        Self::serial()
    }
}

impl SweepExecutor {
    /// The serial executor: evaluates inline on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        Self {
            threads: 1,
            chunk_size: None,
        }
    }

    /// An executor with `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            chunk_size: None,
        }
    }

    /// An executor sized to the machine's available parallelism, unless
    /// the [`THREADS_ENV_VAR`] environment variable overrides it with a
    /// positive integer. An invalid override (`0`, non-numeric) is
    /// **rejected**, not silently absorbed: this constructor warns on
    /// stderr and uses the hardware count; strict callers (the server's
    /// startup path) use [`Self::try_available`] to fail fast instead.
    #[must_use]
    pub fn available() -> Self {
        match Self::try_available() {
            Ok(executor) => executor,
            Err(message) => {
                eprintln!("warning: {message}; using the hardware thread count");
                Self::new(hardware_parallelism())
            }
        }
    }

    /// Like [`Self::available`], but a set-and-invalid [`THREADS_ENV_VAR`]
    /// is an error instead of a warning-and-fallback.
    ///
    /// # Errors
    ///
    /// Returns a description of the rejected value when the environment
    /// variable is set to `0` or to anything non-numeric.
    pub fn try_available() -> Result<Self, String> {
        let raw = std::env::var(THREADS_ENV_VAR).ok();
        let threads = parse_threads_override(raw.as_deref())?.unwrap_or_else(hardware_parallelism);
        Ok(Self::new(threads))
    }

    /// Overrides the chunk size (points handed to a worker at a time).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size >= 1, "chunk size must be at least 1");
        self.chunk_size = Some(chunk_size);
        self
    }

    /// The worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The chunk size used for `len` items: the override if set, else
    /// enough chunks for ~4 hand-outs per worker (bounded load imbalance
    /// without fine-grained contention).
    #[must_use]
    pub fn chunk_for(&self, len: usize) -> usize {
        self.chunk_size
            .unwrap_or_else(|| len.div_ceil(self.threads * 4))
            .max(1)
    }

    /// Maps `f` over `items`, preserving input order in the output.
    ///
    /// `f` receives the item's index and the item. The result equals
    /// `items.iter().enumerate().map(..).collect()` exactly — workers only
    /// partition the index space, they never reorder or combine results.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_cancellable(items, &|| false, f)
            .expect("a never-cancelled map always completes")
    }

    /// Like [`Self::map`], but polls `cancelled` between chunks and gives
    /// up cooperatively: once any worker observes `cancelled() == true`,
    /// no further chunk is started and the call returns `None`.
    ///
    /// A completed map (`Some`) is bit-identical to [`Self::map`]: the
    /// cancellation poll happens only at chunk boundaries and never
    /// changes the partitioning or evaluation order. Deadline-aware
    /// callers (the serving layer) pass `|| Instant::now() >= deadline`.
    pub fn map_cancellable<T, R, F, C>(&self, items: &[T], cancelled: &C, f: F) -> Option<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        C: Fn() -> bool + Sync,
    {
        // A serial executor never spawns, so it never pays to calibrate.
        let helper_cost = if self.threads > 1 {
            calibrated_helper_cost()
        } else {
            Duration::MAX
        };
        self.map_inner(items, cancelled, f, helper_cost)
    }

    /// The map behind [`Self::map_cancellable`], with the per-helper
    /// spawn cost passed in so tests can force (`Duration::ZERO`) or
    /// forbid (`Duration::MAX`) fanning out whenever a helper is possible.
    ///
    /// The caller always works. It evaluates chunk 0, times it and
    /// projects the rest of the map from its per-item cost; only if that
    /// projection pays for helpers ([`helpers_paid_for`]) does it spawn
    /// up to `threads − 1` of them and claim the remaining chunks
    /// alongside them, so a long map loses at most one chunk of serial
    /// time before helpers start. Every claimant keeps its
    /// `(chunk, results)` pairs and the caller drops each into the slot
    /// of its chunk number, so assembly needs neither a lock nor a sort.
    fn map_inner<T, R, F, C>(
        &self,
        items: &[T],
        cancelled: &C,
        f: F,
        helper_cost: Duration,
    ) -> Option<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        C: Fn() -> bool + Sync,
    {
        if cancelled() {
            return None;
        }
        // One span per batch — never per point — so a 196-step sweep pays
        // for a single histogram record.
        let _span = monityre_obs::span!("sweep.batch");
        let len = items.len();
        let chunk = self.chunk_for(len.max(1));
        let chunks = len.div_ceil(chunk);
        let bounds = |index: usize| index * chunk..((index + 1) * chunk).min(len);
        let eval = |range: Range<usize>, out: &mut Vec<R>| {
            out.extend(
                items[range.clone()]
                    .iter()
                    .zip(range)
                    .map(|(item, i)| f(i, item)),
            );
        };

        let mut results = Vec::with_capacity(len);
        // Chunk 0 is the caller's; a helper is only worth it while another
        // chunk is left for it.
        let max_helpers = (self.threads - 1).min(chunks.saturating_sub(1));
        let start = Instant::now();
        eval(bounds(0), &mut results);
        let helpers = if max_helpers == 0 {
            0
        } else {
            let per_item = start.elapsed() / u32::try_from(results.len()).unwrap_or(u32::MAX);
            helpers_paid_for(per_item, len - results.len(), max_helpers, helper_cost)
        };

        if helpers == 0 {
            for index in 1..chunks {
                if cancelled() {
                    return None;
                }
                eval(bounds(index), &mut results);
            }
            return Some(results);
        }

        monityre_obs::Registry::global()
            .counter(monityre_obs::names::SWEEP_FANOUT)
            .inc();
        let cursor = AtomicUsize::new(1);
        let stop = AtomicBool::new(false);
        // Claims chunks until none is left or the map is cancelled.
        let claim = || {
            let mut done = Vec::new();
            loop {
                if stop.load(Ordering::Relaxed) || cancelled() {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= chunks {
                    break;
                }
                let mut batch = Vec::with_capacity(chunk);
                eval(bounds(index), &mut batch);
                done.push((index, batch));
            }
            done
        };

        let mut slots: Vec<Option<Vec<R>>> = (0..chunks).map(|_| None).collect();
        // Trace context is thread-local; capture the caller's and
        // re-install it inside each helper so spans recorded there stay
        // in the request's causal tree.
        let ctx = monityre_obs::current_context();
        thread::scope(|scope| {
            let handles: Vec<_> = (0..helpers)
                .map(|_| {
                    scope.spawn(|| {
                        let _ctx = ctx.map(monityre_obs::install_context);
                        claim()
                    })
                })
                .collect();
            let mine = claim();
            let theirs = handles.into_iter().flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            });
            for (index, batch) in mine.into_iter().chain(theirs) {
                slots[index] = Some(batch);
            }
        });

        if stop.load(Ordering::Relaxed) {
            return None;
        }
        for batch in slots.into_iter().skip(1) {
            results.extend(batch.expect("an uncancelled map evaluates every chunk"));
        }
        debug_assert_eq!(results.len(), len);
        Some(results)
    }
}

/// How much the projected rest of a map must exceed the cost of the
/// helpers it would start before the executor fans out. Measured on a
/// 2-vCPU host, a 2× margin still fanned out 100–200-point balance
/// sweeps (~85–170 µs) whenever the calibration read low, and those ran
/// at 0.77–0.93× inline; fan-out paid reliably from ~0.4 ms of work.
const FANOUT_MARGIN: u128 = 4;

/// How many helpers a map pays for: the largest `h ≤ max_helpers` with
/// `per_item × remaining_items > FANOUT_MARGIN × helper_cost × h`. The
/// arithmetic saturates instead of overflowing: `Duration::ZERO` takes
/// every helper offered, and `Duration::MAX` outweighs any real work.
fn helpers_paid_for(
    per_item: Duration,
    remaining_items: usize,
    max_helpers: usize,
    helper_cost: Duration,
) -> usize {
    let projected = per_item.as_nanos().saturating_mul(remaining_items as u128);
    let per_helper = helper_cost.as_nanos().saturating_mul(FANOUT_MARGIN);
    projected
        .saturating_sub(1)
        .checked_div(per_helper)
        .map_or(max_helpers, |paid| {
            usize::try_from(paid).map_or(max_helpers, |paid| paid.min(max_helpers))
        })
}

/// What one helper costs on this machine: the median of a few timings
/// of a no-op helper spawned while the caller keeps its own CPU busy,
/// from the spawn until the helper has run and been joined. The caller
/// spins instead of blocking because that is what a fan-out does: a
/// blocked caller lends the helper its own CPU and hides how long a
/// second CPU takes to pick the helper up, which is most of the cost on
/// a virtualised host (and all of it on one CPU, where the helper waits
/// out the caller's time slice). Measured once per process; it depends
/// on the hardware and OS only, never on a workload.
fn calibrated_helper_cost() -> Duration {
    const SAMPLES: usize = 5;
    static COST: OnceLock<Duration> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut samples: [Duration; SAMPLES] = std::array::from_fn(|_| {
            let started = AtomicBool::new(false);
            let start = Instant::now();
            thread::scope(|scope| {
                scope.spawn(|| started.store(true, Ordering::Release));
                while !started.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            });
            start.elapsed()
        });
        *samples.select_nth_unstable(SAMPLES / 2).1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..503).collect();
        let serial = serial_reference(&items);
        for threads in [2, 3, 4, 8] {
            for chunk in [1, 7, 64, 1024] {
                let parallel = SweepExecutor::new(threads)
                    .with_chunk_size(chunk)
                    .map(&items, |i, &x| x * 3 + i as u64);
                assert_eq!(parallel, serial, "threads {threads} chunk {chunk}");
            }
        }
    }

    /// Serial reference: what every map must return bit for bit.
    fn serial_reference(items: &[u64]) -> Vec<u64> {
        items
            .iter()
            .enumerate()
            .map(|(i, &x)| x * 3 + i as u64)
            .collect()
    }

    #[test]
    fn trace_context_propagates_into_scoped_workers() {
        use std::sync::atomic::AtomicBool;
        let ctx = monityre_obs::TraceContext::root(3);
        let _g = monityre_obs::install_context(ctx);
        let caller = std::thread::current().id();
        let helper_ran = AtomicBool::new(false);
        let items: Vec<u64> = (0..64).collect();
        // Forced fan-out. The caller evaluates chunk 0 (items 0..4) before
        // spawning, then holds its next item until a helper has evaluated
        // one, so the helpers are guaranteed to do part of the map.
        let seen = SweepExecutor::new(4)
            .with_chunk_size(4)
            .map_inner(
                &items,
                &|| false,
                |i, _| {
                    if std::thread::current().id() != caller {
                        helper_ran.store(true, Ordering::Relaxed);
                    } else if i >= 4 {
                        let give_up = Instant::now() + Duration::from_secs(10);
                        while !helper_ran.load(Ordering::Relaxed) && Instant::now() < give_up {
                            std::thread::yield_now();
                        }
                    }
                    monityre_obs::current_context().map(|c| c.trace_id)
                },
                Duration::ZERO,
            )
            .expect("never cancelled");
        assert!(
            helper_ran.load(Ordering::Relaxed),
            "a helper must evaluate part of the map"
        );
        assert!(
            seen.iter().all(|id| *id == Some(ctx.trace_id)),
            "every worker must see the caller's trace context"
        );
    }

    #[test]
    fn forced_fanout_bumps_the_fanout_counter() {
        let fanout = monityre_obs::Registry::global().counter(monityre_obs::names::SWEEP_FANOUT);
        let before = fanout.get();
        let items: Vec<u64> = (0..16).collect();
        let got = SweepExecutor::new(2).with_chunk_size(4).map_inner(
            &items,
            &|| false,
            |i, &x| x * 3 + i as u64,
            Duration::ZERO,
        );
        assert_eq!(got, Some(serial_reference(&items)));
        // Other tests share the global registry, so only a lower bound holds.
        assert!(fanout.get() > before);
    }

    #[test]
    fn fanout_decision_weighs_projected_work_against_helpers() {
        let us = Duration::from_micros;
        // With 1 µs items and a 50 µs helper, each helper needs `pays`
        // items of projected work before it is worth spawning.
        let pays = (FANOUT_MARGIN * 50) as usize;
        assert_eq!(helpers_paid_for(us(1), pays - 1, 3, us(50)), 0);
        // Exactly the margin is not above it either.
        assert_eq!(helpers_paid_for(us(1), pays, 3, us(50)), 0);
        assert_eq!(helpers_paid_for(us(1), pays + 1, 3, us(50)), 1);
        // Two and a half helpers' worth pays for two, not three.
        assert_eq!(helpers_paid_for(us(1), pays * 5 / 2, 3, us(50)), 2);
        // Plenty of work: capped at what is offered.
        assert_eq!(helpers_paid_for(us(100), 10_000, 3, us(50)), 3);
        assert_eq!(helpers_paid_for(us(100), 10_000, 0, us(50)), 0);
        // Nothing left to share never fans out at a real cost.
        assert_eq!(helpers_paid_for(us(100), 0, 3, us(50)), 0);
    }

    #[test]
    fn fanout_decision_saturates_at_the_extremes() {
        let max = Duration::MAX;
        // An hour per item over a long map still cannot pay an unbounded cost.
        assert_eq!(
            helpers_paid_for(Duration::from_secs(3600), 1 << 40, 7, max),
            0
        );
        // Saturated products neither overflow nor exceed the offer.
        assert!(helpers_paid_for(max, usize::MAX, 7, max) <= 7);
        assert_eq!(helpers_paid_for(max, usize::MAX, 7, Duration::ZERO), 7);
        assert_eq!(helpers_paid_for(Duration::ZERO, 0, 7, Duration::ZERO), 7);
        assert_eq!(
            helpers_paid_for(max, usize::MAX, usize::MAX, Duration::ZERO),
            usize::MAX
        );
        assert_eq!(
            helpers_paid_for(max, usize::MAX, usize::MAX, Duration::from_nanos(1)),
            usize::MAX
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both paths, forced: any length, worker bound and chunk size
        /// equals the serial map, and a map cancelled once its first item
        /// is done returns `None` whenever a chunk boundary is left.
        #[test]
        fn both_paths_match_serial_and_cancel(
            len in 0usize..600,
            threads in 1usize..=8,
            chunk in 1usize..=64,
            forced in 0u8..2,
        ) {
            let cost = if forced == 1 { Duration::ZERO } else { Duration::MAX };
            let items: Vec<u64> = (0..len as u64).collect();
            let executor = SweepExecutor::new(threads).with_chunk_size(chunk);
            let got = executor.map_inner(&items, &|| false, |i, &x| x * 3 + i as u64, cost);
            prop_assert_eq!(got, Some(serial_reference(&items)));

            let evaluated = AtomicUsize::new(0);
            let cancelled = executor.map_inner(
                &items,
                &|| evaluated.load(Ordering::Relaxed) > 0,
                |i, &x| {
                    evaluated.fetch_add(1, Ordering::Relaxed);
                    x * 3 + i as u64
                },
                cost,
            );
            if len > chunk {
                prop_assert_eq!(cancelled, None);
                prop_assert!(evaluated.load(Ordering::Relaxed) < len);
            } else {
                prop_assert_eq!(cancelled, Some(serial_reference(&items)));
            }
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<i32> = Vec::new();
        assert!(SweepExecutor::new(4).map(&none, |_, &x| x).is_empty());
        assert_eq!(SweepExecutor::new(4).map(&[9], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn indices_match_positions() {
        let items = vec!["a", "b", "c", "d", "e", "f", "g"];
        let indexed = SweepExecutor::new(3)
            .with_chunk_size(2)
            .map(&items, |i, &s| (i, s));
        for (position, (index, _)) in indexed.iter().enumerate() {
            assert_eq!(position, *index);
        }
    }

    #[test]
    fn threads_clamped_to_one() {
        assert_eq!(SweepExecutor::new(0).threads(), 1);
        assert!(SweepExecutor::available().threads() >= 1);
    }

    #[test]
    fn default_chunking_covers_input() {
        let executor = SweepExecutor::new(4);
        let chunk = executor.chunk_for(196);
        assert!(chunk >= 1);
        // Enough hand-outs to balance, few enough to amortize locking.
        assert!(196usize.div_ceil(chunk) >= 4);
    }

    #[test]
    #[should_panic(expected = "chunk size must be at least 1")]
    fn zero_chunk_rejected() {
        let _ = SweepExecutor::new(2).with_chunk_size(0);
    }

    #[test]
    fn cancellable_map_completes_when_never_cancelled() {
        let items: Vec<u64> = (0..97).collect();
        let expected = SweepExecutor::serial().map(&items, |i, &x| x + i as u64);
        for threads in [1, 2, 4] {
            let got = SweepExecutor::new(threads)
                .with_chunk_size(8)
                .map_cancellable(&items, &|| false, |i, &x| x + i as u64)
                .expect("not cancelled");
            assert_eq!(got, expected, "threads {threads}");
        }
    }

    #[test]
    fn cancelled_upfront_returns_none() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 4] {
            let out = SweepExecutor::new(threads).map_cancellable(&items, &|| true, |_, &x| x);
            assert!(out.is_none(), "threads {threads}");
        }
    }

    #[test]
    fn cancellation_mid_run_is_observed_at_chunk_boundaries() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<u64> = (0..1024).collect();
        let evaluated = AtomicUsize::new(0);
        let out = SweepExecutor::new(2).with_chunk_size(4).map_cancellable(
            &items,
            &|| evaluated.load(Ordering::Relaxed) >= 8,
            |_, &x| {
                evaluated.fetch_add(1, Ordering::Relaxed);
                x
            },
        );
        assert!(out.is_none());
        // Far fewer evaluations than items: the map gave up early.
        assert!(evaluated.load(Ordering::Relaxed) < items.len());
    }

    #[test]
    fn env_var_overrides_available_parallelism() {
        // Runs in one test so the env mutations cannot race each other.
        std::env::set_var(THREADS_ENV_VAR, "3");
        assert_eq!(SweepExecutor::available().threads(), 3);
        assert_eq!(SweepExecutor::try_available().unwrap().threads(), 3);
        std::env::set_var(THREADS_ENV_VAR, " 7 ");
        assert_eq!(SweepExecutor::available().threads(), 7);
        // Invalid overrides: `available` warns and falls back to the
        // hardware count; `try_available` rejects them outright.
        let hardware = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        std::env::set_var(THREADS_ENV_VAR, "0");
        assert_eq!(SweepExecutor::available().threads(), hardware);
        let err = SweepExecutor::try_available().unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        std::env::set_var(THREADS_ENV_VAR, "lots");
        assert_eq!(SweepExecutor::available().threads(), hardware);
        let err = SweepExecutor::try_available().unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        std::env::remove_var(THREADS_ENV_VAR);
        assert_eq!(SweepExecutor::available().threads(), hardware);
        assert_eq!(SweepExecutor::try_available().unwrap().threads(), hardware);
    }

    #[test]
    fn threads_override_parsing() {
        assert_eq!(parse_threads_override(None).unwrap(), None);
        assert_eq!(parse_threads_override(Some("4")).unwrap(), Some(4));
        assert_eq!(parse_threads_override(Some(" 12 ")).unwrap(), Some(12));
        assert!(parse_threads_override(Some("0")).is_err());
        assert!(parse_threads_override(Some("-2")).is_err());
        assert!(parse_threads_override(Some("4.5")).is_err());
        assert!(parse_threads_override(Some("lots")).is_err());
        assert!(parse_threads_override(Some("")).is_err());
    }
}
