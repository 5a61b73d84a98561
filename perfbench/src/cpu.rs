//! CPU steal during the timed phase. On a virtual machine the host can
//! withhold the guest's CPUs for whole seconds; while it does, every
//! wall-clock figure of a run degrades no matter what the program does.
//! The sampler reads the guest's `/proc/stat` every slice so the
//! end-to-end figures can be taken from the slices the host disturbed
//! least, and the report can state how much steal the run saw.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Length of one measurement slice.
pub const SLICE: Duration = Duration::from_millis(250);

/// Cumulative CPU ticks: `(busy including steal, steal)`.
fn ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    let at = |i: usize| fields.get(i).copied().unwrap_or(0);
    let busy = at(0) + at(1) + at(2) + at(5) + at(6) + at(7);
    Some((busy, at(7)))
}

/// Samples `/proc/stat` at every slice boundary after `start` until
/// `stop` is set; returns each slice's steal share of the busy time
/// (0 when the slice saw no busy ticks or `/proc/stat` is unreadable).
pub fn sample_steal(start: Instant, stop: &AtomicBool) -> Vec<f64> {
    let mut shares = Vec::new();
    let mut previous = ticks();
    let mut boundary = start + SLICE;
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        if boundary > now {
            std::thread::sleep((boundary - now).min(Duration::from_millis(20)));
            continue;
        }
        let current = ticks();
        let share = match (previous, current) {
            (Some((b0, s0)), Some((b1, s1))) if b1 > b0 => (s1 - s0) as f64 / (b1 - b0) as f64,
            _ => 0.0,
        };
        shares.push(share);
        previous = current;
        boundary += SLICE;
    }
    shares
}

/// Indices of the `slices` slices to measure: the half with the least
/// steal (ties keep time order), never fewer than one.
pub fn least_disturbed(steal: &[f64], slices: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..slices).collect();
    order.sort_by(|&a, &b| {
        let share = |i: usize| steal.get(i).copied().unwrap_or(0.0);
        share(a).total_cmp(&share(b)).then(a.cmp(&b))
    });
    order.truncate(slices.div_ceil(2).max(1));
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_quieter_half_in_time_order() {
        let steal = [0.3, 0.0, 0.1, 0.0, 0.5, 0.2];
        assert_eq!(least_disturbed(&steal, 6), vec![1, 2, 3]);
        assert_eq!(least_disturbed(&[], 3), vec![0, 1]);
    }
}
