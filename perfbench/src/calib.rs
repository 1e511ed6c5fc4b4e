//! Host-speed calibration.
//!
//! The benchmark runs on a few CPUs of a shared host, and the host's
//! other tenants slow those CPUs, and the last-level cache and memory
//! they share, by up to half again, for seconds to minutes at a time.
//! Left as measured, a timing then says more about the neighbours than
//! about the program: two runs of the same code can differ by that
//! much. So every timing is also taken as what it would have been at
//! the host's reference speed.
//!
//! The yardstick is [`kernel`], a fixed piece of work of the kinds the
//! service does (allocation, hashing, sorting, formatting, floating
//! point, and reads scattered over a table larger than a CPU's own
//! caches), with no part of the program in it. [`sample`] times it on
//! two threads at once, one per CPU the benchmark uses, while the load
//! is paused (see `load::Gate`), so the program's own work never slows
//! the yardstick. A sample's *host factor* is its duration over
//! [`REFERENCE_MS`]: 1.0 at the reference speed, 1.5 when the host runs
//! half again slower. A timing taken near the sample is divided by the
//! factor (a throughput is multiplied by it).

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::thread;
use std::time::Instant;

use crate::streams::Rng;

/// A [`sample`] at the reference speed, ms: one kernel call on an idle
/// 2-vCPU Intel Xeon VM (2 MiB second-level, 105 MiB shared last-level
/// cache) in a quiet spell of its host.
pub const REFERENCE_MS: f64 = 3.0;

/// Kernel calls per thread in one sample.
const KERNEL_CALLS: usize = 6;

/// Rows the kernel builds.
const KERNEL_ROWS: u64 = 4_000;

/// Entries of the table the kernel walks: 32 MiB of `u32`, sixteen
/// times a CPU's second-level cache, so the walk depends on the shared
/// last-level cache and on memory, as the service's work over its
/// database and caches does.
const TABLE_ENTRIES: usize = 8 << 20;

/// Steps of the walk per kernel call.
const WALK_STEPS: usize = 6_000;

/// Bytes of the walked table, resident for the whole process once the
/// first sample is taken (`peak_rss_mb` leaves them out).
pub const TABLE_BYTES: usize = TABLE_ENTRIES * std::mem::size_of::<u32>();

/// The walked table: one random cycle through every entry, so that
/// each step's address depends on the previous read.
fn table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        // Sattolo's shuffle: a single cycle over all entries.
        let mut next: Vec<u32> = (0..TABLE_ENTRIES as u32).collect();
        let mut rng = Rng::new(0x7AB1E, 0);
        for i in (1..TABLE_ENTRIES).rev() {
            let j = rng.below(i as u64) as usize;
            next.swap(i, j);
        }
        next
    })
}

/// The yardstick: builds rows of an integer, a float and a string,
/// clones and sorts them, indexes them in a hash map, folds a dot
/// product over them, and walks [`WALK_STEPS`] steps of the table.
/// Returns a value that depends on all of it.
pub fn kernel(seed: u64) -> u64 {
    let table = table();
    let mut at = (seed as usize) % TABLE_ENTRIES;
    for _ in 0..WALK_STEPS {
        at = table[at] as usize;
    }
    let mut rng = Rng::new(seed, 0xCA11);
    let rows: Vec<(u64, f64, String)> = (0..KERNEL_ROWS)
        .map(|i| {
            let key = rng.next_u64();
            (key, (key >> 11) as f64 / (1u64 << 53) as f64, format!("r{i:x}-{key:x}"))
        })
        .collect();
    let mut sorted = rows.clone();
    sorted.sort_by(|a, b| a.2.cmp(&b.2));
    let index: HashMap<&str, usize> =
        sorted.iter().enumerate().map(|(i, r)| (r.2.as_str(), i)).collect();
    let dot: f64 = rows.iter().zip(&sorted).map(|(a, b)| a.1 * b.1).sum();
    let hits = rows.iter().filter(|r| index.get(r.2.as_str()).is_some_and(|&i| i % 2 == 0)).count();
    black_box(dot.to_bits() ^ hits as u64 ^ sorted[0].0 ^ at as u64)
}

/// Times [`KERNEL_CALLS`] kernel calls on each of two threads at once
/// and returns the median duration of one call, ms. The median keeps a
/// call that a passing interruption stretched from moving the sample.
pub fn sample() -> f64 {
    let calls = |seed: u64| -> Vec<f64> {
        (0..KERNEL_CALLS as u64)
            .map(|call| {
                let start = Instant::now();
                black_box(kernel(seed + call));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    };
    let mut all = thread::scope(|scope| {
        let other = scope.spawn(|| calls(1 << 20));
        let mut mine = calls(0);
        mine.extend(other.join().expect("calibration thread panicked"));
        mine
    });
    all.sort_by(f64::total_cmp);
    (all[(all.len() - 1) / 2] + all[all.len() / 2]) / 2.0
}

/// The host factor of a sample duration.
pub fn factor(sample_ms: f64) -> f64 {
    sample_ms / REFERENCE_MS
}

/// The host factor nearest in time to `at`, from `(time, factor)`
/// samples in time order; 1.0 with no samples.
pub fn factor_at(samples: &[(f64, f64)], at: f64) -> f64 {
    let i = samples.partition_point(|s| s.0 < at);
    let before = i.checked_sub(1).map(|j| samples[j]);
    let after = samples.get(i).copied();
    match (before, after) {
        (Some(b), Some(a)) => {
            if at - b.0 <= a.0 - at {
                b.1
            } else {
                a.1
            }
        }
        (Some(s), None) | (None, Some(s)) => s.1,
        (None, None) => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_at_takes_the_nearest_sample() {
        let samples = [(0.5, 1.0), (1.5, 1.5), (2.5, 1.2)];
        assert_eq!(factor_at(&samples, 0.0), 1.0);
        assert_eq!(factor_at(&samples, 0.9), 1.0);
        assert_eq!(factor_at(&samples, 1.1), 1.5);
        assert_eq!(factor_at(&samples, 9.0), 1.2);
        assert_eq!(factor_at(&[], 3.0), 1.0);
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(7), kernel(7));
        assert_ne!(kernel(7), kernel(8));
    }
}
