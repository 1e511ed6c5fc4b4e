//! Determinism contract of the workload generator: for a fixed
//! [`WorkloadSpec`] the generated database is bit-identical across runs,
//! threads, and (by pinning digests here) hosts and toolchain updates.
//! The CI perf baseline (`crates/bench/baselines/`) compares certainty
//! values bit-for-bit, which is only sound if the underlying data never
//! moves; these pins are the early tripwire.

use std::thread;

use qarith_datagen::sales::sales_database;
use qarith_datagen::{QueryFamily, WorkloadScale, WorkloadSpec};
use qarith_types::database_digest;

/// The seed every pinned digest below uses (the bench suite's default).
const SEED: u64 = 2020;

/// (scale, exact tuple count, exact numerical-null count, FNV-1a digest)
/// for seed 2020. If a change to the generator is *intentional*, re-pin
/// with `database_digest` and regenerate the bench baseline JSON in the
/// same PR — certainties will have moved too.
const PINS: [(WorkloadScale, usize, usize, u64); 3] = [
    (WorkloadScale::Tiny, 200, 47, 0x75dc0786674255e7),
    (WorkloadScale::Small, 2_000, 254, 0xde9b7def27dc8d3f),
    (WorkloadScale::Medium, 20_000, 1_399, 0x9660838d5dab48d9),
];

#[test]
fn pinned_counts_and_digests() {
    for (scale, tuples, num_nulls, digest) in PINS {
        let db = sales_database(&scale.params(), SEED);
        let stats = db.stats();
        assert_eq!(stats.tuples, tuples, "{} tuple count", scale.name());
        assert_eq!(stats.num_nulls, num_nulls, "{} null count", scale.name());
        assert_eq!(database_digest(&db), digest, "{} digest", scale.name());
    }
}

#[test]
fn spec_expected_tuples_matches_generation() {
    for (scale, tuples, ..) in PINS {
        let spec = WorkloadSpec { scale, family: QueryFamily::Sales, seed: SEED };
        assert_eq!(spec.expected_tuples(), tuples);
        assert_eq!(spec.build().db.stats().tuples, tuples);
    }
}

#[test]
fn generation_is_thread_independent() {
    // Generate the same spec concurrently from several threads and from
    // the main thread; every copy must digest identically. (The
    // generator is a value type seeded per call — this guards against
    // anyone ever threading global state through it.)
    for (scale, _, _, digest) in PINS {
        let handles: Vec<_> = (0..4)
            .map(|_| thread::spawn(move || database_digest(&sales_database(&scale.params(), SEED))))
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("generator thread"), digest, "{}", scale.name());
        }
    }
}

#[test]
fn distinct_seeds_and_scales_disagree() {
    let tiny = WorkloadScale::Tiny.params();
    assert_ne!(
        database_digest(&sales_database(&tiny, SEED)),
        database_digest(&sales_database(&tiny, SEED + 1)),
        "digest must be seed-sensitive"
    );
    let mut digests: Vec<u64> = PINS.iter().map(|p| p.3).collect();
    digests.sort();
    digests.dedup();
    assert_eq!(digests.len(), PINS.len(), "scales must not collide");
}
