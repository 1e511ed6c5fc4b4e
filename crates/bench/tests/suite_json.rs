//! End-to-end checks of the workload suite: a real (miniature) run
//! round-trips through its own JSON parser, is deterministic in every
//! non-timing field, and the checked-in CI baseline stays parseable and
//! pinned to the generator's digest.

use qarith_bench::suite::{
    check_against_baseline, run_suite, SuiteConfig, SuiteReport, SCHEMA_VERSION,
};
use qarith_datagen::{QueryFamily, WorkloadScale};

/// A fast configuration: all three families (execution coverage — SQL
/// that merely *compiles* can still be rejected by the CQ executor),
/// one coarse ε, single rep.
fn mini_config() -> SuiteConfig {
    SuiteConfig {
        scale: WorkloadScale::Tiny,
        seed: 2020,
        families: QueryFamily::all().to_vec(),
        epsilons: vec![0.1],
        threads: 2,
        reps: 1,
    }
}

/// Copies a report with every wall-time zeroed, leaving only the
/// deterministic fields.
fn detimed(report: &SuiteReport) -> SuiteReport {
    let mut r = report.clone();
    for f in &mut r.families {
        for q in &mut f.queries {
            q.candidate_seconds = 0.0;
            for p in &mut q.points {
                p.seconds = 0.0;
            }
        }
    }
    r
}

#[test]
fn suite_round_trips_through_its_own_parser() {
    let report = run_suite(&mini_config());
    let text = report.to_json();
    let back = SuiteReport::from_json(&text).expect("suite JSON parses");
    assert_eq!(back, report, "write → parse must be lossless (bit-exact numbers)");
    // And a run compares clean against itself under the gate.
    assert_eq!(check_against_baseline(&report, &back, 0.25), Vec::<String>::new());
}

#[test]
fn suite_is_deterministic_apart_from_timings() {
    let a = run_suite(&mini_config());
    let b = run_suite(&mini_config());
    assert_eq!(detimed(&a), detimed(&b));
}

#[test]
fn suite_covers_all_pipelines_and_families() {
    let config = mini_config();
    let report = run_suite(&config);
    assert_eq!(report.pipelines(), vec!["seq", "batch", "rewrite"]);
    assert_eq!(report.families.len(), 3);
    for f in &report.families {
        for q in &f.queries {
            assert_eq!(q.points.len(), 3 * config.epsilons.len(), "{}/{}", f.family, q.name);
            for p in &q.points {
                assert!(
                    p.certainties.iter().all(|c| (0.0..=1.0).contains(c)),
                    "{}/{} [{}]: certainty out of range",
                    f.family,
                    q.name,
                    p.pipeline
                );
                assert_eq!(p.certainties.len() as u64, q.candidates);
            }
        }
    }
    // The division family must actually reach the rewrite pipeline's
    // exact routing (its reason to exist); sum exact_factors over it.
    let division = report.families.iter().find(|f| f.family == "division").unwrap();
    let exact: u64 = division
        .queries
        .iter()
        .flat_map(|q| &q.points)
        .filter_map(|p| p.rewrite.as_ref())
        .flat_map(|r| r.iter())
        .filter(|(k, _)| k == "exact_factors")
        .map(|(_, v)| *v)
        .sum();
    assert!(exact > 0, "division family routed no factor to an exact evaluator");
}

#[test]
fn checked_in_baseline_is_valid_and_pinned() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/BENCH_tiny.json");
    let text = std::fs::read_to_string(path).expect("baseline JSON is checked in");
    let baseline = SuiteReport::from_json(&text).expect("baseline parses");
    assert_eq!(baseline.schema_version, SCHEMA_VERSION);
    assert_eq!(baseline.scale, "tiny");
    assert_eq!(baseline.seed, 2020);
    // Must agree with the generator pins in
    // crates/datagen/tests/determinism.rs — same seed, same scale.
    assert_eq!(baseline.db_tuples, 200);
    assert_eq!(baseline.db_num_nulls, 47);
    assert_eq!(baseline.db_digest, "0x75dc0786674255e7");
    assert_eq!(baseline.pipelines(), vec!["seq", "batch", "rewrite"]);
    assert!(baseline.epsilons.len() >= 2, "CI gate needs ≥ 2 ε values");
    assert!(baseline.families.len() >= 2, "CI gate needs ≥ 2 families");
}
