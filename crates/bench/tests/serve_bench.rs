//! End-to-end checks of the serving-load bench on all three paths
//! (in-process, wire, mutate): a real (miniature) run round-trips
//! through its own JSON parser and reproduces the pinned certainty
//! digest, and the checked-in CI baselines stay parseable and pinned to
//! the generator's digest.

use std::collections::HashMap;

use qarith_bench::serve::{
    check_serve_baseline, run_serve_bench, LoadMode, ServeBenchConfig, ServeBenchReport, ServeKind,
    MUTATE_SHAPE,
};
use qarith_bench::suite::SCHEMA_VERSION;
use qarith_datagen::WorkloadScale;

/// A fast configuration: 2 clients × 1 pass, 1 rep, default families
/// at the baseline's ε/seed so the certainty digest must agree with
/// the checked-in one.
fn mini_config() -> ServeBenchConfig {
    ServeBenchConfig {
        clients: 2,
        passes: 1,
        reps: 1,
        ..ServeBenchConfig::default_for(WorkloadScale::Tiny)
    }
}

fn counters(block: &[(String, u64)]) -> HashMap<&str, u64> {
    block.iter().map(|(k, v)| (k.as_str(), *v)).collect()
}

fn baseline() -> ServeBenchReport {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/SERVE_tiny.json");
    let text = std::fs::read_to_string(path).expect("baseline JSON is checked in");
    ServeBenchReport::from_json(&text).expect("baseline parses")
}

#[test]
fn serve_run_round_trips_and_self_compares() {
    let report = run_serve_bench(&mini_config(), ServeKind::Serve);
    let back = ServeBenchReport::from_json(&report.to_json()).expect("serve JSON parses");
    assert_eq!(back, report, "write → parse must be lossless (bit-exact numbers)");
    assert_eq!(check_serve_baseline(&report, &back, 0.25), Vec::<String>::new());
    // 2 clients × 1 pass × 10 workload SQL strings (9 distinct
    // templates — "Unfair Discount" appears in two families).
    assert_eq!(report.requests, 20);
    assert_eq!(report.templates, 9);
}

#[test]
fn certainty_digest_is_independent_of_client_concurrency() {
    // The digest comes from the sequential reference pass, so any
    // client configuration at equal (scale, seed, ε, families) must
    // reproduce it — including the checked-in 4-client baseline.
    let a = run_serve_bench(&mini_config(), ServeKind::Serve);
    let b = run_serve_bench(&ServeBenchConfig { clients: 3, ..mini_config() }, ServeKind::Serve);
    assert_eq!(a.certainty_digest, b.certainty_digest);
    assert_eq!(a.certainty_digest, baseline().certainty_digest);
}

#[test]
fn checked_in_serve_baseline_is_valid_and_pinned() {
    let baseline = baseline();
    assert_eq!(baseline.schema_version, SCHEMA_VERSION);
    assert_eq!(baseline.scale, "tiny");
    assert_eq!(baseline.seed, 2020);
    // Must agree with the generator pins in
    // crates/datagen/tests/determinism.rs — same seed, same scale.
    assert_eq!(baseline.db_tuples, 200);
    assert_eq!(baseline.db_num_nulls, 47);
    assert_eq!(baseline.db_digest, "0x75dc0786674255e7");
    assert_eq!(baseline.mode, "closed");
    assert_eq!(baseline.clients, 4, "the CI gate serves 4 concurrent clients");
    assert_eq!(baseline.templates, 9, "10 workload queries share one template");
    assert!(baseline.latency.p50 <= baseline.latency.p95);
    assert!(baseline.latency.p95 <= baseline.latency.p99);
    assert!(baseline.latency.p99 <= baseline.latency.max);
}

#[test]
fn checked_in_wire_baseline_is_valid_and_pinned() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/SERVE_WIRE_tiny.json");
    let text = std::fs::read_to_string(path).expect("wire baseline JSON is checked in");
    let wire = ServeBenchReport::from_json(&text).expect("wire baseline parses");
    assert_eq!(wire.schema_version, SCHEMA_VERSION);
    assert_eq!(wire.kind, "wire");
    assert_eq!(wire.scale, "tiny");
    assert_eq!(wire.seed, 2020);
    assert_eq!(wire.db_digest, "0x75dc0786674255e7");
    assert_eq!(wire.clients, 4, "the CI net-smoke gate serves 4 concurrent wire clients");
    // The wire carries exactly the bits the in-process service
    // produces: both baselines pin the same certainty digest.
    assert_eq!(wire.certainty_digest, baseline().certainty_digest);
    // And its connection books are closed: one reply per request,
    // nothing left open after the drain.
    let net = counters(&wire.net);
    assert_eq!(net["frames_in"], net["frames_out"]);
    assert_eq!(net["connections_active"], 0);
    assert_eq!(net["connections_opened"], net["connections_closed"]);
    assert_eq!(net["protocol_errors"], 0);
}

#[test]
fn open_loop_mode_records_schedule_latency() {
    let config = ServeBenchConfig { mode: LoadMode::Open, rate: 2000.0, ..mini_config() };
    let report = run_serve_bench(&config, ServeKind::Serve);
    assert_eq!(report.mode, "open");
    assert_eq!(report.rate, 2000.0);
    // Same population, same digest: the load mode is timing-only.
    assert_eq!(report.certainty_digest, baseline().certainty_digest);
}

#[test]
fn wire_reports_round_trip_and_pin_the_serve_digest() {
    let config = ServeBenchConfig { epsilon: 0.1, ..mini_config() };
    let wire = run_serve_bench(&config, ServeKind::Wire);
    assert_eq!(wire.kind, "wire");
    // 2 clients × 1 pass × 10 workload SQL strings.
    assert_eq!(wire.requests, 20);
    // The net block closed its books: every request framed in got
    // exactly one reply framed out, and nothing is still open.
    let net = counters(&wire.net);
    assert_eq!(net["frames_in"], wire.requests);
    assert_eq!(net["frames_out"], wire.requests);
    assert_eq!(net["protocol_errors"], 0);
    assert_eq!(net["connections_active"], 0);
    assert_eq!(net["connections_opened"], net["connections_closed"]);

    // The stages block saw every framed request cross the wire
    // stages, plus the reference pass on the in-process route.
    let stage = |name: &str| {
        wire.stages
            .iter()
            .find(|s| s.stage == name)
            .unwrap_or_else(|| panic!("wire report without a `{name}` stage: {:?}", wire.stages))
    };
    assert_eq!(stage("frame_decode").count, wire.requests);
    assert_eq!(stage("frame_encode").count, wire.requests);
    assert!(stage("total").count >= wire.requests, "reference pass also counts");

    let back = ServeBenchReport::from_json(&wire.to_json()).expect("parse own output");
    assert_eq!(back, wire);

    // Same config in-process: identical certainty digest — the wire
    // carries exactly the bits the service produced.
    let serve = run_serve_bench(&config, ServeKind::Serve);
    assert_eq!(serve.certainty_digest, wire.certainty_digest);
    assert!(serve.net.is_empty(), "in-process runs carry an empty net block");

    // The gate refuses to compare a wire run against a serve baseline:
    // they measure different paths.
    let failures = check_serve_baseline(&wire, &serve, 0.25);
    assert!(failures.iter().any(|f| f.contains("kind")), "{failures:?}");
}

#[test]
fn open_loop_wire_latency_counts_from_the_schedule() {
    let config =
        ServeBenchConfig { epsilon: 0.1, mode: LoadMode::Open, rate: 50.0, ..mini_config() };
    let report = run_serve_bench(&config, ServeKind::Wire);
    assert_eq!(report.mode, "open");
    assert_eq!(report.rate, 50.0);
    // 20 requests at 50/s occupy ≥ 19 schedule intervals: the arrival
    // schedule, not completion, paces the run.
    assert!(
        report.seconds >= 19.0 / 50.0,
        "open loop finished faster than its own schedule ({}s)",
        report.seconds
    );
}

#[test]
fn mutate_report_round_trips_and_counts_add_up() {
    // Clients, mode, and rate are ignored on the write path; the
    // report pins the single-threaded closed loop that actually ran.
    let config = ServeBenchConfig { mode: LoadMode::Open, rate: 50.0, ..mini_config() };
    let report = run_serve_bench(&config, ServeKind::Mutate);
    assert_eq!(report.kind, "mutate");
    assert_eq!((report.clients, report.mode.as_str(), report.rate), (1, "closed", 0.0));
    assert_eq!(report.passes, MUTATE_SHAPE.batches as u64);
    assert_eq!(report.requests, (MUTATE_SHAPE.batches * (1 + 10)) as u64);
    let service = counters(&report.service);
    assert_eq!(service["writes"], MUTATE_SHAPE.batches as u64);
    assert_eq!(service["write_ops"], MUTATE_SHAPE.total_ops() as u64);
    assert_eq!(service["epoch"], MUTATE_SHAPE.batches as u64);
    assert!(counters(&report.cache)["invalidations"] > 0, "writes must invalidate");
    // The write stages fired and landed in the report.
    for stage in ["write_apply", "invalidate"] {
        let row = report.stages.iter().find(|s| s.stage == stage).expect("stage present");
        assert_eq!(row.count, MUTATE_SHAPE.batches as u64);
    }
    let back = ServeBenchReport::from_json(&report.to_json()).expect("parse own output");
    assert_eq!(back, report);
}

#[test]
fn mutate_certainty_digest_is_reproducible_and_epoch0_pinned() {
    let config = ServeBenchConfig { reps: 2, ..mini_config() };
    let a = run_serve_bench(&config, ServeKind::Mutate);
    let b = run_serve_bench(&config, ServeKind::Mutate);
    assert_eq!(a.certainty_digest, b.certainty_digest);
    assert_eq!(a.db_digest, b.db_digest);
    // Pinned before any write: the same digest the read-only
    // baseline carries.
    assert_eq!(a.certainty_digest, baseline().certainty_digest);
    // Every rep replayed the stream on a pristine service, so the
    // reported one ends exactly one epoch per batch past the start.
    assert_eq!(counters(&a.service)["epoch"], MUTATE_SHAPE.batches as u64);
}
