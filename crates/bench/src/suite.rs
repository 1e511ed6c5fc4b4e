//! The multi-scale workload suite behind the `bench_suite` binary.
//!
//! One [`SuiteConfig`] names a database scale, a seed, a set of query
//! families, and an ε ladder. [`run_suite`] drives every family's
//! queries through the three measurement pipelines —
//!
//! * `seq` — the paper's per-candidate AFPRAS loop
//!   ([`crate::Fig1Harness::run_epsilon`]);
//! * `batch` — PR 2's canonical-dedup + parallel fan-out engine
//!   (bit-identical estimates to `seq` for a fixed seed);
//! * `rewrite` — PR 3's simplification + independence-decomposition
//!   pipeline (ε-additive, not bit-identical) —
//!
//! recording wall time, fresh Monte-Carlo direction counts,
//! dedup/cache/factorization counters, and the full per-candidate
//! certainty vectors. Serving throughput over a warm cache is
//! `serve_bench`'s job ([`crate::serve`]).
//!
//! The result serializes to the schema-versioned `BENCH_*.json`
//! trajectory ([`SuiteReport::to_json`]) and parses back
//! ([`SuiteReport::from_json`]); [`check_against_baseline`] is the CI
//! gate — any certainty drift, or a wall-time regression beyond the
//! tolerance, fails the `perf-smoke` job.
//!
//! Determinism contract: for a fixed config, every value in the report
//! except the `*_seconds` timings and the machine-dependent
//! `batch.threads` counter is reproducible bit for bit across runs and
//! hosts (see `crates/datagen/tests/determinism.rs` for the data side).
//! The baseline check exploits this: certainties are compared exactly,
//! only timings get a tolerance.

use std::sync::Arc;

use qarith_core::{BatchOptions, BatchStats, ShardedNuCache};
use qarith_datagen::{QueryFamily, WorkloadScale, WorkloadSpec};
use qarith_types::database_digest;

use crate::json::{
    counters_from_json, counters_to_json, pairs, parse_document, req, req_arr, req_f64,
    req_f64_arr, req_str, req_u64, Json,
};
use crate::{secs, BatchPoint, Fig1Harness};

/// Version of the `BENCH_*.json` schema. Bump when a field is renamed,
/// removed, or changes meaning; the baseline check refuses to compare
/// across versions.
///
/// **v2** (PR 5): documents carry a `kind` discriminator — `"suite"`
/// for [`SuiteReport`] (the only kind v1 had) and `"serve"` for the
/// serving-load reports of [`crate::serve`] (`serve_bench`), which add
/// p50/p95/p99 latency percentiles, throughput, and the
/// plan/shard/admission counter blocks.
///
/// **v3** (PR 7): adds the `"wire"` document kind — `serve_bench
/// --wire` runs the same serving load through real loopback sockets
/// and the framed protocol of `qarith-net`. Wire documents share the
/// serve-report shape and additionally carry a `net` counter block
/// ([`qarith_net::NetStats::as_pairs`] names). Serve documents gain
/// the same field as an empty object.
///
/// **v4** (PR 8): serve/wire documents carry a `stages` block — the
/// per-stage latency summaries (count, p50/p95/p99 in seconds, bucket
/// upper bounds from the `qarith-trace` histograms) of the run's full
/// lifetime, keyed by stage wire name. Informational, not gated: the
/// gated quantities stay the certainty digest and end-to-end p95.
///
/// **v4 addendum** (PR 9): a fourth document kind, `"kernel"` — the
/// sampling-kernel microbench of [`crate::kernel`] (`kernel_bench`),
/// gating the blocked kernel's hits digest, allocs-per-sample pin, and
/// directions/sec against `baselines/KERNEL_*.json`. Additive (no
/// existing document changes shape), so the version stays 4.
///
/// Parsers read v4 only: every field above is required, so an older
/// document fails on its first missing field.
pub const SCHEMA_VERSION: u64 = 4;

/// The schema identifier stored in every report.
pub const SCHEMA_NAME: &str = "qarith-bench-suite";

/// The default ε ladder: coarse → fine, spanning a 25× direction-count
/// range (`m = ⌈ε⁻²⌉`: 100, 400, 2500).
pub fn default_epsilons() -> Vec<f64> {
    vec![0.10, 0.05, 0.02]
}

/// Configuration of one suite run.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// Database scale.
    pub scale: WorkloadScale,
    /// Generation + sampling seed.
    pub seed: u64,
    /// Query families to run, in order.
    pub families: Vec<QueryFamily>,
    /// The ε ladder (each point runs all three pipelines).
    pub epsilons: Vec<f64>,
    /// Worker threads for the batch engine.
    pub threads: usize,
    /// Timed cold repetitions per point (fresh caches each rep); the
    /// recorded wall time is the **minimum** over them (the
    /// noise-robust estimator — scheduler interference only ever adds
    /// time). One additional untimed recording run per point feeds the
    /// shared caches and provides estimates/counters. Must be ≥ 1.
    pub reps: usize,
}

impl SuiteConfig {
    /// The default configuration at a scale: all three families, the
    /// default ε ladder, 4 batch workers, 3 reps.
    pub fn default_for(scale: WorkloadScale) -> SuiteConfig {
        SuiteConfig {
            scale,
            seed: 2020,
            families: QueryFamily::all().to_vec(),
            epsilons: default_epsilons(),
            threads: 4,
            reps: 3,
        }
    }

    fn batch(&self) -> BatchOptions {
        BatchOptions { threads: self.threads, dedup: true }
    }
}

/// One pipeline's measurement of one query at one ε.
#[derive(Clone, Debug, PartialEq)]
pub struct PointReport {
    /// `"seq"`, `"batch"`, or `"rewrite"`.
    pub pipeline: String,
    /// Error level.
    pub epsilon: f64,
    /// Wall-clock seconds of the measurement phase.
    pub seconds: f64,
    /// Monte-Carlo directions actually sampled (certain candidates and
    /// dedup/cache-served estimates contribute 0).
    pub directions: u64,
    /// Batch accounting ([`BatchStats::as_pairs`] names); `None` for the
    /// sequential pipeline, which has no batch machinery.
    pub batch: Option<Vec<(String, u64)>>,
    /// Rewrite accounting ([`qarith_core::RewriteStats::as_pairs`]
    /// names); `None` unless the pipeline rewrites.
    pub rewrite: Option<Vec<(String, u64)>>,
    /// Per-candidate certainties, in candidate order.
    pub certainties: Vec<f64>,
}

/// One query's measurements across the ε ladder and pipelines.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryReport {
    /// Query display name.
    pub name: String,
    /// SQL text.
    pub sql: String,
    /// Candidates returned by the executor.
    pub candidates: u64,
    /// Thereof uncertain (needing measurement).
    pub uncertain: u64,
    /// Seconds spent generating candidates (once per query).
    pub candidate_seconds: f64,
    /// Measurements, grouped ε-major then pipeline (`seq`, `batch`,
    /// `rewrite`).
    pub points: Vec<PointReport>,
}

/// One family's queries.
#[derive(Clone, Debug, PartialEq)]
pub struct FamilyReport {
    /// Family name ([`QueryFamily::name`]).
    pub family: String,
    /// Query reports, in the family's fixed order.
    pub queries: Vec<QueryReport>,
}

/// A full suite run: the machine-readable perf artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct SuiteReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Scale name.
    pub scale: String,
    /// Seed.
    pub seed: u64,
    /// Batch worker threads configured.
    pub threads: u64,
    /// Timed repetitions per point (min-of-reps timing).
    pub reps: u64,
    /// The ε ladder.
    pub epsilons: Vec<f64>,
    /// Generated tuples.
    pub db_tuples: u64,
    /// Generated numerical nulls.
    pub db_num_nulls: u64,
    /// [`database_digest`] of the generated database, hex.
    pub db_digest: String,
    /// Per-family reports.
    pub families: Vec<FamilyReport>,
}

fn fresh_directions(estimates: &[qarith_core::CertaintyEstimate]) -> u64 {
    estimates.iter().filter(|e| !e.cached).map(|e| e.samples as u64).sum()
}

fn batch_point_report(pipeline: &str, point: &BatchPoint, rewrites: bool) -> PointReport {
    let BatchStats { rewrite, .. } = point.stats;
    PointReport {
        pipeline: pipeline.to_string(),
        epsilon: point.epsilon,
        seconds: secs(point.time),
        directions: fresh_directions(&point.estimates),
        batch: Some(pairs(&point.stats.as_pairs())),
        rewrite: rewrites.then(|| pairs(&rewrite.as_pairs())),
        certainties: point.estimates.iter().map(|e| e.value).collect(),
    }
}

/// Runs the configured suite and collects the report.
///
/// Estimator invariants are asserted inline: batch estimates must be
/// bit-identical to sequential ones, rewritten estimates within 2ε of
/// them (the same checks `fig1 --rewrite` enforces).
pub fn run_suite(config: &SuiteConfig) -> SuiteReport {
    let sample_seed = config.seed ^ 0xF1616;
    let mut families = Vec::with_capacity(config.families.len());
    // Generate the database once (the spec's scale and seed are shared
    // by every family) and give each family's harness a clone — cloning
    // is a fraction of regeneration, which matters at the paper scale.
    let db = qarith_datagen::sales::sales_database(&config.scale.params(), config.seed);
    let db_stats = db.stats();
    let db_digest = format!("{:#018x}", database_digest(&db));
    let mut harnesses = Vec::with_capacity(config.families.len());
    for &family in &config.families {
        let spec = WorkloadSpec { scale: config.scale, family, seed: config.seed };
        let workload = qarith_datagen::Workload { spec, db: db.clone(), queries: family.queries() };
        let harness = Fig1Harness::from_workload(workload);
        harnesses.push((
            family,
            harness,
            Arc::new(ShardedNuCache::default()),
            Arc::new(ShardedNuCache::default()),
        ));
    }

    for (family, harness, batch_cache, rewrite_cache) in &harnesses {
        let mut queries = Vec::with_capacity(harness.queries.len());
        for (qi, q) in harness.queries.iter().enumerate() {
            let mut points = Vec::with_capacity(3 * config.epsilons.len());
            for &eps in &config.epsilons {
                // Cold timed repetitions: fresh per-rep caches, so every
                // rep measures the cold path; the recorded time is the
                // minimum (noise only ever adds). The batch/rewrite
                // recording runs afterwards share one cache per family
                // and provide the recorded counters — they may be
                // partially cache-served, so their times are never
                // used. The sequential pipeline has no cache to feed
                // and is deterministic, so any cold rep's estimates
                // serve as its recording run.
                let mut seq_secs = f64::INFINITY;
                let mut batch_secs = f64::INFINITY;
                let mut rewrite_secs = f64::INFINITY;
                let mut seq_point = None;
                for _ in 0..config.reps.max(1) {
                    let cold_seq = harness.run_epsilon(qi, eps, sample_seed);
                    seq_secs = seq_secs.min(secs(cold_seq.time));
                    seq_point = Some(cold_seq);
                    let cold = harness.run_epsilon_batch(
                        qi,
                        eps,
                        sample_seed,
                        config.batch(),
                        Some(Arc::new(ShardedNuCache::default())),
                    );
                    batch_secs = batch_secs.min(secs(cold.time));
                    let cold_rw = harness.run_epsilon_rewritten(
                        qi,
                        eps,
                        sample_seed,
                        config.batch(),
                        Some(Arc::new(ShardedNuCache::default())),
                    );
                    rewrite_secs = rewrite_secs.min(secs(cold_rw.time));
                }
                let seq = seq_point.expect("reps ≥ 1");
                let batch = harness.run_epsilon_batch(
                    qi,
                    eps,
                    sample_seed,
                    config.batch(),
                    Some(batch_cache.clone()),
                );
                for (s, b) in seq.estimates.iter().zip(&batch.estimates) {
                    assert_eq!(
                        s.value.to_bits(),
                        b.value.to_bits(),
                        "batch must be bit-identical to sequential ({}/{}, ε = {eps})",
                        family.name(),
                        q.name
                    );
                }
                let rewritten = harness.run_epsilon_rewritten(
                    qi,
                    eps,
                    sample_seed,
                    config.batch(),
                    Some(rewrite_cache.clone()),
                );
                for (s, r) in seq.estimates.iter().zip(&rewritten.estimates) {
                    assert!(
                        (s.value - r.value).abs() <= 2.0 * eps + 1e-9,
                        "rewritten estimate outside 2ε of sequential ({}/{}, ε = {eps}: {} vs {})",
                        family.name(),
                        q.name,
                        r.value,
                        s.value
                    );
                }
                points.push(PointReport {
                    pipeline: "seq".into(),
                    epsilon: eps,
                    seconds: seq_secs,
                    directions: fresh_directions(&seq.estimates),
                    batch: None,
                    rewrite: None,
                    certainties: seq.estimates.iter().map(|e| e.value).collect(),
                });
                let mut batch_report = batch_point_report("batch", &batch, false);
                batch_report.seconds = batch_secs;
                points.push(batch_report);
                let mut rewrite_report = batch_point_report("rewrite", &rewritten, true);
                rewrite_report.seconds = rewrite_secs;
                points.push(rewrite_report);
            }
            queries.push(QueryReport {
                name: q.name.clone(),
                sql: q.sql.clone(),
                candidates: q.candidates.len() as u64,
                uncertain: harness.uncertain_count(qi) as u64,
                candidate_seconds: secs(q.candidate_time),
                points,
            });
        }
        families.push(FamilyReport { family: family.name().to_string(), queries });
    }

    let stats = db_stats;
    SuiteReport {
        schema_version: SCHEMA_VERSION,
        scale: config.scale.name().to_string(),
        seed: config.seed,
        threads: config.threads as u64,
        reps: config.reps.max(1) as u64,
        epsilons: config.epsilons.clone(),
        db_tuples: stats.tuples as u64,
        db_num_nulls: stats.num_nulls as u64,
        db_digest,
        families,
    }
}

// ---------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------

impl PointReport {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("pipeline".to_string(), Json::str(&self.pipeline)),
            ("epsilon".to_string(), Json::Num(self.epsilon)),
            ("seconds".to_string(), Json::Num(self.seconds)),
            ("directions".to_string(), Json::num_u64(self.directions)),
        ];
        if let Some(batch) = &self.batch {
            pairs.push(("batch".to_string(), counters_to_json(batch)));
        }
        if let Some(rewrite) = &self.rewrite {
            pairs.push(("rewrite".to_string(), counters_to_json(rewrite)));
        }
        pairs.push((
            "certainties".to_string(),
            Json::Arr(self.certainties.iter().map(|&c| Json::Num(c)).collect()),
        ));
        Json::Obj(pairs)
    }

    fn from_json(v: &Json) -> Result<PointReport, String> {
        Ok(PointReport {
            pipeline: req_str(v, "pipeline")?,
            epsilon: req_f64(v, "epsilon")?,
            seconds: req_f64(v, "seconds")?,
            directions: req_u64(v, "directions")?,
            batch: v.get("batch").map(|b| counters_from_json(b, "batch")).transpose()?,
            rewrite: v.get("rewrite").map(|r| counters_from_json(r, "rewrite")).transpose()?,
            certainties: req_f64_arr(v, "certainties")?,
        })
    }
}

impl QueryReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("sql", Json::str(&self.sql)),
            ("candidates", Json::num_u64(self.candidates)),
            ("uncertain", Json::num_u64(self.uncertain)),
            ("candidate_seconds", Json::Num(self.candidate_seconds)),
            ("points", Json::Arr(self.points.iter().map(PointReport::to_json).collect())),
        ])
    }

    fn from_json(v: &Json) -> Result<QueryReport, String> {
        Ok(QueryReport {
            name: req_str(v, "name")?,
            sql: req_str(v, "sql")?,
            candidates: req_u64(v, "candidates")?,
            uncertain: req_u64(v, "uncertain")?,
            candidate_seconds: req_f64(v, "candidate_seconds")?,
            points: req_arr(v, "points")?
                .iter()
                .map(PointReport::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl SuiteReport {
    /// Serializes to the pretty-printed `BENCH_*.json` document.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("schema", Json::str(SCHEMA_NAME)),
            ("schema_version", Json::num_u64(self.schema_version)),
            ("kind", Json::str("suite")),
            ("scale", Json::str(&self.scale)),
            ("seed", Json::num_u64(self.seed)),
            ("threads", Json::num_u64(self.threads)),
            ("reps", Json::num_u64(self.reps)),
            ("epsilons", Json::Arr(self.epsilons.iter().map(|&e| Json::Num(e)).collect())),
            (
                "db",
                Json::obj([
                    ("tuples", Json::num_u64(self.db_tuples)),
                    ("num_nulls", Json::num_u64(self.db_num_nulls)),
                    ("digest", Json::str(&self.db_digest)),
                ]),
            ),
            (
                "families",
                Json::Arr(
                    self.families
                        .iter()
                        .map(|f| {
                            Json::obj([
                                ("family", Json::str(&f.family)),
                                (
                                    "queries",
                                    Json::Arr(f.queries.iter().map(QueryReport::to_json).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .pretty()
    }

    /// Parses a document produced by [`SuiteReport::to_json`]. Rejects
    /// unknown schema names and future schema versions.
    pub fn from_json(text: &str) -> Result<SuiteReport, String> {
        let (doc, schema_version, _) = parse_document(text, &["suite"])?;
        let db = req(&doc, "db")?;
        let families = req_arr(&doc, "families")?
            .iter()
            .map(|f| {
                Ok(FamilyReport {
                    family: req_str(f, "family")?,
                    queries: req_arr(f, "queries")?
                        .iter()
                        .map(QueryReport::from_json)
                        .collect::<Result<_, String>>()?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(SuiteReport {
            schema_version,
            scale: req_str(&doc, "scale")?,
            seed: req_u64(&doc, "seed")?,
            threads: req_u64(&doc, "threads")?,
            reps: req_u64(&doc, "reps")?,
            epsilons: req_f64_arr(&doc, "epsilons")?,
            db_tuples: req_u64(db, "tuples")?,
            db_num_nulls: req_u64(db, "num_nulls")?,
            db_digest: req_str(db, "digest")?,
            families,
        })
    }

    /// Total measurement seconds of one pipeline across all families,
    /// queries, and ε points (the quantity the wall-time gate compares).
    pub fn total_seconds(&self, pipeline: &str) -> f64 {
        self.families
            .iter()
            .flat_map(|f| &f.queries)
            .flat_map(|q| &q.points)
            .filter(|p| p.pipeline == pipeline)
            .map(|p| p.seconds)
            .sum()
    }

    /// The pipelines present in the report, in first-appearance order.
    pub fn pipelines(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for p in self.families.iter().flat_map(|f| &f.queries).flat_map(|q| &q.points) {
            if !out.contains(&p.pipeline) {
                out.push(p.pipeline.clone());
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Baseline gate
// ---------------------------------------------------------------------

/// Compares a fresh report against a checked-in baseline. Returns the
/// list of failures (empty ⇒ gate passes).
///
/// * **Configuration** must match exactly: schema version, scale, seed,
///   ε ladder, families, queries, candidate/uncertain counts, database
///   digest. A mismatch means the two reports measure different things.
/// * **Certainties** must match bit for bit per (family, query,
///   pipeline, ε): the pipelines are deterministic under a fixed seed,
///   so *any* drift is a behavioral regression (or an intentional
///   change that must re-pin the baseline in the same commit).
/// * **Wall time** is gated per pipeline on the suite-wide total, with
///   the given relative tolerance (machine noise ≫ per-point noise; the
///   issue-level contract is "no >25 % regression").
/// * Counters (`directions`, the `batch` dedup/cache block, the
///   `rewrite` factorization block) are compared exactly, **except**
///   `batch.threads`, which is capped by the runner's available
///   parallelism and therefore machine-dependent. A counter block
///   present on only one side is a failure.
pub fn check_against_baseline(
    fresh: &SuiteReport,
    baseline: &SuiteReport,
    time_tolerance: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut cfg = |name: &str, a: String, b: String| {
        if a != b {
            failures.push(format!("config mismatch: {name} is {a}, baseline has {b}"));
        }
    };
    cfg("schema_version", fresh.schema_version.to_string(), baseline.schema_version.to_string());
    cfg("scale", fresh.scale.clone(), baseline.scale.clone());
    cfg("seed", fresh.seed.to_string(), baseline.seed.to_string());
    cfg("threads", fresh.threads.to_string(), baseline.threads.to_string());
    cfg("reps", fresh.reps.to_string(), baseline.reps.to_string());
    cfg("epsilons", format!("{:?}", fresh.epsilons), format!("{:?}", baseline.epsilons));
    cfg("db.digest", fresh.db_digest.clone(), baseline.db_digest.clone());
    cfg("db.tuples", fresh.db_tuples.to_string(), baseline.db_tuples.to_string());
    if !failures.is_empty() {
        return failures;
    }

    if fresh.families.len() != baseline.families.len() {
        failures.push(format!(
            "family count changed: {} vs baseline {}",
            fresh.families.len(),
            baseline.families.len()
        ));
        return failures;
    }
    for (f, b) in fresh.families.iter().zip(&baseline.families) {
        if f.family != b.family || f.queries.len() != b.queries.len() {
            failures.push(format!(
                "family `{}` ({} queries) does not line up with baseline `{}` ({} queries)",
                f.family,
                f.queries.len(),
                b.family,
                b.queries.len()
            ));
            continue;
        }
        for (q, bq) in f.queries.iter().zip(&b.queries) {
            let ctx = format!("{}/{}", f.family, q.name);
            if q.name != bq.name || q.candidates != bq.candidates || q.uncertain != bq.uncertain {
                failures.push(format!(
                    "{ctx}: candidates {}/{} uncertain vs baseline {} `{}` {}/{}",
                    q.candidates, q.uncertain, bq.name, bq.name, bq.candidates, bq.uncertain
                ));
                continue;
            }
            if q.points.len() != bq.points.len() {
                failures.push(format!(
                    "{ctx}: {} points vs baseline {}",
                    q.points.len(),
                    bq.points.len()
                ));
                continue;
            }
            for (p, bp) in q.points.iter().zip(&bq.points) {
                let pctx = format!("{ctx} [{} ε={}]", p.pipeline, p.epsilon);
                if p.pipeline != bp.pipeline || p.epsilon != bp.epsilon {
                    failures.push(format!(
                        "{pctx}: point order differs from baseline [{} ε={}]",
                        bp.pipeline, bp.epsilon
                    ));
                    continue;
                }
                if p.certainties.len() != bp.certainties.len() {
                    failures.push(format!(
                        "{pctx}: {} certainties vs baseline {}",
                        p.certainties.len(),
                        bp.certainties.len()
                    ));
                    continue;
                }
                for (i, (c, bc)) in p.certainties.iter().zip(&bp.certainties).enumerate() {
                    if c.to_bits() != bc.to_bits() {
                        failures.push(format!(
                            "{pctx}: certainty drift at candidate {i}: {c} vs baseline {bc}"
                        ));
                        break;
                    }
                }
                if p.directions != bp.directions {
                    failures.push(format!(
                        "{pctx}: direction count changed: {} vs baseline {}",
                        p.directions, bp.directions
                    ));
                }
                // `threads` is capped by the runner's available
                // parallelism, so it is the one machine-dependent
                // counter; everything else is deterministic.
                compare_counters(&mut failures, &pctx, "batch", &p.batch, &bp.batch, &["threads"]);
                compare_counters(&mut failures, &pctx, "rewrite", &p.rewrite, &bp.rewrite, &[]);
            }
        }
    }

    for pipeline in baseline.pipelines() {
        let base = baseline.total_seconds(&pipeline);
        let now = fresh.total_seconds(&pipeline);
        if base > 0.0 && now > base * (1.0 + time_tolerance) {
            failures.push(format!(
                "pipeline `{pipeline}` wall time regressed: {now:.4}s vs baseline {base:.4}s \
                 (+{:.0}% > {:.0}% tolerance)",
                100.0 * (now / base - 1.0),
                100.0 * time_tolerance
            ));
        }
    }
    failures
}

/// Counter-block comparison for the gate: exact equality modulo the
/// `skip`ped (machine-dependent) names; presence must agree.
fn compare_counters(
    failures: &mut Vec<String>,
    pctx: &str,
    what: &str,
    fresh: &Option<Vec<(String, u64)>>,
    baseline: &Option<Vec<(String, u64)>>,
    skip: &[&str],
) {
    let filtered = |v: &[(String, u64)]| -> Vec<(String, u64)> {
        v.iter().filter(|(k, _)| !skip.contains(&k.as_str())).cloned().collect()
    };
    match (fresh, baseline) {
        (None, None) => {}
        (Some(c), Some(bc)) => {
            if filtered(c) != filtered(bc) {
                failures.push(format!("{pctx}: {what} counters changed: {c:?} vs baseline {bc:?}"));
            }
        }
        (c, bc) => failures.push(format!(
            "{pctx}: {what} counter block present on only one side \
             (fresh: {}, baseline: {})",
            c.is_some(),
            bc.is_some()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> SuiteReport {
        SuiteReport {
            schema_version: SCHEMA_VERSION,
            scale: "tiny".into(),
            seed: 2020,
            threads: 4,
            reps: 3,
            epsilons: vec![0.1, 0.05],
            db_tuples: 200,
            db_num_nulls: 47,
            db_digest: "0x75dc0786674255e7".into(),
            families: vec![FamilyReport {
                family: "sales".into(),
                queries: vec![QueryReport {
                    name: "Q".into(),
                    sql: "SELECT …".into(),
                    candidates: 3,
                    uncertain: 2,
                    candidate_seconds: 0.001,
                    points: vec![
                        PointReport {
                            pipeline: "seq".into(),
                            epsilon: 0.1,
                            seconds: 0.5,
                            directions: 200,
                            batch: None,
                            rewrite: None,
                            certainties: vec![1.0, 0.5, 0.25],
                        },
                        PointReport {
                            pipeline: "batch".into(),
                            epsilon: 0.1,
                            seconds: 0.25,
                            directions: 100,
                            batch: Some(vec![("groups".into(), 1)]),
                            rewrite: Some(vec![("factors".into(), 2)]),
                            certainties: vec![1.0, 0.5, 0.25],
                        },
                    ],
                }],
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = tiny_report();
        let text = report.to_json();
        let back = SuiteReport::from_json(&text).expect("parse own output");
        assert_eq!(back, report);
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let report = tiny_report();
        assert_eq!(check_against_baseline(&report, &report, 0.25), Vec::<String>::new());
    }

    #[test]
    fn certainty_drift_fails_the_gate() {
        let baseline = tiny_report();
        let mut fresh = baseline.clone();
        fresh.families[0].queries[0].points[0].certainties[1] = 0.5000001;
        let failures = check_against_baseline(&fresh, &baseline, 0.25);
        assert!(failures.iter().any(|f| f.contains("certainty drift")), "{failures:?}");
    }

    #[test]
    fn slow_run_fails_and_tolerated_run_passes() {
        let baseline = tiny_report();
        let mut fresh = baseline.clone();
        for p in &mut fresh.families[0].queries[0].points {
            p.seconds *= 1.2; // +20% < 25% tolerance
        }
        assert_eq!(check_against_baseline(&fresh, &baseline, 0.25), Vec::<String>::new());
        for p in &mut fresh.families[0].queries[0].points {
            p.seconds *= 1.2; // now +44%
        }
        let failures = check_against_baseline(&fresh, &baseline, 0.25);
        assert!(failures.iter().any(|f| f.contains("wall time regressed")), "{failures:?}");
    }

    #[test]
    fn config_mismatch_fails_fast() {
        let baseline = tiny_report();
        let mut fresh = baseline.clone();
        fresh.seed = 7;
        fresh.db_digest = "0xdead".into();
        let failures = check_against_baseline(&fresh, &baseline, 0.25);
        assert!(failures.iter().any(|f| f.contains("seed")), "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("db.digest")), "{failures:?}");
    }

    #[test]
    fn newer_schema_versions_are_rejected() {
        let mut report = tiny_report();
        report.schema_version = SCHEMA_VERSION + 1;
        let text = report.to_json();
        assert!(SuiteReport::from_json(&text).unwrap_err().contains("newer"));
    }
}
