//! The sampling-kernel microbench behind the `kernel_bench` binary.
//!
//! PR 9 restructured the AFPRAS hot loop — blocked structure-of-arrays
//! direction generation, the lane-parallel `limit_truth_block`
//! evaluator, and template-shared sampling across formulas with equal
//! sampled dimension (`estimate_nu_compiled_many`) — under a hard
//! bit-pinning contract: hits (and therefore every checked-in certainty
//! digest) must be unchanged. This module measures that kernel in
//! isolation, on the real workload's compiled formulas, and pins three
//! things in a schema-versioned `kernel` document that CI gates against
//! a checked-in baseline (`baselines/KERNEL_tiny.json`):
//!
//! * **hits digest** — a deterministic hash over every formula's
//!   (dimension, atom count, hit count). The hit counts are bit-pinned,
//!   so the digest must match *exactly* across machines; any drift is a
//!   kernel regression.
//! * **allocs per sample** — the hot loop allocates nothing: the SoA
//!   block and the evaluator scratch are asserted pointer- and
//!   capacity-stable across the whole run (`#![forbid(unsafe_code)]`
//!   rules out a counting allocator, so stability of the owned buffers
//!   is the observable). Pinned at 0.
//! * **directions/sec** — blocked-kernel throughput, gated with a
//!   relative tolerance like the suite's wall-time totals. The unit is
//!   the quantity every pipeline spends: one (formula, direction)
//!   evaluation — `formulas × directions_per_formula` per pass. Both
//!   sides of the comparison do exactly the same Monte-Carlo work
//!   (identical per-formula hit counts); the blocked side fills one
//!   shared SoA block per dimension group where the scalar reference
//!   re-draws per formula — amortization the per-formula stream
//!   derivation makes invisible to results.
//!
//! Every run also re-executes the pre-blocking scalar reference (one
//! `Vec` per draw, memoized short-circuit evaluation) and asserts its
//! hit counts equal the blocked kernel's — the bit-identity check runs
//! in-binary on every CI pass, not just in unit tests. The scalar
//! timing is reported (it is the denominator of the speedup table in
//! EXPERIMENTS.md) but not gated: two machine-dependent timings on one
//! side of a ratio would double the gate's noise.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use qarith_core::afpras::{estimate_nu_compiled_many, AfprasOptions, SampleCount};
use qarith_datagen::{QueryFamily, WorkloadScale, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::json::{parse_document, req, req_f64, req_str, req_u64, Json};
use crate::suite::{SCHEMA_NAME, SCHEMA_VERSION};
use crate::{CompiledFormula, Fig1Harness};

/// Configuration of one kernel run.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Database scale (the formulas come from the full workload at this
    /// scale: every family, every query, every uncertain candidate).
    pub scale: WorkloadScale,
    /// Generation + sampling seed.
    pub seed: u64,
    /// Directions drawn per formula.
    pub directions: usize,
    /// Timed repetitions; the recorded time is the minimum (noise only
    /// ever adds). Must be ≥ 1.
    pub reps: usize,
}

impl KernelConfig {
    /// The default configuration at a scale: the suite's seed, 4096
    /// directions per formula (≈ the ε = 0.016 sample count, deep into
    /// the hot loop's steady state), 3 reps.
    pub fn default_for(scale: WorkloadScale) -> KernelConfig {
        KernelConfig { scale, seed: 2020, directions: 4096, reps: 3 }
    }
}

/// One kernel run: the machine-readable artifact of `kernel_bench`.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Scale name.
    pub scale: String,
    /// Seed.
    pub seed: u64,
    /// Timed repetitions (min-of-reps timing).
    pub reps: u64,
    /// Compiled formulas measured (uncertain candidates with ≥ 1
    /// sampled coordinate, across all families and queries).
    pub formulas: u64,
    /// Largest direction-space dimension among them.
    pub max_dim: u64,
    /// Total deduplicated atoms across them.
    pub atoms: u64,
    /// Directions drawn per formula.
    pub directions_per_formula: u64,
    /// Total directions per timed rep (`formulas ×
    /// directions_per_formula`).
    pub directions_total: u64,
    /// Deterministic hex digest over every formula's (dim, atoms,
    /// hits). Bit-pinned: must match the baseline exactly.
    pub hits_digest: String,
    /// Heap allocations per sample in the hot loop, pinned by buffer
    /// stability assertions. Always 0.
    pub allocs_per_sample: u64,
    /// Blocked-kernel seconds for one pass over all formulas (min over
    /// reps).
    pub blocked_seconds: f64,
    /// Scalar-reference seconds for the same pass (min over reps).
    pub scalar_seconds: f64,
    /// `directions_total / blocked_seconds` — the gated throughput.
    pub directions_per_sec: f64,
    /// `directions_total / scalar_seconds` (informational).
    pub scalar_directions_per_sec: f64,
    /// `scalar_seconds / blocked_seconds` (informational).
    pub speedup: f64,
}

/// The workload's compiled formulas at a scale: one shared generated
/// database, every family's queries executed, the uncertain candidates'
/// compiled formulas collected in deterministic (family, query,
/// candidate) order. Zero-dimensional formulas are dropped — the
/// estimator decides them without sampling, so they never reach the
/// kernel.
fn workload_formulas(config: &KernelConfig) -> Vec<CompiledFormula> {
    let db = qarith_datagen::sales::sales_database(&config.scale.params(), config.seed);
    let mut formulas = Vec::new();
    for family in QueryFamily::all() {
        let spec = WorkloadSpec { scale: config.scale, family, seed: config.seed };
        let workload = qarith_datagen::Workload { spec, db: db.clone(), queries: family.queries() };
        let harness = Fig1Harness::from_workload(workload);
        for q in harness.queries {
            formulas.extend(q.compiled.into_iter().filter(|c| c.dim() > 0));
        }
    }
    formulas
}

/// The pre-blocking AFPRAS worker, kept verbatim as the measurement
/// reference: one `Vec` per draw, memoized scalar evaluation. Stream 0,
/// like the single-threaded blocked path.
fn scalar_reference_hits(compiled: &CompiledFormula, seed: u64, quota: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64);
    let dim = compiled.dim();
    let mut memo = compiled.new_memo();
    let mut hits = 0usize;
    for _ in 0..quota {
        let dir = qarith_geometry::sample_unit_sphere(&mut rng, dim);
        if compiled.limit_truth(&dir, &mut memo) {
            hits += 1;
        }
    }
    hits
}

/// Drives the blocked hot loop directly and asserts it never
/// reallocates: the SoA block keeps its pointer and capacity, the
/// evaluator scratch keeps its capacity, across every iteration.
/// Returns the pinned allocs-per-sample figure (0) so the call site
/// reads as what it records.
fn assert_hot_loop_allocation_free(compiled: &CompiledFormula, seed: u64, quota: usize) -> u64 {
    const BLOCK: usize = 64;
    let dim = compiled.dim();
    let block = quota.clamp(1, BLOCK);
    let mut soa = vec![0.0f64; dim * block];
    let mut scratch = compiled.new_block_scratch(block);
    let ptr = soa.as_ptr();
    let (cap, scratch_cap) = (soa.capacity(), scratch.capacity());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64);
    let mut remaining = quota;
    while remaining > 0 {
        let count = remaining.min(block);
        qarith_geometry::fill_unit_sphere_block(&mut rng, dim, count, &mut soa[..dim * count]);
        let _ = compiled.limit_truth_block(&soa[..dim * count], count, &mut scratch);
        assert!(
            std::ptr::eq(ptr, soa.as_ptr())
                && soa.capacity() == cap
                && scratch.capacity() == scratch_cap,
            "hot-loop buffer reallocated (dim {dim}, block {block})"
        );
        remaining -= count;
    }
    0
}

/// Runs the kernel benchmark: blocked kernel and scalar reference over
/// the workload's formulas, hit-count bit-identity asserted inline,
/// buffers pinned allocation-free, timings min-of-reps.
pub fn run_kernel(config: &KernelConfig) -> KernelReport {
    let formulas = workload_formulas(config);
    assert!(!formulas.is_empty(), "workload produced no sampled formulas");
    let m = config.directions.max(1);
    let sample_seed = config.seed ^ 0xF1616;
    let opts = AfprasOptions {
        samples: SampleCount::Fixed(m),
        seed: sample_seed,
        threads: 1,
        ..AfprasOptions::default()
    };

    let refs: Vec<&CompiledFormula> = formulas.iter().collect();
    let mut blocked_seconds = f64::INFINITY;
    let mut scalar_seconds = f64::INFINITY;
    let mut hits: Vec<usize> = Vec::new();
    for rep in 0..config.reps.max(1) {
        let started = Instant::now();
        let blocked: Vec<usize> =
            estimate_nu_compiled_many(&refs, &opts).iter().map(|o| o.hits).collect();
        blocked_seconds = blocked_seconds.min(started.elapsed().as_secs_f64());

        let started = Instant::now();
        let scalar: Vec<usize> =
            formulas.iter().map(|c| scalar_reference_hits(c, sample_seed, m)).collect();
        scalar_seconds = scalar_seconds.min(started.elapsed().as_secs_f64());

        // The bit-pinning contract, checked on every run: the blocked
        // kernel's hit counts equal the scalar reference's, formula by
        // formula, rep by rep.
        assert_eq!(
            blocked, scalar,
            "blocked kernel diverged from the scalar reference (rep {rep})"
        );
        hits = blocked;
    }

    // The allocation pin, on the widest formula (the one whose buffers
    // would be likeliest to grow).
    let widest = formulas.iter().max_by_key(|c| c.dim()).expect("non-empty");
    let allocs_per_sample = assert_hot_loop_allocation_free(widest, sample_seed, m);

    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    (formulas.len() as u64).hash(&mut hasher);
    (m as u64).hash(&mut hasher);
    for (c, h) in formulas.iter().zip(&hits) {
        (c.dim() as u64, c.atom_count() as u64, *h as u64).hash(&mut hasher);
    }
    let hits_digest = format!("{:#018x}", hasher.finish());

    let directions_total = (formulas.len() * m) as u64;
    KernelReport {
        schema_version: SCHEMA_VERSION,
        scale: config.scale.name().to_string(),
        seed: config.seed,
        reps: config.reps.max(1) as u64,
        formulas: formulas.len() as u64,
        max_dim: formulas.iter().map(|c| c.dim() as u64).max().unwrap_or(0),
        atoms: formulas.iter().map(|c| c.atom_count() as u64).sum(),
        directions_per_formula: m as u64,
        directions_total,
        hits_digest,
        allocs_per_sample,
        blocked_seconds,
        scalar_seconds,
        directions_per_sec: directions_total as f64 / blocked_seconds.max(1e-12),
        scalar_directions_per_sec: directions_total as f64 / scalar_seconds.max(1e-12),
        speedup: scalar_seconds / blocked_seconds.max(1e-12),
    }
}

// ---------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------

impl KernelReport {
    /// Serializes to the pretty-printed `kernel`-kind document (schema
    /// v4, like the suite/serve/wire kinds).
    pub fn to_json(&self) -> String {
        Json::obj([
            ("schema", Json::str(SCHEMA_NAME)),
            ("schema_version", Json::num_u64(self.schema_version)),
            ("kind", Json::str("kernel")),
            ("scale", Json::str(&self.scale)),
            ("seed", Json::num_u64(self.seed)),
            ("reps", Json::num_u64(self.reps)),
            (
                "kernel",
                Json::obj([
                    ("formulas", Json::num_u64(self.formulas)),
                    ("max_dim", Json::num_u64(self.max_dim)),
                    ("atoms", Json::num_u64(self.atoms)),
                    ("directions_per_formula", Json::num_u64(self.directions_per_formula)),
                    ("directions_total", Json::num_u64(self.directions_total)),
                    ("hits_digest", Json::str(&self.hits_digest)),
                    ("allocs_per_sample", Json::num_u64(self.allocs_per_sample)),
                    ("blocked_seconds", Json::Num(self.blocked_seconds)),
                    ("scalar_seconds", Json::Num(self.scalar_seconds)),
                    ("directions_per_sec", Json::Num(self.directions_per_sec)),
                    ("scalar_directions_per_sec", Json::Num(self.scalar_directions_per_sec)),
                    ("speedup", Json::Num(self.speedup)),
                ]),
            ),
        ])
        .pretty()
    }

    /// Parses a document produced by [`KernelReport::to_json`]. Rejects
    /// unknown schema names, future versions, and non-kernel kinds.
    pub fn from_json(text: &str) -> Result<KernelReport, String> {
        let (doc, schema_version, _) = parse_document(text, &["kernel"])?;
        let k = req(&doc, "kernel")?;
        Ok(KernelReport {
            schema_version,
            scale: req_str(&doc, "scale")?,
            seed: req_u64(&doc, "seed")?,
            reps: req_u64(&doc, "reps")?,
            formulas: req_u64(k, "formulas")?,
            max_dim: req_u64(k, "max_dim")?,
            atoms: req_u64(k, "atoms")?,
            directions_per_formula: req_u64(k, "directions_per_formula")?,
            directions_total: req_u64(k, "directions_total")?,
            hits_digest: req_str(k, "hits_digest")?,
            allocs_per_sample: req_u64(k, "allocs_per_sample")?,
            blocked_seconds: req_f64(k, "blocked_seconds")?,
            scalar_seconds: req_f64(k, "scalar_seconds")?,
            directions_per_sec: req_f64(k, "directions_per_sec")?,
            scalar_directions_per_sec: req_f64(k, "scalar_directions_per_sec")?,
            speedup: req_f64(k, "speedup")?,
        })
    }
}

// ---------------------------------------------------------------------
// Baseline gate
// ---------------------------------------------------------------------

/// Compares a fresh kernel report against the checked-in baseline.
/// Returns the list of failures (empty ⇒ gate passes).
///
/// * **Configuration** must match exactly: schema version, scale, seed,
///   reps, formula/atom/dimension census, direction counts. A mismatch
///   means the two reports measure different workloads.
/// * **Hits digest** must match exactly — the hit counts are bit-pinned
///   (same RNG stream, same evaluator semantics), so *any* drift is a
///   kernel regression or an intentional change that must re-pin the
///   baseline in the same commit.
/// * **Allocs per sample** must match exactly (pinned at 0).
/// * **Throughput** (`directions_per_sec`) is gated with the given
///   relative tolerance: fresh may not fall below
///   `baseline / (1 + tolerance)`. The scalar reference timing and the
///   speedup ratio are informational only.
pub fn check_kernel_baseline(
    fresh: &KernelReport,
    baseline: &KernelReport,
    tolerance: f64,
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
    cfg("reps", fresh.reps.to_string(), baseline.reps.to_string());
    cfg("formulas", fresh.formulas.to_string(), baseline.formulas.to_string());
    cfg("max_dim", fresh.max_dim.to_string(), baseline.max_dim.to_string());
    cfg("atoms", fresh.atoms.to_string(), baseline.atoms.to_string());
    cfg(
        "directions_per_formula",
        fresh.directions_per_formula.to_string(),
        baseline.directions_per_formula.to_string(),
    );
    cfg(
        "directions_total",
        fresh.directions_total.to_string(),
        baseline.directions_total.to_string(),
    );
    if !failures.is_empty() {
        return failures;
    }
    if fresh.hits_digest != baseline.hits_digest {
        failures.push(format!(
            "hits digest drift: {} vs baseline {} — the kernel's hit counts changed",
            fresh.hits_digest, baseline.hits_digest
        ));
    }
    if fresh.allocs_per_sample != baseline.allocs_per_sample {
        failures.push(format!(
            "allocs per sample changed: {} vs baseline {}",
            fresh.allocs_per_sample, baseline.allocs_per_sample
        ));
    }
    if baseline.directions_per_sec > 0.0
        && fresh.directions_per_sec < baseline.directions_per_sec / (1.0 + tolerance)
    {
        failures.push(format!(
            "kernel throughput regressed: {:.0} directions/sec vs baseline {:.0} \
             (−{:.0}% > {:.0}% tolerance)",
            fresh.directions_per_sec,
            baseline.directions_per_sec,
            100.0 * (1.0 - fresh.directions_per_sec / baseline.directions_per_sec),
            100.0 * tolerance
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> KernelReport {
        KernelReport {
            schema_version: SCHEMA_VERSION,
            scale: "tiny".into(),
            seed: 2020,
            reps: 3,
            formulas: 40,
            max_dim: 9,
            atoms: 300,
            directions_per_formula: 4096,
            directions_total: 163_840,
            hits_digest: "0x75dc0786674255e7".into(),
            allocs_per_sample: 0,
            blocked_seconds: 0.02,
            scalar_seconds: 0.15,
            directions_per_sec: 8_192_000.0,
            scalar_directions_per_sec: 1_092_266.0,
            speedup: 7.5,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = tiny_report();
        let text = report.to_json();
        let back = KernelReport::from_json(&text).expect("parse own output");
        assert_eq!(back, report);
    }

    #[test]
    fn non_kernel_kinds_are_rejected() {
        let text = tiny_report().to_json().replace("\"kernel\"", "\"suite\"");
        assert!(KernelReport::from_json(&text).unwrap_err().contains("not a kernel report"));
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let report = tiny_report();
        assert_eq!(check_kernel_baseline(&report, &report, 0.25), Vec::<String>::new());
    }

    #[test]
    fn digest_drift_fails_the_gate() {
        let baseline = tiny_report();
        let mut fresh = baseline.clone();
        fresh.hits_digest = "0x0000000000000bad".into();
        let failures = check_kernel_baseline(&fresh, &baseline, 0.25);
        assert!(failures.iter().any(|f| f.contains("digest drift")), "{failures:?}");
    }

    #[test]
    fn throughput_regression_fails_and_tolerated_run_passes() {
        let baseline = tiny_report();
        let mut fresh = baseline.clone();
        fresh.directions_per_sec = baseline.directions_per_sec / 1.2; // within 25%
        assert_eq!(check_kernel_baseline(&fresh, &baseline, 0.25), Vec::<String>::new());
        fresh.directions_per_sec = baseline.directions_per_sec / 1.5;
        let failures = check_kernel_baseline(&fresh, &baseline, 0.25);
        assert!(failures.iter().any(|f| f.contains("throughput regressed")), "{failures:?}");
    }

    #[test]
    fn config_mismatch_fails_fast() {
        let baseline = tiny_report();
        let mut fresh = baseline.clone();
        fresh.formulas = 41;
        fresh.hits_digest = "0xdead".into();
        let failures = check_kernel_baseline(&fresh, &baseline, 0.25);
        assert!(failures.iter().any(|f| f.contains("formulas")), "{failures:?}");
        // Census mismatch fails fast, before the digest comparison.
        assert!(!failures.iter().any(|f| f.contains("digest")), "{failures:?}");
    }

    #[test]
    fn kernel_run_is_deterministic_and_allocation_free() {
        let config = KernelConfig {
            directions: 128,
            reps: 1,
            ..KernelConfig::default_for(WorkloadScale::Tiny)
        };
        let a = run_kernel(&config);
        let b = run_kernel(&config);
        assert_eq!(a.hits_digest, b.hits_digest);
        assert_eq!(a.formulas, b.formulas);
        assert_eq!(a.allocs_per_sample, 0);
        assert!(a.formulas > 0 && a.max_dim > 0);
        assert_eq!(a.directions_total, a.formulas * a.directions_per_formula);
    }
}
