//! Serving load against the `qarith-serve` query service — the one
//! driver behind every `serve_bench` mode.
//!
//! One [`ServeBenchConfig`] names a database scale, a query-family
//! population, an ε, and a client configuration; a [`ServeKind`] names
//! the path under load. [`run_serve_bench`]:
//!
//! 1. builds the database and a [`QueryService`] over it (forced
//!    AFPRAS at the paper's `m = ⌈ε⁻²⌉` prescription, per-request
//!    fan-out 1 — concurrency comes from the clients, as in a server
//!    handling parallel sessions);
//! 2. runs a **sequential reference pass** (one thread, each template
//!    once, in process) and pins every certainty bit into a digest —
//!    this also warms the plan cache, so the timed phase measures
//!    serving, not first-compilation. Every kind pins the same digest
//!    at equal config;
//! 3. replays the workload from M clients through one request loop
//!    over a transport: in-process [`QueryService::query`] calls
//!    (`serve`, `mutate`), or one [`NetClient`] connection per client
//!    to a loopback [`NetServer`] speaking the `qarith-net` framed
//!    protocol (`wire`). Clients run **closed-loop** (each issues its
//!    next request the moment the previous one returns) or
//!    **open-loop** (requests fire on a fixed-rate schedule; latency
//!    is measured from the *scheduled* arrival, so queueing delay
//!    under overload is visible — no coordinated omission). Every
//!    reply must name the epoch and database digest the last write
//!    acked, and every epoch-0 reply is compared bit for bit against
//!    the reference as it arrives;
//! 4. repeats the timed phase [`ServeBenchConfig::reps`] times and
//!    reports the repetition with the lowest p95 (scheduler noise only
//!    ever adds latency — the same min-of-reps estimator the workload
//!    suite uses for wall times).
//!
//! `mutate` adds a write stream: [`MUTATE_SHAPE`] batches from
//! [`qarith_datagen::mutations::sales_mutations`], each timed through
//! `QueryService::apply` (epoch build + publication + delta-aware
//! invalidation) and followed by a timed re-query of every template —
//! the post-write queries pay exactly the re-measurement the
//! invalidation made necessary. The write path runs single-threaded
//! and closed-loop (concurrency is the epoch torture test's job), so
//! its latencies are attributable; p95 is taken over the pooled write
//! and query latencies, and every repetition starts from a pristine
//! service warmed by its own reference pass. The certainty digest stays
//! pinned at epoch 0.
//!
//! The result serializes into the schema-v4 `BENCH_*.json` document of
//! kind `"serve"`, `"wire"`, or `"mutate"`
//! ([`ServeBenchReport::to_json`]); [`check_serve_baseline`] is the CI
//! gate — certainty drift fails hard, p95 latency may regress at most
//! the tolerance.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use qarith_core::afpras::{AfprasOptions, SampleCount};
use qarith_core::{BatchOptions, MeasureOptions, MethodChoice};
use qarith_datagen::mutations::{sales_mutations, MutationShape};
use qarith_datagen::{QueryFamily, WorkloadScale};
use qarith_net::{Decoded, NetClient, NetConfig, NetServer};
use qarith_serve::{QueryResponse, QueryService, ServeConfig, ShardedCacheConfig};
use qarith_types::{database_digest, Database, WriteBatch};

use crate::json::{
    counters_from_json, counters_to_json, pairs, parse_document, req, req_f64, req_str, req_u64,
    Json,
};
use crate::suite::{SCHEMA_NAME, SCHEMA_VERSION};

/// The write stream `mutate` replays each repetition: 8 batches of 4
/// ops. Small enough for a CI smoke step at tiny scale, large enough
/// that every op kind (insert with fresh nulls, delete, update)
/// appears.
pub const MUTATE_SHAPE: MutationShape = MutationShape { batches: 8, ops_per_batch: 4 };

/// The serving path a run measures; its name is the report's document
/// kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeKind {
    /// In-process [`QueryService::query`] calls.
    Serve,
    /// The framed protocol over loopback sockets.
    Wire,
    /// Write batches interleaved with template replays, in process.
    Mutate,
}

impl ServeKind {
    /// The document kind (`"serve"`, `"wire"`, or `"mutate"`).
    pub fn name(self) -> &'static str {
        match self {
            ServeKind::Serve => "serve",
            ServeKind::Wire => "wire",
            ServeKind::Mutate => "mutate",
        }
    }
}

/// How clients generate load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadMode {
    /// Each client issues its next request as soon as the previous one
    /// completes (throughput-seeking; measures service latency).
    Closed,
    /// Requests fire on a fixed-rate global schedule regardless of
    /// completions (arrival-driven; measures latency *including*
    /// schedule slippage under overload).
    Open,
}

impl LoadMode {
    /// Stable lowercase name (CLI argument and JSON field value).
    pub fn name(&self) -> &'static str {
        match self {
            LoadMode::Closed => "closed",
            LoadMode::Open => "open",
        }
    }

    /// Parses a CLI/JSON name produced by [`LoadMode::name`].
    pub fn parse(s: &str) -> Option<LoadMode> {
        match s {
            "closed" => Some(LoadMode::Closed),
            "open" => Some(LoadMode::Open),
            _ => None,
        }
    }
}

/// Configuration of one serving-load run.
#[derive(Clone, Debug)]
pub struct ServeBenchConfig {
    /// Database scale.
    pub scale: WorkloadScale,
    /// Generation seed (sampling derives from it as in the suite).
    pub seed: u64,
    /// Query families whose queries form the replayed template
    /// population.
    pub families: Vec<QueryFamily>,
    /// The served ε.
    pub epsilon: f64,
    /// Concurrent client threads.
    pub clients: usize,
    /// Passes over the whole template population per client.
    pub passes: usize,
    /// Load-generation mode.
    pub mode: LoadMode,
    /// Target arrival rate in requests/second ([`LoadMode::Open`]
    /// only).
    pub rate: f64,
    /// Timed repetitions; the reported latencies come from the
    /// repetition with the lowest p95.
    pub reps: usize,
    /// Sharded ν-cache memory budget (bytes).
    pub cache_budget_bytes: usize,
    /// Sharded ν-cache shard count.
    pub cache_shards: usize,
    /// Admission-control cap on concurrently executing queries.
    pub max_in_flight: usize,
}

impl ServeBenchConfig {
    /// The default configuration at a scale: all families, ε = 0.02,
    /// 4 closed-loop clients × 3 passes, 3 reps, the default cache and
    /// a 64-wide gate.
    pub fn default_for(scale: WorkloadScale) -> ServeBenchConfig {
        ServeBenchConfig {
            scale,
            seed: 2020,
            families: QueryFamily::all().to_vec(),
            epsilon: 0.02,
            clients: 4,
            passes: 3,
            mode: LoadMode::Closed,
            rate: 0.0,
            reps: 3,
            cache_budget_bytes: 64 << 20,
            cache_shards: 16,
            max_in_flight: 64,
        }
    }
}

/// Latency percentiles of one timed repetition, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50: f64,
    /// 95th percentile (the CI-gated quantity).
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Worst observed request.
    pub max: f64,
}

impl LatencySummary {
    /// Percentiles of a latency sample (nearest-rank). Panics on an
    /// empty sample — a run with zero requests is a configuration bug.
    pub fn of(latencies: &mut [f64]) -> LatencySummary {
        assert!(!latencies.is_empty(), "no latencies recorded");
        latencies.sort_by(f64::total_cmp);
        let pick = |q: f64| {
            let n = latencies.len();
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            latencies[rank - 1]
        };
        LatencySummary {
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            max: *latencies.last().expect("nonempty"),
        }
    }
}

/// A full serving-load run: the schema-v4 `"serve"`, `"wire"`, or
/// `"mutate"` document.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeBenchReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Document kind ([`ServeKind::name`]).
    pub kind: String,
    /// Scale name.
    pub scale: String,
    /// Seed.
    pub seed: u64,
    /// The served ε.
    pub epsilon: f64,
    /// Concurrent client threads (1 for `"mutate"`).
    pub clients: u64,
    /// Passes per client (the write-batch count for `"mutate"`).
    pub passes: u64,
    /// Load mode name.
    pub mode: String,
    /// Open-loop arrival rate (0 for closed-loop).
    pub rate: f64,
    /// Timed repetitions behind the min-p95 selection.
    pub reps: u64,
    /// Generated tuples.
    pub db_tuples: u64,
    /// Generated numerical nulls.
    pub db_num_nulls: u64,
    /// [`database_digest`] of the generated database, hex.
    pub db_digest: String,
    /// Distinct query templates in the population.
    pub templates: u64,
    /// Requests in the reported repetition.
    pub requests: u64,
    /// Wall-clock seconds of the reported repetition.
    pub seconds: f64,
    /// Requests per second of the reported repetition.
    pub qps: f64,
    /// Latency percentiles of the reported repetition.
    pub latency: LatencySummary,
    /// Service counters after the run
    /// ([`qarith_serve::ServiceStats::as_pairs`] names).
    pub service: Vec<(String, u64)>,
    /// Admission counters
    /// ([`qarith_serve::AdmissionStats::as_pairs`] names).
    pub admission: Vec<(String, u64)>,
    /// Sharded ν-cache counters
    /// ([`qarith_serve::ShardedCacheStats::as_pairs`] names).
    pub cache: Vec<(String, u64)>,
    /// Wire-listener counters ([`qarith_net::NetStats::as_pairs`]
    /// names). Empty for in-process (`"serve"`, `"mutate"`) runs.
    pub net: Vec<(String, u64)>,
    /// Per-stage latency summaries from the service tracer, covering
    /// the run's full lifetime (reference pass + every repetition).
    /// Stages with zero observations are omitted. Informational — the
    /// gate does not compare them.
    pub stages: Vec<StageLatency>,
    /// FNV-1a digest over every reference-pass certainty bit, hex —
    /// the quantity the CI gate pins.
    pub certainty_digest: String,
}

/// One stage row of the schema-v4 `stages` block: observation count
/// and p50/p95/p99 in seconds. The quantiles are bucket upper bounds
/// from the tracer's ~2× log-bucketed histograms, so they over-report
/// by at most one octave.
#[derive(Clone, Debug, PartialEq)]
pub struct StageLatency {
    /// Stage wire name (`qarith_trace::Stage::name`).
    pub stage: String,
    /// Observation count.
    pub count: u64,
    /// Median estimate, seconds.
    pub p50: f64,
    /// 95th-percentile estimate, seconds.
    pub p95: f64,
    /// 99th-percentile estimate, seconds.
    pub p99: f64,
}

/// The tracer's per-stage summaries as report rows, dropping stages
/// that never fired (e.g. the wire stages of an in-process run).
fn stage_latencies(service: &QueryService) -> Vec<StageLatency> {
    service
        .latency_stats()
        .summaries()
        .into_iter()
        .filter(|s| s.count > 0)
        .map(|s| StageLatency {
            stage: s.stage.name().to_string(),
            count: s.count,
            p50: s.p50_nanos as f64 / 1e9,
            p95: s.p95_nanos as f64 / 1e9,
            p99: s.p99_nanos as f64 / 1e9,
        })
        .collect()
}

/// Paper-style engine options for serving: forced AFPRAS, the §8
/// `m = ⌈ε⁻²⌉` prescription, per-request fan-out 1, dedup on. The
/// sampling seed derives from the generation seed exactly like the
/// workload suite's (`seed ^ 0xF1616`), so suite and serving runs at
/// equal config sample identically.
fn serving_options(epsilon: f64, seed: u64) -> MeasureOptions {
    MeasureOptions {
        method: MethodChoice::Afpras,
        afpras: AfprasOptions {
            epsilon,
            samples: SampleCount::Paper,
            seed: seed ^ 0xF1616,
            ..AfprasOptions::default()
        },
        batch: BatchOptions { threads: 1, dedup: true },
        ..MeasureOptions::default()
    }
}

/// μ-relevant bits of one answer: (tuple, value bits, samples,
/// dimension) — what replies are compared on and the digest is built
/// from.
type AnswerBits = (String, u64, u64, u64);

fn response_bits(r: &QueryResponse) -> Vec<AnswerBits> {
    r.answers
        .iter()
        .map(|a| {
            (
                format!("{}", a.tuple),
                a.certainty.value.to_bits(),
                a.certainty.samples as u64,
                a.certainty.dimension as u64,
            )
        })
        .collect()
}

/// One reply reduced to what the driver checks: the snapshot it
/// executed against (epoch, database digest) and its answer bits.
struct Served {
    snapshot: Option<(u64, u64)>,
    bits: Vec<AnswerBits>,
}

/// One client's connection to the service under load — the driver's
/// transport.
enum Client<'a> {
    /// In-process [`QueryService::query`] calls.
    InProcess(&'a QueryService),
    /// A socket to the loopback [`NetServer`].
    Wire(NetClient),
}

impl Client<'_> {
    /// Issues one query. Returns the latency counted from `issued` —
    /// stopped before the reply is reduced, so only the round trip is
    /// timed — and the reduced reply.
    fn query(&mut self, sql: &str, issued: Instant) -> (f64, Served) {
        match self {
            Client::InProcess(service) => {
                let response = service.query(sql).expect("workload SQL serves");
                let latency = issued.elapsed().as_secs_f64();
                let snapshot = Some((response.epoch, response.db_digest));
                (latency, Served { snapshot, bits: response_bits(&response) })
            }
            Client::Wire(client) => {
                let decoded = client.query(sql).expect("wire round trip");
                let latency = issued.elapsed().as_secs_f64();
                let Decoded::Reply(reply) = decoded else {
                    panic!("wire bench expected an ok reply, got {decoded:?}")
                };
                let bits = reply
                    .answers
                    .into_iter()
                    .map(|a| (a.tuple, a.nu_bits, a.samples, a.dimension))
                    .collect();
                (latency, Served { snapshot: reply.epoch.zip(reply.db_digest), bits })
            }
        }
    }
}

/// The sequential reference pass: every template once, in order, in
/// process. Returns each template's answer bits and the FNV-1a
/// certainty digest over them (hex) — the quantity every serving
/// baseline pins. On a fresh service it also warms the plan and ν
/// caches.
fn reference_pass(service: &QueryService, sql: &[String]) -> (Vec<Vec<AnswerBits>>, String) {
    let mut digest = qarith_numeric::Fnv1a64::new();
    let reference = sql
        .iter()
        .map(|q| {
            let response = service.query(q).expect("workload SQL serves");
            let bits = response_bits(&response);
            digest.update(response.fingerprint.as_bytes());
            for (tuple, value, samples, dimension) in &bits {
                digest.update(tuple.as_bytes());
                for n in [*value, *samples, *dimension] {
                    digest.update(&n.to_le_bytes());
                }
            }
            bits
        })
        .collect();
    (reference, format!("{:#018x}", digest.finish()))
}

/// Runs the configured load test on the path `kind` names. Panics if
/// any reply deviates from the sequential reference by a single bit,
/// or names a snapshot other than the one the last write acked — that
/// is a correctness failure, not a measurement.
///
/// Under [`ServeKind::Mutate`], `clients`, `mode`, and `rate` from the
/// config are ignored (the write path runs single-threaded and
/// closed-loop); the report pins them to `1` / `"closed"` / `0` so
/// fresh-vs-baseline config comparison stays meaningful regardless of
/// how the binary was invoked.
pub fn run_serve_bench(config: &ServeBenchConfig, kind: ServeKind) -> ServeBenchReport {
    let db = qarith_datagen::sales::sales_database(&config.scale.params(), config.seed);
    let db_stats = db.stats();
    let db_digest = format!("{:#018x}", database_digest(&db));
    let writes = match kind {
        ServeKind::Mutate => sales_mutations(&db, config.seed, MUTATE_SHAPE),
        ServeKind::Serve | ServeKind::Wire => Vec::new(),
    };
    // The shape that actually runs, with every count at least 1.
    let (clients, passes, mode) = if writes.is_empty() {
        (config.clients.max(1), config.passes.max(1), config.mode)
    } else {
        (1, writes.len(), LoadMode::Closed)
    };
    let config =
        &ServeBenchConfig { clients, passes, mode, reps: config.reps.max(1), ..config.clone() };

    let sql: Vec<String> =
        config.families.iter().flat_map(QueryFamily::queries).map(|q| q.sql).collect();
    assert!(!sql.is_empty(), "no query families configured");

    let service_for = |db: Database| {
        Arc::new(QueryService::new(
            db,
            ServeConfig {
                options: serving_options(config.epsilon, config.seed),
                cache: ShardedCacheConfig {
                    shards: config.cache_shards,
                    budget_bytes: config.cache_budget_bytes,
                },
                max_in_flight: config.max_in_flight,
                // The workload population is 9 templates; the default
                // cap never evicts here, which keeps the timed phase
                // pure plan-hit serving.
                ..ServeConfig::default()
            },
        ))
    };
    let mut service = service_for(db.clone());
    let (reference, certainty_digest) = reference_pass(&service, &sql);

    let server = (kind == ServeKind::Wire).then(|| {
        NetServer::start(service.clone(), NetConfig::default())
            .expect("bind a loopback listener on an ephemeral port")
    });
    let addr = server.as_ref().map(NetServer::local_addr);

    // Timed repetitions; keep the one with the lowest p95 (and, for
    // the write path, the service it ran on).
    let mut best: Option<(LatencySummary, f64, Arc<QueryService>)> = None;
    for rep in 0..config.reps {
        if rep > 0 && !writes.is_empty() {
            // The previous rep's writes moved the service past epoch
            // 0: start over from a pristine, warmed service.
            service = service_for(db.clone());
            reference_pass(&service, &sql);
        }
        let (mut latencies, seconds) = timed_rep(config, &service, addr, &sql, &reference, &writes);
        let summary = LatencySummary::of(&mut latencies);
        if best.as_ref().map_or(true, |(b, ..)| summary.p95 < b.p95) {
            best = Some((summary, seconds, service.clone()));
        }
    }
    let (latency, seconds, service) = best.expect("reps ≥ 1");

    // Drain before reading counters: the gauge rows settle to 0 and
    // `connections_closed` becomes final.
    let net = server.map_or_else(Vec::new, |server| {
        let outcome = server.shutdown(Duration::from_secs(10));
        assert!(outcome.drained, "wire bench listener failed to drain: {outcome:?}");
        pairs(&server.stats().as_pairs())
    });

    let templates: HashSet<String> = sql
        .iter()
        .map(|q| qarith_sql::sql_fingerprint(q).expect("workload SQL fingerprints"))
        .collect();
    let requests = config.clients * config.passes * (sql.len() + usize::from(!writes.is_empty()));

    ServeBenchReport {
        schema_version: SCHEMA_VERSION,
        kind: kind.name().to_string(),
        scale: config.scale.name().to_string(),
        seed: config.seed,
        epsilon: config.epsilon,
        clients: config.clients as u64,
        passes: config.passes as u64,
        mode: config.mode.name().to_string(),
        rate: if config.mode == LoadMode::Open { config.rate } else { 0.0 },
        reps: config.reps as u64,
        db_tuples: db_stats.tuples as u64,
        db_num_nulls: db_stats.num_nulls as u64,
        db_digest,
        templates: templates.len() as u64,
        requests: requests as u64,
        seconds,
        qps: requests as f64 / seconds.max(1e-9),
        latency,
        service: pairs(&service.stats().as_pairs()),
        admission: pairs(&service.admission_stats().as_pairs()),
        cache: pairs(&service.cache_stats().as_pairs()),
        net,
        stages: stage_latencies(&service),
        certainty_digest,
    }
}

/// One timed repetition: every client replays its share of the op
/// schedule through its own transport — `addr` names the loopback
/// server on the wire, `None` means in-process calls — returning
/// per-op latencies and the wall-clock seconds.
///
/// The schedule is `clients × passes` rounds, claimed op by op from
/// one shared counter. A round is every template once, preceded by one
/// write batch when there is a write stream (then there is one client
/// and one round per batch).
fn timed_rep(
    config: &ServeBenchConfig,
    service: &QueryService,
    addr: Option<SocketAddr>,
    sql: &[String],
    reference: &[Vec<AnswerBits>],
    writes: &[WriteBatch],
) -> (Vec<f64>, f64) {
    let writes_per_round = usize::from(!writes.is_empty());
    let round = writes_per_round + sql.len();
    let total = config.clients * config.passes * round;
    let barrier = Barrier::new(config.clients + 1);
    let next = AtomicUsize::new(0);
    let interval = if config.mode == LoadMode::Open {
        assert!(config.rate > 0.0, "open-loop mode needs a positive --rate");
        Duration::from_secs_f64(1.0 / config.rate)
    } else {
        Duration::ZERO
    };

    let mut all_latencies: Vec<f64> = Vec::with_capacity(total);
    let mut seconds = 0.0f64;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..config.clients)
            .map(|_| {
                let (barrier, next) = (&barrier, &next);
                scope.spawn(move || {
                    // Connect before the barrier so the timed window
                    // measures serving, not TCP establishment.
                    let mut client = match addr {
                        Some(addr) => Client::Wire(
                            NetClient::connect(addr).expect("connect to the loopback server"),
                        ),
                        None => Client::InProcess(service),
                    };
                    let snapshot = service.snapshot().expect("epoch store readable");
                    let mut acked = (snapshot.epoch, snapshot.digest);
                    barrier.wait();
                    let start = Instant::now();
                    let mut latencies = Vec::with_capacity(total / config.clients + 1);
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= total {
                            break;
                        }
                        let issued = match config.mode {
                            LoadMode::Closed => Instant::now(),
                            LoadMode::Open => {
                                // Request k is *scheduled* at start +
                                // k·interval; latency counts from the
                                // schedule, so falling behind shows up
                                // as latency (no coordinated omission).
                                let scheduled = start + interval * k as u32;
                                if let Some(wait) = scheduled.checked_duration_since(Instant::now())
                                {
                                    std::thread::sleep(wait);
                                }
                                scheduled
                            }
                        };
                        let slot = k % round;
                        if slot < writes_per_round {
                            let outcome =
                                service.apply(&writes[k / round]).expect("mutation batch commits");
                            latencies.push(issued.elapsed().as_secs_f64());
                            assert_eq!(
                                outcome.noops, 0,
                                "the generated stream is constructed to apply every op"
                            );
                            acked = (outcome.epoch, outcome.db_digest);
                            continue;
                        }
                        let q = slot - writes_per_round;
                        let (latency, served) = client.query(&sql[q], issued);
                        latencies.push(latency);
                        assert_eq!(
                            served.snapshot,
                            Some(acked),
                            "a response must execute against the snapshot the last write acked"
                        );
                        // Before the first write, the reference pass
                        // pinned every bit.
                        if acked.0 == 0 {
                            assert_eq!(
                                served.bits, reference[q],
                                "response drifted from the sequential reference"
                            );
                        }
                    }
                    // The client's own wall clock, from its barrier
                    // release to its last completion: the repetition's
                    // duration is the slowest client's (the main thread
                    // may be scheduled late after the barrier on busy
                    // machines, so it cannot time this reliably).
                    (latencies, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        barrier.wait();
        for w in workers {
            let (latencies, elapsed) = w.join().expect("client thread");
            all_latencies.extend(latencies);
            seconds = seconds.max(elapsed);
        }
    });
    (all_latencies, seconds)
}

// ---------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------

impl ServeBenchReport {
    /// Serializes to the pretty-printed `BENCH_*.json` document.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("schema", Json::str(SCHEMA_NAME)),
            ("schema_version", Json::num_u64(self.schema_version)),
            ("kind", Json::str(&self.kind)),
            ("scale", Json::str(&self.scale)),
            ("seed", Json::num_u64(self.seed)),
            ("epsilon", Json::Num(self.epsilon)),
            ("clients", Json::num_u64(self.clients)),
            ("passes", Json::num_u64(self.passes)),
            ("mode", Json::str(&self.mode)),
            ("rate", Json::Num(self.rate)),
            ("reps", Json::num_u64(self.reps)),
            (
                "db",
                Json::obj([
                    ("tuples", Json::num_u64(self.db_tuples)),
                    ("num_nulls", Json::num_u64(self.db_num_nulls)),
                    ("digest", Json::str(&self.db_digest)),
                ]),
            ),
            ("templates", Json::num_u64(self.templates)),
            ("requests", Json::num_u64(self.requests)),
            ("seconds", Json::Num(self.seconds)),
            ("qps", Json::Num(self.qps)),
            (
                "latency",
                Json::obj([
                    ("p50", Json::Num(self.latency.p50)),
                    ("p95", Json::Num(self.latency.p95)),
                    ("p99", Json::Num(self.latency.p99)),
                    ("max", Json::Num(self.latency.max)),
                ]),
            ),
            ("service", counters_to_json(&self.service)),
            ("admission", counters_to_json(&self.admission)),
            ("cache", counters_to_json(&self.cache)),
            ("net", counters_to_json(&self.net)),
            (
                "stages",
                Json::Obj(
                    self.stages
                        .iter()
                        .map(|s| {
                            (
                                s.stage.clone(),
                                Json::obj([
                                    ("count", Json::num_u64(s.count)),
                                    ("p50", Json::Num(s.p50)),
                                    ("p95", Json::Num(s.p95)),
                                    ("p99", Json::Num(s.p99)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("certainty_digest", Json::str(&self.certainty_digest)),
        ])
        .pretty()
    }

    /// Parses a document produced by [`ServeBenchReport::to_json`].
    /// Rejects unknown schema names, future versions, and kinds other
    /// than `"serve"` / `"wire"` / `"mutate"`.
    pub fn from_json(text: &str) -> Result<ServeBenchReport, String> {
        let (doc, schema_version, kind) = parse_document(text, &["serve", "wire", "mutate"])?;
        let db = req(&doc, "db")?;
        let latency = req(&doc, "latency")?;
        Ok(ServeBenchReport {
            schema_version,
            kind,
            scale: req_str(&doc, "scale")?,
            seed: req_u64(&doc, "seed")?,
            epsilon: req_f64(&doc, "epsilon")?,
            clients: req_u64(&doc, "clients")?,
            passes: req_u64(&doc, "passes")?,
            mode: req_str(&doc, "mode")?,
            rate: req_f64(&doc, "rate")?,
            reps: req_u64(&doc, "reps")?,
            db_tuples: req_u64(db, "tuples")?,
            db_num_nulls: req_u64(db, "num_nulls")?,
            db_digest: req_str(db, "digest")?,
            templates: req_u64(&doc, "templates")?,
            requests: req_u64(&doc, "requests")?,
            seconds: req_f64(&doc, "seconds")?,
            qps: req_f64(&doc, "qps")?,
            latency: LatencySummary {
                p50: req_f64(latency, "p50")?,
                p95: req_f64(latency, "p95")?,
                p99: req_f64(latency, "p99")?,
                max: req_f64(latency, "max")?,
            },
            service: counters_from_json(req(&doc, "service")?, "service")?,
            admission: counters_from_json(req(&doc, "admission")?, "admission")?,
            cache: counters_from_json(req(&doc, "cache")?, "cache")?,
            net: counters_from_json(req(&doc, "net")?, "net")?,
            stages: match req(&doc, "stages")? {
                Json::Obj(rows) => rows
                    .iter()
                    .map(|(stage, v)| {
                        Ok(StageLatency {
                            stage: stage.clone(),
                            count: req_u64(v, "count")?,
                            p50: req_f64(v, "p50")?,
                            p95: req_f64(v, "p95")?,
                            p99: req_f64(v, "p99")?,
                        })
                    })
                    .collect::<Result<Vec<StageLatency>, String>>()?,
                _ => return Err("stages: expected an object".to_string()),
            },
            certainty_digest: req_str(&doc, "certainty_digest")?,
        })
    }
}

// ---------------------------------------------------------------------
// Baseline gate
// ---------------------------------------------------------------------

/// Compares a fresh serving run against a checked-in baseline. Returns
/// the list of failures (empty ⇒ gate passes).
///
/// * **Configuration** must match exactly (scale, seed, ε, clients,
///   passes, mode, request count, template count, database digest): a
///   mismatch means the runs measure different things.
/// * **Certainties** are pinned through the reference-pass digest —
///   any bit of drift fails (an intentional change must re-pin the
///   baseline in the same commit).
/// * **p95 latency** may regress at most `tolerance` (relative), with
///   a 1 ms absolute floor so microsecond-scale baselines don't turn
///   scheduler jitter into failures. Throughput and the counter blocks
///   are informational: plan/ν-cache race outcomes under concurrency
///   are not deterministic, so they are not gated.
pub fn check_serve_baseline(
    fresh: &ServeBenchReport,
    baseline: &ServeBenchReport,
    tolerance: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut cfg = |name: &str, a: String, b: String| {
        if a != b {
            failures.push(format!("config mismatch: {name} is {a}, baseline has {b}"));
        }
    };
    cfg("schema_version", fresh.schema_version.to_string(), baseline.schema_version.to_string());
    cfg("kind", fresh.kind.clone(), baseline.kind.clone());
    cfg("scale", fresh.scale.clone(), baseline.scale.clone());
    cfg("seed", fresh.seed.to_string(), baseline.seed.to_string());
    cfg("epsilon", format!("{:?}", fresh.epsilon), format!("{:?}", baseline.epsilon));
    cfg("clients", fresh.clients.to_string(), baseline.clients.to_string());
    cfg("passes", fresh.passes.to_string(), baseline.passes.to_string());
    cfg("mode", fresh.mode.clone(), baseline.mode.clone());
    // The open-loop target rate shapes the load the latencies were
    // measured under; comparing across rates would gate p95 against a
    // baseline from a different experiment.
    cfg("rate", format!("{:?}", fresh.rate), format!("{:?}", baseline.rate));
    cfg("requests", fresh.requests.to_string(), baseline.requests.to_string());
    cfg("templates", fresh.templates.to_string(), baseline.templates.to_string());
    cfg("db.digest", fresh.db_digest.clone(), baseline.db_digest.clone());
    if !failures.is_empty() {
        return failures;
    }

    if fresh.certainty_digest != baseline.certainty_digest {
        failures.push(format!(
            "certainty drift: digest {} vs baseline {} — served answers changed bits",
            fresh.certainty_digest, baseline.certainty_digest
        ));
    }
    let allowed = (baseline.latency.p95 * (1.0 + tolerance)).max(baseline.latency.p95 + 0.001);
    if fresh.latency.p95 > allowed {
        failures.push(format!(
            "p95 latency regressed: {:.6}s vs baseline {:.6}s (+{:.0}% > {:.0}% tolerance)",
            fresh.latency.p95,
            baseline.latency.p95,
            100.0 * (fresh.latency.p95 / baseline.latency.p95.max(1e-12) - 1.0),
            100.0 * tolerance
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> ServeBenchReport {
        ServeBenchReport {
            schema_version: SCHEMA_VERSION,
            kind: "serve".into(),
            scale: "tiny".into(),
            seed: 2020,
            epsilon: 0.02,
            clients: 4,
            passes: 3,
            mode: "closed".into(),
            rate: 0.0,
            reps: 3,
            db_tuples: 200,
            db_num_nulls: 47,
            db_digest: "0x75dc0786674255e7".into(),
            templates: 9,
            requests: 120,
            seconds: 0.5,
            qps: 240.0,
            latency: LatencySummary { p50: 0.001, p95: 0.004, p99: 0.009, max: 0.02 },
            service: vec![("queries".into(), 130)],
            admission: vec![("admitted".into(), 130)],
            cache: vec![("hits".into(), 100), ("evictions".into(), 0)],
            net: vec![],
            stages: vec![StageLatency {
                stage: "total".into(),
                count: 130,
                p50: 0.001024,
                p95: 0.004096,
                p99: 0.008192,
            }],
            certainty_digest: "0x0123456789abcdef".into(),
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = tiny_report();
        let back = ServeBenchReport::from_json(&report.to_json()).expect("parse own output");
        assert_eq!(back, report);
    }

    #[test]
    fn suite_parser_rejects_serve_documents_and_vice_versa() {
        let serve = tiny_report().to_json();
        assert!(crate::suite::SuiteReport::from_json(&serve)
            .unwrap_err()
            .contains("not a suite report"));
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let report = tiny_report();
        assert_eq!(check_serve_baseline(&report, &report, 0.25), Vec::<String>::new());
    }

    #[test]
    fn certainty_drift_fails_the_gate() {
        let baseline = tiny_report();
        let mut fresh = baseline.clone();
        fresh.certainty_digest = "0xdeadbeefdeadbeef".into();
        let failures = check_serve_baseline(&fresh, &baseline, 0.25);
        assert!(failures.iter().any(|f| f.contains("certainty drift")), "{failures:?}");
    }

    #[test]
    fn p95_gate_tolerates_and_fails() {
        let baseline = tiny_report();
        let mut fresh = baseline.clone();
        fresh.latency.p95 = baseline.latency.p95 * 1.2;
        assert_eq!(check_serve_baseline(&fresh, &baseline, 0.25), Vec::<String>::new());
        fresh.latency.p95 = baseline.latency.p95 * 1.6;
        let failures = check_serve_baseline(&fresh, &baseline, 0.25);
        assert!(failures.iter().any(|f| f.contains("p95 latency regressed")), "{failures:?}");
    }

    #[test]
    fn microsecond_baselines_get_the_absolute_floor() {
        let mut baseline = tiny_report();
        baseline.latency.p95 = 2e-5;
        let mut fresh = baseline.clone();
        fresh.latency.p95 = 9e-4; // 45×, but within the 1 ms floor
        assert_eq!(check_serve_baseline(&fresh, &baseline, 0.25), Vec::<String>::new());
    }

    #[test]
    fn config_mismatch_fails_fast() {
        let baseline = tiny_report();
        let mut fresh = baseline.clone();
        fresh.clients = 16;
        let failures = check_serve_baseline(&fresh, &baseline, 0.25);
        assert!(failures.iter().any(|f| f.contains("clients")), "{failures:?}");
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut sample: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let summary = LatencySummary::of(&mut sample);
        assert_eq!(summary.p50, 50.0);
        assert_eq!(summary.p95, 95.0);
        assert_eq!(summary.p99, 99.0);
        assert_eq!(summary.max, 100.0);
    }

    #[test]
    fn load_mode_names_round_trip() {
        for m in [LoadMode::Closed, LoadMode::Open] {
            assert_eq!(LoadMode::parse(m.name()), Some(m));
        }
        assert_eq!(LoadMode::parse("bursty"), None);
    }
}
