//! The load driver: a `QueryService` behind `NetServer` on loopback,
//! driven over the wire by at most two client connections.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use qarith_datagen::sales::{sales_database, SalesScale};
use qarith_net::{Decoded, NetClient, NetConfig, NetServer, NetStats};
use qarith_serve::{AdmissionStats, QueryService, ServeConfig, ServiceStats, ShardedCacheStats};
use qarith_types::{Database, WriteBatch};

use crate::calib;
use crate::replay::{answers_digest, wire_answers};
use crate::stats::Sample;
use crate::streams::{hot_texts, templates, ColdStream, HotStream, WriteSchedule};

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Two closed-loop clients replaying the template spellings.
    HotRead,
    /// Two closed-loop clients sending freshly drawn literals.
    ColdRead,
    /// One closed-loop `hot_read` reader beside an open-loop writer.
    WriteMix,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::HotRead, Workload::ColdRead, Workload::WriteMix];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot_read",
            Workload::ColdRead => "cold_read",
            Workload::WriteMix => "write_mix",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Completed reads per write batch on `write_mix`. Each write makes
/// about 6 of the 9 cached plans stale, and the next read of each
/// re-prepares its template (milliseconds, against about 0.15 ms for a
/// warm read). One write per 250 reads fixes that share near 2.4 %,
/// well above the 1 % `read_p99_ms` looks at, so the figure measures
/// re-prepare whatever the host's speed. A schedule in seconds let the
/// share follow the host's speed across the 1 % edge.
pub const READS_PER_WRITE: u64 = 250;

/// Timed batches generated for `write_mix`; the writer stops early if
/// the reader completes more than this many times [`READS_PER_WRITE`]
/// reads.
pub const WRITE_MIX_BATCHES: usize = 600;

/// Timed batches of the write probe that follows the read phase of
/// `hot_read` and `cold_read`.
pub const PROBE_BATCHES: usize = 200;

/// Batches sent untimed before any write is timed. The first few
/// epochs a process builds are several times slower than later ones
/// (fresh memory for each database copy), and on `write_mix` they
/// stalled the reader for the first seconds of the timed phase.
pub const WRITE_WARMUP: usize = 10;

/// Warm-up requests per client before timing starts.
fn warmup_requests(workload: Workload) -> usize {
    match workload {
        // Past the 1024-plan cap, so eviction is in steady state.
        Workload::ColdRead => 520,
        _ => 400,
    }
}

/// Client numbers of the warm-up streams (never a timed client's).
const WARMUP_CLIENT_BASE: u64 = 100;

/// A request the driver sent, as the replay and the checks need it.
#[derive(Clone, Debug)]
pub struct SentRead {
    /// Template index.
    pub template: usize,
    /// The SQL text.
    pub sql: String,
    /// [`answers_digest`] of the reply.
    pub digest: u64,
    /// The epoch the reply names.
    pub epoch: u64,
    /// The database digest the reply names.
    pub db_digest: u64,
}

/// An acknowledged write.
#[derive(Clone, Copy, Debug)]
pub struct Ack {
    /// Index into the schedule.
    pub batch: usize,
    /// The epoch it published.
    pub epoch: u64,
    /// That epoch's database digest.
    pub db_digest: u64,
}

/// A set-up service: database, server, connections, caches warm and
/// reference answers computed.
pub struct Env {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// The load-time database (epoch 0).
    pub db: Database,
    /// The served service.
    pub service: Arc<QueryService>,
    /// The listener.
    pub server: NetServer,
    /// One connection per client.
    pub clients: Vec<Conn>,
    /// `hot_read` texts with their template index.
    pub texts: Vec<(usize, String)>,
    /// Fingerprint of each template.
    pub fingerprints: Vec<String>,
    /// [`answers_digest`] of each template's answers at epoch 0.
    pub reference: Vec<u64>,
    /// Warm-up reads per client, in send order.
    pub warmup: Vec<Vec<SentRead>>,
    /// Every write batch of the run: [`WRITE_WARMUP`] untimed ones,
    /// then the timed ones.
    pub schedule: WriteSchedule,
    /// Acknowledgements of the write warm-up sent during set-up
    /// (`write_mix` only; the probe warms up on its own).
    pub warm_acks: Vec<Ack>,
}

/// A client connection that reconnects after a socket error.
pub struct Conn {
    addr: SocketAddr,
    client: Option<NetClient>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Conn {
        Conn { addr, client: NetClient::connect(addr).ok() }
    }

    fn with<T>(
        &mut self,
        f: impl FnOnce(&mut NetClient) -> std::io::Result<T>,
    ) -> Result<T, String> {
        if self.client.is_none() {
            self.client = Some(NetClient::connect(self.addr).map_err(|e| format!("connect: {e}"))?);
        }
        let client = self.client.as_mut().expect("connected above");
        let out = f(client);
        if out.is_err() {
            self.client = None;
        }
        out.map_err(|e| format!("socket: {e}"))
    }

    /// One query round trip.
    pub fn query(&mut self, sql: &str) -> Result<Decoded, String> {
        self.with(|c| c.query(sql))
    }

    /// One write round trip.
    pub fn write(&mut self, batch: &WriteBatch) -> Result<Decoded, String> {
        self.with(|c| c.write(batch))
    }
}

/// Why an operation did not count as completed.
#[derive(Clone, Debug)]
pub enum Fault {
    /// Socket error, timeout or error frame.
    Failed(String),
    /// A reply that does not check: the program's output is wrong.
    Mismatch(String),
}

impl From<String> for Fault {
    fn from(message: String) -> Fault {
        Fault::Failed(message)
    }
}

/// Sends one read and checks the reply's shape and, given the
/// templates' fingerprints, that it names its template's.
fn read_once(
    conn: &mut Conn,
    template: usize,
    sql: &str,
    fps: Option<&[String]>,
) -> Result<SentRead, Fault> {
    match conn.query(sql)? {
        Decoded::Reply(reply) => {
            if fps.is_some_and(|fps| reply.fingerprint != fps[template]) {
                return Err(Fault::Mismatch(format!(
                    "reply fingerprint `{}` is not the template's",
                    reply.fingerprint
                )));
            }
            let (Some(epoch), Some(db_digest)) = (reply.epoch, reply.db_digest) else {
                return Err(Fault::Mismatch("reply names no epoch and digest".to_string()));
            };
            Ok(SentRead {
                template,
                sql: sql.to_string(),
                digest: answers_digest(&reply.answers),
                epoch,
                db_digest,
            })
        }
        other => Err(Fault::Failed(format!("read answered {other:?}"))),
    }
}

/// One write round trip; returns the ack.
fn write_once(conn: &mut Conn, batch: &WriteBatch, k: usize) -> Result<Ack, String> {
    match conn.write(batch)? {
        Decoded::Write(ack) => Ok(Ack { batch: k, epoch: ack.epoch, db_digest: ack.db_digest }),
        other => Err(format!("write answered {other:?}")),
    }
}

/// The served database of a seed: the sales schema at medium scale
/// (20,000 tuples).
pub fn database(seed: u64) -> Database {
    sales_database(&SalesScale::medium(), seed)
}

/// Answers of every template from a fresh in-process service over
/// `db`: (fingerprint, answers digest) per template.
pub fn cold_answers(db: Database) -> Result<Vec<(String, u64)>, String> {
    let service = QueryService::new(db, ServeConfig::default());
    templates()
        .iter()
        .map(|t| {
            let response = service.query(&t.sql).map_err(|e| format!("{}: {e}", t.name))?;
            Ok((response.fingerprint.clone(), answers_digest(&wire_answers(&response)?)))
        })
        .collect()
}

impl Env {
    /// Generates the database and the writes of a run, starts the
    /// server, connects the clients, computes the reference answers
    /// and warms the write path (`write_mix`) and the caches.
    pub fn setup(workload: Workload, seed: u64) -> Result<Env, String> {
        let db = database(seed);
        let timed = match workload {
            Workload::WriteMix => WRITE_MIX_BATCHES,
            _ => PROBE_BATCHES,
        };
        let schedule = WriteSchedule::new(&db, seed, WRITE_WARMUP + timed);
        let service = Arc::new(QueryService::new(db.clone(), ServeConfig::default()));
        let server = NetServer::start(service.clone(), NetConfig::default())
            .map_err(|e| format!("server start: {e}"))?;
        let clients = (0..2).map(|_| Conn::new(server.local_addr())).collect();
        let (fingerprints, reference) = cold_answers(db.clone())?.into_iter().unzip();
        let texts = hot_texts();
        let mut env = Env {
            workload,
            seed,
            db,
            service,
            server,
            clients,
            texts,
            fingerprints,
            reference,
            warmup: Vec::new(),
            schedule,
            warm_acks: Vec::new(),
        };
        for (template, text) in &env.texts {
            let fp = qarith_sql::sql_fingerprint(text).map_err(|e| e.to_string())?;
            if fp != env.fingerprints[*template] {
                return Err(format!("spelling `{text}` does not share its template's fingerprint"));
            }
        }
        if workload == Workload::WriteMix {
            for (k, batch) in env.schedule.batches[..WRITE_WARMUP].iter().enumerate() {
                let ack = write_once(&mut env.clients[1], batch, k)
                    .map_err(|e| format!("write warm-up: {e}"))?;
                env.warm_acks.push(ack);
            }
        }
        env.warm()?;
        Ok(env)
    }

    /// Warm-up traffic from both connections until caches are full.
    fn warm(&mut self) -> Result<(), String> {
        let n = warmup_requests(self.workload);
        let (workload, seed, texts) = (self.workload, self.seed, &self.texts);
        let fps = expected_fingerprints(workload, &self.fingerprints);
        let warmup: Result<Vec<Vec<SentRead>>, String> = thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    scope.spawn(move || {
                        let mut next =
                            request_source(workload, seed, WARMUP_CLIENT_BASE + c as u64, texts);
                        (0..n)
                            .map(|_| {
                                let (template, sql) = next();
                                read_once(conn, template, &sql, fps).map_err(|f| format!("{f:?}"))
                            })
                            .collect::<Result<Vec<SentRead>, String>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("warm-up client panicked")).collect()
        });
        self.warmup = warmup.map_err(|e| format!("warm-up: {e}"))?;
        Ok(())
    }

    /// Stops the server and waits for its threads.
    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown(Duration::from_secs(5));
    }
}

/// The fingerprints replies must name: the templates' own, except on
/// `cold_read`, whose drawn literals make every request a template of
/// its own (its replies are checked by [`check_cold`] instead).
fn expected_fingerprints(workload: Workload, fps: &[String]) -> Option<&[String]> {
    (workload != Workload::ColdRead).then_some(fps)
}

/// A client's request generator: `(template, sql)` per call.
fn request_source<'a>(
    workload: Workload,
    seed: u64,
    client: u64,
    texts: &'a [(usize, String)],
) -> Box<dyn FnMut() -> (usize, String) + Send + 'a> {
    match workload {
        Workload::ColdRead => {
            let mut stream = ColdStream::new(seed, client);
            Box::new(move || stream.next_request())
        }
        Workload::HotRead | Workload::WriteMix => {
            let mut stream = HotStream::new(seed, client, texts.len());
            Box::new(move || texts[stream.next_index()].clone())
        }
    }
}

/// Counters of every serving layer at one instant.
#[derive(Clone, Copy, Debug)]
pub struct Counters {
    /// Plan cache, requests and writes.
    pub service: ServiceStats,
    /// ν-cache.
    pub cache: ShardedCacheStats,
    /// Admission gate.
    pub admission: AdmissionStats,
    /// Wire listener.
    pub net: NetStats,
}

impl Counters {
    /// Reads every `stats()` API of the served stack.
    pub fn of(env: &Env) -> Counters {
        Counters {
            service: env.service.stats(),
            cache: env.service.cache_stats(),
            admission: env.service.admission_stats(),
            net: env.server.stats(),
        }
    }
}

/// Pauses the load between operations, so that a host-speed sample
/// ([`calib::sample`]) runs while the program is idle.
#[derive(Debug, Default)]
pub struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    closed: bool,
    /// Readers still running.
    active: usize,
    /// Readers waiting at the gate.
    parked: usize,
    /// Writes that fell due and are not acknowledged yet.
    pending: usize,
}

impl Gate {
    fn new(readers: usize) -> Gate {
        Gate {
            state: Mutex::new(GateState { active: readers, ..GateState::default() }),
            ..Gate::default()
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A reader between two reads: waits while the gate is closed.
    fn pass(&self) {
        let mut state = self.lock();
        if !state.closed {
            return;
        }
        state.parked += 1;
        self.changed.notify_all();
        while state.closed {
            state = self.changed.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.parked -= 1;
    }

    /// A reader is done.
    fn leave(&self) {
        self.lock().active -= 1;
        self.changed.notify_all();
    }

    /// Waits until `at`; `false` (at once) when no reader is running.
    fn wait_until(&self, at: Instant) -> bool {
        let mut state = self.lock();
        loop {
            let left = at.saturating_duration_since(Instant::now());
            if state.active == 0 {
                return false;
            }
            if left.is_zero() {
                return true;
            }
            state =
                self.changed.wait_timeout(state, left).unwrap_or_else(PoisonError::into_inner).0;
        }
    }

    /// A write fell due (`1`) or was acknowledged (`-1`).
    fn pending(&self, delta: isize) {
        let mut state = self.lock();
        state.pending = state.pending.saturating_add_signed(delta);
        self.changed.notify_all();
    }

    /// Closes the gate and waits until every running reader waits at it
    /// and no write is pending; `false` if that takes longer than
    /// `limit`. The gate stays closed until [`Gate::open`].
    fn close(&self, limit: Duration) -> bool {
        let until = Instant::now() + limit;
        let mut state = self.lock();
        state.closed = true;
        loop {
            if state.parked == state.active && state.pending == 0 {
                return true;
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            state =
                self.changed.wait_timeout(state, left).unwrap_or_else(PoisonError::into_inner).0;
        }
    }

    /// Lets the readers go on.
    fn open(&self) {
        self.lock().closed = false;
        self.changed.notify_all();
    }
}

/// Seconds between host-speed samples during a timed phase.
pub const HOST_SAMPLE_PERIOD: f64 = 1.0;

/// How long a host-speed sample waits for the load to pause before it
/// is skipped.
const HOST_SAMPLE_WAIT: Duration = Duration::from_millis(300);

/// Reads per second of `--seconds` that `cold_read`'s timed phase
/// serves. Its phase is a number of reads, not a time: every fresh
/// request leaves state behind in the service (ν-cache entries and
/// their index), and the service slows as that state grows (its median
/// read takes twice as long after 5,000 reads as after the warm-up).
/// Over a fixed time, a faster host would reach a later, slower state.
/// At this rate the phase lasts about `--seconds` on a 2-vCPU Intel
/// Xeon VM.
pub const COLD_READS_PER_SECOND: f64 = 200.0;

/// `cold_read`'s timed phase ends after this many times `--seconds`
/// even if its reads are not all served.
const COLD_TIME_LIMIT: f64 = 4.0;

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// When the phase started.
    pub start: Option<Instant>,
    /// How long the reads of the phase ran, seconds.
    pub seconds: f64,
    /// Every completed read: when it completed (seconds after the
    /// phase started) and its latency (ms).
    pub reads: Vec<(f64, f64)>,
    /// Every acknowledged write: when it was acknowledged (seconds
    /// after the phase started) and its latency from when it was due
    /// (ms).
    pub writes: Vec<(f64, f64)>,
    /// Host factors ([`calib::factor`]) sampled during the phase, with
    /// when (seconds after the phase started), in time order.
    pub host: Vec<(f64, f64)>,
    /// How late each write was sent, ms.
    pub write_lag: Sample,
    /// Completed reads per client, in send order.
    pub sent: Vec<Vec<SentRead>>,
    /// Acknowledged writes, in send order.
    pub acks: Vec<Ack>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (error frames, socket errors, replies
    /// that do not check).
    pub failed: u64,
    /// Of those, replies that do not check.
    pub mismatches: u64,
    /// Failure messages (the first few are printed).
    pub errors: Vec<String>,
}

impl Phase {
    /// Seconds from the phase's start to `at`.
    fn since_start(&self, at: Instant) -> f64 {
        self.start.map_or(0.0, |start| at.duration_since(start).as_secs_f64())
    }

    /// Takes a host-speed sample now (the load must be idle).
    pub fn sample_host(&mut self) {
        let factor = calib::factor(calib::sample());
        self.host.push((self.since_start(Instant::now()), factor));
    }

    fn fail(&mut self, fault: Fault) {
        self.failed += 1;
        let message = match fault {
            Fault::Failed(message) => message,
            Fault::Mismatch(message) => {
                self.mismatches += 1;
                message
            }
        };
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }
}

/// One reader's closed loop until `deadline` or, with a `quota`, until
/// it has sent that many reads; completed reads are kept in
/// [`Phase::sent`] when `record` is set. Replies are checked against
/// the templates' fingerprints `fps` and reference answers `expected`
/// where given. With `due`, every [`READS_PER_WRITE`]-th completed
/// read makes a write due now.
fn reader_loop(
    conn: &mut Conn,
    next: &mut dyn FnMut() -> (usize, String),
    (phase_start, deadline, quota): (Instant, Instant, Option<u64>),
    (fps, expected): (Option<&[String]>, Option<&[u64]>),
    record: bool,
    due: Option<mpsc::Sender<Instant>>,
    gate: &Gate,
) -> Phase {
    let mut phase = Phase::default();
    let mut sent = Vec::new();
    loop {
        gate.pass();
        if Instant::now() >= deadline || quota.is_some_and(|q| phase.attempted >= q) {
            break;
        }
        let (template, sql) = next();
        phase.attempted += 1;
        let start = Instant::now();
        let out = read_once(conn, template, &sql, fps);
        let done = Instant::now();
        let millis = done.duration_since(start).as_secs_f64() * 1e3;
        match out {
            Ok(read) => {
                if let Some(reference) = expected {
                    if read.digest != reference[template] {
                        phase.fail(Fault::Mismatch(format!(
                            "answers of `{sql}` differ from the reference"
                        )));
                        continue;
                    }
                }
                phase.reads.push((done.duration_since(phase_start).as_secs_f64(), millis));
                if let Some(due) = &due {
                    if (phase.reads.len() as u64).is_multiple_of(READS_PER_WRITE) {
                        // The writer has hung up only once its batches
                        // ran out; later writes are simply not sent.
                        gate.pending(1);
                        if due.send(done).is_err() {
                            gate.pending(-1);
                        }
                    }
                }
                if record {
                    sent.push(read);
                }
            }
            Err(e) => phase.fail(e),
        }
    }
    phase.sent.push(sent);
    phase.seconds = phase_start.elapsed().as_secs_f64();
    gate.leave();
    phase
}

/// The writer: each batch after the warm-up is due when the reader
/// says so, whether or not the previous write has finished; it is
/// timed from then. It stops at `deadline` or when the reader ends.
fn writer_loop(
    conn: &mut Conn,
    schedule: &WriteSchedule,
    due_times: mpsc::Receiver<Instant>,
    (phase_start, deadline): (Instant, Instant),
    gate: &Gate,
) -> Phase {
    let mut phase = Phase { start: Some(phase_start), ..Phase::default() };
    for (k, batch) in schedule.batches.iter().enumerate().skip(WRITE_WARMUP) {
        let wait = deadline.saturating_duration_since(Instant::now());
        let Ok(due) = due_times.recv_timeout(wait) else { break };
        phase.attempted += 1;
        let sent = Instant::now();
        phase.write_lag.push(sent.duration_since(due).as_secs_f64() * 1e3);
        let out = write_once(conn, batch, k);
        let done = Instant::now();
        match out {
            Ok(ack) => {
                let millis = done.duration_since(due).as_secs_f64() * 1e3;
                phase.writes.push((phase.since_start(done), millis));
                phase.acks.push(ack);
            }
            Err(e) => phase.fail(Fault::Failed(e)),
        }
        gate.pending(-1);
    }
    phase
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
        self.host.extend(other.host);
        self.seconds = self.seconds.max(other.seconds);
        self.write_lag.extend(other.write_lag);
        self.sent.extend(other.sent);
        self.acks.extend(other.acks);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// The timed phase: closed-loop readers (and, for `write_mix`, the
/// open-loop writer) for `seconds` — on `cold_read`, for
/// `seconds ×` [`COLD_READS_PER_SECOND`] reads — paused every
/// [`HOST_SAMPLE_PERIOD`] for a host-speed sample. Completed reads are
/// kept when `record` is set.
pub fn drive(env: &mut Env, seconds: f64, record: bool) -> Phase {
    let (workload, seed) = (env.workload, env.seed);
    let (texts, schedule) = (&env.texts, &env.schedule);
    let fps = expected_fingerprints(workload, &env.fingerprints);
    let expected = (workload == Workload::HotRead).then_some(env.reference.as_slice());
    let start = Instant::now();
    let readers = if workload == Workload::WriteMix { 1 } else { env.clients.len() };
    let (deadline, quota) = if workload == Workload::ColdRead {
        let reads = (seconds * COLD_READS_PER_SECOND).ceil() as u64;
        (
            start + Duration::from_secs_f64(seconds * COLD_TIME_LIMIT),
            Some(reads.div_ceil(readers as u64)),
        )
    } else {
        (start + Duration::from_secs_f64(seconds), None)
    };
    let mut total = Phase { start: Some(start), ..Phase::default() };
    let (due_tx, due_rx) = mpsc::channel();
    let (mut due_tx, mut due_rx) = (Some(due_tx), Some(due_rx));
    let gate = &Gate::new(readers);
    let parts: Vec<Phase> = thread::scope(|scope| {
        let sampler = scope.spawn(move || {
            let mut phase = Phase { start: Some(start), ..Phase::default() };
            let period = Duration::from_secs_f64(HOST_SAMPLE_PERIOD);
            let mut next = start + period / 2;
            while next + HOST_SAMPLE_WAIT < deadline && gate.wait_until(next) {
                if gate.close(HOST_SAMPLE_WAIT) {
                    phase.sample_host();
                }
                gate.open();
                next += period;
            }
            phase
        });
        let mut handles: Vec<_> = env
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let writer = workload == Workload::WriteMix && c == 1;
                let due_rx = if writer { due_rx.take() } else { None };
                let due_tx =
                    if workload == Workload::WriteMix && c == 0 { due_tx.take() } else { None };
                scope.spawn(move || match due_rx {
                    Some(due_rx) => writer_loop(conn, schedule, due_rx, (start, deadline), gate),
                    None => {
                        let mut next = request_source(workload, seed, c as u64, texts);
                        let bounds = (start, deadline, quota);
                        let checks = (fps, expected);
                        reader_loop(conn, &mut *next, bounds, checks, record, due_tx, gate)
                    }
                })
            })
            .collect();
        handles.push(sampler);
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    for phase in parts {
        total.absorb(phase);
    }
    total
}

/// Sends the batches `range` of the schedule one after another on one
/// connection, each due when the previous one was acknowledged; the
/// first [`WRITE_WARMUP`] batches of the schedule are sent untimed.
fn send_batches(env: &mut Env, phase: &mut Phase, range: std::ops::Range<usize>) {
    let mut due = Instant::now();
    for k in range {
        let timed = k >= WRITE_WARMUP;
        phase.attempted += 1;
        if timed {
            phase.write_lag.push(due.elapsed().as_secs_f64() * 1e3);
        }
        match write_once(&mut env.clients[0], &env.schedule.batches[k], k) {
            Ok(ack) => {
                let done = Instant::now();
                if timed {
                    let millis = done.duration_since(due).as_secs_f64() * 1e3;
                    phase.writes.push((phase.since_start(done), millis));
                }
                phase.acks.push(ack);
            }
            Err(e) => phase.fail(Fault::Failed(e)),
        }
        due = Instant::now();
    }
}

/// The write probe of the read-only workloads, after their timed
/// phase: [`WRITE_WARMUP`] untimed batches, then `timed` batches in
/// blocks of `block`, one after another on one connection. Before each
/// block `between` runs with the block's number, and then a host-speed
/// sample is taken.
pub fn probe(
    env: &mut Env,
    phase: &mut Phase,
    (timed, block): (usize, usize),
    mut between: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    send_batches(env, phase, 0..WRITE_WARMUP);
    let end = WRITE_WARMUP + timed;
    for (b, first) in (WRITE_WARMUP..end).step_by(block.max(1)).enumerate() {
        between(b)?;
        phase.sample_host();
        send_batches(env, phase, first..(first + block).min(end));
    }
    Ok(())
}

/// `cold_read`'s check, outside the timing: every served request
/// replayed through a fresh in-process service on two threads; each
/// reply must match bit for bit. The check runs in as many chunks as
/// the write probe (of [`PROBE_BATCHES`] batches) has blocks, one
/// chunk before each block, so that the probe is spread over the
/// check's duration rather than sent in one stretch. Returns the
/// mismatch count.
pub fn check_cold(env: &mut Env, phase: &mut Phase, block: usize) -> Result<u64, String> {
    let service = QueryService::new(env.db.clone(), ServeConfig::default());
    let all: Vec<SentRead> = phase.sent.iter().flatten().cloned().collect();
    let blocks = PROBE_BATCHES.div_ceil(block.max(1));
    let chunks: Vec<&[SentRead]> = all.chunks(all.len().div_ceil(blocks).max(1)).collect();
    let mut mismatches = 0;
    probe(env, phase, (PROBE_BATCHES, block), |b| {
        if let Some(chunk) = chunks.get(b) {
            mismatches += replay_in_service(&service, chunk)?;
        }
        Ok(())
    })?;
    Ok(mismatches)
}

/// Replays `reads` through `service` on two threads; returns how many
/// answers differ from the served ones.
fn replay_in_service(service: &QueryService, reads: &[SentRead]) -> Result<u64, String> {
    let half = reads.len().div_ceil(2);
    thread::scope(|scope| {
        let handles: Vec<_> = reads
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || -> Result<u64, String> {
                    let mut mismatches = 0;
                    for read in chunk {
                        let response = service.query(&read.sql).map_err(|e| e.to_string())?;
                        if answers_digest(&wire_answers(&response)?) != read.digest {
                            mismatches += 1;
                        }
                    }
                    Ok(mismatches)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("check thread panicked")).sum()
    })
}

/// `write_mix`'s checks: every read names an epoch and digest that
/// some write acknowledged (or the load-time epoch), all reads of one
/// (template, epoch) agree, and after the run the final epoch's
/// answers equal a cold service's on the final database. Returns the
/// mismatch count and the messages of the first few.
pub fn check_writes(env: &mut Env, phase: &Phase) -> Result<(u64, Vec<String>), String> {
    let mut errors = Vec::new();
    let mut mismatches = 0u64;
    let acks: Vec<Ack> = env.warm_acks.iter().chain(&phase.acks).copied().collect();
    let mut published: HashMap<u64, u64> = HashMap::new();
    published.insert(0, qarith_serve::database_digest(&env.db));
    for ack in &acks {
        published.insert(ack.epoch, ack.db_digest);
    }
    let mut seen: HashMap<(usize, u64), u64> = HashMap::new();
    for read in phase.sent.iter().flatten() {
        let ok_epoch = published.get(&read.epoch) == Some(&read.db_digest);
        let ok_answer =
            *seen.entry((read.template, read.epoch)).or_insert(read.digest) == read.digest;
        if !(ok_epoch && ok_answer) {
            mismatches += 1;
            errors.push(format!(
                "read of template {} at epoch {} does not check",
                read.template, read.epoch
            ));
        }
    }
    // The final database: the load-time one with every acknowledged
    // batch applied in order.
    let mut db = env.db.clone();
    for ack in &acks {
        db.apply_batch(&env.schedule.batches[ack.batch]).map_err(|e| e.to_string())?;
    }
    let last = acks.last().map_or(0, |a| a.epoch);
    if qarith_serve::database_digest(&db) != published[&last] {
        mismatches += 1;
        errors.push("the final database does not have the last acknowledged digest".to_string());
    }
    let cold = cold_answers(db)?;
    let fps = env.fingerprints.clone();
    for (template, t) in templates().iter().enumerate() {
        let read = read_once(&mut env.clients[0], template, &t.sql, Some(&fps))
            .map_err(|f| format!("final read of `{}`: {f:?}", t.name))?;
        if read.epoch != last || read.digest != cold[template].1 {
            mismatches += 1;
            errors.push(format!("final answers of `{}` differ from a cold rebuild", t.name));
        }
    }
    errors.truncate(8);
    Ok((mismatches, errors))
}
