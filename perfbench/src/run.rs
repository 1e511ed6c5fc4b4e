//! One run of one workload: the untimed set-up, then either the
//! end-to-end measurement or the traced replay.

use std::time::Instant;

use qarith_types::WriteBatch;

use crate::calib;
use crate::load::{self, Ack, Counters, Env, Phase, SentRead, Workload, PROBE_BATCHES};
use crate::replay::Pipeline;
use crate::spans::{aggregate, layer_index, Layer, Recorder};
use crate::stats::{
    median, peak_rss_mib, quantile, writes_at_reference, Metric, Outcome, Windowed,
};
use crate::streams::fingerprint_repeat_rate;

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Length of the time windows a timed phase is split into, seconds;
/// read figures are medians over them.
pub const WINDOW_SECONDS: f64 = 1.0;

/// Batches per block of the write probe; a host-speed sample precedes
/// each block.
pub const WRITE_BLOCK: usize = 20;

/// Timed probe batches of a traced run: enough spans for the write
/// layers' percentiles, while the three replays stay short.
pub const TRACE_PROBE_BATCHES: usize = 40;

/// Share of `--seconds` the traced run spends serving over the wire;
/// the rest goes to the three replays.
pub const TRACE_WIRE_SHARE: f64 = 0.25;

/// Windows of a phase that lasted `seconds`.
fn windows(seconds: f64) -> usize {
    ((seconds / WINDOW_SECONDS).round() as usize).max(1)
}

fn metric(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric { name: name.to_string(), unit, value, samples }
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// One set-up, timed: seconds as measured and at the reference speed
/// (divided by the mean factor of host-speed samples taken just before
/// and just after).
fn timed_setup(workload: Workload, seed: u64) -> Result<(Env, f64, f64), String> {
    let before = calib::factor(calib::sample());
    let start = Instant::now();
    let env = Env::setup(workload, seed)?;
    let seconds = start.elapsed().as_secs_f64();
    let after = calib::factor(calib::sample());
    Ok((env, seconds, seconds / ((before + after) / 2.0)))
}

/// The end-to-end run: a set-up, the timed phase, then the output
/// checks outside the timing, then [`SETUP_REPS`]` − 1` more set-ups
/// for `setup_s`.
pub fn run_e2e(
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<(Outcome, Vec<String>), String> {
    let (mut env, measured, adjusted) = timed_setup(workload, seed)?;
    let mut setups = vec![(measured, adjusted)];
    let mut phase = load::drive(&mut env, seconds, workload != Workload::HotRead);
    // The yardstick's table is resident since the first sample and is
    // not the workload's.
    let peak = peak_rss_mib()? - calib::TABLE_BYTES as f64 / f64::from(1 << 20);
    let mut notes = Vec::new();
    match workload {
        Workload::HotRead => {
            load::probe(&mut env, &mut phase, (PROBE_BATCHES, WRITE_BLOCK), |_| Ok(()))?;
        }
        Workload::ColdRead => {
            let mismatches = load::check_cold(&mut env, &mut phase, WRITE_BLOCK)?;
            phase.failed += mismatches;
            phase.mismatches += mismatches;
            let texts = env.warmup.iter().chain(&phase.sent).flatten().map(|r| r.sql.as_str());
            notes.push(format!(
                "fingerprint repeat rate {:.4} over warm-up and timed requests; {mismatches} \
                 replies differ from a fresh in-process service",
                fingerprint_repeat_rate(texts)
            ));
        }
        Workload::WriteMix => {
            let (mismatches, errors) = load::check_writes(&mut env, &phase)?;
            phase.failed += mismatches;
            phase.mismatches += mismatches;
            phase.errors.extend(errors);
            notes.push(format!(
                "write lag p95 {:.3} ms over {} writes",
                phase.write_lag.quantile(0.95),
                phase.write_lag.len()
            ));
        }
    }
    env.shutdown();
    // The other set-ups run after the measurement, so that the peak
    // memory above is that of one set-up and its timed phase.
    for _ in 1..SETUP_REPS {
        let (env, measured, adjusted) = timed_setup(workload, seed)?;
        setups.push((measured, adjusted));
        env.shutdown();
    }
    notes.extend(phase.errors.iter().map(|e| format!("fault: {e}")));
    let reads = phase.reads.len();
    let writes = phase.writes.len();
    let windowed = Windowed::of(&phase.reads, phase.seconds, windows(phase.seconds), &phase.host);
    let (p50, p99, qps) = windowed.at_reference();
    let measured = windowed.measured();
    let factors: Vec<f64> = phase.host.iter().map(|h| h.1).collect();
    notes.push(format!(
        "host factor median {:.3} over {} samples (min {:.3}, max {:.3})",
        median(&factors),
        factors.len(),
        quantile(&factors, 0.0),
        quantile(&factors, 1.0)
    ));
    notes.push(format!(
        "as measured: read p50 {:.4} ms, p99 {:.4} ms, {:.1} reads/s; write p50 {:.3} ms, \
         p95 {:.3} ms; set-up {:.4} s",
        measured.0,
        measured.1,
        measured.2,
        writes_at_reference(&phase.writes, &[], 0.50),
        writes_at_reference(&phase.writes, &[], 0.95),
        median(&setups.iter().map(|s| s.0).collect::<Vec<_>>())
    ));
    notes.push(format!(
        "per window (p50 ms, p99 ms, reads/s, host factor): {}",
        windowed
            .windows
            .iter()
            .map(|w| format!("({:.4}, {:.4}, {:.1}, {:.3})", w.p50, w.p99, w.qps, w.factor))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let outcome = Outcome {
        correct: phase.mismatches == 0,
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: vec![
            metric("read_p50_ms", "ms", p50, reads),
            metric("read_p99_ms", "ms", p99, reads),
            metric("read_qps", "1/s", qps, reads),
            metric(
                "write_p50_ms",
                "ms",
                writes_at_reference(&phase.writes, &phase.host, 0.50),
                writes,
            ),
            metric(
                "write_p95_ms",
                "ms",
                writes_at_reference(&phase.writes, &phase.host, 0.95),
                writes,
            ),
            metric(
                "setup_s",
                "s",
                median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()),
                setups.len(),
            ),
            metric("peak_rss_mb", "MiB", peak, 1),
        ],
    };
    Ok((outcome, notes))
}

/// One event of the replayed history.
enum Event<'a> {
    Read(&'a SentRead),
    Write(&'a WriteBatch, Ack),
}

/// Round-robin interleaving of per-client sequences.
fn interleave(lists: &[Vec<SentRead>]) -> Vec<&SentRead> {
    let longest = lists.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest).flat_map(|i| lists.iter().filter_map(move |l| l.get(i))).collect()
}

/// The served history in replay order: the warm-up reads, then the
/// timed reads, with each write placed before the first read that saw
/// its epoch.
fn history<'a>(env: &'a Env, phase: &'a Phase) -> Vec<Event<'a>> {
    let batches = &env.schedule.batches;
    let mut events = Vec::new();
    let mut acks = env.warm_acks.iter().chain(&phase.acks).peekable();
    for read in interleave(&env.warmup).into_iter().chain(interleave(&phase.sent)) {
        while let Some(ack) = acks.next_if(|ack| ack.epoch <= read.epoch) {
            events.push(Event::Write(&batches[ack.batch], *ack));
        }
        events.push(Event::Read(read));
    }
    events.extend(acks.map(|ack| Event::Write(&batches[ack.batch], *ack)));
    events
}

/// Replays the history through a fresh [`Pipeline`]; returns the
/// elapsed seconds, the pipeline and the replies that differ from the
/// served ones (answers, epoch or digest).
fn replay(
    env: &Env,
    events: &[Event<'_>],
    rec: &mut Recorder,
) -> Result<(f64, Pipeline, u64), String> {
    let mut pipeline = Pipeline::new(env.db.clone());
    let mut mismatches = 0;
    let start = Instant::now();
    for (request, event) in (1u64..).zip(events) {
        match event {
            Event::Read(read) => {
                let out = pipeline.read(&read.sql, request, rec)?;
                let same_epoch =
                    pipeline.epoch() == read.epoch && pipeline.digest() == read.db_digest;
                if out.digest != read.digest || !same_epoch {
                    mismatches += 1;
                }
            }
            Event::Write(batch, ack) => {
                if pipeline.write(batch, request, rec)? != (ack.epoch, ack.db_digest) {
                    mismatches += 1;
                }
            }
        }
    }
    Ok((start.elapsed().as_secs_f64(), pipeline, mismatches))
}

/// The traced run: serve over the wire for a share of `seconds`
/// (untraced), then replay the served history three times — with
/// spans on, with a no-op recorder, with spans on again — and check
/// that every replay answers bit for bit what the server answered.
/// Spans are written to `spans_path`.
pub fn run_trace(
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans_path: &std::path::Path,
) -> Result<(Outcome, Vec<String>), String> {
    let wire_seconds = (seconds * TRACE_WIRE_SHARE).max(1.0);
    let mut env = Env::setup(workload, seed)?;
    let before = Counters::of(&env);
    let mut phase = load::drive(&mut env, wire_seconds, true);
    let after_reads = Counters::of(&env);
    if workload != Workload::WriteMix {
        load::probe(&mut env, &mut phase, (TRACE_PROBE_BATCHES, WRITE_BLOCK), |_| Ok(()))?;
    }
    let after = Counters::of(&env);
    let wire_p50_us =
        Windowed::of(&phase.reads, phase.seconds, windows(phase.seconds), &[]).measured().0 * 1e3;
    let (wire_reads, lags) = (phase.reads.len(), phase.write_lag.len());
    let lag_p95 = phase.write_lag.quantile(0.95);
    let events = history(&env, &phase);

    // Spans on, off, on: the two traced replays bracket the untraced
    // one, so first-touch costs and a steady drift of the host's speed
    // cancel out of the overhead. The second traced replay is reported.
    let (first_on_seconds, _, first_mismatches) = replay(&env, &events, &mut Recorder::new(true))?;
    let (off_seconds, _, off_mismatches) = replay(&env, &events, &mut Recorder::new(false))?;
    let mut on = Recorder::new(true);
    let (on_seconds, pipeline, on_mismatches) = replay(&env, &events, &mut on)?;
    let off_mismatches = off_mismatches + first_mismatches;
    let replayed = events.len();
    drop(events);
    env.shutdown();
    if let Some(dir) = spans_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(spans_path, on.export())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let mut agg = aggregate(on.spans());
    let root_nanos = |root: Layer| -> u64 {
        on.spans().iter().filter(|s| s.layer == root).map(|s| s.end - s.start).sum()
    };
    let mut metrics = Vec::new();
    for root in [Layer::Request, Layer::Write] {
        let stats = &mut agg[layer_index(root)].1;
        let n = stats.calls;
        metrics.push(metric(&format!("{}.calls", root.name()), "count", n as f64, n));
        metrics.push(metric(
            &format!("{}.p50_us", root.name()),
            "us",
            stats.micros.quantile(0.50),
            n,
        ));
        metrics.push(metric(
            &format!("{}.p99_us", root.name()),
            "us",
            stats.micros.quantile(0.99),
            n,
        ));
        let share = stats.self_nanos as f64 / root_nanos(root).max(1) as f64;
        metrics.push(metric(&format!("{}.self_share", root.name()), "ratio", share, n));
    }
    for layer in Layer::CHILDREN {
        let ops = agg[layer_index(layer.root())].1.calls;
        let stats = &mut agg[layer_index(layer)].1;
        let n = stats.calls;
        let name = layer.name();
        metrics.push(metric(
            &format!("{name}.calls_per_op"),
            "1/op",
            ratio(n as u64, ops as u64),
            n,
        ));
        metrics.push(metric(&format!("{name}.p50_us"), "us", stats.micros.quantile(0.50), n));
        metrics.push(metric(&format!("{name}.p99_us"), "us", stats.micros.quantile(0.99), n));
        let share = stats.self_nanos as f64 / root_nanos(layer.root()).max(1) as f64;
        metrics.push(metric(&format!("{name}.share"), "ratio", share, n));
    }
    let counts = pipeline.counts;
    let reads = counts.reads as usize;
    metrics.push(metric(
        "net.reply_bytes_per_req",
        "B",
        ratio(counts.reply_bytes, counts.reads),
        reads,
    ));
    metrics.push(metric(
        "engine.candidates_per_req",
        "1/req",
        ratio(counts.grounded, counts.reads),
        reads,
    ));
    metrics.push(metric(
        "core.measured_per_req",
        "1/req",
        ratio(counts.measured, counts.reads),
        reads,
    ));
    metrics.push(metric("core.groups_per_req", "1/req", ratio(counts.groups, counts.reads), reads));

    let (s0, s1, s2) = (before.service, after_reads.service, after.service);
    let queries = s1.queries - s0.queries;
    let q = queries as usize;
    metrics.push(metric(
        "serve.plan_hit_ratio",
        "ratio",
        ratio(s1.plan_hits - s0.plan_hits, queries),
        q,
    ));
    metrics.push(metric(
        "serve.plan_evictions_per_kreq",
        "1/kreq",
        1e3 * ratio(s1.plan_evictions - s0.plan_evictions, queries),
        q,
    ));
    let (c0, c1, c2) = (before.cache, after_reads.cache, after.cache);
    let lookups = (c1.hits + c1.misses) - (c0.hits + c0.misses);
    metrics.push(metric(
        "serve.nu_hit_ratio",
        "ratio",
        ratio(c1.hits - c0.hits, lookups),
        lookups as usize,
    ));
    let writes = s2.writes - s0.writes;
    metrics.push(metric(
        "serve.plans_invalidated_per_write",
        "1/write",
        ratio(s2.plan_invalidations - s0.plan_invalidations, writes),
        writes as usize,
    ));
    metrics.push(metric(
        "serve.nu_invalidated_per_write",
        "1/write",
        ratio(c2.invalidated_entries - c0.invalidated_entries, writes),
        writes as usize,
    ));
    let (a0, a1) = (before.admission, after_reads.admission);
    metrics.push(metric(
        "serve.admission_queued_frac",
        "ratio",
        ratio(a1.queued - a0.queued, a1.admitted - a0.admitted),
        (a1.admitted - a0.admitted) as usize,
    ));
    let (n0, n2) = (before.net, after.net);
    metrics.push(metric(
        "net.protocol_errors",
        "count",
        (n2.protocol_errors - n0.protocol_errors) as f64,
        1,
    ));
    metrics.push(metric("net.timeouts", "count", (n2.timeouts - n0.timeouts) as f64, 1));
    metrics.push(metric("driver.write_lag_p95_ms", "ms", lag_p95, lags));
    let request_p50 = agg[layer_index(Layer::Request)].1.micros.quantile(0.50);
    metrics.push(metric("glue_us", "us", wire_p50_us - request_p50, wire_reads));
    let overhead = (first_on_seconds + on_seconds) / (2.0 * off_seconds) - 1.0;
    metrics.push(metric("trace_overhead_frac", "ratio", overhead, replayed));

    let mismatches = phase.mismatches + off_mismatches + on_mismatches;
    let mut notes = vec![format!(
        "replays of {} events ({} spans): traced {first_on_seconds:.3} s and {on_seconds:.3} s, \
         untraced {off_seconds:.3} s; \
         {} replayed replies differ from the served ones; spans in {}",
        replayed,
        on.spans().len(),
        off_mismatches + on_mismatches,
        spans_path.display()
    )];
    notes.extend(phase.errors.iter().map(|e| format!("fault: {e}")));
    let outcome = Outcome {
        correct: mismatches == 0,
        attempted: phase.attempted + replayed as u64 * 3,
        failed: phase.failed + off_mismatches + on_mismatches,
        metrics,
    };
    Ok((outcome, notes))
}
