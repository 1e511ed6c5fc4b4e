//! Outside-in spans around the public functions of each layer.
//!
//! The traced replay ([`crate::replay`]) opens one root span per
//! request (`request`) or write batch (`write`) and one child span
//! around every layer call it makes. Spans stay in memory and are
//! written out once, when the run ends ([`Recorder::export`]). A
//! disabled recorder takes no clock readings at all: replaying with it
//! measures the cost of tracing itself.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Sample;

/// A span name: a root, or one layer's public entry point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Root of one read request.
    Request,
    /// Root of one write batch.
    Write,
    /// `qarith_sql::sql_fingerprint`.
    SqlFingerprint,
    /// `qarith_sql::compile` (parse and lower; plan misses only).
    SqlCompile,
    /// `qarith_engine::cq::execute` (candidate generation).
    EngineGround,
    /// `CertaintyEngine::prepare_batch`.
    CorePrepare,
    /// `CertaintyEngine::execute_plan` against the sharded ν-cache.
    CoreExecute,
    /// `qarith_net::frame::encode_reply`.
    NetEncodeReply,
    /// `qarith_net::frame::decode_reply`.
    NetDecodeReply,
    /// `Database::clone` (the next epoch's working copy).
    TypesClone,
    /// `Database::apply_batch`.
    TypesApplyBatch,
    /// `Snapshot::next` (versions and the epoch digest).
    ServeSnapshotNext,
    /// `ShardedNuCache::invalidate_relations`.
    ServeInvalidate,
}

impl Layer {
    /// Every layer below a root, in call order.
    pub const CHILDREN: [Layer; 11] = [
        Layer::SqlFingerprint,
        Layer::SqlCompile,
        Layer::EngineGround,
        Layer::CorePrepare,
        Layer::CoreExecute,
        Layer::NetEncodeReply,
        Layer::NetDecodeReply,
        Layer::TypesClone,
        Layer::TypesApplyBatch,
        Layer::ServeSnapshotNext,
        Layer::ServeInvalidate,
    ];

    /// The span name (the per-layer metric prefix).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Write => "write",
            Layer::SqlFingerprint => "sql.fingerprint",
            Layer::SqlCompile => "sql.compile",
            Layer::EngineGround => "engine.ground",
            Layer::CorePrepare => "core.prepare",
            Layer::CoreExecute => "core.execute",
            Layer::NetEncodeReply => "net.encode_reply",
            Layer::NetDecodeReply => "net.decode_reply",
            Layer::TypesClone => "types.clone",
            Layer::TypesApplyBatch => "types.apply_batch",
            Layer::ServeSnapshotNext => "serve.snapshot_next",
            Layer::ServeInvalidate => "serve.invalidate",
        }
    }

    /// The root kind this layer runs under.
    pub fn root(self) -> Layer {
        match self {
            Layer::Write
            | Layer::TypesClone
            | Layer::TypesApplyBatch
            | Layer::ServeSnapshotNext
            | Layer::ServeInvalidate => Layer::Write,
            _ => Layer::Request,
        }
    }
}

/// Index of an open or closed span; [`NO_SPAN`] when disabled or for
/// a root's parent.
pub type SpanId = usize;

/// The parent of a root, and every id a disabled recorder hands out.
pub const NO_SPAN: SpanId = usize::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was called.
    pub layer: Layer,
    /// The request or write it belongs to.
    pub request: u64,
    /// The enclosing span ([`NO_SPAN`] for roots).
    pub parent: SpanId,
    /// Start, nanoseconds since the recorder was made.
    pub start: u64,
    /// End, nanoseconds since the recorder was made.
    pub end: u64,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Recorder {
        Recorder { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span.
    pub fn open(&mut self, layer: Layer, request: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let start = self.now();
        self.spans.push(Span { layer, request, parent, start, end: start });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Recorder::open`].
    pub fn close(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id].end = self.now();
        }
    }

    /// Times `f` as a child of `parent`.
    pub fn time<T>(
        &mut self,
        layer: Layer,
        request: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(layer, request, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span as tab-separated text, one per line: id, parent,
    /// request, name, start and end in nanoseconds.
    pub fn export(&self) -> String {
        let mut out = String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN { "-".to_string() } else { s.parent.to_string() };
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.request,
                s.layer.name(),
                s.start,
                s.end
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            children[s.parent].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.nanos().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer aggregate of a recorded run.
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    /// Spans of the layer.
    pub calls: usize,
    /// Span durations, in microseconds.
    pub micros: Sample,
    /// Sum of the layer's self time, nanoseconds.
    pub self_nanos: u64,
}

/// Aggregates spans per layer; index with [`layer_index`].
pub fn aggregate(spans: &[Span]) -> Vec<(Layer, LayerStats)> {
    let selfs = self_times(spans);
    let mut out: Vec<(Layer, LayerStats)> = [Layer::Request, Layer::Write]
        .into_iter()
        .chain(Layer::CHILDREN)
        .map(|l| (l, LayerStats::default()))
        .collect();
    for (span, self_nanos) in spans.iter().zip(selfs) {
        let entry = &mut out[layer_index(span.layer)].1;
        entry.calls += 1;
        entry.micros.push(span.nanos() as f64 / 1e3);
        entry.self_nanos += self_nanos;
    }
    out
}

/// Position of `layer` in [`aggregate`]'s output.
pub fn layer_index(layer: Layer) -> usize {
    match layer {
        Layer::Request => 0,
        Layer::Write => 1,
        other => 2 + Layer::CHILDREN.iter().position(|l| *l == other).expect("every child listed"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: SpanId, start: u64, end: u64) -> Span {
        Span { layer, request: 1, parent, start, end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(Layer::Request, NO_SPAN, 0, 100),
            span(Layer::SqlFingerprint, 0, 10, 30),
            // Overlaps the next child: the overlap counts once.
            span(Layer::SqlCompile, 0, 40, 70),
            span(Layer::EngineGround, 0, 60, 80),
            // Sticks out of the root: only the inside part counts.
            span(Layer::CoreExecute, 0, 95, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 20 - 40 - 5);
        assert_eq!(&selfs[1..], &[20, 30, 20, 25]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let root = rec.open(Layer::Request, 1, NO_SPAN);
        assert_eq!(rec.time(Layer::SqlFingerprint, 1, root, || 7), 7);
        rec.close(root);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn enabled_recorder_nests_and_aggregates() {
        let mut rec = Recorder::new(true);
        let root = rec.open(Layer::Request, 9, NO_SPAN);
        rec.time(Layer::SqlFingerprint, 9, root, || std::hint::black_box(3) + 1);
        rec.close(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let agg = aggregate(spans);
        assert_eq!(agg[layer_index(Layer::Request)].1.calls, 1);
        assert_eq!(agg[layer_index(Layer::SqlFingerprint)].1.calls, 1);
        assert_eq!(agg[layer_index(Layer::Write)].1.calls, 0);
        assert!(rec.export().lines().nth(2).is_some_and(|l| l.contains("sql.fingerprint")));
    }
}
