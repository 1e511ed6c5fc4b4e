//! The traced replay: the served request stream, re-run through the
//! public function of each layer in the order `QueryService` calls
//! them, with a span around every call.
//!
//! Reads: `sql_fingerprint`; on a plan miss `compile`, `cq::execute`
//! and `CertaintyEngine::prepare_batch`; `CertaintyEngine::execute_plan`
//! against a `ShardedNuCache`; then the reply frame's `encode_reply`
//! and `decode_reply`. Writes: `Database::clone`,
//! `Database::apply_batch`, `Snapshot::next` and
//! `ShardedNuCache::invalidate_relations`. The plan cache between the
//! calls mirrors the service's: keyed by fingerprint, valid while the
//! relation versions it was built against are current, LRU-evicted at
//! the default cap. Its bookkeeping is the root spans' self time.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use qarith_core::{BatchPlan, CertaintyCache, CertaintyEngine};
use qarith_engine::cq;
use qarith_net::frame::{self, Decoded, WireAnswer};
use qarith_query::Formula;
use qarith_serve::{QueryResponse, ServeConfig, ShardedNuCache, Snapshot};
use qarith_trace::RequestId;
use qarith_types::{Catalog, Database, WriteBatch, WriteOp};

use crate::spans::{Layer, Recorder, NO_SPAN};
use crate::streams::Fnv;

/// Digest of the answer bits a reply carries: per answer, the ν bit
/// pattern, sample count, dimension and tuple, in candidate order.
/// Cache provenance flags are excluded: they describe how an answer
/// was found, not what it is.
pub fn answers_digest(answers: &[WireAnswer]) -> u64 {
    let mut h = Fnv::default();
    for a in answers {
        h.update(&a.nu_bits.to_le_bytes());
        h.update(&a.samples.to_le_bytes());
        h.update(&a.dimension.to_le_bytes());
        h.field(a.tuple.as_bytes());
    }
    h.finish()
}

/// Encodes a served response as its reply frame and decodes it back,
/// as a client sees it.
pub fn wire_answers(response: &QueryResponse) -> Result<Vec<WireAnswer>, String> {
    match frame::decode_reply(frame::encode_reply(response).as_bytes())? {
        Decoded::Reply(reply) => Ok(reply.answers),
        other => Err(format!("reply frame decoded as {other:?}")),
    }
}

/// The relations a lowered query body reads.
fn collect_relations(formula: &Formula, out: &mut BTreeSet<String>) {
    match formula {
        Formula::Rel { relation, .. } => {
            out.insert(relation.as_ref().to_owned());
        }
        Formula::Not(inner) | Formula::Exists(_, inner) | Formula::Forall(_, inner) => {
            collect_relations(inner, out);
        }
        Formula::And(parts) | Formula::Or(parts) => {
            for part in parts {
                collect_relations(part, out);
            }
        }
        Formula::True | Formula::False | Formula::BaseEq(..) | Formula::Cmp(..) => {}
    }
}

#[derive(Debug)]
struct PlanSlot {
    plan: Arc<BatchPlan>,
    deps: Vec<(String, u64)>,
    last_used: u64,
}

/// What one replayed read produced.
#[derive(Clone, Copy, Debug)]
pub struct ReadResult {
    /// [`answers_digest`] of the decoded reply.
    pub digest: u64,
    /// Reply payload bytes.
    pub reply_bytes: usize,
    /// Candidates generated (0 on a plan hit).
    pub grounded: usize,
    /// Groups in the executed plan.
    pub groups: usize,
    /// Groups measured afresh (ν-cache misses).
    pub measured: usize,
}

/// Per-call accounting a replay accumulates.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Reads replayed.
    pub reads: u64,
    /// Reply payload bytes, summed.
    pub reply_bytes: u64,
    /// Candidates generated, summed.
    pub grounded: u64,
    /// Plan groups executed, summed.
    pub groups: u64,
    /// Groups measured afresh, summed.
    pub measured: u64,
}

/// The layer pipeline of one replay, with its own caches and epoch.
pub struct Pipeline {
    catalog: Catalog,
    engine: CertaintyEngine,
    cache: Arc<ShardedNuCache>,
    plans: HashMap<String, PlanSlot>,
    max_plans: usize,
    tick: u64,
    snap: Snapshot,
    /// Accounting of every read so far.
    pub counts: Counts,
}

impl Pipeline {
    /// A pipeline over `db` at epoch 0, configured like a service with
    /// the default [`ServeConfig`].
    pub fn new(db: Database) -> Pipeline {
        let config = ServeConfig::default();
        let cache = Arc::new(ShardedNuCache::new(config.cache));
        let engine = CertaintyEngine::new(config.options)
            .with_shared_cache(cache.clone() as Arc<dyn CertaintyCache>);
        Pipeline {
            catalog: db.catalog(),
            engine,
            cache,
            plans: HashMap::new(),
            max_plans: config.max_plans.max(1),
            tick: 0,
            snap: Snapshot::initial(db),
            counts: Counts::default(),
        }
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.snap.epoch
    }

    /// The current epoch's database digest.
    pub fn digest(&self) -> u64 {
        self.snap.digest
    }

    /// Replays one read as request `request`.
    pub fn read(
        &mut self,
        sql: &str,
        request: u64,
        rec: &mut Recorder,
    ) -> Result<ReadResult, String> {
        let root = rec.open(Layer::Request, request, NO_SPAN);
        let out = self.read_under(sql, request, root, rec);
        rec.close(root);
        let result = out?;
        self.counts.reads += 1;
        self.counts.reply_bytes += result.reply_bytes as u64;
        self.counts.grounded += result.grounded as u64;
        self.counts.groups += result.groups as u64;
        self.counts.measured += result.measured as u64;
        Ok(result)
    }

    fn read_under(
        &mut self,
        sql: &str,
        request: u64,
        root: usize,
        rec: &mut Recorder,
    ) -> Result<ReadResult, String> {
        let fingerprint = rec
            .time(Layer::SqlFingerprint, request, root, || qarith_sql::sql_fingerprint(sql))
            .map_err(|e| e.to_string())?;
        self.tick += 1;
        let hit = match self.plans.get_mut(&fingerprint) {
            Some(slot) if slot.deps.iter().all(|(rel, v)| self.snap.version_of(rel) == *v) => {
                slot.last_used = self.tick;
                Some(slot.plan.clone())
            }
            _ => None,
        };
        let plan_cached = hit.is_some();
        let mut grounded = 0;
        let plan = match hit {
            Some(plan) => plan,
            None => {
                let lowered = rec
                    .time(Layer::SqlCompile, request, root, || {
                        qarith_sql::compile(sql, &self.catalog)
                    })
                    .map_err(|e| e.to_string())?;
                let mut relations = BTreeSet::new();
                collect_relations(lowered.query.body(), &mut relations);
                let db = &self.snap.db;
                let candidates = rec
                    .time(Layer::EngineGround, request, root, || {
                        cq::execute(&lowered.query, db, &lowered.cq_options())
                    })
                    .map_err(|e| e.to_string())?;
                grounded = candidates.len();
                let engine = &self.engine;
                let plan =
                    Arc::new(rec.time(Layer::CorePrepare, request, root, || {
                        engine.prepare_batch(candidates)
                    }));
                let relations: Vec<String> = relations.into_iter().collect();
                self.cache.register(&relations, plan.group_keys().flatten());
                let deps = relations
                    .into_iter()
                    .map(|rel| {
                        let version = self.snap.version_of(&rel);
                        (rel, version)
                    })
                    .collect();
                self.plans.remove(&fingerprint);
                while self.plans.len() >= self.max_plans {
                    let victim = self
                        .plans
                        .iter()
                        .min_by_key(|(_, slot)| slot.last_used)
                        .map(|(k, _)| k.clone())
                        .expect("a full plan cache has a least-recently-used entry");
                    self.plans.remove(&victim);
                }
                self.plans.insert(
                    fingerprint.clone(),
                    PlanSlot { plan: plan.clone(), deps, last_used: self.tick },
                );
                plan
            }
        };
        let engine = &self.engine;
        let outcome = rec
            .time(Layer::CoreExecute, request, root, || engine.execute_plan(&plan))
            .map_err(|e| e.to_string())?;
        let (groups, measured) = (outcome.stats.groups, outcome.stats.measured);
        let response = QueryResponse {
            answers: outcome.answers,
            stats: outcome.stats,
            plan_cached,
            fingerprint,
            request_id: RequestId { epoch: 0, seq: request },
            epoch: self.snap.epoch,
            db_digest: self.snap.digest,
        };
        let payload =
            rec.time(Layer::NetEncodeReply, request, root, || frame::encode_reply(&response));
        let decoded = rec.time(Layer::NetDecodeReply, request, root, || {
            frame::decode_reply(payload.as_bytes())
        })?;
        let Decoded::Reply(reply) = decoded else {
            return Err(format!("reply frame decoded as {decoded:?}"));
        };
        Ok(ReadResult {
            digest: answers_digest(&reply.answers),
            reply_bytes: payload.len() + frame::HEADER_LEN,
            grounded,
            groups,
            measured,
        })
    }

    /// Replays one write batch as request `request`; returns the epoch
    /// it published and that epoch's digest.
    pub fn write(
        &mut self,
        batch: &WriteBatch,
        request: u64,
        rec: &mut Recorder,
    ) -> Result<(u64, u64), String> {
        let root = rec.open(Layer::Write, request, NO_SPAN);
        let current = &self.snap;
        let mut db = rec.time(Layer::TypesClone, request, root, || (*current.db).clone());
        let summary = rec
            .time(Layer::TypesApplyBatch, request, root, || db.apply_batch(batch))
            .map_err(|e| e.to_string());
        let summary = match summary {
            Ok(summary) => summary,
            Err(e) => {
                rec.close(root);
                return Err(e);
            }
        };
        let touched: Vec<String> = if summary.applied > 0 {
            let names: BTreeSet<&str> = batch.ops.iter().map(WriteOp::relation).collect();
            names.into_iter().map(str::to_owned).collect()
        } else {
            Vec::new()
        };
        let next = rec.time(Layer::ServeSnapshotNext, request, root, || current.next(db, &touched));
        self.snap = next;
        self.plans.retain(|_, slot| !slot.deps.iter().any(|(rel, _)| touched.contains(rel)));
        let cache = &self.cache;
        rec.time(Layer::ServeInvalidate, request, root, || cache.invalidate_relations(&touched));
        rec.close(root);
        Ok((self.snap.epoch, self.snap.digest))
    }
}
