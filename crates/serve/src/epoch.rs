//! Epoch-versioned snapshots of a live database.
//!
//! The serving stack's bit-pinning contract says every answer is a
//! deterministic function of (database contents, options fingerprint).
//! A *mutable* database keeps that contract by versioning it: each
//! committed [`WriteBatch`](qarith_types::WriteBatch) publishes a fresh
//! immutable [`Snapshot`] — epoch number, `Arc<Database>`, and a
//! content digest — and readers pin whichever snapshot was current when
//! their request started. Writers build epoch N+1 off to the side and
//! swap one pointer; no reader ever observes a torn database, and
//! bit-pinning holds *per epoch* (the digest names which contents an
//! answer was computed against).
//!
//! Per-relation version counters ride along so the plan cache can stay
//! selective too: a prepared plan embeds candidates grounded against
//! specific relations, so it remains valid exactly while those
//! relations' versions are unchanged (see `service`).

use std::collections::HashMap;
use std::sync::Arc;

use qarith_types::{database_digest, Database};

/// One published epoch: an immutable database plus its identity.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Monotone epoch number (0 is the load-time database).
    pub epoch: u64,
    /// The database as of this epoch. Shared, never mutated: the next
    /// epoch clones and replaces it.
    pub db: Arc<Database>,
    /// Content digest of `db` ([`database_digest`]) — the bit-pinning
    /// identity carried on replies and checked by the torture tests.
    pub digest: u64,
    /// Per-relation version counters, bumped when a batch touches the
    /// relation. Plan validity is keyed on these, not on the epoch:
    /// a write to `Orders` must not evict plans that only read
    /// `Market`.
    versions: HashMap<String, u64>,
}

impl Snapshot {
    /// Epoch 0 over a freshly loaded database (every relation at
    /// version 0).
    pub fn initial(db: Database) -> Snapshot {
        let versions = db.relations().iter().map(|r| (r.schema().name().to_string(), 0)).collect();
        let digest = database_digest(&db);
        Snapshot { epoch: 0, db: Arc::new(db), digest, versions }
    }

    /// The successor snapshot: `db` is the already-mutated database,
    /// `touched` the relations the batch changed (their versions bump
    /// by one; untouched relations keep theirs).
    pub fn next(&self, db: Database, touched: &[String]) -> Snapshot {
        let mut versions = self.versions.clone();
        for name in touched {
            *versions.entry(name.clone()).or_insert(0) += 1;
        }
        let digest = database_digest(&db);
        Snapshot { epoch: self.epoch + 1, db: Arc::new(db), digest, versions }
    }

    /// The relation's current version (0 for names the database does
    /// not declare — such a plan dependency can never be satisfied or
    /// invalidated, and lowering would have rejected the query anyway).
    pub fn version_of(&self, relation: &str) -> u64 {
        self.versions.get(relation).copied().unwrap_or(0)
    }
}

/// What one committed [`WriteBatch`](qarith_types::WriteBatch) did —
/// the new epoch's identity plus invalidation accounting, surfaced on
/// the wire as the `qarith-write/1` ack frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The epoch the batch published.
    pub epoch: u64,
    /// Content digest of the published database.
    pub db_digest: u64,
    /// Ops that changed the database.
    pub applied: u64,
    /// Well-typed no-op ops (duplicate insert, absent delete/update).
    pub noops: u64,
    /// Distinct ν-cache group keys invalidated by this batch.
    pub invalidated_keys: u64,
    /// ν-cache entries dropped (≥ keys: one key may hold several
    /// fingerprints).
    pub invalidated_entries: u64,
    /// Cached plans dropped because they depended on a touched
    /// relation.
    pub plans_invalidated: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_types::{Column, Relation, RelationSchema, Value, WriteBatch};

    fn db() -> Database {
        let mut db = Database::new();
        let schema = RelationSchema::new("R", vec![Column::base("a"), Column::num("x")]).unwrap();
        let mut r = Relation::empty(schema);
        r.insert_values(vec![Value::int(1), Value::num(10)]).unwrap();
        db.add_relation(r).unwrap();
        let s = RelationSchema::new("S", vec![Column::base("b")]).unwrap();
        db.add_relation(Relation::empty(s)).unwrap();
        db
    }

    #[test]
    fn initial_snapshot_pins_contents() {
        let snap = Snapshot::initial(db());
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.digest, database_digest(&snap.db));
        assert_eq!(snap.version_of("R"), 0);
        assert_eq!(snap.version_of("S"), 0);
    }

    #[test]
    fn next_bumps_only_touched_versions() {
        let snap = Snapshot::initial(db());
        let mut mutated = (*snap.db).clone();
        let mut batch = WriteBatch::new();
        batch.insert("R", vec![Value::int(2), Value::num(20)]);
        mutated.apply_batch(&batch).unwrap();
        let next = snap.next(mutated, &["R".to_string()]);
        assert_eq!(next.epoch, 1);
        assert_ne!(next.digest, snap.digest, "contents changed, digest must move");
        assert_eq!(next.version_of("R"), 1);
        assert_eq!(next.version_of("S"), 0, "untouched relation keeps its version");
    }

    #[test]
    fn digest_depends_on_contents_not_history() {
        // Insert-then-delete returns to the original contents, so the
        // digest returns too (digests name states, not histories).
        let original = db();
        let mut mutated = original.clone();
        let mut batch = WriteBatch::new();
        batch.insert("R", vec![Value::int(9), Value::num(9)]);
        mutated.apply_batch(&batch).unwrap();
        assert_ne!(database_digest(&mutated), database_digest(&original));
        let mut undo = WriteBatch::new();
        undo.delete("R", vec![Value::int(9), Value::num(9)]);
        mutated.apply_batch(&undo).unwrap();
        assert_eq!(database_digest(&mutated), database_digest(&original));
    }
}
