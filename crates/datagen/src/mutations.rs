//! Deterministic mutation streams over the §9 sales database.
//!
//! The serving layer's write path ([`qarith_types::WriteBatch`],
//! `QueryService::apply`) needs load the same way the read path does:
//! a reproducible stream of batches that exercises every op kind —
//! inserts with fresh marked nulls (an incomplete database *stays*
//! incomplete as it evolves), deletes of generated tuples, updates
//! that resolve a cell or re-null it. [`sales_mutations`] derives such
//! a stream from a generated sales database and a seed: equal
//! `(database, seed, shape)` inputs produce equal batches, so the
//! `serve_bench --mutate` CI gate replays the exact same write
//! workload every run.
//!
//! Every op is constructed to *apply* (never a no-op): inserts mint
//! ids/keys from a fresh range far above anything the generator
//! produced, and deletes/updates consume distinct existing tuples
//! tracked in a shadow working set. Callers can therefore predict the
//! serving counters exactly: applying the stream to the database it
//! was derived from yields `applied == total ops, noops == 0`.

use qarith_types::{Database, NumNullId, Value, WriteBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// First id/key index minted for inserted tuples: far above the serial
/// ids and null ids of any generated scale (the paper scale tops out
/// at 10^5 rows), and comfortably inside `u32` for fresh null ids.
pub const FRESH_ID_BASE: u32 = 1 << 20;

/// Shape of a mutation stream.
#[derive(Clone, Copy, Debug)]
pub struct MutationShape {
    /// Number of batches.
    pub batches: usize,
    /// Ops per batch.
    pub ops_per_batch: usize,
}

impl MutationShape {
    /// Total ops across the stream.
    pub fn total_ops(&self) -> usize {
        self.batches * self.ops_per_batch
    }
}

/// Derives a deterministic stream of write batches against the sales
/// schema from the database they will be applied to.
///
/// The op mix per batch (driven by the seeded RNG): `Orders` inserts
/// with a fresh id and a ~1-in-3 chance of a fresh marked-null
/// quantity, `Orders` deletes of still-present generated tuples, and
/// `Market` updates that replace a row's numerical columns (resolving
/// to concrete values or introducing a fresh null). Deletes and
/// updates draw from a shadow of the evolving relations, so replaying
/// the stream in order against `db` applies every op.
pub fn sales_mutations(db: &Database, seed: u64, shape: MutationShape) -> Vec<WriteBatch> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD31A_57A6);
    // Shadow working sets: the tuples still available to delete/update.
    let mut orders: Vec<Vec<Value>> = db
        .relation("Orders")
        .expect("sales database has Orders")
        .tuples()
        .iter()
        .map(|t| t.values().to_vec())
        .collect();
    let mut market: Vec<Vec<Value>> = db
        .relation("Market")
        .expect("sales database has Market")
        .tuples()
        .iter()
        .map(|t| t.values().to_vec())
        .collect();

    let mut next_fresh = FRESH_ID_BASE;
    let mut batches = Vec::with_capacity(shape.batches);
    for _ in 0..shape.batches {
        let mut batch = WriteBatch::new();
        for _ in 0..shape.ops_per_batch {
            match rng.gen_range(0u32..10) {
                // Insert a fresh order (40%). Fresh id ⇒ never a
                // duplicate under set semantics.
                0..=3 => {
                    let q = if rng.gen_range(0u32..3) == 0 {
                        let id = NumNullId(next_fresh);
                        next_fresh += 1;
                        Value::NumNull(id)
                    } else {
                        Value::num(rng.gen_range(1i64..50))
                    };
                    let id = next_fresh as i64;
                    next_fresh += 1;
                    let values = vec![
                        Value::int(id),
                        Value::int(rng.gen_range(0i64..orders.len().max(1) as i64)),
                        q,
                        Value::num(rng.gen_range(1i64..5)),
                    ];
                    orders.push(values.clone());
                    batch.insert("Orders", values);
                }
                // Delete a still-present order (30%).
                4..=6 if !orders.is_empty() => {
                    let k = rng.gen_range(0..orders.len());
                    batch.delete("Orders", orders.swap_remove(k));
                }
                // Update a market row's numerical columns in place
                // (30%): same segment key, new `rrp`/`dis` — possibly
                // resolving a null, possibly introducing a fresh one.
                _ if !market.is_empty() => {
                    let k = rng.gen_range(0..market.len());
                    let old = market[k].clone();
                    let rrp = if rng.gen_range(0u32..4) == 0 {
                        let id = NumNullId(next_fresh);
                        next_fresh += 1;
                        Value::NumNull(id)
                    } else {
                        Value::num(rng.gen_range(1i64..100))
                    };
                    let new = vec![old[0].clone(), rrp, Value::num(rng.gen_range(1i64..10))];
                    market[k] = new.clone();
                    batch.update("Market", old, new);
                }
                // Exhausted working sets (only reachable on toy
                // databases): fall back to a fresh insert.
                _ => {
                    let id = next_fresh as i64;
                    next_fresh += 1;
                    let values = vec![Value::int(id), Value::int(0), Value::num(1), Value::num(1)];
                    orders.push(values.clone());
                    batch.insert("Orders", values);
                }
            }
        }
        batches.push(batch);
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sales::{sales_database, SalesScale};

    const SHAPE: MutationShape = MutationShape { batches: 8, ops_per_batch: 4 };

    #[test]
    fn deterministic_under_seed() {
        let db = sales_database(&SalesScale::tiny(), 2020);
        let a = sales_mutations(&db, 7, SHAPE);
        let b = sales_mutations(&db, 7, SHAPE);
        assert_eq!(a, b);
        let c = sales_mutations(&db, 8, SHAPE);
        assert_ne!(a, c);
    }

    #[test]
    fn every_op_applies_and_none_are_noops() {
        let mut db = sales_database(&SalesScale::tiny(), 2020);
        let stream = sales_mutations(&db, 7, SHAPE);
        assert_eq!(stream.len(), SHAPE.batches);
        let (mut applied, mut noops) = (0, 0);
        for batch in &stream {
            assert_eq!(batch.ops.len(), SHAPE.ops_per_batch);
            let summary = db.apply_batch(batch).expect("stream type-checks");
            applied += summary.applied;
            noops += summary.noops;
        }
        assert_eq!((applied, noops), (SHAPE.total_ops(), 0));
    }

    #[test]
    fn stream_mixes_op_kinds_and_mints_fresh_nulls() {
        let db = sales_database(&SalesScale::tiny(), 2020);
        let stream = sales_mutations(&db, 7, SHAPE);
        let ops: Vec<_> = stream.iter().flat_map(|b| b.ops.iter()).collect();
        let inserts =
            ops.iter().filter(|o| matches!(o, qarith_types::WriteOp::Insert { .. })).count();
        let deletes =
            ops.iter().filter(|o| matches!(o, qarith_types::WriteOp::Delete { .. })).count();
        let updates =
            ops.iter().filter(|o| matches!(o, qarith_types::WriteOp::Update { .. })).count();
        assert!(inserts > 0 && deletes > 0 && updates > 0, "{inserts}/{deletes}/{updates}");
        // Fresh nulls keep the database incomplete as it evolves, and
        // their ids never collide with generated ones.
        let fresh_nulls: Vec<u32> = ops
            .iter()
            .flat_map(|o| match o {
                qarith_types::WriteOp::Insert { values, .. }
                | qarith_types::WriteOp::Delete { values, .. } => values.iter(),
                qarith_types::WriteOp::Update { new, .. } => new.iter(),
            })
            .filter_map(|v| match v {
                Value::NumNull(NumNullId(id)) if *id >= FRESH_ID_BASE => Some(*id),
                _ => None,
            })
            .collect();
        assert!(!fresh_nulls.is_empty(), "stream must introduce fresh marked nulls");
    }

    #[test]
    fn digest_changes_with_every_batch() {
        let mut db = sales_database(&SalesScale::tiny(), 2020);
        let stream = sales_mutations(&db, 7, SHAPE);
        let mut digests = vec![qarith_types::database_digest(&db)];
        for batch in &stream {
            db.apply_batch(batch).expect("applies");
            digests.push(qarith_types::database_digest(&db));
        }
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), SHAPE.batches + 1, "every batch changes the database");
    }
}
