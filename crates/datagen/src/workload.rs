//! Multi-scale, multi-family workloads over the §9 sales schema.
//!
//! The paper evaluates one hand-picked trio of decision-support queries
//! at one scale. Related evaluations ("Querying Incomplete Numerical
//! Data", Console–Libkin–Peterfreund; "Counting Problems over Incomplete
//! Databases", Arenas–Barceló–Monet) sweep *families* of numerical
//! workloads over growing database sizes. This module is the equivalent
//! axis for qarith: a [`WorkloadSpec`] names a scale, a query family,
//! and a seed, and [`WorkloadSpec::build`] deterministically produces
//! the database plus the family's SQL queries.
//!
//! Families:
//!
//! * [`QueryFamily::Sales`] — the three §9 decision-support queries
//!   verbatim ([`crate::sales::paper_queries`]);
//! * [`QueryFamily::RangeMix`] — range/decision-support mixes whose
//!   WHERE clauses combine variable-disjoint range predicates, the shape
//!   the rewrite pipeline's independence decomposition (DESIGN.md
//!   "Rewrite subsystem") factorizes into low-dimensional exact pieces;
//! * [`QueryFamily::Division`] — §9 division-elimination shapes: after
//!   cross-multiplication (`a/b ≥ c ⇝ a ≥ c·b`) their ground formulas
//!   carry `zᵢ·zⱼ` leading monomials, the inputs the spherical exact
//!   evaluator (`qarith-core`'s `exact::sphere3d`) handles without
//!   sampling.
//!
//! Determinism contract: for a fixed spec, the generated database has
//! exactly [`WorkloadSpec::expected_tuples`] tuples and a reproducible
//! [`qarith_types::database_digest`] — independent of the thread, process, or host
//! that generates it. CI's perf baseline (see `crates/bench`) leans on
//! this: certainty values can be compared bit-for-bit across runs.

use qarith_types::Database;

use crate::sales::{paper_queries, sales_database, SalesScale};

/// Named database scales for workload generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadScale {
    /// ~200 tuples — unit tests and the checked-in CI perf baseline.
    Tiny,
    /// ~2K tuples — laptop-quick experiments.
    Small,
    /// ~20K tuples — CI perf jobs with headroom for cache/dedup effects.
    Medium,
    /// ~200K tuples — the paper's §9 scale.
    Paper,
}

impl WorkloadScale {
    /// The scale's generation parameters.
    pub fn params(&self) -> SalesScale {
        match self {
            WorkloadScale::Tiny => SalesScale::tiny(),
            WorkloadScale::Small => SalesScale::small(),
            WorkloadScale::Medium => SalesScale::medium(),
            WorkloadScale::Paper => SalesScale::paper(),
        }
    }

    /// Stable lowercase name (CLI argument and JSON field value).
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadScale::Tiny => "tiny",
            WorkloadScale::Small => "small",
            WorkloadScale::Medium => "medium",
            WorkloadScale::Paper => "paper",
        }
    }

    /// Parses a CLI/JSON name produced by [`WorkloadScale::name`].
    pub fn parse(s: &str) -> Option<WorkloadScale> {
        match s {
            "tiny" => Some(WorkloadScale::Tiny),
            "small" => Some(WorkloadScale::Small),
            "medium" => Some(WorkloadScale::Medium),
            "paper" => Some(WorkloadScale::Paper),
            _ => None,
        }
    }

    /// All scales, ascending.
    pub fn all() -> [WorkloadScale; 4] {
        [WorkloadScale::Tiny, WorkloadScale::Small, WorkloadScale::Medium, WorkloadScale::Paper]
    }
}

/// A family of SQL queries over the sales schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryFamily {
    /// The paper's three §9 decision-support queries.
    Sales,
    /// Range/decision-support mixes with variable-disjoint predicates
    /// (independence-decomposition targets).
    RangeMix,
    /// Division-elimination shapes with `zᵢ·zⱼ` leading forms
    /// (`exact::sphere3d` targets).
    Division,
}

impl QueryFamily {
    /// Stable lowercase name (CLI argument and JSON field value).
    pub fn name(&self) -> &'static str {
        match self {
            QueryFamily::Sales => "sales",
            QueryFamily::RangeMix => "range",
            QueryFamily::Division => "division",
        }
    }

    /// Parses a CLI/JSON name produced by [`QueryFamily::name`].
    pub fn parse(s: &str) -> Option<QueryFamily> {
        match s {
            "sales" => Some(QueryFamily::Sales),
            "range" | "range-mix" | "rangemix" => Some(QueryFamily::RangeMix),
            "division" | "div" => Some(QueryFamily::Division),
            _ => None,
        }
    }

    /// All families, in reporting order.
    pub fn all() -> [QueryFamily; 3] {
        [QueryFamily::Sales, QueryFamily::RangeMix, QueryFamily::Division]
    }

    /// The paper sections this family exercises (documentation string,
    /// reproduced in DESIGN.md).
    pub fn paper_sections(&self) -> &'static str {
        match self {
            QueryFamily::Sales => "§9 (Figure 1 queries, verbatim reconstruction)",
            QueryFamily::RangeMix => "§8 asymptotic truth + independence decomposition",
            QueryFamily::Division => "§9 division elimination → monomial leading forms",
        }
    }

    /// The family's named SQL queries, in fixed order.
    pub fn queries(&self) -> Vec<WorkloadQuery> {
        match self {
            QueryFamily::Sales => paper_queries()
                .into_iter()
                .map(|(name, sql)| WorkloadQuery {
                    name: (*name).to_string(),
                    sql: (*sql).to_string(),
                })
                .collect(),
            QueryFamily::RangeMix => RANGE_MIX_QUERIES
                .iter()
                .map(|(name, sql)| WorkloadQuery {
                    name: (*name).to_string(),
                    sql: (*sql).to_string(),
                })
                .collect(),
            QueryFamily::Division => DIVISION_QUERIES
                .iter()
                .map(|(name, sql)| WorkloadQuery {
                    name: (*name).to_string(),
                    sql: (*sql).to_string(),
                })
                .collect(),
        }
    }
}

/// Range/decision-support mixes. Each WHERE clause combines predicates
/// over *disjoint* numerical columns, so ground formulas factor into
/// variable-disjoint components: 1-var range atoms (their thresholds
/// vanish asymptotically, Lemma 8.4) alongside the sales product forms.
/// All families stay inside the executor's conjunctive fragment —
/// disjunction enters ground formulas through multiple derivations per
/// candidate, not through `OR` in the WHERE clause.
const RANGE_MIX_QUERIES: [(&str, &str); 3] = [
    ("Premium Catalog", "SELECT P.id FROM Products P WHERE P.rrp >= 80 AND P.dis >= 0.9 LIMIT 25"),
    (
        "Margin Window",
        "SELECT P.seg FROM Products P, Market M \
         WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp AND M.dis >= 0.6 LIMIT 25",
    ),
    (
        "Bulk Bargain",
        "SELECT O.id FROM Orders O, Products P \
         WHERE P.id = O.pr AND O.q >= 10 AND O.dis <= 1.5 AND P.rrp >= 20 LIMIT 25",
    ),
];

/// Division-elimination shapes. Cross-multiplying `O.dis / O.q` against
/// a product of other attributes yields atoms whose top homogeneous
/// component is a `zᵢ·zⱼ` monomial — exactly the extended leading forms
/// `exact::sphere3d` evaluates by spherical arc/lune arithmetic when a
/// rewritten factor has ≤ 3 live nulls.
const DIVISION_QUERIES: [(&str, &str); 4] = [
    ("Unfair Discount", crate::sales::UNFAIR_DISCOUNT_SQL),
    ("Deep Discount Rate", "SELECT O.id FROM Orders O WHERE O.dis / O.q >= 0.8 LIMIT 25"),
    (
        "Rate Beats Market",
        "SELECT O.id FROM Orders O, Products P, Market M \
         WHERE P.id = O.pr AND P.seg = M.seg AND O.dis / O.q >= 0.9 * M.dis LIMIT 25",
    ),
    ("Effective Price Floor", "SELECT P.id FROM Products P WHERE P.rrp * P.dis >= 50 LIMIT 25"),
];

/// One named SQL query of a workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadQuery {
    /// Display name ("Premium Catalog", …).
    pub name: String,
    /// SQL text against the sales catalog.
    pub sql: String,
}

/// A fully specified workload: scale × family × seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WorkloadSpec {
    /// Database scale.
    pub scale: WorkloadScale,
    /// Query family.
    pub family: QueryFamily,
    /// Generation seed (equal seeds ⇒ equal databases, bit for bit).
    pub seed: u64,
}

impl WorkloadSpec {
    /// The exact number of tuples [`WorkloadSpec::build`] generates —
    /// fixed by the scale alone, independent of seed and nulls.
    pub fn expected_tuples(&self) -> usize {
        self.scale.params().total_rows()
    }

    /// Stable display name, e.g. `sales@tiny#2020`.
    pub fn label(&self) -> String {
        format!("{}@{}#{}", self.family.name(), self.scale.name(), self.seed)
    }

    /// Generates the database and instantiates the family's queries.
    pub fn build(&self) -> Workload {
        let db = sales_database(&self.scale.params(), self.seed);
        debug_assert_eq!(db.stats().tuples, self.expected_tuples());
        Workload { spec: *self, queries: self.family.queries(), db }
    }
}

/// A built workload: the generated database plus the family's queries.
pub struct Workload {
    /// The spec this was built from.
    pub spec: WorkloadSpec,
    /// The generated sales database.
    pub db: Database,
    /// The family's queries, in fixed order.
    pub queries: Vec<WorkloadQuery>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sales::sales_catalog;

    #[test]
    fn names_round_trip() {
        for s in WorkloadScale::all() {
            assert_eq!(WorkloadScale::parse(s.name()), Some(s));
        }
        for f in QueryFamily::all() {
            assert_eq!(QueryFamily::parse(f.name()), Some(f));
        }
        assert_eq!(WorkloadScale::parse("galactic"), None);
        assert_eq!(QueryFamily::parse("mystery"), None);
    }

    #[test]
    fn build_matches_expected_tuples() {
        let spec =
            WorkloadSpec { scale: WorkloadScale::Tiny, family: QueryFamily::RangeMix, seed: 7 };
        let w = spec.build();
        assert_eq!(w.db.stats().tuples, spec.expected_tuples());
        assert_eq!(w.queries.len(), 3);
    }

    #[test]
    fn families_are_nonempty_and_distinct() {
        for f in QueryFamily::all() {
            let qs = f.queries();
            assert!(qs.len() >= 2, "{} needs ≥ 2 queries for a family sweep", f.name());
            let mut names: Vec<_> = qs.iter().map(|q| q.name.clone()).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), qs.len(), "duplicate query names in {}", f.name());
        }
    }

    #[test]
    fn all_family_queries_compile_against_the_catalog() {
        let catalog = sales_catalog();
        for f in QueryFamily::all() {
            for q in f.queries() {
                qarith_sql::compile(&q.sql, &catalog)
                    .unwrap_or_else(|e| panic!("{} / {}: {e}", f.name(), q.name));
            }
        }
    }

    #[test]
    fn digest_is_seed_sensitive() {
        use qarith_types::database_digest;
        let scale = WorkloadScale::Tiny.params();
        let a = database_digest(&sales_database(&scale, 1));
        let b = database_digest(&sales_database(&scale, 1));
        let c = database_digest(&sales_database(&scale, 2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
