//! The frozen historical a.e. simplification — the body of the retired
//! `QfFormula::ae_simplified` — kept as the one test oracle that
//! `qarith_rewrite::ae_simplify` (and the `ae_only` rewrite
//! configuration) must reproduce bit for bit. Shared by the rewrite
//! crate's unit tests and `tests/rewrite_soundness.rs` through
//! `#[path]` module includes; nothing ships it.

use qarith_constraints::{ConstraintOp, QfFormula};

/// NNF, then every equality atom becomes `false` and every
/// disequality `true`, rebuilt through the smart constructors.
pub fn frozen_ae_simplified(phi: &QfFormula) -> QfFormula {
    fn go(f: &QfFormula) -> QfFormula {
        match f {
            QfFormula::True => QfFormula::True,
            QfFormula::False => QfFormula::False,
            QfFormula::Atom(a) => match a.op() {
                ConstraintOp::Eq => QfFormula::False,
                ConstraintOp::Ne => QfFormula::True,
                _ => QfFormula::Atom(a.clone()),
            },
            QfFormula::Not(_) => unreachable!("runs on NNF"),
            QfFormula::And(parts) => QfFormula::and(parts.iter().map(go)),
            QfFormula::Or(parts) => QfFormula::or(parts.iter().map(go)),
        }
    }
    go(&phi.nnf())
}
