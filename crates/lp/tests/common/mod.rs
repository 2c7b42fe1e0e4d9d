//! Program builders shared by the integration tests.

use lp::{LinearProgram, Relation};
use numeric::Q;

pub fn q(v: i64) -> Q {
    Q::from_int(v)
}

/// Build a random LP from flat integer streams: `nv` variables, one
/// constraint per chunk of `coefs`, relation and rhs cycled from `rels`
/// and `rhss`, objective from `objs`.
pub fn random_lp(
    nv: usize,
    objs: &[i64],
    coefs: &[i64],
    rels: &[u8],
    rhss: &[i64],
    n_cons: usize,
) -> LinearProgram {
    let mut lp = LinearProgram::new(nv);
    for v in 0..nv {
        lp.set_objective(v, q(objs[v % objs.len()]));
    }
    for c in 0..n_cons {
        let coeffs: Vec<(usize, Q)> = (0..nv)
            .map(|v| (v, q(coefs[(c * nv + v) % coefs.len()])))
            .filter(|(_, w)| !w.is_zero())
            .collect();
        if coeffs.is_empty() {
            continue;
        }
        let rel = match rels[c % rels.len()] % 3 {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        lp.add_constraint(coeffs, rel, q(rhss[c % rhss.len()]));
    }
    lp
}

/// A wide bounded-allocation LP: `nv` variables with individual caps, a
/// coupling equality, and a mixed-sign objective.
pub fn wide_lp(nv: usize, seed: i64) -> LinearProgram {
    let mut lp = LinearProgram::new(nv);
    for v in 0..nv {
        let c = (seed + v as i64 * 7) % 11 - 5;
        lp.set_objective(v, q(c));
        lp.add_constraint(vec![(v, q(1))], Relation::Le, q((seed + v as i64) % 9 + 1));
    }
    lp.add_constraint((0..nv).map(|v| (v, Q::one())), Relation::Eq, q(nv as i64 / 3));
    lp
}
