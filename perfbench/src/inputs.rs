//! Input generation, all of it before any timing: the rows of `R` and
//! `S`, the request bounds, which requests are re-checked in full, and
//! the cycle of deltas the writes replay.

use cqc_common::Value;
use cqc_query::parser::parse_adorned;
use cqc_storage::{Database, Delta, Relation};
use cqc_workload::{mixed_delta, witness_requests};
use rand::Rng;
use std::collections::BTreeSet;

/// The served view (path-2) and its access pattern.
pub const QUERY: &str = "Q(x,y,z) :- R(x,y), S(y,z)";
/// `x` bound, `y` and `z` free.
pub const PATTERN: &str = "bff";
/// Theorem 1 with an explicit delay knob, so no workload depends on the
/// strategy selector.
pub const STRATEGY: &str = "tau:1000";
/// The name the view is registered under.
pub const VIEW: &str = "path2";
/// Rows generated per relation (fewer after de-duplication).
pub const ROWS: usize = 20_000;
/// Values per column: `2·√ROWS`, which gives ~4,000 answers a request.
pub const DOMAIN: u64 = 282;
/// Distinct request bounds; the request stream cycles through them.
pub const BOUNDS: usize = 4096;
/// One request in this many is re-served and checked in full.
pub const CHECK_ONE_IN: u32 = 16;
/// Forward deltas generated; the write cycle replays them and then their
/// inverses in reverse order, so the database returns to its start and
/// the cycle can repeat for any run length.
pub const DELTA_STEPS: usize = 64;
/// Tuples inserted and removed per relation by each generated delta.
pub const DELTA_TUPLES: usize = 4;

/// Everything a run needs, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// `R` as flat `(x, y)` pairs.
    pub r: Vec<Value>,
    /// `S` as flat `(y, z)` pairs.
    pub s: Vec<Value>,
    /// The bound `x` of each request.
    pub bounds: Vec<Value>,
    /// Whether request `i` is re-served and checked in full.
    pub check: Vec<bool>,
    /// The write cycle: forward deltas, then their inverses.
    pub deltas: Vec<Delta>,
}

fn flat(rel: &Relation) -> Vec<Value> {
    rel.iter().flatten().copied().collect()
}

/// Builds the database from flat pair lists — the first step of set-up.
pub fn database(r: &[Value], s: &[Value]) -> Database {
    let mut db = Database::new();
    db.add(Relation::from_flat("R", 2, r.to_vec()))
        .expect("fresh database");
    db.add(Relation::from_flat("S", 2, s.to_vec()))
        .expect("fresh database");
    db
}

/// The part of `raw` that changes `db`, as a delta whose inserts are all
/// absent and whose removals are all present: applied to `db` it has the
/// same effect as `raw`, and swapping its two halves undoes it exactly.
fn effective(db: &Database, raw: &Delta) -> (Delta, Delta) {
    let mut forward = Delta::new();
    let mut inverse = Delta::new();
    for name in ["R", "S"] {
        let rel = db.get(name).expect("R and S exist");
        let removes: BTreeSet<&[Value]> = raw
            .removes_for(name)
            .unwrap_or(&[])
            .iter()
            .map(Vec::as_slice)
            .collect();
        let inserts: BTreeSet<&[Value]> = raw
            .tuples_for(name)
            .unwrap_or(&[])
            .iter()
            .map(Vec::as_slice)
            .filter(|t| !rel.contains(t) && !removes.contains(t))
            .collect();
        for t in inserts {
            forward.insert(name, t.to_vec());
            inverse.remove(name, t.to_vec());
        }
        for t in removes.into_iter().filter(|t| rel.contains(t)) {
            forward.remove(name, t.to_vec());
            inverse.insert(name, t.to_vec());
        }
    }
    (forward, inverse)
}

fn is_empty(delta: &Delta) -> bool {
    delta.total_tuples() == 0
}

/// Generates a run's inputs from `seed`; the same seed gives the same
/// inputs.
pub fn generate(seed: u64) -> Inputs {
    let mut rng = cqc_workload::rng(seed);
    let r = cqc_workload::uniform_relation(&mut rng, "R", 2, ROWS, DOMAIN);
    let s = cqc_workload::uniform_relation(&mut rng, "S", 2, ROWS, DOMAIN);
    let (r, s) = (flat(&r), flat(&s));
    let mut model = database(&r, &s);
    let view = parse_adorned(QUERY, PATTERN).expect("the benchmark view parses");
    let bounds: Vec<Value> = witness_requests(&mut rng, &view, &model, BOUNDS)
        .into_iter()
        .map(|b| b[0])
        .collect();
    let check = (0..BOUNDS)
        .map(|_| rng.gen_range(0..CHECK_ONE_IN) == 0)
        .collect();
    // `mixed_delta` scans whole relations, so every delta is made here,
    // against a model copy, and none inside a timed section.
    let mut forward = Vec::with_capacity(DELTA_STEPS);
    let mut inverse = Vec::with_capacity(DELTA_STEPS);
    while forward.len() < DELTA_STEPS {
        let raw = mixed_delta(&mut rng, &model, &["R", "S"], DELTA_TUPLES, DELTA_TUPLES);
        let (f, i) = effective(&model, &raw);
        if is_empty(&f) {
            continue;
        }
        model.apply(&f).expect("generated against this schema");
        forward.push(f);
        inverse.push(i);
    }
    inverse.reverse();
    forward.extend(inverse);
    Inputs {
        r,
        s,
        bounds,
        check,
        deltas: forward,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;

    #[test]
    fn same_seed_same_inputs_and_the_write_cycle_returns_to_the_start() {
        let a = generate(7);
        let b = generate(7);
        assert_eq!(
            (&a.r, &a.s, &a.bounds, &a.check),
            (&b.r, &b.s, &b.bounds, &b.check)
        );
        assert_eq!(a.deltas.len(), 2 * DELTA_STEPS);
        assert_ne!(generate(8).r, a.r);

        let mut db = database(&a.r, &a.s);
        let start: Vec<Vec<Value>> = ["R", "S"]
            .iter()
            .map(|n| flat(db.get(n).unwrap()))
            .collect();
        let mut oracle = Oracle::new(&a.r, &a.s);
        let x = a.bounds[0];
        let first = oracle.answers(x);
        assert!(!first.is_empty(), "bounds come from witnesses");
        for d in &a.deltas {
            let before = db.epoch();
            assert!(
                db.apply(d).unwrap() > before,
                "every delta changes something"
            );
            oracle.apply(d);
        }
        let end: Vec<Vec<Value>> = ["R", "S"]
            .iter()
            .map(|n| flat(db.get(n).unwrap()))
            .collect();
        assert_eq!(start, end);
        assert_eq!(oracle.answers(x), first);
    }
}
