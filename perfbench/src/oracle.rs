//! The independent oracle: the benchmark's own model of `R` and `S`,
//! and the path-2 view `Q(x,y,z) :- R(x,y), S(y,z)` with `x` bound,
//! evaluated by a hash join on `y`. It shares no code with the program
//! under test beyond reading the tuples out of a [`Delta`].

use cqc_common::Value;
use cqc_storage::Delta;
use std::collections::{BTreeSet, HashMap};

/// `R` indexed by `x` and `S` indexed by `y` (the join key).
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    r: HashMap<Value, BTreeSet<Value>>,
    s: HashMap<Value, BTreeSet<Value>>,
}

fn insert(index: &mut HashMap<Value, BTreeSet<Value>>, pair: &[Value]) {
    index.entry(pair[0]).or_default().insert(pair[1]);
}

fn remove(index: &mut HashMap<Value, BTreeSet<Value>>, pair: &[Value]) {
    if let Some(set) = index.get_mut(&pair[0]) {
        set.remove(&pair[1]);
        if set.is_empty() {
            index.remove(&pair[0]);
        }
    }
}

impl Oracle {
    /// A model of `R` and `S` from flat `(a, b)` pair lists.
    pub fn new(r: &[Value], s: &[Value]) -> Oracle {
        let mut o = Oracle::default();
        r.chunks_exact(2).for_each(|p| insert(&mut o.r, p));
        s.chunks_exact(2).for_each(|p| insert(&mut o.s, p));
        o
    }

    fn index(&mut self, relation: &str) -> &mut HashMap<Value, BTreeSet<Value>> {
        match relation {
            "R" => &mut self.r,
            "S" => &mut self.s,
            other => panic!("the benchmark's deltas touch only R and S, not {other}"),
        }
    }

    /// Applies `delta` with the program's documented semantics: inserts
    /// first, then removals.
    pub fn apply(&mut self, delta: &Delta) {
        for (name, tuples) in delta.groups() {
            let index = self.index(name);
            tuples.iter().for_each(|t| insert(index, t));
        }
        for (name, tuples) in delta.remove_groups() {
            let index = self.index(name);
            tuples.iter().for_each(|t| remove(index, t));
        }
    }

    /// The number of answers of the request binding `x`.
    pub fn count(&self, x: Value) -> usize {
        self.r.get(&x).map_or(0, |ys| {
            ys.iter()
                .map(|y| self.s.get(y).map_or(0, BTreeSet::len))
                .sum()
        })
    }

    /// The answers `(y, z)` of the request binding `x`, flat, in
    /// lexicographic order.
    pub fn answers(&self, x: Value) -> Vec<Value> {
        let mut out = Vec::new();
        for y in self.r.get(&x).into_iter().flatten() {
            for z in self.s.get(y).into_iter().flatten() {
                out.extend([*y, *z]);
            }
        }
        out
    }
}

/// Checks a served stream of `(y, z)` answers against the oracle's: the
/// same set, in strictly increasing lexicographic order.
pub fn check_stream(arity: usize, got: &[Value], want: &[Value]) -> Result<(), String> {
    if !got.is_empty() && arity != 2 {
        return Err(format!("answers have arity {arity}, expected 2"));
    }
    let pairs: Vec<&[Value]> = got.chunks_exact(2).collect();
    if let Some(w) = pairs.windows(2).find(|w| w[0] >= w[1]) {
        return Err(format!(
            "stream not strictly increasing: {:?} then {:?}",
            w[0], w[1]
        ));
    }
    if got != want {
        return Err(format!(
            "stream differs from the oracle: {} answers served, {} expected",
            pairs.len(),
            want.len() / 2
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nested-loop join over the raw pair lists: the slowest, plainest
    /// evaluation there is.
    fn brute_force(r: &[Value], s: &[Value], x: Value) -> Vec<Value> {
        let mut out: Vec<(Value, Value)> = Vec::new();
        for rp in r.chunks_exact(2) {
            for sp in s.chunks_exact(2) {
                if rp[0] == x && rp[1] == sp[0] {
                    out.push((rp[1], sp[1]));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out.into_iter().flat_map(|(y, z)| [y, z]).collect()
    }

    fn apply_flat(rel: &mut Vec<Value>, delta: &Delta, name: &str) {
        let mut pairs: BTreeSet<(Value, Value)> =
            rel.chunks_exact(2).map(|p| (p[0], p[1])).collect();
        for t in delta.tuples_for(name).unwrap_or(&[]) {
            pairs.insert((t[0], t[1]));
        }
        for t in delta.removes_for(name).unwrap_or(&[]) {
            pairs.remove(&(t[0], t[1]));
        }
        *rel = pairs.into_iter().flat_map(|(a, b)| [a, b]).collect();
    }

    #[test]
    fn hash_join_matches_brute_force_before_and_after_a_delta() {
        // Duplicates on purpose: the model is a set, like the relations.
        let mut r = vec![1, 2, 1, 3, 2, 3, 1, 2, 4, 9];
        let mut s = vec![2, 5, 2, 6, 3, 7, 9, 1, 3, 5];
        let mut oracle = Oracle::new(&r, &s);
        let check = |o: &Oracle, r: &[Value], s: &[Value]| {
            for x in 0..6 {
                let want = brute_force(r, s, x);
                assert_eq!(o.answers(x), want, "x = {x}");
                assert_eq!(o.count(x), want.len() / 2, "x = {x}");
                check_stream(2, &want, &o.answers(x)).unwrap();
            }
        };
        check(&oracle, &r, &s);
        assert_eq!(oracle.answers(1), vec![2, 5, 2, 6, 3, 5, 3, 7]);

        let mut delta = Delta::new();
        delta.insert("R", vec![5, 2]);
        delta.insert("S", vec![2, 4]);
        delta.remove("R", vec![1, 3]);
        delta.remove("S", vec![3, 7]);
        delta.remove("S", vec![8, 8]); // absent: a no-op
        oracle.apply(&delta);
        apply_flat(&mut r, &delta, "R");
        apply_flat(&mut s, &delta, "S");
        check(&oracle, &r, &s);
        assert_eq!(oracle.count(5), 3);
    }

    #[test]
    fn stream_check_rejects_order_duplicates_and_differences() {
        let want = vec![1, 2, 1, 3, 2, 0];
        assert!(check_stream(2, &want, &want).is_ok());
        assert!(check_stream(2, &[], &[]).is_ok());
        let swapped = vec![1, 3, 1, 2, 2, 0];
        assert!(check_stream(2, &swapped, &want)
            .unwrap_err()
            .contains("increasing"));
        let dup = vec![1, 2, 1, 2, 2, 0];
        assert!(check_stream(2, &dup, &want)
            .unwrap_err()
            .contains("increasing"));
        let short = vec![1, 2, 1, 3];
        assert!(check_stream(2, &short, &want)
            .unwrap_err()
            .contains("differs"));
        assert!(check_stream(3, &[1, 2, 3], &want).is_err());
    }
}
