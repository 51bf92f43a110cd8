//! Structure-keyed LRU cache of chosen variable orders.
//!
//! Bucket elimination's expensive planning step is *decomposition*:
//! choosing the variable elimination order (MCS, min-degree, or min-fill
//! over the join graph). The [`crate::cache::PlanCache`] already reuses
//! whole plans, but its key includes the content fingerprint of the
//! relations the query reads — plans embed `Arc<Relation>` scans, so a
//! mutation of any of them rightly invalidates the plan. The variable
//! order has no such dependency: it is a
//! function of the query's *structure* alone. This cache exploits that
//! asymmetry. The key is [`DecompKey`]: query [`Fingerprint`] ×
//! [`OrderHeuristic`] × planner seed — deliberately **without** the data
//! fingerprint, so a catalog mutation that forces a re-plan still skips
//! re-decomposition for every structurally repeated query.
//!
//! Variable orders are stored *rank-encoded*: a cached entry holds the
//! positions of the chosen order's variables within the query's
//! renaming-invariant [`ppr_query::canonical_var_order`]. Two isomorphic queries
//! disagree on raw [`AttrId`]s (each has its own interner), but they
//! share fingerprint, shape, and canonical-order length, so ranks decode
//! into the incoming query's own ids. For an exact repeat the decode is
//! the identity and the resulting plan is byte-identical to the cold one
//! (the `Decompose` pass consumes no randomness when a hint covers the
//! query — see `ppr_core::passes` and docs/PLANNING.md). For a renamed
//! repeat the decoded order is a valid total order over the new query's
//! variables; WL color ties mean it may differ from the order a fresh
//! decomposition would have chosen, but bucket construction is correct
//! under *any* total order, so collisions and tie-flips cost optimality,
//! never soundness.
//!
//! The cache itself is an [`Lru`] budgeted in entries; like every cache
//! keyed by a 1-WL fingerprint it re-checks the [`ppr_query::QueryShape`]
//! on each hit (see [`crate::lru`]).

use ppr_core::methods::OrderHeuristic;
use ppr_query::Fingerprint;
use ppr_relalg::AttrId;

use crate::lru::{CacheStats, CacheValue, Lru};

/// Cache key: canonical query structure × decomposition heuristic ×
/// planner seed. No database identity — the order is pure query
/// structure and survives catalog mutations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecompKey {
    /// Canonical query fingerprint.
    pub fingerprint: Fingerprint,
    /// Which elimination-order heuristic chose the order.
    pub heuristic: OrderHeuristic,
    /// Effective planner seed (heuristics break ties randomly).
    pub seed: u64,
}

/// Rank-encodes `order` against `canonical` (the query's
/// [`ppr_query::canonical_var_order`]): position `i` of the result is the index in
/// `canonical` of the `i`-th order variable. Returns `None` unless
/// `order` is exactly a permutation of `canonical` — anything else is
/// not a decomposition of this query and must not be cached.
pub fn encode_order(order: &[AttrId], canonical: &[AttrId]) -> Option<Vec<u32>> {
    let ranks = order
        .iter()
        .map(|v| Some(canonical.iter().position(|c| c == v)? as u32))
        .collect::<Option<Vec<u32>>>()?;
    decode_order(&ranks, canonical).map(|_| ranks)
}

/// Decodes `ranks` into the incoming query's own [`AttrId`]s via its
/// [`ppr_query::canonical_var_order`]. Returns `None` unless `ranks` is a
/// permutation of `0..canonical.len()` — a stale or colliding entry
/// yields a fresh decomposition, never a bad order.
pub fn decode_order(ranks: &[u32], canonical: &[AttrId]) -> Option<Vec<AttrId>> {
    if ranks.len() != canonical.len() {
        return None;
    }
    let mut seen = vec![false; canonical.len()];
    let mut order = Vec::with_capacity(ranks.len());
    for &r in ranks {
        let i = r as usize;
        if i >= canonical.len() || std::mem::replace(&mut seen[i], true) {
            return None;
        }
        order.push(canonical[i]);
    }
    Some(order)
}

impl CacheValue for Vec<u32> {
    type Stats = CacheStats;
}

/// Thread-safe LRU cache from [`DecompKey`] to rank-encoded variable
/// orders; its budget counts orders.
pub type DecompCache = Lru<DecompKey, Vec<u32>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::tests::{other_shape, shape};
    use ppr_query::{canonical_var_order, parse_query};

    fn key(n: u128) -> DecompKey {
        DecompKey {
            fingerprint: Fingerprint(n),
            heuristic: OrderHeuristic::Mcs,
            seed: 0,
        }
    }

    #[test]
    fn rank_round_trip_is_identity_on_the_same_query() {
        let q = parse_query("q() :- e(a,b), e(b,c), e(c,a)").unwrap();
        let canonical = canonical_var_order(&q);
        let mut order = q.all_vars();
        order.reverse();
        let ranks = encode_order(&order, &canonical).unwrap();
        assert_eq!(decode_order(&ranks, &canonical).unwrap(), order);
    }

    #[test]
    fn renamed_query_decodes_to_its_own_ids() {
        // The pentagon under two different variable namings: ranks
        // encoded against one query's canonical order decode into the
        // other's AttrIds, covering every variable exactly once.
        let a = parse_query("q() :- e(a,b), e(b,c), e(c,d), e(d,f), e(f,a)").unwrap();
        let b = parse_query("q() :- e(v,w), e(u,v), e(z,u), e(y,z), e(w,y)").unwrap();
        let ca = canonical_var_order(&a);
        let cb = canonical_var_order(&b);
        let order = a.all_vars();
        let ranks = encode_order(&order, &ca).unwrap();
        let decoded = decode_order(&ranks, &cb).unwrap();
        let mut sorted = decoded.clone();
        sorted.sort_unstable();
        let mut all = b.all_vars();
        all.sort_unstable();
        assert_eq!(sorted, all, "decoded order must cover b's variables");
    }

    #[test]
    fn invalid_encodings_are_rejected() {
        let q = parse_query("q() :- e(a,b), e(b,c)").unwrap();
        let canonical = canonical_var_order(&q);
        let order = q.all_vars();
        // Too short.
        assert!(encode_order(&order[..2], &canonical).is_none());
        // Repeated variable.
        let dup = vec![order[0], order[0], order[1]];
        assert!(encode_order(&dup, &canonical).is_none());
        // Foreign variable id.
        let mut foreign = order.clone();
        foreign[0] = ppr_relalg::AttrId(9999);
        assert!(encode_order(&foreign, &canonical).is_none());
        // Bad ranks on decode: out of range, duplicated, wrong length.
        assert!(decode_order(&[0, 1, 7], &canonical).is_none());
        assert!(decode_order(&[0, 1, 1], &canonical).is_none());
        assert!(decode_order(&[0, 1], &canonical).is_none());
    }

    #[test]
    fn hit_miss_collision_and_eviction_counters() {
        let c = DecompCache::new(2);
        assert!(c.get(&key(1), &shape()).is_none());
        c.insert(key(1), shape(), vec![0, 1]);
        assert_eq!(c.get(&key(1), &shape()), Some(vec![0, 1]));
        // Shape mismatch on a key match is a collision, not a hit.
        assert!(c.get(&key(1), &other_shape()).is_none());
        // Fill past capacity: key(1) was refreshed, key(2) is LRU.
        c.insert(key(2), shape(), vec![1, 0]);
        assert!(c.get(&key(1), &shape()).is_some());
        c.insert(key(3), shape(), vec![0, 1]);
        assert!(c.get(&key(2), &shape()).is_none(), "LRU entry evicted");
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.collisions, 1);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, 2);
        assert_eq!(s.capacity, 2);
    }

    #[test]
    fn colliding_shape_displaces_the_entry() {
        let c = DecompCache::new(4);
        c.insert(key(1), shape(), vec![0, 1]);
        c.insert(key(1), other_shape(), vec![1, 0]);
        assert_eq!(c.get(&key(1), &other_shape()), Some(vec![1, 0]));
        assert!(c.get(&key(1), &shape()).is_none());
        assert_eq!(c.stats().len, 1);
    }
}
