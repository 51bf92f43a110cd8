//! Fingerprint-keyed LRU plan cache.
//!
//! Planning is the per-request fixed cost the serving layer exists to
//! amortize, and a compiled [`Plan`] is reusable for every later request
//! whose query is *isomorphic* to the one that built it. The key is the
//! result cache's [`ResultKey`], for the same reasons plus one: a plan
//! *embeds* `Arc<Relation>` handles in its scan leaves, so it is valid
//! only for relations with the content fingerprint it was built against
//! (a hit from content-identical relations runs the same tuple sets). The
//! seed is in the key because it breaks planner ties. The value is an
//! `Arc<Plan>` shared by every request executing it; on an insert race
//! the resident plan wins. The cache is an [`Lru`] budgeted in entries.
//!
//! Those embedded handles also keep every relation version a resident
//! plan scans alive, however many mutations have superseded it. So the
//! engine inserts a plan only when the result cache refuses the plan's
//! result (larger than the whole byte budget, or a zero budget): that is
//! the one case in which a repeat would otherwise plan again, since a
//! cached result answers every repeat before the plan cache is asked.

use std::sync::Arc;

use ppr_relalg::Plan;

use crate::lru::{CacheStats, CacheValue, Lru};
use crate::result_cache::ResultKey;

impl CacheValue for Arc<Plan> {
    type Stats = CacheStats;
}

/// Thread-safe LRU cache from [`ResultKey`] to compiled plans; its
/// budget counts plans.
pub type PlanCache = Lru<ResultKey, Arc<Plan>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DbFingerprint;
    use crate::lru::tests::{other_shape, shape};
    use ppr_core::methods::Method;
    use ppr_query::Fingerprint;
    use ppr_relalg::{AttrId, Relation, Schema};

    fn key(n: u128) -> ResultKey {
        keyed(n, Method::Straightforward, 0)
    }

    fn keyed(n: u128, method: Method, seed: u64) -> ResultKey {
        ResultKey {
            data: DbFingerprint(1),
            fingerprint: Fingerprint(n),
            method,
            seed,
        }
    }

    fn plan(tag: u32) -> Arc<Plan> {
        let rel = Relation::empty(format!("r{tag}"), Schema::new(vec![AttrId(tag)]));
        Arc::new(Plan::scan(rel.into_shared(), vec![AttrId(tag)]))
    }

    fn scan_name(p: &Plan) -> &str {
        match p {
            Plan::Scan { base, .. } => base.name(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn hit_miss_counters() {
        let c = PlanCache::new(4);
        assert!(c.get(&key(1), &shape()).is_none());
        c.insert(key(1), shape(), plan(1));
        assert!(c.get(&key(1), &shape()).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len), (1, 1, 0, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn method_is_part_of_the_key() {
        let c = PlanCache::new(4);
        c.insert(keyed(7, Method::Straightforward, 0), shape(), plan(1));
        assert!(c
            .get(&keyed(7, Method::EarlyProjection, 0), &shape())
            .is_none());
        assert!(c
            .get(&keyed(7, Method::Straightforward, 0), &shape())
            .is_some());
    }

    #[test]
    fn seed_is_part_of_the_key() {
        // The seed breaks planner ties, so plans built under different
        // seeds may differ and must not share an entry.
        let c = PlanCache::new(4);
        c.insert(keyed(7, Method::Straightforward, 0), shape(), plan(1));
        assert!(c
            .get(&keyed(7, Method::Straightforward, 1), &shape())
            .is_none());
        assert!(c
            .get(&keyed(7, Method::Straightforward, 0), &shape())
            .is_some());
    }

    #[test]
    fn data_fingerprint_is_part_of_the_key() {
        // Plans embed `Arc<Relation>` scans, so a plan is only valid for
        // databases whose content matches the one it was built against.
        let c = PlanCache::new(4);
        c.insert(key(7), shape(), plan(1));
        let mut changed = key(7);
        changed.data = DbFingerprint(2);
        assert!(
            c.get(&changed, &shape()).is_none(),
            "a content change must re-plan"
        );
        assert!(c.get(&key(7), &shape()).is_some());
    }

    #[test]
    fn shape_mismatch_is_a_collision_not_a_hit() {
        // Two structurally different queries sharing a fingerprint (forced
        // here by reusing the key) must never share a plan.
        let c = PlanCache::new(4);
        c.insert(key(1), shape(), plan(10));
        assert!(c.get(&key(1), &other_shape()).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.collisions), (0, 1, 1));
        // Inserting the colliding query's plan displaces the entry…
        let got = c.insert(key(1), other_shape(), plan(20));
        assert_eq!(scan_name(&got), "r20");
        assert_eq!(c.stats().len, 1);
        // …so the new shape now hits and the old one misses.
        assert!(c.get(&key(1), &other_shape()).is_some());
        assert!(c.get(&key(1), &shape()).is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        let c = PlanCache::new(2);
        c.insert(key(1), shape(), plan(1));
        c.insert(key(2), shape(), plan(2));
        assert!(c.get(&key(1), &shape()).is_some()); // 2 is now LRU
        c.insert(key(3), shape(), plan(3));
        assert!(
            c.get(&key(2), &shape()).is_none(),
            "LRU entry should be evicted"
        );
        assert!(c.get(&key(1), &shape()).is_some());
        assert!(c.get(&key(3), &shape()).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().len, 2);
    }

    #[test]
    fn insert_race_keeps_first_plan() {
        let c = PlanCache::new(4);
        let first = c.insert(key(1), shape(), plan(10));
        let second = c.insert(key(1), shape(), plan(20));
        assert_eq!(scan_name(&first), "r10");
        assert_eq!(scan_name(&second), "r10", "existing entry must win");
        assert_eq!(c.stats().len, 1);
    }

    #[test]
    fn eviction_slot_reuse_is_sound() {
        let c = PlanCache::new(2);
        for i in 0..100u128 {
            c.insert(key(i), shape(), plan(i as u32));
        }
        let s = c.stats();
        assert_eq!(s.len, 2);
        assert_eq!(s.evictions, 98);
        assert!(c.get(&key(99), &shape()).is_some());
        assert!(c.get(&key(98), &shape()).is_some());
        assert!(c.get(&key(0), &shape()).is_none());
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c = Arc::new(PlanCache::new(8));
        let mut handles = Vec::new();
        for t in 0..4u128 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u128 {
                    let k = key((t * 4 + i) % 16);
                    if c.get(&k, &shape()).is_none() {
                        c.insert(k, shape(), plan(i as u32));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(s.len, 8);
        assert_eq!(s.hits + s.misses, 800, "every lookup is counted once");
    }
}
