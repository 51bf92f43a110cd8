//! Database statistics.
//!
//! The cost model needs per-relation cardinalities and per-column distinct
//! counts. On the paper's tiny databases these are exact (the point of the
//! experimental setup is that such statistics carry no useful signal when
//! the query has 100 relations over a 6-tuple table).

use rustc_hash::{FxHashMap, FxHashSet};

use ppr_query::Database;

/// Statistics for one relation.
#[derive(Debug, Clone)]
pub struct RelStats {
    /// Number of tuples.
    pub cardinality: f64,
    /// Distinct values per column.
    pub distinct: Vec<f64>,
}

/// Statistics for every relation in a database.
#[derive(Debug, Clone)]
pub struct Catalog {
    stats: FxHashMap<String, RelStats>,
}

impl Catalog {
    /// Computes exact statistics for `db`.
    pub fn of(db: &Database) -> Catalog {
        let mut stats = FxHashMap::default();
        for name in db.names() {
            let rel = db.expect(name);
            let distinct = (0..rel.arity())
                .map(|c| {
                    let values: FxHashSet<u32> = rel.rows().map(|t| t[c]).collect();
                    values.len() as f64
                })
                .collect();
            stats.insert(
                name.to_string(),
                RelStats {
                    cardinality: rel.len() as f64,
                    distinct,
                },
            );
        }
        Catalog { stats }
    }

    /// Statistics for `relation`; panics if unknown (queries are validated
    /// against their database before planning).
    pub fn rel(&self, relation: &str) -> &RelStats {
        self.stats
            .get(relation)
            .unwrap_or_else(|| panic!("no statistics for relation {relation}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_workload::edge_relation;

    #[test]
    fn edge_relation_stats() {
        let mut db = Database::new();
        db.add(edge_relation(3));
        let cat = Catalog::of(&db);
        let s = cat.rel("edge");
        assert_eq!(s.cardinality, 6.0);
        assert_eq!(s.distinct, vec![3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "no statistics")]
    fn unknown_relation_panics() {
        Catalog::of(&Database::new()).rel("ghost");
    }
}
