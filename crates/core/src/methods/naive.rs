//! The naive method (paper §3).
//!
//! The query is shipped as a flat `FROM` list with `WHERE` equalities
//! linking every occurrence of a variable to its first occurrence, leaving
//! join-order choice entirely to the planner. The paper found PostgreSQL's
//! genetic planner spends exponential time compiling these queries and
//! chooses orders no better than the listing order — so for *execution*,
//! [`crate::methods::build_plan`] reuses the straightforward plan, and the
//! compile-time behaviour is reproduced by `ppr-costplanner`.

use ppr_query::ConjunctiveQuery;
use ppr_sql::{ColRef, Condition, FromExpr, FromItem, SelectStmt};

/// Emits the naive SQL: `SELECT DISTINCT … FROM atom, atom, … WHERE
/// equalities` (Appendix A.1).
pub(crate) fn sql(query: &ConjunctiveQuery) -> SelectStmt {
    // Alias and column names per atom; track each variable's first
    // occurrence (alias, column).
    let mut first_occ: Vec<(ppr_relalg::AttrId, ColRef)> = Vec::new();
    let mut from: Vec<FromExpr> = Vec::with_capacity(query.num_atoms());
    let mut where_clause: Vec<Condition> = Vec::new();
    for (j, atom) in query.atoms.iter().enumerate() {
        let alias = format!("e{}", j + 1);
        let mut columns = Vec::with_capacity(atom.arity());
        let mut seen_here: Vec<ppr_relalg::AttrId> = Vec::new();
        for &var in &atom.args {
            let name = query.vars.name(var);
            let dup = seen_here.iter().filter(|&&v| v == var).count();
            let col = if dup == 0 {
                name
            } else {
                format!("{name}_{}", dup + 1)
            };
            let this = ColRef::new(alias.clone(), col.clone());
            match first_occ.iter().find(|(v, _)| *v == var) {
                Some((_, first)) => where_clause.push(Condition::eq(this, first.clone())),
                None => first_occ.push((var, this)),
            }
            seen_here.push(var);
            columns.push(col);
        }
        from.push(FromExpr::item(FromItem::Table {
            name: atom.relation.clone(),
            alias,
            columns,
        }));
    }
    let select = query
        .free
        .iter()
        .map(|&v| {
            first_occ
                .iter()
                .find(|(var, _)| *var == v)
                .map(|(_, c)| c.clone())
                .expect("free variables occur in atoms")
        })
        .collect();
    SelectStmt {
        distinct: true,
        select,
        from,
        where_clause,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::pentagon;
    use ppr_sql::emit::render;

    #[test]
    fn pentagon_naive_sql_matches_appendix_a1() {
        let (q, _) = pentagon();
        let sql = render(&sql(&q));
        assert!(sql.starts_with("SELECT DISTINCT e1.v1"), "{sql}");
        assert!(
            sql.contains("FROM edge e1 (v1, v2), edge e2 (v1, v5), edge e3 (v4, v5), edge e4 (v3, v4), edge e5 (v2, v3)"),
            "{sql}"
        );
        // The five equalities of Appendix A.1 (up to orientation).
        for cond in [
            "e2.v1 = e1.v1",
            "e3.v5 = e2.v5",
            "e4.v4 = e3.v4",
            "e5.v2 = e1.v2",
            "e5.v3 = e4.v3",
        ] {
            assert!(sql.contains(cond), "missing {cond} in {sql}");
        }
    }

    #[test]
    fn equality_count_is_occurrences_minus_variables() {
        let (q, _) = pentagon();
        let stmt = sql(&q);
        // 10 variable occurrences, 5 variables → 5 equalities.
        assert_eq!(stmt.where_clause.len(), 5);
        assert_eq!(stmt.table_refs(), 5);
        assert_eq!(stmt.nesting_depth(), 0);
    }
}
