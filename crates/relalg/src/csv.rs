//! CSV import/export for relations.
//!
//! A pragmatic interchange format so users can load their own small
//! relations into the engine (`ppr query --rel-file …`) and inspect
//! results outside Rust. The dialect is deliberately minimal: unquoted
//! unsigned integers separated by commas, one tuple per line, `#`
//! comments, no header (schemas carry attribute ids, not names).

use std::fmt::Write as _;

use crate::relation::Relation;
use crate::schema::{AttrId, Schema};
use crate::value::Value;

/// Parses CSV text into a relation over synthesized column attributes
/// starting at `base_col`. Every row must have the same arity.
pub fn relation_from_csv(name: &str, text: &str, base_col: u32) -> Result<Relation, String> {
    let mut rows: Vec<Box<[Value]>> = Vec::new();
    let mut arity: Option<usize> = None;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let values: Result<Vec<Value>, _> =
            line.split(',').map(|v| v.trim().parse::<Value>()).collect();
        let values = values.map_err(|e| format!("line {}: {e}", lineno + 1))?;
        match arity {
            None => arity = Some(values.len()),
            Some(k) if k != values.len() => {
                return Err(format!(
                    "line {}: arity {} does not match {k}",
                    lineno + 1,
                    values.len()
                ))
            }
            _ => {}
        }
        rows.push(values.into_boxed_slice());
    }
    let k = arity.ok_or("no rows")?;
    let attrs: Vec<AttrId> = (0..k as u32).map(|i| AttrId(base_col + i)).collect();
    Ok(Relation::from_distinct_rows(name, Schema::new(attrs), rows))
}

/// Renders a relation as CSV (values only, one tuple per line).
pub fn relation_to_csv(rel: &Relation) -> String {
    let mut out = String::new();
    for t in rel.rows() {
        for (i, v) in t.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let text = "# pairs\n1,2\n2,3\n";
        let rel = relation_from_csv("e", text, 500).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.arity(), 2);
        assert_eq!(relation_to_csv(&rel), "1,2\n2,3\n");
    }

    #[test]
    fn dedups_rows() {
        let rel = relation_from_csv("e", "1,2\n1,2\n", 500).unwrap();
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = relation_from_csv("e", "1,2\n3\n", 500).unwrap_err();
        assert!(err.contains("arity"));
    }

    #[test]
    fn rejects_empty_and_garbage() {
        assert!(relation_from_csv("e", "", 500).is_err());
        assert!(relation_from_csv("e", "a,b\n", 500).is_err());
    }
}
