//! Variable interning.

use std::collections::HashMap;

use ppr_relalg::AttrId;

/// Interns variable names to dense [`AttrId`]s, and remembers names for
/// display and SQL emission.
#[derive(Debug, Clone, Default)]
pub struct Vars {
    names: Vec<String>,
    /// Keyed with the std hasher, like the rule scanner's name index: the
    /// names come off the wire, and a fixed-key hash lets a crafted
    /// request collide them.
    map: HashMap<String, AttrId>,
}

impl Vars {
    /// An empty interner.
    pub fn new() -> Self {
        Vars::default()
    }

    /// Interns `name`, returning its id (existing or fresh).
    pub fn intern(&mut self, name: &str) -> AttrId {
        if let Some(&id) = self.map.get(name) {
            return id;
        }
        let id = AttrId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.map.insert(name.to_string(), id);
        id
    }

    /// The id of `name`, if interned.
    pub fn get(&self, name: &str) -> Option<AttrId> {
        self.map.get(name).copied()
    }

    /// The name of `id`; falls back to the raw id display for foreign ids.
    pub fn name(&self, id: AttrId) -> String {
        self.names
            .get(id.index())
            .cloned()
            .unwrap_or_else(|| id.to_string())
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All ids in interning order.
    pub fn ids(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.names.len()).map(|i| AttrId(i as u32))
    }

    /// Interns `v0, v1, …, v{n-1}` (the convention the workload encoders
    /// use: variable `v{i}` is graph vertex `i`), returning their ids.
    pub fn intern_numbered(&mut self, prefix: &str, n: usize) -> Vec<AttrId> {
        (0..n)
            .map(|i| self.intern(&format!("{prefix}{i}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut vars = Vars::new();
        let a = vars.intern("x");
        let b = vars.intern("x");
        assert_eq!(a, b);
        assert_eq!(vars.len(), 1);
    }

    #[test]
    fn names_round_trip() {
        let mut vars = Vars::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        assert_eq!(vars.name(x), "x");
        assert_eq!(vars.name(y), "y");
        assert_eq!(vars.get("y"), Some(y));
        assert_eq!(vars.get("z"), None);
    }

    #[test]
    fn numbered_interning() {
        let mut vars = Vars::new();
        let ids = vars.intern_numbered("v", 3);
        assert_eq!(ids.len(), 3);
        assert_eq!(vars.name(ids[2]), "v2");
    }

    #[test]
    fn foreign_id_falls_back() {
        let vars = Vars::new();
        assert_eq!(vars.name(AttrId(7)), "a7");
    }
}
