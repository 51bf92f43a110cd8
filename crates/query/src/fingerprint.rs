//! Canonical query fingerprints.
//!
//! A serving layer amortizes planning cost by caching compiled plans, and
//! the cache key must identify a query *up to the renamings that leave its
//! plan reusable*: two queries that differ only in variable names and in
//! the listing order of their atoms have isomorphic join graphs, so every
//! structural method (early projection, reordering, bucket elimination)
//! produces the same plan shape for them. [`fingerprint`] computes a
//! 128-bit hash with exactly that invariance:
//!
//! * **renaming variables never changes the key** — variable *names* are
//!   never hashed, only the structure of their occurrences;
//! * **permuting atoms never changes the key** — atoms enter the hash as a
//!   sorted multiset;
//! * the ordered free-variable list and the Boolean flag *are* part of the
//!   key, because they change the result schema (π_{x,y} and π_{y,x} of
//!   the same join are different queries to a caller) — except that a
//!   Boolean query's single emulated-projection representative is ignored:
//!   it is an arbitrary parser choice, not part of the query's meaning.
//!
//! The construction is Weisfeiler–Leman color refinement on the
//! variable/atom incidence structure (the same refinement family used for
//! graph-isomorphism invariants): variables start from a structural color
//! (free-list position or bound marker), then rounds alternately recolor
//! atoms from `(relation, argument colors in order)` and variables from
//! the sorted multiset of their `(atom color, argument position)`
//! occurrences. After stabilization the sorted atom-color multiset plus
//! the ordered free colors are folded into the final digest.
//!
//! Refinement never touches the query's own representation. It reads a
//! `Flat` view: per atom its relation name and a CSR run of dense
//! variable indices `0..n`, numbered in first-occurrence order, plus the
//! free list in the same numbering. A scanned rule holds those arrays
//! already (`ScannedRule::identify` passes them straight in); a
//! [`ConjunctiveQuery`] is renumbered into them first, through one hash
//! probe per argument (ids may be sparse: nothing is sized by the
//! largest). Either way the two paths meet in the same `Incidence`, which
//! adds two groupings in CSR layout, each an offsets array into an items
//! array: a variable's occurrences (as indices into the argument array)
//! and a connected component's atoms (keyed by union-find root; the
//! split does not depend on the seed). So a rule and the query built from
//! it get bit-identical fingerprints and shapes. `Colors` holds the
//! buffers both seeds' runs share, so a round allocates nothing: a fold
//! over each atom's argument slice, a gather, sort and fold over each
//! variable's occurrence segment, and a count of the distinct colors. A
//! segment of up to 4 occurrences is sorted by a compare-exchange network
//! (min and max, no branch on the colors), and the count probes an
//! open-addressing table sized once, whose slot is a color's low bits
//! (colors are hashes already), instead of sorting every variable color.
//! The first seed runs last, and its variable colors are what
//! [`canonical_var_order`] sorts by, so a caller holding a
//! [`RuleIdentity`] gets the canonical order without refining again.
//!
//! Like every refinement-based invariant, the map is sound (isomorphic
//! queries always collide) but **not complete**: non-isomorphic queries
//! that 1-WL refinement cannot separate are *constructible* (CFI-style
//! gadgets, strongly regular graphs), so a shared key is not a
//! vanishing-probability event the way a raw 2⁻¹²⁸ hash collision is. A
//! cache keyed by the fingerprint alone would serve one such query the
//! other's plan and return wrong rows. The plan cache therefore stores a
//! cheap [`QueryShape`] beside every entry and re-verifies it on each
//! hit, falling back to a fresh plan on mismatch — collisions cost a
//! re-plan, never correctness. The property tests in
//! `tests/fingerprint.rs` pin the invariance directions on the paper's
//! workload generators.

use crate::cq::ConjunctiveQuery;
use crate::scan::dense;
use ppr_relalg::AttrId;
use rustc_hash::FxHashMap;

/// A 128-bit canonical query fingerprint. Displayed as 32 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A cheap structural summary of a query, used to double-check that two
/// queries sharing a [`Fingerprint`] really are structurally compatible
/// before reusing a cached plan. It is not a canonical form — just the
/// invariants a 1-WL collision would most plausibly violate, comparable
/// in O(atoms) — so a mismatch proves non-isomorphism while a match only
/// fails to disprove it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryShape {
    /// Sorted `(relation, arity, occurrence count)` triples over the atoms.
    pub relations: Vec<(String, usize, usize)>,
    /// Number of distinct variables.
    pub num_vars: usize,
    /// The free list length (0 for Boolean queries, whose single emulated
    /// projection variable is a parser artifact, matching [`fingerprint`]).
    pub num_free: usize,
    /// Logical Boolean flag.
    pub boolean: bool,
}

impl QueryShape {
    /// Computes the shape of `query`. Invariant under variable renaming
    /// and atom reordering, like the fingerprint itself.
    pub fn of(query: &ConjunctiveQuery) -> QueryShape {
        QueryShape::of_flat(&Renumbered::of(query).flat())
    }

    fn of_flat(flat: &Flat<'_>) -> QueryShape {
        let mut atoms: Vec<(&str, usize)> = flat
            .relations
            .iter()
            .zip(flat.atom_start.windows(2))
            .map(|(&relation, bounds)| (relation, bounds[1] - bounds[0]))
            .collect();
        atoms.sort_unstable();
        let relations = atoms
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0].0.to_string(), run[0].1, run.len()))
            .collect();
        QueryShape {
            relations,
            num_vars: flat.num_vars,
            num_free: flat.free.len(),
            boolean: flat.boolean,
        }
    }
}

/// SplitMix64 finalizer: a fast, well-mixed 64-bit permutation. The
/// fingerprint must be stable across processes and platforms, so the
/// mixing is spelled out here rather than borrowed from a `Hasher` whose
/// initial state could change.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-dependent combination of a running hash with one word.
#[inline]
fn fold(acc: u64, word: u64) -> u64 {
    mix64(acc ^ word.wrapping_mul(0xff51_afd7_ed55_8ccd))
}

/// Hashes a byte string (relation names).
fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut acc = mix64(seed ^ bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        acc = fold(acc, u64::from_le_bytes(word));
    }
    acc
}

/// The refinement seeds of the fingerprint's high and low halves.
const SEEDS: [u64; 2] = [0x9e37_79b9_7f4a_7c15, 0xc2b2_ae3d_27d4_eb4f];

/// A query's atoms over dense variable indices `0..num_vars`, numbered in
/// first-occurrence order: what a scanned rule holds already and what
/// [`Renumbered`] makes of a [`ConjunctiveQuery`]. Atom `a`'s arguments
/// are `args[atom_start[a]..atom_start[a + 1]]`.
pub(crate) struct Flat<'a> {
    /// Per atom, its relation name.
    pub(crate) relations: &'a [&'a str],
    pub(crate) atom_start: &'a [usize],
    pub(crate) args: &'a [usize],
    pub(crate) num_vars: usize,
    /// The free list as dense indices; empty for a Boolean query.
    pub(crate) free: &'a [usize],
    pub(crate) boolean: bool,
}

/// A [`ConjunctiveQuery`] renumbered into the arrays of a [`Flat`].
struct Renumbered<'q> {
    relations: Vec<&'q str>,
    atom_start: Vec<usize>,
    args: Vec<usize>,
    /// Dense variable index → id.
    vars: Vec<AttrId>,
    free: Vec<usize>,
    boolean: bool,
}

impl<'q> Renumbered<'q> {
    /// Renumbers through a single hash probe per argument; ids may be
    /// sparse, since nothing is sized by the largest.
    fn of(query: &'q ConjunctiveQuery) -> Renumbered<'q> {
        let num_args = query.atoms.iter().map(|a| a.arity()).sum();
        let mut index: FxHashMap<AttrId, usize> = FxHashMap::default();
        index.reserve(num_args);
        let mut vars = Vec::new();
        let mut atom_start = Vec::with_capacity(query.atoms.len() + 1);
        atom_start.push(0);
        let mut args = Vec::with_capacity(num_args);
        for atom in &query.atoms {
            for &arg in &atom.args {
                let v = *index.entry(arg).or_insert(vars.len());
                if v == vars.len() {
                    vars.push(arg);
                }
                args.push(v);
            }
            atom_start.push(args.len());
        }
        // A Boolean query's free list holds one *arbitrary* representative
        // for SQL emulation (see `ConjunctiveQuery::is_boolean`); which
        // variable the parser picked is not part of the query's meaning.
        let free = if query.is_boolean() {
            Vec::new()
        } else {
            query.free.iter().map(|f| index[f]).collect()
        };
        Renumbered {
            relations: query.atoms.iter().map(|a| a.relation.as_str()).collect(),
            atom_start,
            args,
            vars,
            free,
            boolean: query.is_boolean(),
        }
    }

    fn flat(&self) -> Flat<'_> {
        Flat {
            relations: &self.relations,
            atom_start: &self.atom_start,
            args: &self.args,
            num_vars: self.vars.len(),
            free: &self.free,
            boolean: self.boolean,
        }
    }
}

/// The query's variable/atom incidence structure (module docs):
/// everything refinement reads, none of it seed-dependent. Beside the
/// [`Flat`] arrays, each `*_start` array holds CSR offsets into the array
/// declared after it: group `g` is `items[start[g]..start[g + 1]]`.
struct Incidence<'a> {
    flat: Flat<'a>,
    /// Variable → its occurrences, as indices into `args`.
    var_start: Vec<usize>,
    var_occs: Vec<usize>,
    /// Union-find root → the atoms of its connected component; group
    /// `num_vars` holds the atoms without arguments. Variables that are
    /// not roots have empty groups.
    root_start: Vec<usize>,
    root_atoms: Vec<usize>,
    /// Union-find root → the number of variables in its component.
    root_vars: Vec<u64>,
}

/// The colors of one refinement run and the buffers its rounds reuse.
struct Colors {
    var: Vec<u64>,
    atom: Vec<u64>,
    /// Per atom, the seeded relation-name hash every round starts from.
    atom_base: Vec<u64>,
    /// Per entry of `args`, the hash of its `(atom color, position)`.
    occ: Vec<u64>,
    /// Sorting space: one slot per argument or atom, whichever is more.
    scratch: Vec<u64>,
    /// One digest per connected component.
    components: Vec<u64>,
    /// Counts the distinct variable colors of a round.
    distinct: Distinct,
}

/// An open-addressing set of colors, cleared by advancing its epoch: a
/// slot holds a color of the current count only if its stamp is the
/// epoch. Colors are hashes already, so their low bits pick the slot.
struct Distinct {
    slots: Vec<(u64, u32)>,
    epoch: u32,
}

impl Distinct {
    /// A set for up to `n` colors, at most half full.
    fn new(n: usize) -> Distinct {
        Distinct {
            slots: vec![(0, 0); (2 * n).next_power_of_two()],
            epoch: 0,
        }
    }

    /// The number of distinct values in `colors`.
    fn count(&mut self, colors: &[u64]) -> usize {
        self.epoch += 1;
        let mask = self.slots.len() - 1;
        let mut distinct = 0;
        for &color in colors {
            let mut i = color as usize & mask;
            loop {
                let (held, stamp) = &mut self.slots[i];
                if *stamp != self.epoch {
                    (*held, *stamp) = (color, self.epoch);
                    distinct += 1;
                    break;
                }
                if *held == color {
                    break;
                }
                i = (i + 1) & mask;
            }
        }
        distinct
    }
}

/// Orders `a` and `b` without a branch on their values.
#[inline]
fn exchange(items: &mut [u64], a: usize, b: usize) {
    let (x, y) = (items[a], items[b]);
    items[a] = x.min(y);
    items[b] = x.max(y);
}

/// Sorts `items`: up to 4 through a network of compare-exchanges (most
/// variables occur 2 to 4 times), more with `sort_unstable`. Equal colors
/// are interchangeable, so either order is the same sequence.
fn sort_colors(items: &mut [u64]) {
    match items.len() {
        0 | 1 => {}
        2 => exchange(items, 0, 1),
        3 => {
            exchange(items, 1, 2);
            exchange(items, 0, 2);
            exchange(items, 0, 1);
        }
        4 => {
            exchange(items, 0, 1);
            exchange(items, 2, 3);
            exchange(items, 0, 2);
            exchange(items, 1, 3);
            exchange(items, 1, 2);
        }
        _ => items.sort_unstable(),
    }
}

/// Counting sort of `0..keys.len()` by key, as CSR `(start, items)`: the
/// indices with key `k` are `items[start[k]..start[k + 1]]`, ascending.
fn group_by_key(keys: &[usize], num_keys: usize) -> (Vec<usize>, Vec<usize>) {
    let mut start = vec![0; num_keys + 1];
    for &k in keys {
        start[k + 1] += 1;
    }
    for k in 0..num_keys {
        start[k + 1] += start[k];
    }
    // Placing an item advances its group's start to the next group's;
    // shifting the array back by one restores the starts.
    let mut items = vec![0; keys.len()];
    for (i, &k) in keys.iter().enumerate() {
        items[start[k]] = i;
        start[k] += 1;
    }
    start.copy_within(..num_keys, 1);
    start[0] = 0;
    (start, items)
}

/// Union-find root of `x`, halving the path on the way.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

impl<'a> Incidence<'a> {
    fn of(flat: Flat<'a>) -> Incidence<'a> {
        let (args, num_vars) = (flat.args, flat.num_vars);
        let (var_start, var_occs) = group_by_key(args, num_vars);

        // Union-find over variables; each atom unions its argument set.
        let mut parent: Vec<usize> = (0..num_vars).collect();
        for bounds in flat.atom_start.windows(2) {
            if let Some((&first, rest)) = args[bounds[0]..bounds[1]].split_first() {
                let a = find(&mut parent, first);
                for &v in rest {
                    let b = find(&mut parent, v);
                    parent[b] = a;
                }
            }
        }
        let root_of = |bounds: &[usize]| match args[bounds[0]..bounds[1]].first() {
            Some(&v) => find(&mut parent, v),
            None => num_vars,
        };
        let atom_root: Vec<usize> = flat.atom_start.windows(2).map(root_of).collect();
        let (root_start, root_atoms) = group_by_key(&atom_root, num_vars + 1);
        let mut root_vars = vec![0; num_vars + 1];
        for v in 0..num_vars {
            root_vars[find(&mut parent, v)] += 1;
        }

        Incidence {
            flat,
            var_start,
            var_occs,
            root_start,
            root_atoms,
            root_vars,
        }
    }

    fn colors(&self) -> Colors {
        let flat = &self.flat;
        let (num_vars, num_atoms) = (flat.num_vars, flat.relations.len());
        Colors {
            var: vec![0; num_vars],
            atom: vec![0; num_atoms],
            atom_base: vec![0; num_atoms],
            occ: vec![0; flat.args.len()],
            scratch: vec![0; flat.args.len().max(num_atoms)],
            components: Vec::with_capacity(num_atoms),
            distinct: Distinct::new(num_vars),
        }
    }

    /// Runs WL color refinement to stabilization at `seed`, leaving the
    /// final variable and atom colors in `colors`.
    fn refine(&self, seed: u64, colors: &mut Colors) {
        let flat = &self.flat;
        // Initial variable colors: position in the free list (ordered — it is
        // the output schema) or a bound-variable marker. Both are invariant
        // under renaming and atom permutation.
        colors.var.fill(mix64(seed ^ 0xb0a7));
        for (i, &v) in flat.free.iter().enumerate() {
            colors.var[v] = mix64(seed ^ 0xf2ee ^ (i as u64 + 1));
        }
        // Relation names are hashed once, not once per round, and a run of
        // atoms over one relation hashes it once.
        let mut last: Option<(&str, u64)> = None;
        for (base, &relation) in colors.atom_base.iter_mut().zip(flat.relations) {
            *base = match last {
                Some((name, hashed)) if name == relation => hashed,
                _ => {
                    let name = hash_bytes(seed ^ 0x5e1a, relation.as_bytes());
                    fold(mix64(seed ^ 0xa703), name)
                }
            };
            last = Some((relation, *base));
        }

        // Refine until the variable partition stabilizes. |vars| rounds always
        // suffice (each round can only split color classes); queries are small
        // enough that the quadratic worst case is irrelevant.
        let mut distinct = colors.distinct.count(&colors.var);
        for _ in 0..=flat.num_vars {
            // Atom colors from (relation, ordered argument colors).
            for (a, bounds) in flat.atom_start.windows(2).enumerate() {
                let color = flat.args[bounds[0]..bounds[1]]
                    .iter()
                    .fold(colors.atom_base[a], |acc, &v| fold(acc, colors.var[v]));
                colors.atom[a] = color;
                for (pos, occ) in colors.occ[bounds[0]..bounds[1]].iter_mut().enumerate() {
                    *occ = fold(color, pos as u64 + 1);
                }
            }
            // Variable colors from the sorted multiset of occurrences.
            for (v, bounds) in self.var_start.windows(2).enumerate() {
                let seen = &mut colors.scratch[bounds[0]..bounds[1]];
                for (slot, &i) in seen.iter_mut().zip(&self.var_occs[bounds[0]..bounds[1]]) {
                    *slot = colors.occ[i];
                }
                sort_colors(seen);
                colors.var[v] = seen.iter().fold(colors.var[v], |acc, &o| fold(acc, o));
            }
            let now = colors.distinct.count(&colors.var);
            if now == distinct {
                break;
            }
            distinct = now;
        }
    }

    /// One refinement pass at a fixed `seed` folded into 64 bits; two
    /// independent seeds give the two halves of the [`Fingerprint`].
    fn half(&self, seed: u64, colors: &mut Colors) -> u64 {
        self.refine(seed, colors);
        let num_atoms = colors.atom.len();

        // Final digest: sorted atom-color multiset, then the sorted multiset
        // of per-connected-component digests, then the *ordered* free colors,
        // then the Boolean flag and the shape counts. The component digests
        // matter because refinement alone cannot tell a single cycle from a
        // disjoint union of smaller ones (every vertex looks alike in both);
        // the component split can.
        let sorted = &mut colors.scratch[..num_atoms];
        sorted.copy_from_slice(&colors.atom);
        sorted.sort_unstable();
        let mut acc = sorted
            .iter()
            .fold(mix64(seed ^ 0xd1e5), |acc, &a| fold(acc, a));

        // One digest per component: its variable count folded with its sorted
        // atom colors. Variable-free atoms form one component of 0 variables.
        colors.components.clear();
        for (root, bounds) in self.root_start.windows(2).enumerate() {
            if bounds[0] == bounds[1] {
                continue;
            }
            let start = fold(mix64(seed ^ 0xc0c0), self.root_vars[root]);
            if bounds[1] - bounds[0] == num_atoms {
                // One component holds every atom: its sorted colors are
                // the multiset folded above.
                let digest = colors.scratch[..num_atoms]
                    .iter()
                    .fold(start, |acc, &a| fold(acc, a));
                colors.components.push(digest);
                break;
            }
            let members = &mut colors.scratch[bounds[0]..bounds[1]];
            for (slot, &a) in members
                .iter_mut()
                .zip(&self.root_atoms[bounds[0]..bounds[1]])
            {
                *slot = colors.atom[a];
            }
            members.sort_unstable();
            let digest = members.iter().fold(start, |acc, &a| fold(acc, a));
            colors.components.push(digest);
        }
        colors.components.sort_unstable();
        acc = colors.components.iter().fold(acc, |acc, &c| fold(acc, c));

        acc = self
            .flat
            .free
            .iter()
            .fold(acc, |acc, &v| fold(acc, colors.var[v]));
        acc = fold(acc, self.flat.boolean as u64);
        acc = fold(acc, num_atoms as u64);
        fold(acc, self.flat.num_vars as u64)
    }

    /// The fingerprint, with the first seed's stabilized colors left in
    /// `colors`: each run starts from scratch, so the second seed's goes
    /// first.
    fn fingerprint(&self, colors: &mut Colors) -> Fingerprint {
        let lo = self.half(SEEDS[1], colors);
        let hi = self.half(SEEDS[0], colors);
        Fingerprint(((hi as u128) << 64) | lo as u128)
    }

    /// The identity, and per variable its stabilized color at the first
    /// seed: what [`canonical_var_order`] sorts by.
    fn identify(&self) -> (QueryIdentity, Vec<u64>) {
        let mut colors = self.colors();
        let identity = QueryIdentity {
            fingerprint: self.fingerprint(&mut colors),
            shape: QueryShape::of_flat(&self.flat),
        };
        (identity, colors.var)
    }
}

/// Computes the canonical fingerprint of `query`. Pure and deterministic
/// across runs, processes, and platforms.
pub fn fingerprint(query: &ConjunctiveQuery) -> Fingerprint {
    let renumbered = Renumbered::of(query);
    let incidence = Incidence::of(renumbered.flat());
    incidence.fingerprint(&mut incidence.colors())
}

/// A canonical ordering of the query's variables: first-occurrence order
/// stably re-sorted by the stabilized WL color (the same refinement the
/// fingerprint uses, at its first seed). Because the colors are invariant
/// under variable renaming and atom reordering, two isomorphic queries
/// list *corresponding* variables at the same positions — up to WL color
/// ties, where the first-occurrence tiebreak can differ between renamings
/// of a symmetric query.
///
/// This is the coordinate system of `ppr-service`'s decomposition cache:
/// a bucket-elimination variable order is stored as ranks into this
/// sequence (structure, not [`AttrId`]s, which are per-query interner
/// artifacts) and decoded against the *new* query's canonical order. For
/// an exact textual repeat the round trip is the identity; for a renamed
/// isomorph with color ties it decodes to some valid variable
/// permutation, which bucket elimination accepts with at most a width
/// penalty — never a wrong answer.
pub fn canonical_var_order(query: &ConjunctiveQuery) -> Vec<AttrId> {
    let renumbered = Renumbered::of(query);
    let incidence = Incidence::of(renumbered.flat());
    let mut colors = incidence.colors();
    incidence.refine(SEEDS[0], &mut colors);
    canonical_indices(&colors.var)
        .map(|i| renumbered.vars[i])
        .collect()
}

/// Dense variable indices in canonical order: by first-seed color, ties
/// in first-occurrence order.
fn canonical_indices(colors: &[u64]) -> impl Iterator<Item = usize> {
    let mut idx: Vec<usize> = (0..colors.len()).collect();
    idx.sort_by_key(|&i| (colors[i], i));
    idx.into_iter()
}

/// A query's cache-lookup identity: the canonical [`Fingerprint`] plus
/// the [`QueryShape`] that double-checks it on every hit. The serving
/// layer keys both its caches (compiled plans and materialized results)
/// on the fingerprint and re-verifies the shape — 1-WL collisions between
/// non-isomorphic queries are constructible, so a fingerprint alone must
/// never vouch for a cached answer. Computing the pair once per request
/// keeps the two caches agreeing on what "the same query" means.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryIdentity {
    /// Canonical fingerprint (invariant under renaming and reordering).
    pub fingerprint: Fingerprint,
    /// Cheap structural summary verified on every cache hit.
    pub shape: QueryShape,
}

impl QueryIdentity {
    /// Computes both halves of the identity for `query`.
    pub fn of(query: &ConjunctiveQuery) -> QueryIdentity {
        Incidence::of(Renumbered::of(query).flat()).identify().0
    }
}

/// The [`QueryIdentity`] of a scanned rule (`ScannedRule::identify`),
/// computed from the scan's own arrays, plus what the refinement left
/// behind that a bucket-elimination miss needs next: the canonical
/// variable order, without refining a third time.
#[derive(Debug)]
pub struct RuleIdentity {
    /// Equal to `QueryIdentity::of(&rule.to_query())`.
    pub identity: QueryIdentity,
    /// Per dense variable id, its stabilized color at the first seed.
    colors: Vec<u64>,
}

impl RuleIdentity {
    pub(crate) fn of(flat: Flat<'_>) -> RuleIdentity {
        let (identity, colors) = Incidence::of(flat).identify();
        RuleIdentity { identity, colors }
    }

    /// [`canonical_var_order`] of the rule's query (`ScannedRule::to_query`).
    pub fn canonical_var_order(&self) -> Vec<AttrId> {
        canonical_indices(&self.colors).map(dense).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::parse::parse_query;
    use crate::vars::Vars;

    #[test]
    fn renaming_is_invisible() {
        let a = parse_query("q(x) :- e(x, y), e(y, z)").unwrap();
        let b = parse_query("q(u) :- e(u, w), e(w, t)").unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn atom_order_is_invisible() {
        let a = parse_query("q(x) :- e(x, y), f(y, z)").unwrap();
        let b = parse_query("q(x) :- f(y, z), e(x, y)").unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn permuted_query_keeps_key() {
        let q = parse_query("q() :- e(a,b), e(b,c), e(c,d), e(d,a)").unwrap();
        let p = q.permuted(&[2, 0, 3, 1]);
        assert_eq!(fingerprint(&q), fingerprint(&p));
    }

    #[test]
    fn relation_name_matters() {
        let a = parse_query("q(x) :- e(x, y)").unwrap();
        let b = parse_query("q(x) :- f(x, y)").unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn structure_matters() {
        // Path vs triangle vs repeated-variable selection.
        let path = parse_query("q() :- e(x, y), e(y, z)").unwrap();
        let tri = parse_query("q() :- e(x, y), e(y, z), e(z, x)").unwrap();
        let selfloop = parse_query("q() :- e(x, x)").unwrap();
        let fps = [
            fingerprint(&path),
            fingerprint(&tri),
            fingerprint(&selfloop),
        ];
        assert_ne!(fps[0], fps[1]);
        assert_ne!(fps[0], fps[2]);
        assert_ne!(fps[1], fps[2]);
    }

    #[test]
    fn free_list_order_matters() {
        // π_{x,y}(e(x,y)) and π_{y,x}(e(x,y)) are not renamings of each
        // other: a cached plan for one would return column-swapped rows
        // for the other, so the keys must differ.
        let a = parse_query("q(x, y) :- e(x, y)").unwrap();
        let b = parse_query("q(y, x) :- e(x, y)").unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&b));
        // With a *symmetric* body the swap is a true isomorphism (x↔y maps
        // one query onto the other), and equal keys are sound: both
        // queries have identical, swap-closed results.
        let c = parse_query("q(x, y) :- e(x, y), e(y, x)").unwrap();
        let d = parse_query("q(y, x) :- e(x, y), e(y, x)").unwrap();
        assert_eq!(fingerprint(&c), fingerprint(&d));
    }

    #[test]
    fn free_vs_bound_matters() {
        let a = parse_query("q(x) :- e(x, y)").unwrap();
        let b = parse_query("q(y) :- e(x, y)").unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&b));
        // Boolean flag distinguishes the emulated-projection variant even
        // though its free list also carries one variable.
        let c = parse_query("q() :- e(x, y)").unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn symmetric_colors_still_split_structure() {
        // C4 vs two disjoint edges-with-shared-relation: same atom count,
        // same variable count and degree sequence of 1… actually C4 has
        // all-degree-2 vars; the pair has degree-1 vars, so refinement
        // separates them immediately.
        let c4 = parse_query("q() :- e(a,b), e(b,c), e(c,d), e(d,a)").unwrap();
        let pair = parse_query("q() :- e(a,b), e(b,a), e(c,d), e(d,c)").unwrap();
        assert_ne!(fingerprint(&c4), fingerprint(&pair));
    }

    #[test]
    fn shape_is_invariant_under_renaming_and_reordering() {
        let a = parse_query("q(x) :- e(x, y), f(y, z)").unwrap();
        let b = parse_query("q(u) :- f(w, t), e(u, w)").unwrap();
        assert_eq!(QueryShape::of(&a), QueryShape::of(&b));
    }

    #[test]
    fn shape_separates_structural_differences() {
        let base = QueryShape::of(&parse_query("q(x) :- e(x, y), e(y, z)").unwrap());
        // Different relation multiset.
        let rel = QueryShape::of(&parse_query("q(x) :- e(x, y), f(y, z)").unwrap());
        assert_ne!(base, rel);
        // Different variable count.
        let vars = QueryShape::of(&parse_query("q(x) :- e(x, y), e(y, x)").unwrap());
        assert_ne!(base, vars);
        // Different free-list length.
        let free = QueryShape::of(&parse_query("q(x, y) :- e(x, y), e(y, z)").unwrap());
        assert_ne!(base, free);
        // Boolean flag.
        let boolean = QueryShape::of(&parse_query("q() :- e(x, y), e(y, z)").unwrap());
        assert_ne!(base, boolean);
    }

    #[test]
    fn canonical_order_lists_every_variable_once() {
        let q = parse_query("q(x) :- e(x, y), e(y, z), f(z, x)").unwrap();
        let canon = canonical_var_order(&q);
        let mut sorted = canon.clone();
        sorted.sort_unstable();
        let mut all = q.all_vars();
        all.sort_unstable();
        assert_eq!(sorted, all);
    }

    #[test]
    fn canonical_order_tracks_renaming() {
        // Asymmetric query: every variable gets a distinct WL color, so
        // corresponding variables land at identical canonical positions.
        let a = parse_query("q(x) :- e(x, y), e(y, z)").unwrap();
        let b = parse_query("q(u) :- e(u, w), e(w, t)").unwrap();
        let ca = canonical_var_order(&a);
        let cb = canonical_var_order(&b);
        assert_eq!(ca.len(), cb.len());
        // x↔u, y↔w, z↔t: read positions back through each query's vars.
        let name = |q: &ConjunctiveQuery, id| q.vars.name(id);
        let pa: Vec<String> = ca.iter().map(|&v| name(&a, v)).collect();
        let pb: Vec<String> = cb.iter().map(|&v| name(&b, v)).collect();
        let map = [("x", "u"), ("y", "w"), ("z", "t")];
        for (i, va) in pa.iter().enumerate() {
            let expected = map.iter().find(|(from, _)| from == va).unwrap().1;
            assert_eq!(pb[i], expected, "position {i}");
        }
    }

    #[test]
    fn canonical_order_is_atom_order_invariant() {
        let a = parse_query("q(x) :- e(x, y), f(y, z)").unwrap();
        let b = parse_query("q(x) :- f(y, z), e(x, y)").unwrap();
        // Same interner order (x, y, z interned by first occurrence per
        // parse), so the AttrIds differ between the two queries — compare
        // by name.
        let name_seq = |q: &ConjunctiveQuery| -> Vec<String> {
            canonical_var_order(q)
                .iter()
                .map(|&v| q.vars.name(v))
                .collect()
        };
        assert_eq!(name_seq(&a), name_seq(&b));
    }

    #[test]
    fn display_is_hex() {
        let q = parse_query("q(x) :- e(x, y)").unwrap();
        let s = fingerprint(&q).to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn hand_built_rename_matches_parsed() {
        // Build the same query with a different interning order (hence
        // different AttrIds end-to-end) and check key equality.
        let parsed = parse_query("q(x) :- e(x, y), e(y, z)").unwrap();
        let mut vars = Vars::new();
        let z = vars.intern("zz");
        let y = vars.intern("yy");
        let x = vars.intern("xx");
        let hand = ConjunctiveQuery::new(
            vec![Atom::new("e", vec![y, z]), Atom::new("e", vec![x, y])],
            vec![x],
            vars,
            false,
        );
        assert_eq!(fingerprint(&parsed), fingerprint(&hand));
    }
}
