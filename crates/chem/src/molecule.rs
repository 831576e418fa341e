//! A miniature molecular model with a SMILES-like linear notation.
//!
//! Stand-in for Daylight's chemistry (the real toolkit is proprietary):
//! molecules are undirected labeled graphs parsed from a linear notation
//! supporting element symbols (`C`, `N`, `O`, `S`, `P`, `F`, `Cl`, `Br`,
//! `I`), bond orders (`-` single implied, `=` double, `#` triple),
//! branches in parentheses, and single-digit ring closures — enough to
//! express the substructure/similarity workloads the §3.2.4 case study
//! needs, while exercising real graph algorithms (path enumeration for
//! fingerprints, subgraph isomorphism for exact matching).

use extidx_common::{Error, Result};

/// The element symbols the notation knows, in [`Element`] order.
const ELEMENTS: [&str; 11] = ["C", "N", "O", "S", "P", "F", "Cl", "Br", "I", "B", "H"];

/// An interned element symbol: its position in `ELEMENTS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Element(u8);

impl Element {
    /// The element's symbol, e.g. `"Cl"`.
    pub fn symbol(self) -> &'static str {
        ELEMENTS[self.0 as usize]
    }

    fn of(symbol: &str) -> Option<Element> {
        ELEMENTS.iter().position(|e| *e == symbol).map(|i| Element(i as u8))
    }
}

/// An atom: its element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Atom {
    pub element: Element,
}

/// A bond between two atoms with an order (1, 2, 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bond {
    pub a: usize,
    pub b: usize,
    pub order: u8,
}

/// A molecule graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Molecule {
    pub atoms: Vec<Atom>,
    pub bonds: Vec<Bond>,
}

/// Parse the linear notation into `atoms` and `bonds` (both cleared
/// first), with `stack` as the branch stack. Ring closures live in a fixed
/// array (one per digit), so a parse into warm buffers allocates nothing.
fn parse_into(
    input: &str,
    atoms: &mut Vec<Atom>,
    bonds: &mut Vec<Bond>,
    stack: &mut Vec<usize>,
) -> Result<()> {
    atoms.clear();
    bonds.clear();
    stack.clear();
    let mut prev: Option<usize> = None;
    let mut pending_order: u8 = 1;
    let mut rings: [Option<(usize, u8)>; 10] = [None; 10];
    let mut chars = input.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            ' ' => {}
            '-' => pending_order = 1,
            '=' => pending_order = 2,
            '#' => pending_order = 3,
            '(' => {
                let p = prev.ok_or_else(|| Error::Parse("branch with no prior atom".into()))?;
                stack.push(p);
            }
            ')' => {
                let p = stack.pop();
                prev = Some(p.ok_or_else(|| Error::Parse("unbalanced ) in molecule".into()))?);
            }
            d if d.is_ascii_digit() => {
                let p = prev.ok_or_else(|| Error::Parse("ring digit with no prior atom".into()))?;
                let ring = &mut rings[(d as u8 - b'0') as usize];
                match ring.take() {
                    Some((other, order)) => {
                        bonds.push(Bond { a: other, b: p, order: order.max(pending_order) });
                    }
                    None => *ring = Some((p, pending_order)),
                }
                pending_order = 1;
            }
            c if c.is_ascii_uppercase() => {
                // Two-letter elements: Cl, Br.
                let element = match (c, chars.peek()) {
                    ('C', Some('l')) | ('B', Some('r')) => {
                        let two = if c == 'C' { "Cl" } else { "Br" };
                        chars.next();
                        Element::of(two)
                    }
                    _ => Element::of(c.encode_utf8(&mut [0; 4])),
                }
                .ok_or_else(|| Error::Parse(format!("unknown element {:?}", c.to_string())))?;
                let idx = atoms.len();
                atoms.push(Atom { element });
                if let Some(p) = prev {
                    bonds.push(Bond { a: p, b: idx, order: pending_order });
                }
                prev = Some(idx);
                pending_order = 1;
            }
            other => {
                return Err(Error::Parse(format!("unexpected character {other:?} in molecule")))
            }
        }
    }
    if !stack.is_empty() {
        return Err(Error::Parse("unbalanced ( in molecule".into()));
    }
    if rings.iter().any(Option::is_some) {
        return Err(Error::Parse("unclosed ring bond in molecule".into()));
    }
    if atoms.is_empty() {
        return Err(Error::Parse("empty molecule".into()));
    }
    Ok(())
}

impl Molecule {
    /// Parse the linear notation.
    pub fn parse(input: &str) -> Result<Molecule> {
        let (mut atoms, mut bonds) = (Vec::new(), Vec::new());
        parse_into(input, &mut atoms, &mut bonds, &mut Vec::new())?;
        Ok(Molecule { atoms, bonds })
    }

    /// Number of atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Adjacency list: `(neighbor, bond order)` per atom.
    pub fn adjacency(&self) -> Vec<Vec<(usize, u8)>> {
        let mut adj = vec![Vec::new(); self.atoms.len()];
        for b in &self.bonds {
            adj[b.a].push((b.b, b.order));
            adj[b.b].push((b.a, b.order));
        }
        adj
    }

    /// All linear paths up to `max_len` atoms, rendered as label strings
    /// (the fingerprint features). Each path is emitted in its
    /// lexicographically smaller direction so both traversals agree.
    pub fn paths(&self, max_len: usize) -> Vec<String> {
        let adj = self.adjacency();
        let mut out = Vec::new();
        for start in 0..self.atoms.len() {
            let mut visited = vec![false; self.atoms.len()];
            visited[start] = true;
            let mut path = vec![start];
            let mut bonds = Vec::new();
            self.walk(&adj, &mut visited, &mut path, &mut bonds, max_len, &mut out);
        }
        out
    }

    /// Render a path canonically: the lexicographically smaller of the
    /// forward and reverse atom/bond sequences.
    fn render_path(&self, path: &[usize], bonds: &[&'static str]) -> String {
        let fwd = {
            let mut s = String::from(self.atoms[path[0]].element.symbol());
            for (i, b) in bonds.iter().enumerate() {
                s.push_str(b);
                s.push_str(self.atoms[path[i + 1]].element.symbol());
            }
            s
        };
        let rev = {
            let n = path.len();
            let mut s = String::from(self.atoms[path[n - 1]].element.symbol());
            for i in (0..bonds.len()).rev() {
                s.push_str(bonds[i]);
                s.push_str(self.atoms[path[i]].element.symbol());
            }
            s
        };
        if fwd <= rev {
            fwd
        } else {
            rev
        }
    }

    fn walk(
        &self,
        adj: &[Vec<(usize, u8)>],
        visited: &mut Vec<bool>,
        path: &mut Vec<usize>,
        bonds: &mut Vec<&'static str>,
        max_len: usize,
        out: &mut Vec<String>,
    ) {
        out.push(self.render_path(path, bonds));
        if path.len() >= max_len {
            return;
        }
        let last = *path.last().expect("path nonempty");
        for &(n, order) in &adj[last] {
            if visited[n] {
                continue;
            }
            visited[n] = true;
            path.push(n);
            bonds.push(match order {
                2 => "=",
                3 => "#",
                _ => "-",
            });
            self.walk(adj, visited, path, bonds, max_len, out);
            bonds.pop();
            path.pop();
            visited[n] = false;
        }
    }

    /// Exact subgraph-isomorphism check: is `pattern` a substructure of
    /// `self`? Atom labels and bond orders must match; extra bonds in
    /// `self` between matched atoms are allowed (standard substructure
    /// semantics). One-off form of [`Substructure::in_molecule`].
    pub fn contains_subgraph(&self, pattern: &Molecule) -> bool {
        Substructure::new(pattern).in_molecule(self)
    }
}

/// A molecule graph with compressed adjacency: atom `a`'s `(neighbor,
/// bond order)` pairs are `nbrs[start[a]..start[a + 1]]`, in bond order.
#[derive(Debug, Default)]
struct Graph {
    atoms: Vec<Atom>,
    start: Vec<usize>,
    nbrs: Vec<(usize, u8)>,
}

impl Graph {
    /// Rebuild the adjacency of `self.atoms` from `bonds`, reusing buffers.
    fn link(&mut self, bonds: &[Bond]) {
        let n = self.atoms.len();
        self.start.clear();
        self.start.resize(n + 1, 0);
        for b in bonds {
            self.start[b.a + 1] += 1;
            self.start[b.b + 1] += 1;
        }
        for a in 0..n {
            self.start[a + 1] += self.start[a];
        }
        self.nbrs.clear();
        self.nbrs.resize(2 * bonds.len(), (0, 0));
        // `start[a]` is a's write cursor while filling, then restored.
        for b in bonds {
            self.nbrs[self.start[b.a]] = (b.b, b.order);
            self.start[b.a] += 1;
            self.nbrs[self.start[b.b]] = (b.a, b.order);
            self.start[b.b] += 1;
        }
        for a in (1..=n).rev() {
            self.start[a] = self.start[a - 1];
        }
        self.start[0] = 0;
    }

    fn of(m: &Molecule) -> Graph {
        let mut g = Graph { atoms: m.atoms.clone(), ..Graph::default() };
        g.link(&m.bonds);
        g
    }

    fn neighbors(&self, a: usize) -> &[(usize, u8)] {
        &self.nbrs[self.start[a]..self.start[a + 1]]
    }
}

/// A substructure pattern prepared once — its graph and adjacency — with
/// one scratch (target atoms, bonds, adjacency, mapping, used flags) that
/// every target it is tested against reuses: a test of a target text is
/// one parse and one match into warm buffers, with no allocation.
#[derive(Debug)]
pub struct Substructure {
    pattern: Graph,
    target: Graph,
    bonds: Vec<Bond>,
    stack: Vec<usize>,
    mapping: Vec<usize>,
    used: Vec<bool>,
}

impl Substructure {
    /// Prepare `pattern` for matching.
    pub fn new(pattern: &Molecule) -> Substructure {
        Substructure {
            pattern: Graph::of(pattern),
            target: Graph::default(),
            bonds: Vec::new(),
            stack: Vec::new(),
            mapping: Vec::new(),
            used: Vec::new(),
        }
    }

    /// Parse and prepare a pattern.
    pub fn parse(pattern: &str) -> Result<Substructure> {
        Ok(Substructure::new(&Molecule::parse(pattern)?))
    }

    /// Whether the molecule written `text` contains the pattern.
    pub fn in_text(&mut self, text: &str) -> Result<bool> {
        parse_into(text, &mut self.target.atoms, &mut self.bonds, &mut self.stack)?;
        self.target.link(&self.bonds);
        Ok(self.matches())
    }

    /// Whether `m` contains the pattern.
    pub fn in_molecule(&mut self, m: &Molecule) -> bool {
        self.target.atoms.clear();
        self.target.atoms.extend_from_slice(&m.atoms);
        self.target.link(&m.bonds);
        self.matches()
    }

    fn matches(&mut self) -> bool {
        let (p, t) = (self.pattern.atoms.len(), self.target.atoms.len());
        if p > t {
            return false;
        }
        self.mapping.clear();
        self.mapping.resize(p, usize::MAX);
        self.used.clear();
        self.used.resize(t, false);
        match_rec(&self.pattern, &self.target, 0, &mut self.mapping, &mut self.used)
    }
}

/// Backtracking search for an injective map of pattern atoms `next..`
/// onto unused target atoms, given the map of atoms `..next`.
fn match_rec(
    pattern: &Graph,
    target: &Graph,
    next: usize,
    mapping: &mut [usize],
    used: &mut [bool],
) -> bool {
    if next == pattern.atoms.len() {
        return true;
    }
    'candidates: for t in 0..target.atoms.len() {
        if used[t] || target.atoms[t] != pattern.atoms[next] {
            continue;
        }
        // Every already-mapped pattern neighbor of `next` must be a
        // target neighbor of `t` with a matching bond order.
        for &(pn, order) in pattern.neighbors(next) {
            if pn < next {
                let tn = mapping[pn];
                if !target.neighbors(t).iter().any(|&(x, o)| x == tn && o == order) {
                    continue 'candidates;
                }
            }
        }
        mapping[next] = t;
        used[t] = true;
        if match_rec(pattern, target, next + 1, mapping, used) {
            return true;
        }
        used[t] = false;
        mapping[next] = usize::MAX;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_chains_and_bonds() {
        let m = Molecule::parse("CC=O").unwrap();
        assert_eq!(m.atom_count(), 3);
        assert_eq!(m.bonds.len(), 2);
        assert_eq!(m.bonds[1].order, 2);
    }

    #[test]
    fn parses_branches() {
        // isobutane-ish: C(C)(C)C
        let m = Molecule::parse("C(C)(C)C").unwrap();
        assert_eq!(m.atom_count(), 4);
        let adj = m.adjacency();
        assert_eq!(adj[0].len(), 3, "central carbon bonds to three others");
    }

    #[test]
    fn parses_rings() {
        // cyclohexane: C1CCCCC1
        let m = Molecule::parse("C1CCCCC1").unwrap();
        assert_eq!(m.atom_count(), 6);
        assert_eq!(m.bonds.len(), 6);
        let adj = m.adjacency();
        assert!(adj.iter().all(|n| n.len() == 2), "every ring atom has two neighbors");
    }

    #[test]
    fn parses_two_letter_elements() {
        let m = Molecule::parse("CCl").unwrap();
        assert_eq!(m.atoms[1].element.symbol(), "Cl");
        let m = Molecule::parse("CBr").unwrap();
        assert_eq!(m.atoms[1].element.symbol(), "Br");
    }

    #[test]
    fn parse_errors() {
        assert!(Molecule::parse("").is_err());
        assert!(Molecule::parse("C(C").is_err());
        assert!(Molecule::parse("C)").is_err());
        assert!(Molecule::parse("C1CC").is_err(), "unclosed ring");
        assert!(Molecule::parse("Xy").is_err());
        assert!(Molecule::parse("(C)").is_err(), "branch before any atom");
    }

    #[test]
    fn substructure_chain_in_ring() {
        let ring = Molecule::parse("C1CCCCC1").unwrap();
        let chain = Molecule::parse("CCC").unwrap();
        assert!(ring.contains_subgraph(&chain));
        assert!(!chain.contains_subgraph(&ring));
    }

    #[test]
    fn substructure_respects_bond_order() {
        let aldehyde = Molecule::parse("CC=O").unwrap();
        let single_co = Molecule::parse("C-O").unwrap();
        let double_co = Molecule::parse("C=O").unwrap();
        assert!(aldehyde.contains_subgraph(&double_co));
        assert!(!aldehyde.contains_subgraph(&single_co));
    }

    #[test]
    fn substructure_respects_elements() {
        let m = Molecule::parse("CCN").unwrap();
        assert!(m.contains_subgraph(&Molecule::parse("CN").unwrap()));
        assert!(!m.contains_subgraph(&Molecule::parse("CO").unwrap()));
    }

    #[test]
    fn self_is_substructure_of_self() {
        for s in ["C", "CC=O", "C1CCCCC1", "C(C)(C)C", "CC(=O)N"] {
            let m = Molecule::parse(s).unwrap();
            assert!(m.contains_subgraph(&m), "{s}");
        }
    }

    #[test]
    fn paths_canonical_direction() {
        let m = Molecule::parse("CN").unwrap();
        let paths = m.paths(2);
        // Both directions canonicalize to the same 2-atom path string.
        let two: Vec<&String> = paths.iter().filter(|p| p.contains('-')).collect();
        assert_eq!(two.len(), 2);
        assert_eq!(two[0], two[1]);
    }

    #[test]
    fn branch_molecule_roundtrip_paths() {
        let m = Molecule::parse("CC(=O)N").unwrap();
        let paths = m.paths(4);
        assert!(paths.iter().any(|p| p.contains('=')), "double bond appears in a path");
        assert!(!paths.is_empty());
    }
}
