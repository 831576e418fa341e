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

    /// The element whose symbol starts with the uppercase letter `first`,
    /// given the byte `next` after it, and the symbol's length in bytes:
    /// `C` then `l` is chlorine and `B` then `r` bromine.
    fn of_bytes(first: u8, next: Option<u8>) -> Option<(Element, usize)> {
        let (index, len) = match (first, next) {
            (b'C', Some(b'l')) => (6, 2),
            (b'B', Some(b'r')) => (7, 2),
            (b'C', _) => (0, 1),
            (b'N', _) => (1, 1),
            (b'O', _) => (2, 1),
            (b'S', _) => (3, 1),
            (b'P', _) => (4, 1),
            (b'F', _) => (5, 1),
            (b'I', _) => (8, 1),
            (b'B', _) => (9, 1),
            (b'H', _) => (10, 1),
            _ => return None,
        };
        Some((Element(index), len))
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
    let bytes = input.as_bytes();
    let mut at = 0;
    while let Some(&c) = bytes.get(at) {
        at += 1;
        match c {
            b' ' => {}
            b'-' => pending_order = 1,
            b'=' => pending_order = 2,
            b'#' => pending_order = 3,
            b'(' => {
                let p = prev.ok_or_else(|| Error::Parse("branch with no prior atom".into()))?;
                stack.push(p);
            }
            b')' => {
                let p = stack.pop();
                prev = Some(p.ok_or_else(|| Error::Parse("unbalanced ) in molecule".into()))?);
            }
            b'0'..=b'9' => {
                let p = prev.ok_or_else(|| Error::Parse("ring digit with no prior atom".into()))?;
                let ring = &mut rings[(c - b'0') as usize];
                match ring.take() {
                    Some((other, order)) => {
                        bonds.push(Bond { a: other, b: p, order: order.max(pending_order) });
                    }
                    None => *ring = Some((p, pending_order)),
                }
                pending_order = 1;
            }
            b'A'..=b'Z' => {
                let (element, len) = Element::of_bytes(c, bytes.get(at).copied()).ok_or_else(
                    || Error::Parse(format!("unknown element {:?}", (c as char).to_string())),
                )?;
                at += len - 1;
                let idx = atoms.len();
                atoms.push(Atom { element });
                if let Some(p) = prev {
                    bonds.push(Bond { a: p, b: idx, order: pending_order });
                }
                prev = Some(idx);
                pending_order = 1;
            }
            _ => {
                // Every byte before `at - 1` was one ASCII character, so
                // a character starts there.
                let other = input[at - 1..].chars().next().expect("a character starts here");
                return Err(Error::Parse(format!("unexpected character {other:?} in molecule")));
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
/// onto unused target atoms, given the map of atoms `..next`. A pattern
/// atom with an already-mapped neighbour can only map onto a target
/// neighbour of that neighbour's image, so its candidates are that
/// image's adjacency; only an atom with none (the first) scans every
/// target atom.
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
    let anchor = pattern.neighbors(next).iter().find(|&&(pn, _)| pn < next);
    let anchor = anchor.map(|&(pn, order)| (mapping[pn], order));
    let mut try_map = |t: usize| {
        if used[t] || target.atoms[t] != pattern.atoms[next] {
            return false;
        }
        // Every already-mapped pattern neighbor of `next` must be a
        // target neighbor of `t` with a matching bond order.
        for &(pn, order) in pattern.neighbors(next) {
            if pn < next {
                let tn = mapping[pn];
                if !target.neighbors(t).iter().any(|&(x, o)| x == tn && o == order) {
                    return false;
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
        false
    };
    match anchor {
        Some((image, order)) => {
            target.neighbors(image).iter().any(|&(t, o)| o == order && try_map(t))
        }
        None => (0..target.atoms.len()).any(try_map),
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        assert_eq!(Graph::of(&m).neighbors(0).len(), 3, "central carbon bonds to three others");
    }

    #[test]
    fn parses_rings() {
        // cyclohexane: C1CCCCC1
        let m = Molecule::parse("C1CCCCC1").unwrap();
        assert_eq!(m.atom_count(), 6);
        assert_eq!(m.bonds.len(), 6);
        let g = Graph::of(&m);
        assert!((0..6).all(|a| g.neighbors(a).len() == 2), "every ring atom has two neighbors");
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
    fn parse_error_messages() {
        let message = |s: &str| match Molecule::parse(s) {
            Err(Error::Parse(m)) => m,
            other => panic!("{s:?}: expected a parse error, got {other:?}"),
        };
        assert_eq!(message(""), "empty molecule");
        assert_eq!(message("  "), "empty molecule");
        assert_eq!(message("C(C"), "unbalanced ( in molecule");
        assert_eq!(message("C)"), "unbalanced ) in molecule");
        assert_eq!(message("C1CC"), "unclosed ring bond in molecule");
        assert_eq!(message("Xy"), "unknown element \"X\"");
        assert_eq!(message("CZ"), "unknown element \"Z\"");
        assert_eq!(message("(C)"), "branch with no prior atom");
        assert_eq!(message("1C"), "ring digit with no prior atom");
        assert_eq!(message("Cx"), "unexpected character 'x' in molecule");
        assert_eq!(message("C.C"), "unexpected character '.' in molecule");
    }

    #[test]
    fn non_ascii_input_is_a_parse_error() {
        for s in ["Cé", "é", "CC(é)", "C\u{1F600}", "ClÉ", "C1CC=ö1"] {
            assert!(matches!(Molecule::parse(s), Err(Error::Parse(_))), "{s:?}");
            assert!(matches!(Substructure::parse("C").unwrap().in_text(s), Err(Error::Parse(_))));
        }
        assert!(matches!(
            Molecule::parse("Cé"),
            Err(Error::Parse(m)) if m == "unexpected character 'é' in molecule"
        ));
    }

    #[test]
    fn every_element_symbol_parses_to_itself() {
        for (i, symbol) in ELEMENTS.iter().enumerate() {
            let m = Molecule::parse(&format!("C{symbol}C")).unwrap();
            assert_eq!(m.atoms[1].element, Element(i as u8), "{symbol}");
            assert_eq!(m.atoms[1].element.symbol(), *symbol);
        }
    }

    /// The matcher's definition, with no pruning: try every unused target
    /// atom for every pattern atom and check every mapped neighbour.
    fn exhaustive_match(
        pattern: &Graph,
        target: &Graph,
        next: usize,
        mapping: &mut [usize],
        used: &mut [bool],
    ) -> bool {
        if next == pattern.atoms.len() {
            return true;
        }
        (0..target.atoms.len()).any(|t| {
            let fits = !used[t]
                && target.atoms[t] == pattern.atoms[next]
                && pattern.neighbors(next).iter().filter(|&&(pn, _)| pn < next).all(|&(pn, o)| {
                    target.neighbors(t).iter().any(|&(x, xo)| x == mapping[pn] && xo == o)
                });
            if !fits {
                return false;
            }
            (mapping[next], used[t]) = (t, true);
            let found = exhaustive_match(pattern, target, next + 1, mapping, used);
            (mapping[next], used[t]) = (usize::MAX, false);
            found
        })
    }

    /// A random molecule text of about `atoms` atoms over `symbols`, with
    /// branches, ring closures and all three bond orders.
    fn random_text(rng: &mut StdRng, atoms: usize, symbols: &[&str]) -> String {
        let mut out = String::new();
        let (mut depth, mut open_rings) = (0, Vec::new());
        for i in 0..atoms {
            if i > 0 {
                out.push_str(["", "", "", "-", "=", "#"][rng.gen_range(0..6usize)]);
            }
            out.push_str(symbols[rng.gen_range(0..symbols.len())]);
            if i + 1 < atoms && rng.gen_bool(0.15) && open_rings.len() < 3 {
                let digit = (1..10).find(|d| !open_rings.contains(d)).expect("a free digit");
                out.push(char::from(b'0' + digit));
                open_rings.push(digit);
            } else if !open_rings.is_empty() && rng.gen_bool(0.3) {
                out.push(char::from(b'0' + open_rings.pop().expect("an open ring")));
            }
            if i + 1 < atoms && rng.gen_bool(0.2) {
                out.push('(');
                depth += 1;
            } else if depth > 0 && rng.gen_bool(0.4) {
                out.push(')');
                depth -= 1;
            }
        }
        for digit in open_rings {
            // Close each ring on the last atom (or reopen it there: a
            // digit twice on one atom is a self-bond the parser allows).
            out.push(char::from(b'0' + digit));
        }
        out.push_str(&")".repeat(depth));
        out
    }

    #[test]
    fn neighbour_driven_matching_agrees_with_exhaustive_search() {
        let mut rng = StdRng::seed_from_u64(0x5eed_c4e3);
        let symbols = ["C", "C", "C", "N", "O", "S", "Cl", "Br"];
        let (mut found, mut missed, mut larger) = (0, 0, 0);
        let mut orders_seen = [false; 4];
        for case in 0..3000 {
            let atoms = rng.gen_range(1..14);
            let text = random_text(&mut rng, atoms, &symbols);
            let small = &symbols[..rng.gen_range(1..symbols.len() + 1)];
            let atoms = rng.gen_range(1..7);
            let pattern_text = random_text(&mut rng, atoms, small);
            let (Ok(mol), Ok(pat)) = (Molecule::parse(&text), Molecule::parse(&pattern_text))
            else {
                panic!("case {case}: generated texts parse: {text:?} {pattern_text:?}");
            };
            mol.bonds.iter().for_each(|b| orders_seen[b.order as usize] = true);
            let (p, t) = (Graph::of(&pat), Graph::of(&mol));
            let mut mapping = vec![usize::MAX; p.atoms.len()];
            let expected = exhaustive_match(&p, &t, 0, &mut mapping, &mut vec![false; t.atoms.len()]);
            let got = Substructure::parse(&pattern_text).unwrap().in_text(&text).unwrap();
            assert_eq!(got, expected, "case {case}: {pattern_text:?} in {text:?}");
            larger += usize::from(pat.atom_count() > mol.atom_count());
            if got {
                found += 1;
            } else {
                missed += 1;
            }
        }
        // The draws reach what they are meant to: both answers, patterns
        // larger than their targets, and every bond order.
        assert!(found > 300 && missed > 300, "{found} matches, {missed} misses");
        assert!(larger > 50, "{larger} patterns larger than their target");
        assert_eq!(orders_seen[1..], [true; 3]);
    }

    #[test]
    fn matching_within_rings_and_halogens() {
        let cases = [
            ("C1CCCCC1Cl", "ClC1CCCCC1", true),
            ("C1CCCCC1", "C1CCCC1", false),
            ("BrC1=CC=CC=C1", "C=CBr", true),
            ("BrC1=CC=CC=C1", "C#CBr", false),
            ("CC(Cl)(Br)C#N", "ClCBr", true),
            ("CC(Cl)C(Br)C", "ClCBr", false),
            ("C1CC1", "C1CC1C", false),
        ];
        for (text, pattern, expected) in cases {
            let got = Substructure::parse(pattern).unwrap().in_text(text).unwrap();
            assert_eq!(got, expected, "{pattern} in {text}");
        }
    }
}
