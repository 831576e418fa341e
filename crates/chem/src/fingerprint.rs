//! Path-based hashed molecular fingerprints.
//!
//! Daylight's screening fingerprints, reimplemented: every linear path of
//! up to [`MAX_PATH`] atoms is hashed into [`BITS_PER_FEATURE`] positions
//! of a [`FP_BITS`]-bit bitset. Because every path of a substructure is a
//! path of the containing molecule, `fp(sub) ⊆ fp(mol)` is a *necessary*
//! condition for substructure containment — the screen can produce false
//! positives (resolved by exact subgraph matching) but never false
//! negatives. Tanimoto similarity over fingerprints drives the
//! similarity/nearest-neighbor searches.

use crate::molecule::Molecule;

/// Fingerprint width in bits.
pub const FP_BITS: usize = 512;
/// Fingerprint width in bytes (the on-LOB/on-file record payload).
pub const FP_BYTES: usize = FP_BITS / 8;
/// Bits set per hashed feature.
pub const BITS_PER_FEATURE: usize = 2;
/// Maximum path length (atoms) enumerated.
pub const MAX_PATH: usize = 5;

/// A molecular screening fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub words: [u64; FP_BITS / 64],
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint { words: [0; FP_BITS / 64] }
    }
}

/// Longest rendered path: [`MAX_PATH`] two-letter symbols and the bonds
/// between them.
const PATH_BYTES: usize = 3 * MAX_PATH - 1;

fn feature_hash(s: &[u8], salt: u64) -> u64 {
    // FNV-1a with a salt, adequate and dependency-free.
    let mut h = 0xcbf29ce484222325u64 ^ salt.wrapping_mul(0x9e3779b97f4a7c15);
    for b in s {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A path rendered into a fixed buffer.
#[derive(Default)]
struct Rendered {
    bytes: [u8; PATH_BYTES],
    len: usize,
}

impl Rendered {
    fn push(&mut self, s: &[u8]) {
        self.bytes[self.len..self.len + s.len()].copy_from_slice(s);
        self.len += s.len();
    }

    fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// The path enumeration behind [`Fingerprint::of`]: every simple path of
/// up to [`MAX_PATH`] atoms from every start atom, rendered forwards and
/// reversed into two reused buffers, the lexicographically smaller of the
/// two hashed (so both traversals of a path set the same bits). Nothing
/// is allocated.
struct PathWalk<'m> {
    m: &'m Molecule,
    /// The path so far, `path[..len]`.
    path: [usize; MAX_PATH],
    /// `bonds[i]`: the bond symbol between `path[i - 1]` and `path[i]`.
    bonds: [u8; MAX_PATH],
    fwd: Rendered,
    rev: Rendered,
    fp: Fingerprint,
}

impl PathWalk<'_> {
    /// Set the features of the path `path[..len]` and of every extension
    /// of it.
    fn extend(&mut self, len: usize) {
        self.set_feature(len);
        if len == MAX_PATH {
            return;
        }
        let (m, last) = (self.m, self.path[len - 1]);
        for b in &m.bonds {
            let next = match (b.a == last, b.b == last) {
                (true, _) => b.b,
                (_, true) => b.a,
                _ => continue,
            };
            if self.path[..len].contains(&next) {
                continue;
            }
            self.path[len] = next;
            self.bonds[len] = match b.order {
                2 => b'=',
                3 => b'#',
                _ => b'-',
            };
            self.extend(len + 1);
        }
    }

    fn set_feature(&mut self, len: usize) {
        let symbol = |i: usize| self.m.atoms[self.path[i]].element.symbol().as_bytes();
        let (fwd, rev) = (&mut self.fwd, &mut self.rev);
        fwd.len = 0;
        fwd.push(symbol(0));
        for i in 1..len {
            fwd.push(&[self.bonds[i]]);
            fwd.push(symbol(i));
        }
        rev.len = 0;
        rev.push(symbol(len - 1));
        for i in (0..len - 1).rev() {
            rev.push(&[self.bonds[i + 1]]);
            rev.push(symbol(i));
        }
        let feature = fwd.as_slice().min(rev.as_slice());
        for salt in 0..BITS_PER_FEATURE as u64 {
            self.fp.set((feature_hash(feature, salt) as usize) % FP_BITS);
        }
    }
}

impl Fingerprint {
    /// Fingerprint of a molecule.
    pub fn of(m: &Molecule) -> Fingerprint {
        let mut walk = PathWalk {
            m,
            path: [0; MAX_PATH],
            bonds: [0; MAX_PATH],
            fwd: Rendered::default(),
            rev: Rendered::default(),
            fp: Fingerprint::default(),
        };
        for start in 0..m.atoms.len() {
            walk.path[0] = start;
            walk.extend(1);
        }
        walk.fp
    }

    /// Set one bit.
    pub fn set(&mut self, bit: usize) {
        self.words[bit / 64] |= 1 << (bit % 64);
    }

    /// Population count.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether every bit of `self` is also set in `other` — the
    /// substructure screen.
    pub fn is_subset_of(&self, other: &Fingerprint) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// Tanimoto similarity `|A∧B| / |A∨B|` (1.0 for two empty prints).
    pub fn tanimoto(&self, other: &Fingerprint) -> f64 {
        let mut inter = 0u32;
        let mut union = 0u32;
        for (a, b) in self.words.iter().zip(&other.words) {
            inter += (a & b).count_ones();
            union += (a | b).count_ones();
        }
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// Serialize to the fixed-width byte payload.
    pub fn to_bytes(&self) -> [u8; FP_BYTES] {
        let mut out = [0u8; FP_BYTES];
        for (i, w) in self.words.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Parse the fixed-width byte payload.
    pub fn from_bytes(bytes: &[u8]) -> Option<Fingerprint> {
        if bytes.len() != FP_BYTES {
            return None;
        }
        let mut fp = Fingerprint::default();
        for (i, chunk) in bytes.chunks(8).enumerate() {
            fp.words[i] = u64::from_le_bytes(chunk.try_into().ok()?);
        }
        Some(fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substructure_screen_has_no_false_negatives() {
        let pairs = [
            ("C1CCCCC1", "CCC"),
            ("CC(=O)N", "C=O"),
            ("CCCCCCCC", "CC"),
            ("CC(C)(C)CO", "CO"),
        ];
        for (mol, sub) in pairs {
            let m = Molecule::parse(mol).unwrap();
            let s = Molecule::parse(sub).unwrap();
            assert!(m.contains_subgraph(&s), "{sub} in {mol} (graph)");
            assert!(
                Fingerprint::of(&s).is_subset_of(&Fingerprint::of(&m)),
                "{sub} in {mol} (screen)"
            );
        }
    }

    #[test]
    fn screen_rejects_obvious_non_matches() {
        let m = Fingerprint::of(&Molecule::parse("CCCC").unwrap());
        let s = Fingerprint::of(&Molecule::parse("N").unwrap());
        assert!(!s.is_subset_of(&m));
    }

    #[test]
    fn tanimoto_bounds_and_identity() {
        let a = Fingerprint::of(&Molecule::parse("CC(=O)N").unwrap());
        let b = Fingerprint::of(&Molecule::parse("C1CCCCC1").unwrap());
        assert_eq!(a.tanimoto(&a), 1.0);
        let t = a.tanimoto(&b);
        assert!((0.0..=1.0).contains(&t));
        assert!(t < 1.0);
    }

    #[test]
    fn similar_molecules_have_high_tanimoto() {
        let a = Fingerprint::of(&Molecule::parse("CCCCCO").unwrap());
        let close = Fingerprint::of(&Molecule::parse("CCCCO").unwrap());
        let far = Fingerprint::of(&Molecule::parse("N#N").unwrap());
        assert!(a.tanimoto(&close) > a.tanimoto(&far));
    }

    #[test]
    fn byte_roundtrip() {
        let a = Fingerprint::of(&Molecule::parse("CC(=O)NC1CCCCC1").unwrap());
        let b = Fingerprint::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(a, b);
        assert!(Fingerprint::from_bytes(&[0u8; 3]).is_none());
    }

    /// Every fingerprint word of a fixed corpus, folded: the bits
    /// `Fingerprint::of` sets are part of every stored index, so a
    /// faster enumeration must set exactly the same ones.
    #[test]
    fn fingerprints_are_bit_for_bit_stable() {
        let corpus = crate::workload::MoleculeWorkload::new(7).corpus(1000, 12);
        let fold = corpus
            .iter()
            .flat_map(|s| Fingerprint::of(&Molecule::parse(s).unwrap()).words)
            .fold(0xcbf29ce484222325u64, |acc, w| (acc ^ w).wrapping_mul(0x100000001b3));
        assert_eq!(fold, 0xe969a3d3ef27ce2b);
    }

    #[test]
    fn both_directions_of_a_path_are_one_feature() {
        let fp = |s: &str| Fingerprint::of(&Molecule::parse(s).unwrap());
        assert_eq!(fp("CN"), fp("NC"));
        assert_eq!(fp("CC(=O)N"), fp("NC(=O)C"));
        assert_eq!(fp("ClCC#N"), fp("N#CCCl"));
    }

    #[test]
    fn bond_orders_are_part_of_a_feature() {
        let fp = |s: &str| Fingerprint::of(&Molecule::parse(s).unwrap());
        assert_ne!(fp("CC(=O)N"), fp("CC(O)N"));
        assert_ne!(fp("CC=C"), fp("CC#C"));
    }

    #[test]
    fn empty_default() {
        let fp = Fingerprint::default();
        assert_eq!(fp.count_ones(), 0);
        assert_eq!(fp.tanimoto(&Fingerprint::default()), 1.0);
        assert!(fp.is_subset_of(&Fingerprint::default()));
    }
}
