//! The prepared substructure matcher and the fingerprint against fixed
//! references: a plain adjacency-list backtracking matcher (the matcher
//! the cartridge used before patterns were prepared once per scan) and a
//! digest of the fingerprints of a seeded batch recorded before that
//! change.

use extidx_chem::{Fingerprint, Molecule, MoleculeWorkload, Substructure};

/// The fragments the perf ledger's `MolContains` queries search for.
const LEDGER_FRAGMENTS: [&str; 3] = ["CC(=O)N", "OC(=S)C", "C#N"];

/// Reference substructure test: per-atom adjacency lists rebuilt on every
/// call, pattern atoms mapped in index order.
fn reference_contains(target: &Molecule, pattern: &Molecule) -> bool {
    fn adjacency(m: &Molecule) -> Vec<Vec<(usize, u8)>> {
        let mut adj = vec![Vec::new(); m.atoms.len()];
        for b in &m.bonds {
            adj[b.a].push((b.b, b.order));
            adj[b.b].push((b.a, b.order));
        }
        adj
    }
    fn search(
        t: &Molecule,
        p: &Molecule,
        t_adj: &[Vec<(usize, u8)>],
        p_adj: &[Vec<(usize, u8)>],
        next: usize,
        mapping: &mut Vec<usize>,
        used: &mut Vec<bool>,
    ) -> bool {
        if next == p.atoms.len() {
            return true;
        }
        'candidates: for ti in 0..t.atoms.len() {
            if used[ti] || t.atoms[ti].element != p.atoms[next].element {
                continue;
            }
            for &(pn, order) in &p_adj[next] {
                if pn < next && !t_adj[ti].iter().any(|&(x, o)| x == mapping[pn] && o == order) {
                    continue 'candidates;
                }
            }
            mapping[next] = ti;
            used[ti] = true;
            if search(t, p, t_adj, p_adj, next + 1, mapping, used) {
                return true;
            }
            used[ti] = false;
        }
        false
    }
    if pattern.atoms.len() > target.atoms.len() {
        return false;
    }
    let mut mapping = vec![usize::MAX; pattern.atoms.len()];
    let mut used = vec![false; target.atoms.len()];
    search(target, pattern, &adjacency(target), &adjacency(pattern), 0, &mut mapping, &mut used)
}

/// Every pattern against every target: ledger fragments and small random
/// fragments over random molecules, molecules planted with a fragment,
/// and rings. One prepared matcher per pattern serves all targets, as in
/// a scan, so stale scratch from a previous target would show.
#[test]
fn prepared_matcher_equals_the_reference_matcher() {
    let mut g = MoleculeWorkload::new(39);
    let mut targets = g.corpus(300, 12);
    for f in LEDGER_FRAGMENTS {
        targets.extend((0..20).map(|_| g.molecule_containing(f, 6)));
    }
    targets.extend(["C1CCCCC1", "C1CC2CCC1CC2", "N#CC1CC(Br)CC1", "C1C1", "CCl"].map(String::from));
    let mut patterns: Vec<String> = LEDGER_FRAGMENTS.map(String::from).to_vec();
    patterns.extend((0..40).map(|i| g.molecule(1 + i % 5)));
    patterns.extend(["C1CCCCC1", "CCC", "C=O", "C1C1", "Cl"].map(String::from));
    let (mut hits, mut pairs) = (0, 0);
    for p in &patterns {
        let pattern = Molecule::parse(p).unwrap();
        let mut prepared = Substructure::new(&pattern);
        for t in &targets {
            let target = Molecule::parse(t).unwrap();
            let expect = reference_contains(&target, &pattern);
            assert_eq!(prepared.in_text(t).unwrap(), expect, "{p} in {t}");
            assert_eq!(prepared.in_molecule(&target), expect, "{p} in {t} (molecule)");
            assert_eq!(target.contains_subgraph(&pattern), expect, "{p} in {t} (one-off)");
            hits += expect as usize;
            pairs += 1;
        }
    }
    // Both answers occur often enough for the comparison to mean something.
    assert!(hits > pairs / 20 && hits < pairs - pairs / 20, "{hits} of {pairs}");
}

/// A target that fails to parse is an error, and the matcher still
/// answers the next target correctly.
#[test]
fn a_bad_target_text_is_an_error_and_leaves_the_matcher_usable() {
    let mut prepared = Substructure::parse("C=O").unwrap();
    for bad in ["", "C(C", "C)", "C1CC", "Xy", "(C)", "C$"] {
        assert!(prepared.in_text(bad).is_err(), "{bad:?}");
    }
    assert!(prepared.in_text("CC=O").unwrap());
    assert!(!prepared.in_text("CCO").unwrap());
}

/// `Fingerprint::of` is bit-identical to the fingerprint the stored
/// indexes were built with: an FNV-1a digest of the fingerprint bytes of
/// a seeded batch of 508 molecules, recorded before the parser interned
/// element symbols.
#[test]
fn fingerprints_match_the_recorded_digest() {
    let mut g = MoleculeWorkload::new(2026);
    let mut texts = g.corpus(400, 12);
    for f in ["CC(=O)N", "OC(=S)C", "C#N", "C1CCCCC1", "CCl", "CBr", "C(C)(C)C=O", "N#CC1CC(Br)CC1"] {
        texts.push(f.to_string());
    }
    for _ in 0..100 {
        texts.push(g.molecule_containing("CC(=O)N", 6));
    }
    let mut h = 0xcbf29ce484222325u64;
    for t in &texts {
        for b in Fingerprint::of(&Molecule::parse(t).unwrap()).to_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    assert_eq!(texts.len(), 508);
    assert_eq!(h, 0x5cfe1cd0cc7da24d);
}
