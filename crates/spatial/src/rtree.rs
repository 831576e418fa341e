//! A disk-style R-tree (Guttman 1984) built on server callbacks.
//!
//! The paper cites R-trees as the canonical spatial indexing structure
//! ("efficient processing of the Overlaps operator requires a specialized
//! indexing structure such as R-trees") and claims the framework "allows
//! changing the underlying spatial indexing algorithms without requiring
//! the end users to change their queries" (§3.2.2). This module is that
//! claim made concrete: a second indexing scheme for the same
//! `Sdo_Relate` operator.
//!
//! Nodes are rows of an index-organized table `(nodeid, payload)`, written
//! through server-callback SQL and read in place through the key-range
//! callback, exactly how a cartridge would build a paged tree over database
//! storage: a one-key read per node on the insert and delete paths, a
//! `nodeid` range read per run of nearby nodes of a level in a search. Row
//! 0 is metadata (`root id, next node id`).
//! Inserts use least-area-enlargement descent with quadratic splits;
//! deletes remove leaf entries without condensing (ancestor MBRs may stay
//! loose — searches remain correct, just occasionally less selective).

use extidx_common::{Error, Result, RowId, Value};
use extidx_core::server::ServerContext;

use crate::geometry::Mbr;

/// Maximum entries per node before splitting.
pub const MAX_ENTRIES: usize = 8;

/// Node ids at most this far apart share one range read in a search:
/// reading past a few unwanted nodes costs less than another callback.
const READ_GAP: i64 = 32;

/// One R-tree node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    pub id: i64,
    pub leaf: bool,
    /// Leaf: `(mbr, rowid-as-u64)`. Internal: `(mbr, child node id)`.
    pub entries: Vec<(Mbr, u64)>,
}

impl Node {
    fn mbr(&self) -> Mbr {
        union_all(self.entries.iter().map(|(m, _)| *m))
    }
}

fn union(a: &Mbr, b: &Mbr) -> Mbr {
    Mbr {
        xmin: a.xmin.min(b.xmin),
        ymin: a.ymin.min(b.ymin),
        xmax: a.xmax.max(b.xmax),
        ymax: a.ymax.max(b.ymax),
    }
}

fn union_all(mut it: impl Iterator<Item = Mbr>) -> Mbr {
    let first = it.next().unwrap_or(Mbr { xmin: 0.0, ymin: 0.0, xmax: 0.0, ymax: 0.0 });
    it.fold(first, |acc, m| union(&acc, &m))
}

fn area(m: &Mbr) -> f64 {
    (m.xmax - m.xmin).max(0.0) * (m.ymax - m.ymin).max(0.0)
}

fn enlargement(current: &Mbr, add: &Mbr) -> f64 {
    area(&union(current, add)) - area(current)
}

// ---------------------------------------------------------------------------
// node (de)serialization
// ---------------------------------------------------------------------------

fn encode_node(n: &Node) -> String {
    let kind = if n.leaf { "L" } else { "I" };
    let entries: Vec<String> = n
        .entries
        .iter()
        .map(|(m, p)| format!("{p}:{},{},{},{}", m.xmin, m.ymin, m.xmax, m.ymax))
        .collect();
    format!("{kind}|{}", entries.join(";"))
}

fn decode_node(id: i64, s: &str) -> Result<Node> {
    let (kind, rest) =
        s.split_once('|').ok_or_else(|| Error::Storage(format!("bad rtree node {s:?}")))?;
    let leaf = kind == "L";
    let mut entries = Vec::new();
    if !rest.is_empty() {
        for part in rest.split(';') {
            let (p, coords) = part
                .split_once(':')
                .ok_or_else(|| Error::Storage(format!("bad rtree entry {part:?}")))?;
            let c: Vec<f64> = coords
                .split(',')
                .map(|v| v.parse::<f64>().map_err(|_| Error::Storage("bad rtree coord".into())))
                .collect::<Result<_>>()?;
            if c.len() != 4 {
                return Err(Error::Storage("rtree entry needs 4 coords".into()));
            }
            let payload =
                p.parse::<u64>().map_err(|_| Error::Storage("bad rtree payload".into()))?;
            entries.push((Mbr { xmin: c[0], ymin: c[1], xmax: c[2], ymax: c[3] }, payload));
        }
    }
    Ok(Node { id, leaf, entries })
}

// ---------------------------------------------------------------------------
// the persistent tree
// ---------------------------------------------------------------------------

/// An R-tree persisted in a `(nodeid INTEGER, payload VARCHAR2)` IOT,
/// accessed exclusively through [`ServerContext`] callbacks.
pub struct RTree<'a> {
    pub table: String,
    srv: &'a mut dyn ServerContext,
}

impl<'a> RTree<'a> {
    /// Open a handle over an existing tree's storage table.
    pub fn open(srv: &'a mut dyn ServerContext, table: String) -> Self {
        RTree { table, srv }
    }

    /// Create the storage table with an empty root.
    pub fn create(srv: &'a mut dyn ServerContext, table: String) -> Result<Self> {
        srv.execute(
            &format!(
                "CREATE TABLE {table} (nodeid INTEGER, payload VARCHAR2(4000), \
                 PRIMARY KEY (nodeid)) ORGANIZATION INDEX"
            ),
            &[],
        )?;
        let mut t = RTree { table, srv };
        t.write_meta(1, 2)?;
        t.write_node(&Node { id: 1, leaf: true, entries: Vec::new() })?;
        Ok(t)
    }

    fn write_meta(&mut self, root: i64, next: i64) -> Result<()> {
        self.srv.execute(
            &format!("DELETE FROM {} WHERE nodeid = 0", self.table),
            &[],
        )?;
        self.srv.execute(
            &format!("INSERT INTO {} VALUES (0, ?)", self.table),
            &[Value::from(format!("{root},{next}"))],
        )?;
        Ok(())
    }

    fn read_meta(&mut self) -> Result<(i64, i64)> {
        let mut meta = None;
        self.read_payloads(0, 0, &mut |_, s| {
            let (root, next) =
                s.split_once(',').ok_or_else(|| Error::Storage("bad rtree metadata".into()))?;
            meta = Some((
                root.parse().map_err(|_| Error::Storage("bad rtree root".into()))?,
                next.parse().map_err(|_| Error::Storage("bad rtree next".into()))?,
            ));
            Ok(())
        })?;
        meta.ok_or_else(|| Error::Storage("rtree metadata missing".into()))
    }

    fn read_node(&mut self, id: i64) -> Result<Node> {
        // `read_nodes` answers every id it is asked for, or fails.
        Ok(self.read_nodes(&[id])?.remove(0))
    }

    /// Every `(nodeid, payload)` row with `lo ≤ nodeid ≤ hi`, in id order:
    /// one key-range read of the node table, each payload lent in place.
    fn read_payloads(
        &mut self,
        lo: i64,
        hi: i64,
        visit: &mut dyn FnMut(i64, &str) -> Result<()>,
    ) -> Result<()> {
        let (lo, hi) = (Value::Integer(lo), Value::Integer(hi));
        self.srv.read_key_range(&self.table, "nodeid", &lo, &hi, &mut |row| {
            visit(row[0].as_integer()?, row[1].as_str()?)
        })
    }

    fn write_node(&mut self, n: &Node) -> Result<()> {
        self.srv.execute(
            &format!("DELETE FROM {} WHERE nodeid = ?", self.table),
            &[Value::Integer(n.id)],
        )?;
        self.srv.execute(
            &format!("INSERT INTO {} VALUES (?, ?)", self.table),
            &[Value::Integer(n.id), Value::from(encode_node(n))],
        )?;
        Ok(())
    }

    /// All rowids whose MBR intersects `query`.
    pub fn search(&mut self, query: &Mbr) -> Result<Vec<RowId>> {
        Ok(self.search_all(std::slice::from_ref(query))?.pop().unwrap_or_default())
    }

    /// For each of `windows`, the rowids whose MBR intersects it. One
    /// traversal with the window set, a tree level at a time:
    /// each node is read and decoded once, and descends with the windows
    /// its entry intersects.
    pub fn search_all(&mut self, windows: &[Mbr]) -> Result<Vec<Vec<RowId>>> {
        let (root, _) = self.read_meta()?;
        let mut out = vec![Vec::new(); windows.len()];
        let mut level = vec![(root, (0..windows.len()).collect::<Vec<_>>())];
        while !level.is_empty() {
            level.sort_unstable_by_key(|&(id, _)| id);
            let ids: Vec<i64> = level.iter().map(|&(id, _)| id).collect();
            let nodes = self.read_nodes(&ids)?;
            let mut next = Vec::new();
            for (node, (_, live)) in nodes.iter().zip(&level) {
                for (mbr, payload) in &node.entries {
                    let hits: Vec<usize> =
                        live.iter().copied().filter(|&w| mbr.intersects(&windows[w])).collect();
                    if hits.is_empty() {
                        continue;
                    }
                    if node.leaf {
                        hits.into_iter().for_each(|w| out[w].push(RowId::from_u64(*payload)));
                    } else {
                        next.push((*payload as i64, hits));
                    }
                }
            }
            level = next;
        }
        Ok(out)
    }

    /// The nodes `ids` (sorted, distinct) names, in that order: one
    /// `nodeid` range read per run of ids at most [`READ_GAP`] apart.
    fn read_nodes(&mut self, ids: &[i64]) -> Result<Vec<Node>> {
        let mut nodes = Vec::with_capacity(ids.len());
        let mut rest = ids;
        while let [lo, ..] = *rest {
            let run = 1 + rest.windows(2).take_while(|w| w[1] - w[0] <= READ_GAP).count();
            let (wanted, hi) = (&rest[..run], rest[run - 1]);
            // Rows arrive in id order: each is the next wanted id or
            // unwanted, and a wanted id passed over is missing.
            let mut next = 0;
            self.read_payloads(lo, hi, &mut |id, s| {
                match wanted.get(next) {
                    Some(&w) if w == id => {
                        nodes.push(decode_node(id, s)?);
                        next += 1;
                    }
                    Some(&w) if w < id => {
                        return Err(Error::Storage(format!("rtree node {w} missing")));
                    }
                    _ => {}
                }
                Ok(())
            })?;
            if next < run {
                return Err(Error::Storage(format!("rtree node {} missing", wanted[next])));
            }
            rest = &rest[run..];
        }
        Ok(nodes)
    }
    /// Insert an entry.
    pub fn insert(&mut self, rid: RowId, mbr: Mbr) -> Result<()> {
        let (root, mut next) = self.read_meta()?;
        // Descend by least enlargement, remembering the path.
        let mut path: Vec<i64> = Vec::new();
        let mut current = root;
        loop {
            let node = self.read_node(current)?;
            if node.leaf {
                break;
            }
            path.push(current);
            let (best, _) = node
                .entries
                .iter()
                .min_by(|(ma, _), (mb, _)| {
                    enlargement(ma, &mbr)
                        .partial_cmp(&enlargement(mb, &mbr))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(
                            area(ma)
                                .partial_cmp(&area(mb))
                                .unwrap_or(std::cmp::Ordering::Equal),
                        )
                })
                .map(|(m, p)| (*p as i64, *m))
                .ok_or_else(|| Error::Storage("internal rtree node with no entries".into()))?;
            current = best;
        }
        let mut leaf = self.read_node(current)?;
        leaf.entries.push((mbr, rid.to_u64()));

        // Split upward as needed.
        let mut maybe_split: Option<(i64, Mbr, Mbr)> = None; // (new node id, left mbr, right mbr)
        let mut child_id = leaf.id;
        if leaf.entries.len() > MAX_ENTRIES {
            let (left_entries, right_entries) = quadratic_split(std::mem::take(&mut leaf.entries));
            let new_id = next;
            next += 1;
            let right = Node { id: new_id, leaf: true, entries: right_entries };
            leaf.entries = left_entries;
            self.write_node(&right)?;
            self.write_node(&leaf)?;
            maybe_split = Some((new_id, leaf.mbr(), right.mbr()));
        } else {
            self.write_node(&leaf)?;
        }

        // Propagate MBR growth / splits towards the root.
        for &parent_id in path.iter().rev() {
            let mut parent = self.read_node(parent_id)?;
            // Refresh the child's MBR.
            let child = self.read_node(child_id)?;
            let child_mbr = child.mbr();
            for e in parent.entries.iter_mut() {
                if e.1 as i64 == child_id {
                    e.0 = child_mbr;
                }
            }
            if let Some((new_id, _left_mbr, right_mbr)) = maybe_split.take() {
                parent.entries.push((right_mbr, new_id as u64));
            }
            if parent.entries.len() > MAX_ENTRIES {
                let (left_entries, right_entries) =
                    quadratic_split(std::mem::take(&mut parent.entries));
                let new_id = next;
                next += 1;
                let right = Node { id: new_id, leaf: false, entries: right_entries };
                parent.entries = left_entries;
                self.write_node(&right)?;
                self.write_node(&parent)?;
                maybe_split = Some((new_id, parent.mbr(), right.mbr()));
            } else {
                self.write_node(&parent)?;
            }
            child_id = parent_id;
        }

        // Root split: grow the tree by one level.
        if let Some((new_id, left_mbr, right_mbr)) = maybe_split {
            let old_root = child_id;
            let new_root_id = next;
            next += 1;
            let new_root = Node {
                id: new_root_id,
                leaf: false,
                entries: vec![(left_mbr, old_root as u64), (right_mbr, new_id as u64)],
            };
            self.write_node(&new_root)?;
            self.write_meta(new_root_id, next)?;
        } else {
            let (root_now, _) = self.read_meta()?;
            self.write_meta(root_now, next)?;
        }
        Ok(())
    }

    /// Remove the entry for `rid` (searching within `mbr`). Ancestor MBRs
    /// are not condensed — correct, if occasionally loose.
    pub fn delete(&mut self, rid: RowId, mbr: Mbr) -> Result<bool> {
        let (root, _) = self.read_meta()?;
        let target = rid.to_u64();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let mut node = self.read_node(id)?;
            if node.leaf {
                let before = node.entries.len();
                node.entries.retain(|(_, p)| *p != target);
                if node.entries.len() != before {
                    self.write_node(&node)?;
                    return Ok(true);
                }
            } else {
                for (m, p) in &node.entries {
                    if m.intersects(&mbr) {
                        stack.push(*p as i64);
                    }
                }
            }
        }
        Ok(false)
    }

    /// Number of levels from root to leaf (diagnostics/tests).
    pub fn height(&mut self) -> Result<usize> {
        let (root, _) = self.read_meta()?;
        let mut h = 1;
        let mut id = root;
        loop {
            let n = self.read_node(id)?;
            if n.leaf {
                return Ok(h);
            }
            id = n.entries.first().map(|(_, p)| *p as i64).unwrap_or(id);
            h += 1;
        }
    }
}

/// One `(bounding box, child-or-rowid)` entry of an R-tree node.
type SplitEntry = (Mbr, u64);

/// Guttman's quadratic split.
fn quadratic_split(entries: Vec<SplitEntry>) -> (Vec<SplitEntry>, Vec<SplitEntry>) {
    debug_assert!(entries.len() >= 2);
    // Pick the pair wasting the most area as seeds.
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let waste =
                area(&union(&entries[i].0, &entries[j].0)) - area(&entries[i].0) - area(&entries[j].0);
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    let min_fill = entries.len().div_ceil(3);
    let mut left = vec![entries[s1]];
    let mut right = vec![entries[s2]];
    let mut left_mbr = entries[s1].0;
    let mut right_mbr = entries[s2].0;
    let rest: Vec<(Mbr, u64)> = entries
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i != s1 && *i != s2)
        .map(|(_, e)| e)
        .collect();
    let total = rest.len() + 2;
    for e in rest {
        // Force-assign to satisfy minimum fill.
        if left.len() + (total - left.len() - right.len()) <= min_fill {
            left_mbr = union(&left_mbr, &e.0);
            left.push(e);
            continue;
        }
        if right.len() + (total - left.len() - right.len()) <= min_fill {
            right_mbr = union(&right_mbr, &e.0);
            right.push(e);
            continue;
        }
        if enlargement(&left_mbr, &e.0) <= enlargement(&right_mbr, &e.0) {
            left_mbr = union(&left_mbr, &e.0);
            left.push(e);
        } else {
            right_mbr = union(&right_mbr, &e.0);
            right.push(e);
        }
    }
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_roundtrip() {
        let n = Node {
            id: 3,
            leaf: true,
            entries: vec![
                (Mbr { xmin: 1.0, ymin: 2.0, xmax: 3.0, ymax: 4.0 }, 42),
                (Mbr { xmin: 0.5, ymin: 0.5, xmax: 1.5, ymax: 1.5 }, 7),
            ],
        };
        assert_eq!(decode_node(3, &encode_node(&n)).unwrap(), n);
        let empty = Node { id: 1, leaf: false, entries: vec![] };
        assert_eq!(decode_node(1, &encode_node(&empty)).unwrap(), empty);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_node(1, "nope").is_err());
        assert!(decode_node(1, "L|x:1,2,3").is_err());
        assert!(decode_node(1, "L|a:1,2,3,4").is_err());
    }

    #[test]
    fn quadratic_split_respects_min_fill() {
        let entries: Vec<(Mbr, u64)> = (0..9)
            .map(|i| {
                let f = i as f64 * 10.0;
                (Mbr { xmin: f, ymin: f, xmax: f + 5.0, ymax: f + 5.0 }, i)
            })
            .collect();
        let (l, r) = quadratic_split(entries);
        assert_eq!(l.len() + r.len(), 9);
        assert!(l.len() >= 3 && r.len() >= 3, "{} / {}", l.len(), r.len());
    }

    #[test]
    fn union_and_enlargement() {
        let a = Mbr { xmin: 0.0, ymin: 0.0, xmax: 1.0, ymax: 1.0 };
        let b = Mbr { xmin: 2.0, ymin: 2.0, xmax: 3.0, ymax: 3.0 };
        let u = union(&a, &b);
        assert_eq!(area(&u), 9.0);
        assert_eq!(enlargement(&a, &b), 8.0);
        assert_eq!(enlargement(&a, &a), 0.0);
    }
}
