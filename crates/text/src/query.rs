//! The `Contains` keyword-query language.
//!
//! Grammar (case-insensitive, mirroring the paper's `'Oracle AND UNIX'`
//! example):
//!
//! ```text
//! expr   := term (OR term)*
//! term   := factor (AND factor)*
//! factor := NOT factor | '(' expr ')' | WORD
//! ```
//!
//! A parsed [`TextQuery`] can be evaluated two ways: against one
//! document's token set (the functional implementation) or over posting
//! lists from the inverted index (the index implementation). `NOT` is
//! only meaningful when ANDed with a positive side — a bare `NOT x` would
//! require enumerating all documents, which the index evaluation rejects
//! (the functional fallback still handles it row-by-row).

use std::collections::BTreeMap;

use extidx_common::{Error, Result, RowId};

use crate::tokenizer::normalize_term;

/// A parsed boolean keyword query.
#[derive(Debug, Clone, PartialEq)]
pub enum TextQuery {
    Term(String),
    And(Box<TextQuery>, Box<TextQuery>),
    Or(Box<TextQuery>, Box<TextQuery>),
    Not(Box<TextQuery>),
}

impl TextQuery {
    /// All positive terms in the query (what the index must look up).
    pub fn terms(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_terms(&mut out);
        out
    }

    fn collect_terms(&self, out: &mut Vec<String>) {
        match self {
            TextQuery::Term(t) => out.push(t.clone()),
            TextQuery::And(a, b) | TextQuery::Or(a, b) => {
                a.collect_terms(out);
                b.collect_terms(out);
            }
            TextQuery::Not(a) => a.collect_terms(out),
        }
    }

    /// Evaluate against one document's token counts.
    pub fn matches(&self, tokens: &BTreeMap<String, u32>) -> bool {
        self.holds(&|t| tokens.contains_key(t))
    }

    /// Evaluate against one document's text (the functional path): one
    /// pass over its words, split and case-folded as
    /// [`crate::tokenizer::tokenize`] does, notes which query terms occur
    /// — no token map and no string per word. Equal to [`Self::matches`]
    /// over the document's tokens with no stop words.
    pub fn matches_text(&self, text: &str) -> bool {
        let terms = self.terms();
        let mut seen = vec![false; terms.len()];
        for word in text.split(|c: char| !c.is_ascii_alphanumeric()).filter(|w| !w.is_empty()) {
            for (term, seen) in terms.iter().zip(&mut seen) {
                *seen |= word.eq_ignore_ascii_case(term);
            }
        }
        self.holds(&|t| terms.iter().zip(&seen).any(|(term, &seen)| seen && term == t))
    }

    /// Whether the query holds when `has` says which terms occur.
    fn holds(&self, has: &dyn Fn(&str) -> bool) -> bool {
        match self {
            TextQuery::Term(t) => has(t),
            TextQuery::And(a, b) => a.holds(has) && b.holds(has),
            TextQuery::Or(a, b) => a.holds(has) || b.holds(has),
            TextQuery::Not(a) => !a.holds(has),
        }
    }

    /// Evaluate over posting lists (index path): each term maps to its
    /// rid-ordered posting list. Returns the matching rowids in rid order,
    /// each with an aggregate score (sum of matched-term frequencies).
    ///
    /// `NOT` subtrees subtract from their AND sibling; a query whose top
    /// level is effectively negative is rejected.
    pub fn evaluate_postings(&self, postings: BTreeMap<String, Postings>) -> Result<Postings> {
        Ok(self.merge(postings)?.collect())
    }

    /// Compile the query over its terms' posting lists (a term without a
    /// list has no postings) into one linear merge of rid-ordered runs:
    /// AND an intersection, OR a union, AND NOT a difference, frequencies
    /// summed. The merge yields `(rid, score)` in rid order, on demand.
    pub fn merge(&self, postings: BTreeMap<String, Postings>) -> Result<RunMerge> {
        let (names, lists): (Vec<String>, Vec<Postings>) = postings.into_iter().unzip();
        let (positive, mut root) = self.compile(&names)?;
        if !positive {
            return Err(Error::Semantic(
                "a Contains query cannot be purely negative (NOT without a positive side)".into(),
            ));
        }
        root.start(&lists);
        Ok(RunMerge { lists, root })
    }

    /// The merge tree of this subquery over the lists of the sorted term
    /// `names`, and whether it is positive (the rows that match) or
    /// negative (the rows that must not match).
    fn compile(&self, names: &[String]) -> Result<(bool, Node)> {
        let node = |merge| Node { cur: None, merge };
        Ok(match self {
            TextQuery::Term(t) => {
                (true, node(Merge::Run { list: names.binary_search(t).ok(), pos: 0 }))
            }
            TextQuery::Not(a) => {
                let (positive, n) = a.compile(names)?;
                (!positive, n)
            }
            TextQuery::And(a, b) => match (a.compile(names)?, b.compile(names)?) {
                ((true, l), (true, r)) => (true, node(Merge::And(Box::new(l), Box::new(r)))),
                ((true, l), (false, r)) | ((false, r), (true, l)) => {
                    (true, node(Merge::AndNot(Box::new(l), Box::new(r))))
                }
                ((false, _), (false, _)) => {
                    return Err(Error::Semantic(
                        "AND of two NOT subqueries is purely negative".into(),
                    ))
                }
            },
            TextQuery::Or(a, b) => match (a.compile(names)?, b.compile(names)?) {
                ((true, l), (true, r)) => (true, node(Merge::Or(Box::new(l), Box::new(r)))),
                _ => {
                    return Err(Error::Semantic(
                        "OR with a NOT subquery is purely negative on one side".into(),
                    ))
                }
            },
        })
    }
}

/// A term's posting list: `(rid, term frequency)` in ascending rid order,
/// the order the `(token, rid)` index table returns a token's rows in.
pub type Postings = Vec<(RowId, u32)>;

/// A query merged over its posting lists ([`TextQuery::merge`]): an
/// iterator of matching `(rid, score)` in rid order. Each step advances
/// the runs only as far as the next match, so a scan that stops early
/// leaves the rest of the lists unread.
pub struct RunMerge {
    lists: Vec<Postings>,
    root: Node,
}

impl RunMerge {
    /// Whether no match is left.
    pub fn is_done(&self) -> bool {
        self.root.cur.is_none()
    }
}

impl Iterator for RunMerge {
    type Item = (RowId, u32);

    fn next(&mut self) -> Option<(RowId, u32)> {
        let cur = self.root.cur?;
        self.root.advance(&self.lists);
        Some(cur)
    }
}

/// One step of the merge and its current `(rid, score)`, `None` once
/// exhausted. A node's children always sit on their own current rows.
struct Node {
    cur: Option<(RowId, u32)>,
    merge: Merge,
}

enum Merge {
    /// A cursor into one posting list; `None` for a term with no list.
    Run { list: Option<usize>, pos: usize },
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    AndNot(Box<Node>, Box<Node>),
}

fn rid_of(row: Option<(RowId, u32)>) -> Option<RowId> {
    row.map(|(rid, _)| rid)
}

impl Node {
    /// Put every node of the tree on its first row, children first.
    fn start(&mut self, lists: &[Postings]) {
        if let Merge::And(a, b) | Merge::Or(a, b) | Merge::AndNot(a, b) = &mut self.merge {
            a.start(lists);
            b.start(lists);
        }
        self.settle(lists);
    }

    /// Move past the current row.
    fn advance(&mut self, lists: &[Postings]) {
        let at = rid_of(self.cur);
        match &mut self.merge {
            Merge::Run { pos, .. } => *pos += 1,
            Merge::And(a, b) => {
                a.advance(lists);
                b.advance(lists);
            }
            Merge::Or(a, b) => {
                for side in [a, b] {
                    if rid_of(side.cur) == at {
                        side.advance(lists);
                    }
                }
            }
            Merge::AndNot(a, _) => a.advance(lists),
        }
        self.settle(lists);
    }

    /// Advance the children to this node's next row, and set `cur` to it.
    fn settle(&mut self, lists: &[Postings]) {
        self.cur = match &mut self.merge {
            Merge::Run { list, pos } => list.and_then(|l| lists[l].get(*pos).copied()),
            Merge::And(a, b) => loop {
                match (a.cur, b.cur) {
                    (Some((x, f)), Some((y, g))) if x == y => break Some((x, f + g)),
                    (Some((x, _)), Some((y, _))) if x < y => a.advance(lists),
                    (Some(_), Some(_)) => b.advance(lists),
                    _ => break None,
                }
            },
            Merge::Or(a, b) => match (a.cur, b.cur) {
                (Some((x, f)), Some((y, g))) if x == y => Some((x, f + g)),
                (Some(l), Some(r)) => Some(if l.0 < r.0 { l } else { r }),
                (l, r) => l.or(r),
            },
            Merge::AndNot(a, b) => loop {
                let Some((x, f)) = a.cur else { break None };
                while rid_of(b.cur).is_some_and(|y| y < x) {
                    b.advance(lists);
                }
                if rid_of(b.cur) == Some(x) {
                    a.advance(lists);
                } else {
                    break Some((x, f));
                }
            },
        };
    }
}

/// Parse a keyword query string.
pub fn parse_query(input: &str) -> Result<TextQuery> {
    let tokens: Vec<String> = lex(input);
    let mut p = QParser { tokens, pos: 0 };
    let q = p.expr()?;
    if p.pos != p.tokens.len() {
        return Err(Error::Parse(format!("unexpected token in text query: {}", p.tokens[p.pos])));
    }
    Ok(q)
}

fn lex(input: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in input.chars() {
        match c {
            '(' | ')' => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
                out.push(c.to_string());
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

struct QParser {
    tokens: Vec<String>,
    pos: usize,
}

impl QParser {
    fn peek(&self) -> Option<&str> {
        self.tokens.get(self.pos).map(|s| s.as_str())
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.eq_ignore_ascii_case(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expr(&mut self) -> Result<TextQuery> {
        let mut lhs = self.term()?;
        while self.eat_kw("OR") {
            let rhs = self.term()?;
            lhs = TextQuery::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<TextQuery> {
        let mut lhs = self.factor()?;
        loop {
            if self.eat_kw("AND") {
                let rhs = self.factor()?;
                lhs = TextQuery::And(Box::new(lhs), Box::new(rhs));
            } else {
                // Implicit AND between adjacent words ("oracle unix").
                match self.peek() {
                    Some(t)
                        if !t.eq_ignore_ascii_case("OR")
                            && !t.eq_ignore_ascii_case("AND")
                            && t != ")" =>
                    {
                        let rhs = self.factor()?;
                        lhs = TextQuery::And(Box::new(lhs), Box::new(rhs));
                    }
                    _ => break,
                }
            }
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<TextQuery> {
        if self.eat_kw("NOT") {
            return Ok(TextQuery::Not(Box::new(self.factor()?)));
        }
        match self.peek() {
            Some("(") => {
                self.pos += 1;
                let inner = self.expr()?;
                if self.peek() != Some(")") {
                    return Err(Error::Parse("expected ) in text query".into()));
                }
                self.pos += 1;
                Ok(inner)
            }
            Some(word) if word != ")" => {
                let term = normalize_term(word);
                self.pos += 1;
                Ok(TextQuery::Term(term))
            }
            other => Err(Error::Parse(format!("unexpected end of text query: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::{tokenize, StopWords};

    fn doc(text: &str) -> BTreeMap<String, u32> {
        tokenize(text, &StopWords::none())
    }

    #[test]
    fn parses_the_papers_query() {
        let q = parse_query("Oracle AND UNIX").unwrap();
        assert_eq!(
            q,
            TextQuery::And(
                Box::new(TextQuery::Term("oracle".into())),
                Box::new(TextQuery::Term("unix".into()))
            )
        );
    }

    #[test]
    fn matches_documents() {
        let q = parse_query("Oracle AND UNIX").unwrap();
        assert!(q.matches(&doc("worked with Oracle on UNIX systems")));
        assert!(!q.matches(&doc("worked with Oracle on Windows")));
    }

    #[test]
    fn or_and_parens_and_not() {
        let q = parse_query("(java OR cobol) AND NOT basic").unwrap();
        assert!(q.matches(&doc("expert java developer")));
        assert!(!q.matches(&doc("java and basic")));
        assert!(q.matches(&doc("cobol mainframe")));
        assert!(!q.matches(&doc("nothing relevant")));
    }

    #[test]
    fn implicit_and_between_words() {
        let q = parse_query("oracle unix").unwrap();
        assert!(q.matches(&doc("unix oracle")));
        assert!(!q.matches(&doc("only oracle")));
    }

    #[test]
    fn posting_evaluation_and() {
        let mut postings: BTreeMap<String, Postings> = BTreeMap::new();
        let r1 = RowId::new(1, 0, 0);
        let r2 = RowId::new(1, 0, 1);
        postings.insert("oracle".into(), vec![(r1, 2), (r2, 1)]);
        postings.insert("unix".into(), vec![(r1, 1)]);
        let q = parse_query("oracle AND unix").unwrap();
        let out = q.evaluate_postings(postings).unwrap();
        assert_eq!(out, vec![(r1, 3)]); // summed frequencies as score
    }

    #[test]
    fn posting_evaluation_or_scores_sum() {
        let mut postings: BTreeMap<String, Postings> = BTreeMap::new();
        let (r1, r2, r3) = (RowId::new(1, 0, 0), RowId::new(1, 0, 1), RowId::new(1, 0, 2));
        postings.insert("a".into(), vec![(r1, 2), (r3, 1)]);
        postings.insert("b".into(), vec![(r1, 3), (r2, 4)]);
        let q = parse_query("a OR b").unwrap();
        let out = q.evaluate_postings(postings).unwrap();
        assert_eq!(out, vec![(r1, 5), (r2, 4), (r3, 1)]);
    }

    #[test]
    fn posting_evaluation_and_not() {
        let mut postings: BTreeMap<String, Postings> = BTreeMap::new();
        let r1 = RowId::new(1, 0, 0);
        let r2 = RowId::new(1, 0, 1);
        postings.insert("oracle".into(), vec![(r1, 1), (r2, 1)]);
        postings.insert("cobol".into(), vec![(r2, 1)]);
        let q = parse_query("oracle AND NOT cobol").unwrap();
        let out = q.evaluate_postings(postings.clone()).unwrap();
        assert_eq!(out, vec![(r1, 1)]);
        // NOT first, and a doubly negated term is positive again.
        let q = parse_query("NOT cobol AND oracle").unwrap();
        assert_eq!(q.evaluate_postings(postings.clone()).unwrap(), vec![(r1, 1)]);
        let q = parse_query("NOT NOT cobol").unwrap();
        assert_eq!(q.evaluate_postings(postings).unwrap(), vec![(r2, 1)]);
    }

    #[test]
    fn purely_negative_rejected_on_index_path() {
        let q = parse_query("NOT oracle").unwrap();
        assert!(q.evaluate_postings(BTreeMap::new()).is_err());
        assert!(parse_query("a OR NOT b").unwrap().merge(BTreeMap::new()).is_err());
        assert!(parse_query("NOT a AND NOT b").unwrap().merge(BTreeMap::new()).is_err());
        // …but the functional path handles it.
        assert!(q.matches(&doc("plain document")));
    }

    #[test]
    fn missing_term_is_empty_posting() {
        let q = parse_query("absent").unwrap();
        assert!(q.evaluate_postings(BTreeMap::new()).unwrap().is_empty());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_query("").is_err());
        assert!(parse_query("(oracle").is_err());
        assert!(parse_query("oracle )").is_err());
    }

    #[test]
    fn terms_lists_positive_terms() {
        let q = parse_query("(a OR b) AND NOT c").unwrap();
        let mut t = q.terms();
        t.sort();
        assert_eq!(t, vec!["a", "b", "c"]);
    }
}
