//! Property tests for the text cartridge. The central invariant: the
//! functional implementation and the index implementation of `Contains`
//! agree on every document set and every boolean query.

use std::collections::BTreeMap;

use proptest::prelude::*;

use extidx_common::RowId;
use extidx_text::query::{parse_query, Postings, TextQuery};
use extidx_text::tokenizer::{tokenize, StopWords};

/// Random documents over a tiny vocabulary so term overlap is common.
fn arb_doc() -> impl Strategy<Value = String> {
    prop::collection::vec(prop_oneof!["alpha", "beta", "gamma", "delta", "epsilon"], 0..12)
        .prop_map(|words| words.join(" "))
}

/// Random positive-dominant boolean queries over the same vocabulary.
fn arb_query() -> impl Strategy<Value = TextQuery> {
    let term = prop_oneof!["alpha", "beta", "gamma", "delta", "epsilon", "missing"]
        .prop_map(|t: String| TextQuery::Term(t));
    term.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| TextQuery::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| TextQuery::Or(Box::new(a), Box::new(b))),
            // NOT only under an AND with a positive side, like real
            // queries; build `a AND NOT b`.
            (inner.clone(), inner).prop_map(|(a, b)| TextQuery::And(
                Box::new(a),
                Box::new(TextQuery::Not(Box::new(b)))
            )),
        ]
    })
}

/// Build the rid-ordered posting lists the index path would load.
fn postings_of(docs: &[String]) -> BTreeMap<String, Postings> {
    let mut postings: BTreeMap<String, Postings> = BTreeMap::new();
    for (i, d) in docs.iter().enumerate() {
        let rid = RowId::new(1, 0, i as u16);
        for (tok, freq) in tokenize(d, &StopWords::none()) {
            postings.entry(tok).or_default().push((rid, freq));
        }
    }
    postings
}

/// Reference posting evaluator, as the index path evaluated queries before
/// it merged rid-ordered runs: one `rid → score` map per subquery, built
/// bottom-up; `Ok` holds the rows that match, `Err` the rows that must not
/// (a negated subquery), and `None` is a refused query.
fn reference_eval(
    q: &TextQuery,
    postings: &BTreeMap<String, Postings>,
) -> Option<Result<BTreeMap<RowId, u32>, BTreeMap<RowId, u32>>> {
    Some(match q {
        TextQuery::Term(t) => {
            Ok(postings.get(t).map(|l| l.iter().copied().collect()).unwrap_or_default())
        }
        TextQuery::Not(a) => match reference_eval(a, postings)? {
            Ok(m) => Err(m),
            Err(m) => Ok(m),
        },
        TextQuery::And(a, b) => match (reference_eval(a, postings)?, reference_eval(b, postings)?) {
            (Ok(l), Ok(r)) => {
                Ok(l.iter().filter_map(|(rid, f)| r.get(rid).map(|g| (*rid, f + g))).collect())
            }
            (Ok(mut l), Err(r)) | (Err(r), Ok(mut l)) => {
                l.retain(|rid, _| !r.contains_key(rid));
                Ok(l)
            }
            (Err(_), Err(_)) => return None,
        },
        TextQuery::Or(a, b) => match (reference_eval(a, postings)?, reference_eval(b, postings)?) {
            (Ok(mut l), Ok(r)) => {
                for (rid, f) in r {
                    *l.entry(rid).or_insert(0) += f;
                }
                Ok(l)
            }
            _ => return None,
        },
    })
}

proptest! {
    /// The merge of rid-ordered runs returns exactly the reference
    /// evaluator's rows and scores, in rid order, and refuses exactly the
    /// queries it cannot answer. Each case checks eight queries in three
    /// shapes each: as drawn, NOT on the left of an AND, and an OR with a
    /// NOT side.
    #[test]
    fn runs_equal_the_map_evaluator(
        docs in prop::collection::vec(arb_doc(), 0..20),
        queries in prop::collection::vec(arb_query(), 8..9),
    ) {
        let postings = postings_of(&docs);
        let not = |q: &TextQuery| Box::new(TextQuery::Not(Box::new(q.clone())));
        for q in &queries {
            for q in [
                q.clone(),
                TextQuery::And(not(q), Box::new(TextQuery::Term("alpha".into()))),
                TextQuery::Or(Box::new(q.clone()), not(q)),
            ] {
                let expect: Option<Vec<(RowId, u32)>> = match reference_eval(&q, &postings) {
                    Some(Ok(m)) => Some(m.into_iter().collect()),
                    _ => None,
                };
                prop_assert_eq!(q.evaluate_postings(postings.clone()).ok(), expect);
            }
        }
    }

    /// Functional (per-document) evaluation and posting-list evaluation
    /// return exactly the same document set.
    #[test]
    fn functional_equals_posting_evaluation(
        docs in prop::collection::vec(arb_doc(), 0..20),
        q in arb_query(),
    ) {
        let postings = postings_of(&docs);
        // Only test queries the index path accepts (positive top level).
        if let Ok(index_result) = q.evaluate_postings(postings) {
            let functional: Vec<usize> = docs
                .iter()
                .enumerate()
                .filter(|(_, d)| q.matches(&tokenize(d, &StopWords::none())))
                .map(|(i, _)| i)
                .collect();
            let indexed: Vec<usize> =
                index_result.iter().map(|(rid, _)| rid.slot as usize).collect();
            prop_assert_eq!(functional, indexed);
        }
    }

    /// The functional path's one pass over a document's words agrees
    /// with evaluating the query over the tokenizer's counts, whatever the
    /// case and the punctuation (an empty separator fuses two words into
    /// one token that matches neither).
    #[test]
    fn one_pass_over_the_words_equals_the_token_map(
        words in prop::collection::vec(
            (
                prop_oneof!["alpha", "Beta", "GAMMA", "dElta", "epsilonx"],
                prop_oneof![" ", ", ", "-", "!? ", ""],
            ),
            0..12,
        ),
        q in arb_query(),
    ) {
        let doc: String = words.iter().map(|(w, sep)| format!("{w}{sep}")).collect();
        prop_assert_eq!(q.matches_text(&doc), q.matches(&tokenize(&doc, &StopWords::none())));
    }

    /// Scores are positive exactly for matched documents that contain a
    /// positive query term.
    #[test]
    fn scores_are_positive_for_matches(
        docs in prop::collection::vec(arb_doc(), 1..15),
        q in arb_query(),
    ) {
        let postings = postings_of(&docs);
        if let Ok(result) = q.evaluate_postings(postings) {
            for (rid, score) in &result {
                let doc = &docs[rid.slot as usize];
                prop_assert!(q.matches(&tokenize(doc, &StopWords::none())));
                // A matched doc may still score 0 only if matched purely
                // through NOT; scores never go negative (u32) and a
                // single-term match always scores >= its frequency ≥ 1.
                if let TextQuery::Term(_) = q {
                    prop_assert!(*score >= 1);
                }
            }
        }
    }

    /// The query parser round-trips through a rendering of itself.
    #[test]
    fn parser_handles_rendered_queries(q in arb_query()) {
        fn render(q: &TextQuery) -> String {
            match q {
                TextQuery::Term(t) => t.clone(),
                TextQuery::And(a, b) => format!("({} AND {})", render(a), render(b)),
                TextQuery::Or(a, b) => format!("({} OR {})", render(a), render(b)),
                TextQuery::Not(a) => format!("NOT {}", render(a)),
            }
        }
        let text = render(&q);
        let reparsed = parse_query(&text).expect("rendered query parses");
        prop_assert_eq!(reparsed, q);
    }

    /// Tokenization is idempotent under stop-word filtering and never
    /// yields stop words or empty tokens.
    #[test]
    fn tokenizer_respects_stop_words(
        text in "[a-zA-Z ,.!]{0,60}",
        stops in prop::collection::vec("[a-z]{1,6}", 0..4),
    ) {
        let stop = StopWords::from_words(stops.iter());
        let tokens = tokenize(&text, &stop);
        for t in tokens.keys() {
            prop_assert!(!t.is_empty());
            prop_assert_eq!(t.to_ascii_lowercase(), t.clone());
            prop_assert!(!stop.contains(t), "stop word {t:?} leaked through");
        }
    }
}
