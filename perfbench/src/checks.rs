//! Output checks against the repository's oracles, and result digests.
//!
//! Every check runs outside the timed window. A ranked list is compared
//! as (id, score bits) pairs, so a reordering, a dropped or added
//! document, or a score that moved by one ulp all fail.

use std::collections::HashMap;

use starts_meta::merge::MergedDoc;
use starts_proto::QueryResults;

/// One ranked entry: document id and the bits of its score.
pub type Ranked = (String, u64);

/// A merged list as ranked entries.
pub fn ranked_merged(docs: &[MergedDoc]) -> Vec<Ranked> {
    docs.iter()
        .map(|d| (d.linkage.clone(), d.score.to_bits()))
        .collect()
}

/// A source's answer as ranked entries (unscored documents get the bits
/// of NaN, which no score can equal by accident).
pub fn ranked_results(results: &QueryResults) -> Vec<Ranked> {
    results
        .documents
        .iter()
        .map(|d| {
            (
                d.linkage().unwrap_or_default().to_string(),
                d.raw_score.unwrap_or(f64::NAN).to_bits(),
            )
        })
        .collect()
}

/// FNV-1a over a ranked list.
pub fn digest(ranked: &[Ranked]) -> u64 {
    let mut h = Fnv::default();
    for (id, bits) in ranked {
        h.write(id.as_bytes());
        h.write(&[0xff]);
        h.write(&bits.to_le_bytes());
    }
    h.0
}

/// Fold digests in order into one run digest.
pub fn fold(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::default();
    for d in digests {
        h.write(&d.to_le_bytes());
    }
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `federated`: the bounded merge must equal the first `k` documents of
/// the full-sort `Merger::merge` over the same per-source inputs.
pub fn merge_matches_full_sort(merged: &[MergedDoc], full_sort: &[MergedDoc], k: usize) -> bool {
    ranked_merged(merged) == ranked_merged(&full_sort[..full_sort.len().min(k)])
}

/// `source-large`: the wire answer must equal the unbounded engine
/// search truncated to `k` (ids and score bits).
pub fn topk_matches_oracle(wire: &[Ranked], unbounded: &[Ranked], k: usize) -> bool {
    wire == &unbounded[..unbounded.len().min(k)]
}

/// Every response recorded in a window, as (pool index, digest), must
/// carry the reference digest of its query. Returns the mismatches.
pub fn responses_mismatching(observed: &[(usize, u64)], expected: &HashMap<usize, u64>) -> usize {
    observed
        .iter()
        .filter(|(q, d)| expected.get(q) != Some(d))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use starts_proto::ResultDocument;

    fn doc(id: &str, score: f64) -> MergedDoc {
        MergedDoc {
            linkage: id.to_string(),
            title: None,
            score,
            sources: vec!["S".to_string()],
        }
    }

    #[test]
    fn merge_check_rejects_swapped_ranks_and_dropped_docs() {
        let full = vec![doc("a", 0.9), doc("b", 0.8), doc("c", 0.7), doc("d", 0.1)];
        let good = full[..3].to_vec();
        assert!(merge_matches_full_sort(&good, &full, 3));
        let swapped = vec![full[1].clone(), full[0].clone(), full[2].clone()];
        assert!(!merge_matches_full_sort(&swapped, &full, 3));
        let dropped = vec![full[0].clone(), full[2].clone()];
        assert!(!merge_matches_full_sort(&dropped, &full, 3));
        let mut nudged = good.clone();
        nudged[2].score = f64::from_bits(nudged[2].score.to_bits() + 1);
        assert!(!merge_matches_full_sort(&nudged, &full, 3));
    }

    #[test]
    fn topk_check_rejects_a_dropped_doc_and_swapped_ranks() {
        let oracle: Vec<Ranked> = ["x", "y", "z", "w"]
            .iter()
            .enumerate()
            .map(|(i, id)| (id.to_string(), (4.0 - i as f64).to_bits()))
            .collect();
        assert!(topk_matches_oracle(&oracle[..2], &oracle, 2));
        assert!(!topk_matches_oracle(&oracle[..1], &oracle, 2));
        let swapped = vec![oracle[1].clone(), oracle[0].clone()];
        assert!(!topk_matches_oracle(&swapped, &oracle, 2));
        // Fewer hits than k: the whole oracle list is the expectation.
        assert!(topk_matches_oracle(&oracle, &oracle, 10));
    }

    #[test]
    fn response_check_counts_a_stale_cached_response() {
        let fresh = digest(&ranked_merged(&[doc("a", 0.9), doc("b", 0.5)]));
        // What a cache would still hold after the source changed.
        let stale = digest(&ranked_merged(&[doc("a", 0.9), doc("old", 0.6)]));
        let expected = HashMap::from([(0, fresh), (1, 42)]);
        assert_eq!(responses_mismatching(&[(0, fresh), (1, 42)], &expected), 0);
        assert_eq!(
            responses_mismatching(&[(0, fresh), (0, stale), (1, 42)], &expected),
            1
        );
        // A response for a query with no reference is a failure too.
        assert_eq!(responses_mismatching(&[(2, fresh)], &expected), 1);
    }

    #[test]
    fn digests_see_order_ids_and_score_bits() {
        let a = vec![("a".to_string(), 1u64), ("b".to_string(), 2)];
        let b = vec![("b".to_string(), 2u64), ("a".to_string(), 1)];
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(fold([1, 2]), fold([2, 1]));
        let results = QueryResults {
            documents: vec![ResultDocument {
                raw_score: Some(0.25),
                sources: vec!["S".to_string()],
                fields: vec![(starts_proto::Field::Linkage, "http://d/1".to_string())],
                term_stats: Vec::new(),
                doc_size_kb: 1,
                doc_count: 10,
            }],
            ..QueryResults::default()
        };
        assert_eq!(
            ranked_results(&results),
            vec![("http://d/1".to_string(), 0.25f64.to_bits())]
        );
    }
}
