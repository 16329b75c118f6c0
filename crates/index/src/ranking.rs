//! Pluggable — deliberately heterogeneous — ranking algorithms.
//!
//! §3.2: "the ranking algorithms are usually proprietary to the search
//! engine vendors, and their details are not publicly available … source
//! S1 might report that document d1 has a score of 0.3 for some query,
//! while source S2 might report that document d2 has a score of 1,000 for
//! the same query." STARTS copes by making sources export a
//! `RankingAlgorithmID` and a `ScoreRange` (§4.3.1) plus per-term
//! statistics with every result (§4.2).
//!
//! We implement four algorithms with *incompatible score scales* so the
//! rank-merging problem manifests exactly as described:
//!
//! | id         | family               | score range |
//! |------------|----------------------|-------------|
//! | `Acme-1`   | tf–idf cosine        | `\[0, 1\]`    |
//! | `Vendor-K` | tf–idf, top hit wins | `\[0, 1000\]` (max-normalized) |
//! | `Okapi-1`  | BM25                 | `[0, +inf)` |
//! | `Plain-1`  | raw term frequency   | `[0, +inf)` |

use crate::doc::DocId;

/// The `ScoreRange` metadata attribute: "the minimum and maximum score
/// that a document can get for a query at the source (including -inf and
/// +inf)".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreRange {
    /// Minimum possible score.
    pub min: f64,
    /// Maximum possible score (`f64::INFINITY` for unbounded engines).
    pub max: f64,
}

impl ScoreRange {
    /// `\[0, 1\]`.
    pub fn unit() -> Self {
        ScoreRange { min: 0.0, max: 1.0 }
    }

    /// Whether the range is bounded on both sides.
    pub fn is_bounded(&self) -> bool {
        self.min.is_finite() && self.max.is_finite()
    }
}

/// Statistics available when weighting one term in one document.
#[derive(Debug, Clone, Copy)]
pub struct TermDocStats {
    /// Term frequency in the document (occurrences).
    pub tf: u32,
    /// Document frequency of the term in the collection.
    pub df: u32,
    /// Number of documents in the collection.
    pub n_docs: u32,
    /// Tokens in this document.
    pub doc_tokens: u32,
    /// Mean tokens per document.
    pub avg_tokens: f64,
    /// Precomputed document norm under this algorithm (1.0 if unused).
    pub doc_norm: f64,
}

/// A term weighter with every per-(term, collection) constant already
/// folded — the hot loops' replacement for repeated
/// [`RankingAlgorithm::term_weight`] calls, which pay the idf
/// logarithm and a virtual dispatch on every document. Constructed
/// once per query leaf via [`RankingAlgorithm::prepare`]; for the same
/// statistics, [`PreparedWeight::weight`] returns *bit-identical*
/// results to `term_weight` — the folded constants are computed by the
/// same expressions, and the residual arithmetic keeps the exact
/// operation order (enforced by the pruned-equals-naive property
/// suites, which score the pruned path through prepared weights and
/// the naive path through `term_weight`).
#[derive(Debug, Clone, Copy)]
pub enum PreparedWeight {
    /// The tf–idf cosine family (`Acme-1`, `Vendor-K`): `idf` is
    /// `ln(1 + N/df)`; the per-call work is the tf saturation (skipped
    /// entirely for the overwhelmingly common `tf == 1`, where
    /// `1 + ln 1` is exactly `1.0`) and the cosine norm division.
    TfIdf {
        /// `ln(1 + N/df)`.
        idf: f64,
    },
    /// BM25 (`Okapi-1`): Robertson idf plus the document-length
    /// normalization constants.
    Bm25 {
        /// `ln((N - df + 0.5) / (df + 0.5) + 1)`.
        idf: f64,
        /// Term-frequency saturation `k1`.
        k1: f64,
        /// Length normalization `b`.
        b: f64,
        /// `k1 + 1`, folded.
        k1p1: f64,
        /// Mean tokens per document (1.0 when the collection reports
        /// none — the same fallback `term_weight` applies per call).
        avg: f64,
    },
    /// Raw term frequency (`Plain-1`).
    RawTf,
    /// Degenerate statistics (`df == 0` or `N == 0`): always zero.
    Zero,
}

/// `1 + ln tf` for every small term frequency, filled once by the
/// exact expression the fallback below evaluates — so indexing the
/// table is bit-identical to computing inline, it just skips the
/// logarithm call that otherwise dominates hot-loop scoring. Slot 0
/// holds `-inf` and is never read (`tf == 0` returns early).
static TF_PART: std::sync::LazyLock<[f64; 256]> = std::sync::LazyLock::new(|| {
    let mut table = [0.0_f64; 256];
    for (tf, slot) in table.iter_mut().enumerate() {
        *slot = 1.0 + (tf as f64).ln();
    }
    table
});

impl PreparedWeight {
    /// The weight of a term occurring `tf` times in a document of
    /// `doc_tokens` tokens with precomputed norm `doc_norm` —
    /// bit-identical to the `term_weight` call it replaces.
    #[inline]
    pub fn weight(&self, tf: u32, doc_tokens: u32, doc_norm: f64) -> f64 {
        match *self {
            PreparedWeight::Zero => 0.0,
            PreparedWeight::RawTf => f64::from(tf),
            PreparedWeight::TfIdf { idf } => {
                if tf == 0 {
                    return 0.0;
                }
                let tf_part = if tf == 1 {
                    1.0
                } else if let Some(&t) = TF_PART.get(tf as usize) {
                    t
                } else {
                    1.0 + f64::from(tf).ln()
                };
                let w = tf_part * idf;
                if doc_norm > 0.0 {
                    w / doc_norm
                } else {
                    w
                }
            }
            PreparedWeight::Bm25 {
                idf,
                k1,
                b,
                k1p1,
                avg,
            } => {
                if tf == 0 {
                    return 0.0;
                }
                let tf = f64::from(tf);
                let dl = f64::from(doc_tokens);
                let denom = tf + k1 * (1.0 - b + b * dl / avg);
                idf * tf * k1p1 / denom
            }
        }
    }
}

/// A ranking algorithm: the engine's proprietary scoring.
pub trait RankingAlgorithm: Send + Sync {
    /// The `RankingAlgorithmID` exported in source metadata.
    fn id(&self) -> &'static str;

    /// The `ScoreRange` exported in source metadata.
    fn score_range(&self) -> ScoreRange;

    /// The weight of a term in a document — exported as `Term-weight` in
    /// the per-document `TermStats` of query results (§4.2: "the
    /// normalized tf.idf weight … or whatever other weighing of terms in
    /// documents the search engine might use").
    fn term_weight(&self, st: &TermDocStats) -> f64;

    /// Fold this algorithm's per-(term, collection) constants into a
    /// [`PreparedWeight`] whose [`weight`] is bit-identical to
    /// [`term_weight`] for any `(tf, doc_tokens, doc_norm)`. Returns
    /// `None` (the default) when no folded form exists; callers then
    /// keep calling `term_weight`.
    ///
    /// [`weight`]: PreparedWeight::weight
    /// [`term_weight`]: RankingAlgorithm::term_weight
    fn prepare(&self, _df: u32, _n_docs: u32, _avg_tokens: f64) -> Option<PreparedWeight> {
        None
    }

    /// Whether document norms must be precomputed (cosine-style).
    fn needs_doc_norms(&self) -> bool {
        false
    }

    /// Post-process the complete score list (e.g. rescale so the top
    /// document always gets the vendor's signature score).
    fn finalize(&self, _scores: &mut [(DocId, f64)]) {}

    /// Map a final-score threshold (the `min-doc-score` filter, applied
    /// after [`RankingAlgorithm::finalize`]) to a raw-score floor the
    /// bounded evaluators may seed their selection with: raw scores
    /// below the returned floor can never finalize to `min_score` or
    /// more. Algorithms with an identity `finalize` return the
    /// threshold unchanged; algorithms whose `finalize` rescales by a
    /// result-dependent factor must return `None`, disabling the seed.
    fn raw_score_floor(&self, min_score: f64) -> Option<f64> {
        Some(min_score)
    }
}

/// Resolve a `RankingAlgorithmID` to an implementation. Unknown ids — the
/// common case for a metasearcher facing a new vendor — return `None`.
pub fn ranking_by_id(id: &str) -> Option<Box<dyn RankingAlgorithm>> {
    match id {
        "Acme-1" => Some(Box::new(TfIdfCosine)),
        "Vendor-K" => Some(Box::new(VendorScaled)),
        "Okapi-1" => Some(Box::new(Bm25::default())),
        "Plain-1" => Some(Box::new(RawTf)),
        _ => None,
    }
}

/// `Acme-1`: tf–idf with cosine document normalization; scores in \[0,1\].
#[derive(Debug, Clone, Copy, Default)]
pub struct TfIdfCosine;

fn tfidf_raw(st: &TermDocStats) -> f64 {
    if st.tf == 0 || st.df == 0 || st.n_docs == 0 {
        return 0.0;
    }
    let tf = 1.0 + f64::from(st.tf).ln();
    let idf = (1.0 + f64::from(st.n_docs) / f64::from(st.df)).ln();
    tf * idf
}

impl RankingAlgorithm for TfIdfCosine {
    fn id(&self) -> &'static str {
        "Acme-1"
    }
    fn score_range(&self) -> ScoreRange {
        ScoreRange::unit()
    }
    fn term_weight(&self, st: &TermDocStats) -> f64 {
        let w = tfidf_raw(st);
        if st.doc_norm > 0.0 {
            w / st.doc_norm
        } else {
            w
        }
    }
    fn prepare(&self, df: u32, n_docs: u32, _avg_tokens: f64) -> Option<PreparedWeight> {
        if df == 0 || n_docs == 0 {
            return Some(PreparedWeight::Zero);
        }
        let idf = (1.0 + f64::from(n_docs) / f64::from(df)).ln();
        Some(PreparedWeight::TfIdf { idf })
    }
    fn needs_doc_norms(&self) -> bool {
        true
    }
}

/// `Vendor-K`: the §3.2 example engine — "designed so that the top
/// document for a query always has a score of, say, 1,000". Internally
/// tf–idf cosine; finalize rescales the best hit to exactly 1000.
#[derive(Debug, Clone, Copy, Default)]
pub struct VendorScaled;

impl RankingAlgorithm for VendorScaled {
    fn id(&self) -> &'static str {
        "Vendor-K"
    }
    fn score_range(&self) -> ScoreRange {
        ScoreRange {
            min: 0.0,
            max: 1000.0,
        }
    }
    fn term_weight(&self, st: &TermDocStats) -> f64 {
        TfIdfCosine.term_weight(st)
    }
    fn prepare(&self, df: u32, n_docs: u32, avg_tokens: f64) -> Option<PreparedWeight> {
        TfIdfCosine.prepare(df, n_docs, avg_tokens)
    }
    fn needs_doc_norms(&self) -> bool {
        true
    }
    fn finalize(&self, scores: &mut [(DocId, f64)]) {
        let max = scores.iter().map(|(_, s)| *s).fold(0.0_f64, f64::max);
        if max > 0.0 {
            let k = 1000.0 / max;
            for (_, s) in scores.iter_mut() {
                *s *= k;
            }
        }
    }
    fn raw_score_floor(&self, _min_score: f64) -> Option<f64> {
        // `finalize` rescales by 1000 / max(raw), unknown until every
        // raw score is in — no raw floor is sound.
        None
    }
}

/// `Okapi-1`: BM25 with the textbook constants; unbounded scores.
#[derive(Debug, Clone, Copy)]
pub struct Bm25 {
    /// Term-frequency saturation.
    pub k1: f64,
    /// Length normalization.
    pub b: f64,
}

impl Default for Bm25 {
    fn default() -> Self {
        Bm25 { k1: 1.2, b: 0.75 }
    }
}

impl RankingAlgorithm for Bm25 {
    fn id(&self) -> &'static str {
        "Okapi-1"
    }
    fn score_range(&self) -> ScoreRange {
        ScoreRange {
            min: 0.0,
            max: f64::INFINITY,
        }
    }
    fn term_weight(&self, st: &TermDocStats) -> f64 {
        if st.tf == 0 || st.n_docs == 0 {
            return 0.0;
        }
        let n = f64::from(st.n_docs);
        let df = f64::from(st.df);
        let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
        let tf = f64::from(st.tf);
        let dl = f64::from(st.doc_tokens);
        let avg = if st.avg_tokens > 0.0 {
            st.avg_tokens
        } else {
            1.0
        };
        let denom = tf + self.k1 * (1.0 - self.b + self.b * dl / avg);
        idf * tf * (self.k1 + 1.0) / denom
    }
    fn prepare(&self, df: u32, n_docs: u32, avg_tokens: f64) -> Option<PreparedWeight> {
        if n_docs == 0 {
            return Some(PreparedWeight::Zero);
        }
        let n = f64::from(n_docs);
        let dff = f64::from(df);
        Some(PreparedWeight::Bm25 {
            idf: ((n - dff + 0.5) / (dff + 0.5) + 1.0).ln(),
            k1: self.k1,
            b: self.b,
            k1p1: self.k1 + 1.0,
            avg: if avg_tokens > 0.0 { avg_tokens } else { 1.0 },
        })
    }
}

/// `Plain-1`: the crudest engine — score is the raw occurrence count.
/// This is also exactly the re-ranking formula the paper's Example 9
/// metasearcher applies ("compute a new score for each document based on
/// … the number of times that the words in the ranking expression appear
/// in the documents").
#[derive(Debug, Clone, Copy, Default)]
pub struct RawTf;

impl RankingAlgorithm for RawTf {
    fn id(&self) -> &'static str {
        "Plain-1"
    }
    fn score_range(&self) -> ScoreRange {
        ScoreRange {
            min: 0.0,
            max: f64::INFINITY,
        }
    }
    fn term_weight(&self, st: &TermDocStats) -> f64 {
        f64::from(st.tf)
    }
    fn prepare(&self, _df: u32, _n_docs: u32, _avg_tokens: f64) -> Option<PreparedWeight> {
        Some(PreparedWeight::RawTf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(tf: u32, df: u32, n: u32) -> TermDocStats {
        TermDocStats {
            tf,
            df,
            n_docs: n,
            doc_tokens: 100,
            avg_tokens: 100.0,
            doc_norm: 1.0,
        }
    }

    #[test]
    fn registry() {
        for id in ["Acme-1", "Vendor-K", "Okapi-1", "Plain-1"] {
            let alg = ranking_by_id(id).expect("known id");
            assert_eq!(alg.id(), id);
        }
        assert!(ranking_by_id("Secret-9").is_none());
    }

    #[test]
    fn tfidf_monotone_in_tf_and_rarity() {
        let a = TfIdfCosine;
        assert!(a.term_weight(&stats(5, 10, 1000)) > a.term_weight(&stats(1, 10, 1000)));
        // Rarer terms weigh more (the §3.2 "databases in a CS source"
        // effect).
        assert!(a.term_weight(&stats(1, 2, 1000)) > a.term_weight(&stats(1, 500, 1000)));
        assert_eq!(a.term_weight(&stats(0, 10, 1000)), 0.0);
    }

    #[test]
    fn collection_skew_changes_weights() {
        // The same document gets different weights in different
        // collections — the heart of the rank-merging problem.
        let a = TfIdfCosine;
        let in_cs_source = a.term_weight(&stats(3, 800, 1000)); // common word
        let in_other_source = a.term_weight(&stats(3, 5, 1000)); // rare word
        assert!(in_other_source > 2.0 * in_cs_source);
    }

    #[test]
    fn vendor_finalize_pins_top_at_1000() {
        let v = VendorScaled;
        let mut scores = vec![(DocId(0), 0.2), (DocId(1), 0.5), (DocId(2), 0.1)];
        v.finalize(&mut scores);
        let max = scores.iter().map(|(_, s)| *s).fold(0.0_f64, f64::max);
        assert!((max - 1000.0).abs() < 1e-9);
        // Relative order preserved.
        assert!(scores[1].1 > scores[0].1 && scores[0].1 > scores[2].1);
    }

    #[test]
    fn vendor_finalize_empty_and_zero() {
        let v = VendorScaled;
        let mut empty: Vec<(DocId, f64)> = vec![];
        v.finalize(&mut empty);
        let mut zeros = vec![(DocId(0), 0.0)];
        v.finalize(&mut zeros);
        assert_eq!(zeros[0].1, 0.0);
    }

    #[test]
    fn bm25_saturates_in_tf() {
        let b = Bm25::default();
        let w1 = b.term_weight(&stats(1, 10, 1000));
        let w10 = b.term_weight(&stats(10, 10, 1000));
        let w100 = b.term_weight(&stats(100, 10, 1000));
        assert!(w10 > w1);
        // Saturation: the 10→100 gain is smaller than the 1→10 gain.
        assert!(w100 - w10 < w10 - w1);
    }

    #[test]
    fn bm25_length_normalization() {
        let b = Bm25::default();
        let short = TermDocStats {
            doc_tokens: 50,
            ..stats(5, 10, 1000)
        };
        let long = TermDocStats {
            doc_tokens: 500,
            ..stats(5, 10, 1000)
        };
        assert!(b.term_weight(&short) > b.term_weight(&long));
    }

    #[test]
    fn raw_tf_is_literal() {
        let r = RawTf;
        assert_eq!(r.term_weight(&stats(15, 3, 10)), 15.0);
        assert_eq!(r.term_weight(&stats(0, 3, 10)), 0.0);
    }

    #[test]
    fn score_ranges_differ_across_vendors() {
        // The §3.2 incompatibility: 0.3 at one source, 1000 at another.
        assert!(TfIdfCosine.score_range().is_bounded());
        assert_eq!(VendorScaled.score_range().max, 1000.0);
        assert!(!Bm25::default().score_range().is_bounded());
    }

    #[test]
    fn raw_score_floor_tracks_finalize() {
        // Identity-finalize algorithms pass the threshold through …
        for id in ["Acme-1", "Okapi-1", "Plain-1"] {
            let alg = ranking_by_id(id).expect("known id");
            assert_eq!(alg.raw_score_floor(0.25), Some(0.25), "{id}");
        }
        // … while Vendor-K's result-dependent rescale forbids a seed.
        assert_eq!(VendorScaled.raw_score_floor(0.25), None);
    }

    #[test]
    fn prepared_weight_is_bit_identical() {
        // Every built-in algorithm folds, and the folded weight matches
        // `term_weight` to the last bit across a grid spanning the tf
        // table, its overflow fallback, zero/degenerate statistics, and
        // both norm branches.
        for id in ["Acme-1", "Vendor-K", "Okapi-1", "Plain-1"] {
            let alg = ranking_by_id(id).expect("known id");
            for n_docs in [0u32, 1, 17, 4800] {
                for df in [0u32, 1, 9, 4800] {
                    for avg_tokens in [0.0, 57.3] {
                        let p = alg
                            .prepare(df, n_docs, avg_tokens)
                            .expect("built-ins always fold");
                        for tf in [0u32, 1, 2, 7, 255, 256, 100_000] {
                            for doc_tokens in [0u32, 25, 500] {
                                for doc_norm in [0.0, 1.0, 2.625] {
                                    let st = TermDocStats {
                                        tf,
                                        df,
                                        n_docs,
                                        doc_tokens,
                                        avg_tokens,
                                        doc_norm,
                                    };
                                    assert_eq!(
                                        alg.term_weight(&st).to_bits(),
                                        p.weight(tf, doc_tokens, doc_norm).to_bits(),
                                        "{id} {st:?}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cosine_norm_divides() {
        let a = TfIdfCosine;
        let mut st = stats(4, 10, 1000);
        let unnorm = a.term_weight(&st);
        st.doc_norm = 2.0;
        assert!((a.term_weight(&st) - unnorm / 2.0).abs() < 1e-12);
    }
}
