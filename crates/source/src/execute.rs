//! Query execution at one source: rewrite → translate → search → answer
//! specification → result construction (§4.1.2, §4.2).

use starts_index::{DocId, Hit, SearchOptions};
use starts_obs::{Registry, Span};
use starts_proto::query::{SortKey, SortOrder};
use starts_proto::{Field, Query, QueryProfile, QueryResults, ResultDocument, TermStatsEntry};

use crate::extensions::{translate_filter_ext, translate_ranking_ext};
use crate::rewrite::{rewrite_query, Rewritten};
use crate::source::Source;
use crate::translate::translate_term;

/// Execute `query` at `source`.
pub fn execute(source: &Source, query: &Query) -> QueryResults {
    execute_traced(source, query, None)
}

/// Execute `query` at `source`, recording phase timings (`rewrite` →
/// `translate` → `execute` → `search` spans under `source.execute`) and
/// rewrite-downgrade counters into `obs` when given.
///
/// When the query carries a trace context (the `XTraceContext`
/// extension attribute, §4.3), the `source.execute` span parents under
/// the metasearcher's dispatching span and is tagged with the query id,
/// so both sides of the wire stitch into one trace tree — and the
/// context is echoed back on the results, together with an
/// `XQueryProfile` extension attribute breaking the host-side cost into
/// rewrite/translate/execute stages (search latency and prune counters
/// included). Each stage is the span that timed it, closed with
/// [`Span::finish`](starts_obs::Span::finish), so with no registry
/// there are no spans and no profile: a traced query executed without
/// `obs` comes back with the context but `profile: None`. The network
/// host always passes its registry. Untraced queries get neither
/// attribute, so their encodings stay byte-identical to the paper's
/// examples.
pub fn execute_traced(source: &Source, query: &Query, obs: Option<&Registry>) -> QueryResults {
    let root = obs.map(|reg| {
        reg.counter_with("source.queries", &[("source", source.id())])
            .inc();
        match &query.trace {
            Some(ctx) => reg.span_under(
                "source.execute",
                &starts_obs::SpanHandle {
                    path: ctx.parent_path.clone(),
                    id: ctx.parent_span_id,
                },
                vec![
                    ("source", source.id().to_string()),
                    ("trace", ctx.query_id.clone()),
                ],
            ),
            None => reg.span_with("source.execute", vec![("source", source.id().to_string())]),
        }
    });
    // Profile only traced queries: an untraced span just drops. Offsets
    // are relative to the host-side root's start.
    let origin = root
        .as_ref()
        .filter(|_| query.trace.is_some())
        .map(Span::started);
    let open = |name: &str| obs.map(|reg| reg.span(name));
    let close = |span: Option<Span<'_>>| span.zip(origin).map(|(s, o)| s.finish(o));
    let engine = source.engine();
    let analyzer = engine.analyzer();
    let is_stop = |w: &str| analyzer.is_stop_word(w);

    // Phase 1: rewrite against the source's declared capabilities.
    let span = open("rewrite");
    let rewritten = rewrite_query(
        query,
        source.metadata(),
        &is_stop,
        analyzer.config().can_disable_stop_words,
    );
    let rewrite = close(span);
    if let Some(reg) = obs {
        count_downgrades(reg, source.id(), query, &rewritten);
    }

    // Phase 2: translate the actual query into the engine's IR.
    let span = open("translate");
    let filter_ir = rewritten
        .filter
        .as_ref()
        .map(|f| translate_filter_ext(f, analyzer));
    let ranking_ir = rewritten
        .ranking
        .as_ref()
        .map(|r| translate_ranking_ext(r, analyzer));
    let translate = close(span);

    // Phase 3: execute — search, answer specification, result objects.
    let execute_span = open("execute");
    let limit = fast_path_limit(&query.answer, ranking_ir.is_some()).map(|k| {
        // The cap comes off the wire and sizes the engine's top-k heap:
        // clamp it to the corpus, which no result list can exceed.
        let n_docs = source.num_docs() as usize;
        if k <= n_docs {
            return k;
        }
        if let Some(reg) = obs {
            reg.counter_with("source.request.clamped", &[("source", source.id())])
                .inc();
        }
        n_docs
    });
    if let Some(reg) = obs {
        reg.counter(if limit.is_some() {
            "engine.topk.bounded"
        } else {
            "engine.topk.full"
        })
        .inc();
    }
    let span = open("search");
    let (mut hits, _, prune) = engine.search_top_k_observed(
        filter_ir.as_ref(),
        ranking_ir.as_ref(),
        &SearchOptions {
            limit,
            min_score: query.answer.min_doc_score,
        },
    );
    let search = close(span);
    if let Some(reg) = obs {
        // Dynamic-pruning effectiveness (§ docs/performance.md): how many
        // candidate docs the bound check discarded without scoring. The
        // counters register even when zero so dashboards see the series.
        let labels = [("source", source.id())];
        reg.counter_with("engine.prune.skipped_docs", &labels)
            .add(prune.skipped_docs);
        reg.counter_with("engine.prune.skipped_leaves", &labels)
            .add(prune.skipped_leaves);
        reg.counter_with("engine.prune.threshold_updates", &labels)
            .add(prune.threshold_updates);
        reg.counter_with("engine.prune.blocks_skipped", &labels)
            .add(prune.blocks_skipped);
        if prune.candidates > 0 {
            reg.gauge_with("engine.prune.fraction", &labels)
                .set(prune.skipped_docs as f64 / prune.candidates as f64);
        }
        // Resident postings memory: the bit-packed block postings every
        // evaluator runs on, and the positional arenas kept only where
        // `prox` needs them (zero for positions-free vendors). Measured
        // once per index build; set per query so the gauges come back
        // after a registry reset without a registration hook.
        let footprint = source.postings_footprint();
        reg.gauge_with("engine.postings.positional_bytes", &labels)
            .set(footprint.positional_bytes as f64);
        reg.gauge_with("engine.postings.block_bytes", &labels)
            .set(footprint.block_bytes as f64);
    }

    // Answer specification: minimum score …
    if query.answer.min_doc_score.is_finite() {
        hits.retain(|h| match h.score {
            Some(s) => s >= query.answer.min_doc_score,
            None => true, // unscored (filter-only) results are kept
        });
    }
    // … sort order …
    sort_hits(source, &mut hits, &query.answer.sort_by);
    // … and result-set cap.
    hits.truncate(query.answer.max_documents);

    // Build the per-document result objects.
    let ranking_terms: Vec<_> = rewritten
        .ranking
        .as_ref()
        .map(|r| r.terms().into_iter().cloned().collect())
        .unwrap_or_default();
    let documents: Vec<ResultDocument> = hits
        .iter()
        .map(|h| build_document(source, h, query, &ranking_terms))
        .collect();
    if let Some(reg) = obs {
        reg.histogram_with("source.results", &[("source", source.id())])
            .observe(documents.len() as u64);
    }

    let execute = close(execute_span).map(|stage| {
        let mut stage = stage
            .with_meta("candidates", prune.candidates)
            .with_meta("skipped_docs", prune.skipped_docs)
            .with_meta("skipped_leaves", prune.skipped_leaves)
            .with_meta("blocks_skipped", prune.blocks_skipped)
            .with_meta("results", documents.len());
        stage.children.extend(search);
        stage
    });
    let profile = close(root).map(|mut root| {
        root.children
            .extend(rewrite.into_iter().chain(translate).chain(execute));
        QueryProfile {
            query_id: query
                .trace
                .as_ref()
                .map(|ctx| ctx.query_id.clone())
                .unwrap_or_default(),
            root,
        }
    });

    QueryResults {
        sources: vec![source.id().to_string()],
        actual_filter: rewritten.filter,
        actual_ranking: rewritten.ranking,
        documents,
        trace: query.trace.clone(),
        profile,
    }
}

/// Whether the engine may bound its search to the best
/// `MaxNumberDocuments` hits instead of materializing everything.
///
/// The bound is sound exactly when the truncation the answer spec will
/// apply afterwards keeps the *first* k hits of the engine's own order:
/// the query must be ranked, ask for the default sort (score
/// descending), and actually carry a cap. `MinDocumentScore` does not
/// disqualify the fast path — in descending order the above-threshold
/// docs form a prefix, so filtering commutes with truncation.
fn fast_path_limit(answer: &starts_proto::AnswerSpec, ranked: bool) -> Option<usize> {
    let default_sort = answer.sort_by.as_slice() == [SortKey::score_descending()];
    (ranked && default_sort && answer.max_documents != usize::MAX).then_some(answer.max_documents)
}

/// Count §4.2 downgrades: a query part the rewrite changed
/// (`source.rewrite.downgrades`) or removed outright
/// (`source.rewrite.drops`), labeled by source and part.
fn count_downgrades(reg: &Registry, source_id: &str, query: &Query, rewritten: &Rewritten) {
    let parts = [
        (
            "filter",
            query.filter.is_some(),
            rewritten.filter.is_none(),
            { rewritten.filter != query.filter },
        ),
        (
            "ranking",
            query.ranking.is_some(),
            rewritten.ranking.is_none(),
            rewritten.ranking != query.ranking,
        ),
    ];
    for (part, asked, gone, changed) in parts {
        if !asked {
            continue;
        }
        if changed {
            reg.counter_with(
                "source.rewrite.downgrades",
                &[("source", source_id), ("part", part)],
            )
            .inc();
        }
        if gone {
            reg.counter_with(
                "source.rewrite.drops",
                &[("source", source_id), ("part", part)],
            )
            .inc();
        }
    }
}

fn sort_hits(source: &Source, hits: &mut [Hit], sort_by: &[SortKey]) {
    let engine = source.engine();
    hits.sort_by(|a, b| {
        for key in sort_by {
            let ord = match &key.field {
                // Score key: descending, under a total order (None sorts
                // last; NaN cannot destabilize the comparison).
                None => match (&b.score, &a.score) {
                    (Some(x), Some(y)) => x.total_cmp(y),
                    (Some(_), None) => std::cmp::Ordering::Greater,
                    (None, Some(_)) => std::cmp::Ordering::Less,
                    (None, None) => std::cmp::Ordering::Equal,
                },
                Some(f) => {
                    let fid = engine.schema().get(f.name());
                    let (va, vb) = match fid {
                        Some(fid) => (
                            engine.doc_field(a.doc, fid).unwrap_or(""),
                            engine.doc_field(b.doc, fid).unwrap_or(""),
                        ),
                        None => ("", ""),
                    };
                    va.cmp(vb)
                }
            };
            let ord = match (key.order, key.field.is_some()) {
                // Score keys already compare descending; field keys
                // compare ascending. Flip per the requested order.
                (SortOrder::Descending, true) => ord.reverse(),
                (SortOrder::Ascending, false) => ord.reverse(),
                _ => ord,
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.doc.cmp(&b.doc)
    });
}

fn build_document(
    source: &Source,
    hit: &Hit,
    query: &Query,
    ranking_terms: &[starts_proto::WeightedTerm],
) -> ResultDocument {
    let engine = source.engine();
    // Linkage is always returned (§4.1.2), then the requested fields.
    let mut fields: Vec<(Field, String)> = Vec::with_capacity(1 + query.answer.fields.len());
    push_field(engine, hit.doc, &Field::Linkage, &mut fields);
    for f in &query.answer.fields {
        if f != &Field::Linkage {
            push_field(engine, hit.doc, f, &mut fields);
        }
    }
    let term_stats = ranking_terms
        .iter()
        .map(|wt| {
            let stat = source
                .engine()
                .term_stats(hit.doc, &translate_term(&wt.term));
            TermStatsEntry {
                term: wt.term.clone(),
                term_frequency: stat.tf,
                term_weight: stat.weight,
                document_frequency: stat.df,
            }
        })
        .collect();
    ResultDocument {
        raw_score: hit.score,
        sources: vec![source.id().to_string()],
        fields,
        term_stats,
        doc_size_kb: engine.index().doc_byte_size(hit.doc).div_ceil(1024),
        doc_count: u64::from(engine.index().doc_token_count(hit.doc)),
    }
}

fn push_field(
    engine: &starts_index::Engine,
    doc: DocId,
    field: &Field,
    out: &mut Vec<(Field, String)>,
) {
    if let Some(fid) = engine.schema().get(field.name()) {
        if let Some(value) = engine.doc_field(doc, fid) {
            out.push((field.clone(), value.to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SourceConfig;
    use starts_index::Document;
    use starts_proto::query::{parse_filter, parse_ranking, print_filter, print_ranking};
    use starts_proto::AnswerSpec;

    fn corpus() -> Vec<Document> {
        vec![
            Document::new()
                .field("title", "Deductive and Object-Oriented Database Systems")
                .field("author", "Jeffrey D. Ullman")
                .field(
                    "body-of-text",
                    "databases databases databases distributed comparison",
                )
                .field("date-last-modified", "1996-03-31")
                .field("linkage", "http://example.org/dood.ps"),
            Document::new()
                .field("title", "Database Research Achievements")
                .field("author", "Silberschatz Stonebraker Ullman")
                .field("body-of-text", "databases research directions")
                .field("date-last-modified", "1996-09-15")
                .field("linkage", "http://example.org/lagunita.ps"),
            Document::new()
                .field("title", "Compiler Construction")
                .field("author", "Alfred Aho")
                .field("body-of-text", "parsing lexing and code generation")
                .field("date-last-modified", "1995-05-05")
                .field("linkage", "http://example.org/dragon.ps"),
        ]
    }

    fn source() -> Source {
        Source::build(SourceConfig::new("Source-1"), &corpus())
    }

    fn query(filter: &str, ranking: &str) -> Query {
        Query {
            filter: (!filter.is_empty()).then(|| parse_filter(filter).unwrap()),
            ranking: (!ranking.is_empty()).then(|| parse_ranking(ranking).unwrap()),
            answer: AnswerSpec {
                fields: vec![Field::Title, Field::Author],
                ..AnswerSpec::default()
            },
            ..Query::default()
        }
    }

    #[test]
    fn end_to_end_filter_and_ranking() {
        let s = source();
        let q = query(
            r#"(author "Ullman")"#,
            r#"list((body-of-text "databases") (body-of-text "distributed"))"#,
        );
        let r = s.execute(&q);
        assert_eq!(r.sources, vec!["Source-1".to_string()]);
        assert_eq!(r.documents.len(), 2);
        // Doc 0 mentions both ranking words, repeatedly — it leads.
        assert_eq!(r.documents[0].linkage(), Some("http://example.org/dood.ps"));
        assert!(r.documents[0].raw_score.unwrap() >= r.documents[1].raw_score.unwrap());
        // Echoed actual query.
        assert_eq!(
            print_filter(r.actual_filter.as_ref().unwrap()),
            r#"(author "Ullman")"#
        );
    }

    #[test]
    fn answer_fields_returned_with_linkage_first() {
        let s = source();
        let q = query(r#"(author "Aho")"#, "");
        let r = s.execute(&q);
        assert_eq!(r.documents.len(), 1);
        let d = &r.documents[0];
        assert_eq!(d.fields[0].0, Field::Linkage);
        assert_eq!(d.field(&Field::Title), Some("Compiler Construction"));
        assert_eq!(d.field(&Field::Author), Some("Alfred Aho"));
        // Filter-only: no scores (the Boolean model).
        assert_eq!(d.raw_score, None);
    }

    #[test]
    fn term_stats_present_for_ranked_queries() {
        let s = source();
        let q = query("", r#"list((body-of-text "databases"))"#);
        let r = s.execute(&q);
        let top = &r.documents[0];
        assert_eq!(top.term_stats.len(), 1);
        let st = &top.term_stats[0];
        assert_eq!(st.term.value.text, "databases");
        assert_eq!(st.term_frequency, 3); // "databases" ×3 in doc 0 body
        assert_eq!(st.document_frequency, 2);
        assert!(st.term_weight > 0.0);
        assert!(top.doc_count > 0);
    }

    #[test]
    fn min_score_and_max_documents() {
        let s = source();
        let mut q = query("", r#"list((body-of-text "databases"))"#);
        q.answer.max_documents = 1;
        let r = s.execute(&q);
        assert_eq!(r.documents.len(), 1);
        let mut q = query("", r#"list((body-of-text "databases"))"#);
        q.answer.min_doc_score = 2.0; // above Acme-1's maximum
        let r = s.execute(&q);
        assert!(r.documents.is_empty());
    }

    #[test]
    fn bounded_execution_matches_full_and_is_counted() {
        let s = source();
        let full = s.execute(&query("", r#"list((body-of-text "databases"))"#));
        let mut q = query("", r#"list((body-of-text "databases"))"#);
        q.answer.max_documents = 1;
        let reg = Registry::default();
        let bounded = execute_traced(&s, &q, Some(&reg));
        assert_eq!(bounded.documents.len(), 1);
        assert_eq!(bounded.documents[0], full.documents[0]);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("engine.topk.bounded", &[]), 1);
        assert_eq!(snap.counter("engine.topk.full", &[]), 0);
        // A non-default sort order opts out of the bounded path.
        let mut q = query("", r#"list((body-of-text "databases"))"#);
        q.answer.max_documents = 1;
        q.answer.sort_by = vec![SortKey {
            field: Some(Field::Title),
            order: SortOrder::Ascending,
        }];
        execute_traced(&s, &q, Some(&reg));
        assert_eq!(reg.snapshot().counter("engine.topk.full", &[]), 1);
    }

    #[test]
    fn the_profile_is_the_spans_and_needs_a_registry() {
        let s = source();
        let mut q = query("", r#"list((body-of-text "databases"))"#);
        q.trace = Some(starts_proto::TraceContext {
            query_id: "q-exec".to_string(),
            parent_path: "dispatch/source".to_string(),
            parent_span_id: 0,
        });
        // No registry, no spans, no profile; the context still echoes.
        let bare = s.execute(&q);
        assert_eq!(bare.trace, q.trace);
        assert!(bare.profile.is_none());

        let reg = Registry::default();
        let traced = execute_traced(&s, &q, Some(&reg));
        assert_eq!(traced.documents, bare.documents);
        let profile = traced.profile.expect("a registry makes a profile");
        assert_eq!(profile.query_id, "q-exec");
        assert!(profile.is_consistent());
        // Each stage is the span that timed it: same duration, same
        // offset from the host-side root.
        let events = reg.recent_spans();
        let root = events.iter().find(|e| e.name == "source.execute").unwrap();
        for name in ["rewrite", "translate", "execute", "search"] {
            let stage = profile.find(name).expect("stage");
            let span = events.iter().find(|e| e.name == name).expect("span");
            assert_eq!(stage.duration_us, span.duration_us, "{name}");
            assert_eq!(stage.start_us, span.start_us - root.start_us, "{name}");
        }
        assert_eq!(profile.total_us(), root.duration_us);
        assert_eq!(profile.root.meta_value("source"), Some("Source-1"));
        assert_eq!(
            events.iter().find(|e| e.name == "search").unwrap().path,
            "dispatch/source/source.execute/execute/search"
        );
    }

    #[test]
    fn postings_gauges_report_the_build_time_footprint() {
        let s = source();
        let footprint = s.engine().postings_footprint();
        assert_eq!(s.postings_footprint(), footprint);
        assert!(footprint.block_bytes > 0);
        let reg = Registry::default();
        let labels = [("source", "Source-1")];
        let q = query("", r#"list((body-of-text "databases"))"#);
        for _ in 0..2 {
            execute_traced(&s, &q, Some(&reg));
            let snap = reg.snapshot();
            assert_eq!(
                snap.gauge("engine.postings.block_bytes", &labels),
                footprint.block_bytes as f64
            );
            assert_eq!(
                snap.gauge("engine.postings.positional_bytes", &labels),
                footprint.positional_bytes as f64
            );
            // A reset drops the gauges; the next query sets them again.
            reg.reset();
            assert_eq!(
                reg.snapshot().gauge("engine.postings.block_bytes", &labels),
                0.0
            );
        }
    }

    #[test]
    fn date_filter() {
        let s = source();
        let q = query(r#"(date-last-modified > "1996-08-01")"#, "");
        let r = s.execute(&q);
        assert_eq!(r.documents.len(), 1);
        assert_eq!(
            r.documents[0].linkage(),
            Some("http://example.org/lagunita.ps")
        );
    }

    #[test]
    fn sort_by_title_ascending() {
        let s = source();
        let mut q = query(r#"("databases")"#, "");
        q.answer.sort_by = vec![SortKey {
            field: Some(Field::Title),
            order: SortOrder::Ascending,
        }];
        let r = s.execute(&q);
        let titles: Vec<&str> = r
            .documents
            .iter()
            .map(|d| d.field(&Field::Title).unwrap())
            .collect();
        let mut sorted = titles.clone();
        sorted.sort_unstable();
        assert_eq!(titles, sorted);
    }

    #[test]
    fn stop_word_terms_eliminated_and_reported() {
        // "and" is a stop word for the default analyzer: a ranking
        // expression containing it comes back without it.
        let s = source();
        let q = query("", r#"list("and" (body-of-text "databases"))"#);
        let r = s.execute(&q);
        assert_eq!(
            print_ranking(r.actual_ranking.as_ref().unwrap()),
            r#"(body-of-text "databases")"#
        );
    }

    #[test]
    fn empty_query_returns_empty_results() {
        let s = source();
        let q = Query::default();
        let r = s.execute(&q);
        assert!(r.documents.is_empty());
        assert!(r.actual_filter.is_none());
        assert!(r.actual_ranking.is_none());
    }

    #[test]
    fn soif_stream_of_real_results_round_trips() {
        let s = source();
        let q = query(
            r#"(author "Ullman")"#,
            r#"list((body-of-text "databases"))"#,
        );
        let r = s.execute(&q);
        let bytes = r.to_soif_stream();
        let back = QueryResults::from_soif_stream(&bytes).unwrap();
        assert_eq!(back, r);
    }
}
