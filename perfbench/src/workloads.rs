//! The three workloads: seeded inputs, set-up, the untraced closed
//! loop, the traced compositions and the output checks.
//!
//! Out of scope, by design:
//! * paced hedge/deadline traffic — `SimNet` pacing is wall-clock sleep,
//!   so paced runs would measure the sleep, not the code;
//! * open-loop arrival — `Server::search` blocks, and the load may use at
//!   most two client threads on the machines this runs on.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use starts_bench::zipf_workload;
use starts_corpus::{generate_corpus, CorpusConfig, GeneratedCorpus, Zipf};
use starts_index::SearchOptions;
use starts_meta::catalog::Catalog;
use starts_meta::merge::{MergedDoc, SourceResult};
use starts_meta::metasearcher::{MetaConfig, Metasearcher};
use starts_meta::pipeline;
use starts_net::host::wire_source;
use starts_net::{Exchange, LinkProfile, SimNet, StartsClient};
use starts_obs::SourceOutcome;
use starts_proto::query::ast::{QTerm, RankExpr};
use starts_proto::query::SortKey;
use starts_proto::summary::ContentSummary;
use starts_proto::{
    AnswerSpec, Field, Query, QueryProfile, QueryResults, SourceMetadata, StageCost, TraceContext,
};
use starts_serve::{ServeConfig, Served, Server};
use starts_source::extensions::{translate_filter_ext, translate_ranking_ext};
use starts_source::rewrite::rewrite_query;
use starts_source::{Source, SourceConfig};

use crate::checks::{self, Ranked};
use crate::stats::{self, LatencySummary};
use crate::trace;

/// Result-list bound for every query (`MaxNumberDocuments`).
pub const K: usize = 10;
/// Sub-windows per timed window (see [`end_to_end`]).
const WINDOWS: usize = 48;
/// The end-to-end metrics keep one sub-window in this many, the least
/// stolen from (see [`end_to_end`]).
const KEEP_ONE_IN: usize = 4;
/// Untimed warm-up before each timed window.
const WARMUP_S: f64 = 0.5;
/// `serve-mixed`: every Nth request of a client is a source update.
///
/// No measurement backs this rate: the paper leaves how often a source
/// re-exports its summary to the source, and no STARTS deployment's
/// rate is public. One in 20 is a named choice: round-robin over the 12
/// sources, each is invalidated once in 240 requests of a client, and a
/// cached response (3 sources) about once in 80, so the cache neither
/// always nor never hits. The hit and coalesced shares it yields are printed by
/// the traced run (`serve.hit_frac`, `serve.coalesced_frac`).
const UPDATE_EVERY: usize = 20;
/// `serve-mixed`: Zipf exponent of query popularity over the pool. Query
/// popularity in search-engine logs is Zipf-like (Xie and O'Hallaron,
/// "Locality in search engine queries and its implications for
/// caching", INFOCOM 2002); the exponent is the one `zipf_workload`
/// already gives background-term ranks, not one measured on a STARTS
/// metasearcher.
const POPULARITY_EXPONENT: f64 = 1.0;
/// Rounds per replay of a captured per-source input.
const REPLAY_ROUNDS: usize = 3;
/// `source-large`: queries checked against the unbounded engine search.
const ORACLE_SAMPLE: usize = 24;
/// `serve-mixed`: most popular pool queries whose cache entries are
/// invalidated one by one after the timed window.
const INVALIDATION_SAMPLE: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure 1 path: `Metasearcher::search` over 12 sources
    /// of 400 documents, 3 selected per query, one closed-loop client.
    /// Selection, adaptation, SOIF encode/parse, the `SimNet` exchange,
    /// answer assembly, dispatch and merge do most of the work and the
    /// engine little, so an engine-only change should read as no change
    /// here, and a change to `meta`, `soif`, `net` or `obs` should show.
    Federated,
    /// `StartsClient::query` against one 48k-document source (the 12
    /// sources of 4000 documents combined) over the wire, one closed-loop
    /// client. Long posting lists make `index` the largest layer, and the
    /// per-query `obs` work that grows with vocabulary shows only here;
    /// `meta` and `serve` do no work. An engine gain must show here.
    SourceLarge,
    /// `Server::search` with the default `ServeConfig` (result cache on)
    /// over the `federated` corpus, two closed-loop client threads,
    /// queries drawn with Zipf popularity from a fixed pool so some
    /// repeat, and every 20th request a source update (re-fetch summary
    /// and metadata, then `invalidate_source`). The only workload that
    /// uses the pools, queue, singleflight and cache; the updates make a
    /// change that helps cache hits but hurts invalidation or large-object
    /// parsing show up.
    ServeMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        [
            Workload::Federated,
            Workload::SourceLarge,
            Workload::ServeMixed,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Federated => "federated",
            Workload::SourceLarge => "source-large",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Input sizes: documents per source (12 sources) and query-pool size.
    fn sizes(self) -> (usize, usize) {
        match self {
            Workload::Federated | Workload::ServeMixed => (400, 512),
            Workload::SourceLarge => (4000, 256),
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median. Half come
    /// before the timed window and half after it, so the median samples
    /// the machine at two times some 20 seconds apart.
    fn setups(self) -> usize {
        match self {
            Workload::SourceLarge => 4,
            _ => 6,
        }
    }

    fn clients(self) -> usize {
        match self {
            Workload::ServeMixed => 2,
            _ => 1,
        }
    }
}

/// The generated inputs of one run: everything the program receives.
pub struct Inputs {
    pub corpus: GeneratedCorpus,
    pub queries: Vec<Query>,
}

/// Corpus and query pool from the seed (x14's corpus shape).
pub fn inputs(docs_per_source: usize, pool: usize, seed: u64) -> Inputs {
    let corpus = generate_corpus(&CorpusConfig {
        n_sources: 12,
        docs_per_source,
        n_topics: 4,
        background_vocab: 1500,
        topic_vocab: 100,
        doc_len: (25, 90),
        topic_skew: 0.35,
        bilingual_fraction: 0.0,
        seed,
    });
    let queries = zipf_workload(&corpus, pool, seed ^ 0x5eed_1997)
        .iter()
        .map(|terms| starts_query(terms))
        .collect();
    Inputs { corpus, queries }
}

/// A ranked body-of-text query bounded to `K` documents.
fn starts_query(terms: &[String]) -> Query {
    Query {
        ranking: Some(RankExpr::list_of(
            terms
                .iter()
                .map(|t| QTerm::fielded(Field::BodyOfText, t.clone())),
        )),
        answer: AnswerSpec {
            fields: vec![Field::Title],
            max_documents: K,
            ..AnswerSpec::default()
        },
        ..Query::default()
    }
}

fn meta_config() -> MetaConfig {
    MetaConfig {
        max_results: K,
        ..MetaConfig::default()
    }
}

/// A set-up system: sources wired onto a network and discovered.
struct World {
    net: Arc<SimNet>,
    catalog: Catalog,
    queries: Vec<Query>,
    /// Replay copies of the sources, indexed like `catalog.entries`
    /// (traced runs only).
    sources: Vec<Arc<Source>>,
    seed: u64,
    docs: usize,
    build_s: f64,
}

fn build_world(workload: Workload, seed: u64, traced: bool) -> World {
    let (docs_per_source, pool) = workload.sizes();
    let Inputs { corpus, queries } = inputs(docs_per_source, pool, seed);
    let groups: Vec<(String, Vec<starts_index::Document>)> = match workload {
        Workload::SourceLarge => vec![("Large".to_string(), corpus.all_docs())],
        _ => corpus
            .sources
            .iter()
            .map(|s| (s.id.clone(), s.docs.clone()))
            .collect(),
    };
    let net = Arc::new(SimNet::new());
    let mut build_s = 0.0;
    let mut docs = 0;
    for (id, group) in &groups {
        let start = Instant::now();
        let source = Source::build(SourceConfig::new(id), group);
        build_s += start.elapsed().as_secs_f64();
        docs += group.len();
        wire_source(&net, source, LinkProfile::default());
    }
    let client = StartsClient::new(&net);
    let mut catalog = Catalog::default();
    for (id, _) in &groups {
        let url = format!("starts://{}/metadata", id.to_lowercase());
        catalog
            .discover_source(&client, &url, LinkProfile::default(), false)
            .expect("discover a wired source");
    }
    let mut sources = Vec::new();
    if traced {
        // The traced run serves queries from the benchmark's own
        // endpoint, which needs a handle on the source for replays.
        for (i, entry) in catalog.entries.iter().enumerate() {
            let group = &groups
                .iter()
                .find(|(id, _)| *id == entry.id)
                .expect("group")
                .1;
            let source = Arc::new(Source::build(SourceConfig::new(&entry.id), group));
            wire_traced_query(&net, Arc::clone(&source), i);
            sources.push(source);
        }
    }
    World {
        net,
        catalog,
        queries,
        sources,
        seed,
        docs,
        build_s,
    }
}

/// One input captured for a replay: (span id, source index, query).
type Capture = (u64, usize, Query);
static CAPTURES: Mutex<Vec<Capture>> = Mutex::new(Vec::new());

/// Replace a source's query endpoint with one that makes the same calls
/// in the same order as `wire_source`'s handler, inside spans.
fn wire_traced_query(net: &SimNet, source: Arc<Source>, index: usize) {
    let obs = Arc::clone(net.registry());
    let url = source.config().query_url();
    net.register(
        url,
        LinkProfile::default(),
        Arc::new(move |request: &[u8]| {
            trace::span("host.handler", || {
                let query = trace::span("soif.query_parse", || {
                    let obj =
                        starts_soif::parse_one(request, starts_soif::ParseMode::Lenient).ok()?;
                    Query::from_soif(&obj).ok()
                });
                let Some(query) = query else {
                    return QueryResults {
                        sources: vec![source.id().to_string()],
                        ..QueryResults::default()
                    }
                    .to_soif_stream();
                };
                if let Some(ctx) = &query.trace {
                    trace::set_tag(ctx.query_id.clone());
                }
                let (results, span) = trace::span_id("source.execute_traced", |id| {
                    (source.execute_traced(&query, Some(&obs)), id)
                });
                if span != 0 {
                    CAPTURES
                        .lock()
                        .expect("capture buffer poisoned")
                        .push((span, index, query));
                }
                trace::span("soif.results_encode", || results.to_soif_stream())
            })
        }),
    );
}

/// What one request left behind for the checks and the metrics.
#[derive(Debug, Clone, Copy)]
struct Sample {
    lat_us: f64,
    ok: bool,
    kind: Kind,
    pool: usize,
    digest: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Query,
    Executed,
    Coalesced,
    CacheHit,
    Update,
}

/// One timed sub-window.
struct Window {
    samples: Vec<Sample>,
    secs: f64,
    cpu_s: f64,
    /// Machine-wide CPU time stolen by the hypervisor, in clock ticks.
    steal_ticks: u64,
}

/// Drive `clients` closed-loop client threads for `secs` seconds split
/// into [`WINDOWS`] sub-windows; `op(client, i)` issues a client's i-th
/// request and reports it. The main thread only reads the CPU clock at
/// window boundaries.
fn closed_loop(
    clients: usize,
    secs: f64,
    first_request: usize,
    op: &(dyn Fn(usize, usize) -> Sample + Sync),
) -> Vec<Window> {
    let start = Instant::now();
    let bounds: Vec<Instant> = (1..=WINDOWS)
        .map(|w| start + std::time::Duration::from_secs_f64(secs * w as f64 / WINDOWS as f64))
        .collect();
    let mut cpu = vec![(stats::process_cpu_s(), stats::steal_ticks())];
    // Per client and window: the samples and when the last one ended.
    let per_client: Vec<Vec<(Vec<Sample>, Instant)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let bounds = &bounds;
                scope.spawn(move || {
                    let mut i = first_request;
                    bounds
                        .iter()
                        .map(|&end| {
                            let mut window = Vec::new();
                            let mut last = Instant::now();
                            while last < end {
                                window.push(op(c, i));
                                i += 1;
                                last = Instant::now();
                            }
                            (window, last)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for &end in &bounds {
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            cpu.push((stats::process_cpu_s(), stats::steal_ticks()));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (0..WINDOWS)
        .map(|w| {
            let opened = if w == 0 { start } else { bounds[w - 1] };
            let closed = per_client.iter().map(|c| c[w].1).max().unwrap_or(opened);
            Window {
                samples: per_client
                    .iter()
                    .flat_map(|c| c[w].0.iter().copied())
                    .collect(),
                secs: closed.duration_since(opened).as_secs_f64(),
                cpu_s: cpu[w + 1].0 - cpu[w].0,
                steal_ticks: cpu[w + 1].1 - cpu[w].1,
            }
        })
        .collect()
}

/// Run `op` untimed for [`WARMUP_S`], returning the next request index.
fn warm_up(clients: usize, op: &(dyn Fn(usize, usize) -> Sample + Sync)) -> usize {
    let end = Instant::now() + std::time::Duration::from_secs_f64(WARMUP_S);
    let counts: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut i = 0;
                    while Instant::now() < end {
                        std::hint::black_box(op(c, i));
                        i += 1;
                    }
                    i
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up"))
            .collect()
    });
    counts.into_iter().max().unwrap_or(0)
}

/// Throughput, latency and CPU cost over a set of sub-windows.
#[derive(Debug, Clone)]
pub struct Figures {
    pub qps: f64,
    pub latency: LatencySummary,
    pub cpu_us_per_query: f64,
    /// Share of the machine's CPU time stolen by the hypervisor.
    pub steal_frac: f64,
}

fn figures(windows: &[&Window]) -> Figures {
    let sum = |f: &dyn Fn(&Window) -> f64| windows.iter().map(|w| f(w)).sum::<f64>();
    let requests = sum(&|w| w.samples.len() as f64);
    let secs = sum(&|w| w.secs);
    let lat: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.samples.iter().map(|s| s.lat_us))
        .collect();
    Figures {
        qps: requests / secs,
        latency: stats::summarize(&lat),
        cpu_us_per_query: sum(&|w| w.cpu_s) * 1e6 / requests.max(1.0),
        steal_frac: sum(&|w| w.steal_ticks as f64)
            / stats::clock_ticks_per_s()
            / (secs * starts_bench::machine_parallelism() as f64),
    }
}

/// End-to-end metrics of one untraced timed window.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Over the quarter of the sub-windows with the least hypervisor
    /// steal ([`stats::least_stolen`]): the reported metrics.
    pub kept: Figures,
    /// Over every sub-window, printed beside them for comparison.
    pub whole: Figures,
    /// Mean latency over every sub-window (for `trace_overhead_frac`).
    pub mean_latency_us: f64,
}

/// On a shared machine a neighbour's burst steals CPU from whole
/// sub-windows; the metrics pool the quarter of the sub-windows the
/// hypervisor stole least from. The choice never looks at what the
/// program did, so a regression that slows some windows (a periodic
/// stall, a cold phase) stays in the figures in proportion, unless
/// those windows were also the most stolen from.
fn end_to_end(windows: &[Window]) -> EndToEnd {
    let steal: Vec<u64> = windows.iter().map(|w| w.steal_ticks).collect();
    let kept: Vec<&Window> = stats::least_stolen(&steal, KEEP_ONE_IN)
        .into_iter()
        .map(|w| &windows[w])
        .collect();
    let all: Vec<&Window> = windows.iter().collect();
    let whole = figures(&all);
    let n = whole.latency.samples.max(1) as f64;
    EndToEnd {
        kept: figures(&kept),
        mean_latency_us: all
            .iter()
            .flat_map(|w| w.samples.iter().map(|s| s.lat_us))
            .sum::<f64>()
            / n,
        whole,
    }
}

/// Everything one run reports.
pub struct Report {
    pub setup_s: f64,
    pub end_to_end: EndToEnd,
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: u64,
    pub digest: u64,
    /// Traced runs only.
    pub traced: Option<Traced>,
}

/// What the traced window yields.
pub struct Traced {
    /// Per-layer metrics by name: (value, unit).
    pub layers: Layers,
    /// The self-time table: row → µs per request; rows sum to `mean_us`.
    pub table: Vec<(&'static str, f64)>,
    /// Mean traced end-to-end latency per request.
    pub mean_us: f64,
    /// Replayed over in-line `execute_traced` time on the blocking path
    /// (1 = the in-line calls ran as fast as their isolated replays).
    pub replay_coverage: f64,
}

/// Build the world a workload runs on, timed: the set-up `setup_s`
/// measures.
fn set_up(workload: Workload, seed: u64, traced: bool) -> (World, Option<Server>, f64) {
    let start = Instant::now();
    let world = build_world(workload, seed, traced);
    let server = (workload == Workload::ServeMixed).then(|| {
        Server::new(
            Arc::clone(&world.net),
            world.catalog.clone(),
            meta_config(),
            ServeConfig::default(),
        )
    });
    (world, server, start.elapsed().as_secs_f64())
}

/// Run one workload: set up (several times in untraced runs), measure,
/// check. A traced run splits `secs` between an untraced and a traced
/// window so it can report the tracing overhead.
pub fn run(workload: Workload, seed: u64, secs: f64, traced: bool) -> Report {
    let setups = if traced { 1 } else { workload.setups() };
    let before = setups.div_ceil(2);
    let mut setup_times = Vec::new();
    let mut world = None;
    for _ in 0..before {
        // One world at a time, so `rss_peak_mb` sees a single set-up.
        drop(world.take());
        let (w, server, s) = set_up(workload, seed, traced);
        setup_times.push(s);
        world = Some((w, server));
    }
    let (world, server) = world.expect("at least one set-up");
    let mut report = measure(workload, &world, server, secs, traced);
    drop(world);
    for _ in before..setups {
        let (w, server, s) = set_up(workload, seed, traced);
        setup_times.push(s);
        drop((server, w));
    }
    report.setup_s = stats::median(&setup_times);
    report
}

/// Measure and check on a set-up world (`setup_s` is filled in by the
/// caller).
fn measure(
    workload: Workload,
    world: &World,
    server: Option<Server>,
    secs: f64,
    traced: bool,
) -> Report {
    let seed = world.seed;
    let untraced_secs = if traced { secs / 2.0 } else { secs };

    let meta = Metasearcher::new(&world.net, world.catalog.clone(), meta_config());
    let client = StartsClient::new(&world.net);
    let large_url = world.catalog.entries[0].query_url().to_string();
    let serve_picks = serve_picks(world, seed);
    let n = world.queries.len();
    let untraced_op = |c: usize, i: usize| -> Sample {
        match workload {
            Workload::Federated => {
                let q = i % n;
                let start = Instant::now();
                let resp = meta.search(&world.queries[q]);
                let lat_us = start.elapsed().as_secs_f64() * 1e6;
                Sample {
                    lat_us,
                    ok: resp.per_source.len() == resp.selected.len(),
                    kind: Kind::Query,
                    pool: q,
                    digest: checks::digest(&checks::ranked_merged(&resp.merged)),
                }
            }
            Workload::SourceLarge => {
                let q = i % n;
                let start = Instant::now();
                let resp = client.query(&large_url, &world.queries[q]);
                let lat_us = start.elapsed().as_secs_f64() * 1e6;
                Sample {
                    lat_us,
                    ok: resp.is_ok(),
                    kind: Kind::Query,
                    pool: q,
                    digest: resp.map_or(0, |r| checks::digest(&checks::ranked_results(&r))),
                }
            }
            Workload::ServeMixed => serve_request(
                server.as_ref().expect("server"),
                world,
                &serve_picks[c],
                i,
                false,
            ),
        }
    };
    let clients = workload.clients();
    let next = warm_up(clients, &untraced_op);
    let windows = closed_loop(clients, untraced_secs, next, &untraced_op);
    let e2e = end_to_end(&windows);
    let mut samples: Vec<Sample> = windows.into_iter().flat_map(|w| w.samples).collect();

    let mut traced_report = None;
    if traced {
        let traced_samples = traced_window(
            workload,
            world,
            &meta,
            server.as_ref(),
            &serve_picks,
            secs - untraced_secs,
        );
        let spans = trace::take();
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
        let path =
            std::path::Path::new(&dir).join(format!("perfbench-spans-{}.jsonl", workload.name()));
        if let Err(e) = trace::write_jsonl(&spans, &path) {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
        traced_report = Some(analyse(world, &spans, &samples, &e2e));
        samples.extend(traced_samples);
    }

    // Output checks, outside every timed window.
    let (check_failures, digest) = match workload {
        Workload::Federated => check_federated(&meta, world, &samples),
        Workload::SourceLarge => check_source_large(&client, &large_url, world, &samples),
        Workload::ServeMixed => {
            check_served(&meta, server.as_ref().expect("server"), world, &samples)
        }
    };
    let attempted = samples.len() as u64;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64 + check_failures;
    drop(server);
    Report {
        setup_s: 0.0,
        end_to_end: e2e,
        attempted,
        failed,
        check_failures,
        digest,
        traced: traced_report,
    }
}

/// Per-client `serve-mixed` query picks: pool indices with Zipf
/// popularity ([`POPULARITY_EXPONENT`]), seeded per client.
fn serve_picks(world: &World, seed: u64) -> Vec<Vec<usize>> {
    let zipf = Zipf::new(world.queries.len(), POPULARITY_EXPONENT);
    (0..2u64)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0xc11e_0000 + c));
            (0..4096).map(|_| zipf.sample(&mut rng)).collect()
        })
        .collect()
}

/// One `serve-mixed` request: a source update every [`UPDATE_EVERY`]th
/// request, a served search otherwise.
fn serve_request(
    server: &Server,
    world: &World,
    picks: &[usize],
    i: usize,
    traced: bool,
) -> Sample {
    if i % UPDATE_EVERY == UPDATE_EVERY - 1 {
        let entry = &world.catalog.entries[(i / UPDATE_EVERY) % world.catalog.len()];
        let start = Instant::now();
        let ok = if traced {
            trace::span("serve.update", || update_traced(server, &world.net, entry))
        } else {
            let client = StartsClient::new(&world.net);
            let summary = client.fetch_summary(&entry.metadata.content_summary_linkage);
            let metadata = client.fetch_metadata(&entry.metadata_url);
            server.invalidate_source(&entry.id);
            summary.is_ok() && metadata.is_ok()
        };
        return Sample {
            lat_us: start.elapsed().as_secs_f64() * 1e6,
            ok,
            kind: Kind::Update,
            pool: usize::MAX,
            digest: 0,
        };
    }
    let q = picks[i % picks.len()];
    let start = Instant::now();
    let out = if traced {
        trace::span("serve.search", || {
            let out = server.search(&world.queries[q]);
            if let Ok(o) = &out {
                if o.via == Served::Executed {
                    trace::set_tag(o.response.query_id.clone());
                }
            }
            out
        })
    } else {
        server.search(&world.queries[q])
    };
    let lat_us = start.elapsed().as_secs_f64() * 1e6;
    match out {
        Ok(o) => Sample {
            lat_us,
            ok: !o.response.partial,
            kind: match o.via {
                Served::Executed => Kind::Executed,
                Served::Coalesced => Kind::Coalesced,
                Served::CacheHit => Kind::CacheHit,
            },
            pool: q,
            digest: checks::digest(&checks::ranked_merged(&o.response.merged)),
        },
        Err(_) => Sample {
            lat_us,
            ok: false,
            kind: Kind::Executed,
            pool: q,
            digest: 0,
        },
    }
}

/// The calls `fetch_summary` and `fetch_metadata` make, in spans, then
/// the invalidation.
fn update_traced(
    server: &Server,
    net: &SimNet,
    entry: &starts_meta::catalog::CatalogEntry,
) -> bool {
    let obs = net.registry();
    let summary = {
        let url = &entry.metadata.content_summary_linkage;
        let _op = obs.span_with("client.fetch_summary", vec![("url", url.clone())]);
        trace::span("net.request", || net.request(url, b""))
            .ok()
            .and_then(|resp| {
                trace::span("soif.summary_parse", || {
                    let obj =
                        starts_soif::parse_one(&resp.bytes, starts_soif::ParseMode::Strict).ok()?;
                    ContentSummary::from_soif(&obj).ok()
                })
            })
    };
    let metadata = {
        let url = &entry.metadata_url;
        let _op = obs.span_with("client.fetch_metadata", vec![("url", url.clone())]);
        trace::span("net.request", || net.request(url, b""))
            .ok()
            .and_then(|resp| {
                trace::span("soif.metadata_parse", || {
                    let obj =
                        starts_soif::parse_one(&resp.bytes, starts_soif::ParseMode::Strict).ok()?;
                    SourceMetadata::from_soif(&obj).ok()
                })
            })
    };
    trace::span("serve.invalidate", || server.invalidate_source(&entry.id));
    summary.is_some() && metadata.is_some()
}

/// Per-request accounting the traced compositions add up.
#[derive(Default)]
struct Tally {
    bytes: u64,
    tasks: u64,
    candidates: u64,
    duplicates: u64,
}

static TALLY: Mutex<Tally> = Mutex::new(Tally {
    bytes: 0,
    tasks: 0,
    candidates: 0,
    duplicates: 0,
});

/// The calls `StartsClient::query_cancellable` makes, in spans.
fn traced_client_query(net: &SimNet, url: &str, query: &Query) -> Option<(QueryResults, Exchange)> {
    let _op = net
        .registry()
        .span_with("client.query", vec![("url", url.to_string())]);
    let req = trace::span("soif.query_encode", || {
        let mut buf = Vec::new();
        starts_soif::write_object_into(&query.to_soif(), &mut buf);
        buf
    });
    let resp = trace::span("net.request", || net.request(url, &req)).ok()?;
    let exchange = Exchange::of(&resp, req.len());
    let results = trace::span("soif.results_parse", || {
        QueryResults::from_soif_stream(&resp.bytes)
    })
    .ok()?;
    Some((results, exchange))
}

/// `Metasearcher::search`, composed from the `pipeline` stages the same
/// way, with the per-source dispatch as `pipeline::run_task` does it.
/// Returns the merged list and whether every selected source answered.
fn traced_federated(
    meta: &Metasearcher<'_>,
    net: &SimNet,
    query: &Query,
) -> (Vec<MergedDoc>, bool) {
    let obs = net.registry();
    let config = &meta.config;
    let query_id = starts_obs::trace::next_query_id();
    let t0 = Instant::now();
    let elapsed_us = |t0: Instant| t0.elapsed().as_micros() as u64;
    let _root = obs.span_with("meta.search", vec![("trace", query_id.clone())]);
    obs.counter("meta.searches").inc();
    let plan = trace::span("meta.plan", || {
        pipeline::plan(&meta.catalog, config, query, obs, t0)
    });
    let dispatch_start = elapsed_us(t0);
    let slots: Vec<Option<(SourceResult, Exchange, StageCost)>> =
        trace::span("meta.dispatch", || {
            let dispatch = obs.span("dispatch");
            let handle = dispatch.handle();
            let ctx = trace::context();
            std::thread::scope(|scope| {
                let workers: Vec<_> = plan
                    .tasks
                    .iter()
                    .map(|task| {
                        let (handle, query_id) = (&handle, &query_id);
                        scope.spawn(move || {
                            trace::within(ctx, || {
                                trace::span("meta.task", || {
                                    let span = obs.span_under(
                                        "source",
                                        handle,
                                        vec![
                                            ("source", task.id.clone()),
                                            ("trace", query_id.clone()),
                                        ],
                                    );
                                    let mut q = task.query.clone();
                                    q.trace = Some(TraceContext {
                                        query_id: query_id.clone(),
                                        parent_path: span.path().to_string(),
                                        parent_span_id: span.id(),
                                    });
                                    let w_start = elapsed_us(t0);
                                    let (results, exchange) =
                                        traced_client_query(net, &task.url, &q)?;
                                    let w_end = elapsed_us(t0);
                                    Some(trace::span("obs.task", || {
                                        let latency = u64::from(exchange.latency_ms);
                                        obs.histogram_with(
                                            "meta.source_latency_ms",
                                            &[("source", &task.id)],
                                        )
                                        .observe(latency);
                                        config.health.record(
                                            &task.id,
                                            if latency >= config.timeout_ms {
                                                SourceOutcome::timed_out(latency, true)
                                            } else {
                                                SourceOutcome::ok(latency)
                                            },
                                        );
                                        let mut stage = StageCost::new(
                                            "source",
                                            w_start,
                                            w_end.saturating_sub(w_start),
                                        )
                                        .with_meta("source", &task.id)
                                        .with_meta("latency_ms", exchange.latency_ms)
                                        .with_meta("cost", exchange.cost);
                                        if let Some(host) = results.profile.clone() {
                                            let mut root = host.root;
                                            root.shift(w_start);
                                            stage.children.push(root);
                                        }
                                        let result = SourceResult {
                                            metadata: task.metadata.clone(),
                                            results,
                                            source_weight: task.weight,
                                        };
                                        (result, exchange, stage)
                                    }))
                                })
                            })
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("dispatch worker panicked"))
                    .collect()
            })
        });
    let dispatch_end = elapsed_us(t0);
    trace::span("obs.search", || config.health.export_to(obs));
    let mut source_stages = Vec::new();
    let mut total_cost = 0.0;
    let per_source: Vec<SourceResult> = slots
        .into_iter()
        .flatten()
        .map(|(result, exchange, stage)| {
            total_cost += exchange.cost;
            source_stages.push(stage);
            result
        })
        .collect();
    obs.gauge("meta.query_cost").add(total_cost);
    let (merged, mstats, merge_cost) = trace::span("meta.merge", || {
        pipeline::merge_stage(
            config.merger.as_ref(),
            &per_source,
            config.max_results,
            obs,
            t0,
        )
    });
    trace::span("obs.search", || {
        let mut dispatch_stage = StageCost::new(
            "dispatch",
            dispatch_start,
            dispatch_end.saturating_sub(dispatch_start),
        )
        .with_meta("sources", source_stages.len());
        dispatch_stage.children = source_stages;
        let profile = QueryProfile {
            query_id: query_id.clone(),
            root: StageCost {
                name: "meta.search".to_string(),
                start_us: 0,
                duration_us: elapsed_us(t0),
                meta: vec![("results".to_string(), merged.len().to_string())],
                children: vec![
                    plan.select_stage.clone(),
                    plan.adapt_stage.clone(),
                    dispatch_stage,
                    merge_cost,
                ],
            },
        };
        config.recorder.record(&profile);
        config.recorder.export_to(obs);
        net.monitor().tick(obs);
    });
    let mut tally = TALLY.lock().expect("tally");
    tally.tasks += plan.tasks.len() as u64;
    tally.candidates += mstats.candidates as u64;
    tally.duplicates += mstats.duplicates() as u64;
    (merged, per_source.len() == plan.tasks.len())
}

/// The traced window: the same requests as the untraced loop, issued
/// through the traced compositions.
fn traced_window(
    workload: Workload,
    world: &World,
    meta: &Metasearcher<'_>,
    server: Option<&Server>,
    serve_picks: &[Vec<usize>],
    secs: f64,
) -> Vec<Sample> {
    let n = world.queries.len();
    let large_url = world.catalog.entries[0].query_url().to_string();
    let op = |c: usize, i: usize| -> Sample {
        // Request ids are unique across clients: client in the low bit.
        let req = (i as u64) << 1 | c as u64;
        trace::request(req, "request", || match workload {
            Workload::Federated => {
                let q = i % n;
                let start = Instant::now();
                let (merged, complete) = traced_federated(meta, &world.net, &world.queries[q]);
                Sample {
                    lat_us: start.elapsed().as_secs_f64() * 1e6,
                    ok: complete,
                    kind: Kind::Query,
                    pool: q,
                    digest: checks::digest(&checks::ranked_merged(&merged)),
                }
            }
            Workload::SourceLarge => {
                let q = i % n;
                let start = Instant::now();
                let resp = traced_client_query(&world.net, &large_url, &world.queries[q]);
                Sample {
                    lat_us: start.elapsed().as_secs_f64() * 1e6,
                    ok: resp.is_some(),
                    kind: Kind::Query,
                    pool: q,
                    digest: resp.map_or(0, |(r, _)| checks::digest(&checks::ranked_results(&r))),
                }
            }
            Workload::ServeMixed => {
                serve_request(server.expect("server"), world, &serve_picks[c], i, true)
            }
        })
    };
    let clients = workload.clients();
    let next = warm_up(clients, &op);
    trace::take();
    CAPTURES.lock().expect("captures").clear();
    *TALLY.lock().expect("tally") = Tally::default();
    let before = world.net.stats();
    trace::enable();
    let windows = closed_loop(clients, secs, next, &op);
    let after = world.net.stats();
    TALLY.lock().expect("tally").bytes =
        after.bytes_sent + after.bytes_received - before.bytes_sent - before.bytes_received;
    windows.into_iter().flat_map(|w| w.samples).collect()
}

/// Replayed costs of one captured `source.execute_traced` call, in ns.
#[derive(Clone, Copy)]
struct Replay {
    rewrite: f64,
    translate: f64,
    search: f64,
    execute: f64,
    execute_traced: f64,
}

/// Replay one captured per-source input in isolation: the phases of
/// `Source::execute` one by one, then `execute` and `execute_traced`.
/// Each cost is the minimum over [`REPLAY_ROUNDS`] rounds.
fn replay(
    source: &Source,
    query: &Query,
    obs: &starts_obs::Registry,
) -> (Replay, starts_index::PruneReport) {
    let ns = |start: Instant| start.elapsed().as_nanos() as f64;
    let engine = source.engine();
    let analyzer = engine.analyzer();
    let is_stop = |w: &str| analyzer.is_stop_word(w);
    // The bound `Source::execute` passes to a ranked query: default
    // sort and a cap.
    let answer = &query.answer;
    let bounded = answer.sort_by.as_slice() == [SortKey::score_descending()]
        && answer.max_documents != usize::MAX;
    let mut best = Replay {
        rewrite: f64::MAX,
        translate: f64::MAX,
        search: f64::MAX,
        execute: f64::MAX,
        execute_traced: f64::MAX,
    };
    let mut report = starts_index::PruneReport::default();
    for _ in 0..REPLAY_ROUNDS {
        // Warm the caches the way the timed `execute` below finds them,
        // so the phases are not charged for the previous round's
        // `execute_traced` (which walks every posting list).
        std::hint::black_box(source.execute(query));
        let t = Instant::now();
        let rewritten = rewrite_query(
            query,
            source.metadata(),
            &is_stop,
            analyzer.config().can_disable_stop_words,
        );
        best.rewrite = best.rewrite.min(ns(t));
        let t = Instant::now();
        let filter = rewritten
            .filter
            .as_ref()
            .map(|f| translate_filter_ext(f, analyzer));
        let ranking = rewritten
            .ranking
            .as_ref()
            .map(|r| translate_ranking_ext(r, analyzer));
        best.translate = best.translate.min(ns(t));
        let t = Instant::now();
        let (hits, _, prune) = engine.search_top_k_observed(
            filter.as_ref(),
            ranking.as_ref(),
            &SearchOptions {
                limit: (bounded && ranking.is_some()).then_some(answer.max_documents),
                min_score: answer.min_doc_score,
            },
        );
        best.search = best.search.min(ns(t));
        std::hint::black_box(hits);
        report = prune;
        let t = Instant::now();
        std::hint::black_box(source.execute(query));
        best.execute = best.execute.min(ns(t));
        let t = Instant::now();
        std::hint::black_box(source.execute_traced(query, Some(obs)));
        best.execute_traced = best.execute_traced.min(ns(t));
    }
    (best, report)
}

/// Where a span's self time goes in the layer table.
fn row_of(span: &str) -> &'static str {
    match span {
        "meta.plan" => "meta.plan_us",
        "meta.dispatch" | "meta.task" => "meta.dispatch_wait_us",
        "meta.merge" => "meta.merge_us",
        "obs.search" | "obs.task" => "obs.search_us",
        "soif.query_encode" => "soif.query_encode_us",
        "net.request" | "host.handler" => "net.exchange_us",
        "soif.query_parse" => "soif.query_parse_us",
        "soif.results_encode" => "soif.results_encode_us",
        "soif.results_parse" => "soif.results_parse_us",
        // Content-summary and metadata decode in the update step.
        "soif.summary_parse" => "soif.summary_parse_us",
        "soif.metadata_parse" => "soif.metadata_parse_us",
        "serve.search" => "serve.search_us",
        "serve.invalidate" => "serve.invalidate_us",
        // The update's own self time (the client's registry spans and the
        // gaps between its calls) is no single layer's.
        _ => "unattributed_us",
    }
}

/// Every row of the self-time table, in print order.
pub const ROWS: [&str; 19] = [
    "index.search_us",
    "source.rewrite_us",
    "source.translate_us",
    "source.assemble_us",
    "obs.execute_us",
    "obs.search_us",
    "soif.query_encode_us",
    "soif.query_parse_us",
    "soif.results_encode_us",
    "soif.results_parse_us",
    "soif.summary_parse_us",
    "soif.metadata_parse_us",
    "net.exchange_us",
    "meta.plan_us",
    "meta.dispatch_wait_us",
    "meta.merge_us",
    "serve.search_us",
    "serve.invalidate_us",
    "unattributed_us",
];

pub type Layers = BTreeMap<&'static str, (f64, &'static str)>;

/// Build the self-time table and the per-layer metrics from the spans.
fn analyse(world: &World, spans: &[trace::SpanRec], untraced: &[Sample], e2e: &EndToEnd) -> Traced {
    let path = trace::blocking_path(spans, "request", &["meta.dispatch", "serve.search"]);
    let requests = path.roots.max(1) as f64;
    let captures: HashMap<u64, (usize, Query)> =
        std::mem::take(&mut *CAPTURES.lock().expect("captures"))
            .into_iter()
            .map(|(id, source, q)| (id, (source, q)))
            .collect();
    let mut rows: BTreeMap<&'static str, f64> = ROWS.iter().map(|r| (*r, 0.0)).collect();
    let mut prune = starts_index::PruneReport::default();
    // One replay per distinct (source, query) on the blocking path.
    let mut coverage = (0.0, 0.0);
    let mut replays: HashMap<(usize, String), (Replay, starts_index::PruneReport)> = HashMap::new();
    for &(i, self_ns) in &path.self_ns {
        let span = &spans[i];
        let Some((source, query)) = captures
            .get(&span.id)
            .filter(|_| span.name == "source.execute_traced")
        else {
            *rows.get_mut(row_of(span.name)).expect("row") += self_ns as f64;
            continue;
        };
        let (r, p) = *replays
            .entry((*source, pipeline::normalized_query_key(query)))
            .or_insert_with(|| replay(&world.sources[*source], query, world.net.registry()));
        prune.merge(&p);
        // The replay's phase costs; what it does not account for of the
        // in-line call (waiting for a core, colder caches, a fresh
        // thread) stays unattributed, and `replay_coverage` says how much.
        let parts = [
            ("source.rewrite_us", r.rewrite),
            ("source.translate_us", r.translate),
            ("index.search_us", r.search),
            (
                "source.assemble_us",
                r.execute - r.rewrite - r.translate - r.search,
            ),
            ("obs.execute_us", r.execute_traced - r.execute),
            ("unattributed_us", self_ns as f64 - r.execute_traced),
        ];
        for (row, ns) in parts {
            *rows.get_mut(row).expect("row") += ns;
        }
        coverage.0 += r.execute_traced;
        coverage.1 += self_ns as f64;
    }
    let table: Vec<(&'static str, f64)> = rows
        .into_iter()
        .map(|(row, ns)| (row, ns / requests / 1e3))
        .collect();
    let traced_mean_us = path.total_ns as f64 / requests / 1e3;

    let mut layers: Layers = table.iter().map(|&(row, us)| (row, (us, "us"))).collect();
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let tally = std::mem::take(&mut *TALLY.lock().expect("tally"));
    let footprint: u64 = world
        .sources
        .iter()
        .map(|s| {
            let f = s.engine().postings_footprint();
            f.block_bytes + f.positional_bytes
        })
        .sum();
    let count = |k: Kind| untraced.iter().filter(|s| s.kind == k).count() as u64;
    let searches = untraced.iter().filter(|s| s.kind != Kind::Update).count() as u64;
    let p50_of = |k: Kind| {
        stats::summarize(
            &untraced
                .iter()
                .filter(|s| s.kind == k)
                .map(|s| s.lat_us)
                .collect::<Vec<_>>(),
        )
        .p50_us
    };
    let updates: Vec<f64> = untraced
        .iter()
        .filter(|s| s.kind == Kind::Update)
        .map(|s| s.lat_us)
        .collect();
    let extra: [(&'static str, f64, &'static str); 14] = [
        (
            "index.pruned_frac",
            frac(prune.skipped_docs, prune.candidates),
            "ratio",
        ),
        (
            "index.blocks_skipped_per_query",
            prune.blocks_skipped as f64 / requests,
            "count",
        ),
        ("index.postings_bytes", footprint as f64, "bytes"),
        (
            "index.build_docs_per_s",
            world.docs as f64 / world.build_s.max(1e-9),
            "1/s",
        ),
        (
            "soif.bytes_per_query",
            tally.bytes as f64 / requests,
            "bytes",
        ),
        (
            "meta.dup_frac",
            frac(tally.duplicates, tally.candidates),
            "ratio",
        ),
        (
            "meta.sources_per_query",
            tally.tasks as f64 / requests,
            "count",
        ),
        (
            "serve.hit_frac",
            frac(count(Kind::CacheHit), searches),
            "ratio",
        ),
        (
            "serve.coalesced_frac",
            frac(count(Kind::Coalesced), searches),
            "ratio",
        ),
        ("serve.executed_p50_us", p50_of(Kind::Executed), "us"),
        ("serve.hit_p50_us", p50_of(Kind::CacheHit), "us"),
        (
            "serve.update_us",
            updates.iter().fold(0.0, |a, b| a + b) / updates.len().max(1) as f64,
            "us",
        ),
        (
            "trace_overhead_frac",
            traced_mean_us / e2e.mean_latency_us.max(1e-9) - 1.0,
            "ratio",
        ),
        // The untraced tail: too noisy on a shared machine to bound, so
        // it is recorded here rather than among the end-to-end metrics.
        ("latency_p99_us", e2e.kept.latency.tail_us, "us"),
    ];
    for (name, value, unit) in extra {
        layers.insert(name, (value, unit));
    }
    Traced {
        layers,
        table,
        mean_us: traced_mean_us,
        replay_coverage: coverage.0 / f64::max(coverage.1, 1.0),
    }
}

/// `federated`: per pool query, `Metasearcher::search`'s merged list must
/// equal the full-sort `Merger::merge` prefix over its own per-source
/// inputs, and every recorded response (untraced and traced) must carry
/// that list's digest.
fn check_federated(meta: &Metasearcher<'_>, world: &World, samples: &[Sample]) -> (u64, u64) {
    let mut failures = 0u64;
    let mut expected = HashMap::new();
    for (q, query) in world.queries.iter().enumerate() {
        let resp = meta.search(query);
        let full = meta.config.merger.merge(&resp.per_source);
        if !checks::merge_matches_full_sort(&resp.merged, &full, K) {
            failures += 1;
        }
        expected.insert(q, checks::digest(&checks::ranked_merged(&resp.merged)));
    }
    finish_check(failures, &expected, samples, world.queries.len())
}

/// `source-large`: on a fixed sample, the wire answer must equal the
/// unbounded `ShardedEngine::search` truncated to `K`; every recorded
/// response must equal the post-window answer to its query.
fn check_source_large(
    client: &StartsClient<'_>,
    url: &str,
    world: &World,
    samples: &[Sample],
) -> (u64, u64) {
    let mut failures = 0u64;
    let mut expected = HashMap::new();
    // An oracle engine over the same documents as the wired source.
    let (docs_per_source, pool) = Workload::SourceLarge.sizes();
    let oracle_needed = world.queries.len().min(ORACLE_SAMPLE);
    let oracle = world.sources.first().cloned().unwrap_or_else(|| {
        let docs = inputs(docs_per_source, pool, world.seed).corpus.all_docs();
        Arc::new(Source::build(SourceConfig::new("Large"), &docs))
    });
    for (q, query) in world.queries.iter().enumerate() {
        let Ok(results) = client.query(url, query) else {
            failures += 1;
            continue;
        };
        let wire = checks::ranked_results(&results);
        if q < oracle_needed && !checks::topk_matches_oracle(&wire, &unbounded(&oracle, query), K) {
            failures += 1;
        }
        expected.insert(q, checks::digest(&wire));
    }
    finish_check(failures, &expected, samples, world.queries.len())
}

/// The unbounded engine answer to a query, as ranked (linkage, score):
/// the source's rewrite and translation, then `ShardedEngine::search`.
fn unbounded(source: &Source, query: &Query) -> Vec<Ranked> {
    let engine = source.engine();
    let analyzer = engine.analyzer();
    let rewritten = rewrite_query(
        query,
        source.metadata(),
        &|w: &str| analyzer.is_stop_word(w),
        analyzer.config().can_disable_stop_words,
    );
    let filter = rewritten
        .filter
        .as_ref()
        .map(|f| translate_filter_ext(f, analyzer));
    let ranking = rewritten
        .ranking
        .as_ref()
        .map(|r| translate_ranking_ext(r, analyzer));
    let linkage = engine.schema().get(Field::Linkage.name());
    engine
        .search(filter.as_ref(), ranking.as_ref())
        .iter()
        .map(|h| {
            let id = linkage
                .and_then(|f| engine.doc_field(h.doc, f))
                .unwrap_or_default();
            (id.to_string(), h.score.unwrap_or(f64::NAN).to_bits())
        })
        .collect()
}

/// `serve-mixed`: every served response must equal the direct
/// `Metasearcher::search` answer to its query, and invalidation must
/// take effect (see [`check_invalidation`]).
fn check_served(
    meta: &Metasearcher<'_>,
    server: &Server,
    world: &World,
    samples: &[Sample],
) -> (u64, u64) {
    let expected: HashMap<usize, u64> = world
        .queries
        .iter()
        .enumerate()
        .map(|(q, query)| {
            (
                q,
                checks::digest(&checks::ranked_merged(&meta.search(query).merged)),
            )
        })
        .collect();
    let failures = check_invalidation(server, world, &expected);
    finish_check(failures, &expected, samples, world.queries.len())
}

/// The sources never change during a run, so a stale cached response is
/// bit-identical to a fresh one and the response check alone cannot see
/// a lost invalidation. Single-threaded, per popular pool query: repeat
/// it until the cache serves it, invalidate a source it did not consult
/// (the cache must still serve it), then one it did (it must be
/// executed afresh). Every response must carry the reference digest.
/// Returns the violations.
fn check_invalidation(server: &Server, world: &World, expected: &HashMap<usize, u64>) -> u64 {
    let mut failures = 0u64;
    let served = |q: usize, via: Served| -> Option<Vec<String>> {
        let out = server.search(&world.queries[q]).ok()?;
        let digest = checks::digest(&checks::ranked_merged(&out.response.merged));
        if out.via != via || expected.get(&q) != Some(&digest) {
            return None;
        }
        Some(out.response.selected.clone())
    };
    for q in 0..world.queries.len().min(INVALIDATION_SAMPLE) {
        // The first search may execute; the second must hit.
        served(q, Served::Executed);
        let Some(selected) = served(q, Served::CacheHit) else {
            failures += 1;
            continue;
        };
        let ids = world.catalog.entries.iter().map(|e| &e.id);
        if let Some(other) = ids.clone().find(|id| !selected.contains(id)) {
            server.invalidate_source(other);
            failures += u64::from(served(q, Served::CacheHit).is_none());
        }
        server.invalidate_source(&selected[0]);
        failures += u64::from(served(q, Served::Executed).is_none());
    }
    failures
}

fn finish_check(
    failures: u64,
    expected: &HashMap<usize, u64>,
    samples: &[Sample],
    pool: usize,
) -> (u64, u64) {
    let observed: Vec<(usize, u64)> = samples
        .iter()
        .filter(|s| s.kind != Kind::Update && s.ok)
        .map(|s| (s.pool, s.digest))
        .collect();
    let mismatches = checks::responses_mismatching(&observed, expected) as u64;
    let digest = checks::fold((0..pool).map(|q| expected.get(&q).copied().unwrap_or(0)));
    (failures + mismatches, digest)
}
