//! The traced run (`--trace 1`): the workload's layers called in process
//! through their public functions, each call wrapped in a span, plus
//! one served pass whose execution and cache figures are scraped from
//! the server's own `metrics` verb. The traced run is separate from the
//! timed runs; its overhead is reported as the traced minus the untraced
//! time of the same in-process calls.

use crate::inputs;
use crate::oneshot;
use crate::proc::{Metrics, Server};
use crate::served::{self, motif, Batches, IngestSpec, REPEATS, SPAN, ZIPF_S};
use crate::{Ctx, Outcome};
use flowmotif_core::census::walk_census;
use flowmotif_core::dp::dp_top1_with;
use flowmotif_core::parallel::{
    par_count_instances_in_window, par_enumerate_all_with, par_enumerate_window, par_top_k_with,
    ParOptions,
};
use flowmotif_core::{AtomicTrace, SearchOptions, SearchScratch, TraceStage};
use flowmotif_graph::{io, Interaction, SegmentStore, TimeWindow};
use flowmotif_stream::{IncrementalGraph, SnapshotEngine, StandingQueries};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Every per-layer metric with its unit. A traced run prints all of
/// them; a layer the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("graph.io.parse_ms", "ms"),
    ("graph.io.records_per_s", "1/s"),
    ("graph.build_ms", "ms"),
    ("graph.segment.pack_ms", "ms"),
    ("graph.segment.open_ms", "ms"),
    ("core.p1_ms", "ms"),
    ("core.p1_matches", "count"),
    ("core.p2_ms", "ms"),
    ("core.p2_instances", "count"),
    ("core.p2_yield", "ratio"),
    ("core.dp_ms", "ms"),
    ("core.dp_windows", "count"),
    ("core.topk_ms", "ms"),
    ("core.census_ms", "ms"),
    ("core.delta_ms", "ms"),
    ("core.delta.matches_scanned", "count"),
    ("core.delta.events_per_match", "ratio"),
    ("stream.append_ms", "ms"),
    ("stream.publish.count", "count"),
    ("stream.publish.ms_sum", "ms"),
    ("stream.publish.ms_max", "ms"),
    ("stream.publish.dirty_share", "ratio"),
    ("stream.standing_ms", "ms"),
    ("stream.writer_graph_ms", "ms"),
    ("serve.count.exec_ms_mean", "ms"),
    ("serve.query.exec_ms_mean", "ms"),
    ("serve.add.exec_ms_mean", "ms"),
    ("serve.wire_ms_mean", "ms"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.busy", "count"),
    ("serve.events_pushed", "count"),
    ("serve.events_dropped", "count"),
    ("trace.overhead_ms", "ms"),
];

/// One recorded span: a call into a layer, with the span that caused it.
struct Span {
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
    parent: Option<usize>,
}

/// Spans kept in memory and written out when the run ends, plus the
/// metric values gathered at the same boundaries.
struct Trace {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl Trace {
    fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            values: PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and its
    /// duration in milliseconds.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> (T, f64) {
        let start = Instant::now();
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = (start - self.t0).as_nanos();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = Instant::now();
        self.spans[id].end_ns = (end - self.t0).as_nanos();
        (out, (end - start).as_secs_f64() * 1e3)
    }

    fn set(&mut self, name: &'static str, v: f64) {
        assert!(self.values.contains_key(name), "undeclared per-layer metric {name}");
        self.values.insert(name, v);
    }

    fn add(&mut self, name: &'static str, v: f64) {
        let cur = self.values.get(name).copied().unwrap_or(0.0);
        self.set(name, cur + v);
    }

    /// Folds a search trace's stage totals into the core metrics.
    fn add_stages(&mut self, t: &AtomicTrace) {
        self.add("core.p1_ms", t.nanos(TraceStage::P1) as f64 / 1e6);
        self.add("core.p1_matches", t.count(TraceStage::P1) as f64);
        self.add("core.p2_ms", t.nanos(TraceStage::P2) as f64 / 1e6);
        self.add("core.p2_instances", t.count(TraceStage::P2) as f64);
        self.add("core.dp_ms", t.nanos(TraceStage::Dp) as f64 / 1e6);
        self.add("core.dp_windows", t.count(TraceStage::Dp) as f64);
        let m = self.values["core.p1_matches"];
        if m > 0.0 {
            self.set("core.p2_yield", self.values["core.p2_instances"] / m);
        }
    }

    fn write_spans(&self, path: &std::path::Path) -> Result<(), String> {
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            )
            .map_err(|e| e.to_string())?;
        }
        f.flush().map_err(|e| e.to_string())
    }
}

/// A fresh, leaked trace sink (the search hook takes `&'static`; the
/// benchmark is a short-lived process).
fn sink() -> &'static AtomicTrace {
    Box::leak(Box::new(AtomicTrace::new()))
}

fn traced(t: &'static AtomicTrace) -> SearchOptions {
    SearchOptions::builder().trace(Some(t as _)).build()
}

fn serial() -> ParOptions {
    ParOptions::with_threads(1)
}

pub fn run(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    let mut tr = Trace::new();
    match workload {
        "oneshot-text" => oneshot_layers(ctx, &mut tr)?,
        "serve-query" => query_layers(ctx, &mut tr)?,
        "serve-ingest" => ingest_layers(ctx, &served::INGEST, &mut tr)?,
        _ => ingest_layers(ctx, &served::SUBSCRIBE, &mut tr)?,
    }
    let spans = ctx.work.join("spans.jsonl");
    tr.write_spans(&spans)?;
    println!("spans {} written to {}", tr.spans.len(), spans.display());
    print_layer_table(&tr.values);
    let metrics = PER_LAYER.iter().map(|(n, u)| (*n, tr.values[n], *u)).collect();
    for (n, u) in PER_LAYER {
        println!("{n} {} {u}", tr.values[n]);
    }
    Ok(Outcome { attempted: tr.attempted.max(1), failed: tr.failed, consistent: true, metrics })
}

/// The ROADMAP's layer split, from this run's figures.
fn print_layer_table(v: &BTreeMap<&str, f64>) {
    let rows = [
        ("load/parse", v["graph.io.parse_ms"]),
        (
            "build/pack",
            v["graph.build_ms"] + v["graph.segment.pack_ms"] + v["graph.segment.open_ms"],
        ),
        ("P1", v["core.p1_ms"]),
        ("P2", v["core.p2_ms"]),
        ("DP", v["core.dp_ms"]),
        ("publish", v["stream.publish.ms_sum"]),
        ("queue+wire (mean)", v["serve.wire_ms_mean"]),
    ];
    println!("layer table (ms):");
    for (name, ms) in rows {
        println!("  {name:<18} {ms:>12.3}");
    }
}

/// The in-process calls behind the one-shot session: read, build, and
/// the four searches.
fn oneshot_session(path: &std::path::Path, tr: &mut Trace, trace: bool) -> Result<(), String> {
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let (builder, parse_ms) = tr.span("graph.io.read_edge_list", |_| {
        io::read_edge_list(std::io::BufReader::new(file)).map_err(|e| e.to_string())
    });
    let builder = builder?;
    let records = builder.num_interactions() as f64;
    let (g, build_ms) = tr.span("graph.builder.build", |_| builder.build_time_series_graph());
    let t = sink();
    let opts = if trace { traced(t) } else { SearchOptions::default() };
    let (_, _) = tr.span("core.find", |_| {
        par_enumerate_all_with(&g, &motif("M(3,3)", 3600, 5.0), opts, serial())
    });
    let (_, topk_ms) = tr
        .span("core.topk", |_| par_top_k_with(&g, &motif("M(3,2)", 600, 0.0), 10, opts, serial()));
    let (best, _) = tr.span("core.top1", |_| {
        dp_top1_with(&g, &motif("M(3,3)", 600, 0.0), opts, &mut SearchScratch::default())
    });
    let (_, census_ms) = tr.span("core.census", |_| walk_census(&g, 2, 600, 0.0));
    tr.attempted += 4;
    tr.failed += u64::from(best.0.is_none());
    if trace {
        tr.set("graph.io.parse_ms", parse_ms);
        tr.set("graph.io.records_per_s", records / (parse_ms / 1e3));
        tr.set("graph.build_ms", build_ms);
        tr.set("core.topk_ms", topk_ms);
        tr.set("core.census_ms", census_ms);
        tr.add_stages(t);
    }
    Ok(())
}

fn oneshot_layers(ctx: &Ctx, tr: &mut Trace) -> Result<(), String> {
    let mg = inputs::bitcoin(oneshot::SCALE, ctx.seed);
    let path = ctx.work.join("edges.txt");
    println!("{}", inputs::write_edge_list(&mg, &path).map_err(|e| e.to_string())?.describe());
    drop(mg);
    let (r, plain_ms) = tr.span("session.untraced", |tr| oneshot_session(&path, tr, false));
    r?;
    let (r, traced_ms) = tr.span("session.traced", |tr| oneshot_session(&path, tr, true));
    r?;
    tr.set("trace.overhead_ms", traced_ms - plain_ms);
    Ok(())
}

/// Folds a served pass into the `serve.*` metrics: per-verb execution
/// means from the server's histograms, and the wire share as the client's
/// total round-trip time minus the server's total execution time, per
/// request.
fn scrape(tr: &mut Trace, m: &Metrics, client_ms: f64, verbs: &[&str]) {
    const H: &str = "flowmotif_serve_request_duration_seconds";
    tr.set("serve.count.exec_ms_mean", m.hist_mean_ms(H, "count"));
    tr.set("serve.query.exec_ms_mean", m.hist_mean_ms(H, "query"));
    tr.set("serve.add.exec_ms_mean", m.hist_mean_ms(H, "add"));
    let (mut n, mut exec_ms) = (0.0, 0.0);
    for v in verbs {
        let c = m.get(&format!("{H}_count{{verb=\"{v}\"}}"));
        n += c;
        exec_ms += m.hist_mean_ms(H, v) * c;
    }
    if n > 0.0 {
        tr.set("serve.wire_ms_mean", (client_ms - exec_ms) / n);
    }
    let hits = m.get("flowmotif_serve_cache_hits_total");
    let misses = m.get("flowmotif_serve_cache_misses_total");
    tr.set("serve.cache.hits", hits);
    tr.set("serve.cache.misses", misses);
    if hits + misses > 0.0 {
        tr.set("serve.cache.hit_ratio", hits / (hits + misses));
    }
    tr.set("serve.busy", m.get("flowmotif_serve_busy_total"));
    tr.set("serve.events_pushed", m.get("flowmotif_serve_events_pushed_total"));
    tr.set("serve.events_dropped", m.get("flowmotif_serve_events_dropped_total"));
}

/// The distinct reads of the served mix, in process on the segment.
fn pool_reads(store: &SegmentStore, pool: &[inputs::ReadRequest], t: Option<&'static AtomicTrace>) {
    let opts = t.map_or_else(SearchOptions::default, traced);
    for r in pool {
        let m = motif(r.motif, r.delta, r.phi);
        let w = TimeWindow::new(r.from, r.to);
        if r.count {
            par_count_instances_in_window(store, &m, w, opts, serial());
        } else {
            par_enumerate_window(store, &m, w, opts, serial());
        }
    }
}

fn query_layers(ctx: &Ctx, tr: &mut Trace) -> Result<(), String> {
    let mg = inputs::bitcoin(served::QUERY_SCALE, ctx.seed);
    let path = ctx.work.join("edges.txt");
    println!("{}", inputs::write_edge_list(&mg, &path).map_err(|e| e.to_string())?.describe());
    drop(mg);
    let file = std::fs::File::open(&path).map_err(|e| e.to_string())?;
    let (b, parse_ms) = tr.span("graph.io.read_edge_list", |_| {
        io::read_edge_list(std::io::BufReader::new(file)).map_err(|e| e.to_string())
    });
    tr.set("graph.io.parse_ms", parse_ms);
    tr.set("graph.io.records_per_s", b?.num_interactions() as f64 / (parse_ms / 1e3));
    let seg = crate::proc::fresh_dir(ctx.work.join("seg"))?;
    let (r, pack_ms) =
        tr.span("graph.segment.pack", |_| flowmotif_graph::pack_edge_list(&path, &seg, 1 << 20));
    r.map_err(|e| format!("packing: {e}"))?;
    tr.set("graph.segment.pack_ms", pack_ms);
    let (store, open_ms) = tr.span("graph.segment.open", |_| {
        let s = SegmentStore::open(&seg);
        if let Ok(s) = &s {
            s.prefetch();
        }
        s
    });
    let store = store.map_err(|e| format!("opening segment: {e}"))?;
    tr.set("graph.segment.open_ms", open_ms);

    let pool = inputs::read_pool(SPAN, ctx.seed);
    let ((), plain_ms) = tr.span("core.reads.untraced", |_| pool_reads(&store, &pool, None));
    let t = sink();
    let ((), traced_ms) = tr.span("core.reads.traced", |_| pool_reads(&store, &pool, Some(t)));
    tr.add_stages(t);
    tr.set("trace.overhead_ms", traced_ms - plain_ms);
    tr.attempted += 2 * pool.len() as u64;
    drop(store);

    // One served pass over the same segment.
    let seq = inputs::read_sequence(pool.len(), REPEATS, ZIPF_S, ctx.seed);
    let mut server = Server::start(&ctx.bin, Some(&seg))?;
    let (client_ms, _) = tr.span("serve.pass", |tr| -> Result<f64, String> {
        let mut total = 0.0;
        for &i in &seq {
            let t = Instant::now();
            let reply = server.send(&pool[i].line())?;
            total += t.elapsed().as_secs_f64() * 1e3;
            tr.attempted += 1;
            tr.failed += u64::from(!reply.is_ok());
        }
        Ok(total)
    });
    let client_ms = client_ms?;
    let m = server.metrics()?;
    scrape(tr, &m, client_ms, &["count", "query"]);
    Ok(())
}

/// Replays the stream through [`SnapshotEngine::append_standing`] at the
/// server's publish period. Traced, each call is timed and every publish
/// it triggered is read back from the engine's publish report.
fn replay(edges: &[Interaction], spec: &IngestSpec, tr: Option<&mut Trace>) -> Result<(), String> {
    let engine = SnapshotEngine::new().publish_every(1024);
    let mut subs = StandingQueries::new();
    if let Some(sub) = &spec.subscribe {
        engine.subscribe_standing(&mut subs, sub.motif(), Some(sub.window()));
    }
    let mut out = Vec::new();
    let add = |i: &Interaction, subs: &mut StandingQueries, out: &mut Vec<_>| {
        engine
            .append_standing(i.from, i.to, i.time, i.flow, subs, out)
            .map(|_| ())
            .map_err(|e| format!("replaying add: {e}"))
    };
    let Some(tr) = tr else {
        return edges.iter().try_for_each(|i| add(i, &mut subs, &mut out));
    };
    let (mut total_ms, mut publishes, mut publish_ms, mut publish_max) = (0.0, 0.0, 0.0, 0.0f64);
    let (mut dirty, mut resident) = (0.0, 0.0);
    let mut epoch = engine.published_epoch();
    for i in edges {
        let t = Instant::now();
        add(i, &mut subs, &mut out)?;
        total_ms += t.elapsed().as_secs_f64() * 1e3;
        if engine.published_epoch() != epoch {
            epoch = engine.published_epoch();
            let report = engine.publish_report();
            let ms = report.duration.as_secs_f64() * 1e3;
            publishes += 1.0;
            publish_ms += ms;
            publish_max = publish_max.max(ms);
            dirty += report.dirty_pairs as f64;
            resident += engine.stats().pairs as f64;
        }
    }
    tr.attempted += edges.len() as u64;
    let own = if spec.subscribe.is_some() { "stream.standing_ms" } else { "stream.append_ms" };
    tr.set(own, total_ms - publish_ms);
    tr.set("stream.publish.count", publishes);
    tr.set("stream.publish.ms_sum", publish_ms);
    tr.set("stream.publish.ms_max", publish_max);
    if resident > 0.0 {
        tr.set("stream.publish.dirty_share", dirty / resident);
    }
    Ok(())
}

/// The standing-query layers taken apart: the writer-graph
/// materialisation every delta needs, and the delta evaluation itself.
fn delta_layers(
    edges: &[Interaction],
    sub: &served::Standing,
    tr: &mut Trace,
) -> Result<(), String> {
    let mut inc = IncrementalGraph::new();
    let mut subs = StandingQueries::new();
    subs.subscribe(inc.graph(), sub.motif(), Some(sub.window()));
    let (mut graph_ms, mut delta_ms) = (0.0, 0.0);
    let mut out = Vec::new();
    for i in edges {
        inc.try_append(i.from, i.to, i.time, i.flow).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let g = inc.graph();
        graph_ms += t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        subs.on_append(g, i.from, i.to, i.time, &mut out);
        delta_ms += t.elapsed().as_secs_f64() * 1e3;
    }
    let ds = subs.iter().next().expect("one subscription").delta_stats();
    tr.set("stream.writer_graph_ms", graph_ms);
    tr.set("core.delta_ms", delta_ms);
    tr.set("core.delta.matches_scanned", ds.matches_scanned as f64);
    if ds.matches_scanned > 0 {
        tr.set(
            "core.delta.events_per_match",
            ds.instances_emitted as f64 / ds.matches_scanned as f64,
        );
    }
    tr.attempted += edges.len() as u64;
    Ok(())
}

fn ingest_layers(ctx: &Ctx, spec: &IngestSpec, tr: &mut Trace) -> Result<(), String> {
    let mg = inputs::bitcoin(spec.scale, ctx.seed);
    let edges = inputs::time_sorted(&mg);
    let b = Batches::of(&edges);
    served::print_stream_input(&b.adds);
    // The untraced replay doubles as the warm-up.
    let (r, plain_ms) = tr.span("stream.replay.untraced", |_| replay(&edges, spec, None));
    r?;
    let (r, traced_ms) = tr.span("stream.replay.traced", |tr| replay(&edges, spec, Some(tr)));
    r?;
    tr.set("trace.overhead_ms", traced_ms - plain_ms);
    if let Some(sub) = &spec.subscribe {
        let (r, _) = tr.span("stream.standing.delta", |tr| delta_layers(&edges, sub, tr));
        r?;
    }

    // One served pass of the same stream.
    let mut server = Server::start(&ctx.bin, None)?;
    if let Some(sub) = &spec.subscribe {
        let r = server.send(&sub.line())?;
        tr.failed += u64::from(!r.is_ok());
    }
    let (p, _) = tr.span("serve.pass", |_| served::stream(&mut server, &b.adds, &b.reads));
    let p = p?;
    server.send("ping")?;
    tr.attempted += p.attempted;
    tr.failed += p.failed;
    let client_ms = p.ack_ms.iter().sum::<f64>() + p.read_ms.iter().sum::<f64>();
    let m = server.metrics()?;
    scrape(tr, &m, client_ms, &["add", "count"]);
    Ok(())
}
