//! The served workloads: `flowmotif serve` as a child process, driven by
//! one single-threaded client on one connection in a closed loop (each
//! request waits for its reply before the next is sent).

use crate::inputs::{self, ReadRequest};
use crate::proc::{fresh_dir, run_command, Metrics, Server};
use crate::stats::{median, tail, timed_metrics, Tail};
use crate::{another_pass_fits, Ctx, Outcome};
use flowmotif_core::parallel::{
    par_count_instances_in_window, par_count_instances_with, ParOptions,
};
use flowmotif_core::{catalog, Motif, SearchOptions};
use flowmotif_graph::{Interaction, TimeSeriesGraph, TimeWindow};
use flowmotif_stream::{SnapshotEngine, StandingEvent, StandingQueries};
use std::time::Instant;

/// `serve-query` input: the same network as `oneshot-text`, served
/// read-only from a packed segment.
pub const QUERY_SCALE: f64 = crate::oneshot::SCALE;
/// Zipf-skewed repeats sent on top of one first occurrence per request.
pub const REPEATS: usize = 1200;
pub const ZIPF_S: f64 = 1.1;
/// Generator time span at every scale.
pub const SPAN: i64 = 2500;
/// Set-ups (`pack` plus a server start) timed for the set-up median.
const QUERY_SETUPS: usize = 3;

fn tail_line(name: &str, t: Tail) -> String {
    format!("{name} p{} {:.4} ms ({} samples)", t.pct, t.value, t.samples)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `serve-query`: a read-only mix of window-bounded `count`/`query`
/// requests against a packed segment, all in one epoch. A request's
/// first occurrence is pure P1/P2 search over the mapped segment; its
/// repeats are answered by the result cache on the event loop. Parsing
/// and publish stay out of the timed part.
pub fn query(ctx: &Ctx) -> Result<Outcome, String> {
    let mg = inputs::bitcoin(QUERY_SCALE, ctx.seed);
    let file = ctx.work.join("edges.txt");
    let input = inputs::write_edge_list(&mg, &file).map_err(|e| format!("writing input: {e}"))?;
    println!("{}", input.describe());
    // Fewer distinct requests than the server's default 1024-entry result
    // cache, so every repeat in one epoch is a hit.
    let pool = inputs::read_pool(SPAN, ctx.seed);
    let seq = inputs::read_sequence(pool.len(), REPEATS, ZIPF_S, ctx.seed);
    let lines: Vec<String> = seq.iter().map(|&i| pool[i].line()).collect();
    println!(
        "input requests n={} distinct={} fnv64={:016x}",
        lines.len(),
        pool.len(),
        inputs::fnv64(lines.join("\n").as_bytes())
    );
    let first = inputs::first_occurrences(&seq);
    let file = file.to_str().ok_or("non-UTF-8 work path")?;
    std::fs::read(file).map_err(|e| format!("reading input: {e}"))?;

    let g = inputs::graph_of(&mg);
    let expected: Vec<u64> =
        pool.iter().map(|r| reference_count(&g, r)).collect::<Result<_, _>>()?;
    drop(g);

    // Set-up: pack the edge list and start a server over the segment,
    // until the first `ping` is answered; the median of a few.
    let seg = ctx.work.join("seg");
    let seg_arg = seg.to_str().ok_or("non-UTF-8 work path")?;
    let mut setup = Vec::new();
    for _ in 0..QUERY_SETUPS {
        fresh_dir(seg.clone())?;
        let pack = run_command(&ctx.bin, &["pack", file, "--out", seg_arg])?;
        let server = Server::start(&ctx.bin, Some(&seg))?;
        setup.push(pack.wall.as_secs_f64() + server.startup.as_secs_f64());
    }

    let served = Served { ctx, seg: &seg, lines: &lines, seq: &seq, expected: &expected };
    // The first pass is the discarded warm-up.
    let warm = served.pass(&first)?;
    let (mut attempted, mut failed, mut consistent) =
        (warm.attempted, warm.failed, warm.consistent);
    let (mut peaks, mut passes) = (Vec::new(), Vec::new());
    let (mut cold, mut repeat) = (Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let p = served.pass(&first)?;
        attempted += p.attempted;
        failed += p.failed;
        consistent &= p.consistent;
        peaks.push(p.peak_mb);
        for (l, &f) in p.lat.iter().zip(&first) {
            if f {
                cold.push(*l)
            } else {
                repeat.push(*l)
            }
        }
        passes.push((p.pass_s, p.lat));
        if !another_pass_fits(started, t, ctx.seconds) {
            break;
        }
    }

    let timed: Vec<(f64, &[f64])> = passes.iter().map(|(s, lat)| (*s, &lat[..])).collect();
    let [pass_s, op_mean, op_tail] = timed_metrics(&timed);
    println!(
        "setup_s {:.4} s (pack + start to first ping, median of {})",
        median(&setup),
        setup.len()
    );
    println!("query_ms_p50 {:.4} ms ({} first occurrences)", median(&cold), cold.len());
    println!("{}", tail_line("query_ms", tail(&cold)));
    println!("repeat_ms_p50 {:.4} ms ({} repeats)", median(&repeat), repeat.len());
    println!("queries_per_s {:.2} 1/s over {} passes", seq.len() as f64 / pass_s.1, passes.len());
    let metrics = vec![
        ("setup_s", median(&setup), "s"),
        ("peak_rss_mb", median(&peaks), "MB"),
        pass_s,
        op_mean,
        op_tail,
    ];
    Ok(Outcome { attempted, failed, consistent, metrics })
}

/// One `serve-query` pass: start a server over the packed segment (so
/// the pass begins with a cold cache) and send the sequence. Only the
/// sequence is timed; the start was timed as set-up.
struct Served<'a> {
    ctx: &'a Ctx,
    seg: &'a std::path::Path,
    lines: &'a [String],
    seq: &'a [usize],
    expected: &'a [u64],
}

struct QueryPass {
    pass_s: f64,
    peak_mb: f64,
    lat: Vec<f64>,
    attempted: u64,
    failed: u64,
    consistent: bool,
}

impl Served<'_> {
    fn pass(&self, first: &[bool]) -> Result<QueryPass, String> {
        let mut server = Server::start(&self.ctx.bin, Some(self.seg))?;
        let before = server.metrics()?;
        let mut lat = Vec::with_capacity(self.seq.len());
        let mut failed = 0;
        let started = Instant::now();
        for (line, &idx) in self.lines.iter().zip(self.seq) {
            let t = Instant::now();
            let reply = server.send(line)?;
            lat.push(ms(t));
            if answer_of(&reply.status) != Some(self.expected[idx]) {
                eprintln!(
                    "wrong answer to `{line}`: `{}` (want {})",
                    reply.status, self.expected[idx]
                );
                failed += 1;
            }
        }
        let pass_s = started.elapsed().as_secs_f64();
        let agrees = cache_agrees(&before, &server.metrics()?, first);
        if let Err(e) = &agrees {
            eprintln!("{e}");
        }
        Ok(QueryPass {
            pass_s,
            peak_mb: server.peak_mb()?,
            lat,
            attempted: self.seq.len() as u64,
            failed,
            consistent: agrees.is_ok(),
        })
    }
}

/// The instance count of a `count` or `query` status line.
pub fn answer_of(status: &str) -> Option<u64> {
    status
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("count=").or_else(|| kv.strip_prefix("instances=")))?
        .parse()
        .ok()
}

/// Checks the first/repeat classification of a pass against the server's
/// own cache counters, scraped before and after it: every first
/// occurrence must have missed the cache and every repeat hit it.
pub fn cache_agrees(before: &Metrics, after: &Metrics, first: &[bool]) -> Result<(), String> {
    let delta = |series| after.get(series) - before.get(series);
    let hits = delta("flowmotif_serve_cache_hits_total");
    let misses = delta("flowmotif_serve_cache_misses_total");
    let firsts = first.iter().filter(|&&f| f).count() as f64;
    if hits == first.len() as f64 - firsts && misses == firsts {
        Ok(())
    } else {
        Err(format!("cache counters hits={hits} misses={misses} disagree with {firsts} firsts"))
    }
}

/// The in-process answer to one read: its instance count.
pub fn reference_count(g: &TimeSeriesGraph, r: &ReadRequest) -> Result<u64, String> {
    let motif = catalog::parse_motif(r.motif, r.delta, r.phi).map_err(|e| e.to_string())?;
    let window = TimeWindow::new(r.from, r.to);
    let serial = ParOptions::with_threads(1);
    Ok(par_count_instances_in_window(g, &motif, window, SearchOptions::default(), serial).0)
}

/// A streamed-ingest workload: an empty heap server at its default
/// auto-publish period, fed a time-sorted edge list as pipelined `add`
/// batches, with one `count` over the newest window after each batch.
pub struct IngestSpec {
    pub scale: f64,
    /// A standing query registered before the stream.
    pub subscribe: Option<Standing>,
}

/// A standing query: motif, δ, ϕ and a closed time window.
pub struct Standing {
    pub motif: &'static str,
    pub delta: i64,
    pub phi: f64,
    pub from: i64,
    pub to: i64,
}

impl Standing {
    pub fn line(&self) -> String {
        format!("subscribe {} {} {} {} {}", self.motif, self.delta, self.phi, self.from, self.to)
    }

    pub fn motif(&self) -> Motif {
        motif(self.motif, self.delta, self.phi)
    }

    pub fn window(&self) -> TimeWindow {
        TimeWindow::new(self.from, self.to)
    }
}

/// `serve-ingest`: the write path — append, the heap publish every 1024
/// adds (O(resident pairs)), and parsing of `add` lines. ≈56k adds per
/// pass, so one run holds several passes. Reads after each batch see a
/// new window, and every publish changes the cache key.
pub const INGEST: IngestSpec = IngestSpec { scale: 8.0, subscribe: None };

/// `serve-subscribe`: the same stream at ≈7k adds with one standing
/// query — the only path through the standing-query layer and delta
/// evaluation. Kept small because with a subscription every add on a new
/// pair rebuilds the writer graph, which is quadratic over the stream.
/// The window admits only the stream's first 2%.
pub const SUBSCRIBE: IngestSpec = IngestSpec {
    scale: 1.0,
    subscribe: Some(Standing { motif: "M(3,2)", delta: 600, phi: 0.0, from: 0, to: 50 }),
};

/// `add` requests per pipelined batch.
pub const BATCH: usize = 128;
/// The newest-window read after each batch: M(3,2), δ = 60, over the
/// batch's time range plus this much before it.
pub const READ_BACK: i64 = 30;
/// Server starts timed for the set-up median, besides the two of the
/// warm-up and the measured pass.
const EXTRA_STARTS: usize = 19;
/// Share of the batches streamed by the discarded warm-up.
const WARMUP_SHARE: usize = 8;

fn read_line(batch: &[Interaction]) -> String {
    let (first, last) = (batch[0].time, batch[batch.len() - 1].time);
    format!("count M(3,2) 60 0 {} {last}", first - READ_BACK)
}

/// The final whole-graph read compared against a batch build.
const FULL_READ: &str = "count M(3,2) 600 0";

pub fn motif(spec: &str, delta: i64, phi: f64) -> Motif {
    catalog::parse_motif(spec, delta, phi).expect("catalog motif")
}

/// What one streamed pass saw.
pub struct StreamPass {
    pub pass_s: f64,
    pub ack_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    /// Status line of every newest-window read, in order.
    pub reads: Vec<String>,
    pub events: Vec<String>,
    pub final_count: String,
    pub attempted: u64,
    pub failed: u64,
}

/// A time-sorted stream cut into `add` batches, each with the
/// newest-window read sent after it.
pub struct Batches<'a> {
    pub chunks: Vec<&'a [Interaction]>,
    pub adds: Vec<Vec<String>>,
    pub reads: Vec<String>,
}

impl<'a> Batches<'a> {
    pub fn of(edges: &'a [Interaction]) -> Batches<'a> {
        let chunks: Vec<&[Interaction]> = edges.chunks(BATCH).collect();
        Batches {
            adds: chunks.iter().map(|c| c.iter().map(inputs::add_line).collect()).collect(),
            reads: chunks.iter().map(|c| read_line(c)).collect(),
            chunks,
        }
    }
}

/// Streams `batches` into `server`, each followed by its newest-window
/// read; `ERR`/`BUSY` replies count as failed.
pub fn stream(
    server: &mut Server,
    batches: &[Vec<String>],
    reads: &[String],
) -> Result<StreamPass, String> {
    let mut p = StreamPass {
        pass_s: 0.0,
        ack_ms: Vec::with_capacity(batches.len()),
        read_ms: Vec::with_capacity(batches.len()),
        reads: Vec::with_capacity(batches.len()),
        events: Vec::new(),
        final_count: String::new(),
        attempted: 0,
        failed: 0,
    };
    let started = Instant::now();
    for (batch, read) in batches.iter().zip(reads) {
        let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        let t = Instant::now();
        let replies = server.client.send_batch(&refs).map_err(|e| format!("add batch: {e}"))?;
        p.ack_ms.push(ms(t));
        for r in replies {
            p.attempted += 1;
            p.failed += u64::from(!r.is_ok());
            p.events.extend(r.events);
        }
        let t = Instant::now();
        let r = server.send(read)?;
        p.read_ms.push(ms(t));
        p.attempted += 1;
        p.failed += u64::from(!r.is_ok());
        p.events.extend(r.events);
        p.reads.push(r.status);
    }
    p.pass_s = started.elapsed().as_secs_f64();
    Ok(p)
}

/// Prints the stream's size and content hash.
pub fn print_stream_input(batches: &[Vec<String>]) {
    let text: String = batches.iter().flatten().map(|l| format!("{l}\n")).collect();
    println!(
        "input stream adds={} batches={} fnv64={:016x}",
        batches.iter().map(Vec::len).sum::<usize>(),
        batches.len(),
        inputs::fnv64(text.as_bytes())
    );
}

pub fn ingest(ctx: &Ctx, spec: &IngestSpec) -> Result<Outcome, String> {
    let mg = inputs::bitcoin(spec.scale, ctx.seed);
    let edges = inputs::time_sorted(&mg);
    let Batches { chunks, adds: batches, reads } = Batches::of(&edges);
    print_stream_input(&batches);

    let mut setup = Vec::new();
    for _ in 0..EXTRA_STARTS {
        setup.push(Server::start(&ctx.bin, None)?.startup.as_secs_f64());
    }
    // Discarded warm-up over the first stretch of the stream.
    let warm = batches.len() / WARMUP_SHARE;
    let mut server = Server::start(&ctx.bin, None)?;
    setup.push(server.startup.as_secs_f64());
    let w = stream(&mut server, &batches[..warm], &reads[..warm])?;
    drop(server);

    let mut passes = Vec::new();
    let mut peaks = Vec::new();
    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = (w.attempted, w.failed);
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let mut server = Server::start(&ctx.bin, None)?;
        setup.push(server.startup.as_secs_f64());
        if let Some(sub) = &spec.subscribe {
            let r = server.send(&sub.line())?;
            attempted += 1;
            failed += u64::from(r.status != "OK subscribed id=1");
        }
        let mut p = stream(&mut server, &batches, &reads)?;
        // Publish the tail, read the whole graph, and flush any events
        // still queued behind the last reply.
        for line in ["publish", FULL_READ, "ping"] {
            let r = server.send(line)?;
            p.attempted += 1;
            p.failed += u64::from(!r.is_ok());
            p.events.extend(r.events);
            if line == FULL_READ {
                p.final_count = r.status;
            }
        }
        peaks.push(server.peak_mb()?);
        metrics.push(server.metrics()?);
        drop(server);
        attempted += p.attempted;
        failed += p.failed;
        passes.push(p);
        if !another_pass_fits(started, t, ctx.seconds) {
            break;
        }
    }

    // Untimed reference: the same adds replayed in process through the
    // same engine type at the same publish period, so every read has an
    // exact expected status line; plus a batch build of the whole stream.
    let reference = replay(&chunks, spec.subscribe.as_ref())?;
    let g = inputs::graph_of(&mg);
    let serial = ParOptions::with_threads(1);
    let full =
        par_count_instances_with(&g, &motif("M(3,2)", 600, 0.0), SearchOptions::default(), serial)
            .0;
    let mut consistent = true;
    for (i, p) in passes.iter().enumerate() {
        let wrong = p.reads.iter().zip(&reference.reads).filter(|(a, b)| a != b).count();
        if wrong > 0 {
            eprintln!("pass {i}: {wrong} newest-window reads disagree with the replay");
        }
        failed += wrong as u64;
        if !p.final_count.starts_with(&format!("OK count={full} ")) {
            eprintln!("pass {i}: final `{}` but the batch build counts {full}", p.final_count);
            failed += 1;
        }
        let mut got = p.events.clone();
        got.sort();
        if got != reference.events {
            eprintln!(
                "pass {i}: {} events pushed, {} in the replay (or they differ)",
                got.len(),
                reference.events.len()
            );
            consistent = false;
        }
    }
    let dropped: f64 = metrics.iter().map(|m| m.get("flowmotif_serve_events_dropped_total")).sum();
    if dropped > 0.0 {
        eprintln!("{dropped} events dropped");
        consistent = false;
    }
    if spec.subscribe.is_some() {
        println!("events pushed {} per pass", reference.events.len());
    }

    let acks: Vec<f64> = passes.iter().flat_map(|p| p.ack_ms.iter().copied()).collect();
    let reads_ms: Vec<f64> = passes.iter().flat_map(|p| p.read_ms.iter().copied()).collect();
    let timed: Vec<(f64, &[f64])> = passes.iter().map(|p| (p.pass_s, &p.ack_ms[..])).collect();
    let [pass_s, op_mean, op_tail] = timed_metrics(&timed);
    println!("setup_s {:.4} s (start to first ping, median of {})", median(&setup), setup.len());
    println!("ingest_per_s {:.1} 1/s over {} passes", edges.len() as f64 / pass_s.1, passes.len());
    println!("ack_ms_p50 {:.4} ms ({} batches of {BATCH})", median(&acks), acks.len());
    println!("{}", tail_line("ack_ms", tail(&acks)));
    println!("query_ms_p50 {:.4} ms ({} newest-window reads)", median(&reads_ms), reads_ms.len());
    println!("{}", tail_line("query_ms", tail(&reads_ms)));
    let metrics = vec![
        ("setup_s", median(&setup), "s"),
        ("peak_rss_mb", median(&peaks), "MB"),
        pass_s,
        op_mean,
        op_tail,
    ];
    Ok(Outcome { attempted, failed, consistent, metrics })
}

/// The expected replies of a streamed pass.
pub struct Replay {
    pub reads: Vec<String>,
    /// Rendered `EVENT` payloads, sorted.
    pub events: Vec<String>,
}

/// Replays the stream through an in-process [`SnapshotEngine`] with the
/// server's default publish period, answering each newest-window read on
/// the snapshot the server would have published at that point.
pub fn replay(chunks: &[&[Interaction]], subscribe: Option<&Standing>) -> Result<Replay, String> {
    let engine = SnapshotEngine::new().publish_every(1024);
    let mut subs = StandingQueries::new();
    if let Some(sub) = subscribe {
        engine.subscribe_standing(&mut subs, sub.motif(), Some(sub.window()));
    }
    let read_motif = motif("M(3,2)", 60, 0.0);
    let mut out: Vec<StandingEvent> = Vec::new();
    let mut expected = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        for i in chunk.iter() {
            engine
                .append_standing(i.from, i.to, i.time, i.flow, &mut subs, &mut out)
                .map_err(|e| format!("replaying add: {e}"))?;
        }
        let window = TimeWindow::new(chunk[0].time - READ_BACK, chunk[chunk.len() - 1].time);
        let snap = engine.snapshot();
        let (n, st) = snap.count(&read_motif, Some(window));
        expected.push(format!(
            "OK count={n} matches={} epoch={}",
            st.structural_matches,
            snap.epoch()
        ));
    }
    let mut events: Vec<String> = out.iter().map(|e| e.to_string()).collect();
    events.sort();
    Ok(Replay { reads: expected, events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmotif_serve::{Client, ServerConfig};
    use std::sync::Arc;

    /// Drives a generated request sequence through an in-process server
    /// over a real socket: the first/repeat classification must match the
    /// server's cache counters, and the reference must match every reply.
    #[test]
    fn classification_matches_the_servers_cache_counters() {
        let mg = inputs::bitcoin(0.5, 3);
        let engine = Arc::new(SnapshotEngine::new());
        engine.ingest(mg.interactions().iter().map(|i| (i.from, i.to, i.time, i.flow))).unwrap();
        engine.publish();
        let server =
            flowmotif_serve::Server::start(engine, ServerConfig::default(), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let pool = inputs::read_pool(SPAN, 3);
        let seq = inputs::read_sequence(pool.len(), 100, ZIPF_S, 3);
        let first = inputs::first_occurrences(&seq);
        let g = inputs::graph_of(&mg);
        let before = Metrics::fetch(&mut client).unwrap();
        for &i in &seq {
            let reply = client.send(&pool[i].line()).unwrap();
            assert_eq!(answer_of(&reply.status), Some(reference_count(&g, &pool[i]).unwrap()));
        }
        let after = Metrics::fetch(&mut client).unwrap();
        cache_agrees(&before, &after, &first).unwrap();
        assert_eq!(after.get("flowmotif_serve_cache_misses_total"), pool.len() as f64);

        // A misclassified sequence is caught.
        let mut wrong = first.clone();
        let repeat = wrong.iter().position(|f| !f).unwrap();
        wrong[repeat] = true;
        assert!(cache_agrees(&before, &after, &wrong).is_err());
        server.shutdown();
    }

    #[test]
    fn answers_are_read_from_count_and_query_status_lines() {
        assert_eq!(answer_of("OK count=42 matches=7 epoch=0"), Some(42));
        assert_eq!(answer_of("OK query instances=3 shown=3 matches=9 epoch=1"), Some(3));
        assert_eq!(answer_of("BUSY overloaded: 4 jobs queued, retry_ms=5"), None);
    }
}
