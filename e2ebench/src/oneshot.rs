//! `oneshot-text`: an analyst session of one-shot CLI commands over a
//! generated text edge list. Every command is a fresh process that
//! re-reads and rebuilds the graph, so the edge-list reader and the graph
//! builder do about half of each command's work here, and in no other
//! workload. This is also the only workload that reaches the DP top-1
//! module, the top-k sink and the census path.

use crate::inputs;
use crate::proc::{run_command, Finished};
use crate::stats::{mean, median, timed_metrics};
use crate::{another_pass_fits, Ctx, Outcome};
use flowmotif_core::census::walk_census;
use flowmotif_core::dp::dp_top1_with;
use flowmotif_core::parallel::{par_count_instances_with, par_top_k_with, ParOptions};
use flowmotif_core::{catalog, SearchOptions, SearchScratch};
use flowmotif_graph::{GraphStats, TimeSeriesGraph};
use std::time::Instant;

/// ≈280k interactions over 200k pairs: small enough that a pass of the
/// four commands takes about 2.5 s, so one run holds several passes.
pub const SCALE: f64 = 40.0;

/// `stats` runs that make up the set-up time (median reported).
const SETUP_RUNS: usize = 5;

/// The analysis commands of one pass, by name, with their arguments
/// after the input file. All run single-threaded.
pub const COMMANDS: [(&str, &[&str]); 4] = [
    ("find", &["--motif", "M(3,3)", "--delta", "3600", "--phi", "5", "--show", "0"]),
    ("topk", &["--motif", "M(3,2)", "--delta", "600", "--k", "10"]),
    ("top1", &["--motif", "M(3,3)", "--delta", "600"]),
    ("census", &["--edges", "2", "--delta", "600"]),
];

fn args<'a>(cmd: &'a str, file: &'a str, rest: &'a [&'a str]) -> Vec<&'a str> {
    let mut v = vec![cmd, file];
    v.extend_from_slice(rest);
    v.extend_from_slice(&["--threads", "1", "--json"]);
    v
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mg = inputs::bitcoin(SCALE, ctx.seed);
    let path = ctx.work.join("edges.txt");
    let input = inputs::write_edge_list(&mg, &path).map_err(|e| format!("writing input: {e}"))?;
    println!("{}", input.describe());
    let file = path.to_str().ok_or("non-UTF-8 work path")?;

    // Warm the page cache over the input (it was just written, so this
    // is cheap) and discard one warm-up command.
    std::fs::read(&path).map_err(|e| format!("reading input: {e}"))?;
    let mut outputs: Vec<(&str, String)> = Vec::new();
    let mut peak_kib = 0;
    let mut record = |name: &'static str, f: &Finished| {
        peak_kib = peak_kib.max(f.peak_kib);
        outputs.push((name, f.stdout.clone()));
    };
    let warm = run_command(&ctx.bin, &args("stats", file, &[]))?;
    record("stats", &warm);

    let mut setup = Vec::new();
    for _ in 0..SETUP_RUNS {
        let f = run_command(&ctx.bin, &args("stats", file, &[]))?;
        setup.push(f.wall.as_secs_f64());
        record("stats", &f);
    }

    // Whole passes until the next one would overrun the time budget.
    let mut walls: Vec<[f64; 4]> = Vec::new();
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let mut pass = [0.0; 4];
        for (i, (name, rest)) in COMMANDS.iter().enumerate() {
            let f = run_command(&ctx.bin, &args(name, file, rest))?;
            pass[i] = f.wall.as_secs_f64();
            record(name, &f);
        }
        walls.push(pass);
        if !another_pass_fits(started, t, ctx.seconds) {
            break;
        }
    }

    // Untimed reference answers, in process, on the same interactions.
    let g = inputs::graph_of(&mg);
    let expected = Expected::compute(&g)?;
    let mut failed = 0;
    for (name, out) in &outputs {
        if let Err(e) = expected.check(name, out) {
            eprintln!("wrong answer: {e}");
            failed += 1;
        }
    }

    let per_cmd = |i: usize| mean(&walls.iter().map(|p| p[i]).collect::<Vec<_>>());
    for (i, (name, _)) in COMMANDS.iter().enumerate() {
        println!("{name}_s {:.4} s (mean of {})", per_cmd(i), walls.len());
    }
    let ms: Vec<[f64; 4]> = walls.iter().map(|p| p.map(|s| s * 1e3)).collect();
    let passes: Vec<(f64, &[f64])> =
        walls.iter().zip(&ms).map(|(p, ms)| (p.iter().sum(), &ms[..])).collect();
    let peak_mb = peak_kib as f64 / 1024.0;
    println!("setup_s {:.4} s (stats, median of {SETUP_RUNS})", median(&setup));
    println!("peak_rss_mb {peak_mb:.1} MB (max over {} commands)", outputs.len());
    let mut metrics = vec![("setup_s", median(&setup), "s"), ("peak_rss_mb", peak_mb, "MB")];
    metrics.extend(timed_metrics(&passes));
    Ok(Outcome { attempted: outputs.len() as u64, failed, consistent: true, metrics })
}

/// The in-process answers every command output is checked against.
struct Expected {
    stats: GraphStats,
    find: (u64, u64),
    /// Flow, first and last time of each top-k rank.
    topk: Vec<(f64, i64, i64)>,
    top1: (f64, i64, i64),
    census: Vec<(String, u64, u64)>,
}

impl Expected {
    fn compute(g: &TimeSeriesGraph) -> Result<Expected, String> {
        let motif = |spec: &str, delta, phi| {
            catalog::parse_motif(spec, delta, phi).map_err(|e| e.to_string())
        };
        let opts = SearchOptions::default();
        let serial = ParOptions::with_threads(1);
        let (instances, st) =
            par_count_instances_with(g, &motif("M(3,3)", 3600, 5.0)?, opts, serial);
        let (ranked, _) = par_top_k_with(g, &motif("M(3,2)", 600, 0.0)?, 10, opts, serial);
        let (best, _) =
            dp_top1_with(g, &motif("M(3,3)", 600, 0.0)?, opts, &mut SearchScratch::default());
        let (_, best) = best.ok_or("no top-1 instance in the reference")?;
        Ok(Expected {
            stats: GraphStats::of(g),
            find: (st.structural_matches, instances),
            topk: ranked
                .iter()
                .map(|r| (r.instance.flow, r.instance.first_time, r.instance.last_time))
                .collect(),
            top1: (best.flow, best.first_time, best.last_time),
            census: walk_census(g, 2, 600, 0.0)
                .iter()
                .map(|r| (r.shape.to_string(), r.instances, r.structural_matches))
                .collect(),
        })
    }

    fn check(&self, cmd: &str, out: &str) -> Result<(), String> {
        let nums = |key| json_numbers(out, key);
        let ok = match cmd {
            "stats" => {
                nums("num_nodes") == [self.stats.num_nodes as f64]
                    && nums("num_connected_pairs") == [self.stats.num_connected_pairs as f64]
                    && nums("num_interactions") == [self.stats.num_interactions as f64]
            }
            "find" => {
                nums("structural_matches") == [self.find.0 as f64]
                    && nums("instances") == [self.find.1 as f64]
            }
            "topk" => {
                // Each rank prints its flow twice: the rank key and the
                // instance's own field.
                let flows: Vec<f64> = nums("flow").into_iter().step_by(2).collect();
                let want = |f: fn(&(f64, i64, i64)) -> f64| -> Vec<f64> {
                    self.topk.iter().map(f).collect()
                };
                same_flows(&flows, &want(|r| r.0))
                    && nums("first_time") == want(|r| r.1 as f64)
                    && nums("last_time") == want(|r| r.2 as f64)
            }
            "top1" => {
                let flows = nums("flow");
                flows.len() == 2
                    && same_flows(&flows[..1], &[self.top1.0])
                    && nums("first_time") == [self.top1.1 as f64]
                    && nums("last_time") == [self.top1.2 as f64]
            }
            "census" => {
                let shapes = json_strings(out, "shape");
                let want = |f: fn(&(String, u64, u64)) -> f64| -> Vec<f64> {
                    self.census.iter().map(f).collect()
                };
                shapes == self.census.iter().map(|r| r.0.clone()).collect::<Vec<_>>()
                    && nums("instances") == want(|r| r.1 as f64)
                    && nums("structural_matches") == want(|r| r.2 as f64)
            }
            _ => return Err(format!("no reference for `{cmd}`")),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("`{cmd}` printed {}", out.trim()))
        }
    }
}

fn same_flows(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(a, b)| (a - b).abs() <= 1e-9 * b.abs().max(1.0))
}

/// Every number following `"key":` in a JSON text, in order.
pub fn json_numbers(text: &str, key: &str) -> Vec<f64> {
    values_after(text, key)
        .filter_map(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

/// Every string following `"key":` in a JSON text, in order.
pub fn json_strings(text: &str, key: &str) -> Vec<String> {
    values_after(text, key)
        .filter_map(|rest| Some(rest.strip_prefix('"')?.split('"').next()?.to_string()))
        .collect()
}

fn values_after<'a>(text: &'a str, key: &str) -> impl Iterator<Item = &'a str> {
    let pat = format!("\"{key}\":");
    let starts: Vec<usize> = text.match_indices(&pat).map(|(at, _)| at + pat.len()).collect();
    starts.into_iter().map(move |at| text[at..].trim_start())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_scanning() {
        let t = r#"[{"flow":1.5,"instance":{"flow":1.5,"first_time":-3}}, {"flow": 2e3}]"#;
        assert_eq!(json_numbers(t, "flow"), [1.5, 1.5, 2000.0]);
        assert_eq!(json_numbers(t, "first_time"), [-3.0]);
        assert_eq!(json_strings("{\n \"shape\": \"0-1-2\",\n \"x\": 1}", "shape"), ["0-1-2"]);
    }

    /// The reference agrees with the CLI's own JSON on a small graph,
    /// through the same parsing the benchmark applies to real runs.
    #[test]
    fn reference_accepts_the_cli_answers() {
        let mg = inputs::bitcoin(0.3, 4);
        let g = inputs::graph_of(&mg);
        let exp = Expected::compute(&g).unwrap();
        let find = format!(
            r#"{{"motif":"M(3,3)","structural_matches":{},"instances":{},"sample":[]}}"#,
            exp.find.0, exp.find.1
        );
        assert!(exp.check("find", &find).is_ok());
        let wrong = find.replace(&format!("\"instances\":{}", exp.find.1), "\"instances\":999999");
        assert!(exp.check("find", &wrong).is_err());
    }
}
