//! End-to-end benchmark of the `flowmotif` binary.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          --bin <flowmotif binary> --work <scratch dir>
//! ```
//!
//! Generates the workload's inputs from the seed, drives the shipped
//! binary through its real entry points (one-shot subcommands as child
//! processes, `serve` as a child process over TCP), checks every answer
//! against an untimed in-process evaluation, and prints the results. The
//! last stdout line is one JSON object: the end-to-end metrics with
//! `--trace 0`, or the per-layer metrics of a separate in-process traced
//! run with `--trace 1`. `run.sh` builds both binaries and calls this.

mod inputs;
mod layers;
mod oneshot;
mod proc;
mod served;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["oneshot-text", "serve-query", "serve-ingest", "serve-subscribe"];

/// What a workload run needs to know.
pub struct Ctx {
    pub bin: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    /// Measuring budget: whole passes run until the next one would
    /// overrun it (at least one always runs).
    pub seconds: f64,
}

/// One run's result line.
pub struct Outcome {
    pub attempted: u64,
    /// Operations that failed: `ERR`/`BUSY` replies, failed commands and
    /// wrong answers.
    pub failed: u64,
    /// Cross-checks that are not per operation (e.g. the server's cache
    /// counters against the request classification) held.
    pub consistent: bool,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.consistent && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Whether another pass as long as the one begun at `last` still fits
/// the measuring budget that began at `started`.
pub fn another_pass_fits(started: Instant, last: Instant, seconds: f64) -> bool {
    (started.elapsed() + last.elapsed()).as_secs_f64() <= seconds
}

struct Args {
    workload: String,
    trace: bool,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bin, mut work) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = Some(num(&value)? != 0),
            "--bin" => bin = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    let bin = bin.ok_or("--bin is required")?;
    if !bin.is_file() {
        return Err(format!("no flowmotif binary at {}", bin.display()));
    }
    let work = work.ok_or("--work is required")?;
    Ok(Args {
        ctx: Ctx {
            bin,
            work: proc::fresh_dir(work.join(&workload))?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10).max(1) as f64,
        },
        trace: trace.unwrap_or(false),
        workload,
    })
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let ctx = &args.ctx;
    println!("workload {} seed {} trace {}", args.workload, ctx.seed, args.trace as u8);
    let outcome = match (args.trace, args.workload.as_str()) {
        (true, w) => layers::run(ctx, w)?,
        (false, "oneshot-text") => oneshot::run(ctx)?,
        (false, "serve-query") => served::query(ctx)?,
        (false, "serve-ingest") => served::ingest(ctx, &served::INGEST)?,
        (false, _) => served::ingest(ctx, &served::SUBSCRIBE)?,
    };
    // The inputs are large; the spans file of a traced run stays.
    for entry in std::fs::read_dir(&ctx.work).map_err(|e| e.to_string())?.flatten() {
        let p = entry.path();
        if p.extension().is_none_or(|x| x != "jsonl") {
            if p.is_dir() {
                std::fs::remove_dir_all(&p).ok();
            } else {
                std::fs::remove_file(&p).ok();
            }
        }
    }
    outcome.json()
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}
