//! The program under test as child processes: one-shot commands timed to
//! exit, and `serve` driven over TCP. Peak memory is always the child's
//! own `VmHWM` from `/proc/<pid>/status`, never the benchmark's.

use flowmotif_serve::{Client, Reply};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How often a running one-shot command's `VmHWM` is sampled. The value
/// only grows, so the last sample before exit is the peak up to this
/// interval; the same poll detects the exit.
const POLL: Duration = Duration::from_millis(2);

/// `VmHWM` (peak resident set) of a live process, in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One finished one-shot command.
pub struct Finished {
    pub wall: Duration,
    pub stdout: String,
    pub peak_kib: u64,
}

/// Runs `bin args…` to completion, timing it from spawn to observed exit
/// and sampling its peak memory while it runs. A non-zero exit is an
/// error carrying the command's stderr.
pub fn run_command(bin: &Path, args: &[&str]) -> Result<Finished, String> {
    let started = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    // Drain stdout on a thread so a large output cannot block the child.
    let mut out = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        out.read_to_string(&mut s).map(|_| s)
    });
    let mut peak_kib = 0;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {}
            Err(e) => {
                child.kill().ok();
                child.wait().ok();
                return Err(format!("waiting for {}: {e}", args.join(" ")));
            }
        }
        if let Some(kib) = vm_hwm_kib(child.id()) {
            peak_kib = peak_kib.max(kib);
        }
        std::thread::sleep(POLL);
    };
    let wall = started.elapsed();
    let stdout = reader
        .join()
        .expect("stdout reader thread panicked")
        .map_err(|e| format!("reading output of {}: {e}", args.join(" ")))?;
    if !status.success() {
        let mut err = String::new();
        if let Some(mut e) = child.stderr.take() {
            e.read_to_string(&mut err).ok();
        }
        return Err(format!("`{}` failed ({status}): {}", args.join(" "), err.trim()));
    }
    Ok(Finished { wall, stdout, peak_kib })
}

/// A running `flowmotif serve` child with one client connection. The
/// server runs with one event-loop thread and one worker, so the numbers
/// are about the program and not the scheduler of a small machine.
/// Dropping it kills the child and waits for it.
pub struct Server {
    child: Child,
    pub client: Client,
    /// Spawn until the first `ping` was answered.
    pub startup: Duration,
}

impl Server {
    /// Starts an empty heap server (`packed` = None) or a read-only
    /// server over a packed segment directory.
    pub fn start(bin: &Path, packed: Option<&Path>) -> Result<Server, String> {
        let started = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.arg("serve");
        if let Some(dir) = packed {
            cmd.arg(dir).arg("--packed");
        }
        cmd.args(["--port", "0", "--event-loop-threads", "1", "--pool", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn().map_err(|e| format!("spawning serve: {e}"))?;
        let client = listening_addr(&mut child).and_then(|addr| {
            Client::connect(addr.as_str()).map_err(|e| format!("connecting to serve: {e}"))
        });
        let client = match client {
            Ok(client) => client,
            Err(e) => {
                child.kill().ok();
                child.wait().ok();
                return Err(e);
            }
        };
        // From here on the child is owned by `Server`, whose drop reaps it.
        let mut server = Server { child, client, startup: Duration::ZERO };
        let pong = server.send("ping")?;
        if pong.status != "OK pong" {
            return Err(format!("serve answered ping with `{}`", pong.status));
        }
        server.startup = started.elapsed();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one request and reads its reply; transport errors are
    /// errors, protocol statuses are values.
    pub fn send(&mut self, line: &str) -> Result<Reply, String> {
        self.client.send(line).map_err(|e| format!("`{line}`: {e}"))
    }

    pub fn metrics(&mut self) -> Result<Metrics, String> {
        Metrics::fetch(&mut self.client)
    }

    /// Peak resident set of the server process so far, in MB.
    pub fn peak_mb(&self) -> Result<f64, String> {
        vm_hwm_kib(self.pid())
            .map(|kib| kib as f64 / 1024.0)
            .ok_or_else(|| "reading the server's VmHWM".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// Reads the `flowmotif-serve listening on <addr>` line the server
/// prints once bound.
fn listening_addr(child: &mut Child) -> Result<String, String> {
    let out = child.stdout.take().expect("stdout is piped");
    let mut line = String::new();
    BufReader::new(out).read_line(&mut line).map_err(|e| format!("reading serve banner: {e}"))?;
    line.trim()
        .strip_prefix("flowmotif-serve listening on ")
        .map(str::to_string)
        .ok_or_else(|| format!("unexpected serve banner `{}`", line.trim()))
}

/// Scraped Prometheus text.
pub struct Metrics(Vec<String>);

impl Metrics {
    /// A server's Prometheus text, via its `metrics` verb.
    pub fn fetch(client: &mut Client) -> Result<Metrics, String> {
        let reply = client.send("metrics").map_err(|e| format!("metrics: {e}"))?;
        if !reply.is_ok() {
            return Err(format!("metrics refused: {}", reply.status));
        }
        Ok(Metrics(reply.data))
    }

    /// The value of the series named exactly `series` (name plus any
    /// label set, e.g. `x_total{verb="add"}`), or 0 when absent.
    pub fn get(&self, series: &str) -> f64 {
        self.0
            .iter()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.trim().parse().ok())
            .unwrap_or(0.0)
    }

    /// Mean of a labeled histogram (`sum / count`) in milliseconds, or 0
    /// when it saw no observations.
    pub fn hist_mean_ms(&self, family: &str, verb: &str) -> f64 {
        let count = self.get(&format!("{family}_count{{verb=\"{verb}\"}}"));
        let sum = self.get(&format!("{family}_sum{{verb=\"{verb}\"}}"));
        if count > 0.0 {
            sum / count * 1e3
        } else {
            0.0
        }
    }
}

/// A scratch directory inside the checkout, emptied on creation.
pub fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    if path.exists() {
        std::fs::remove_dir_all(&path).map_err(|e| format!("clearing {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    Ok(path)
}
