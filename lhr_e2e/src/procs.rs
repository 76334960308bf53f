//! Processes under test: child processes of this benchmark, the
//! `lhr_serve` and `lhr_router` servers, their peak memory, and the
//! counters they expose on `/v1/metrics`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lhr_bench::httpc::{self, HttpResponse};
#[cfg(test)]
use lhr_obs::prom::render_prometheus;
use lhr_obs::prom::{parse_exposition, sanitize_name, Exposition};

/// Budget for one request; a cold routed cell takes milliseconds.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Peak resident set (`VmHWM`) of a live process, in KiB; `"self"` for
/// this process.
pub fn peak_rss_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// A child process whose standard output is read line by line.
pub struct Child {
    proc: std::process::Child,
    lines: BufReader<ChildStdout>,
    /// When the child was spawned.
    pub started: Instant,
}

impl Child {
    pub fn spawn(mut cmd: Command) -> Result<Self, String> {
        let started = Instant::now();
        let mut proc = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {cmd:?}: {e}"))?;
        let stdout = proc.stdout.take().expect("stdout was piped");
        Ok(Self {
            proc,
            lines: BufReader::new(stdout),
            started,
        })
    }

    /// The next line of output, `None` at end of output.
    pub fn line(&mut self) -> Result<Option<String>, String> {
        let mut line = String::new();
        match self.lines.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => Ok(Some(line.trim_end().to_owned())),
            Err(e) => Err(format!("reading child output: {e}")),
        }
    }

    /// Waits for the child to exit.
    pub fn wait(mut self) -> Result<ExitStatus, String> {
        self.proc
            .wait()
            .map_err(|e| format!("waiting for child: {e}"))
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        // Only acts on an early return: a child that already exited
        // makes both calls no-ops.
        let _ = self.proc.kill();
        let _ = self.proc.wait();
    }
}

/// A running `lhr_serve` or `lhr_router`.
pub struct Server {
    proc: std::process::Child,
    pub addr: SocketAddr,
    /// Discards the rest of the server's output so it never blocks on a
    /// full pipe.
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `program` and waits for its `listening on http://ADDR`
    /// line.
    pub fn spawn(program: &Path, args: &[String]) -> Result<Self, String> {
        let mut proc = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", program.display()))?;
        let mut out = BufReader::new(proc.stdout.take().expect("stdout was piped"));
        let mut first = String::new();
        let addr = out
            .read_line(&mut first)
            .ok()
            .and_then(|_| first.split("http://").nth(1))
            .and_then(|a| a.trim().parse().ok());
        let Some(addr) = addr else {
            let _ = proc.kill();
            let _ = proc.wait();
            return Err(format!("{} did not start: {first:?}", program.display()));
        };
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut out, &mut std::io::sink());
        });
        Ok(Self {
            proc,
            addr,
            drain: Some(drain),
        })
    }

    pub fn peak_rss_kb(&self) -> Option<u64> {
        peak_rss_kb(&self.proc.id().to_string())
    }

    pub fn get(&self, target: &str) -> Result<HttpResponse, String> {
        httpc::get(self.addr, target, REQUEST_TIMEOUT).map_err(|e| format!("GET {target}: {e}"))
    }

    /// The server's lifetime counters and distributions.
    pub fn scrape(&self) -> Result<Scrape, String> {
        let resp = self.get("/v1/metrics?format=prometheus")?;
        if resp.status != 200 {
            return Err(format!("/v1/metrics answered {}", resp.status));
        }
        parse_exposition(&resp.body_str()).map(Scrape)
    }

    /// Drains the server gracefully and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = httpc::post(self.addr, "/admin/drain", Duration::from_secs(5));
        let deadline = Instant::now() + Duration::from_secs(10);
        let exited = loop {
            match self.proc.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => break None,
            }
        };
        if exited.is_none() {
            let _ = self.proc.kill();
            let _ = self.proc.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        match exited {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("server exited with {s}")),
            None => Err("server did not drain within 10 s".to_owned()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // After `stop` the process is gone and these are no-ops; on an
        // early return they make sure no server outlives the benchmark.
        let _ = self.proc.kill();
        let _ = self.proc.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Reports the first few failed requests of a workload on stderr.
pub struct FailureLog {
    workload: &'static str,
    seen: AtomicU64,
}

impl FailureLog {
    const SHOWN: u64 = 5;

    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            seen: AtomicU64::new(0),
        }
    }

    pub fn note(&self, target: &str, resp: &Result<HttpResponse, String>) {
        if self.seen.fetch_add(1, Ordering::Relaxed) < Self::SHOWN {
            let what = match resp {
                Ok(r) => format!("{} {}", r.status, r.body_str().trim()),
                Err(e) => e.clone(),
            };
            eprintln!("{}: GET {target} failed: {what}", self.workload);
        }
    }
}

/// Polls `probe` every 5 ms until it holds or `limit` passes.
pub fn poll_until(limit: Duration, mut probe: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + limit;
    while !probe() {
        if Instant::now() > deadline {
            return Err(format!("condition not reached within {limit:?}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

/// A server's counters and distributions, read from
/// `/v1/metrics?format=prometheus` with `lhr_obs`'s exposition parser.
#[derive(Debug)]
pub struct Scrape(Exposition);

impl Scrape {
    /// The value of counter `name` (0 when the server never counted it).
    pub fn counter(&self, name: &str) -> f64 {
        self.0.value(&sanitize_name(name)).unwrap_or(0.0)
    }

    /// How much counter `name` grew since `earlier`.
    pub fn delta(&self, earlier: &Scrape, name: &str) -> f64 {
        self.counter(name) - earlier.counter(name)
    }

    /// Mean, in milliseconds, of the samples distribution `name` (in
    /// seconds) took since `earlier`.
    pub fn mean_ms_since(&self, earlier: &Scrape, name: &str) -> Option<f64> {
        let m = sanitize_name(name);
        let sum = self.delta_raw(earlier, &format!("{m}_sum"));
        let count = self.delta_raw(earlier, &format!("{m}_count"));
        (count > 0.0).then(|| sum / count * 1e3)
    }

    fn delta_raw(&self, earlier: &Scrape, metric: &str) -> f64 {
        self.0.value(metric).unwrap_or(0.0) - earlier.0.value(metric).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrapes_counters_and_distribution_means() {
        let snap = |hits: u64, latencies: &[f64]| {
            let memory = std::sync::Arc::new(lhr_obs::MemoryRecorder::default());
            let obs = lhr_obs::Obs::recording(memory.clone());
            obs.counter("runner.cache_hits", hits);
            for &v in latencies {
                obs.histogram("serve.latency./v1/cell", v);
            }
            Scrape(parse_exposition(&render_prometheus(&memory.snapshot())).unwrap())
        };
        let before = snap(40, &[0.001]);
        let after = snap(42, &[0.001, 0.000_02, 0.000_04]);
        assert_eq!(after.counter("runner.cache_hits"), 42.0);
        assert_eq!(after.counter("serve.requests"), 0.0);
        assert_eq!(after.delta(&before, "runner.cache_hits"), 2.0);
        // The two requests since `before` took 20 and 40 us.
        let mean = after
            .mean_ms_since(&before, "serve.latency./v1/cell")
            .unwrap();
        assert!((mean - 0.03).abs() < 1e-9, "{mean}");
        assert_eq!(after.mean_ms_since(&after, "serve.latency./v1/cell"), None);
    }
}
