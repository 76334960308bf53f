//! A kill-anything chaos harness for the serving layer.
//!
//! The harness drives the real `lhr_serve` *binary* over its real TCP
//! surface -- no test doubles -- and injects the faults an unattended
//! deployment actually meets:
//!
//! * **SIGKILL mid-campaign** -- the process dies between journal
//!   fsyncs; the journal's write-ahead discipline must make the loss
//!   invisible after a `--resume` restart.
//! * **Torn journal tails** -- [`tear_tail`] truncates the journal at
//!   an arbitrary byte (the header line is never touched), simulating
//!   a crash landing mid-write on top of the kill.
//! * **Sensor stalls** -- the server's `--fault-stall` knob wedges a
//!   chip's sensor rig for its first runs; stalls burn wall-clock but
//!   never change measured values, so artifacts stay byte-identical.
//! * **Queue saturation** -- [`Overload`] aims a pool of clients at an
//!   endpoint so admission control sheds under real concurrency while
//!   the campaign makes progress on the background lane.
//!
//! Every knob derives from one seed ([`ChaosPlan::from_seed`] for the
//! campaign drill, [`ShardChaosPlan::from_seed`] for the shard drill),
//! so a failing chaos run reproduces exactly. The harness itself lives
//! in `lhr-bench` and reaches the server under test only over TCP and
//! process control; it links the serve crate solely for its HTTP
//! client.
//!
//! All HTTP in this module rides that hardened client,
//! [`lhr_serve::httpc`]: a torn body (server killed mid-write) surfaces
//! as a typed truncation error, never as a quiet prefix that
//! byte-identity checks would wave through.
//!
//! See `examples/chaos_campaign.rs` for the full kill/tear/resume
//! drill, `examples/shard_chaos.rs` for the sharded kill + rolling
//! restart drill, and the `chaos`/`shard-chaos` CI jobs that run them
//! on every push.

use std::fs;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lhr_serve::httpc;
use lhr_trace::{Rng64, SplitMix64};

// ---------------------------------------------------------------------
// Fault schedule
// ---------------------------------------------------------------------

/// The seeded fault schedule for one chaos run. Every quantity is a
/// pure function of the seed, so a failure report that names the seed
/// names the whole scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The seed everything below derives from.
    pub seed: u64,
    /// SIGKILL the server once this many campaign cells have resolved.
    pub kill_after_cells: usize,
    /// Bytes to tear off the journal tail after the kill (the header
    /// line is always preserved).
    pub tear_bytes: usize,
    /// Concurrent overload clients hammering the server during the
    /// campaign.
    pub overload_clients: usize,
}

impl ChaosPlan {
    /// Derives a fault schedule from `seed`: kill after 2-4 cells, tear
    /// 1-40 bytes, 8-16 overload clients.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        Self {
            seed,
            kill_after_cells: 2 + rng.next_below(3) as usize,
            tear_bytes: 1 + rng.next_below(40) as usize,
            overload_clients: 8 + rng.next_below(9) as usize,
        }
    }
}

/// The seeded fault schedule for one sharded chaos run (see
/// `examples/shard_chaos.rs`): which backend dies, which one gets the
/// rolling restart, and how much client pressure rides through the
/// router while both happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardChaosPlan {
    /// The seed everything below derives from.
    pub seed: u64,
    /// Index of the backend to SIGKILL (of the 3 the drill boots).
    pub kill_backend: usize,
    /// Index of the backend to roll-restart via drain; always differs
    /// from [`ShardChaosPlan::kill_backend`].
    pub drain_backend: usize,
    /// Concurrent verifying clients driving load through the router.
    pub clients: usize,
    /// Router-routed requests each client must complete before the
    /// first fault lands (warms every shard's cache path).
    pub warmup_requests: usize,
}

impl ShardChaosPlan {
    /// Derives a shard fault schedule from `seed`: kill one of three
    /// backends, roll-restart a different one, 4-8 clients, 3-6 warmup
    /// requests per client.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5AAD);
        let kill_backend = rng.next_below(3) as usize;
        // Pick the drain target from the two survivors.
        let drain_backend = (kill_backend + 1 + rng.next_below(2) as usize) % 3;
        Self {
            seed,
            kill_backend,
            drain_backend,
            clients: 4 + rng.next_below(5) as usize,
            warmup_requests: 3 + rng.next_below(4) as usize,
        }
    }
}

// ---------------------------------------------------------------------
// Process control
// ---------------------------------------------------------------------

/// Locates a release binary of this workspace by name: the explicit
/// `env_override` variable wins, otherwise the binary is expected next
/// to the calling test/example executable's target directory
/// (`target/release/examples/x` -> `target/release/<name>`).
///
/// # Errors
///
/// The binary not existing (the message names the build command).
pub fn locate_binary(name: &str, env_override: &str) -> io::Result<PathBuf> {
    if let Ok(path) = std::env::var(env_override) {
        return Ok(PathBuf::from(path));
    }
    let me = std::env::current_exe()?;
    // Tests live in target/release/deps/, examples in
    // target/release/examples/; walk up until a dir holding the binary.
    let mut dir = me.parent();
    while let Some(d) = dir {
        let bin = d.join(name);
        if bin.is_file() {
            return Ok(bin);
        }
        if d.file_name().is_some_and(|n| n == "target") {
            break;
        }
        dir = d.parent();
    }
    Err(io::Error::other(format!(
        "{name} not found near {}; build it first: \
         cargo build --release -p lhr-serve --bin {name} (or set {env_override})",
        me.display()
    )))
}

/// A running serving-layer child process (`lhr_serve` or `lhr_router`),
/// its bound address parsed from the boot banner (so `--addr
/// 127.0.0.1:0` works and tests never race over a fixed port).
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Spawns `binary` with `args`, waits for its listening banner, and
    /// returns a handle once the server accepts connections.
    ///
    /// # Errors
    ///
    /// Spawn failures, or the child exiting before it prints a banner.
    pub fn spawn(binary: &Path, args: &[&str]) -> io::Result<Self> {
        let mut child = Command::new(binary)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        // Both serving binaries print "<name> listening on http://ADDR";
        // matching the shared suffix keeps one harness for all of them.
        const BANNER: &str = "listening on http://";
        let addr = loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("server exited before its banner"));
            }
            if let Some(at) = line.find(BANNER) {
                let rest = line[at + BANNER.len()..].trim();
                break rest
                    .parse::<SocketAddr>()
                    .map_err(|e| io::Error::other(format!("bad banner addr {rest:?}: {e}")))?;
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(Self {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// The server's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// SIGKILLs the server -- no drain, no flush, exactly the failure
    /// the journal must survive.
    ///
    /// # Errors
    ///
    /// Any error delivering the kill or reaping the child.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        let _ = self.child.wait()?;
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        Ok(())
    }

    /// Requests a graceful drain (`POST /admin/drain`) and waits for
    /// the process to exit 0.
    ///
    /// # Errors
    ///
    /// The drain request failing, the child erroring on wait, or a
    /// non-zero exit.
    pub fn drain(mut self) -> io::Result<()> {
        let _ = http_post(self.addr, "/admin/drain")?;
        let status = self.child.wait()?;
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("server exited {status}")))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

// ---------------------------------------------------------------------
// HTTP clients
// ---------------------------------------------------------------------

/// The read deadline the chaos helpers hand to [`lhr_serve::httpc`]: long
/// enough for a cold campaign cell, short enough that a wedged server
/// still fails the drill.
const CHAOS_TIMEOUT: Duration = Duration::from_secs(120);

/// One raw HTTP exchange via the hardened client; returns
/// `(status, full response text)` so callers can keep splitting with
/// [`body_of`].
///
/// # Errors
///
/// Connection, send, or read failures (expected mid-kill; callers
/// decide whether that is fatal) -- including typed truncation when a
/// dying server tears the body (`httpc::ClientError::Truncated`).
pub fn http_request(addr: SocketAddr, raw: &str) -> io::Result<(u16, String)> {
    let resp = httpc::exchange(addr, raw.as_bytes(), CHAOS_TIMEOUT)?;
    Ok((resp.status, rebuild_text(&resp)))
}

/// Renders a validated [`httpc::HttpResponse`] back into the
/// `head\r\n\r\nbody` text shape the older string helpers expose.
fn rebuild_text(resp: &httpc::HttpResponse) -> String {
    use std::fmt::Write as _;
    let mut text = format!("HTTP/1.1 {}\r\n", resp.status);
    for (name, value) in &resp.headers {
        let _ = write!(text, "{name}: {value}\r\n");
    }
    text.push_str("\r\n");
    text.push_str(&resp.body_str());
    text
}

/// `GET target`.
///
/// # Errors
///
/// See [`http_request`].
pub fn http_get(addr: SocketAddr, target: &str) -> io::Result<(u16, String)> {
    let resp = httpc::get(addr, target, CHAOS_TIMEOUT)?;
    Ok((resp.status, rebuild_text(&resp)))
}

/// `POST target` with an empty body.
///
/// # Errors
///
/// See [`http_request`].
pub fn http_post(addr: SocketAddr, target: &str) -> io::Result<(u16, String)> {
    let resp = httpc::post(addr, target, CHAOS_TIMEOUT)?;
    Ok((resp.status, rebuild_text(&resp)))
}

/// The body of a full response text.
#[must_use]
pub fn body_of(response: &str) -> &str {
    response.split("\r\n\r\n").nth(1).unwrap_or("")
}

/// Polls `target` until `pred(body)` holds or `deadline` passes.
/// Connection errors are tolerated (the server may be mid-restart).
///
/// # Errors
///
/// Only the deadline expiring; the last observed body is in the error.
pub fn poll_until(
    addr: SocketAddr,
    target: &str,
    deadline: Duration,
    pred: impl Fn(&str) -> bool,
) -> io::Result<String> {
    let until = Instant::now() + deadline;
    let mut last = String::new();
    loop {
        if let Ok((status, text)) = http_get(addr, target) {
            let body = body_of(&text);
            if status == 200 && pred(body) {
                return Ok(body.to_owned());
            }
            last = format!("{status}: {body}");
        }
        if Instant::now() >= until {
            return Err(io::Error::other(format!(
                "deadline polling {target}; last: {last}"
            )));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

// ---------------------------------------------------------------------
// Journal tearing
// ---------------------------------------------------------------------

/// Tears up to `bytes` off the end of a journal file, never cutting
/// into the first line (the campaign header must survive or the
/// journal is legitimately unrecoverable). Returns the bytes removed.
///
/// # Errors
///
/// Read/write failures on the journal file.
pub fn tear_tail(path: &Path, bytes: usize) -> io::Result<usize> {
    let data = fs::read(path)?;
    let header_end = data
        .iter()
        .position(|&b| b == b'\n')
        .map_or(data.len(), |i| i + 1);
    let keep = data.len().saturating_sub(bytes).max(header_end);
    let removed = data.len() - keep;
    if removed > 0 {
        fs::write(path, &data[..keep])?;
    }
    Ok(removed)
}

// ---------------------------------------------------------------------
// Overload
// ---------------------------------------------------------------------

/// A pool of client threads hammering one endpoint until stopped,
/// tallying outcomes. Used to saturate the interactive queue while a
/// campaign runs on the background lane: the campaign must keep making
/// progress and admission control must shed, not collapse.
#[derive(Debug)]
pub struct Overload {
    stop: Arc<AtomicBool>,
    ok: Arc<AtomicU64>,
    shed: Arc<AtomicU64>,
    errors: Arc<AtomicU64>,
    clients: Vec<JoinHandle<()>>,
}

/// The tally an [`Overload`] run ends with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadStats {
    /// Responses with status < 500 that were not sheds.
    pub ok: u64,
    /// `503` shed responses (admission control working).
    pub shed: u64,
    /// Connection-level failures (resets mid-kill are expected).
    pub errors: u64,
}

impl Overload {
    /// Starts `clients` threads issuing `GET target` in a loop. A `503`
    /// shed with a `Retry-After` header backs the client off for the
    /// advertised interval (capped at one second so a drill cannot
    /// stall) instead of immediately re-stampeding the shedding server.
    #[must_use]
    pub fn start(addr: SocketAddr, target: &str, clients: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let ok = Arc::new(AtomicU64::new(0));
        let shed = Arc::new(AtomicU64::new(0));
        let errors = Arc::new(AtomicU64::new(0));
        let clients = (0..clients.max(1))
            .map(|_| {
                let stop = Arc::clone(&stop);
                let ok = Arc::clone(&ok);
                let shed = Arc::clone(&shed);
                let errors = Arc::clone(&errors);
                let target = target.to_owned();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        match httpc::get(addr, &target, CHAOS_TIMEOUT) {
                            Ok(resp) if resp.status == 503 => {
                                shed.fetch_add(1, Ordering::Relaxed);
                                if let Some(secs) = resp.retry_after_secs() {
                                    let backoff =
                                        Duration::from_secs(secs).min(Duration::from_secs(1));
                                    // Re-check stop so Overload::stop is
                                    // never held hostage by a backoff.
                                    let until = Instant::now() + backoff;
                                    while Instant::now() < until
                                        && !stop.load(Ordering::Relaxed)
                                    {
                                        std::thread::sleep(Duration::from_millis(10));
                                    }
                                }
                            }
                            Ok(_) => {
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
            })
            .collect();
        Self {
            stop,
            ok,
            shed,
            errors,
            clients,
        }
    }

    /// Stops the clients and returns the tally.
    #[must_use]
    pub fn stop(self) -> OverloadStats {
        self.stop.store(true, Ordering::Relaxed);
        for c in self.clients {
            let _ = c.join();
        }
        OverloadStats {
            ok: self.ok.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_plan_is_a_pure_function_of_the_seed() {
        let a = ChaosPlan::from_seed(7);
        let b = ChaosPlan::from_seed(7);
        assert_eq!(a, b);
        assert!((2..=4).contains(&a.kill_after_cells));
        assert!((1..=40).contains(&a.tear_bytes));
        assert!((8..=16).contains(&a.overload_clients));
        // Different seeds land on different schedules eventually.
        assert!((0..64).any(|s| ChaosPlan::from_seed(s) != a));
    }

    #[test]
    fn shard_plan_is_deterministic_and_never_drains_the_killed_backend() {
        for seed in 0..256 {
            let plan = ShardChaosPlan::from_seed(seed);
            assert_eq!(plan, ShardChaosPlan::from_seed(seed));
            assert!(plan.kill_backend < 3);
            assert!(plan.drain_backend < 3);
            assert_ne!(
                plan.kill_backend, plan.drain_backend,
                "seed {seed}: rolling restart must target a survivor"
            );
            assert!((4..=8).contains(&plan.clients));
            assert!((3..=6).contains(&plan.warmup_requests));
        }
    }

    #[test]
    fn rebuild_text_round_trips_through_body_of() {
        let resp = httpc::HttpResponse {
            status: 200,
            headers: vec![("content-length".into(), "4".into())],
            body: b"body".to_vec(),
            length_checked: true,
        };
        let text = rebuild_text(&resp);
        assert!(text.starts_with("HTTP/1.1 200\r\n"));
        assert_eq!(body_of(&text), "body");
    }

    #[test]
    fn tear_tail_never_cuts_the_header_line() {
        let dir = std::env::temp_dir().join(format!("lhr-chaos-tear-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch");
        let path = dir.join("j.jsonl");
        std::fs::write(&path, "header-line\nsecond\nthird\n").expect("write");

        // A modest tear removes tail bytes only.
        let removed = tear_tail(&path, 4).expect("tear");
        assert_eq!(removed, 4);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "header-line\nsecond\nth");

        // An absurd tear stops at the header boundary.
        let removed = tear_tail(&path, 10_000).expect("tear all");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "header-line\n");
        assert!(removed > 0);
        let removed = tear_tail(&path, 10_000).expect("tear again");
        assert_eq!(removed, 0, "the header is never torn");
    }
}
