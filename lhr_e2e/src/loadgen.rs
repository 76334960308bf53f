//! Load generators: a closed loop (each client sends its next request
//! when the previous one completes) and an open loop (requests fall due
//! on a fixed schedule whether or not earlier ones completed).
//!
//! An open-loop request is timed from when it was *due*, so a stall
//! also charges the requests it delayed; how late the generator sent
//! each request is kept beside it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the schedule wanted it sent (closed loop: when it was sent).
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub ok: bool,
}

impl Sample {
    /// Latency counted from the due time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// A request counts as sent late beyond this.
pub const LATE: Duration = Duration::from_millis(1);

/// Due time of request `i` at `rate_per_s` from `start`.
pub fn due_at(start: Instant, rate_per_s: f64, i: u64) -> Instant {
    start + Duration::from_nanos((i as f64 * 1e9 / rate_per_s).round() as u64)
}

/// Runs `clients` closed-loop clients until `until`. `op(client, seq)`
/// performs one request and returns whether it succeeded.
pub fn closed_loop<F>(clients: usize, until: Instant, op: F) -> Vec<Sample>
where
    F: Fn(usize, u64) -> bool + Sync,
{
    let out = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for client in 0..clients {
            let (op, out) = (&op, &out);
            s.spawn(move || {
                let mut mine = Vec::new();
                let mut seq = 0u64;
                while Instant::now() < until {
                    let sent = Instant::now();
                    let ok = op(client, seq);
                    mine.push(Sample {
                        due: sent,
                        sent,
                        done: Instant::now(),
                        ok,
                    });
                    seq += 1;
                }
                out.lock().expect("sample list lock").extend(mine);
            });
        }
    });
    out.into_inner().expect("sample list lock")
}

/// Runs an open loop of `total` requests at `rate_per_s` from `start`
/// over `threads` connections. A free thread takes the earliest request
/// not yet sent, waits for its due time if that is still ahead, and
/// sends it; when every thread is busy, due requests wait (and are
/// counted late). `op(i)` performs request `i`; the result holds request
/// `i`'s sample at index `i`.
pub fn open_loop<F>(
    threads: usize,
    rate_per_s: f64,
    start: Instant,
    total: u64,
    op: F,
) -> Vec<Sample>
where
    F: Fn(u64) -> bool + Sync,
{
    let next = AtomicU64::new(0);
    let out = Mutex::new(Vec::with_capacity(total as usize));
    std::thread::scope(|s| {
        for _ in 0..threads {
            let (op, out, next) = (&op, &out, &next);
            s.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let due = due_at(start, rate_per_s, i);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let ok = op(i);
                    mine.push((
                        i,
                        Sample {
                            due,
                            sent,
                            done: Instant::now(),
                            ok,
                        },
                    ));
                }
                out.lock().expect("sample list lock").extend(mine);
            });
        }
    });
    let mut samples = out.into_inner().expect("sample list lock");
    samples.sort_unstable_by_key(|&(i, _)| i);
    samples.into_iter().map(|(_, s)| s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_and_lateness_from_the_send() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let s = Sample {
            due: t0,
            sent: t0 + ms(3),
            done: t0 + ms(10),
            ok: true,
        };
        assert_eq!(s.latency(), ms(10));
        assert_eq!(s.lateness(), ms(3));
        assert_eq!(due_at(t0, 200.0, 0), t0);
        assert_eq!(due_at(t0, 200.0, 7) - t0, ms(35));
        assert_eq!(due_at(t0, 3.0, 1) - t0, Duration::from_nanos(333_333_333));
    }

    #[test]
    fn a_stall_makes_the_requests_behind_it_late() {
        // One connection at 1000 req/s: request 5 takes 20 ms, so the
        // requests due during it are sent late and their latency, timed
        // from the due time, includes the wait.
        let start = Instant::now() + Duration::from_millis(5);
        let samples = open_loop(1, 1000.0, start, 12, |i| {
            if i == 5 {
                std::thread::sleep(Duration::from_millis(20));
            }
            true
        });
        assert_eq!(samples.len(), 12);
        let by_i = |i: u64| samples[i as usize];
        assert!(by_i(6).lateness() >= Duration::from_millis(15));
        assert!(by_i(6).latency() >= by_i(6).lateness());
        assert!(by_i(5).latency() >= Duration::from_millis(20));
        assert!(samples.iter().all(|s| s.sent >= s.due && s.done >= s.sent));
        // With several connections, samples still come back in request
        // order.
        let two = open_loop(2, 5000.0, Instant::now(), 40, |_| true);
        assert!(two.windows(2).all(|w| w[0].due < w[1].due));
    }

    #[test]
    fn closed_loop_clients_run_until_the_deadline() {
        let until = Instant::now() + Duration::from_millis(30);
        let samples = closed_loop(2, until, |_, _| {
            std::thread::sleep(Duration::from_millis(1));
            true
        });
        assert!(samples.len() >= 2);
        assert!(samples
            .iter()
            .all(|s| s.lateness() == Duration::ZERO && s.ok));
    }
}
