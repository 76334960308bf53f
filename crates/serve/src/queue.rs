//! The bounded admission queue between the accept loop and the worker
//! pool, and the bounded pool that writes shed responses.
//!
//! Admission control happens at the *push* side: [`BoundedQueue::try_push`]
//! never blocks, so the accept loop can turn a full queue into an
//! immediate `503 + Retry-After` instead of letting latency grow without
//! bound. The pop side blocks (workers are cheap to park), and closing
//! the queue wakes every worker so a drain can complete: already-queued
//! connections are still served, new ones are refused.
//!
//! # Two lanes
//!
//! The queue carries two priority lanes over one worker pool:
//!
//! * the **interactive lane** ([`BoundedQueue::try_push`]) holds
//!   admitted connections -- a human or a dashboard is waiting on every
//!   one of them;
//! * the **background lane** ([`BoundedQueue::try_push_background`])
//!   holds campaign cells -- work that tolerates minutes of delay by
//!   design.
//!
//! [`BoundedQueue::pop`] always drains the interactive lane first, so a
//! running campaign can never add queueing latency to an interactive
//! request beyond the cell a worker is already executing. Campaign
//! cells only run on workers the interactive load leaves idle; that is
//! the whole interleaving policy, enforced structurally rather than by
//! timers or priorities that need tuning.
//!
//! Built on `std::sync::{Mutex, Condvar}` -- the workspace's vendored
//! `parking_lot` shim deliberately omits condition variables, and the
//! queue is exactly the kind of blocking rendezvous they exist for.

use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::http::Response;

/// Why a non-blocking push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; shed the item (admission control).
    Full(T),
    /// The queue is draining; no new work is admitted.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    background: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity multi-producer multi-consumer queue with
/// non-blocking admission, blocking close-aware removal, and two
/// priority lanes (see the module docs).
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
    background_capacity: usize,
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("background_capacity", &self.background_capacity)
            .field("background_len", &self.background_len())
            .finish()
    }
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` items per lane at once.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero -- a zero-depth queue would shed
    /// every request.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_lanes(capacity, capacity)
    }

    /// A queue with distinct interactive and background lane depths.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    #[must_use]
    pub fn with_lanes(capacity: usize, background_capacity: usize) -> Self {
        assert!(capacity > 0, "queue needs capacity for at least one item");
        assert!(
            background_capacity > 0,
            "background lane needs capacity for at least one item"
        );
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                background: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
            background_capacity,
        }
    }

    /// Admits `item` to the interactive lane if there is room, without
    /// blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] once
    /// [`BoundedQueue::close`] was called; both return the item so the
    /// caller can shed it with a response.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Admits `item` to the background lane (campaign cells): popped
    /// only when the interactive lane is empty.
    ///
    /// # Errors
    ///
    /// Same contract as [`BoundedQueue::try_push`], against the
    /// background lane's own capacity.
    pub fn try_push_background(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.background.len() >= self.background_capacity {
            return Err(PushError::Full(item));
        }
        inner.background.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Removes the oldest item, interactive lane first, blocking while
    /// both lanes are empty. Returns `None` only when the queue is
    /// closed *and* fully drained -- the worker-pool exit condition.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if let Some(item) = inner.background.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue lock");
        }
    }

    /// Stops admission and wakes every blocked worker. Items already
    /// queued (both lanes) are still handed out; this is what makes the
    /// drain graceful rather than abrupt.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.not_empty.notify_all();
    }

    /// Current interactive-lane depth (the admission-control gauge).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }

    /// Current background-lane depth.
    #[must_use]
    pub fn background_len(&self) -> usize {
        self.inner.lock().expect("queue lock").background.len()
    }

    /// Whether both lanes are currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let inner = self.inner.lock().expect("queue lock");
        inner.items.is_empty() && inner.background.is_empty()
    }
}

// ---------------------------------------------------------------------
// Shed pool
// ---------------------------------------------------------------------

/// A bounded pool that writes `503` shed responses off the accept
/// thread.
///
/// Writing a shed response takes a syscall or two plus (worst case) a
/// short drain of the client's request bytes, so it cannot run on the
/// accept thread -- but spawning a detached thread per shed means a
/// sustained overload (the exact situation that causes sheds) spawns
/// threads without bound. The pool caps both: a fixed set of writer
/// threads behind a small internal queue. When even that queue is full
/// the connection is dropped without a response -- under an overload
/// violent enough to fill it, a TCP reset is the honest signal, and the
/// caller counts the drop (`serve.shed_dropped`).
#[derive(Debug)]
pub struct ShedPool {
    queue: Arc<BoundedQueue<(TcpStream, Response)>>,
    writers: Vec<JoinHandle<()>>,
}

impl ShedPool {
    /// A pool of `writers` threads behind a `depth`-item queue.
    ///
    /// # Panics
    ///
    /// Panics if `writers` or `depth` is zero.
    #[must_use]
    pub fn new(writers: usize, depth: usize) -> Self {
        assert!(writers > 0, "shed pool needs at least one writer");
        let queue = Arc::new(BoundedQueue::new(depth));
        let writers = (0..writers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("lhr-serve-shed-{i}"))
                    .spawn(move || {
                        while let Some((stream, response)) = queue.pop() {
                            write_shed(stream, &response);
                        }
                    })
                    .expect("spawn shed writer")
            })
            .collect();
        Self { queue, writers }
    }

    /// Hands a connection to the pool for a shed response. Returns
    /// `false` when the pool's queue is full or closed -- the caller
    /// drops the connection and counts it.
    #[must_use]
    pub fn try_shed(&self, stream: TcpStream, response: Response) -> bool {
        self.queue.try_push((stream, response)).is_ok()
    }

    /// Pending sheds not yet written.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Closes the pool: pending sheds are still written, then the
    /// writer threads exit and are joined.
    pub fn shutdown(self) {
        self.queue.close();
        for w in self.writers {
            let _ = w.join();
        }
    }
}

/// Writes one shed response without losing it to a TCP reset: closing a
/// socket that still has unread request bytes discards buffered
/// outgoing data, so the writer shuts down its write side and drains
/// the client's bytes (briefly) before dropping.
fn write_shed(mut stream: TcpStream, response: &Response) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = response.write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 512];
    while matches!(io::Read::read(&mut stream, &mut sink), Ok(n) if n > 0) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn sheds_when_full_and_refuses_after_close() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        q.try_push(4).unwrap();
        q.close();
        assert_eq!(q.try_push(5), Err(PushError::Closed(5)));
        // Queued work is still served after close, then the pool exits.
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // Give the worker time to park on the condvar, then close.
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn items_flow_producer_to_consumer_in_order() {
        let q = Arc::new(BoundedQueue::new(8));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        for i in 0..20 {
            loop {
                match q.try_push(i) {
                    Ok(()) => break,
                    Err(PushError::Full(_)) => std::thread::yield_now(),
                    Err(PushError::Closed(_)) => unreachable!("not closed yet"),
                }
            }
        }
        q.close();
        assert_eq!(consumer.join().unwrap(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn interactive_lane_strictly_outranks_background() {
        let q = BoundedQueue::with_lanes(4, 4);
        q.try_push_background("bg-1").unwrap();
        q.try_push_background("bg-2").unwrap();
        q.try_push("fg-1").unwrap();
        q.try_push("fg-2").unwrap();
        // Both foreground items drain before any background item, even
        // though the background items arrived first.
        assert_eq!(q.pop(), Some("fg-1"));
        assert_eq!(q.pop(), Some("fg-2"));
        assert_eq!(q.pop(), Some("bg-1"));
        q.try_push("fg-3").unwrap();
        assert_eq!(q.pop(), Some("fg-3"), "new foreground overtakes queued bg");
        assert_eq!(q.pop(), Some("bg-2"));
        q.close();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn lanes_have_independent_capacity_and_drain_on_close() {
        let q = BoundedQueue::with_lanes(1, 2);
        q.try_push("fg").unwrap();
        assert_eq!(q.try_push("fg-over"), Err(PushError::Full("fg-over")));
        // The interactive lane being full does not block background admission.
        q.try_push_background("bg-1").unwrap();
        q.try_push_background("bg-2").unwrap();
        assert_eq!(
            q.try_push_background("bg-over"),
            Err(PushError::Full("bg-over"))
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.background_len(), 2);
        assert!(!q.is_empty());
        q.close();
        assert_eq!(
            q.try_push_background("late"),
            Err(PushError::Closed("late"))
        );
        // Close drains both lanes before ending the pool.
        assert_eq!(q.pop(), Some("fg"));
        assert_eq!(q.pop(), Some("bg-1"));
        assert_eq!(q.pop(), Some("bg-2"));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = BoundedQueue::<u32>::new(0);
    }

    #[test]
    fn shed_pool_writes_responses_and_bounds_its_backlog() {
        use std::io::Read as _;

        let pool = ShedPool::new(2, 8);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut body = String::new();
            let _ = s.read_to_string(&mut body);
            body
        });
        let (server_side, _) = listener.accept().unwrap();
        assert!(pool.try_shed(server_side, Response::overloaded("queue full", 1)));
        let got = client.join().unwrap();
        assert!(got.starts_with("HTTP/1.1 503"), "{got}");
        assert!(got.contains("Retry-After: 1"), "{got}");
        pool.shutdown();
    }

    #[test]
    fn shed_pool_refuses_when_saturated_instead_of_spawning() {
        // A pool whose queue is full reports failure; it never grows.
        let pool = ShedPool::new(1, 1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Park the single writer on a connection that never reads, then
        // fill the one-slot queue behind it.
        let mut held: Vec<TcpStream> = Vec::new();
        let mut refused = false;
        for _ in 0..16 {
            let c = TcpStream::connect(addr).unwrap();
            let (server_side, _) = listener.accept().unwrap();
            if !pool.try_shed(server_side, Response::overloaded("x", 1)) {
                refused = true;
                break;
            }
            held.push(c);
        }
        assert!(refused, "a 1x1 pool must refuse under a burst");
        drop(held);
        pool.shutdown();
    }
}
