//! Signal-triggered drain: `SIGINT`/`SIGTERM` flip one atomic flag.
//!
//! The handler itself does nothing but a relaxed store, which is
//! async-signal-safe. A front end's accept thread blocks in `accept`,
//! which a signal does not end (std retries `EINTR`, and `signal(2)`
//! installs restarting handlers), so each front end's watcher thread
//! ([`crate::front`]) reads [`drain_requested`] five times a second and
//! turns it into a drain. No `libc` crate exists in this offline workspace,
//! so the two needed symbols (`signal(2)` with the classic
//! handler-address ABI) are declared directly; this is the crate's only
//! unsafe code, confined to this module and compiled only on Unix.

use std::sync::atomic::{AtomicBool, Ordering};

static DRAIN: AtomicBool = AtomicBool::new(false);

/// Whether a shutdown signal has arrived (or [`request_drain`] ran).
#[must_use]
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::Relaxed)
}

/// Requests a drain of every front end in the process, as a signal
/// does, from process context (tests use this; signals use the handler
/// below).
pub fn request_drain() {
    DRAIN.store(true, Ordering::Relaxed);
}

/// Resets the flag so one process can run several serve sessions
/// (integration tests boot many servers).
pub fn reset() {
    DRAIN.store(false, Ordering::Relaxed);
}

/// Installs the `SIGINT`/`SIGTERM` handlers. Safe to call repeatedly;
/// a no-op off Unix.
pub fn install() {
    #[cfg(unix)]
    unix::install();
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod unix {
    use super::{AtomicBool, Ordering, DRAIN};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// `signal(2)`: the portable handler-address ABI is all we need
        /// for a single boolean flag.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // A relaxed store to a static atomic is async-signal-safe: no
        // locks, no allocation, no reentrancy into the runtime.
        DRAIN.store(true, Ordering::Relaxed);
    }

    static INSTALLED: AtomicBool = AtomicBool::new(false);

    pub(super) fn install() {
        if INSTALLED.swap(true, Ordering::SeqCst) {
            return;
        }
        // SAFETY: `on_signal` is an `extern "C" fn(i32)` whose body is a
        // single async-signal-safe atomic store, exactly what signal(2)
        // requires of a handler.
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_flag_round_trips() {
        reset();
        assert!(!drain_requested());
        request_drain();
        assert!(drain_requested());
        reset();
        assert!(!drain_requested());
    }

    #[test]
    fn install_is_idempotent() {
        install();
        install();
    }
}
