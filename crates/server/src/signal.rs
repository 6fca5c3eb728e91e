//! SIGTERM / SIGINT → graceful-drain flag.
//!
//! Registering a handler needs FFI, which lives in the crate's one
//! `unsafe` module ([`crate::ffi`]); the handler performs exactly one
//! async-signal-safe operation — a relaxed store to a `static AtomicBool`.
//!
//! Everything else (drain sequencing, deadline handling) happens on normal
//! threads that poll [`term_requested`]. Tests never raise real signals;
//! they call [`request_term`] which stores the same flag.

use std::sync::atomic::{AtomicBool, Ordering};

/// POSIX signal numbers (Linux; identical on the BSDs for these two).
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_signum: i32) {
    // Async-signal-safe: a single atomic store, nothing else.
    TERM.store(true, Ordering::Relaxed);
}

/// Install the SIGTERM/SIGINT handler. Idempotent; call once at startup of
/// the daemon binary. In-process servers (tests, embedded supervisors)
/// skip this and use [`request_term`] / their per-server stop flag.
pub fn install_term_handler() {
    crate::ffi::install_signal_handler(SIGTERM, on_term);
    crate::ffi::install_signal_handler(SIGINT, on_term);
}

/// Has a termination signal (or [`request_term`]) been observed?
pub fn term_requested() -> bool {
    TERM.load(Ordering::Relaxed)
}

/// Raise the termination flag without a signal (tests, admin `Shutdown`).
pub fn request_term() {
    TERM.store(true, Ordering::Relaxed);
}

/// Clear the flag (tests that run several servers in one process).
pub fn reset_term() {
    TERM.store(false, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trip() {
        reset_term();
        assert!(!term_requested());
        request_term();
        assert!(term_requested());
        reset_term();
        assert!(!term_requested());
    }
}
