//! Process-wide Ctrl-C (SIGINT) handling for graceful campaign drain.
//!
//! The first Ctrl-C sets a flag that the campaign drivers poll from their
//! progress callbacks: in-flight batches finish, the checkpoint is
//! flushed, and the process exits with a resume hint. A second Ctrl-C
//! while the drain is still running force-exits with the conventional
//! 128+SIGINT status.
//!
//! Implemented directly on `signal(2)` from the C runtime std already
//! links — the build environment has no registry access, so the usual
//! `ctrlc`/`signal-hook` crates are out of reach.

use std::sync::atomic::{AtomicBool, Ordering};

static REQUESTED: AtomicBool = AtomicBool::new(false);

/// Install the SIGINT handler. Idempotent; a no-op on non-Unix hosts
/// (Ctrl-C then keeps its default kill behaviour, and checkpoints still
/// limit the loss to the in-flight batches).
pub fn install() {
    imp::install();
}

/// True once Ctrl-C has been pressed (or [`request`] called).
pub fn requested() -> bool {
    REQUESTED.load(Ordering::Relaxed)
}

/// Trigger a drain programmatically — the coordinator uses this to treat
/// "campaign complete" and "Ctrl-C" as one shutdown path, and tests use
/// it in place of a real signal.
pub fn request() {
    REQUESTED.store(true, Ordering::SeqCst);
}

/// Clear the flag (tests only; real drains end with process exit).
pub fn reset() {
    REQUESTED.store(false, Ordering::SeqCst);
}

#[cfg(unix)]
mod imp {
    use super::REQUESTED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(code: i32) -> !;
    }

    extern "C" fn on_sigint(_: i32) {
        // Both calls are async-signal-safe: an atomic store and _exit.
        if REQUESTED.swap(true, Ordering::SeqCst) {
            // SAFETY: `_exit` is async-signal-safe, takes a plain integer
            // and never returns; it runs no destructors or atexit hooks
            // that could touch state the interrupted thread holds.
            unsafe { _exit(130) }
        }
    }

    pub(super) fn install() {
        // SAFETY: `on_sigint` is an `extern "C" fn(i32)` with the handler
        // ABI `signal(2)` expects, lives for the whole process, and only
        // does async-signal-safe work (an atomic swap and `_exit`).
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub(super) fn install() {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_and_reset_roundtrip() {
        install();
        install(); // idempotent
        reset();
        assert!(!requested());
        request();
        assert!(requested());
        reset();
    }
}
