//! Minimal SIGINT/SIGTERM latching without a signal-handling crate.
//!
//! `std` exposes no signal API, but it already links libc, so declaring
//! `signal(2)` ourselves keeps the workspace dependency-free. The handler
//! does the only async-signal-safe thing it needs to: it sets a static
//! atomic flag that the daemon's run loop polls.

use std::sync::atomic::{AtomicBool, Ordering};

static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    type Handler = extern "C" fn(i32);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: Handler) -> usize;
    }

    extern "C" fn latch(_signum: i32) {
        super::SIGNALLED.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, latch);
            signal(SIGTERM, latch);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No signal delivery to latch on this platform; ctrl-c terminates the
    /// process directly.
    pub fn install() {}
}

/// Installs the SIGINT/SIGTERM latch (idempotent; no-op off Unix).
pub fn install() {
    imp::install();
}

/// Whether a termination signal has been latched since [`install`].
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}
