//! sibia-net: a single-reactor epoll event loop for pipelined NDJSON
//! serving on plain `std`.
//!
//! A front end that spends one blocking thread per connection drowns in
//! thread stacks and context switches at thousands of connections. This
//! crate is the serve daemon's front end instead: **one** reactor
//! thread multiplexing every connection through `epoll(7)` — declared as a
//! raw-syscall `extern` shim ([`sys`]), since `std` links libc but exposes
//! no readiness API — with per-connection reused read/write buffers and
//! incremental line framing ([`buffer`]), and an out-of-order completion
//! channel (`eventfd`-woken) so a worker pool can finish pipelined
//! requests in any order while the reactor flushes each response as it
//! lands ([`reactor`]).
//!
//! The crate is protocol-agnostic: it splits byte frames and moves
//! responses, nothing more. The serve daemon supplies the NDJSON protocol
//! as a [`FrameHandler`]. Off Linux the reactor constructor returns
//! [`std::io::ErrorKind::Unsupported`], so serving is Linux-only.

pub mod buffer;
pub mod reactor;
pub mod sys;

pub use reactor::{Completer, FrameCx, FrameHandler, FrameOutcome, Reactor, ReactorConfig};
