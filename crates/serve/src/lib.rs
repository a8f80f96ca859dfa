//! `sibia-serve`: accelerator-as-a-service on plain `std`.
//!
//! A TCP daemon that exposes the Sibia simulation stack over a
//! newline-delimited JSON protocol — no async runtime, no serde, no
//! signal-handling crate. Each connection writes one request object per
//! line and reads one response object per line:
//!
//! ```text
//! → {"id":1,"type":"simulate","arch":"sibia","network":"resnet50","seed":7}
//! ← {"id":1,"ok":true,"result":{...}}
//! ```
//!
//! The pieces, bottom-up:
//!
//! * [`Json`] — the canonical parser/serializer from [`sibia_obs::json`],
//!   whose canonical output makes "byte-identical responses" a checkable
//!   property, not an aspiration;
//! * [`protocol`] — request/response shapes, error codes, per-request
//!   `trace_id`s, and the canonical projection of simulator results into
//!   JSON;
//! * [`queue`] — the bounded job queue behind admission control: producers
//!   never block, overflow is a typed `overloaded` rejection;
//! * [`metrics`] — request counters and queue-wait / compute / serialize
//!   latency histograms, registered in a unified [`sibia_obs`] registry
//!   and backing the `metrics` request;
//! * [`server`] — worker pool, per-request deadlines, graceful drain on
//!   shutdown;
//! * `reactor_front` — the front end: one [`sibia_net`] epoll reactor
//!   thread multiplexes thousands of connections with pipelined,
//!   out-of-order responses (Linux only);
//! * [`client`] — a blocking connection with typed helpers, shared by the
//!   load generator and the integration tests;
//! * [`signal`] — SIGINT/SIGTERM latching via a self-declared `signal(2)`.
//!
//! Determinism guarantee: a served `simulate`/`sweep` response is
//! byte-identical to serializing the direct library call with the same
//! parameters. The server's long-lived [`DecompCache`](sibia_sim::DecompCache)
//! only memoizes pure intermediate values, so cache hits (and evictions)
//! cannot perturb any result.

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub(crate) mod reactor_front;
pub mod server;
pub mod signal;

pub use client::{CancelHandle, Client, ClientError, ProgressFn};
pub use protocol::{ErrorCode, Request, ServeError};
pub use server::{ServeConfig, Server};
pub use sibia_obs::json::Json;
