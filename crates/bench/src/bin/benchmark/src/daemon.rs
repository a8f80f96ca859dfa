//! Reading a serve daemon's telemetry from outside, through its public
//! `metrics` verb, and turning deltas into the serve-layer readings.

use std::net::SocketAddr;

use sibia::obs::Json;
use sibia::serve::Client;

use crate::common::{pct, ratio, Run};

/// The cumulative counters of one daemon that the benchmark reads.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DaemonStats {
    pub requests: u64,
    pub total_us: u64,
    pub queue_wait_us: u64,
    pub compute_us: u64,
    pub serialize_us: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_puts: u64,
    pub store_bytes: u64,
}

fn field(doc: &Json, path: &[&str]) -> u64 {
    let mut cur = Some(doc);
    for key in path {
        cur = cur.and_then(|v| v.get(key));
    }
    cur.and_then(Json::as_u64).unwrap_or(0)
}

impl DaemonStats {
    /// One `metrics` call. The call itself is recorded by the daemon after
    /// it answers, so it appears in the *next* reading's request count.
    pub fn read(addr: SocketAddr) -> Result<Self, String> {
        let doc = Client::connect(addr)
            .and_then(|mut c| c.metrics())
            .map_err(|e| format!("metrics from {addr}: {e}"))?;
        Ok(Self {
            requests: field(&doc, &["latency_ms", "count"]),
            total_us: field(&doc, &["latency_ms", "total_us"]),
            queue_wait_us: field(&doc, &["phases_ms", "queue_wait", "total_us"]),
            compute_us: field(&doc, &["phases_ms", "compute", "total_us"]),
            serialize_us: field(&doc, &["phases_ms", "serialize", "total_us"]),
            cache_hits: field(&doc, &["cache", "hits"]),
            cache_misses: field(&doc, &["cache", "misses"]),
            store_hits: field(&doc, &["store", "hits"]),
            store_misses: field(&doc, &["store", "misses"]),
            store_puts: field(&doc, &["store", "puts"]),
            store_bytes: field(&doc, &["store", "bytes_appended"]),
        })
    }

    /// Sum of one reading per daemon.
    pub fn read_all(addrs: &[SocketAddr]) -> Result<Self, String> {
        addrs
            .iter()
            .try_fold(Self::default(), |sum, &a| Ok(sum.plus(&Self::read(a)?)))
    }

    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        Self {
            requests: f(self.requests, other.requests),
            total_us: f(self.total_us, other.total_us),
            queue_wait_us: f(self.queue_wait_us, other.queue_wait_us),
            compute_us: f(self.compute_us, other.compute_us),
            serialize_us: f(self.serialize_us, other.serialize_us),
            cache_hits: f(self.cache_hits, other.cache_hits),
            cache_misses: f(self.cache_misses, other.cache_misses),
            store_hits: f(self.store_hits, other.store_hits),
            store_misses: f(self.store_misses, other.store_misses),
            store_puts: f(self.store_puts, other.store_puts),
            store_bytes: f(self.store_bytes, other.store_bytes),
        }
    }

    pub fn plus(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a + b)
    }

    pub fn since(&self, before: &Self) -> Self {
        self.zip(before, u64::saturating_sub)
    }

    /// The serve-layer readings over a window whose requests the clients
    /// waited `client_ms` for in total.
    pub fn record(&self, run: &mut Run, client_ms: f64) {
        let total = self.total_us as f64;
        run.read(
            "serve.front.pct",
            pct(client_ms - total / 1e3, client_ms),
            "%",
        );
        run.read(
            "serve.queue_wait.pct",
            pct(self.queue_wait_us as f64, total),
            "%",
        );
        run.read("serve.compute.pct", pct(self.compute_us as f64, total), "%");
        run.read(
            "serve.serialize.pct",
            pct(self.serialize_us as f64, total),
            "%",
        );
        run.read(
            "serve.request.mean_ms",
            ratio(total / 1e3, self.requests as f64),
            "ms",
        );
        run.read(
            "sim.cache.hit_rate",
            ratio(
                self.cache_hits as f64,
                (self.cache_hits + self.cache_misses) as f64,
            ),
            "ratio",
        );
    }
}
