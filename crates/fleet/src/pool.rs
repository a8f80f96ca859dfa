//! Per-backend connection pool.
//!
//! A [`ClientPool`] owns one endpoint and a small stack of idle
//! [`Client`] connections. Dispatch workers `checkout` a connection,
//! run a request, and `checkin` it on success; on any transport or
//! server-side fault the connection is simply dropped (the next checkout
//! dials fresh), so a poisoned stream can never be handed to another cell.
//!
//! The pool never blocks waiting for a free connection — the coordinator
//! bounds concurrency by its worker-thread count, so an empty idle stack
//! just means "dial". Dial and reuse counts feed the `fleet.pool.*`
//! counters for observability.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use sibia_serve::{Client, ClientError};

/// A pool of blocking connections to one backend endpoint.
pub struct ClientPool {
    endpoint: String,
    connect_timeout: Duration,
    io_timeout: Duration,
    idle: Mutex<Vec<Client>>,
    max_idle: usize,
    dials: AtomicU64,
    reuses: AtomicU64,
}

impl std::fmt::Debug for ClientPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientPool")
            .field("endpoint", &self.endpoint)
            .field("max_idle", &self.max_idle)
            .field("dials", &self.dials.load(Ordering::Relaxed))
            .field("reuses", &self.reuses.load(Ordering::Relaxed))
            .finish()
    }
}

impl ClientPool {
    /// A pool for `endpoint` (`host:port`) holding at most `max_idle`
    /// parked connections.
    pub fn new(
        endpoint: impl Into<String>,
        connect_timeout: Duration,
        io_timeout: Duration,
        max_idle: usize,
    ) -> Self {
        Self {
            endpoint: endpoint.into(),
            connect_timeout,
            io_timeout,
            idle: Mutex::new(Vec::new()),
            max_idle: max_idle.max(1),
            dials: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// An idle connection if one is parked, otherwise a fresh dial.
    pub fn checkout(&self) -> Result<Client, ClientError> {
        if let Some(client) = self.idle.lock().expect("pool lock").pop() {
            self.reuses.fetch_add(1, Ordering::Relaxed);
            return Ok(client);
        }
        self.dials.fetch_add(1, Ordering::Relaxed);
        Client::with_timeouts(
            self.endpoint.as_str(),
            Some(self.connect_timeout),
            Some(self.io_timeout),
            Some(self.io_timeout),
        )
    }

    /// Parks a healthy connection for reuse (dropped if the pool is full).
    pub fn checkin(&self, client: Client) {
        let mut idle = self.idle.lock().expect("pool lock");
        if idle.len() < self.max_idle {
            idle.push(client);
        }
    }

    /// Lifetime (dials, reuses) counts.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.dials.load(Ordering::Relaxed),
            self.reuses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local_pool(addr: std::net::SocketAddr) -> ClientPool {
        ClientPool::new(
            addr.to_string(),
            Duration::from_secs(2),
            Duration::from_secs(2),
            4,
        )
    }

    #[test]
    fn checkout_dials_and_checkin_parks_for_reuse() {
        // A bare listener is enough: Client construction does no handshake.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = local_pool(listener.local_addr().unwrap());

        let c = pool.checkout().expect("dial");
        assert_eq!(pool.stats(), (1, 0));
        pool.checkin(c);
        let _again = pool.checkout().expect("reuse");
        assert_eq!(pool.stats(), (1, 1));
    }

    #[test]
    fn dead_endpoint_fails_fast_instead_of_hanging() {
        // Bind, grab the port, drop the listener: dialing it must error.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let pool = local_pool(addr);
        let started = std::time::Instant::now();
        assert!(pool.checkout().is_err());
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn full_pool_drops_extra_checkins() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pool = ClientPool::new(
            addr.to_string(),
            Duration::from_secs(2),
            Duration::from_secs(2),
            1,
        );
        let a = pool.checkout().unwrap();
        let b = pool.checkout().unwrap();
        pool.checkin(a);
        pool.checkin(b); // over capacity: dropped
        let _ = pool.checkout().unwrap(); // the parked one
        let _ = pool.checkout().unwrap(); // forces a new dial
        assert_eq!(pool.stats().0, 3, "third dial after over-capacity drop");
    }
}
