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
//! just means "dial".

use std::sync::Mutex;
use std::time::Duration;

use sibia_serve::{Client, ClientError};

/// TCP connect timeout per dial.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// A pool of blocking connections to one backend endpoint.
pub struct ClientPool {
    endpoint: String,
    io_timeout: Duration,
    idle: Mutex<Vec<Client>>,
    max_idle: usize,
}

impl std::fmt::Debug for ClientPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientPool")
            .field("endpoint", &self.endpoint)
            .field("max_idle", &self.max_idle)
            .finish()
    }
}

impl ClientPool {
    /// A pool for `endpoint` (`host:port`) holding at most `max_idle`
    /// parked connections.
    pub fn new(endpoint: impl Into<String>, io_timeout: Duration, max_idle: usize) -> Self {
        Self {
            endpoint: endpoint.into(),
            io_timeout,
            idle: Mutex::new(Vec::new()),
            max_idle: max_idle.max(1),
        }
    }

    /// An idle connection if one is parked, otherwise a fresh dial.
    pub fn checkout(&self) -> Result<Client, ClientError> {
        if let Some(client) = self.idle.lock().expect("pool lock").pop() {
            return Ok(client);
        }
        Client::with_timeouts(
            self.endpoint.as_str(),
            Some(CONNECT_TIMEOUT),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A bare listener is enough: `Client` construction does no handshake.
    /// Non-blocking, so [`dials`] can drain its accept queue.
    fn listener() -> TcpListener {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        listener
    }

    /// Connections dialed to `listener` since the last call: a loopback
    /// connect returns once the connection is in the accept queue.
    fn dials(listener: &TcpListener) -> usize {
        std::iter::from_fn(|| listener.accept().ok()).count()
    }

    fn local_pool(addr: std::net::SocketAddr, max_idle: usize) -> ClientPool {
        ClientPool::new(addr.to_string(), Duration::from_secs(2), max_idle)
    }

    #[test]
    fn checkout_dials_and_checkin_parks_for_reuse() {
        let listener = listener();
        let pool = local_pool(listener.local_addr().unwrap(), 4);

        let c = pool.checkout().expect("dial");
        assert_eq!(dials(&listener), 1);
        pool.checkin(c);
        let _again = pool.checkout().expect("reuse");
        assert_eq!(dials(&listener), 0, "a parked connection is reused");
    }

    #[test]
    fn dead_endpoint_fails_fast_instead_of_hanging() {
        // Bind, grab the port, drop the listener: dialing it must error.
        let addr = listener().local_addr().unwrap();
        let pool = local_pool(addr, 4);
        let started = std::time::Instant::now();
        assert!(pool.checkout().is_err());
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn full_pool_drops_extra_checkins() {
        let listener = listener();
        let pool = local_pool(listener.local_addr().unwrap(), 1);
        let a = pool.checkout().unwrap();
        let b = pool.checkout().unwrap();
        assert_eq!(dials(&listener), 2);
        pool.checkin(a);
        pool.checkin(b); // over capacity: dropped
        let _ = pool.checkout().unwrap(); // the parked one
        assert_eq!(dials(&listener), 0, "the parked connection is reused");
        let _ = pool.checkout().unwrap(); // forces a new dial
        assert_eq!(dials(&listener), 1, "third dial after over-capacity drop");
    }
}
