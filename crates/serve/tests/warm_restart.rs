//! Warm-restart integration: a daemon started on a `store_dir` that a
//! previous daemon populated must serve the previous daemon's results from
//! disk — byte-identical, without re-simulating.
//!
//! The load-bearing assertions:
//!
//! * the first post-restart `simulate` response equals the pre-restart
//!   (cold) response byte for byte;
//! * the restarted server's `metrics` report `store.hits ≥ 1` and
//!   `store.misses == 0` for that request — it really was served from the
//!   store, not recomputed;
//! * `version` answers inline with the crate version and protocol revision.
#![cfg(target_os = "linux")]

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use sibia_serve::protocol::PROTOCOL_REVISION;
use sibia_serve::server::{ServeConfig, Server};
use sibia_serve::Client;

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sibia-warm-restart-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn start_with_store(dir: &std::path::Path) -> Server {
    Server::start(ServeConfig {
        workers: 2,
        engine_threads: 2,
        store_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    client
}

#[test]
fn restarted_server_serves_stored_result_byte_identically() {
    let dir = temp_dir("simulate");

    // Cold daemon: compute once, populating the store.
    let cold_bytes = {
        let server = start_with_store(&dir);
        let mut client = connect(server.addr());
        let cold = client
            .simulate("sibia", "dgcnn", 11, Some(4096))
            .expect("cold simulate");
        let metrics = client.metrics().expect("metrics");
        let store = metrics.get("store").expect("store member");
        assert_eq!(store.get("misses").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(store.get("hits").and_then(|v| v.as_u64()), Some(0));
        server.shutdown();
        cold.to_string()
    };

    // Restarted daemon on the same directory: the very first request is a
    // store hit and its bytes equal the cold response's exactly.
    let server = start_with_store(&dir);
    let mut client = connect(server.addr());
    let warm = client
        .simulate("sibia", "dgcnn", 11, Some(4096))
        .expect("warm simulate");
    assert_eq!(
        warm.to_string(),
        cold_bytes,
        "warm-start response must be byte-identical to the cold one"
    );

    let metrics = client.metrics().expect("metrics");
    let store = metrics.get("store").expect("store member");
    assert!(
        store.get("hits").and_then(|v| v.as_u64()).unwrap_or(0) >= 1,
        "first post-restart request must be a store hit"
    );
    assert_eq!(store.get("misses").and_then(|v| v.as_u64()), Some(0));
    assert!(
        store.get("entries").and_then(|v| v.as_u64()).unwrap_or(0) >= 1,
        "the restarted store must have replayed the entry from disk"
    );
    // The registry snapshot carries the same number under the bare
    // `store.hits` gauge name.
    assert!(
        metrics
            .get("registry")
            .and_then(|r| r.get("gauges"))
            .and_then(|g| g.get("store.hits"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
            >= 1,
        "store.hits gauge must appear in the registry snapshot"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_warms_single_simulates_across_restart() {
    let dir = temp_dir("sweep");

    {
        let server = start_with_store(&dir);
        let mut client = connect(server.addr());
        client
            .sweep(&["sibia", "bit-fusion"], &["dgcnn"], &[3, 4], Some(2048))
            .expect("cold sweep");
        server.shutdown();
    }

    // Every cell of the sweep is now a stored `sim.network` entry, so a
    // single simulate of one cell after restart is a pure hit.
    let server = start_with_store(&dir);
    let mut client = connect(server.addr());
    client
        .simulate("bit-fusion", "dgcnn", 4, Some(2048))
        .expect("warm simulate of a sweep cell");
    let metrics = client.metrics().expect("metrics");
    let store = metrics.get("store").expect("store member");
    assert!(store.get("hits").and_then(|v| v.as_u64()).unwrap_or(0) >= 1);
    assert_eq!(store.get("misses").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(store.get("entries").and_then(|v| v.as_u64()), Some(4));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_reports_crate_and_protocol() {
    let server = Server::start(ServeConfig {
        workers: 1,
        engine_threads: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut client = connect(server.addr());
    let v = client.version().expect("version");
    assert_eq!(
        v.get("crate_version").and_then(|j| j.as_str()),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert_eq!(
        v.get("protocol_revision").and_then(|j| j.as_u64()),
        Some(PROTOCOL_REVISION)
    );
    // Revision 7 dropped the `front` field: the reactor is the only front.
    assert_eq!(v.get("front"), None, "{v}");
    server.shutdown();
}

#[test]
fn server_without_store_reports_null_store() {
    let server = Server::start(ServeConfig {
        workers: 1,
        engine_threads: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut client = connect(server.addr());
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.get("store"), Some(&sibia_serve::Json::Null));
    server.shutdown();
}
