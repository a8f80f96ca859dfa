//! The bounded job queue under real load, exercised through the wire:
//! per-connection FIFO completion with one worker, typed overload at
//! capacity, and a graceful drain that finishes every admitted job.
#![cfg(target_os = "linux")]

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use sibia_obs::json::Json;
use sibia_serve::server::{ServeConfig, Server};
use sibia_serve::{Client, ClientError};

fn start(config: ServeConfig) -> Server {
    Server::start(config).expect("bind ephemeral port")
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    client
}

fn simulate_request(seed: u64, sample_cap: u64) -> Json {
    Json::obj(vec![
        ("kind", Json::from("simulate")),
        ("arch", Json::from("sibia")),
        ("network", Json::from("dgcnn")),
        ("seed", Json::from(seed)),
        ("sample_cap", Json::from(sample_cap)),
    ])
}

#[test]
fn reactor_work_requests_complete_fifo_with_one_worker() {
    // One worker pops the shared queue in admission order, so pipelined
    // work requests from one connection complete FIFO even though the
    // transport allows reordering.
    let server = start(ServeConfig {
        workers: 1,
        engine_threads: 1,
        queue_capacity: 16,
        ..ServeConfig::default()
    });
    let mut client = connect(server.addr());
    let ids: Vec<i64> = (0..4)
        .map(|seed| {
            client
                .send(simulate_request(seed as u64, 1024))
                .expect("send")
        })
        .collect();
    for expected in ids {
        let (got, outcome) = client.recv().expect("response");
        assert_eq!(got, expected, "single-worker queue preserves FIFO");
        outcome.expect("admitted job completes");
    }
    server.shutdown();
}

#[test]
fn typed_overload_at_capacity_does_not_lose_admitted_jobs() {
    // One worker, one queue slot: a concurrent burst must split into
    // completed jobs and typed overloads — nothing hangs, nothing
    // disconnects, and every admitted job completes.
    let server = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        engine_threads: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let handles: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = connect(addr);
                client.call(simulate_request(i as u64 + 1, 4096))
            })
        })
        .collect();
    let mut ok = 0;
    let mut overloaded = 0;
    for h in handles {
        match h.join().expect("client thread") {
            Ok(result) => {
                assert!(result.get("layers").is_some());
                ok += 1;
            }
            Err(ClientError::Overloaded(_)) => overloaded += 1,
            Err(e) => panic!("only completion or typed overload allowed: {e}"),
        }
    }
    assert!(ok >= 1, "at least one job must complete");
    assert!(overloaded >= 1, "capacity 1 must reject part of the burst");
    server.shutdown();
}

#[test]
fn reactor_drain_completes_the_in_flight_job_then_closes() {
    let server = start(ServeConfig {
        workers: 1,
        engine_threads: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let mut client = connect(addr);
    client.send(simulate_request(43, 8192)).expect("send");
    // Let the reactor admit the frame before the drain stops reading.
    std::thread::sleep(Duration::from_millis(150));
    let drain = std::thread::spawn(move || server.shutdown());

    let (_, outcome) = client.recv().expect("in-flight job answers");
    assert!(outcome
        .expect("drain completes, not cancels")
        .get("layers")
        .is_some());
    drain.join().unwrap();
    // After the drain the connection is closed and the listener is gone.
    match client.recv() {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected EOF after drain, got {other:?}"),
    }
    assert!(TcpStream::connect(addr).is_err(), "listener closed");
}
