//! Pipelining on the reactor front end must be real (out-of-order
//! completion, correlated by client-supplied id) without weakening the
//! typed-error contract.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

use sibia_obs::json::Json;
use sibia_serve::server::{ServeConfig, Server};
use sibia_serve::{Client, ClientError, ErrorCode};

fn start(config: ServeConfig) -> Server {
    Server::start(config).expect("bind ephemeral port")
}

fn small_server() -> Server {
    start(ServeConfig {
        workers: 2,
        engine_threads: 2,
        ..ServeConfig::default()
    })
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    client
}

#[test]
fn pipelined_responses_complete_out_of_order_by_id() {
    let server = small_server();
    let mut client = connect(server.addr());

    // A slow work request followed by an inline ping, pipelined in a burst.
    // The reactor answers the ping on its own thread while the worker is
    // still simulating, so the ping's response *must* overtake.
    let slow_id = client
        .send(Json::obj(vec![
            ("kind", Json::from("simulate")),
            ("arch", Json::from("sibia")),
            ("network", Json::from("dgcnn")),
            ("seed", Json::from(3u64)),
            ("sample_cap", Json::from(4096u64)),
        ]))
        .expect("send simulate");
    let ping_id = client
        .send(Json::obj(vec![("kind", Json::from("ping"))]))
        .expect("send ping");
    assert_eq!(client.outstanding(), 2);

    let (first, outcome) = client.recv().expect("first response");
    assert_eq!(first, ping_id, "the inline ping must overtake the simulate");
    assert_eq!(outcome.unwrap().get("pong"), Some(&Json::Bool(true)));
    let (second, outcome) = client.recv().expect("second response");
    assert_eq!(second, slow_id);
    assert!(outcome.unwrap().get("layers").is_some());
    assert_eq!(client.outstanding(), 0);
    server.shutdown();
}

#[test]
fn pipeline_depth_overflow_is_a_typed_overload() {
    let server = start(ServeConfig {
        workers: 1,
        engine_threads: 1,
        queue_capacity: 64,
        pipeline_depth: 2,
        ..ServeConfig::default()
    });
    let mut client = connect(server.addr());

    // Eight slow requests pipelined on one connection against depth 2: the
    // overflow must come back as typed `overloaded` responses, not hangs or
    // disconnects.
    let burst = 8;
    for seed in 0..burst {
        client
            .send(Json::obj(vec![
                ("kind", Json::from("simulate")),
                ("arch", Json::from("sibia")),
                ("network", Json::from("dgcnn")),
                ("seed", Json::from(seed as u64)),
                ("sample_cap", Json::from(2048u64)),
            ]))
            .expect("send");
    }
    let mut ok = 0;
    let mut overloaded = 0;
    for _ in 0..burst {
        let (_, outcome) = client.recv().expect("every request gets a response");
        match outcome {
            Ok(_) => ok += 1,
            Err(ClientError::Overloaded(msg)) => {
                assert!(msg.contains("pipeline depth"), "got: {msg}");
                overloaded += 1;
            }
            Err(e) => panic!("unexpected outcome: {e}"),
        }
    }
    assert!(ok >= 2, "admitted requests must complete ({ok} ok)");
    assert!(
        overloaded >= 1,
        "a burst of {burst} against depth 2 must reject some"
    );
    // The connection survived every rejection.
    client.ping().expect("connection still alive");
    server.shutdown();
}

#[test]
fn queue_overflow_on_the_reactor_front_is_a_typed_overload() {
    let server = start(ServeConfig {
        workers: 1,
        engine_threads: 1,
        queue_capacity: 1,
        pipeline_depth: 64,
        ..ServeConfig::default()
    });
    let mut client = connect(server.addr());

    let burst = 6;
    for seed in 0..burst {
        client
            .send(Json::obj(vec![
                ("kind", Json::from("simulate")),
                ("arch", Json::from("sibia")),
                ("network", Json::from("dgcnn")),
                ("seed", Json::from(seed as u64 + 100)),
                ("sample_cap", Json::from(2048u64)),
            ]))
            .expect("send");
    }
    let mut ok = 0;
    let mut overloaded = 0;
    for _ in 0..burst {
        let (_, outcome) = client.recv().expect("every request gets a response");
        match outcome {
            Ok(_) => ok += 1,
            Err(e) => {
                assert_eq!(e.server_code(), Some(ErrorCode::Overloaded), "{e}");
                overloaded += 1;
            }
        }
    }
    assert!(ok >= 1);
    assert!(
        overloaded >= 1,
        "queue of 1 must reject part of a burst of {burst}"
    );
    server.shutdown();
}

#[test]
fn response_with_unknown_id_is_a_typed_id_mismatch() {
    // A misbehaving server that answers every request with id 9999.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        writer
            .write_all(b"{\"id\":9999,\"ok\":true,\"result\":{\"pong\":true}}\n")
            .unwrap();
    });

    let mut client = connect(addr);
    match client.ping() {
        Err(ClientError::IdMismatch { got, outstanding }) => {
            assert_eq!(got, Some(9999));
            assert_eq!(outstanding, vec![0], "the real request stays unanswered");
        }
        other => panic!("expected IdMismatch, got {other:?}"),
    }
    fake.join().unwrap();
}
