//! End-to-end tests against an in-process daemon.
//!
//! The load-bearing assertions here are the **byte-identity** checks: a
//! served `simulate`/`sweep` response's `result`, re-serialized, must equal
//! the canonical serialization of the direct library call byte for byte,
//! and the raw response lines themselves must be exactly the envelope
//! around the library writer's text (a re-serialization would hide number
//! text that is not canonical: `1.0` reparses and re-serializes as `1`).
//! The remaining tests pin the protocol's failure modes — typed errors for
//! bad input, `overloaded` (not a hang) past the queue bound, and a
//! graceful drain on shutdown.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use sibia_obs::json::Json;
use sibia_serve::protocol::arch_by_name;
use sibia_serve::server::{ServeConfig, Server};
use sibia_serve::{Client, ClientError, ErrorCode};
use sibia_sim::{
    grid_to_json, network_result_to_json, write_grid, write_network_result, GridRequest,
    ParallelEngine, Simulator,
};

fn start(config: ServeConfig) -> Server {
    Server::start(config).expect("bind ephemeral port")
}

fn default_server() -> Server {
    start(ServeConfig {
        workers: 2,
        engine_threads: 2,
        ..ServeConfig::default()
    })
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    client
}

#[test]
fn served_simulate_is_byte_identical_to_direct_library_call() {
    let server = default_server();
    let mut client = connect(server.addr());

    let served = client
        .simulate("sibia", "dgcnn", 7, Some(4096))
        .expect("simulate");

    let mut sim = Simulator::new(7);
    sim.sample_cap = 4096;
    let direct = sim.simulate_network(
        &arch_by_name("sibia").unwrap(),
        &sibia_nn::zoo::by_name("dgcnn").unwrap(),
    );
    assert_eq!(
        served.to_string(),
        network_result_to_json(&direct).to_string(),
        "served simulate must serialize byte-identically to the library"
    );
    server.shutdown();
}

#[test]
fn served_sweep_is_byte_identical_to_direct_engine_grid() {
    let server = default_server();
    let mut client = connect(server.addr());

    let archs = ["bitfusion", "sibia"];
    let nets = ["dgcnn"];
    let seeds = [1u64, 2];
    let served = client
        .sweep(&archs, &nets, &seeds, Some(2048))
        .expect("sweep");

    let specs: Vec<_> = archs.iter().map(|a| arch_by_name(a).unwrap()).collect();
    let networks: Vec<_> = nets
        .iter()
        .map(|n| sibia_nn::zoo::by_name(n).unwrap())
        .collect();
    let mut sim = Simulator::new(seeds[0]);
    sim.sample_cap = 2048;
    // A different thread count than the server's on purpose: the engine
    // guarantees thread counts are invisible in results.
    let grid =
        ParallelEngine::with_threads(1).run(GridRequest::new(sim, &specs, &networks, &seeds));
    assert_eq!(served.to_string(), grid_to_json(&grid).to_string());
    server.shutdown();
}

#[test]
fn response_lines_are_the_envelope_around_the_writer_text() {
    let mut store_dir = std::env::temp_dir();
    store_dir.push(format!("sibia-serve-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let server = start(ServeConfig {
        workers: 2,
        engine_threads: 2,
        store_dir: Some(store_dir.clone()),
        ..ServeConfig::default()
    });
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    // Sends one request line and returns the exact response line plus the
    // trace_id it echoed.
    let mut exchange = |request: &str| {
        writer.write_all(request.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let trace_id = Json::parse(line.trim_end())
            .expect("response is json")
            .get("trace_id")
            .and_then(Json::as_str)
            .expect("every response carries a trace_id")
            .to_owned();
        (line, trace_id)
    };
    let ok_line = |id: u64, trace_id: &str, result: &str| {
        format!("{{\"id\":{id},\"ok\":true,\"trace_id\":\"{trace_id}\",\"result\":{result}}}\n")
    };

    let mut sim = Simulator::new(7);
    sim.sample_cap = 4096;
    let mut cell = String::new();
    write_network_result(
        &sim.simulate_network(
            &arch_by_name("sibia").unwrap(),
            &sibia_nn::zoo::by_name("dgcnn").unwrap(),
        ),
        &mut cell,
    );
    let (line, tid) = exchange(
        "{\"id\":1,\"kind\":\"simulate\",\"arch\":\"sibia\",\"network\":\"dgcnn\",\
         \"seed\":7,\"sample_cap\":4096}",
    );
    assert_eq!(line, ok_line(1, &tid, &cell), "simulate");

    let specs = [
        arch_by_name("bitfusion").unwrap(),
        arch_by_name("sibia").unwrap(),
    ];
    let mut sim = Simulator::new(1);
    sim.sample_cap = 2048;
    let grid = ParallelEngine::with_threads(1).run(GridRequest::new(
        sim,
        &specs,
        &[sibia_nn::zoo::by_name("dgcnn").unwrap()],
        &[1, 2],
    ));
    let mut grid_text = String::new();
    write_grid(&grid, &mut grid_text);
    let (line, tid) = exchange(
        "{\"id\":2,\"kind\":\"sweep\",\"archs\":[\"bitfusion\",\"sibia\"],\
         \"networks\":[\"dgcnn\"],\"seeds\":[1,2],\"sample_cap\":2048}",
    );
    assert_eq!(line, ok_line(2, &tid, &grid_text), "sweep");

    // The simulate above stored its cell: a lookup hit serves its text.
    let (line, tid) = exchange(
        "{\"id\":3,\"kind\":\"lookup\",\"arch\":\"sibia\",\"network\":\"dgcnn\",\
         \"seed\":7,\"sample_cap\":4096}",
    );
    let hit = format!("{{\"found\":true,\"result\":{cell}}}");
    assert_eq!(line, ok_line(3, &tid, &hit), "lookup hit");
    let (line, tid) = exchange(
        "{\"id\":5,\"kind\":\"lookup\",\"arch\":\"sibia\",\"network\":\"dgcnn\",\
         \"seed\":8,\"sample_cap\":4096}",
    );
    assert_eq!(line, ok_line(5, &tid, "{\"found\":false}"), "lookup miss");

    let (line, tid) =
        exchange("{\"id\":4,\"kind\":\"simulate\",\"arch\":\"gpu\",\"network\":\"dgcnn\"}");
    assert_eq!(
        line,
        format!(
            "{{\"id\":4,\"ok\":false,\"trace_id\":\"{tid}\",\"error\":{{\"code\":\"unknown_arch\",\
             \"message\":\"unknown arch 'gpu'\"}}}}\n"
        ),
        "error"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn streamed_sweep_emits_progress_and_an_identical_final_document() {
    let server = default_server();
    let mut client = connect(server.addr());

    let archs = ["bitfusion", "sibia"];
    let nets = ["dgcnn"];
    let seeds = [1u64, 2];
    let plain = client
        .sweep(&archs, &nets, &seeds, Some(1024))
        .expect("plain sweep");

    let mut frames: Vec<(u64, u64, String)> = Vec::new();
    let mut on_progress = |done: u64, total: u64, cell: &str| {
        frames.push((done, total, cell.to_owned()));
    };
    let streamed = client
        .sweep_with(&archs, &nets, &seeds, Some(1024), Some(&mut on_progress))
        .expect("streamed sweep");
    assert_eq!(
        streamed.to_string(),
        plain.to_string(),
        "the streamed final document must be byte-identical to a plain sweep"
    );
    assert_eq!(frames.len(), 4, "one progress frame per cell: {frames:?}");
    let mut dones: Vec<u64> = frames.iter().map(|f| f.0).collect();
    dones.sort_unstable();
    assert_eq!(dones, vec![1, 2, 3, 4], "done counts cover the grid");
    for (_, total, cell) in &frames {
        assert_eq!(*total, 4);
        let parts: Vec<&str> = cell.split('/').collect();
        assert_eq!(parts.len(), 3, "cell must be arch/network/seed: {cell}");
        assert!(archs.contains(&parts[0]), "{cell}");
        assert_eq!(parts[1], "dgcnn", "{cell}");
    }
    server.shutdown();
}

#[test]
fn ping_encode_and_metrics_round_trip() {
    let server = default_server();
    let mut client = connect(server.addr());

    let pong = client.ping().expect("ping");
    assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));

    let stats = client.encode(&[0, -3, 5, 0], 7, Some(3)).expect("encode");
    assert_eq!(stats.get("values"), Some(&Json::Int(4)));
    assert_eq!(stats.get("full_zero_values"), Some(&Json::Int(2)));
    assert!(stats.get("sbr").is_some());
    assert!(stats.get("gsbr").is_some());

    let metrics = client.metrics().expect("metrics");
    let ok_by_kind = metrics
        .get("requests")
        .and_then(|r| r.get("ok_by_kind"))
        .expect("ok_by_kind");
    assert_eq!(ok_by_kind.get("ping"), Some(&Json::Int(1)));
    assert_eq!(ok_by_kind.get("encode"), Some(&Json::Int(1)));
    assert!(metrics
        .get("queue")
        .and_then(|q| q.get("capacity"))
        .is_some());
    assert!(metrics
        .get("latency_ms")
        .and_then(|l| l.get("p99"))
        .is_some());
    server.shutdown();
}

#[test]
fn bad_input_yields_typed_errors_not_disconnects() {
    let server = default_server();
    let mut client = connect(server.addr());

    let err = client.simulate("gpu", "dgcnn", 1, Some(512)).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::UnknownArch));

    let err = client.simulate("sibia", "nope", 1, Some(512)).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::UnknownNetwork));

    let err = client.encode(&[1000], 7, None).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::BadRequest));

    // The connection must survive all of the above.
    client.ping().expect("connection still alive");
    server.shutdown();
}

#[test]
fn raw_garbage_lines_get_bad_request_responses() {
    let server = default_server();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    for bad in ["this is not json", "[1,2,3]", "{\"kind\":\"warp-drive\"}"] {
        writer.write_all(bad.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(line.trim_end()).expect("response is json");
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{bad}");
        assert_eq!(
            v.get("error").and_then(|e| e.get("code")),
            Some(&Json::from("bad_request")),
            "{bad}"
        );
    }
    server.shutdown();
}

#[test]
fn oversized_sweep_is_refused_and_the_daemon_keeps_serving() {
    // 1,000 archs × 1,000 networks × 1,000 seeds in about 25 KB: without
    // the cell bound the grid engine would try to allocate 10^9 result
    // slots and abort the daemon.
    let list = |item: &str| vec![item; 1000].join(",");
    let line = format!(
        "{{\"id\":1,\"kind\":\"sweep\",\"archs\":[{}],\"networks\":[{}],\"seeds\":[{}]}}\n",
        list("\"sibia\""),
        list("\"dgcnn\""),
        list("7")
    );
    let server = default_server();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let v = Json::parse(reply.trim_end()).expect("response is json");
    assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        v.get("error").and_then(|e| e.get("code")),
        Some(&Json::from("bad_request"))
    );

    writer.write_all(b"{\"id\":2,\"kind\":\"ping\"}\n").unwrap();
    let mut pong = String::new();
    reader.read_line(&mut pong).unwrap();
    let v = Json::parse(pong.trim_end()).expect("response is json");
    assert_eq!(v.get("id"), Some(&Json::from(2i64)));
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{pong}");
    let mut client = connect(server.addr());
    client.ping().expect("a fresh connection is still served");
    server.shutdown();
}

#[test]
fn zero_timeout_is_rejected_with_deadline_exceeded() {
    let server = default_server();
    let mut client = connect(server.addr());
    let err = client
        .call(Json::obj(vec![
            ("kind", Json::from("simulate")),
            ("arch", Json::from("sibia")),
            ("network", Json::from("dgcnn")),
            ("seed", Json::from(1u64)),
            ("sample_cap", Json::from(512u64)),
            ("timeout_ms", Json::from(0u64)),
        ]))
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::DeadlineExceeded));
    server.shutdown();
}

#[test]
fn overload_past_the_queue_bound_is_a_typed_rejection_not_a_hang() {
    // One worker, one queue slot: at any instant at most two heavy jobs can
    // be admitted, so a simultaneous burst of six must see rejections.
    let server = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        engine_threads: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let clients = 6;
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = connect(addr);
                barrier.wait();
                // Heavy enough that the burst overlaps: a full-arch sweep.
                client.sweep(
                    &["bitfusion", "hnpu", "no-sbr", "input-skip", "sibia"],
                    &["dgcnn"],
                    &[i as u64 + 1],
                    Some(4096),
                )
            })
        })
        .collect();

    let mut ok = 0usize;
    let mut overloaded = 0usize;
    for h in handles {
        match h.join().expect("client thread") {
            Ok(_) => ok += 1,
            Err(e) => {
                assert_eq!(
                    e.server_code(),
                    Some(ErrorCode::Overloaded),
                    "only typed overload rejections are acceptable: {e}"
                );
                overloaded += 1;
            }
        }
    }
    assert!(ok >= 1, "at least the first job must complete");
    assert!(
        overloaded >= 1,
        "a burst of {clients} against capacity 2 must reject some ({ok} ok)"
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_and_refuses_new_connections() {
    let server = default_server();
    let addr = server.addr();
    let mut client = connect(addr);
    client.ping().expect("alive before shutdown");

    server.shutdown();

    // The listener is gone: new connections fail, and the old connection is
    // closed (read yields EOF / error rather than hanging).
    assert!(
        Client::connect(addr).is_err() || {
            // Rare race: the OS may still complete the handshake from the
            // backlog; the next request must then fail.
            matches!(
                Client::connect(addr).and_then(|mut c| c.ping()),
                Err(ClientError::Io(_) | ClientError::Protocol(_))
            )
        }
    );
    match client.ping() {
        Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {}
        Ok(_) => panic!("connection survived shutdown"),
        Err(e) => panic!("unexpected error kind after shutdown: {e}"),
    }
}

#[test]
fn repeated_simulates_hit_the_shared_cache() {
    let server = default_server();
    let mut client = connect(server.addr());

    let first = client.simulate("sibia", "dgcnn", 3, Some(1024)).unwrap();
    let second = client.simulate("sibia", "dgcnn", 3, Some(1024)).unwrap();
    assert_eq!(first.to_string(), second.to_string());

    let metrics = client.metrics().unwrap();
    let cache = metrics.get("cache").expect("cache metrics");
    let hits = cache.get("hits").and_then(Json::as_u64).unwrap();
    let misses = cache.get("misses").and_then(Json::as_u64).unwrap();
    let entries = cache.get("entries").and_then(Json::as_u64).unwrap();
    let hit_rate = cache.get("hit_rate").and_then(Json::as_f64).unwrap();
    assert!(hits > 0, "second identical simulate must hit the cache");
    assert!(misses > 0, "the first simulate must populate via misses");
    assert!(entries > 0, "populated cache must report its entries");
    assert!(
        hit_rate > 0.0 && hit_rate <= 1.0,
        "hit_rate {hit_rate} must be a fraction of lookups"
    );

    // The same numbers appear under their canonical registry names.
    let gauges = metrics
        .get("registry")
        .and_then(|r| r.get("gauges"))
        .expect("registry gauges ride along in the metrics response");
    assert_eq!(
        gauges.get("serve.cache.hits").and_then(Json::as_u64),
        Some(hits)
    );
    assert_eq!(
        gauges.get("serve.cache.misses").and_then(Json::as_u64),
        Some(misses)
    );
    server.shutdown();
}

#[test]
fn a_simulate_caches_both_representations_for_the_next_one() {
    // A cold `simulate` of an SBR arch synthesizes each layer once and
    // caches its decompositions under both slice representations, so a
    // `simulate` of the same network and seed on a conventional-slice arch
    // is all cache hits: it adds no miss.
    let server = default_server();
    let mut client = connect(server.addr());
    let misses = |client: &mut Client| {
        let metrics = client.metrics().expect("metrics");
        let cache = metrics.get("cache").expect("cache metrics");
        cache.get("misses").and_then(Json::as_u64).expect("misses")
    };
    client.simulate("sibia", "dgcnn", 5, Some(1024)).unwrap();
    let after_sbr = misses(&mut client);
    assert!(after_sbr > 0, "the cold simulate computes");
    client
        .simulate("bitfusion", "dgcnn", 5, Some(1024))
        .unwrap();
    assert_eq!(
        misses(&mut client),
        after_sbr,
        "the other representation was cached by the first request"
    );
    server.shutdown();
}

#[test]
fn trace_ids_are_echoed_and_unique_per_request() {
    // The trace_id lives in the response *envelope* (never in `result`, so
    // byte-identity of served results is untouched); the typed Client strips
    // it, so read the raw lines. Two daemons share this process, as they
    // share its tracer: their ids must not collide either.
    let servers = [default_server(), default_server()];
    let mut connections: Vec<_> = servers
        .iter()
        .map(|server| {
            let stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            (stream.try_clone().unwrap(), BufReader::new(stream))
        })
        .collect();

    let mut seen = Vec::new();
    for id in 0..4 {
        let (writer, reader) = &mut connections[id % 2];
        writer
            .write_all(format!("{{\"id\":{id},\"kind\":\"ping\"}}\n").as_bytes())
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(line.trim_end()).expect("response is json");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let trace_id = v
            .get("trace_id")
            .and_then(|t| t.as_str())
            .expect("every response carries a trace_id")
            .to_owned();
        assert!(trace_id.starts_with('t'), "got {trace_id}");
        assert!(
            v.get("result").and_then(|r| r.get("trace_id")).is_none(),
            "trace_id must stay out of the result payload"
        );
        seen.push(trace_id);
    }
    seen.sort();
    seen.dedup();
    assert_eq!(seen.len(), 4, "trace ids must be unique per request");
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn phase_histograms_account_for_total_latency() {
    let server = default_server();
    let mut client = connect(server.addr());

    client.ping().expect("ping");
    client
        .simulate("sibia", "dgcnn", 2, Some(1024))
        .expect("simulate");
    client.ping().expect("ping again");

    let metrics = client.metrics().expect("metrics");
    let latency = metrics.get("latency_ms").expect("latency_ms");
    let phases = metrics.get("phases_ms").expect("phases_ms");
    let total_count = latency.get("count").and_then(Json::as_u64).unwrap();
    let total_us = latency.get("total_us").and_then(Json::as_u64).unwrap();

    let mut phase_sum_us = 0;
    for phase in ["queue_wait", "compute", "serialize"] {
        let h = phases.get(phase).expect(phase);
        assert_eq!(
            h.get("count").and_then(Json::as_u64),
            Some(total_count),
            "{phase} must see every request the total histogram sees"
        );
        phase_sum_us += h.get("total_us").and_then(Json::as_u64).unwrap();
    }
    // The phases are measured inside the [received, responded] window, so
    // their exact-µs sum can never exceed the total (only undershoot by the
    // untimed parse/dispatch slivers).
    assert!(
        phase_sum_us <= total_us,
        "phase sum {phase_sum_us}µs exceeds total {total_us}µs"
    );
    // And the simulate's compute dominates: the sum must be a meaningful
    // fraction of the total, not rounding dust.
    assert!(
        phase_sum_us * 2 >= total_us,
        "phase sum {phase_sum_us}µs implausibly small vs total {total_us}µs"
    );
    server.shutdown();
}
