//! The `spans` verb against one traced daemon: a response's echoed
//! `trace_id` selects that request's `serve.request` span and its `sim.*`
//! children, and `limit` keeps the newest spans.
//!
//! A test binary of its own with a single test: the process tracer is
//! global, and a daemon started with `trace: true` enables it for the rest
//! of the process, so any other test sharing the binary would record spans
//! too.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use sibia_obs::json::Json;
use sibia_serve::server::{ServeConfig, Server};

/// One connection that keeps whole response envelopes: the `trace_id`
/// rides there, and the typed `Client` strips it.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Self {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    /// Sends one request line and returns its response envelope.
    fn call(&mut self, request: &str) -> Json {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        Json::parse(line.trim_end()).expect("response is json")
    }

    /// A successful request's echoed `trace_id`.
    fn traced(&mut self, request: &str) -> String {
        let response = self.call(request);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
        response
            .get("trace_id")
            .and_then(Json::as_str)
            .expect("every response carries a trace_id")
            .to_owned()
    }

    /// The Chrome events a `spans` request returns.
    fn spans(&mut self, params: &str) -> Vec<Json> {
        let response = self.call(&format!("{{\"kind\":\"spans\"{params}}}"));
        let result = response.get("result").expect("spans result");
        assert_eq!(result.get("dropped").and_then(Json::as_u64), Some(0));
        result
            .get("spans")
            .and_then(Json::as_array)
            .expect("spans array")
            .to_vec()
    }
}

fn name(span: &Json) -> &str {
    span.get("name").and_then(Json::as_str).expect("name")
}

fn arg<'a>(span: &'a Json, key: &str) -> Option<&'a Json> {
    span.get("args").and_then(|a| a.get(key))
}

fn arg_str<'a>(span: &'a Json, key: &str) -> &'a str {
    arg(span, key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("attribute {key} on {span}"))
}

fn simulate(seed: u64, context: &str) -> String {
    format!(
        "{{\"kind\":\"simulate\",\"arch\":\"sibia\",\"network\":\"dgcnn\",\"seed\":{seed},\
         \"sample_cap\":1024{context}}}"
    )
}

#[test]
fn spans_selects_by_echoed_trace_id_and_keeps_the_newest() {
    let server = Server::start(ServeConfig {
        trace: true,
        workers: 1,
        engine_threads: 2,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let mut wire = Wire::connect(server.addr());

    // The server-assigned id of a plain simulate selects exactly its
    // request span and the spans of its one-cell grid beneath it.
    let tid = wire.traced(&simulate(1, ""));
    assert!(tid.starts_with('t'), "server-assigned id, got {tid}");
    let spans = wire.spans(&format!(",\"trace_id\":\"{tid}\""));
    let layers = sibia_nn::zoo::dgcnn().layers().len();
    assert_eq!(
        spans.len(),
        4 + layers,
        "request, grid, cell, network and every layer"
    );
    let request: Vec<&Json> = spans
        .iter()
        .filter(|s| name(s) == "serve.request")
        .collect();
    assert_eq!(request.len(), 1);
    let request = request[0];
    assert_eq!(arg_str(request, "trace_id"), tid);
    assert_eq!(arg_str(request, "kind"), "simulate");
    assert_eq!(arg_str(request, "ok"), "true");
    assert!(arg_str(request, "queue_wait_us").parse::<u64>().is_ok());
    for one in ["sim.grid", "sim.cell", "sim.network"] {
        assert_eq!(spans.iter().filter(|s| name(s) == one).count(), 1, "{one}");
    }
    assert_eq!(
        spans.iter().filter(|s| name(s) == "sim.layer").count(),
        layers
    );
    let mut previous_ts = 0;
    let mut seen_ids = Vec::new();
    for span in &spans {
        // Chrome trace_event complete events, in start order, so every
        // parent precedes its children.
        assert_eq!(span.get("ph").and_then(Json::as_str), Some("X"));
        assert!(span.get("pid").and_then(Json::as_u64).is_some());
        assert!(span.get("tid").and_then(Json::as_u64).is_some());
        assert!(span.get("dur").and_then(Json::as_u64).is_some());
        let ts = span.get("ts").and_then(Json::as_u64).expect("ts");
        assert!(ts >= previous_ts, "start order");
        previous_ts = ts;
        if name(span) != "serve.request" {
            let parent = arg(span, "parent").and_then(Json::as_u64);
            assert!(
                parent.is_some_and(|p| seen_ids.contains(&p)),
                "{span} descends from the request"
            );
        }
        seen_ids.push(arg(span, "id").and_then(Json::as_u64).expect("id"));
        // The export round-trips through the canonical parser.
        let text = span.to_string();
        assert_eq!(Json::parse(&text).expect("span reparses").to_string(), text);
    }

    // An id no response carried selects nothing.
    assert!(wire.spans(",\"trace_id\":\"no-such-trace\"").is_empty());

    // A propagated context's id is echoed and selects the request, whose
    // span names the caller's span as its remote parent.
    let context = ",\"trace\":{\"trace_id\":\"fs-probe\",\"parent_span\":77}";
    assert_eq!(wire.traced(&simulate(2, context)), "fs-probe");
    let spans = wire.spans(",\"trace_id\":\"fs-probe\"");
    let request = spans
        .iter()
        .find(|s| name(s) == "serve.request")
        .expect("propagated request span");
    assert_eq!(arg_str(request, "trace_id"), "fs-probe");
    assert_eq!(arg(request, "remote_parent"), Some(&Json::from(77u64)));

    // A two-row sweep runs on two engine worker threads; their spans still
    // descend from the request, through the grid span.
    let sweep = "{\"kind\":\"sweep\",\"archs\":[\"sibia\",\"bitfusion\"],\
                 \"networks\":[\"dgcnn\"],\"seeds\":[1,2],\"sample_cap\":1024}";
    let tid = wire.traced(sweep);
    let spans = wire.spans(&format!(",\"trace_id\":\"{tid}\""));
    let count = |n: &str| spans.iter().filter(|s| name(s) == n).count();
    assert_eq!(count("serve.request"), 1);
    assert_eq!(count("sim.grid"), 1);
    assert_eq!(count("sim.cell"), 4, "two archs by two seeds");
    assert_eq!(count("sim.network"), 4);
    assert_eq!(count("sim.layer"), 4 * layers);
    assert_eq!(spans.len(), 2 + 4 + 4 + 4 * layers, "nothing else");
    let grid_id = spans
        .iter()
        .find(|s| name(s) == "sim.grid")
        .and_then(|s| arg(s, "id"))
        .expect("grid span id");
    for cell in spans.iter().filter(|s| name(s) == "sim.cell") {
        assert_eq!(arg(cell, "parent"), Some(grid_id), "{cell}");
    }

    // `limit` keeps the newest spans: the third of three encodes.
    let encode = "{\"kind\":\"encode\",\"values\":[0,-3,5],\"bits\":7}";
    let ids: Vec<String> = (0..3).map(|_| wire.traced(encode)).collect();
    let newest = wire.spans(",\"limit\":1");
    assert_eq!(newest.len(), 1);
    assert_eq!(name(&newest[0]), "serve.request");
    assert_eq!(arg_str(&newest[0], "kind"), "encode");
    assert_eq!(arg_str(&newest[0], "trace_id"), ids[2]);

    // The `trace` verb is gone: a typed bad_request, like any unknown kind.
    let response = wire.call("{\"kind\":\"trace\"}");
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
    let error = response.get("error").expect("error object");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("bad_request")
    );
    assert_eq!(
        error.get("message").and_then(Json::as_str),
        Some("unknown kind 'trace'")
    );
    server.shutdown();
}
