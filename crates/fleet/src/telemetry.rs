//! Fleet-wide trace assembly: one Chrome trace covering coordinator and
//! backends.
//!
//! Every process records spans against its own tracer — its own id space
//! and its own monotonic epoch. The merger gives each process a `pid`
//! lane (coordinator = pid 1, backend *i* = pid *i + 2*, matching its
//! position in the endpoint list) and rewrites span ids to globally
//! unique values `gid = (pid << 32) | local_id`, so id collisions between
//! processes cannot alias parent links. A backend span that carries a
//! `remote_parent` (the coordinator's `fleet.dispatch` span id, injected
//! as the request's trace context) gets its `parent` rewritten to the
//! coordinator's gid — that cross-process edge is what makes the
//! coordinator's dispatch span the *ancestor* of the backend's
//! `serve.request` and `sim.*` spans in the merged view.
//!
//! Timestamps are **not** rebased: each process's `ts` values are µs
//! since its own tracer epoch, so nesting-by-time is only meaningful
//! within one `pid` lane (a validator must scope containment checks per
//! pid). Each lane is announced by a `"ph": "M"` `process_name` metadata
//! event that also carries the process's `dropped_spans` count, so a
//! reader can tell a complete lane from a truncated one.

use sibia_obs::trace::select_trace;
use sibia_obs::{Json, SpanRecord};

/// The coordinator's fixed pid lane in a merged trace.
pub const COORDINATOR_PID: u64 = 1;

/// The pid lane of backend `index` (position in the endpoint list).
pub fn backend_pid(index: usize) -> u64 {
    index as u64 + 2
}

/// Globally unique span id: the pid lane in the high 32 bits. Stays below
/// `i64::MAX` (canonical JSON integers are i64) for any realistic pid.
fn gid(pid: u64, local: u64) -> u64 {
    (pid << 32) | (local & 0xFFFF_FFFF)
}

/// One `process_name` metadata event announcing a pid lane.
fn process_meta(pid: u64, name: &str, dropped_spans: u64) -> Json {
    Json::obj(vec![
        ("name", Json::from("process_name")),
        ("ph", Json::from("M")),
        ("pid", Json::from(pid)),
        (
            "args",
            Json::obj(vec![
                ("name", Json::from(name)),
                ("dropped_spans", Json::from(dropped_spans)),
            ]),
        ),
    ])
}

/// Rewrites one already-serialized chrome event (as returned by a
/// backend's `spans` verb, pid 1 and local ids) into the merged id space:
/// `pid` becomes the lane, `args.id` / `args.parent` become gids, and a
/// `remote_parent` becomes the `parent` edge into the coordinator's lane.
fn rebase_event(event: &Json, pid: u64) -> Json {
    let Some(members) = event.as_object() else {
        return event.clone();
    };
    let rebased: Vec<(String, Json)> = members
        .iter()
        .map(|(k, v)| match k.as_str() {
            "pid" => (k.clone(), Json::from(pid)),
            "args" => {
                let Some(args) = v.as_object() else {
                    return (k.clone(), v.clone());
                };
                let remote = args
                    .iter()
                    .find(|(ak, _)| ak == "remote_parent")
                    .and_then(|(_, av)| av.as_u64());
                let mut out: Vec<(String, Json)> = Vec::with_capacity(args.len() + 1);
                for (ak, av) in args {
                    match (ak.as_str(), av.as_u64()) {
                        ("id", Some(local)) => out.push((ak.clone(), Json::from(gid(pid, local)))),
                        ("parent", Some(local)) => {
                            out.push((ak.clone(), Json::from(gid(pid, local))));
                        }
                        ("remote_parent", Some(remote_local)) => {
                            // The propagated edge: parent lives in the
                            // coordinator's lane.
                            out.push((
                                "remote_parent".to_owned(),
                                Json::from(gid(COORDINATOR_PID, remote_local)),
                            ));
                        }
                        _ => out.push((ak.clone(), av.clone())),
                    }
                }
                // A root-in-its-process span with a propagated parent
                // gains the cross-process parent edge.
                if let Some(remote_local) = remote {
                    if !args.iter().any(|(ak, _)| ak == "parent") {
                        let remote_gid = gid(COORDINATOR_PID, remote_local);
                        out.push(("parent".to_owned(), Json::from(remote_gid)));
                    }
                }
                (k.clone(), Json::Object(out))
            }
            _ => (k.clone(), v.clone()),
        })
        .collect();
    Json::Object(rebased)
}

/// Assembles the merged Chrome trace for one sweep.
///
/// * `coordinator` — this process's span records (typically
///   `sibia_obs::tracer().records()`); the sweep's spans are selected by
///   `trace_id` ancestry and serialized under [`COORDINATOR_PID`].
/// * `backends` — per-endpoint results of the `spans` verb, in endpoint
///   order: `Ok` payloads are `{"spans": [...], "dropped": n}` objects;
///   `Err` lanes are skipped but still announced (with the error message
///   as the process name suffix) so a missing backend is visible, not
///   silent.
///
/// Returns `{"trace_id": ..., "events": [...]}` where `events` holds the
/// metadata events followed by every span event. Callers wanting Chrome
/// JSONL write one event per line; callers wanting the array form wrap
/// `events` as `traceEvents`.
pub fn merge_chrome_trace(
    trace_id: &str,
    coordinator: &[SpanRecord],
    backends: &[(String, Result<Json, String>)],
) -> Json {
    let mut events: Vec<Json> = Vec::new();
    events.push(process_meta(
        COORDINATOR_PID,
        "coordinator",
        sibia_obs::tracer().dropped(),
    ));
    for (i, (endpoint, outcome)) in backends.iter().enumerate() {
        let pid = backend_pid(i);
        match outcome {
            Ok(payload) => {
                let dropped = payload.get("dropped").and_then(Json::as_u64).unwrap_or(0);
                events.push(process_meta(pid, endpoint, dropped));
            }
            Err(message) => {
                events.push(process_meta(
                    pid,
                    &format!("{endpoint} (unreachable: {message})"),
                    0,
                ));
            }
        }
    }
    for record in select_trace(coordinator, trace_id) {
        events.push(rebase_event(
            &record.to_chrome_json_pid(COORDINATOR_PID),
            COORDINATOR_PID,
        ));
    }
    for (i, (_, outcome)) in backends.iter().enumerate() {
        let Ok(payload) = outcome else { continue };
        let Some(spans) = payload.get("spans").and_then(Json::as_array) else {
            continue;
        };
        for event in spans {
            events.push(rebase_event(event, backend_pid(i)));
        }
    }
    Json::obj(vec![
        ("trace_id", Json::from(trace_id)),
        ("events", Json::Array(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        id: u64,
        parent: Option<u64>,
        name: &str,
        attrs: Vec<(String, String)>,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            remote_parent: None,
            name: name.to_owned(),
            tid: 1,
            start_us: id * 10,
            dur_us: 5,
            attrs,
        }
    }

    #[test]
    fn merges_coordinator_and_backend_lanes_with_resolved_parents() {
        let coordinator = vec![
            record(
                7,
                None,
                "fleet.sweep",
                vec![("trace_id".into(), "fs1".into())],
            ),
            record(
                9,
                Some(7),
                "fleet.dispatch",
                vec![("trace_id".into(), "fs1".into())],
            ),
            // A different sweep: must not leak into fs1's merge.
            record(
                11,
                None,
                "fleet.sweep",
                vec![("trace_id".into(), "fs2".into())],
            ),
        ];
        // What a backend's `spans` verb returns: pid-1 chrome events whose
        // serve.request carries the propagated remote parent (9).
        let mut serve_request = record(
            3,
            None,
            "serve.request",
            vec![("trace_id".into(), "fs1".into())],
        );
        serve_request.remote_parent = Some(9);
        let sim_network = record(4, Some(3), "sim.network", vec![]);
        let backend_payload = Json::obj(vec![
            (
                "spans",
                Json::Array(vec![
                    serve_request.to_chrome_json(),
                    sim_network.to_chrome_json(),
                ]),
            ),
            ("dropped", Json::from(2u64)),
        ]);
        let backends = vec![
            ("127.0.0.1:7001".to_owned(), Ok(backend_payload)),
            (
                "127.0.0.1:7002".to_owned(),
                Err("connect: refused".to_owned()),
            ),
        ];

        let merged = merge_chrome_trace("fs1", &coordinator, &backends);
        assert_eq!(merged.get("trace_id").and_then(Json::as_str), Some("fs1"));
        let events = merged.get("events").and_then(Json::as_array).unwrap();

        // Three lanes announced, the unreachable one visibly so.
        let metas: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(metas.len(), 3);
        assert_eq!(
            metas[1].get("args").unwrap().get("dropped_spans"),
            Some(&Json::Int(2))
        );
        assert!(metas[2]
            .get("args")
            .unwrap()
            .get("name")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unreachable"));

        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        // fs2's span is excluded; fs1 keeps 2 coordinator + 2 backend.
        assert_eq!(spans.len(), 4);

        // The backend serve.request's parent resolves to the coordinator's
        // dispatch gid, across pids.
        let sr = spans
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("serve.request"))
            .unwrap();
        assert_eq!(sr.get("pid").and_then(Json::as_u64), Some(2));
        let args = sr.get("args").unwrap();
        assert_eq!(
            args.get("parent").and_then(Json::as_u64),
            Some(gid(COORDINATOR_PID, 9))
        );
        assert_eq!(args.get("id").and_then(Json::as_u64), Some(gid(2, 3)));

        // The backend's local child keeps its (rebased) local parent.
        let sn = spans
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("sim.network"))
            .unwrap();
        assert_eq!(
            sn.get("args").unwrap().get("parent").and_then(Json::as_u64),
            Some(gid(2, 3))
        );

        // Coordinator spans live in lane 1 with gid-rewritten ids.
        let dispatch = spans
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("fleet.dispatch"))
            .unwrap();
        assert_eq!(dispatch.get("pid").and_then(Json::as_u64), Some(1));
        assert_eq!(
            dispatch
                .get("args")
                .unwrap()
                .get("id")
                .and_then(Json::as_u64),
            Some(gid(1, 9))
        );
    }
}
