//! The hedged-dispatch schedule as spans: with the process tracer on, each
//! hedged row leaves a `fleet.hedge` span that carries the deadline the row
//! was overdue past, and the copy it was busy on is a `fleet.dispatch` span
//! open at that moment.
//!
//! A test binary of its own with a single test: the process tracer is
//! global, so enabling it here would make any other test sharing the binary
//! record spans too.

use std::time::Duration;

use sibia_fleet::{Fleet, FleetConfig, SlowProxy};
use sibia_obs::tracer;
use sibia_serve::server::{ServeConfig, Server};

fn start_server() -> Server {
    Server::start(ServeConfig {
        workers: 2,
        engine_threads: 1,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

#[test]
fn hedge_spans_carry_the_deadline_and_the_busy_copy() {
    tracer().enable();
    let stalled = start_server();
    let healthy = start_server();
    let proxy = SlowProxy::start(stalled.addr()).expect("proxy");
    proxy.set_delay(Duration::from_millis(400));
    // As in the failover suite's hedging test: one connection per backend
    // and no stealing, so the stalled rows leave only through hedges, past
    // a fixed 100 ms deadline.
    let mut config = FleetConfig::new(vec![proxy.addr().to_string(), healthy.addr().to_string()]);
    config.connections_per_backend = 1;
    config.steal = false;
    config.hedge.min_completions = 0;
    config.hedge.min_deadline = Duration::from_millis(100);
    config.probe_interval = Duration::from_secs(30);
    let fleet = Fleet::new(config).expect("fleet");
    let (_, stats) = fleet
        .sweep_with_stats(
            &["sibia".to_owned()],
            &["dgcnn".to_owned()],
            &[1, 2, 3, 4],
            Some(512),
        )
        .expect("sweep with a stalled backend");
    let trace_id = fleet.last_trace_id().expect("sweep trace id");
    stalled.shutdown();
    healthy.shutdown();
    proxy.stop();

    let records = tracer().records();
    let hedges: Vec<_> = records.iter().filter(|r| r.name == "fleet.hedge").collect();
    // One arch a row, so the stats' hedged cells are hedged rows.
    assert_eq!(hedges.len() as u64, stats.hedges, "{stats:?}");
    assert!(!hedges.is_empty(), "overdue rows must be hedged: {stats:?}");
    for hedge in hedges {
        assert_eq!(hedge.attr("trace_id"), Some(trace_id.as_str()));
        let deadline_ms: u64 = hedge
            .attr("deadline_ms")
            .and_then(|d| d.parse().ok())
            .expect("deadline_ms is an integer");
        assert!(
            deadline_ms >= 100,
            "below the configured floor: {deadline_ms}"
        );
        let target = hedge.attr("target").expect("target");
        let busy = records.iter().find(|r| {
            r.name == "fleet.dispatch"
                && r.attr("row") == hedge.attr("row")
                && r.attr("backend") != Some(target)
                && r.start_us <= hedge.start_us
                && r.end_us() >= hedge.start_us
        });
        assert!(
            busy.is_some(),
            "no open dispatch of the hedged row: {hedge:?}"
        );
    }
}
