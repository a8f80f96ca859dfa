//! Fleet integration: live backends, byte-identity, and failover.
//!
//! The acceptance property pinned here: a fleet sweep's merged document is
//! **byte-identical** to `grid_to_json` of a direct grid request —
//! for 1, 2, and 4 backends, when a backend answers `overloaded`, when a
//! backend drops every connection mid-request, and when a real backend is
//! shut down mid-sweep. The crash-backend test additionally asserts
//! `fleet.failover_total >= 1` (and the per-sweep failover count), the
//! overload test pins the retry path, and the store test shows re-runs are
//! warm hits. The straggler gate asserts that stealing and hedging beat a
//! static schedule at least 3× when one of four backends stalls.
//!
//! The fleet dispatches one `sweep` request per `(network, seed)` row. The
//! row contract tests pin what that buys against store-backed backends,
//! read from each daemon's own `metrics` (sibling tests share the
//! process-global registry): a cold sweep computes each row exactly once,
//! a warm sweep after steals is all store hits, and a cold daemon with a
//! warm peer answers every cell from the peer.
#![cfg(target_os = "linux")]

mod chaos;

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sibia_fleet::{Fleet, FleetConfig, FleetError};
use sibia_obs::json::Json;
use sibia_obs::registry;
use sibia_serve::protocol::{arch_by_name, error_response, grid_to_json, ErrorCode, ServeError};
use sibia_serve::server::{ServeConfig, Server};
use sibia_serve::Client;
use sibia_sim::{DecompCache, GridRequest, ParallelEngine, Simulator};

const ARCHS: [&str; 2] = ["sibia", "bitfusion"];
const NETWORKS: [&str; 1] = ["dgcnn"];
const SEEDS: [u64; 3] = [1, 2, 3];
const SAMPLE_CAP: usize = 512;
/// The paper's five architectures, by protocol name.
const FIG_ARCHS: [&str; 5] = ["bitfusion", "hnpu", "no-sbr", "input-skip", "sibia"];

fn start_server() -> Server {
    Server::start(ServeConfig {
        workers: 2,
        engine_threads: 1,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

fn owned(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// The ground truth: the direct library grid, serialized canonically.
fn direct_grid_bytes(seeds: &[u64]) -> String {
    grid_bytes(&ARCHS, &NETWORKS, seeds, SAMPLE_CAP, &DecompCache::new())
}

/// The direct library grid of `archs × networks × seeds` at `sample_cap`
/// against `cache`.
fn grid_bytes(
    archs: &[&str],
    networks: &[&str],
    seeds: &[u64],
    sample_cap: usize,
    cache: &DecompCache,
) -> String {
    let specs: Vec<_> = archs.iter().map(|a| arch_by_name(a).unwrap()).collect();
    let networks: Vec<_> = networks
        .iter()
        .map(|n| sibia_nn::zoo::by_name(n).unwrap())
        .collect();
    let mut sim = Simulator::new(seeds[0]);
    sim.sample_cap = sample_cap;
    let grid = ParallelEngine::with_threads(1).run(GridRequest {
        cache: Some(cache),
        ..GridRequest::new(sim, &specs, &networks, seeds)
    });
    grid_to_json(&grid).to_string()
}

fn fleet_config(endpoints: Vec<String>) -> FleetConfig {
    let mut config = FleetConfig::new(endpoints);
    config.backoff.base = Duration::from_millis(1);
    config.backoff.cap = Duration::from_millis(20);
    // Keep the prober out of the deterministic tests' way; the breakers
    // are exercised through request outcomes.
    config.probe_interval = Duration::from_secs(30);
    config
}

fn fleet_sweep_bytes(fleet: &Fleet, seeds: &[u64]) -> String {
    fleet
        .sweep(&owned(&ARCHS), &owned(&NETWORKS), seeds, Some(SAMPLE_CAP))
        .expect("fleet sweep")
        .to_string()
}

#[test]
fn merged_sweep_is_byte_identical_for_1_2_and_4_backends() {
    let servers: Vec<Server> = (0..4).map(|_| start_server()).collect();
    let endpoints: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let expected = direct_grid_bytes(&SEEDS);

    for n in [1usize, 2, 4] {
        let fleet = Fleet::new(fleet_config(endpoints[..n].to_vec())).unwrap();
        let (json, stats) = fleet
            .sweep_with_stats(&owned(&ARCHS), &owned(&NETWORKS), &SEEDS, Some(SAMPLE_CAP))
            .expect("fleet sweep");
        assert_eq!(
            json.to_string(),
            expected,
            "{n}-backend merge must be byte-identical to the direct grid"
        );
        assert_eq!(stats.cells, ARCHS.len() * NETWORKS.len() * SEEDS.len());
        assert_eq!(stats.backends, n);
        assert_eq!(
            stats.per_backend_cells.iter().sum::<u64>(),
            stats.cells as u64
        );
        if n > 1 {
            assert!(
                stats.per_backend_cells.iter().filter(|&&c| c > 0).count() > 1,
                "sharding must spread cells: {:?}",
                stats.per_backend_cells
            );
        }
    }
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn sweep_is_byte_identical_and_status_reports_progress() {
    let server = start_server();
    let status_path = {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "sibia-fleet-test-status-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    };
    let expected = direct_grid_bytes(&SEEDS);

    let mut config = fleet_config(vec![server.addr().to_string()]);
    config.status_path = Some(status_path.clone());
    let fleet = Fleet::new(config).unwrap();
    assert_eq!(
        fleet_sweep_bytes(&fleet, &SEEDS),
        expected,
        "a status-publishing sweep must keep the merged bytes identical"
    );

    // The final status snapshot carries the sweep's progress object:
    // every cell done, and the most recently completed cell named.
    let raw = std::fs::read_to_string(&status_path).expect("status snapshot written");
    let status = Json::parse(raw.trim()).expect("status JSON");
    let progress = status.get("progress").expect("progress object");
    let total = (ARCHS.len() * NETWORKS.len() * SEEDS.len()) as i64;
    assert_eq!(progress.get("done"), Some(&Json::Int(total)));
    assert_eq!(progress.get("total"), Some(&Json::Int(total)));
    let cell = progress
        .get("cell")
        .and_then(|c| c.as_str())
        .expect("cell string");
    assert_eq!(
        cell.split('/').count(),
        3,
        "cell is arch/network/seed: {cell}"
    );
    let _ = std::fs::remove_file(&status_path);
    server.shutdown();
}

/// A backend that accepts connections and drops each one after reading a
/// single line — every request dies mid-flight, deterministically, like a
/// process being SIGKILLed between read and reply.
fn spawn_crash_backend() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind crash backend");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            // Dropping the stream here cuts the connection with no reply.
        }
    });
    addr
}

#[test]
fn crashing_backend_fails_over_and_keeps_bytes_identical() {
    let healthy = start_server();
    let crash_addr = spawn_crash_backend();
    let endpoints = vec![healthy.addr().to_string(), crash_addr.to_string()];

    // Seeds chosen so the shard homes at least one row on each backend
    // (pinned below) — the crash backend's rows MUST fail over.
    let seeds: Vec<u64> = (1..=6).collect();
    let homes: std::collections::BTreeSet<usize> = seeds
        .iter()
        .map(|&s| sibia_fleet::backend_for_row(NETWORKS[0], s, 2))
        .collect();
    assert_eq!(homes.len(), 2, "grid must span both backends");

    let failovers_before = registry().counter("fleet.failover_total").get();
    let fleet = Fleet::new(fleet_config(endpoints)).unwrap();
    let (json, stats) = fleet
        .sweep_with_stats(&owned(&ARCHS), &owned(&NETWORKS), &seeds, Some(SAMPLE_CAP))
        .expect("sweep must survive the crashing backend");

    assert_eq!(json.to_string(), direct_grid_bytes(&seeds));
    assert!(
        stats.failovers >= 1,
        "rows homed on the crash backend must fail over (stats: {stats:?})"
    );
    assert!(
        registry().counter("fleet.failover_total").get() - failovers_before >= 1,
        "fleet.failover_total must record the failover"
    );
    // Every completed cell was computed by the healthy backend.
    assert_eq!(stats.per_backend_cells[0], stats.cells as u64);
    assert_eq!(stats.per_backend_cells[1], 0);
    healthy.shutdown();
}

/// A backend that answers every request with a well-formed `overloaded`
/// error (echoing the request id, as the client requires), forever. Each
/// connection is served on its own thread, as a real daemon would: the
/// fleet pools several connections per backend, and one left unserved
/// would wait out the whole request timeout.
fn spawn_overloaded_backend() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind overloaded backend");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            std::thread::spawn(move || {
                let mut writer = stream.try_clone().expect("clone stream");
                let mut reader = BufReader::new(stream);
                loop {
                    let mut line = String::new();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                    let id = Json::parse(line.trim_end())
                        .ok()
                        .and_then(|v| v.get("id").cloned());
                    let mut reply = error_response(
                        id.as_ref(),
                        None,
                        &ServeError::new(ErrorCode::Overloaded, "synthetic overload"),
                    )
                    .to_string();
                    reply.push('\n');
                    if writer.write_all(reply.as_bytes()).is_err() {
                        break;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn overloaded_backend_is_retried_then_failed_over_with_identical_bytes() {
    let healthy = start_server();
    let busy_addr = spawn_overloaded_backend();
    let endpoints = vec![healthy.addr().to_string(), busy_addr.to_string()];

    let seeds: Vec<u64> = (1..=6).collect();
    let config = fleet_config(endpoints);
    let request_timeout = config.request_timeout;
    let fleet = Fleet::new(config).unwrap();
    let started = std::time::Instant::now();
    let (json, stats) = fleet
        .sweep_with_stats(&owned(&ARCHS), &owned(&NETWORKS), &seeds, Some(SAMPLE_CAP))
        .expect("sweep must route around the overloaded backend");
    let elapsed = started.elapsed();

    // Overloaded answers come back at once: no dispatch may sit out a
    // request timeout waiting for one.
    assert!(
        elapsed < request_timeout / 6,
        "sweep took {elapsed:?} against a {request_timeout:?} request timeout"
    );
    assert_eq!(json.to_string(), direct_grid_bytes(&seeds));
    assert!(
        stats.retries >= 1,
        "overloaded answers must be retried on the same backend first (stats: {stats:?})"
    );
    assert!(
        stats.failovers >= 1,
        "an always-overloaded backend must eventually lose its rows"
    );
    assert_eq!(stats.per_backend_cells[0], stats.cells as u64);
    assert!(registry().counter("fleet.overloaded_total").get() >= 1);
    healthy.shutdown();
}

#[test]
fn real_backend_shut_down_mid_sweep_keeps_bytes_identical() {
    let survivor = start_server();
    let victim = start_server();
    let endpoints = vec![survivor.addr().to_string(), victim.addr().to_string()];

    // A grid big enough to still be in flight when the victim goes down.
    let seeds: Vec<u64> = (1..=10).collect();
    let fleet = Fleet::new(fleet_config(endpoints)).unwrap();

    let bytes = std::thread::scope(|s| {
        let fleet = &fleet;
        let seeds_ref = &seeds;
        let sweep = s.spawn(move || fleet_sweep_bytes(fleet, seeds_ref));
        std::thread::sleep(Duration::from_millis(150));
        victim.shutdown();
        sweep.join().expect("sweep thread")
    });
    assert_eq!(bytes, direct_grid_bytes(&seeds));
    survivor.shutdown();
}

#[test]
fn store_backed_backends_serve_the_second_sweep_warm() {
    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sibia-fleet-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }
    // One store directory per backend: the store is single-process.
    let dirs = [temp_dir("b0"), temp_dir("b1")];
    let servers: Vec<Server> = dirs
        .iter()
        .map(|d| {
            Server::start(ServeConfig {
                workers: 2,
                engine_threads: 1,
                store_dir: Some(d.clone()),
                ..ServeConfig::default()
            })
            .expect("bind")
        })
        .collect();
    let endpoints: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();

    let fleet = Fleet::new(fleet_config(endpoints)).unwrap();
    let cold = fleet_sweep_bytes(&fleet, &SEEDS);
    let warm = fleet_sweep_bytes(&fleet, &SEEDS);
    assert_eq!(cold, warm, "warm sweep must be byte-identical to cold");
    assert_eq!(cold, direct_grid_bytes(&SEEDS));

    // The second sweep homes each row on the backend that completed it,
    // so it is served from the stores.
    let mut total_hits = 0;
    for server in &servers {
        let mut client = Client::connect(server.addr()).expect("connect");
        let metrics = client.metrics().expect("metrics");
        if let Some(store) = metrics.get("store") {
            total_hits += store.get("hits").and_then(|v| v.as_u64()).unwrap_or(0);
        }
    }
    assert!(
        total_hits >= 1,
        "the warm sweep must hit the backends' stores"
    );
    for s in servers {
        s.shutdown();
    }
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn unknown_arch_aborts_the_sweep_with_a_typed_rejection() {
    let server = start_server();
    let fleet = Fleet::new(fleet_config(vec![server.addr().to_string()])).unwrap();
    match fleet.sweep(
        &["not-an-arch".to_string()],
        &owned(&NETWORKS),
        &[1],
        Some(SAMPLE_CAP),
    ) {
        Err(FleetError::Rejected(e)) => assert_eq!(e.code, ErrorCode::UnknownArch),
        other => panic!("expected Rejected(unknown_arch), got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn plans_are_deterministic_per_seed() {
    use chaos::ChaosPlan;
    let a = ChaosPlan::generate(7, 3, Duration::from_millis(400));
    let b = ChaosPlan::generate(7, 3, Duration::from_millis(400));
    assert_eq!(a, b);
    let c = ChaosPlan::generate(8, 3, Duration::from_millis(400));
    assert_ne!(a, c, "different seeds should differ (xoshiro streams)");
}

#[test]
fn plans_always_exercise_kill_and_join() {
    use chaos::{ChaosAction, ChaosPlan};
    for seed in 0..16 {
        let plan = ChaosPlan::generate(seed, 4, Duration::from_millis(300));
        assert!(plan
            .events
            .iter()
            .any(|e| matches!(e.action, ChaosAction::Kill(_))));
        assert!(plan.events.iter().any(|e| e.action == ChaosAction::Join));
        let mut sorted = plan.events.clone();
        sorted.sort_by_key(|e| e.at);
        assert_eq!(plan.events, sorted, "events arrive in firing order");
    }
}

/// Replays a seeded [`ChaosPlan`] — kill + join + stalls/heals — against
/// live backends while a sweep runs, and pins the merged output
/// byte-identical to the direct grid. Three seeds, three different
/// schedules; "chaos" never means "flaky" because the plan is a pure
/// function of the seed.
#[test]
fn seeded_chaos_schedules_keep_bytes_identical() {
    use chaos::{ChaosAction, ChaosPlan, SlowProxy};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;

    let seeds: Vec<u64> = (1..=12).collect();
    let expected = direct_grid_bytes(&seeds);
    for chaos_seed in [7u64, 11, 13] {
        let servers: Vec<Mutex<Option<Server>>> =
            (0..3).map(|_| Mutex::new(Some(start_server()))).collect();
        let spare = start_server();
        let proxies: Vec<SlowProxy> = servers
            .iter()
            .map(|s| {
                SlowProxy::start(s.lock().unwrap().as_ref().unwrap().addr()).expect("start proxy")
            })
            .collect();
        // A small base delay stretches the sweep so the plan's events have
        // a window to land in; a loaded machine only widens it.
        for p in &proxies {
            p.set_delay(Duration::from_millis(25));
        }
        let endpoints: Vec<String> = proxies.iter().map(|p| p.addr().to_string()).collect();
        let plan = ChaosPlan::generate(chaos_seed, 3, Duration::from_millis(500));
        let fleet = Fleet::new(fleet_config(endpoints)).unwrap();

        let done = AtomicBool::new(false);
        let bytes = std::thread::scope(|s| {
            let sweep = s.spawn(|| {
                let bytes = fleet_sweep_bytes(&fleet, &seeds);
                done.store(true, Ordering::SeqCst);
                bytes
            });
            s.spawn(|| {
                let started = Instant::now();
                for event in &plan.events {
                    while started.elapsed() < event.at {
                        if done.load(Ordering::SeqCst) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    if done.load(Ordering::SeqCst) {
                        return;
                    }
                    match event.action {
                        ChaosAction::Kill(i) => {
                            if let Some(server) = servers[i].lock().unwrap().take() {
                                server.shutdown();
                            }
                        }
                        ChaosAction::Join => fleet.join(spare.addr().to_string()),
                        ChaosAction::Stall(i, delay) => proxies[i].set_delay(delay),
                        ChaosAction::Heal(i) => proxies[i].set_delay(Duration::ZERO),
                    }
                }
            });
            sweep.join().expect("sweep thread")
        });
        assert_eq!(
            bytes, expected,
            "chaos seed {chaos_seed} must not change the merged bytes"
        );
        spare.shutdown();
        for s in &servers {
            if let Some(server) = s.lock().unwrap().take() {
                server.shutdown();
            }
        }
        for p in proxies {
            p.stop();
        }
    }
}

/// A member joined mid-sweep (planned event) must actually take work —
/// stealing pulls cells to it — and the merge must not notice.
#[test]
fn planned_join_steals_work_for_the_new_member() {
    use chaos::SlowProxy;
    use sibia_fleet::{MembershipAction, PlannedEvent};

    let s0 = start_server();
    let s1 = start_server();
    let spare = start_server();
    let p0 = SlowProxy::start(s0.addr()).expect("proxy");
    let p1 = SlowProxy::start(s1.addr()).expect("proxy");
    // 24 rows at ≥40 ms each over 4 workers: rows are still queued well
    // past the 100 ms join, however fast the machine.
    p0.set_delay(Duration::from_millis(40));
    p1.set_delay(Duration::from_millis(40));
    let seeds: Vec<u64> = (1..=24).collect();
    let mut config = fleet_config(vec![p0.addr().to_string(), p1.addr().to_string()]);
    config.membership_plan = vec![PlannedEvent {
        at: Duration::from_millis(100),
        action: MembershipAction::Join(spare.addr().to_string()),
    }];
    let fleet = Fleet::new(config).unwrap();
    let (json, stats) = fleet
        .sweep_with_stats(&owned(&ARCHS), &owned(&NETWORKS), &seeds, Some(SAMPLE_CAP))
        .expect("sweep with mid-sweep join");

    assert_eq!(json.to_string(), direct_grid_bytes(&seeds));
    assert_eq!(stats.joins, 1, "stats: {stats:?}");
    assert_eq!(stats.backends, 3, "the joined member gets a roster slot");
    assert!(
        stats.per_backend_cells[2] > 0,
        "the joined member must complete stolen rows: {stats:?}"
    );
    assert!(stats.steals >= 1, "joins take work by stealing: {stats:?}");
    assert_eq!(stats.membership[2].0, spare.addr().to_string());
    assert_eq!(stats.membership[2].1, "active");
    s0.shutdown();
    s1.shutdown();
    spare.shutdown();
    p0.stop();
    p1.stop();
}

/// A member drained out mid-sweep (planned leave) hands its queued rows
/// to the survivors and ends the sweep out of rotation.
#[test]
fn planned_leave_reshards_the_queue_and_drains_out() {
    use chaos::SlowProxy;
    use sibia_fleet::{MembershipAction, PlannedEvent};

    let s0 = start_server();
    let s1 = start_server();
    let p0 = SlowProxy::start(s0.addr()).expect("proxy");
    let p1 = SlowProxy::start(s1.addr()).expect("proxy");
    p0.set_delay(Duration::from_millis(40));
    p1.set_delay(Duration::from_millis(40));
    let seeds: Vec<u64> = (1..=12).collect();
    let mut config = fleet_config(vec![p0.addr().to_string(), p1.addr().to_string()]);
    // Stealing off so the departing member's queue is still populated at
    // the 50 ms mark and the reshard path itself is what gets exercised.
    config.steal = false;
    config.membership_plan = vec![PlannedEvent {
        at: Duration::from_millis(50),
        action: MembershipAction::Leave(p0.addr().to_string()),
    }];
    let fleet = Fleet::new(config).unwrap();
    let (json, stats) = fleet
        .sweep_with_stats(&owned(&ARCHS), &owned(&NETWORKS), &seeds, Some(SAMPLE_CAP))
        .expect("sweep with mid-sweep leave");

    assert_eq!(json.to_string(), direct_grid_bytes(&seeds));
    assert_eq!(stats.leaves, 1, "stats: {stats:?}");
    assert!(
        stats.resharded_cells >= 1,
        "the departing member's queue must move to survivors: {stats:?}"
    );
    assert_ne!(
        stats.membership[0].1, "active",
        "a departed member must be out of rotation: {stats:?}"
    );
    s0.shutdown();
    s1.shutdown();
    p0.stop();
    p1.stop();
}

/// A stalled backend's in-flight rows are rescued by hedged dispatch:
/// the duplicate wins on the healthy backend, the straggling copy is
/// cancelled, and the straggler is never blamed (its breaker stays shut,
/// its membership stays Active).
#[test]
fn hedged_dispatch_rescues_a_stalled_backend() {
    use chaos::SlowProxy;

    let stalled = start_server();
    let healthy = start_server();
    let proxy = SlowProxy::start(stalled.addr()).expect("proxy");
    proxy.set_delay(Duration::from_millis(400));
    let seeds: Vec<u64> = (1..=6).collect();
    let mut config = fleet_config(vec![proxy.addr().to_string(), healthy.addr().to_string()]);
    // One connection per backend and no stealing: the only way past the
    // straggler is the hedge path. Fixed 100 ms deadline from the first
    // dispatch (what the CLI's --hedge-ms compiles to).
    config.connections_per_backend = 1;
    config.steal = false;
    config.hedge.min_completions = 0;
    config.hedge.min_deadline = Duration::from_millis(100);
    let fleet = Fleet::new(config).unwrap();
    let (json, stats) = fleet
        .sweep_with_stats(&owned(&ARCHS), &owned(&NETWORKS), &seeds, Some(SAMPLE_CAP))
        .expect("sweep with a stalled backend");

    assert_eq!(json.to_string(), direct_grid_bytes(&seeds));
    assert!(stats.hedges >= 1, "overdue rows must be hedged: {stats:?}");
    assert!(
        stats.hedge_wins >= 1,
        "the duplicate must win at least one race: {stats:?}"
    );
    assert_eq!(
        stats.membership[0].1, "active",
        "cancelled losers must not feed the straggler's breaker: {stats:?}"
    );
    assert_eq!(
        stats.per_backend_cells.iter().sum::<u64>(),
        stats.cells as u64
    );
    assert!(registry().counter("fleet.hedge_total").get() >= 1);
    stalled.shutdown();
    healthy.shutdown();
    proxy.stop();
}

/// The straggler gate: four backends, one behind a 500 ms-per-request
/// proxy, one connection each. A static schedule (no stealing, no hedging)
/// waits out every row homed on the straggler; the default control plane
/// moves them. Both sweeps must merge to the direct grid's bytes, and the
/// dynamic one must finish at least 3× sooner. The static sweep runs first
/// on cold daemons, so the dynamic one also finds warm caches, but the
/// stall is a sleep that no cache shortens.
#[test]
fn dynamic_dispatch_beats_a_static_schedule_around_a_straggler() {
    use chaos::SlowProxy;
    const STRAGGLER_CAP: usize = 2048;
    const MIN_SPEEDUP: f64 = 3.0;

    let servers: Vec<Server> = (0..4)
        .map(|_| {
            Server::start(ServeConfig {
                workers: 4,
                engine_threads: 1,
                ..ServeConfig::default()
            })
            .expect("bind ephemeral port")
        })
        .collect();
    let proxy = SlowProxy::start(servers[0].addr()).expect("proxy");
    proxy.set_delay(Duration::from_millis(500));
    let endpoints: Vec<String> = std::iter::once(proxy.addr().to_string())
        .chain(servers[1..].iter().map(|s| s.addr().to_string()))
        .collect();
    let seeds: Vec<u64> = (1..=8).collect();
    let sweep = |dynamic: bool| {
        let mut config = FleetConfig::new(endpoints.clone());
        config.connections_per_backend = 1;
        if !dynamic {
            config.steal = false;
            config.hedge.enabled = false;
        }
        let fleet = Fleet::new(config).unwrap();
        let started = Instant::now();
        let json = fleet
            .sweep(
                &owned(&ARCHS),
                &owned(&NETWORKS),
                &seeds,
                Some(STRAGGLER_CAP),
            )
            .expect("straggler sweep");
        (json.to_string(), started.elapsed().as_secs_f64())
    };
    let (static_bytes, static_wall) = sweep(false);
    let (dynamic_bytes, dynamic_wall) = sweep(true);

    let expected = grid_bytes(
        &ARCHS,
        &NETWORKS,
        &seeds,
        STRAGGLER_CAP,
        &DecompCache::new(),
    );
    assert_eq!(
        static_bytes, expected,
        "static merge must be byte-identical"
    );
    assert_eq!(
        dynamic_bytes, expected,
        "dynamic merge must be byte-identical"
    );
    let speedup = static_wall / dynamic_wall;
    println!("straggler: static {static_wall:.3}s  dynamic {dynamic_wall:.3}s  {speedup:.2}x");
    assert!(
        speedup >= MIN_SPEEDUP,
        "static {static_wall:.3}s / dynamic {dynamic_wall:.3}s = {speedup:.2}x, \
         below the {MIN_SPEEDUP}x straggler gate"
    );
    for s in servers {
        s.shutdown();
    }
    proxy.stop();
}

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sibia-fleet-rows-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A store-backed daemon with one worker and one engine thread.
fn start_store_server(dir: &Path, peers: Vec<String>) -> Server {
    Server::start(ServeConfig {
        workers: 1,
        engine_threads: 1,
        store_dir: Some(dir.to_path_buf()),
        peers,
        ..ServeConfig::default()
    })
    .expect("bind")
}

/// Counters summed over daemons, each read from the daemon's own `metrics`
/// verb (the process-global registry is shared with sibling tests).
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    cache_misses: u64,
    store_hits: u64,
    store_probes: u64,
    peer_hits: u64,
}

fn counts(servers: &[&Server]) -> Counts {
    let mut sum = Counts::default();
    for server in servers {
        let metrics = Client::connect(server.addr())
            .expect("connect")
            .metrics()
            .expect("metrics");
        let at = |path: &[&str]| {
            path.iter()
                .try_fold(&metrics, |v, k| v.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        sum.cache_misses += at(&["cache", "misses"]);
        sum.store_hits += at(&["store", "hits"]);
        sum.store_probes += at(&["store", "hits"]) + at(&["store", "misses"]);
        sum.peer_hits += at(&["registry", "counters", "serve.peer.hits"]);
    }
    sum
}

/// Each row is computed once: a cold sweep costs the backends exactly the
/// decomposition misses of one in-process grid, and probes each cell's
/// store key once.
#[test]
fn a_cold_sweep_computes_each_row_once() {
    let dirs = [temp_dir("once-b0"), temp_dir("once-b1")];
    let servers: Vec<Server> = dirs
        .iter()
        .map(|d| start_store_server(d, Vec::new()))
        .collect();
    let backends: Vec<&Server> = servers.iter().collect();
    // dgcnn and resnet18 share no layer, so the in-process grid's single
    // cache has no cross-row hit that split backends would miss.
    let networks = ["dgcnn", "resnet18"];
    let seeds = [1u64, 2];
    let mut config = fleet_config(servers.iter().map(|s| s.addr().to_string()).collect());
    config.steal = false;
    config.hedge.enabled = false;
    let fleet = Fleet::new(config).unwrap();

    let before = counts(&backends);
    let (json, stats) = fleet
        .sweep_with_stats(
            &owned(&FIG_ARCHS),
            &owned(&networks),
            &seeds,
            Some(SAMPLE_CAP),
        )
        .expect("cold sweep");
    let after = counts(&backends);

    let cache = DecompCache::new();
    assert_eq!(
        json.to_string(),
        grid_bytes(&FIG_ARCHS, &networks, &seeds, SAMPLE_CAP, &cache)
    );
    assert_eq!(
        after.cache_misses - before.cache_misses,
        cache.misses(),
        "the backends must synthesize and measure each row once"
    );
    assert_eq!(stats.attempts, stats.cells as u64, "{stats:?}");
    assert_eq!(after.store_probes - before.store_probes, stats.attempts);
    for s in servers {
        s.shutdown();
    }
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// A warm sweep is all store hits even after the cold sweep stole rows:
/// each row is homed on the member that completed it, and such a pinned
/// row is never stolen.
#[test]
fn a_warm_sweep_after_steals_is_all_store_hits() {
    use chaos::SlowProxy;

    let dirs = [temp_dir("steal-b0"), temp_dir("steal-b1")];
    let servers: Vec<Server> = dirs
        .iter()
        .map(|d| start_store_server(d, Vec::new()))
        .collect();
    let backends: Vec<&Server> = servers.iter().collect();
    let proxy = SlowProxy::start(servers[1].addr()).expect("proxy");
    proxy.set_delay(Duration::from_millis(500));
    let mut config = fleet_config(vec![
        servers[0].addr().to_string(),
        proxy.addr().to_string(),
    ]);
    // Stealing, not hedging, is what moves rows off the slow member.
    config.hedge.enabled = false;
    let fleet = Fleet::new(config).unwrap();
    let seeds: Vec<u64> = (1..=6).collect();

    let (cold, cold_stats) = fleet
        .sweep_with_stats(&owned(&ARCHS), &owned(&NETWORKS), &seeds, Some(SAMPLE_CAP))
        .expect("cold sweep");
    assert!(
        cold_stats.steals >= 1,
        "the slow member's rows must be stolen: {cold_stats:?}"
    );
    proxy.set_delay(Duration::ZERO);
    let before = counts(&backends);
    let (warm, warm_stats) = fleet
        .sweep_with_stats(&owned(&ARCHS), &owned(&NETWORKS), &seeds, Some(SAMPLE_CAP))
        .expect("warm sweep");
    let after = counts(&backends);

    assert_eq!(cold.to_string(), direct_grid_bytes(&seeds));
    assert_eq!(warm.to_string(), cold.to_string());
    assert_eq!(
        after.store_hits - before.store_hits,
        warm_stats.cells as u64,
        "every warm cell must be a store hit: {warm_stats:?}"
    );
    for s in servers {
        s.shutdown();
    }
    proxy.stop();
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Peer warm start through a fleet sweep: a cold daemon whose peer holds
/// the grid answers every cell from the peer, byte-identically, and
/// computes nothing.
#[test]
fn a_cold_daemon_answers_a_fleet_sweep_from_its_warm_peer() {
    let dirs = [temp_dir("peer-warm"), temp_dir("peer-cold")];
    let warm = start_store_server(&dirs[0], Vec::new());
    let warm_fleet = Fleet::new(fleet_config(vec![warm.addr().to_string()])).unwrap();
    fleet_sweep_bytes(&warm_fleet, &SEEDS);
    let cold = start_store_server(&dirs[1], vec![warm.addr().to_string()]);
    let fleet = Fleet::new(fleet_config(vec![cold.addr().to_string()])).unwrap();

    let before = counts(&[&cold]);
    let (json, stats) = fleet
        .sweep_with_stats(&owned(&ARCHS), &owned(&NETWORKS), &SEEDS, Some(SAMPLE_CAP))
        .expect("peer-warmed sweep");
    let after = counts(&[&cold]);

    assert_eq!(json.to_string(), direct_grid_bytes(&SEEDS));
    assert_eq!(
        after.peer_hits - before.peer_hits,
        stats.cells as u64,
        "every cell must come from the peer: {stats:?}"
    );
    assert_eq!(
        after.cache_misses, before.cache_misses,
        "nothing recomputed"
    );
    warm.shutdown();
    cold.shutdown();
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}
