//! `serve_mix`: one in-process daemon at `ServeConfig::default()`, driven
//! closed-loop by [`CLIENTS`] client threads over one connection each.
//!
//! The mix is 70% warm `simulate` (a hot set requested once during set-up,
//! so its decompositions are cached), 10% cold `simulate` (a fresh seed),
//! 10% `encode` and 10% `ping`. With a warm cache the front, queue and
//! serialization dominate; the simulator does little except on the cold
//! tenth. Every response is compared with the same cell or encoding
//! computed in process, outside the timed window.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sibia::nn::rng::SynthRng;
use sibia::nn::{zoo, Network};
use sibia::obs::Json;
use sibia::serve::protocol::{arch_by_name, encode_stats};
use sibia::serve::{Client, ClientError, ServeConfig, Server};
use sibia::sim::{network_result_to_json, ParallelEngine, Simulator};

use crate::common::{
    counter, derived_seed, fig_archs, json_digest, ms, peak_rss_mb, Ctx, Run, ARCH_NAMES,
};
use crate::daemon::DaemonStats;
use crate::layers;

/// Client threads, one connection each.
pub const CLIENTS: usize = 2;
/// Set-up repetitions (fresh daemon, warm hot set); `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Networks of the hot set.
const HOT_NETS: [&str; 4] = ["dgcnn", "resnet18", "mobilenetv2", "albert-sst2"];
/// Networks a cold request draws from.
const COLD_NETS: [&str; 2] = ["dgcnn", "resnet18"];
const ENCODE_VALUES: usize = 4096;
const ENCODE_BITS: u8 = 8;
const ENCODE_GSBR: u8 = 3;

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Request {
    Simulate {
        arch: &'static str,
        network: &'static str,
        seed: u64,
        warm: bool,
    },
    /// The values are regenerated from this seed on both sides.
    Encode(u64),
    Ping,
}

impl Request {
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Simulate { warm: true, .. } => "simulate_warm",
            Request::Simulate { warm: false, .. } => "simulate_cold",
            Request::Encode(_) => "encode",
            Request::Ping => "ping",
        }
    }
}

fn hot_nets() -> Vec<Network> {
    HOT_NETS
        .iter()
        .map(|n| zoo::by_name(n).expect("hot networks are zoo names"))
        .collect()
}

/// The two hot-set seeds of a run.
fn hot_seeds(seed: u64) -> [u64; 2] {
    [derived_seed(seed, 0), derived_seed(seed, 1)]
}

/// Every (arch, network, seed) of the hot set, as warm simulate requests.
pub fn hot_set(seed: u64) -> Vec<Request> {
    let mut set = Vec::new();
    for network in HOT_NETS {
        for seed in hot_seeds(seed) {
            for arch in ARCH_NAMES {
                set.push(Request::Simulate {
                    arch,
                    network,
                    seed,
                    warm: true,
                });
            }
        }
    }
    set
}

/// One client's endless request stream; the same `(seed, client)` always
/// gives the same stream.
pub struct Schedule {
    rng: SynthRng,
    hot: Vec<Request>,
}

impl Schedule {
    pub fn new(seed: u64, client: u64) -> Self {
        Self {
            rng: SynthRng::for_stream(seed, 1 + client),
            hot: hot_set(seed),
        }
    }
}

fn pick<T: Copy>(rng: &mut SynthRng, items: &[T]) -> T {
    items[(rng.next_u64() % items.len() as u64) as usize]
}

impl Iterator for Schedule {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        Some(match self.rng.next_u64() % 10 {
            0..=6 => pick(&mut self.rng, &self.hot),
            7 => Request::Simulate {
                arch: pick(&mut self.rng, &ARCH_NAMES),
                network: pick(&mut self.rng, &COLD_NETS),
                // A fresh 31-bit seed: never in the hot set (2 of 2^31).
                seed: self.rng.next_u64() >> 33,
                warm: false,
            },
            8 => Request::Encode(self.rng.next_u64()),
            _ => Request::Ping,
        })
    }
}

fn encode_values(values_seed: u64) -> Vec<i32> {
    let mut rng = SynthRng::seed_from_u64(values_seed);
    (0..ENCODE_VALUES)
        .map(|_| (rng.next_u64() % 255) as i32 - 127)
        .collect()
}

fn send(client: &mut Client, request: &Request) -> Result<Json, ClientError> {
    match *request {
        Request::Simulate {
            arch,
            network,
            seed,
            ..
        } => client.simulate(arch, network, seed, None),
        Request::Encode(values_seed) => {
            client.encode(&encode_values(values_seed), ENCODE_BITS, Some(ENCODE_GSBR))
        }
        Request::Ping => client.ping(),
    }
}

/// The digest of the response the daemon must give, computed in process.
fn expected(request: &Request) -> String {
    match *request {
        Request::Simulate {
            arch,
            network,
            seed,
            ..
        } => {
            let spec = arch_by_name(arch).expect("schedule uses protocol arch names");
            let net = zoo::by_name(network).expect("schedule uses zoo names");
            json_digest(&network_result_to_json(
                &Simulator::new(seed).simulate_network(&spec, &net),
            ))
        }
        Request::Encode(values_seed) => {
            match encode_stats(&encode_values(values_seed), ENCODE_BITS, Some(ENCODE_GSBR)) {
                Ok(doc) => json_digest(&doc),
                Err(e) => format!("error: {e:?}"),
            }
        }
        Request::Ping => json_digest(&Json::obj(vec![("pong", Json::Bool(true))])),
    }
}

/// Expected digests of `requests`, computed on [`CLIENTS`] threads.
fn expected_all(requests: &[Request]) -> HashMap<Request, String> {
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(Request, String)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    while let Some(r) = requests.get(next.fetch_add(1, Ordering::Relaxed)) {
                        out.push((*r, expected(r)));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("expected-digest worker panicked"))
            .collect()
    });
    parts.into_iter().flatten().collect()
}

/// The hot set's expected digests through the grid engine (byte-identical
/// to single simulations) rather than 40 serial cells.
fn expected_hot(seed: u64) -> HashMap<Request, String> {
    let seeds = hot_seeds(seed);
    let grid = ParallelEngine::new().simulate_grid(
        &Simulator::new(seeds[0]),
        &fig_archs(),
        &hot_nets(),
        &seeds,
    );
    grid.cells()
        .iter()
        .map(|c| {
            let request = Request::Simulate {
                arch: ARCH_NAMES[c.arch_index],
                network: HOT_NETS[c.network_index],
                seed: c.seed,
                warm: true,
            };
            (request, json_digest(&network_result_to_json(&c.result)))
        })
        .collect()
}

/// Starts a daemon and requests the hot set once over [`CLIENTS`]
/// connections. Returns the daemon and how long that took.
fn start_warm(hot: &[Request]) -> Result<(Server, Duration), String> {
    let started = Instant::now();
    let server = Server::start(ServeConfig::default()).map_err(|e| format!("serve daemon: {e}"))?;
    let addr = server.addr();
    let warmed: Result<(), String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    for request in hot.iter().skip(c).step_by(CLIENTS) {
                        send(&mut client, request).map_err(|e| e.to_string())?;
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("warm-up client panicked"))
    });
    let elapsed = started.elapsed();
    match warmed {
        Ok(()) => Ok((server, elapsed)),
        Err(e) => {
            server.shutdown();
            Err(format!("warming the hot set: {e}"))
        }
    }
}

/// One answered request.
struct Record {
    request: Request,
    latency_ms: f64,
    digest: Result<String, String>,
}

/// One client's closed loop until `deadline`.
fn drive(addr: SocketAddr, seed: u64, client: u64, deadline: Instant) -> Vec<Record> {
    let mut records = Vec::new();
    let mut conn = match Client::connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            records.push(Record {
                request: Request::Ping,
                latency_ms: 0.0,
                digest: Err(format!("connect: {e}")),
            });
            return records;
        }
    };
    for request in Schedule::new(seed, client) {
        if Instant::now() >= deadline {
            break;
        }
        let started = Instant::now();
        let response = send(&mut conn, &request);
        let latency_ms = ms(started.elapsed());
        records.push(Record {
            request,
            latency_ms,
            digest: response
                .map(|doc| json_digest(&doc))
                .map_err(|e| e.to_string()),
        });
    }
    records
}

pub fn run(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    run.load_threads = CLIENTS;
    let hot = hot_set(ctx.seed);
    let mut setups = Vec::new();
    let mut server = None;
    let mut rss = 0.0;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            Server::shutdown(previous);
        }
        let (started, took) = start_warm(&hot)?;
        setups.push(took.as_secs_f64());
        server = Some(started);
        if rep == 0 {
            // Resident memory of one warmed daemon: a fixed amount of work,
            // however many set-ups and cold requests follow.
            rss = peak_rss_mb().unwrap_or(0.0);
        }
    }
    let server = server.expect("at least one set-up");
    run.read("setup_s", crate::stats::median(&setups), "s");
    let addr = server.addr();
    let mut want = expected_hot(ctx.seed);

    let before = DaemonStats::read(addr)?;
    let cells_before = counter("sim.engine.cells");
    let started = Instant::now();
    let deadline = ctx.deadline();
    let records: Vec<Record> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS as u64)
            .map(|c| s.spawn(move || drive(addr, ctx.seed, c, deadline)))
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("load client panicked"))
            .collect()
    });
    let window = started.elapsed();
    // The daemon records a request just after writing its response.
    std::thread::sleep(Duration::from_millis(100));
    let after = DaemonStats::read(addr)?;
    let simulated = counter("sim.engine.cells") - cells_before;
    server.shutdown();

    let sent = records.len() as u64;
    let delta = after.since(&before);
    run.check(
        "telemetry.serve.latency.count",
        delta.requests == sent + 1,
        format!(
            "daemon counted {}, clients sent {sent} + 1 metrics",
            delta.requests
        ),
    );
    let simulates = records
        .iter()
        .filter(|r| matches!(r.request, Request::Simulate { .. }))
        .count() as u64;
    run.check(
        "telemetry.sim.engine.cells",
        simulated == simulates,
        format!("registry {simulated}, simulate requests {simulates}"),
    );

    let latencies: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
    if !ctx.trace {
        run.read("peak_rss_mb", rss, "MB");
        run.latencies("op", &latencies);
        run.read("ops_per_s", sent as f64 / window.as_secs_f64(), "1/s");
    }
    for kind in ["ping", "encode", "simulate_warm", "simulate_cold"] {
        let of_kind: Vec<f64> = records
            .iter()
            .filter(|r| r.request.kind() == kind)
            .map(|r| r.latency_ms)
            .collect();
        run.latencies(&format!("serve.{kind}"), &of_kind);
    }
    delta.record(run, latencies.iter().sum());

    // Output checks: every response against its in-process twin.
    let missing: Vec<Request> = records
        .iter()
        .map(|r| r.request)
        .filter(|r| !want.contains_key(r))
        .collect::<std::collections::HashSet<_>>()
        .into_iter()
        .collect();
    want.extend(expected_all(&missing));
    let mut wrong = HashMap::<&str, u64>::new();
    for r in &records {
        let ok = r.digest.as_ref().ok() == want.get(&r.request);
        if !ok {
            *wrong.entry(r.request.kind()).or_default() += 1;
        }
        run.op(ok);
    }
    run.check(
        "responses.match_in_process",
        wrong.is_empty(),
        format!("mismatches by kind: {wrong:?}"),
    );

    if ctx.trace {
        let nets = hot_nets();
        let rows: Vec<_> = hot_seeds(ctx.seed)
            .into_iter()
            .flat_map(|s| nets.iter().map(move |n| (n, s)))
            .collect();
        let spans = layers::walk(run, &fig_archs(), &rows);
        crate::write_trace(ctx, &spans);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed_and_client() {
        let a: Vec<Request> = Schedule::new(5, 0).take(500).collect();
        let b: Vec<Request> = Schedule::new(5, 0).take(500).collect();
        assert_eq!(a, b);
        let other_client: Vec<Request> = Schedule::new(5, 1).take(500).collect();
        let other_seed: Vec<Request> = Schedule::new(6, 0).take(500).collect();
        assert_ne!(a, other_client);
        assert_ne!(a, other_seed);
    }

    #[test]
    fn schedule_hits_the_mix_proportions() {
        let n = 20_000;
        let mut counts = HashMap::new();
        for request in Schedule::new(1, 0).take(n) {
            *counts.entry(request.kind()).or_insert(0usize) += 1;
        }
        for (kind, share) in [
            ("simulate_warm", 0.7),
            ("simulate_cold", 0.1),
            ("encode", 0.1),
            ("ping", 0.1),
        ] {
            let got = counts[kind] as f64 / n as f64;
            assert!((got - share).abs() < 0.01, "{kind}: {got}");
        }
    }

    #[test]
    fn warm_requests_stay_in_the_hot_set_and_cold_ones_outside() {
        let hot = hot_set(3);
        assert_eq!(hot.len(), ARCH_NAMES.len() * HOT_NETS.len() * 2);
        for request in Schedule::new(3, 0).take(2_000) {
            if let Request::Simulate { warm, .. } = request {
                assert_eq!(hot.contains(&request), warm, "{request:?}");
            }
        }
    }
}
