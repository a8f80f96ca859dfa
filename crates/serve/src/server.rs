//! The accelerator-as-a-service daemon.
//!
//! ## Threading model
//!
//! ```text
//! epoll reactor (one thread, every connection)
//!        │  frame line → parse → admission control
//!        ▼
//! bounded JobQueue  ──▶ worker pool (N threads)
//!        ▲                   │ simulate / encode / sweep
//!        │                   ▼
//! overloaded reject    serialize → Completer → reactor flushes the line
//! ```
//!
//! Cheap requests (`ping`, `version`, `lookup`, `metrics`, `spans`,
//! `stats`) are answered inline on the reactor thread so the daemon stays
//! observable while saturated. Work requests (`encode`,
//! `simulate`, `sweep`) pass through the bounded [`JobQueue`]: when it is
//! full the request is rejected *immediately* with a typed `overloaded`
//! error — never queued unboundedly, never blocked. Requests pipeline, and
//! a connection's responses may return out of request order (see
//! `crate::reactor_front`). Linux only: `Server::start` fails with
//! `Unsupported` elsewhere.
//!
//! A request whose work panics is answered with a typed `internal` error
//! and counted in `serve.worker.panics`; its worker thread keeps serving.
//!
//! ## Observability
//!
//! Every request gets a `trace_id` echoed in its response envelope
//! (server-assigned, or adopted from a propagated trace context), and its
//! latency is split into queue-wait / compute / serialize phase histograms
//! (`serve.latency.*` in the unified registry — see DESIGN.md §8). With
//! [`ServeConfig::trace`] on, each work request also records a
//! `serve.request` span in the process tracer ([`sibia_obs::tracer`]),
//! carrying that `trace_id`, its queue wait, and the `sim.*` spans of its
//! computation as children; `spans` with the `trace_id` returns them as
//! Chrome `trace_event` objects.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] (or SIGTERM/ctrl-c via [`crate::signal`] in
//! the CLI) drains the reactor: it stops reading new frames, waits for
//! every in-flight job's response to flush, and closes the connections and
//! the listener. Only then does the queue close and the worker pool join,
//! so every admitted request gets its response.
//!
//! ## Determinism
//!
//! All simulation state lives in the long-lived, *bounded* [`DecompCache`];
//! cache hits, evictions, worker interleaving, and sweep thread counts are
//! all invisible in responses (see `crate::protocol` for the guarantee).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sibia_nn::{zoo, Network};
use sibia_obs::json::Json;
use sibia_obs::{Counter, Sampler, SamplerSource, Telemetry};
use sibia_sim::{
    ArchSpec, DecompCache, GridCell, GridRequest, GridResult, ParallelEngine, Simulator,
};
use sibia_store::Store;

use crate::metrics::{GaugeSample, ServeMetrics};
use crate::protocol::{
    arch_by_name, encode_stats, grid_to_json, network_result_to_json, progress_frame, wire_line,
    Envelope, ErrorCode, Request, ServeError, PROTOCOL_REVISION,
};
use crate::queue::JobQueue;
use crate::reactor_front::ReactorJob;

/// Library-default statistics sample cap (matches `Simulator::new`).
pub const DEFAULT_SAMPLE_CAP: usize = 32_768;

/// How often the foreground daemon checks the signal latch.
const SIGNAL_TICK: Duration = Duration::from_millis(20);

/// Longest accepted request line (16 MiB covers ~2M-value encode payloads).
pub(crate) const MAX_LINE_BYTES: usize = 16 << 20;

/// Default span count returned by a `spans` request without `limit` — the
/// whole hierarchy buffer, since a fleet coordinator wants every span of
/// its sweep.
pub(crate) const SPANS_DEFAULT_LIMIT: usize = 4096;

/// Daemon configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind host.
    pub host: String,
    /// Bind port; 0 asks the OS for an ephemeral port (the bound port is on
    /// [`ServerHandle::addr`]).
    pub port: u16,
    /// Worker threads executing queued jobs.
    pub workers: usize,
    /// Job-queue bound: pending jobs beyond this are rejected `overloaded`.
    pub queue_capacity: usize,
    /// Threads each `sweep` grid fans out over.
    pub engine_threads: usize,
    /// Per-level entry cap of the shared decomposition cache.
    pub cache_capacity: usize,
    /// Directory of the persistent result store. `None` (the default) runs
    /// without persistence; `Some(dir)` opens (or creates) the store there,
    /// so a restarted daemon serves previously computed results from disk
    /// (see DESIGN.md §9).
    pub store_dir: Option<PathBuf>,
    /// Peer daemons (`host:port`) whose stores this daemon may consult via
    /// the revision-5 `lookup` verb before simulating a cold cell — the
    /// cross-backend warm start. Tried in order with short timeouts; a
    /// peer hit is written back to the local store so the next miss is
    /// local. Peers answer `lookup` from their store only (never compute,
    /// never consult *their* peers), so chains cannot recurse. Only
    /// meaningful together with [`ServeConfig::store_dir`].
    pub peers: Vec<String>,
    /// Per-connection pipelining cap. A request arriving while this many
    /// are already in flight on its connection is rejected with a typed
    /// `overloaded` error.
    pub pipeline_depth: usize,
    /// Per-connection write budget. A work request arriving while more
    /// than this many response bytes are queued unread is rejected with a
    /// typed `overloaded` error.
    pub write_budget_bytes: usize,
    /// Enable the process-global tracer for the daemon's lifetime, so work
    /// requests record the full `serve.request` → `sim.network` →
    /// `sim.layer` span hierarchy (readable via the `spans` verb and
    /// mergeable into a fleet-wide trace). Off by default: the global
    /// tracer stays a single relaxed atomic load per span site.
    pub trace: bool,
    /// Background telemetry sampling interval in milliseconds (the `stats`
    /// verb also forces a sample, so scrapes are never stale).
    pub sample_interval_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            host: "127.0.0.1".to_owned(),
            port: 0,
            workers: cores.min(8),
            queue_capacity: 64,
            engine_threads: cores,
            cache_capacity: 4096,
            store_dir: None,
            peers: Vec::new(),
            pipeline_depth: 64,
            write_budget_bytes: 1 << 20,
            trace: false,
            sample_interval_ms: 500,
        }
    }
}

/// Worker-side handle that turns per-cell completions into wire progress
/// frames, built only for `sweep` requests that opted into streaming. Each
/// frame goes straight to the reactor as a non-final completion.
pub(crate) struct ProgressEmitter {
    id: Option<Json>,
    completer: sibia_net::Completer,
}

impl ProgressEmitter {
    pub(crate) fn emit(&self, done: usize, total: usize, cell: &str) {
        let frame = progress_frame(self.id.as_ref(), done, total, cell);
        self.completer.progress(wire_line(&frame));
    }
}

/// One admitted unit of work.
pub(crate) struct Job {
    pub(crate) envelope: Envelope,
    pub(crate) queued_at: Instant,
    pub(crate) deadline: Option<Instant>,
    /// Where the finished response goes (see [`crate::reactor_front`]).
    pub(crate) reply: ReactorJob,
}

/// Shared server state.
pub(crate) struct Shared {
    pub(crate) queue: JobQueue<Job>,
    pub(crate) metrics: ServeMetrics,
    pub(crate) cache: DecompCache,
    pub(crate) engine: ParallelEngine,
    /// Persistent result store, when the daemon was started with a
    /// `store_dir`. Simulate/sweep read through it and write back.
    pub(crate) store: Option<Store>,
    /// Peer daemons consulted (via `lookup`) on a local store miss before
    /// simulating. Empty means no peer warm start.
    pub(crate) peers: Vec<String>,
    /// Time-series store sampled by the background [`Sampler`] and read by
    /// the `stats` request (which also forces a fresh sample, so scrapes
    /// are never staler than one call).
    pub(crate) telemetry: Arc<Telemetry>,
}

impl Shared {
    fn gauge_sample(&self) -> GaugeSample {
        GaugeSample {
            queue_depth: self.queue.depth(),
            queue_capacity: self.queue.capacity(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_entries: self.cache.decomp_entries(),
        }
    }

    pub(crate) fn metrics_json(&self) -> Json {
        let store_stats = self.store.as_ref().map(Store::stats);
        self.metrics.to_json(
            &self.gauge_sample(),
            sibia_obs::tracer().dropped(),
            store_stats.as_ref(),
        )
    }

    /// Refreshes the pull-style gauges (queue depth, cache and store
    /// statistics) in the registry. Installed as the telemetry sampler's
    /// pre-tick hook so every sample sees current levels.
    pub(crate) fn refresh_gauges(&self) {
        let store_stats = self.store.as_ref().map(Store::stats);
        self.metrics
            .set_gauges(&self.gauge_sample(), store_stats.as_ref());
    }

    /// The `version` response: crate version and wire-protocol revision,
    /// so clients can gate on features (`version` itself arrived in
    /// revision 2).
    pub(crate) fn version_json(&self) -> Json {
        Json::obj(vec![
            ("crate_version", Json::from(env!("CARGO_PKG_VERSION"))),
            ("protocol_revision", Json::from(PROTOCOL_REVISION)),
        ])
    }

    /// The newest `limit` spans of the process tracer (the worker-side
    /// `serve.request` guards plus the `sim.*` spans nested under them), in
    /// start order so parents precede children, as Chrome `trace_event`
    /// objects. With a `trace_id` filter, only spans belonging to that
    /// request — a span whose `trace_id` attribute matches, plus every
    /// descendant — are selected; that is how a client finds the spans of
    /// the response that echoed the id, and how a fleet coordinator pulls
    /// exactly its own sweep's spans out of a shared backend. Empty unless
    /// the daemon was started with tracing enabled.
    pub(crate) fn spans_json(&self, limit: usize, trace_id: Option<&str>) -> Json {
        let records = sibia_obs::tracer().records();
        let selected: Vec<&sibia_obs::SpanRecord> = match trace_id {
            None => records.iter().collect(),
            Some(tid) => {
                // A span belongs to the trace when walking its parent chain
                // (parent ids are always lower, so the walk terminates)
                // reaches a span whose `trace_id` attribute equals `tid`.
                let by_id: std::collections::HashMap<u64, &sibia_obs::SpanRecord> =
                    records.iter().map(|r| (r.id, r)).collect();
                records
                    .iter()
                    .filter(|r| {
                        let mut cur = Some(*r);
                        while let Some(s) = cur {
                            if s.attr("trace_id") == Some(tid) {
                                return true;
                            }
                            cur = s.parent.and_then(|p| by_id.get(&p).copied());
                        }
                        false
                    })
                    .collect()
            }
        };
        let newest = &selected[selected.len().saturating_sub(limit)..];
        let spans: Vec<Json> = newest.iter().map(|r| r.to_chrome_json()).collect();
        Json::obj(vec![
            ("spans", Json::Array(spans)),
            ("dropped", Json::from(sibia_obs::tracer().dropped())),
        ])
    }

    /// The `stats` response: a fresh telemetry sample (counter rates, gauge
    /// levels, windowed histogram quantiles) serialized canonically.
    pub(crate) fn stats_json(&self) -> Json {
        self.telemetry.sample();
        self.telemetry.stats_json()
    }

    /// The `lookup` response (revision 5): a store-only probe for one
    /// cell. Derives the store key exactly as the equivalent `simulate`
    /// would (same seed-fresh [`Simulator`], same resolved sample cap) and
    /// answers `found: true` with the canonical serialization on a hit —
    /// byte-identical to what `simulate` would return — or `found: false`
    /// on a miss or when this daemon has no store. Never computes, never
    /// consults this daemon's own peers.
    pub(crate) fn lookup_json(
        &self,
        arch: &str,
        network: &str,
        seed: u64,
        sample_cap: Option<usize>,
    ) -> Result<Json, ServeError> {
        let spec = resolve_arch(arch)?;
        let net = resolve_network(network)?;
        let mut sim = Simulator::new(seed);
        sim.sample_cap = sample_cap.unwrap_or(DEFAULT_SAMPLE_CAP).max(1);
        let hit = self
            .store
            .as_ref()
            .and_then(|store| sibia_sim::try_stored(&sim, &spec, &net, store));
        Ok(match hit {
            Some(result) => {
                self.metrics.registry().counter("serve.lookup.hits").add(1);
                Json::obj(vec![
                    ("found", Json::Bool(true)),
                    ("result", network_result_to_json(&result)),
                ])
            }
            None => {
                self.metrics
                    .registry()
                    .counter("serve.lookup.misses")
                    .add(1);
                Json::obj(vec![("found", Json::Bool(false))])
            }
        })
    }
}

/// A protocol arch name's spec, or a typed `unknown_arch` error.
fn resolve_arch(name: &str) -> Result<ArchSpec, ServeError> {
    let error = || ServeError::new(ErrorCode::UnknownArch, format!("unknown arch '{name}'"));
    arch_by_name(name).ok_or_else(error)
}

/// A zoo network, or a typed `unknown_network` error.
fn resolve_network(name: &str) -> Result<Network, ServeError> {
    let error = || {
        ServeError::new(
            ErrorCode::UnknownNetwork,
            format!("unknown network '{name}'"),
        )
    };
    zoo::by_name(name).ok_or_else(error)
}

/// Peer-lookup connect timeout: a peer is on the same fleet, so a dial
/// slower than this means it is gone — fall through to simulating.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Peer-lookup IO timeout: a store probe is a read + one response line.
const PEER_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Cross-backend warm start for one cell: asks each configured peer (in
/// order) whether its store already holds the cell. First parsable hit
/// wins. Every failure mode — dial, IO, protocol, unparsable result —
/// counts in `serve.peer.errors` and falls through to the next peer, then
/// to local simulation: a broken peer must never fail a request that this
/// daemon can compute itself.
fn peer_warm_start(
    shared: &Shared,
    arch: &str,
    network: &str,
    seed: u64,
    sample_cap: usize,
) -> Option<sibia_sim::perf::NetworkResult> {
    let registry = shared.metrics.registry();
    for peer in &shared.peers {
        let mut client = match crate::client::Client::with_timeouts(
            peer.as_str(),
            Some(PEER_CONNECT_TIMEOUT),
            Some(PEER_IO_TIMEOUT),
            Some(PEER_IO_TIMEOUT),
        ) {
            Ok(c) => c,
            Err(_) => {
                registry.counter("serve.peer.errors").add(1);
                continue;
            }
        };
        match client.lookup(arch, network, seed, Some(sample_cap)) {
            Ok(resp) => {
                if matches!(resp.get("found"), Some(Json::Bool(true))) {
                    match resp
                        .get("result")
                        .and_then(sibia_sim::network_result_from_json)
                    {
                        Some(result) => {
                            registry.counter("serve.peer.hits").add(1);
                            return Some(result);
                        }
                        None => registry.counter("serve.peer.errors").add(1),
                    }
                } else {
                    registry.counter("serve.peer.misses").add(1);
                }
            }
            Err(_) => registry.counter("serve.peer.errors").add(1),
        }
    }
    None
}

/// A request's peer warm start (a `simulate` is one cell, a `sweep` its
/// whole grid): every cell missing from the local store is looked up on
/// the peers ([`peer_warm_start`]) and a hit is written back, so the grid's
/// store read-through then answers it without simulating. Archs and
/// networks come as `(protocol name, resolved)` pairs. Only called with
/// peers configured; without them a request probes each cell's key once,
/// in the grid.
fn warm_from_peers<'a>(
    shared: &Shared,
    store: &Store,
    sim: &Simulator,
    archs: impl Iterator<Item = (&'a str, &'a ArchSpec)>,
    nets: impl Iterator<Item = (&'a str, &'a Network)> + Clone,
    seeds: &[u64],
) {
    for (arch, spec) in archs {
        for (network, net) in nets.clone() {
            for &seed in seeds {
                let mut cell_sim = *sim;
                cell_sim.seed = seed;
                if sibia_sim::try_stored(&cell_sim, spec, net, store).is_some() {
                    continue;
                }
                if let Some(fetched) =
                    peer_warm_start(shared, arch, network, seed, cell_sim.sample_cap)
                {
                    let key = sibia_sim::network_key(&cell_sim, spec, net.name());
                    sibia_sim::stored::put_best_effort(store, &key, &fetched);
                }
            }
        }
    }
}

/// Executes one work request against the shared cache/engine. `progress`
/// is present only for streamed sweeps: the worker-side emitter that turns
/// completed cells into wire frames.
pub(crate) fn execute(
    shared: &Shared,
    request: &Request,
    progress: Option<&ProgressEmitter>,
) -> Result<Json, ServeError> {
    match request {
        Request::Encode {
            values,
            bits,
            gsbr_width,
        } => encode_stats(values, *bits, *gsbr_width),
        Request::Simulate {
            arch,
            network,
            seed,
            sample_cap,
        } => {
            let grid = run_grid(
                shared,
                std::slice::from_ref(arch),
                std::slice::from_ref(network),
                std::slice::from_ref(seed),
                *sample_cap,
                None,
            )?;
            Ok(network_result_to_json(grid.get(0, 0, 0)))
        }
        Request::Sweep {
            archs,
            networks,
            seeds,
            sample_cap,
            stream,
        } => {
            let progress = progress.filter(|_| *stream);
            let grid = run_grid(shared, archs, networks, seeds, *sample_cap, progress)?;
            Ok(grid_to_json(&grid))
        }
        // Ping/Version/Lookup/Metrics/Spans/Stats are answered inline by the
        // reactor thread.
        Request::Ping
        | Request::Version
        | Request::Lookup { .. }
        | Request::Metrics
        | Request::Spans { .. }
        | Request::Stats => Err(ServeError::new(
            ErrorCode::Internal,
            "inline request reached the worker pool",
        )),
    }
}

/// The one handler behind `simulate` (a one-cell grid) and `sweep`: resolve
/// the names, warm the local store from the peers when any are configured,
/// run one grid request with the daemon's cache and store (and the progress
/// observer of a streamed sweep), then let the store compact.
fn run_grid(
    shared: &Shared,
    archs: &[String],
    networks: &[String],
    seeds: &[u64],
    sample_cap: Option<usize>,
    progress: Option<&ProgressEmitter>,
) -> Result<GridResult, ServeError> {
    let specs = archs
        .iter()
        .map(|a| resolve_arch(a))
        .collect::<Result<Vec<_>, _>>()?;
    let nets = networks
        .iter()
        .map(|n| resolve_network(n))
        .collect::<Result<Vec<_>, _>>()?;
    let mut sim = Simulator::new(seeds[0]);
    sim.sample_cap = sample_cap.unwrap_or(DEFAULT_SAMPLE_CAP).max(1);
    if let Some(store) = &shared.store {
        if !shared.peers.is_empty() {
            let archs = archs.iter().map(String::as_str).zip(&specs);
            let nets = networks.iter().map(String::as_str).zip(&nets);
            warm_from_peers(shared, store, &sim, archs, nets, seeds);
        }
    }
    // Streamed: the observer turns each completed cell into one wire frame.
    // The grid itself — and therefore the final response line — is
    // byte-identical with or without it.
    let total = specs.len() * nets.len() * seeds.len();
    let done = AtomicUsize::new(0);
    let observe = progress.map(|emitter| {
        let done = &done;
        move |cell: &GridCell| {
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            let name = format!(
                "{}/{}/{}",
                archs[cell.arch_index], networks[cell.network_index], cell.seed
            );
            emitter.emit(n, total, &name);
        }
    });
    let grid = shared.engine.run(GridRequest {
        cache: Some(&shared.cache),
        store: shared.store.as_ref(),
        on_cell: observe.as_ref().map(|f| f as &(dyn Fn(&GridCell) + Sync)),
        ..GridRequest::new(sim, &specs, &nets, seeds)
    });
    if let Some(store) = &shared.store {
        let _ = store.maybe_compact();
    }
    Ok(grid)
}

/// Runs one request's work, turning a panic into a typed `internal` error
/// counted in `panics`: a bug that one request reaches costs that request
/// its answer, not the pool a worker thread for the daemon's lifetime.
fn contain_panic(
    panics: &Counter,
    work: impl FnOnce() -> Result<Json, ServeError>,
) -> Result<Json, ServeError> {
    // Unwind safety: the work shares only atomics and mutex-guarded state.
    // A panic under a lock poisons it, and the lock's `expect` then fails
    // every later request that takes it, each one contained here.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)).unwrap_or_else(|payload| {
        panics.inc();
        let what = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("no message");
        Err(ServeError::new(
            ErrorCode::Internal,
            format!("request panicked: {what}"),
        ))
    })
}

fn worker_loop(shared: &Shared) {
    // Aggregate busy/idle accounting across the pool: the sampler turns the
    // counter deltas into utilisation rates (busy_rate / (busy + idle)).
    let busy_us = shared.metrics.registry().counter("serve.worker.busy_us");
    let idle_us = shared.metrics.registry().counter("serve.worker.idle_us");
    let panics = shared.metrics.registry().counter("serve.worker.panics");
    let mut idle_since = Instant::now();
    while let Some(job) = shared.queue.pop() {
        idle_us.add(idle_since.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        let queue_wait = job.queued_at.elapsed();
        let compute_start = Instant::now();
        // When the process tracer is enabled (`--trace`), wrap the work in
        // a span carrying the response's `trace_id`: `sim.*` spans recorded
        // on this thread nest under it via the thread-local parent stack,
        // and a propagated trace context links it under the remote
        // caller's span for merging. Its duration is the compute time.
        let mut span = sibia_obs::tracer().span("serve.request");
        span.attr("kind", job.envelope.request.kind());
        span.attr("trace_id", job.reply.trace_id());
        span.attr("queue_wait_us", queue_wait.as_micros());
        if let Some(parent) = job.envelope.trace.as_ref().and_then(|c| c.parent_span) {
            span.set_remote_parent(parent);
        }
        // Streamed sweeps get a progress emitter bound to this job's
        // connection; everything else computes silently.
        let emitter = match &job.envelope.request {
            Request::Sweep { stream: true, .. } => Some(ProgressEmitter {
                id: job.envelope.id.clone(),
                completer: job.reply.completer(),
            }),
            _ => None,
        };
        let outcome = match job.deadline {
            Some(deadline) if Instant::now() > deadline => Err(ServeError::new(
                ErrorCode::DeadlineExceeded,
                "deadline passed while queued",
            )),
            _ => contain_panic(&panics, || {
                execute(shared, &job.envelope.request, emitter.as_ref())
            }),
        };
        span.attr("ok", outcome.is_ok());
        drop(span);
        let compute = compute_start.elapsed();
        busy_us.add(compute.as_micros().min(u128::from(u64::MAX)) as u64);
        idle_since = Instant::now();
        crate::reactor_front::finish_job(shared, job.reply, outcome, queue_wait, compute);
    }
}

/// A running daemon. Dropping the handle does **not** stop the server; call
/// [`ServerHandle::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    /// The epoll reactor serving every connection (see
    /// [`crate::reactor_front`]).
    reactor: sibia_net::Reactor,
    /// The worker pool draining the job queue; joined after the reactor
    /// drains.
    workers: Vec<JoinHandle<()>>,
    /// Background telemetry sampler; stopped (flag + condvar, no thread
    /// kill) during [`Server::shutdown`].
    sampler: Sampler,
}

/// Public alias: `Server::start` returns the handle type.
pub type ServerHandle = Server;

impl Server {
    /// Binds, starts the epoll reactor and spawns the worker pool, and
    /// returns immediately.
    pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
        if config.trace {
            // Process-global and sticky for the daemon's lifetime: sim
            // spans check one relaxed atomic and servers never race to
            // toggle it off under each other.
            sibia_obs::tracer().enable();
        }
        let store = match &config.store_dir {
            Some(dir) => Some(Store::open(dir).map_err(|e| {
                std::io::Error::other(format!("opening store at {}: {e}", dir.display()))
            })?),
            None => None,
        };
        let metrics = ServeMetrics::new();
        // The sampler walks this server's own registry (request counters,
        // latency histograms, worker busy/idle) plus the process-global one
        // (sim kernel invocations, reactor wait/dispatch timings).
        let telemetry = Arc::new(Telemetry::new(vec![
            SamplerSource::Shared(Arc::clone(metrics.registry())),
            SamplerSource::Static(sibia_obs::registry()),
        ]));
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            metrics,
            cache: DecompCache::with_capacity(config.cache_capacity.max(1)),
            engine: ParallelEngine::with_threads(config.engine_threads),
            store,
            peers: config.peers.clone(),
            telemetry: Arc::clone(&telemetry),
        });
        // Start the reactor before any other thread so a failed bind or an
        // unsupported platform fails cleanly with nothing to clean up.
        let reactor = crate::reactor_front::start(&config, Arc::clone(&shared))?;
        // Pre-tick hook refreshes the pull-style gauges. Weak, so the hook
        // (owned by the telemetry the Shared also owns) never forms a
        // reference cycle that would leak the engine's thread pool.
        let weak = Arc::downgrade(&shared);
        telemetry.set_hook(move || {
            if let Some(s) = weak.upgrade() {
                s.refresh_gauges();
            }
        });
        let sampler = Sampler::start(
            telemetry,
            Duration::from_millis(config.sample_interval_ms.max(1)),
        );
        let workers = (0..config.workers.clamp(1, 256))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Server {
            shared,
            reactor,
            workers,
            sampler,
        })
    }

    /// The bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.reactor.addr()
    }

    /// Live queue depth (pending jobs).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Requests the graceful drain and blocks until every thread has
    /// exited: pending jobs finish and get responses, new work is refused,
    /// connections close.
    pub fn shutdown(self) {
        self.sampler.stop();
        // Order matters: the reactor drain stops new frames but waits for
        // every in-flight completion, which needs the workers alive. Only
        // then close the queue and join them.
        self.reactor.shutdown();
        self.shared.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Blocks until [`crate::signal::signalled`] (SIGTERM/ctrl-c latched),
    /// then drains gracefully. The CLI's foreground path.
    pub fn run_until_signalled(self) {
        crate::signal::install();
        while !crate::signal::signalled() {
            std::thread::sleep(SIGNAL_TICK);
        }
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_request_is_answered_and_counted() {
        let panics = Counter::new();
        let err = contain_panic(&panics, || panic!("boom")).unwrap_err();
        assert_eq!(err.code, ErrorCode::Internal);
        assert_eq!(err.message, "request panicked: boom");
        let err = contain_panic(&panics, || panic!("layer {} of {}", 3, 7)).unwrap_err();
        assert_eq!(err.message, "request panicked: layer 3 of 7");
        assert_eq!(panics.get(), 2);
        // Work that returns passes through untouched and is not counted.
        let ok = contain_panic(&panics, || Ok(Json::Int(1)));
        assert_eq!(ok.unwrap(), Json::Int(1));
        let typed = contain_panic(&panics, || {
            Err(ServeError::new(ErrorCode::BadRequest, "no"))
        });
        assert_eq!(typed.unwrap_err().code, ErrorCode::BadRequest);
        assert_eq!(panics.get(), 2);
    }
}
