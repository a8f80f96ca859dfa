//! `report`: ROADMAP's first end-to-end command, the `report_all` binary,
//! run as a subprocess in a fresh working directory per run.
//!
//! It takes the serial path (`Accelerator::run_network`, a fresh cache per
//! cell) plus speculation and compression, and never enters the grid
//! scheduler: a change to the engine's scheduling should not move it.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sibia::compress::{CompressionMode, CompressionReport};
use sibia::nn::zoo::{self, GlueTask};
use sibia::nn::SynthSource;
use sibia::obs::Json;
use sibia::prelude::Accelerator;
use sibia::sim::{ArchSpec, DecompCache};
use sibia::speculate::scenario::MaxPoolScenario;
use sibia::speculate::SliceRepr;

use crate::common::{
    bytes_digest, expected_digest, fig_archs, fig_nets, ms, pct, ratio, repo_root, Ctx, Run,
    GOLDEN_SEED,
};
use crate::layers;

/// Timed runs made even when they overrun `--seconds`: one run takes about
/// 8 s, and a median of four rides out a slow neighbour better than three.
const MIN_RUNS: usize = 4;

/// The files `report_all` writes, relative to its working directory.
pub const OUTPUTS: [&str; 3] = [
    "results/REPORT.md",
    "results/layers_resnet18.csv",
    "results/layers_albert_qqp.csv",
];

/// The expected-digest name of one output file.
pub fn digest_name(file: &str) -> String {
    format!("report_all:{file}")
}

/// Builds `report_all` with the checkout's own manifest (a no-op when it is
/// fresh) and returns the executable Cargo reports.
pub fn build_report_all() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(repo_root())
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "sibia-bench",
            "--bin",
            "report_all",
            "--message-format=json-render-diagnostics",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building report_all failed ({})", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|msg| {
            msg.get("target")
                .and_then(|t| t.get("name"))
                .and_then(Json::as_str)
                == Some("report_all")
        })
        .find_map(|msg| {
            msg.get("executable")
                .and_then(Json::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no report_all executable".to_owned())
}

/// One `report_all` run: wall time, peak RSS and the digest of every output.
pub struct Pass {
    pub wall: Duration,
    pub rss_mb: f64,
    pub digests: Vec<(String, String)>,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen `long`s,
/// the first of which is the peak resident set in KiB.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
}

/// Reaps `child` and returns its raw wait status and its peak RSS in MiB,
/// which only the kernel's accounting of the exited child has exactly.
fn wait_with_peak_rss(child: &Child) -> std::io::Result<(i32, f64)> {
    let pid = i32::try_from(child.id()).expect("a pid fits i32");
    let mut status = 0;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out as
        // the kernel ABI expects; `pid` is an unreaped child of this process.
        if unsafe { wait4(pid, &mut status, 0, &mut usage) } == pid {
            return Ok((status, usage.maxrss_kib as f64 / 1024.0));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Runs `report_all` in a fresh `dir` and waits for it.
pub fn run_once(exe: &Path, dir: &Path) -> Result<Pass, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let started = Instant::now();
    let child = Command::new(exe)
        .current_dir(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let (status, rss_mb) =
        wait_with_peak_rss(&child).map_err(|e| format!("waiting for report_all: {e}"))?;
    let wall = started.elapsed();
    if status != 0 {
        return Err(format!("report_all ended with wait status {status:#x}"));
    }
    let mut digests = Vec::new();
    for file in OUTPUTS {
        let bytes = std::fs::read(dir.join(file))
            .map_err(|e| format!("report_all wrote no {file}: {e}"))?;
        digests.push((digest_name(file), bytes_digest(&bytes)));
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(Pass {
        wall,
        rss_mb,
        digests,
    })
}

/// Checks one run's outputs against the committed digests; one operation.
fn check_pass(run: &mut Run, label: &str, pass: &Result<Pass, String>) {
    match pass {
        Ok(pass) => {
            let wrong: Vec<&str> = pass
                .digests
                .iter()
                .filter(|(name, got)| expected_digest(name).as_deref() != Some(got.as_str()))
                .map(|(name, _)| name.as_str())
                .collect();
            run.op(wrong.is_empty());
            run.check(
                &format!("{label}.digests"),
                wrong.is_empty(),
                format!("mismatched: {wrong:?}"),
            );
        }
        Err(e) => {
            run.op(false);
            run.check(&format!("{label}.exit"), false, e.clone());
        }
    }
}

pub fn run(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    run.load_threads = 1;
    let trace_deadline = ctx.deadline();
    let exe = build_report_all()?;

    // Set-up: the first run of a fresh build is the cold one; its outputs
    // are checked like every other run's.
    let setup = run_once(&exe, &ctx.work.path().join("setup"));
    check_pass(run, "setup", &setup);
    if ctx.trace {
        in_process(ctx, run, trace_deadline);
        return Ok(());
    }
    let Ok(setup) = setup else {
        return Ok(());
    };
    run.read("setup_s", setup.wall.as_secs_f64(), "s");

    let mut walls = Vec::new();
    let mut rss_mb = 0.0f64;
    let deadline = ctx.deadline();
    while walls.len() < MIN_RUNS || Instant::now() < deadline {
        let i = walls.len();
        let pass = run_once(&exe, &ctx.work.path().join(format!("run{i}")));
        check_pass(run, &format!("run{i}"), &pass);
        let Ok(pass) = pass else {
            return Ok(());
        };
        walls.push(ms(pass.wall));
        rss_mb = rss_mb.max(pass.rss_mb);
    }
    run.read("peak_rss_mb", rss_mb, "MB");
    run.latencies("op", &walls);
    run.read(
        "ops_per_s",
        walls.len() as f64 / (walls.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    Ok(())
}

/// The calls `report_all` makes, timed in process by part.
fn in_process(ctx: &Ctx, run: &mut Run, deadline: Instant) {
    let archs: Vec<ArchSpec> = fig_archs();
    let nets = fig_nets();
    let csv_nets = [zoo::resnet18(), zoo::albert(GlueTask::Qqp)];
    let compress_nets = [
        zoo::albert(GlueTask::Qqp),
        zoo::yolov3(),
        zoo::monodepth2(),
        zoo::dgcnn(),
    ];
    let (mut simulate, mut speculate, mut compress) = (0.0, 0.0, 0.0);
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut reps = 0;
    while reps == 0 || Instant::now() < deadline {
        // `Accelerator::run_network` is a simulation on a fresh cache; the
        // cache is named here only to read its hit rate.
        let started = Instant::now();
        let cells = nets
            .iter()
            .flat_map(|net| archs.iter().map(move |arch| (arch.clone(), net)))
            .chain(csv_nets.iter().map(|net| (ArchSpec::sibia_hybrid(), net)));
        for (spec, net) in cells {
            let acc = Accelerator::from_spec(spec).with_seed(GOLDEN_SEED);
            let cache = DecompCache::new();
            black_box(
                acc.simulator()
                    .simulate_network_cached(acc.spec(), net, None, &cache),
            );
            hits += cache.hits();
            misses += cache.misses();
        }
        simulate += ms(started.elapsed());

        let started = Instant::now();
        for candidates in [1usize, 4, 8] {
            let scenario = MaxPoolScenario::votenet_32to1(candidates);
            black_box(scenario.run(SliceRepr::Signed));
            black_box(scenario.run(SliceRepr::Conventional));
        }
        speculate += ms(started.elapsed());

        let started = Instant::now();
        for net in &compress_nets {
            let mut src = SynthSource::new(GOLDEN_SEED);
            for layer in net.layers() {
                let acts = src.activations(layer, 8192);
                black_box(CompressionReport::analyze(
                    acts.codes().data(),
                    layer.input_precision(),
                    CompressionMode::Hybrid,
                ));
            }
        }
        compress += ms(started.elapsed());
        reps += 1;
    }
    let total = simulate + speculate + compress;
    run.read("report.simulate.pct", pct(simulate, total), "%");
    run.read("report.speculate.pct", pct(speculate, total), "%");
    run.read("report.compress.pct", pct(compress, total), "%");
    run.read("report.in_process_ms", total / f64::from(reps), "ms");
    run.read(
        "sim.cache.hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );

    let rows: Vec<_> = nets.iter().map(|n| (n, GOLDEN_SEED)).collect();
    let spans = layers::walk(run, &archs, &rows);
    crate::write_trace(ctx, &spans);
}
