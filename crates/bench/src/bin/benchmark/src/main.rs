//! The repository benchmark: four workloads, from the paper's fig10/fig11
//! grid to a store-backed fleet, each timed end to end, split layer by
//! layer, and checked for correct outputs. See `README.md` beside this
//! package for the workloads, the metric map and how to read the results.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--trace-out PATH] [--runs N] [--record FILE] [--check FILE]
//! benchmark --bless
//! ```
//!
//! With one workload and one run, the workload runs in this process and
//! the last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). Otherwise every run is a child process
//! of its own, so peak RSS, the process-wide registry and allocator state
//! belong to one workload run; the parent prints per-metric medians and,
//! given `--record`, appends them as one set to a baseline file, or, given
//! `--check`, compares them with a baseline within `BENCHMARK.json`'s
//! bounds. `--bless` rewrites `expected.json` from the current code.
//!
//! Exits non-zero when an output check fails, a child fails or a checked
//! metric regressed past its bound.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads 64-bit Linux process accounting");

mod common;
mod daemon;
mod fig_grid;
mod fleet_store;
mod layers;
mod report;
mod serve_mix;
mod stats;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use sibia::obs::{Json, SpanRecord};
use sibia::sbr::kernels;

use common::{cores, Ctx, Run, WorkDir};
use stats::Better;

/// The workloads, in run order, with why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "fig_grid",
        "the paper's 5x10 sweep on the grid engine: synthesis, kernels, measurement, model and scheduling do all the work",
    ),
    (
        "report",
        "report_all as a subprocess: the serial Accelerator path plus speculation and compression, bypassing the grid scheduler",
    ),
    (
        "serve_mix",
        "2 closed-loop clients on one default daemon, 70% warm simulate: front, queue and serialization dominate",
    ),
    (
        "fleet_store",
        "fleet sweeps over 2 store-backed daemons, each grid cold then warm: dispatch, merge and store writes and reads",
    ),
];

/// End-to-end metrics, every workload: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, every workload: `(name, unit)`. A layer the workload
/// does not enter reads 0 in every unit but time; the time metrics are
/// measured on every workload.
pub const PER_LAYER: [(&str, &str); 19] = [
    ("nn.synth.ms", "ms"),
    ("sbr.kernels.ms", "ms"),
    ("sim.cache.measure.ms", "ms"),
    ("sim.perf.model.ms", "ms"),
    ("sim.cache.hit_rate", "ratio"),
    ("sim.parallel.busy_ratio", "ratio"),
    ("obs.trace_overhead_pct", "%"),
    ("serve.front.pct", "%"),
    ("serve.queue_wait.pct", "%"),
    ("serve.compute.pct", "%"),
    ("serve.serialize.pct", "%"),
    ("fleet.attempts_per_cell", "ratio"),
    ("fleet.steals_per_sweep", "count"),
    ("fleet.hedges_per_sweep", "count"),
    ("store.warm_hit_rate", "ratio"),
    ("store.log_bytes_per_put", "bytes"),
    ("report.simulate.pct", "%"),
    ("report.speculate.pct", "%"),
    ("report.compress.pct", "%"),
];

const USAGE: &str = "usage: benchmark [--workload fig_grid|report|serve_mix|fleet_store] \
[--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH] [--runs N] [--record FILE] \
[--check FILE] | --bless";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    runs: u64,
    record: Option<PathBuf>,
    check: Option<PathBuf>,
    bless: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().map(|(name, _)| *name).collect(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        trace_out: None,
        runs: 1,
        record: None,
        check: None,
        bless: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = |what: &str| -> Result<u64, String> {
            value
                .parse::<u64>()
                .map_err(|_| format!("{what}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = WORKLOADS
                    .iter()
                    .map(|(name, _)| *name)
                    .find(|name| *name == value)
                    .ok_or_else(|| format!("--workload: unknown workload '{value}'"))?;
                args.workloads = vec![name];
            }
            "--seed" => args.seed = number("--seed")?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: '{value}' is not a positive number"))?;
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: '{value}' is not 0 or 1")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            "--runs" => args.runs = number("--runs")?.max(1),
            "--record" => args.record = Some(PathBuf::from(value)),
            "--check" => args.check = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.check.is_some() && args.trace {
        return Err("--check compares end-to-end metrics: use --trace 0".to_owned());
    }
    Ok(args)
}

/// Writes the spans of a traced run as Chrome `trace_event` JSONL, when
/// `--trace-out` asked for it.
pub fn write_trace(ctx: &Ctx, spans: &[SpanRecord]) {
    if let Some(path) = &ctx.trace_out {
        let text: String = spans
            .iter()
            .map(|s| format!("{}\n", s.to_chrome_json()))
            .collect();
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
        }
    }
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    match name {
        "fig_grid" => fig_grid::run(ctx, &mut run),
        "report" => report::run(ctx, &mut run)?,
        "serve_mix" => serve_mix::run(ctx, &mut run)?,
        "fleet_store" => fleet_store::run(ctx, &mut run)?,
        other => return Err(format!("unknown workload '{other}'")),
    }
    Ok(run)
}

/// The result line: the declared metrics of the mode, in declaration order.
/// `None` when a metric the workload must measure is missing.
fn result_json(run: &Run, trace: bool) -> Option<Json> {
    let defs: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in defs {
        let value = match run.get(name) {
            Some(v) => v,
            None if trace && unit != "ms" => 0.0,
            None => return None,
        };
        metrics.push((
            name.to_owned(),
            Json::obj(vec![
                ("value", Json::from(value)),
                ("unit", Json::from(unit)),
            ]),
        ));
    }
    Some(Json::obj(vec![
        ("correct", Json::Bool(run.correct())),
        ("attempted", Json::from(run.attempted)),
        ("failed", Json::from(run.failed)),
        ("metrics", Json::Object(metrics)),
    ]))
}

/// One workload in this process: human-readable lines, then the result.
fn single(args: &Args) -> ExitCode {
    let workload = args.workloads[0];
    let ctx = match WorkDir::create(workload) {
        Ok(work) => Ctx {
            seed: args.seed,
            window: Duration::from_secs_f64(args.seconds),
            trace: args.trace,
            trace_out: args.trace_out.clone(),
            work,
        },
        Err(e) => {
            eprintln!("benchmark: work directory: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match run_workload(workload, &ctx) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("benchmark: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{workload} host cores={} kernel_tier={} load_threads={}",
        cores(),
        kernels::active().tier.name(),
        run.load_threads
    );
    for r in &run.readings {
        println!("{workload} {} {} {}", r.name, r.value, r.unit);
        if let Some(n) = r.n {
            println!("{workload} {}.n {n} count", r.name);
        }
    }
    let passed = run.checks.iter().filter(|(_, ok, _)| *ok).count();
    for (name, ok, detail) in &run.checks {
        if !ok {
            println!("{workload} FAILED check {name}: {detail}");
        }
    }
    println!(
        "{workload} checks {passed}/{} passed, {} of {} operations failed",
        run.checks.len(),
        run.failed,
        run.attempted
    );
    match result_json(&run, args.trace) {
        Some(json) => {
            println!("{json}");
            if run.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        None => {
            eprintln!("benchmark: {workload} measured too little to report");
            ExitCode::FAILURE
        }
    }
}

/// `workload -> metric -> (unit, one value per run)`.
type Values = BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>>;

/// Runs one child per (workload, run) and collects their result lines.
fn children(args: &Args) -> Result<(Values, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut values = Values::new();
    let mut all_ok = true;
    for &workload in &args.workloads {
        for k in 0..args.runs {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &(args.seed + k).to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if let Some(path) = &args.trace_out {
                cmd.arg("--trace-out")
                    .arg(path.with_extension(format!("{workload}.{k}.jsonl")));
            }
            let mut child = cmd.spawn().map_err(|e| format!("spawn {workload}: {e}"))?;
            let mut last = String::new();
            let stdout = child.stdout.take().expect("piped stdout");
            // Echo the child's text lines; keep the last one, its result.
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if !last.is_empty() && args.runs == 1 {
                    println!("{last}");
                }
                last = line;
            }
            let status = child.wait().map_err(|e| format!("wait {workload}: {e}"))?;
            let result = Json::parse(&last).ok();
            let correct = result
                .as_ref()
                .and_then(|r| r.get("correct"))
                .and_then(Json::as_bool)
                == Some(true);
            if !status.success() || !correct {
                all_ok = false;
                println!(
                    "{workload} run {k} (seed {}) FAILED: {status}",
                    args.seed + k
                );
            }
            let metrics = result
                .as_ref()
                .and_then(|r| r.get("metrics"))
                .and_then(Json::as_object)
                .unwrap_or(&[]);
            for (name, m) in metrics {
                let (Some(value), Some(unit)) = (
                    m.get("value").and_then(Json::as_f64),
                    m.get("unit").and_then(Json::as_str),
                ) else {
                    continue;
                };
                values
                    .entry(workload.to_owned())
                    .or_default()
                    .entry(name.clone())
                    .or_insert_with(|| (unit.to_owned(), Vec::new()))
                    .1
                    .push(value);
            }
        }
    }
    Ok((values, all_ok))
}

fn set_json(args: &Args, values: &Values) -> Json {
    let workloads = values
        .iter()
        .map(|(workload, metrics)| {
            let metrics = metrics
                .iter()
                .map(|(name, (unit, vals))| {
                    let mut fields = vec![
                        ("unit", Json::from(unit.as_str())),
                        ("median", Json::from(stats::median(vals))),
                        (
                            "values",
                            Json::Array(vals.iter().map(|&v| Json::from(v)).collect()),
                        ),
                    ];
                    if vals.len() >= 2 {
                        fields.push(("spread", Json::from(stats::spread(vals))));
                    }
                    (name.clone(), Json::obj(fields))
                })
                .collect();
            (workload.clone(), Json::Object(metrics))
        })
        .collect();
    Json::obj(vec![
        (
            "host",
            Json::obj(vec![
                ("cores", Json::from(cores())),
                ("kernel_tier", Json::from(kernels::active().tier.name())),
            ]),
        ),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("runs", Json::from(args.runs)),
        ("trace", Json::Bool(args.trace)),
        ("workloads", Json::Object(workloads)),
    ])
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, Better, f64)>, String> {
    let path = common::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_owned(), b, x)),
                _ => Err(format!("BENCHMARK.json: malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

/// Compares this invocation's medians with the baseline's (the median of
/// every recorded run). Returns whether every metric is within its bound.
fn check(baseline: &Json, values: &Values) -> Result<bool, String> {
    let sets = baseline
        .get("sets")
        .and_then(Json::as_array)
        .ok_or("baseline has no sets")?;
    let mut all_ok = true;
    for (name, better, bound) in bounds()? {
        for (workload, metrics) in values {
            let Some((_, fresh)) = metrics.get(&name) else {
                continue;
            };
            let recorded: Vec<f64> = sets
                .iter()
                .filter_map(|s| {
                    s.get("workloads")?
                        .get(workload)?
                        .get(&name)?
                        .get("values")?
                        .as_array()
                })
                .flatten()
                .filter_map(Json::as_f64)
                .collect();
            if recorded.is_empty() {
                println!("check {workload} {name}: no recorded values");
                continue;
            }
            let (fresh, reference) = (stats::median(fresh), stats::median(&recorded));
            let worse = stats::worsening(fresh, reference, better);
            let ok = !stats::regressed(fresh, reference, better, bound);
            all_ok &= ok;
            println!(
                "check {workload} {name} fresh={fresh} reference={reference} \
                 worse_by={:+.1}% bound={:.0}% {}",
                worse * 100.0,
                bound * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    Ok(all_ok)
}

/// Every workload or run in child processes, then medians, `--record` and
/// `--check`.
fn orchestrate(args: &Args) -> Result<bool, String> {
    let (values, mut all_ok) = children(args)?;
    for (workload, metrics) in &values {
        for (name, (unit, vals)) in metrics {
            let median = stats::median(vals);
            if vals.len() >= 2 {
                println!(
                    "{workload} {name} {median} {unit} (median of {}, spread {:.4})",
                    vals.len(),
                    stats::spread(vals)
                );
            } else if args.runs > 1 {
                println!("{workload} {name} {median} {unit}");
            }
        }
    }
    let set = set_json(args, &values);
    if let Some(path) = &args.record {
        let mut sets = match std::fs::read_to_string(path) {
            Ok(text) => Json::parse(&text)
                .ok()
                .and_then(|doc| {
                    doc.get("sets")
                        .and_then(Json::as_array)
                        .map(<[Json]>::to_vec)
                })
                .ok_or_else(|| format!("{}: not a baseline file", path.display()))?,
            Err(_) => Vec::new(),
        };
        sets.push(set);
        let doc = Json::obj(vec![("sets", Json::Array(sets))]);
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &args.check {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let baseline = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        all_ok &= check(&baseline, &values)?;
    }
    Ok(all_ok)
}

/// Rewrites `expected.json` from the current code.
fn bless() -> Result<(), String> {
    let mut entries = vec![(fig_grid::GOLDEN.to_owned(), fig_grid::golden_digest())];
    let exe = report::build_report_all()?;
    let work = WorkDir::create("bless").map_err(|e| format!("work directory: {e}"))?;
    entries.extend(report::run_once(&exe, work.path())?.digests);
    let body: Vec<String> = entries
        .iter()
        .map(|(name, digest)| {
            format!(
                "  {}: {}",
                Json::from(name.as_str()),
                Json::from(digest.as_str())
            )
        })
        .collect();
    let path = common::expected_path();
    std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    for (name, digest) in &entries {
        println!("blessed {name} {digest}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return match bless() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark: bless: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.workloads.len() == 1 && args.runs == 1 && args.record.is_none() && args.check.is_none()
    {
        return single(&args);
    }
    match orchestrate(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn command_line_parses() {
        let args = parse_args(&strings(&[
            "--workload",
            "serve_mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(args.workloads, vec!["serve_mix"]);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert_eq!(parse_args(&[]).expect("defaults").workloads.len(), 4);
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &["--frobnicate", "1"],
            &["--check", "b.json", "--trace", "1"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    /// The metric tables here and in `BENCHMARK.json` are one definition.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let text = std::fs::read_to_string(common::repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let table = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |defs: &[(&str, &str)]| -> Vec<(String, String)> {
            defs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(table("end_to_end"), owned(&END_TO_END));
        assert_eq!(table("per_layer"), owned(&PER_LAYER));
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, WORKLOADS.map(|(n, _)| n));
        assert_eq!(bounds().expect("bounds").len(), END_TO_END.len());
    }

    #[test]
    fn result_line_has_every_declared_metric() {
        let mut run = Run::default();
        run.op(true);
        for (name, unit) in END_TO_END {
            run.read(name, 1.5, unit);
        }
        let line = result_json(&run, false).expect("complete");
        let metrics = line
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        // Per-layer: time metrics are required, other layers default to 0.
        assert!(result_json(&run, true).is_none());
        for (name, unit) in PER_LAYER.iter().filter(|(_, u)| *u == "ms") {
            run.read(name, 0.25, unit);
        }
        let line = result_json(&run, true).expect("complete");
        assert_eq!(
            line.get("metrics")
                .and_then(Json::as_object)
                .map(<[_]>::len),
            Some(PER_LAYER.len())
        );
        run.check("telemetry", false, "mismatch");
        assert_eq!(
            result_json(&run, false).and_then(|l| l.get("correct").cloned()),
            Some(Json::Bool(false))
        );
    }
}
