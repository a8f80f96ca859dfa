//! What every workload shares: the run context, the result record, the
//! fig10/fig11 grid definition, output digests and host probes.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sibia::nn::rng::SynthRng;
use sibia::nn::{zoo, Network};
use sibia::obs::Json;
use sibia::serve::protocol::arch_by_name;
use sibia::sim::ArchSpec;
use sibia::store::fnv64;

/// The seed the committed output digests are pinned at. Every workload that
/// simulates runs this seed once per run, whatever `--seed` says, so the
/// science is checked on every run.
pub const GOLDEN_SEED: u64 = 1;

/// The fig10/fig11 architectures, by protocol name, in figure order.
pub const ARCH_NAMES: [&str; 5] = ["bitfusion", "hnpu", "no-sbr", "input-skip", "sibia"];

/// The fig10 (dense) then fig11 (sparse) networks, by protocol name.
pub const NET_NAMES: [&str; 10] = [
    "albert-sst2",
    "albert-qqp",
    "albert-mnli",
    "vit",
    "yolov3",
    "monodepth2",
    "dgcnn",
    "mobilenetv2",
    "resnet18",
    "votenet",
];

pub fn fig_archs() -> Vec<ArchSpec> {
    ARCH_NAMES
        .iter()
        .map(|name| arch_by_name(name).expect("fig arch names are protocol names"))
        .collect()
}

pub fn fig_nets() -> Vec<Network> {
    zoo::dense_benchmarks()
        .into_iter()
        .chain(zoo::sparse_benchmarks())
        .collect()
}

/// The `i`-th input seed of a run. 31 bits, so it is a JSON integer
/// everywhere it travels.
pub fn derived_seed(seed: u64, i: u64) -> u64 {
    SynthRng::for_stream(seed, i).next_u64() >> 33
}

/// Canonical digest of a JSON document: FNV-64 of its canonical text.
pub fn json_digest(doc: &Json) -> String {
    bytes_digest(doc.to_string().as_bytes())
}

pub fn bytes_digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv64(bytes))
}

/// The root of the checkout this benchmark was built in.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..")
}

/// The committed output digests, `name -> hex digest`.
pub fn expected_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json")
}

/// One expected digest by name; `None` when the file or the entry is absent
/// (the check then fails rather than passing vacuously).
pub fn expected_digest(name: &str) -> Option<String> {
    let text = std::fs::read_to_string(expected_path()).ok()?;
    Json::parse(&text)
        .ok()?
        .get(name)?
        .as_str()
        .map(str::to_owned)
}

/// One workload run: its seed, window, trace mode and work directory.
pub struct Ctx {
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    /// Where a traced run writes its spans as Chrome trace JSONL.
    pub trace_out: Option<PathBuf>,
    pub work: WorkDir,
}

impl Ctx {
    pub fn deadline(&self) -> Instant {
        Instant::now() + self.window
    }
}

/// A working directory inside the checkout, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let dir = repo_root()
            .join(".bench_work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` itself behind only while another run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One named number with its unit; `n` is the sample count behind a
/// percentile.
#[derive(Debug, Clone)]
pub struct Reading {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: Option<usize>,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that errored or whose output check failed.
    pub failed: u64,
    /// `(name, passed, detail)` of every named check: output digests,
    /// telemetry against ground truth, trace consistency.
    pub checks: Vec<(String, bool, String)>,
    pub readings: Vec<Reading>,
    /// Threads generating load or computing in this workload.
    pub load_threads: usize,
}

impl Run {
    /// Counts one operation whose output was checked.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_owned(), passed, detail.into()));
    }

    pub fn read(&mut self, name: &str, value: f64, unit: &'static str) {
        self.readings.push(Reading {
            name: name.to_owned(),
            value,
            unit,
            n: None,
        });
    }

    /// Median and tail of per-operation latencies, as `<prefix>_p50_ms` and
    /// `<prefix>_tail_ms`, with their sample count.
    pub fn latencies(&mut self, prefix: &str, samples_ms: &[f64]) {
        if samples_ms.is_empty() {
            return;
        }
        let n = Some(samples_ms.len());
        let (q, tail) = crate::stats::tail(samples_ms);
        self.readings.push(Reading {
            name: format!("{prefix}_p50_ms"),
            value: crate::stats::median(samples_ms),
            unit: "ms",
            n,
        });
        self.readings.push(Reading {
            name: format!("{prefix}_tail_ms"),
            value: tail,
            unit: "ms",
            n,
        });
        self.read(&format!("{prefix}_tail_ms.percentile"), q * 100.0, "%");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.readings
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, passed, _)| *passed)
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A counter of the process-wide registry.
pub fn counter(name: &str) -> u64 {
    sibia::obs::registry().counter(name).get()
}

/// Summed busy time of every grid-engine worker so far, in microseconds.
pub fn engine_busy() -> u64 {
    sibia::obs::registry()
        .counter_values()
        .into_iter()
        .filter(|(name, _)| name.starts_with("sim.engine.worker.") && name.ends_with(".busy_us"))
        .map(|(_, value)| value)
        .sum()
}

/// Share of `part` in `whole`, in percent (0 when `whole` is 0).
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig_grid_names_match_the_paper_benchmark_lists() {
        let nets = fig_nets();
        assert_eq!(nets.len(), NET_NAMES.len());
        for (net, name) in nets.iter().zip(NET_NAMES) {
            assert_eq!(
                zoo::by_name(name).expect("known network").name(),
                net.name()
            );
        }
        assert_eq!(fig_archs().len(), ARCH_NAMES.len());
    }

    #[test]
    fn digest_is_stable() {
        // FNV-64 of the canonical text; pinned so a serializer or hash
        // change cannot silently invalidate every committed digest.
        let doc = Json::obj(vec![
            (
                "cells",
                Json::Array(vec![Json::from(1u64), Json::from(2.5)]),
            ),
            ("name", Json::from("sibia")),
        ]);
        assert_eq!(doc.to_string(), r#"{"cells":[1,2.5],"name":"sibia"}"#);
        assert_eq!(json_digest(&doc), bytes_digest(doc.to_string().as_bytes()));
        assert_eq!(bytes_digest(b""), "cbf29ce484222325");
        assert_eq!(bytes_digest(b"a"), "af63dc4c8601ec8c");
        assert_eq!(json_digest(&doc), json_digest(&doc.clone()));
    }

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        assert_eq!(derived_seed(7, 3), derived_seed(7, 3));
        let seeds: std::collections::BTreeSet<u64> = (0..100).map(|i| derived_seed(7, i)).collect();
        assert_eq!(seeds.len(), 100);
        assert!(seeds.iter().all(|&s| s < 1 << 31));
        assert_ne!(derived_seed(7, 0), derived_seed(8, 0));
    }
}
