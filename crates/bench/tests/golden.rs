//! The reproduced science against its committed reference digests.
//!
//! `src/bin/benchmark/expected.json` holds the one copy of the FNV-64
//! digests the repository benchmark checks: the seed-1 Fig. 10/11 grid
//! (`grid.seed1`) and the three files `report_all` writes. These tests
//! recompute each one and compare, so a change that moves the science fails
//! here until its new digests are blessed. They also check that the
//! committed `results/` files are the ones `report_all` writes today.

use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};

use sibia::obs::Json;
use sibia::sim::{grid_to_json, ParallelEngine, Simulator};
use sibia::store::fnv64;
use sibia_bench::{fig_archs, fig_networks};

/// The files `report_all` writes, relative to its working directory.
const REPORT_FILES: [&str; 3] = [
    "results/REPORT.md",
    "results/layers_resnet18.csv",
    "results/layers_albert_qqp.csv",
];

/// One committed digest from `expected.json`, by name.
fn expected(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin/benchmark/expected.json");
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text)
        .expect("expected.json is JSON")
        .get(name)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("expected.json has no digest {name}"))
        .to_owned()
}

fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv64(bytes))
}

/// Asserts that the three `report_all` files under `dir` match their digests.
fn assert_report_files(dir: &Path) {
    for file in REPORT_FILES {
        let bytes = fs::read(dir.join(file))
            .unwrap_or_else(|e| panic!("{}: {e}", dir.join(file).display()));
        assert_eq!(
            digest(&bytes),
            expected(&format!("report_all:{file}")),
            "{file} under {}",
            dir.display()
        );
    }
}

#[test]
fn report_all_writes_the_expected_files() {
    let dir = std::env::temp_dir().join(format!("sibia-golden-report-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_report_all"))
        .current_dir(&dir)
        .stdout(Stdio::null())
        .status()
        .expect("report_all starts");
    assert!(status.success(), "report_all: {status}");
    assert_report_files(&dir);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn seed1_fig_grid_matches_its_digest() {
    let grid = ParallelEngine::new().simulate_grid(
        &Simulator::new(1),
        &fig_archs(),
        &fig_networks(),
        &[1],
    );
    assert_eq!(
        digest(grid_to_json(&grid).to_string().as_bytes()),
        expected("grid.seed1")
    );
}

#[test]
fn committed_results_match_report_all() {
    assert_report_files(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
}
