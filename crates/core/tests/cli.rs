//! Exit-code contract of `sibia-cli`.
//!
//! Every bad-input path must exit nonzero and print usage/help text on
//! stderr — unknown subcommands, unknown flags, malformed flag values,
//! missing arguments. (Historically several of these exited 0: unknown
//! flags were ignored and malformed values fell back to defaults.) The
//! happy paths pinned here must keep exiting 0.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sibia-cli"))
        .args(args)
        .output()
        .expect("spawn sibia-cli")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sibia-cli-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

#[test]
fn no_arguments_is_an_error_with_usage() {
    let out = cli(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage: sibia-cli"));
}

#[test]
fn unknown_subcommand_is_an_error_with_usage() {
    let out = cli(&["frobnicate"]);
    assert!(
        !out.status.success(),
        "unknown subcommand must exit nonzero"
    );
    let err = stderr(&out);
    assert!(err.contains("unknown command 'frobnicate'"), "{err}");
    assert!(err.contains("usage: sibia-cli"), "{err}");
}

#[test]
fn unknown_flag_is_an_error() {
    // A typo'd flag used to be silently ignored (exit 0, wrong behaviour).
    for args in [
        &["simulate", "dgcnn", "--sede", "7"][..],
        &["networks", "--verbose"][..],
        &["serve", "--prot", "0"][..],
        &["serve", "--reactor"][..],
        &["store", "stats", "--dir", "x"][..],
        &["simulate", "dgcnn", "--tile", "7"][..],
        &[
            "fleet",
            "sweep",
            "--local",
            "--networks",
            "dgcnn",
            "--tile",
            "7",
        ][..],
    ] {
        let out = cli(args);
        assert!(
            !out.status.success(),
            "{args:?} must exit nonzero on an unknown flag"
        );
        assert!(stderr(&out).contains("unknown flag"), "{args:?}");
    }
}

#[test]
fn malformed_flag_value_is_an_error() {
    // A bad value used to fall back to the default (exit 0, wrong result).
    for args in [
        &["simulate", "dgcnn", "--seed", "abc"][..],
        &["compare", "dgcnn", "--seed", "-3"][..],
        &["encode", "7", "--bits"][..],
        &["serve", "--port", "99999"][..],
        &["serve", "--threads", "many"][..],
    ] {
        let out = cli(args);
        assert!(!out.status.success(), "{args:?} must exit nonzero");
        let err = stderr(&out);
        assert!(
            err.contains("invalid value") || err.contains("needs a value"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn unknown_network_and_arch_are_errors() {
    assert!(!cli(&["simulate", "no-such-net"]).status.success());
    assert!(!cli(&["sparsity", "no-such-net"]).status.success());
    let out = cli(&["simulate", "dgcnn", "--arch", "gpu"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown architecture gpu"));
}

#[test]
fn store_subcommand_validates_its_input() {
    // Missing action / missing --store-dir / unknown action: all nonzero.
    assert!(!cli(&["store"]).status.success());
    assert!(!cli(&["store", "stats"]).status.success());
    let out = cli(&["store", "defrag", "--store-dir", "/tmp/x"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown action 'defrag'"));
}

#[test]
fn store_stats_verify_compact_round_trip() {
    let dir = temp_dir("store-roundtrip");
    // An empty (not-yet-created) store verifies clean with zero records.
    let out = cli(&["store", "verify", "--store-dir", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("ok (0 records)"));

    // `stats` creates the store; the canonical JSON snapshot parses.
    let out = cli(&["store", "stats", "--store-dir", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stats = sibia::obs::Json::parse(stdout(&out).trim()).expect("stats is JSON");
    assert_eq!(stats.get("entries").and_then(|v| v.as_u64()), Some(0));

    // Populate one record through the library, then exercise the binary.
    {
        let store = sibia::store::Store::open(&dir).unwrap();
        let key = sibia::store::StoreKey::new("test", "net", 1, "sbr", "cfg");
        store
            .put(&key, &sibia::obs::Json::from("forty-two"))
            .unwrap();
    }
    let out = cli(&["store", "verify", "--store-dir", dir.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("ok (1 records)"));

    let out = cli(&["store", "compact", "--store-dir", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("1 entries"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_verify_reports_torn_tail_without_repairing() {
    let dir = temp_dir("store-torn");
    {
        let store = sibia::store::Store::open(&dir).unwrap();
        let key = sibia::store::StoreKey::new("test", "net", 1, "sbr", "cfg");
        store.put(&key, &sibia::obs::Json::from("payload")).unwrap();
    }
    let log = dir.join(sibia::store::LOG_FILE);
    let pristine = std::fs::read(&log).unwrap();
    // Chop mid-record: verify must fail, and fail again on a second run
    // (read-only — it never repairs the file).
    std::fs::write(&log, &pristine[..pristine.len() - 3]).unwrap();
    for _ in 0..2 {
        let out = cli(&["store", "verify", "--store-dir", dir.to_str().unwrap()]);
        assert!(!out.status.success(), "torn log must fail verification");
    }
    // Opening the store (via `stats`) repairs the tail; verify then passes.
    assert!(
        cli(&["store", "stats", "--store-dir", dir.to_str().unwrap()])
            .status
            .success()
    );
    let out = cli(&["store", "verify", "--store-dir", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("ok (0 records)"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn happy_paths_still_exit_zero() {
    let out = cli(&["networks"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("dgcnn"));

    let out = cli(&["encode", "-25", "--bits", "7"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("signed bit-slices"));
}

#[test]
fn fleet_subcommand_validates_its_input() {
    // Missing action / unknown action.
    assert!(!cli(&["fleet"]).status.success());
    let out = cli(&["fleet", "scatter"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown action 'scatter'"));

    // Exactly one of --endpoints / --local.
    let out = cli(&["fleet", "sweep", "--networks", "dgcnn"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("exactly one of --endpoints or --local"));
    let out = cli(&[
        "fleet",
        "sweep",
        "--local",
        "--endpoints",
        "127.0.0.1:1",
        "--networks",
        "dgcnn",
    ]);
    assert!(!out.status.success());

    // Missing --networks, unknown names, malformed values, unknown flags.
    assert!(!cli(&["fleet", "sweep", "--local"]).status.success());
    let out = cli(&["fleet", "sweep", "--local", "--networks", "no-such-net"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown network no-such-net"));
    let out = cli(&[
        "fleet",
        "sweep",
        "--local",
        "--networks",
        "dgcnn",
        "--archs",
        "gpu",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown architecture gpu"));
    let out = cli(&[
        "fleet",
        "sweep",
        "--local",
        "--networks",
        "dgcnn",
        "--seeds",
        "1,x",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("invalid value"));
    let out = cli(&[
        "fleet",
        "sweep",
        "--local",
        "--networks",
        "dgcnn",
        "--shards",
        "4",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown flag"));
}

#[test]
fn fleet_sweep_against_a_dead_endpoint_fails_fast_and_nonzero() {
    // Bind then drop a listener so the port is dead but well-formed.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);
    let out = cli(&[
        "fleet",
        "sweep",
        "--endpoints",
        &addr,
        "--networks",
        "dgcnn",
        "--sample-cap",
        "64",
        "--retries",
        "1",
    ]);
    assert!(!out.status.success(), "dead backend must exit nonzero");
    assert!(stderr(&out).contains("sweep failed"), "{}", stderr(&out));
}

#[test]
fn fleet_local_sweep_prints_the_canonical_grid() {
    let out = cli(&[
        "fleet",
        "sweep",
        "--local",
        "--networks",
        "dgcnn",
        "--archs",
        "sibia,bitfusion",
        "--seeds",
        "1,2",
        "--sample-cap",
        "256",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let doc = sibia::obs::Json::parse(stdout(&out).trim()).expect("canonical grid JSON");
    let cells = doc.get("cells").and_then(|c| c.as_array()).expect("cells");
    assert_eq!(cells.len(), 4, "2 archs x 1 network x 2 seeds");
    // Canonical text: parse ∘ serialize is the identity.
    assert_eq!(format!("{doc}\n"), stdout(&out));
}

#[test]
fn simulate_with_store_dir_hits_on_second_run() {
    let dir = temp_dir("simulate-store");
    let args = [
        "simulate",
        "dgcnn",
        "--seed",
        "5",
        "--store-dir",
        dir.to_str().unwrap(),
    ];
    let cold = cli(&args);
    assert!(cold.status.success(), "{}", stderr(&cold));
    assert!(stderr(&cold).contains("store: miss"));

    let warm = cli(&args);
    assert!(warm.status.success(), "{}", stderr(&warm));
    assert!(stderr(&warm).contains("store: hit"));
    // The simulated report itself is byte-identical across the two runs.
    assert_eq!(stdout(&warm), stdout(&cold));
    let _ = std::fs::remove_dir_all(&dir);
}
