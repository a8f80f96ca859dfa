//! Property test for hedge deduplication: racing duplicate completions
//! never double-write the store and never perturb merge order.
//!
//! The completion board is the single dedup point for hedged dispatch —
//! every store write-back downstream is gated on [`Completion::Win`]. This
//! suite races two identical "twins" per cell with SynthRng-jittered
//! timing (deterministic schedule per seed, genuinely concurrent threads)
//! and pins the three invariants the byte-identity argument rests on:
//!
//! 1. exactly one twin per cell wins; the other is counted as a duplicate;
//! 2. the backing store receives exactly one `put` per cell — duplicate
//!    completions never double-write, however the race interleaves;
//! 3. the merged result order is the flat row-major grid order, untouched
//!    by which twin won or when.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use sibia_fleet::control::{Completion, CompletionBoard};
use sibia_nn::rng::SynthRng;
use sibia_obs::Json;
use sibia_store::{Store, StoreKey};

const CELLS: usize = 48;

/// The canonical payload both twins of `flat` compute — identical by
/// construction, as the determinism contract guarantees for real cells.
fn cell_value(flat: usize) -> Json {
    Json::obj(vec![
        ("cell", Json::from(flat)),
        (
            "payload",
            Json::from((flat as u64).wrapping_mul(0x9E37_79B9)),
        ),
    ])
}

fn cell_key(flat: usize) -> StoreKey {
    StoreKey::new(
        "test.cell",
        format!("net{flat}"),
        flat as u64,
        "sbr",
        "dedup",
    )
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sibia-hedge-dedup-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

#[test]
fn racing_twins_write_the_store_once_and_keep_merge_order() {
    for race_seed in [3u64, 17, 901] {
        let dir = temp_dir(&race_seed.to_string());
        let store = Store::open(&dir).expect("open store");
        let board = CompletionBoard::new(CELLS);
        let wins = AtomicU64::new(0);
        let duplicates_seen = AtomicU64::new(0);

        std::thread::scope(|s| {
            for flat in 0..CELLS {
                for twin in 0..2u64 {
                    let board = &board;
                    let store = &store;
                    let wins = &wins;
                    let duplicates_seen = &duplicates_seen;
                    s.spawn(move || {
                        // Deterministic per-(seed, cell, twin) jitter makes
                        // the interleaving different every seed while the
                        // schedule itself replays exactly.
                        let mut rng = SynthRng::for_stream(race_seed, (flat as u64) << 1 | twin);
                        std::thread::sleep(Duration::from_micros(rng.next_u64() % 3000));
                        match board.complete(flat, cell_value(flat)) {
                            Completion::Win => {
                                // The write-back is gated on winning — this
                                // is the exact pattern the coordinator and
                                // the serve store path use.
                                store
                                    .put(&cell_key(flat), &cell_value(flat))
                                    .expect("store put");
                                wins.fetch_add(1, Ordering::SeqCst);
                            }
                            Completion::Duplicate => {
                                duplicates_seen.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    });
                }
            }
        });

        assert_eq!(
            wins.load(Ordering::SeqCst),
            CELLS as u64,
            "seed {race_seed}: exactly one twin per cell must win"
        );
        assert_eq!(
            duplicates_seen.load(Ordering::SeqCst),
            CELLS as u64,
            "seed {race_seed}: the losing twin must be deduped, not dropped"
        );
        assert_eq!(
            board.duplicates.load(Ordering::SeqCst),
            CELLS as u64,
            "seed {race_seed}: the board must count every duplicate"
        );
        assert_eq!(board.remaining(), 0);

        // One put per cell: duplicate completions never reached the store.
        let stats = store.stats();
        assert_eq!(
            stats.puts, CELLS as u64,
            "seed {race_seed}: the store must see exactly one put per cell"
        );
        for flat in 0..CELLS {
            assert_eq!(
                store.get(&cell_key(flat)),
                Some(cell_value(flat)),
                "seed {race_seed}: cell {flat} must be stored with winning bytes"
            );
        }

        // Merge order is flat row-major order, independent of race outcome.
        let results = board.into_results();
        assert_eq!(results.len(), CELLS);
        for (flat, result) in results.iter().enumerate() {
            assert_eq!(
                result.to_string(),
                cell_value(flat).to_string(),
                "seed {race_seed}: merge slot {flat} must hold cell {flat}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
