//! Deterministic row → backend assignment.
//!
//! The fleet dispatches a sweep grid one `(network, seed)` row at a time:
//! one `sweep` request carries every arch of the grid for that row, so the
//! backend synthesizes the row's network once for all of them. A row's
//! *home* backend is a hash of its coordinates: FNV-1a-64 over `network
//! NUL seed_le` (the hash family the persistent store uses for config
//! fingerprints, [`sibia_store::key::fnv64`], so the whole stack agrees on
//! one deterministic, platform-independent hash), finalized by splitmix64's
//! output mix before the modulo. Properties the coordinator relies on:
//!
//! * **deterministic** — the assignment is a pure function of the row key
//!   and the backend count, so two coordinator runs over the same grid and
//!   endpoint list dispatch identically (modulo failover);
//! * **independent of grid shape** — the hash sees the row coordinates,
//!   not the flat index, so adding a seed to the sweep does not reshuffle
//!   every other row;
//! * **regrouping across seeds** — FNV-1a's low bits see only the low bits
//!   of the key bytes: modulo 2 it is the parity of the key's odd bytes. A
//!   seed's parity therefore flips every network's raw home at once, and on
//!   two backends the same networks would share a backend at every seed.
//!   The finalizer folds the high bits down, so which networks share a
//!   backend changes from seed to seed (pinned by a test below).
//!
//! Failover re-dispatch (a row moving to a survivor when its home backend
//! dies) is layered on top by the coordinator and never changes result
//! bytes — only which machine computes them.

use sibia_store::key::fnv64;

/// The raw hash key of one grid row: FNV-1a-64 of `network NUL seed_le`.
///
/// The seed rides as fixed-width little-endian bytes, so the key is
/// unambiguous and numeric formatting can never perturb the hash.
pub fn row_key(network: &str, seed: u64) -> u64 {
    let mut key = Vec::with_capacity(network.len() + 9);
    key.extend_from_slice(network.as_bytes());
    key.push(0);
    key.extend_from_slice(&seed.to_le_bytes());
    fnv64(&key)
}

/// splitmix64's output mix: every input bit reaches every output bit.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The home backend of a row: `finalize(row_key) % backends`.
///
/// # Panics
///
/// Panics if `backends == 0` — a fleet without backends cannot exist (the
/// coordinator's constructor rejects an empty endpoint list).
pub fn backend_for_row(network: &str, seed: u64, backends: usize) -> usize {
    assert!(backends > 0, "need at least one backend");
    (finalize(row_key(network, seed)) % backends as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The fig10 (dense) then fig11 (sparse) networks, by protocol name.
    const FIG_NETWORKS: [&str; 10] = [
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

    #[test]
    fn assignment_is_deterministic_and_in_range() {
        for backends in [1, 2, 3, 4, 7] {
            for seed in 0..32 {
                let a = backend_for_row("dgcnn", seed, backends);
                let b = backend_for_row("dgcnn", seed, backends);
                assert_eq!(a, b);
                assert!(a < backends);
            }
        }
    }

    #[test]
    fn coordinates_are_unambiguous() {
        assert_ne!(row_key("dgcnn", 1), row_key("dgcnn", 2));
        assert_ne!(row_key("dgcnn", 1), row_key("vit", 1));
    }

    #[test]
    fn a_fig10_style_grid_spreads_over_backends() {
        // 2 networks x 3 seeds = 6 rows over 2 and 4 backends: every
        // backend must receive at least one row.
        let nets = ["dgcnn", "alexnet"];
        let seeds = [1u64, 2, 3];
        for backends in [2usize, 4] {
            let mut hit = vec![0usize; backends];
            for n in nets {
                for &s in &seeds {
                    hit[backend_for_row(n, s, backends)] += 1;
                }
            }
            assert!(
                hit.iter().all(|&c| c > 0),
                "{backends} backends, load {hit:?}"
            );
        }
    }

    #[test]
    fn single_backend_takes_everything() {
        for seed in 0..16 {
            assert_eq!(backend_for_row("dgcnn", seed, 1), 0);
        }
    }

    /// The fig networks sharing `albert-sst2`'s home at `seed`, under the
    /// home function `home(network, seed)`.
    fn albert_group(home: impl Fn(&str, u64) -> usize, seed: u64) -> Vec<&'static str> {
        let anchor = home("albert-sst2", seed);
        FIG_NETWORKS
            .into_iter()
            .filter(|n| home(n, seed) == anchor)
            .collect()
    }

    #[test]
    fn two_backend_groups_change_with_the_seed() {
        let finalized: BTreeSet<Vec<&str>> = (1..=32)
            .map(|seed| albert_group(|n, s| backend_for_row(n, s, 2), seed))
            .collect();
        assert!(
            finalized.len() > 1,
            "the same networks share albert-sst2's backend at every seed: {finalized:?}"
        );
        // The raw FNV modulo is a parity function: one grouping for good.
        let raw: BTreeSet<Vec<&str>> = (1..=32)
            .map(|seed| albert_group(|n, s| (row_key(n, s) % 2) as usize, seed))
            .collect();
        assert_eq!(raw.len(), 1, "{raw:?}");
        // Every backend still receives work at every seed.
        for seed in 1..=32 {
            let homes: BTreeSet<usize> = FIG_NETWORKS
                .iter()
                .map(|n| backend_for_row(n, seed, 2))
                .collect();
            assert_eq!(homes.len(), 2, "seed {seed}: {homes:?}");
        }
    }
}
