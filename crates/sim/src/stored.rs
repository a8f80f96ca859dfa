//! Read-through / write-back simulation against the persistent store.
//!
//! The store-backed entry points mirror the `*_cached` family one level
//! up: where [`DecompCache`] memoizes synthesis and decomposition within a
//! process, the [`Store`] memoizes whole [`NetworkResult`]s across
//! processes. Soundness comes from determinism — a network result is a
//! pure function of `(network, seed, repr, config)` — so the store key
//! ([`network_key`]) captures exactly those coordinates:
//!
//! * `kind` is [`KIND_NETWORK`];
//! * `network` and `seed` are the cell's own;
//! * `repr` is the architecture's slice representation;
//! * the config hash fingerprints *everything else* that shapes the bytes:
//!   the full [`ArchSpec`] and the simulator's sample cap, tech node,
//!   external memory, and latency model (via their `Debug` forms, which
//!   print every field — a changed field changes the fingerprint, so a
//!   stale entry can never be served for a new configuration).
//!
//! Writes are best-effort: a failed `put` (disk full, permissions) bumps
//! the `store.put_errors` counter in the process registry and the freshly
//! computed result is returned anyway — persistence trouble must never
//! fail a simulation that already succeeded. Reads are paranoid: a stored
//! value that does not parse back into a [`NetworkResult`] is recomputed
//! and overwritten, never served.

use sibia_nn::Network;
use sibia_store::{Store, StoreKey};

use crate::cache::DecompCache;
use crate::jsonio::{network_result_from_json, network_result_to_json};
use crate::perf::{NetworkResult, Simulator};
use crate::spec::{ArchSpec, Repr};

/// Store-key kind for one simulated network result.
pub const KIND_NETWORK: &str = "sim.network";

/// The store-key label of a slice representation.
pub fn repr_label(repr: Repr) -> &'static str {
    match repr {
        Repr::Sbr => "sbr",
        Repr::Conventional => "conv",
    }
}

/// The configuration fingerprint of a `(simulator, architecture)` pair:
/// everything that shapes a result's bytes except the key's own
/// `(network, seed, repr)` coordinates. The simulator fields are
/// enumerated explicitly rather than taken from its `Debug` form, so the
/// key changes only when one of these fields does: adding a field to
/// [`Simulator`] cannot silently invalidate every stored entry.
pub fn config_fingerprint(sim: &Simulator, arch: &ArchSpec) -> String {
    format!(
        "arch={arch:?}|cap={}|tech={:?}|extmem={:?}|latency={:?}",
        sim.sample_cap, sim.tech, sim.extmem, sim.latency_model
    )
}

/// The store key of one network simulation.
pub fn network_key(sim: &Simulator, arch: &ArchSpec, network: &str) -> StoreKey {
    StoreKey::new(
        KIND_NETWORK,
        network,
        sim.seed,
        repr_label(arch.repr),
        &config_fingerprint(sim, arch),
    )
}

/// [`Simulator::simulate_network_cached`] with store read-through: a valid
/// stored result is returned without simulating; a miss (or an unparsable
/// stored value) simulates, writes back, and returns the fresh result.
/// Either way the value is bit-identical to a direct simulation.
pub fn simulate_network_stored(
    sim: &Simulator,
    arch: &ArchSpec,
    net: &Network,
    cache: &DecompCache,
    store: &Store,
) -> NetworkResult {
    let key = network_key(sim, arch, net.name());
    if let Some(stored) = store.get(&key) {
        if let Some(result) = network_result_from_json(&stored) {
            return result;
        }
        // Parsable JSON, wrong shape: fall through and overwrite.
    }
    let result = sim.simulate_network_cached(arch, net, None, cache);
    put_best_effort(store, &key, &result);
    result
}

/// The stored result for one `(sim, arch, network)` cell, if present and
/// parsable; never computes anything. The batched grid probes every
/// architecture of a row through this before deciding which cells still
/// need a decomposition, so a fully warm row touches no planes at all.
/// The serve daemon's `lookup` verb (protocol revision 5) is a thin
/// wrapper over this, which is why it is public: a peer's answer must be
/// exactly what the local read-through would have served.
/// An unparsable stored value reads as a miss, exactly as
/// [`simulate_network_stored`] treats it.
pub fn try_stored(
    sim: &Simulator,
    arch: &ArchSpec,
    net: &Network,
    store: &Store,
) -> Option<NetworkResult> {
    store
        .get(&network_key(sim, arch, net.name()))
        .and_then(|stored| network_result_from_json(&stored))
}

/// Writes a result back without letting persistence failures poison the
/// computation; failures count in the process registry. Public for the
/// serve daemon's peer warm-start path, which writes back results fetched
/// from a peer's store exactly as if it had computed them.
pub fn put_best_effort(store: &Store, key: &StoreKey, result: &NetworkResult) {
    if store.put(key, &network_result_to_json(result)).is_err() {
        sibia_obs::registry().counter("store.put_errors").add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibia_nn::network::{DensityClass, TaskDomain};
    use sibia_nn::{Activation, Layer};
    use sibia_obs::Json;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sibia-stored-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn tiny_net() -> Network {
        Network::new(
            "stored-net",
            TaskDomain::Vision2d,
            DensityClass::Dense,
            vec![Layer::conv2d("c1", 8, 8, 3, 1, 1, 8)
                .with_activation(Activation::Relu)
                .with_input_sparsity(0.4)],
        )
    }

    #[test]
    fn cold_miss_then_warm_hit_byte_identical() {
        let dir = temp_dir("warm");
        let sim = Simulator::new(3);
        let arch = ArchSpec::sibia_hybrid();
        let net = tiny_net();
        let cold_bytes;
        {
            let store = Store::open(&dir).unwrap();
            let cold = simulate_network_stored(&sim, &arch, &net, &DecompCache::new(), &store);
            cold_bytes = network_result_to_json(&cold).to_string();
            let stats = store.stats();
            assert_eq!((stats.hits, stats.misses, stats.puts), (0, 1, 1));
        }
        // A new process: the store is reopened from disk.
        let store = Store::open(&dir).unwrap();
        let warm = simulate_network_stored(&sim, &arch, &net, &DecompCache::new(), &store);
        assert_eq!(network_result_to_json(&warm).to_string(), cold_bytes);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.puts), (1, 0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_configs_do_not_share_entries() {
        let dir = temp_dir("configs");
        let store = Store::open(&dir).unwrap();
        let net = tiny_net();
        let cache = DecompCache::new();
        let sim = Simulator::new(3);
        let mut small = sim;
        small.sample_cap = 1024;
        simulate_network_stored(&sim, &ArchSpec::sibia_hybrid(), &net, &cache, &store);
        simulate_network_stored(&small, &ArchSpec::sibia_hybrid(), &net, &cache, &store);
        simulate_network_stored(&sim, &ArchSpec::bit_fusion(), &net, &cache, &store);
        // Three distinct configurations → three entries, no false hits.
        assert_eq!(store.entries(), 3);
        assert_eq!(store.stats().hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparsable_stored_value_is_recomputed_and_overwritten() {
        let dir = temp_dir("garbage");
        let store = Store::open(&dir).unwrap();
        let sim = Simulator::new(3);
        let arch = ArchSpec::sibia_hybrid();
        let net = tiny_net();
        let key = network_key(&sim, &arch, net.name());
        store.put(&key, &Json::from("not a result")).unwrap();

        let result = simulate_network_stored(&sim, &arch, &net, &DecompCache::new(), &store);
        let direct = sim.simulate_network(&arch, &net);
        assert_eq!(result, direct);
        // The garbage was overwritten with the real result.
        assert_eq!(
            store.get(&key),
            Some(network_result_to_json(&direct)),
            "store should hold the recomputed value"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_covers_every_simulator_knob() {
        let arch = ArchSpec::sibia_hybrid();
        let base = Simulator::new(1);
        let fp = config_fingerprint(&base, &arch);
        let mut capped = base;
        capped.sample_cap = 99;
        assert_ne!(config_fingerprint(&capped, &arch), fp);
        let mut lat = base;
        lat.latency_model = crate::perf::LatencyModel::MemoryBound;
        assert_ne!(config_fingerprint(&lat, &arch), fp);
        // The seed is deliberately NOT in the fingerprint: it is a key
        // coordinate of its own.
        let mut seeded = base;
        seeded.seed = 999;
        assert_eq!(config_fingerprint(&seeded, &arch), fp);
    }

    #[test]
    fn default_store_key_is_pinned() {
        // Stores on disk are keyed by this exact string: a change here
        // silently turns every existing store into a cold one.
        let key = network_key(&Simulator::new(1), &ArchSpec::sibia_hybrid(), "dgcnn");
        assert_eq!(
            key.canonical(),
            "sim.network|dgcnn|1|sbr|cfg-a4fd0758a2ff7212"
        );
    }
}
