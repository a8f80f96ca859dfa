//! # sibia-store: crash-safe persistent result store
//!
//! Std-only (like `sibia-serve` and `sibia-obs`): no database, no external
//! serialization crate — just an append-only record log with CRC-32
//! framing, torn-tail recovery, and snapshot compaction, holding
//! canonical-JSON encodings of simulation results keyed by
//! `(kind, network, seed, repr, config-hash)`.
//!
//! Why it exists: every byte of derived state the stack computes —
//! decomposition counts, network results, sweep grids — is a deterministic
//! function of its [`StoreKey`]. That makes an on-disk memo *sound*: a
//! stored value is byte-identical to a recompute, so a warm restart of the
//! serve daemon can answer its first request from disk with exactly the
//! bytes a cold run would have produced. See `DESIGN.md` §9 for the record
//! format diagram and recovery rules.
//!
//! Layering: `sibia-sim` builds read-through/write-back simulation on top
//! of [`Store`]; `sibia-serve` opens one per daemon for warm restarts;
//! `sibia-cli store stats|verify|compact` administers a store directory.
//!
//! ```
//! use sibia_store::{Store, StoreKey};
//! use sibia_obs::Json;
//!
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! let store = Store::open(&dir).unwrap();
//! let key = StoreKey::new("sim.network", "dgcnn", 7, "sbr", "cap=4096");
//! store.put(&key, &Json::from(123u64)).unwrap();
//! assert_eq!(store.get(&key), Some(Json::from(123u64)));
//! # drop(store);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

pub mod crc;
pub mod key;
pub mod log;
pub mod store;

pub use crc::crc32;
pub use key::{fnv64, StoreKey};
pub use log::{RecordLog, Recovery, StoreError, FRAME_BYTES, MAX_RECORD_BYTES};
pub use store::{Store, StoreStats, LOG_FILE};
