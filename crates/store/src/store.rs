//! The content-addressed store: an in-memory index replayed from the
//! record log, with read-through metrics, spans, and snapshot compaction.
//!
//! Every record's payload is one canonical-JSON object
//! `{"k":<key>,"v":<value>}`. The log is the single source of truth; the
//! index (`canonical-key → (key, value)`) is rebuilt from it on every open,
//! so there is no separate index file to keep consistent. Later records for
//! the same key supersede earlier ones ("last write wins"), which is what
//! makes compaction sound: a snapshot that keeps only each key's newest
//! value replays to the identical index.
//!
//! **Compaction policy.** Superseded (*stale*) records accumulate in the
//! log but never in the index. [`Store::maybe_compact`] rewrites the log as
//! a snapshot — live records only, sorted by canonical key for reproducible
//! bytes — once stale records outnumber live entries and exceed a floor of
//! [`Store::COMPACT_MIN_STALE`]; [`Store::compact`] does it unconditionally.
//! The rewrite is crash-safe: write `store.log.tmp`, fsync it, rename over
//! `store.log`, fsync the directory. A crash at any point leaves either the
//! old log or the complete new one, never a mix.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sibia_obs::Json;

use crate::key::StoreKey;
use crate::log::{RecordLog, StoreError};

/// File name of the record log inside a store directory.
pub const LOG_FILE: &str = "store.log";

/// A point-in-time statistics snapshot of a [`Store`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Live entries in the index.
    pub entries: u64,
    /// `get` calls that found a value.
    pub hits: u64,
    /// `get` calls that found nothing.
    pub misses: u64,
    /// `put` calls (each appends one record).
    pub puts: u64,
    /// Bytes appended to the log since open (frames + payloads).
    pub bytes_appended: u64,
    /// Current log size on disk in bytes.
    pub log_bytes: u64,
    /// Snapshot compactions performed since open.
    pub compactions: u64,
    /// Valid records replayed at open.
    pub recovered_records: u64,
    /// Torn-tail bytes discarded at open.
    pub truncated_bytes: u64,
    /// Superseded records currently buried in the log (compaction resets
    /// this to zero).
    pub stale_records: u64,
}

impl StoreStats {
    /// Canonical JSON form (keys in this declaration order).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("entries", Json::from(self.entries)),
            ("hits", Json::from(self.hits)),
            ("misses", Json::from(self.misses)),
            ("puts", Json::from(self.puts)),
            ("bytes_appended", Json::from(self.bytes_appended)),
            ("log_bytes", Json::from(self.log_bytes)),
            ("compactions", Json::from(self.compactions)),
            ("recovered_records", Json::from(self.recovered_records)),
            ("truncated_bytes", Json::from(self.truncated_bytes)),
            ("stale_records", Json::from(self.stale_records)),
        ])
    }
}

/// The crash-safe persistent result store.
///
/// Thread-safe: `get`/`put`/`compact` take `&self` and serialize through
/// internal locks, so one `Store` can back every serve worker directly.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    log: Mutex<RecordLog>,
    index: Mutex<HashMap<String, (StoreKey, Json)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    bytes_appended: AtomicU64,
    compactions: AtomicU64,
    stale_records: AtomicU64,
    recovered_records: u64,
    truncated_bytes: u64,
}

impl Store {
    /// Compaction floor: [`Store::maybe_compact`] never rewrites for fewer
    /// stale records than this, however unfavorable the ratio.
    pub const COMPACT_MIN_STALE: u64 = 64;

    /// Opens (creating if needed) the store in directory `dir`, recovering
    /// the record log: the valid prefix is replayed into the index, any
    /// torn tail is truncated away. Records whose payload is not a valid
    /// `{"k":…,"v":…}` object — checksum-valid but semantically foreign —
    /// are skipped, never served.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut index: HashMap<String, (StoreKey, Json)> = HashMap::new();
        let mut stale = 0u64;
        let log = RecordLog::open(dir.join(LOG_FILE), |payload| {
            if let Some((key, value)) = decode_record(payload) {
                if index.insert(key.canonical(), (key, value)).is_some() {
                    stale += 1;
                }
            }
        })?;
        let recovery = log.recovery().clone();
        Ok(Self {
            dir,
            log: Mutex::new(log),
            index: Mutex::new(index),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            bytes_appended: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            stale_records: AtomicU64::new(stale),
            recovered_records: recovery.valid_records,
            truncated_bytes: recovery.truncated_bytes,
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks a key up; clones the stored value on a hit.
    pub fn get(&self, key: &StoreKey) -> Option<Json> {
        let mut span = sibia_obs::tracer().span("store.get");
        span.attr("key", key.canonical());
        let found = self
            .index
            .lock()
            .expect("store index lock")
            .get(&key.canonical())
            .map(|(_, v)| v.clone());
        span.attr("hit", found.is_some());
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Whether `key` has a live entry. Counts neither a hit nor a miss: a
    /// caller deciding whether to fetch a value from elsewhere leaves the
    /// counters to the read that follows.
    pub fn contains(&self, key: &StoreKey) -> bool {
        self.index
            .lock()
            .expect("store index lock")
            .contains_key(&key.canonical())
    }

    /// Writes a key/value pair: appends one fsync'd record, then updates
    /// the index. Durable when this returns. Overwriting an existing key is
    /// allowed (last write wins) and marks the buried record stale.
    pub fn put(&self, key: &StoreKey, value: &Json) -> Result<(), StoreError> {
        let mut span = sibia_obs::tracer().span("store.put");
        span.attr("key", key.canonical());
        let payload = encode_record(key, value);
        span.attr("bytes", payload.len());
        // Log before index, under the log lock, so index order matches log
        // order and a reader never sees an entry that could be lost.
        {
            let mut log = self.log.lock().expect("store log lock");
            let appended = log.append(&payload)?;
            self.bytes_appended.fetch_add(appended, Ordering::Relaxed);
        }
        let prior = self
            .index
            .lock()
            .expect("store index lock")
            .insert(key.canonical(), (key.clone(), value.clone()));
        if prior.is_some() {
            self.stale_records.fetch_add(1, Ordering::Relaxed);
        }
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Rewrites the log as a live-records-only snapshot (crash-safe
    /// tmp-write → fsync → rename → fsync-dir), unconditionally.
    pub fn compact(&self) -> Result<(), StoreError> {
        let mut span = sibia_obs::tracer().span("store.compact");
        // Both locks for the duration: no put may interleave between the
        // snapshot read and the log swap.
        let mut log = self.log.lock().expect("store log lock");
        let index = self.index.lock().expect("store index lock");
        span.attr("entries", index.len());
        span.attr("before_bytes", log.len_bytes());

        let mut entries: Vec<&(StoreKey, Json)> = index.values().collect();
        // Sorted by canonical key: compaction output is a pure function of
        // the live contents, so two equal stores compact to equal bytes.
        entries.sort_by_key(|(k, _)| k.canonical());

        let tmp = self.dir.join(format!("{LOG_FILE}.tmp"));
        let _ = std::fs::remove_file(&tmp);
        {
            let mut snapshot = RecordLog::open(&tmp, |_| {})?;
            for (key, value) in entries {
                snapshot.append(&encode_record(key, value))?;
            }
        }
        let live = self.dir.join(LOG_FILE);
        std::fs::rename(&tmp, &live)?;
        // Make the rename itself durable (data already is, via append's
        // per-record fsync).
        std::fs::File::open(&self.dir)?.sync_all()?;

        *log = RecordLog::open(&live, |_| {})?;
        span.attr("after_bytes", log.len_bytes());
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.stale_records.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Compacts only when it pays: stale records outnumber live entries
    /// *and* exceed [`Self::COMPACT_MIN_STALE`]. Returns whether a
    /// compaction ran. Long-lived owners (the serve daemon) call this after
    /// writes; short-lived CLI runs use explicit `store compact`.
    pub fn maybe_compact(&self) -> Result<bool, StoreError> {
        let stale = self.stale_records.load(Ordering::Relaxed);
        let entries = self.index.lock().expect("store index lock").len() as u64;
        if stale >= Self::COMPACT_MIN_STALE && stale > entries {
            self.compact()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Verifies every record checksum in `dir`'s log without opening (or
    /// repairing) the store. `Ok(records)`; a store directory with no log
    /// yet verifies as empty.
    pub fn verify_dir(dir: &Path) -> Result<u64, StoreError> {
        let path = dir.join(LOG_FILE);
        if !path.exists() {
            return Ok(0);
        }
        RecordLog::verify_file(&path)
    }

    /// Live entry count.
    pub fn entries(&self) -> u64 {
        self.index.lock().expect("store index lock").len() as u64
    }

    /// Every live key, sorted canonically.
    pub fn keys(&self) -> Vec<StoreKey> {
        let index = self.index.lock().expect("store index lock");
        let mut keys: Vec<StoreKey> = index.values().map(|(k, _)| k.clone()).collect();
        keys.sort_by_key(StoreKey::canonical);
        keys
    }

    /// A point-in-time statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self.entries(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            bytes_appended: self.bytes_appended.load(Ordering::Relaxed),
            log_bytes: self.log.lock().expect("store log lock").len_bytes(),
            compactions: self.compactions.load(Ordering::Relaxed),
            recovered_records: self.recovered_records,
            truncated_bytes: self.truncated_bytes,
            stale_records: self.stale_records.load(Ordering::Relaxed),
        }
    }
}

/// Encodes one record payload: canonical JSON `{"k":<key>,"v":<value>}`,
/// the value written in place rather than cloned into a wrapper object.
fn encode_record(key: &StoreKey, value: &Json) -> Vec<u8> {
    let mut out = String::from("{\"k\":");
    key.to_json().write_to(&mut out);
    out.push_str(",\"v\":");
    value.write_to(&mut out);
    out.push('}');
    out.into_bytes()
}

/// Decodes a record payload; `None` for anything that is not a well-formed
/// `{"k":…,"v":…}` object (skipped at replay, never served).
fn decode_record(payload: &[u8]) -> Option<(StoreKey, Json)> {
    let text = std::str::from_utf8(payload).ok()?;
    let doc = Json::parse(text).ok()?;
    let key = StoreKey::from_json(doc.get("k")?)?;
    let value = doc.get("v")?.clone();
    Some((key, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sibia-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn key(n: u64) -> StoreKey {
        StoreKey::new("sim.network", format!("net{n}"), n, "sbr", "cap=64")
    }

    #[test]
    fn put_get_survives_reopen() {
        let dir = temp_dir("reopen");
        let value = Json::obj(vec![("cycles", Json::from(42u64))]);
        {
            let store = Store::open(&dir).unwrap();
            assert_eq!(store.get(&key(1)), None);
            store.put(&key(1), &value).unwrap();
            assert_eq!(store.get(&key(1)), Some(value.clone()));
            let stats = store.stats();
            assert_eq!((stats.hits, stats.misses, stats.puts), (1, 1, 1));
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get(&key(1)), Some(value));
        assert_eq!(store.stats().recovered_records, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_are_the_canonical_key_value_object() {
        let value = Json::obj(vec![
            ("a", Json::Float(1.0)),
            ("b", Json::from("x\"y")),
            ("c", Json::Array(vec![Json::Null, Json::Float(0.25)])),
        ]);
        assert_eq!(
            encode_record(&key(4), &value),
            Json::obj(vec![("k", key(4).to_json()), ("v", value.clone())])
                .to_string()
                .into_bytes()
        );
        assert_eq!(
            decode_record(&encode_record(&key(4), &value)),
            Some((key(4), Json::parse(&value.to_string()).unwrap()))
        );
    }

    #[test]
    fn contains_counts_no_probe() {
        let dir = temp_dir("contains");
        let store = Store::open(&dir).unwrap();
        assert!(!store.contains(&key(1)));
        store.put(&key(1), &Json::from(1u64)).unwrap();
        assert!(store.contains(&key(1)));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn last_write_wins_and_marks_stale() {
        let dir = temp_dir("lww");
        let store = Store::open(&dir).unwrap();
        store.put(&key(1), &Json::from("old")).unwrap();
        store.put(&key(1), &Json::from("new")).unwrap();
        assert_eq!(store.get(&key(1)), Some(Json::from("new")));
        assert_eq!(store.stats().stale_records, 1);
        assert_eq!(store.entries(), 1);
        drop(store);
        // Replay re-derives the same stale count.
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get(&key(1)), Some(Json::from("new")));
        assert_eq!(store.stats().stale_records, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_stale_records_and_preserves_values() {
        let dir = temp_dir("compact");
        let store = Store::open(&dir).unwrap();
        for round in 0..5u64 {
            for n in 0..4 {
                store.put(&key(n), &Json::from(round * 10 + n)).unwrap();
            }
        }
        let before = store.stats();
        assert_eq!(before.entries, 4);
        assert_eq!(before.stale_records, 16);

        store.compact().unwrap();
        let after = store.stats();
        assert_eq!(after.entries, 4);
        assert_eq!(after.stale_records, 0);
        assert_eq!(after.compactions, 1);
        assert!(after.log_bytes < before.log_bytes);
        for n in 0..4 {
            assert_eq!(store.get(&key(n)), Some(Json::from(40 + n)));
        }

        // Reopen replays exactly the live set.
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.stats().recovered_records, 4);
        for n in 0..4 {
            assert_eq!(store.get(&key(n)), Some(Json::from(40 + n)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_output_is_deterministic() {
        let dir_a = temp_dir("det-a");
        let dir_b = temp_dir("det-b");
        let a = Store::open(&dir_a).unwrap();
        let b = Store::open(&dir_b).unwrap();
        // Same contents, inserted in different orders.
        for n in 0..8u64 {
            a.put(&key(n), &Json::from(n)).unwrap();
        }
        for n in (0..8u64).rev() {
            b.put(&key(n), &Json::from(n)).unwrap();
        }
        a.compact().unwrap();
        b.compact().unwrap();
        let bytes_a = std::fs::read(dir_a.join(LOG_FILE)).unwrap();
        let bytes_b = std::fs::read(dir_b.join(LOG_FILE)).unwrap();
        assert_eq!(bytes_a, bytes_b);
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn maybe_compact_respects_floor_and_ratio() {
        let dir = temp_dir("maybe");
        let store = Store::open(&dir).unwrap();
        store.put(&key(1), &Json::from(0u64)).unwrap();
        // One stale record: far under the floor.
        store.put(&key(1), &Json::from(1u64)).unwrap();
        assert!(!store.maybe_compact().unwrap());
        // Push past the floor with rewrites of a single key.
        for i in 0..Store::COMPACT_MIN_STALE {
            store.put(&key(1), &Json::from(i)).unwrap();
        }
        assert!(store.maybe_compact().unwrap());
        assert_eq!(store.stats().stale_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_but_checksummed_records_are_skipped_not_served() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        {
            let mut log = RecordLog::open(dir.join(LOG_FILE), |_| {}).unwrap();
            log.append(b"not json at all").unwrap();
            log.append(br#"{"k":{"kind":"x"},"v":1}"#).unwrap(); // key incomplete
            log.append(
                Json::obj(vec![("k", key(3).to_json()), ("v", Json::from(7u64))])
                    .to_string()
                    .as_bytes(),
            )
            .unwrap();
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.entries(), 1);
        assert_eq!(store.get(&key(3)), Some(Json::from(7u64)));
        // All three records were checksum-valid.
        assert_eq!(store.stats().recovered_records, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_dir_handles_missing_and_valid_logs() {
        let dir = temp_dir("verifydir");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(Store::verify_dir(&dir).unwrap(), 0);
        let store = Store::open(&dir).unwrap();
        store.put(&key(1), &Json::from(1u64)).unwrap();
        store.put(&key(2), &Json::from(2u64)).unwrap();
        drop(store);
        assert_eq!(Store::verify_dir(&dir).unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_puts_and_gets_stay_consistent() {
        let dir = temp_dir("concurrent");
        let store = Store::open(&dir).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = &store;
                scope.spawn(move || {
                    for n in 0..16u64 {
                        let k = key(t * 100 + n);
                        store.put(&k, &Json::from(n)).unwrap();
                        assert_eq!(store.get(&k), Some(Json::from(n)));
                    }
                });
            }
        });
        assert_eq!(store.entries(), 64);
        let stats = store.stats();
        assert_eq!(stats.puts, 64);
        assert_eq!(stats.hits, 64);
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.stats().recovered_records, 64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
