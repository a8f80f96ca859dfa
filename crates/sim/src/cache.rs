//! Memoized tensor synthesis and slice decomposition.
//!
//! Figure sweeps run the *same* network through several architecture
//! variants (fig10/fig11 use five), and every variant used to re-synthesize
//! and re-decompose every layer from scratch even though the tensors depend
//! only on `(layer, seed)` and the decomposition only additionally on the
//! slice representation. This module caches both levels:
//!
//! * [`DecompCache::tensors`]-level — the quantized input/weight codes of a
//!   layer, keyed by `(layer fingerprint, seed, layer index, sample cap)`,
//!   where the fingerprint ([`Layer::fingerprint`]) is every field of the
//!   layer with floats by their bits: two layers share it exactly when their
//!   `Debug` forms are equal, and building it formats nothing;
//! * [`DecompCache::decomp`]-level — a [`LayerDecomp`]: the per-order
//!   [`PlaneCounts`] (zero-slice / zero-sub-word / RLE-entry counts measured
//!   in one pass by the runtime-dispatched `plane_counts` kernel) plus
//!   value-group counts, keyed additionally by [`Repr`].
//!
//! The engine uses only the decomposition level. A grid row
//! (`Simulator::decompose_network`) that misses a layer under any
//! representation it needs synthesizes the layer once in its own loop,
//! measures the codes under every representation the cache lacks, needed
//! or not, and inserts only the decompositions. So a later request for the
//! same `(layer, seed)` under the other representation is a decomposition
//! hit, a worker holds one layer's codes at a time, and a long-lived cache
//! (the serve daemon's) holds counts only: under a kilobyte per entry.
//!
//! The tensor level stays only because the benchmark package's per-layer
//! walk calls `Simulator::synthesize_layer` and `Simulator::decompose_layer`;
//! it goes with them once that walk reads the engine's own stage spans
//! (ROADMAP item 10).
//!
//! A [`LayerDecomp`] stores **integer counts, never fractions**: every
//! simulated quantity is derived from the counts with exactly the divisions
//! the uncached scalar path performed, in the same order, so cached, uncached,
//! serial, and parallel runs produce bit-identical floating-point results.
//!
//! The cache is `Mutex`-guarded and shared across the worker threads of
//! `crate::parallel`. Locks are never held while synthesizing or
//! decomposing; two threads racing the same key may both compute it, but the
//! value is a pure function of the key, so whichever insert lands first is
//! indistinguishable from the other.
//!
//! Long-lived owners (the `sibia-serve` daemon keeps one cache for its whole
//! lifetime) bound memory with [`DecompCache::with_capacity`]: each level
//! keeps at most `cap` entries, evicting the least-recently-used one on
//! overflow. Eviction only ever discards memoized values — a later request
//! for an evicted key recomputes the identical value — so a bounded cache
//! changes memory and wall-clock, never results. Hit/miss counters feed the
//! daemon's `metrics` endpoint.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sibia_nn::{Layer, LayerFingerprint};
use sibia_sbr::kernels::PlaneCounts;

use crate::spec::Repr;

/// Index width of the Sibia DMU's RLE code.
pub const DMU_INDEX_BITS: u8 = 4;

/// Decomposition statistics of one operand tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperandStats {
    /// Number of sampled codes the statistics were measured on.
    pub sampled: usize,
    /// Per-slice-order plane counts, order 0 (LSB) first.
    pub planes: Vec<PlaneCounts>,
    /// Groups of four adjacent *values* that are entirely zero (HNPU-style
    /// value-granular skipping; the tail group counts when its members are
    /// all zero).
    pub zero_value_groups: usize,
    /// Total value groups (`sampled.div_ceil(4)`).
    pub value_groups: usize,
}

impl OperandStats {
    /// Measures a quantized code tensor decomposed at `repr`.
    pub fn measure(codes: &[i32], precision: sibia_sbr::Precision, repr: Repr) -> Self {
        let planes = match repr {
            Repr::Sbr => sibia_sbr::sbr::planes(codes, precision),
            Repr::Conventional => sibia_sbr::conv::planes(codes, precision),
        };
        let ops = sibia_sbr::kernels::active();
        let planes = planes
            .iter()
            .map(|p| ops.plane_counts(p, DMU_INDEX_BITS))
            .collect();
        // Branch-free over whole groups (a group is zero iff the OR of its
        // values is), then the tail group.
        let groups = codes.chunks_exact(4);
        let tail = groups.remainder();
        let zero_value_groups = groups
            .map(|g| usize::from(g[0] | g[1] | g[2] | g[3] == 0))
            .sum::<usize>()
            + usize::from(!tail.is_empty() && tail.iter().all(|&v| v == 0));
        Self {
            sampled: codes.len(),
            planes,
            zero_value_groups,
            value_groups: codes.len().div_ceil(4),
        }
    }

    /// Per-order zero-sub-word fractions (the DSM's input).
    pub fn subword_sparsity(&self) -> Vec<f64> {
        self.planes
            .iter()
            .map(|p| p.zero_subword_fraction())
            .collect()
    }
}

/// Everything the cycle model needs to know about one layer's operands
/// under one slice representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerDecomp {
    /// Input slice orders (`k_i`).
    pub ki: usize,
    /// Weight slice orders (`k_w`).
    pub kw: usize,
    /// Input-operand statistics.
    pub input: OperandStats,
    /// Weight-operand statistics.
    pub weight: OperandStats,
}

/// Synthesized quantized codes of one layer's operands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTensors {
    /// Quantized input-activation codes.
    pub input_codes: Vec<i32>,
    /// Quantized weight codes.
    pub weight_codes: Vec<i32>,
}

/// Cache key for synthesized tensors. Layers carry floats and so cannot
/// implement `Hash`; the key holds the layer's [`LayerFingerprint`] instead:
/// every field, floats by their bits, equal exactly when the layers' `Debug`
/// forms are. Building it copies the name and formats nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TensorKey {
    layer: LayerFingerprint,
    seed: u64,
    layer_index: usize,
    sample_cap: usize,
}

/// Cache key for decomposition statistics.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct DecompKey {
    layer: LayerFingerprint,
    seed: u64,
    layer_index: usize,
    sample_cap: usize,
    repr: Repr,
}

/// One bounded, LRU-ish memo level: entries carry a last-use stamp from a
/// per-level logical clock; on overflow the smallest stamp is evicted.
/// Eviction scans linearly — "LRU-ish" — which is exact LRU behaviour at
/// O(n) evict cost, fine for the few-thousand-entry caps a server uses.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, (Arc<V>, u64)>,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> Shard<K, V> {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            tick: 0,
        }
    }

    fn get(&mut self, key: &K) -> Option<Arc<V>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(v, stamp)| {
            *stamp = tick;
            Arc::clone(v)
        })
    }

    /// Inserts (keeping an existing value if a racing thread beat us),
    /// evicts down to `cap`, and returns the stored value.
    fn insert(&mut self, key: K, value: Arc<V>, cap: Option<usize>) -> Arc<V> {
        self.tick += 1;
        let tick = self.tick;
        let stored = Arc::clone(
            &self
                .map
                .entry(key)
                .and_modify(|(_, stamp)| *stamp = tick)
                .or_insert((value, tick))
                .0,
        );
        if let Some(cap) = cap {
            while self.map.len() > cap {
                let oldest = self
                    .map
                    .iter()
                    .min_by_key(|(_, (_, stamp))| *stamp)
                    .map(|(k, _)| k.clone())
                    .expect("non-empty map");
                self.map.remove(&oldest);
            }
        }
        stored
    }
}

/// Thread-safe memo of synthesis and decomposition results, optionally
/// bounded per level.
#[derive(Debug)]
pub struct DecompCache {
    tensors: Mutex<Shard<TensorKey, LayerTensors>>,
    decomps: Mutex<Shard<DecompKey, LayerDecomp>>,
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DecompCache {
    /// An empty, unbounded cache (sweep-scoped use: the working set is the
    /// grid's layer count, naturally bounded).
    pub fn new() -> Self {
        Self {
            tensors: Mutex::new(Shard::new()),
            decomps: Mutex::new(Shard::new()),
            capacity: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// An empty cache holding at most `cap` (≥ 1) entries *per level*, with
    /// least-recently-used eviction. Long-lived owners (the serve daemon)
    /// use this to keep memory bounded across an unbounded request stream.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            capacity: Some(cap.max(1)),
            ..Self::new()
        }
    }

    /// Number of cached layer tensors.
    pub fn tensor_entries(&self) -> usize {
        self.tensors.lock().expect("cache lock").map.len()
    }

    /// Number of cached layer decompositions.
    pub fn decomp_entries(&self) -> usize {
        self.decomps.lock().expect("cache lock").map.len()
    }

    /// Lookups answered from the cache (both levels).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute (both levels).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Returns the synthesized tensors for a key, computing them with
    /// `synth` on a miss. The lock is not held during `synth`. Only
    /// `Simulator::synthesize_layer` calls this; the engine never does.
    pub fn tensors(
        &self,
        layer: &Layer,
        seed: u64,
        layer_index: usize,
        sample_cap: usize,
        synth: impl FnOnce() -> LayerTensors,
    ) -> Arc<LayerTensors> {
        let key = TensorKey {
            layer: layer.fingerprint(),
            seed,
            layer_index,
            sample_cap,
        };
        if let Some(hit) = self.tensors.lock().expect("cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(synth());
        self.tensors
            .lock()
            .expect("cache lock")
            .insert(key, value, self.capacity)
    }

    /// Returns the decomposition statistics for a key, computing them with
    /// `measure` on a miss. The lock is not held during `measure`.
    pub fn decomp(
        &self,
        layer: &Layer,
        seed: u64,
        layer_index: usize,
        sample_cap: usize,
        repr: Repr,
        measure: impl FnOnce() -> LayerDecomp,
    ) -> Arc<LayerDecomp> {
        let key = DecompKey {
            layer: layer.fingerprint(),
            seed,
            layer_index,
            sample_cap,
            repr,
        };
        if let Some(hit) = self.decomps.lock().expect("cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(measure());
        self.decomps
            .lock()
            .expect("cache lock")
            .insert(key, value, self.capacity)
    }
}

impl Default for DecompCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibia_compress::RleCodec;
    use sibia_sbr::subword::{to_subwords, zero_subword_fraction};
    use sibia_sbr::Precision;

    #[test]
    fn plane_stats_match_scalar_definitions() {
        // The second tensor's 130-zero tail saturates the DMU's RLE index.
        let mixed: Vec<i32> = (-40..40).map(|v| v * 3 % 41).collect();
        let zero_run: Vec<i32> = (-63..=63).chain([0; 130]).collect();
        for (values, repr) in [&mixed, &zero_run]
            .into_iter()
            .flat_map(|v| [(v, Repr::Sbr), (v, Repr::Conventional)])
        {
            let stats = OperandStats::measure(values, Precision::BITS7, repr);
            let planes = match repr {
                Repr::Sbr => sibia_sbr::sbr::planes(values, Precision::BITS7),
                Repr::Conventional => sibia_sbr::conv::planes(values, Precision::BITS7),
            };
            for (p, s) in planes.iter().zip(&stats.planes) {
                assert_eq!(s.len, p.len());
                assert_eq!(s.zero_digits, p.iter().filter(|&&d| d == 0).count());
                let sw = to_subwords(p);
                assert_eq!(s.subwords, sw.len());
                assert_eq!(s.zero_subwords, sw.iter().filter(|w| w.is_zero()).count());
                assert_eq!(s.zero_subword_fraction(), zero_subword_fraction(p));
                let stream = RleCodec::new(DMU_INDEX_BITS).compress(&sw);
                assert_eq!(s.rle_entries, stream.entries().len());
            }
        }
    }

    #[test]
    fn value_groups_cover_the_tail() {
        let stats = OperandStats::measure(&[0, 0, 0, 0, 1, 0, 0], Precision::BITS7, Repr::Sbr);
        assert_eq!(stats.value_groups, 2);
        assert_eq!(stats.zero_value_groups, 1);
        let stats = OperandStats::measure(&[1, 0, 0, 0, 0, 0], Precision::BITS7, Repr::Sbr);
        assert_eq!(stats.zero_value_groups, 1, "all-zero tail group counts");
        // Every prefix, so every tail length, against a per-group `all`.
        let codes = [0, 0, 0, 0, 0, -63, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0];
        for len in 0..=codes.len() {
            let codes = &codes[..len];
            let want = codes
                .chunks(4)
                .filter(|g| g.iter().all(|&v| v == 0))
                .count();
            let stats = OperandStats::measure(codes, Precision::BITS7, Repr::Sbr);
            assert_eq!(stats.zero_value_groups, want, "len {len}");
        }
    }

    #[test]
    fn cache_hits_return_the_same_value() {
        use sibia_nn::Layer;
        let cache = DecompCache::new();
        let layer = Layer::linear("l", 4, 8, 8);
        let mut calls = 0;
        for _ in 0..3 {
            let t = cache.tensors(&layer, 1, 0, 64, || {
                calls += 1;
                LayerTensors {
                    input_codes: vec![1, 2],
                    weight_codes: vec![3],
                }
            });
            assert_eq!(t.input_codes, vec![1, 2]);
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.tensor_entries(), 1);
        // A different layer index is a different stream → separate entry.
        cache.tensors(&layer, 1, 1, 64, || LayerTensors {
            input_codes: vec![],
            weight_codes: vec![],
        });
        assert_eq!(cache.tensor_entries(), 2);
    }

    #[test]
    fn layers_share_a_key_exactly_when_their_debug_forms_are_equal() {
        use sibia_nn::{Activation, Layer};
        let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let leaky = |alpha: f32| Activation::LeakyRelu { alpha };
        let base = Layer::linear("l", 4, 8, 8)
            .with_activation(Activation::LEAKY_RELU_01)
            .with_input_sparsity(0.25);
        let layers = [
            base.clone(),
            base.clone(),
            // Only the name differs.
            Layer::linear("m", 4, 8, 8)
                .with_activation(Activation::LEAKY_RELU_01)
                .with_input_sparsity(0.25),
            // Only one float's bits differ.
            base.clone().with_input_sparsity(next_up(0.25)),
            base.clone().with_dram_input_fraction(next_up(0.5)),
            base.clone().with_dram_input_fraction(0.5),
            base.clone()
                .with_activation(leaky(f32::from_bits(0.1f32.to_bits() + 1))),
            // Only the sign of a zero differs.
            base.clone().with_input_sparsity(0.0),
            base.clone().with_input_sparsity(-0.0),
            base.clone().with_activation(leaky(0.0)),
            base.clone().with_activation(leaky(-0.0)),
            // The same alpha under another variant.
            base.clone().with_activation(Activation::Elu { alpha: 0.0 }),
            // NaNs whose bits differ print alike.
            base.clone().with_activation(leaky(f32::NAN)),
            base.clone()
                .with_activation(leaky(f32::from_bits(f32::NAN.to_bits() | 1))),
        ];
        for a in &layers {
            for b in &layers {
                assert_eq!(
                    a.fingerprint() == b.fingerprint(),
                    format!("{a:?}") == format!("{b:?}"),
                    "{a:?} against {b:?}"
                );
            }
        }
        // Through both levels: one entry, and one miss, per distinct form.
        let distinct: std::collections::HashSet<String> =
            layers.iter().map(|l| format!("{l:?}")).collect();
        assert_eq!(distinct.len(), layers.len() - 2);
        let cache = DecompCache::new();
        let values: Vec<i32> = (-10..10).collect();
        for layer in &layers {
            cache.tensors(layer, 1, 0, 64, || LayerTensors {
                input_codes: vec![],
                weight_codes: vec![],
            });
            cache.decomp(layer, 1, 0, 64, Repr::Sbr, || LayerDecomp {
                ki: 2,
                kw: 2,
                input: OperandStats::measure(&values, Precision::BITS7, Repr::Sbr),
                weight: OperandStats::measure(&values, Precision::BITS7, Repr::Sbr),
            });
        }
        assert_eq!(cache.tensor_entries(), distinct.len());
        assert_eq!(cache.decomp_entries(), distinct.len());
        assert_eq!(cache.misses(), 2 * distinct.len() as u64);
        assert_eq!(cache.hits(), 4);
    }

    #[test]
    fn capacity_is_respected_with_lru_eviction() {
        use sibia_nn::Layer;
        let cache = DecompCache::with_capacity(2);
        let layer = Layer::linear("l", 4, 8, 8);
        let fill = |codes: Vec<i32>| LayerTensors {
            input_codes: codes,
            weight_codes: vec![],
        };
        // Three distinct keys (layer indices 0/1/2) through a cap of 2.
        cache.tensors(&layer, 1, 0, 64, || fill(vec![0]));
        cache.tensors(&layer, 1, 1, 64, || fill(vec![1]));
        assert_eq!(cache.tensor_entries(), 2);
        // Touch index 0 so index 1 becomes the LRU victim.
        cache.tensors(&layer, 1, 0, 64, || unreachable!("hit"));
        cache.tensors(&layer, 1, 2, 64, || fill(vec![2]));
        assert_eq!(cache.tensor_entries(), 2, "cap respected");
        // Index 0 survived (hit), index 1 was evicted (recompute runs).
        let mut recomputed = false;
        cache.tensors(&layer, 1, 0, 64, || unreachable!("still cached"));
        cache.tensors(&layer, 1, 1, 64, || {
            recomputed = true;
            fill(vec![1])
        });
        assert!(recomputed, "LRU victim was index 1");
        // Counters: misses = 4 computes (0, 1, 2, 1-again), hits = 2.
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn counters_track_both_levels() {
        use sibia_nn::Layer;
        let cache = DecompCache::new();
        let layer = Layer::linear("l", 4, 8, 8);
        let values: Vec<i32> = (-10..10).collect();
        for _ in 0..3 {
            cache.decomp(&layer, 1, 0, 64, Repr::Sbr, || LayerDecomp {
                ki: 2,
                kw: 2,
                input: OperandStats::measure(&values, Precision::BITS7, Repr::Sbr),
                weight: OperandStats::measure(&values, Precision::BITS7, Repr::Sbr),
            });
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.decomp_entries(), 1);
    }
}
