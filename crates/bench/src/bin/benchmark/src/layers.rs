//! The traced serial walk behind the compute-layer metrics.
//!
//! Every workload ends in simulated cells, so every workload reports where a
//! cell's compute goes. The walk re-runs the workload's own (network, seed)
//! rows one layer at a time through the public calls the engine makes, each
//! wrapped in a `bench.*` span on the process tracer:
//!
//! | span | call | layer |
//! |---|---|---|
//! | `bench.nn.synth` | `Simulator::synthesize_layer` on a fresh cache | `nn::synth` |
//! | `bench.sbr.kernels` | `kernels::active()` `sbr_planes`/`conv_planes` + `plane_counts` | `sbr::kernels` |
//! | `bench.sim.cache.measure` | `Simulator::decompose_layer` on the synthesized tensors | `sim::cache` |
//! | `bench.sim.perf.model` | `Simulator::simulate_layer_from`, every arch of the repr | `sim::perf` |
//!
//! The measurement span runs the kernels again internally, so the
//! `sim.cache` figure is its self time minus the kernels' self time. Self
//! times come from the tracer records; their sum must not exceed the wall
//! time of the walk.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use sibia::nn::Network;
use sibia::obs::{tracer, SpanRecord};
use sibia::sbr::kernels;
use sibia::sim::cache::DMU_INDEX_BITS;
use sibia::sim::{ArchSpec, DecompCache, Repr, Simulator};

use crate::common::Run;

/// Self time per span name, in microseconds.
pub fn self_times(records: &[SpanRecord]) -> BTreeMap<String, u64> {
    let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        if let Some(parent) = r.parent {
            *child_us.entry(parent).or_default() += r.dur_us;
        }
    }
    let mut by_name: BTreeMap<String, u64> = BTreeMap::new();
    for r in records {
        let own = r
            .dur_us
            .saturating_sub(child_us.get(&r.id).copied().unwrap_or(0));
        *by_name.entry(r.name.clone()).or_default() += own;
    }
    by_name
}

/// Walks `rows` serially with tracing on, records the four compute-layer
/// readings (ms per cell) and the self-time check into `run`, and returns the
/// walk's spans.
pub fn walk(run: &mut Run, archs: &[ArchSpec], rows: &[(&Network, u64)]) -> Vec<SpanRecord> {
    let mut reprs: Vec<Repr> = Vec::new();
    for arch in archs {
        if !reprs.contains(&arch.repr) {
            reprs.push(arch.repr);
        }
    }
    let ops = kernels::active();
    let t = tracer();
    t.clear();
    let dropped = t.dropped();
    let mut records = Vec::new();
    t.enable();
    let started = Instant::now();
    for &(net, seed) in rows {
        let sim = Simulator::new(seed);
        let cache = DecompCache::new();
        let mut row = t.span("bench.row");
        row.attr("network", net.name());
        row.attr("seed", seed);
        for (i, layer) in net.layers().iter().enumerate() {
            let tensors = {
                let _span = t.span("bench.nn.synth");
                sim.synthesize_layer(layer, i, &cache)
            };
            for &repr in &reprs {
                {
                    let _span = t.span("bench.sbr.kernels");
                    for (codes, precision) in [
                        (&tensors.input_codes, layer.input_precision()),
                        (&tensors.weight_codes, layer.weight_precision()),
                    ] {
                        let planes = match repr {
                            Repr::Sbr => ops.sbr_planes(codes, precision),
                            Repr::Conventional => ops.conv_planes(codes, precision),
                        };
                        for plane in &planes {
                            black_box(ops.plane_counts(plane, DMU_INDEX_BITS));
                        }
                    }
                }
                let decomp = {
                    let _span = t.span("bench.sim.cache.measure");
                    sim.decompose_layer(layer, i, repr, &cache)
                };
                let _span = t.span("bench.sim.perf.model");
                for arch in archs.iter().filter(|a| a.repr == repr) {
                    black_box(sim.simulate_layer_from(arch, layer, &decomp, 1.0));
                }
            }
        }
        drop(row);
        // Drained per row: one thread's spans share one bounded stripe.
        records.extend(t.records());
        t.clear();
    }
    let wall_us = started.elapsed().as_micros() as u64;
    t.disable();
    run.check(
        "trace.no_spans_dropped",
        t.dropped() == dropped,
        format!("{} spans evicted", t.dropped() - dropped),
    );

    let own = self_times(&records);
    let stage = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
    let cells = (rows.len() * archs.len()) as f64;
    let per_cell = |us: f64| us / 1e3 / cells;
    let kernels_us = stage("bench.sbr.kernels");
    run.read("nn.synth.ms", per_cell(stage("bench.nn.synth")), "ms");
    run.read("sbr.kernels.ms", per_cell(kernels_us), "ms");
    run.read(
        "sim.cache.measure.ms",
        per_cell(stage("bench.sim.cache.measure") - kernels_us),
        "ms",
    );
    run.read(
        "sim.perf.model.ms",
        per_cell(stage("bench.sim.perf.model")),
        "ms",
    );
    let staged: u64 = own
        .iter()
        .filter(|(name, _)| name.starts_with("bench."))
        .map(|(_, us)| us)
        .sum();
    run.check(
        "trace.stage_sum_within_wall",
        staged <= wall_us,
        format!("stage self times {staged} us, walk wall {wall_us} us"),
    );
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            remote_parent: None,
            name: name.to_owned(),
            tid: 1,
            start_us: 0,
            dur_us,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let records = [
            span(1, None, "bench.row", 100),
            span(2, Some(1), "bench.nn.synth", 30),
            span(3, Some(1), "bench.nn.synth", 20),
            span(4, Some(3), "inner", 5),
        ];
        let own = self_times(&records);
        assert_eq!(own["bench.row"], 50);
        assert_eq!(own["bench.nn.synth"], 45);
        assert_eq!(own["inner"], 5);
        assert_eq!(own.values().sum::<u64>(), 100);
    }
}
