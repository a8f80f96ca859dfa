//! Canonical JSON serialization of simulation results — and its inverse.
//!
//! [`write_network_result`] and [`write_grid`] are the definition of the
//! result format: they append the canonical text straight from the typed
//! result, through `sibia_obs::json`'s scalar writers (the escaped string,
//! the `i64`, the shortest `f64` with non-finite written as `null`), so
//! every scalar has the one formatting [`Json::write_to`] also uses. The
//! serve daemon writes its `simulate`, `sweep` and `lookup` answers with
//! them, and the persistent store's records hold the same text. They are
//! pure functions of the result: the byte-identity guarantee of both the
//! protocol and the store rests on that.
//!
//! [`network_result_to_json`] and [`grid_to_json`] are the same text
//! parsed into a [`Json`] tree, for callers that need a tree (the store's
//! index, the fleet's merge). A parsed tree spells an integral float as
//! [`Json::Int`], so compare serialized bytes, not trees.
//!
//! The round trip is exact in both directions:
//!
//! * [`network_result_from_json`] `∘` [`network_result_to_json`] rebuilds
//!   an equal [`NetworkResult`] (derived scalars like `total_cycles` are
//!   serialized for human consumers but recomputed, not trusted, on read;
//!   numbers are read as either spelling);
//! * [`write_network_result`] `∘` [`network_result_from_json`] reproduces
//!   the exact serialized bytes, because the JSON layer's canonical float
//!   formatting makes `parse → serialize` the identity on canonical text.
//!   This is what lets a warm store hit serve byte-identical responses.

use sibia_arch::dsm::SkipSide;
use sibia_arch::energy::{EnergyBreakdown, EventCounts};
use sibia_obs::json::{write_f64, write_i64, write_str};
use sibia_obs::Json;

use crate::parallel::GridResult;
use crate::perf::{LayerResult, NetworkResult};

/// Text reserved per layer before writing a result: a layer object is
/// about 360 bytes, so a result's text is written without regrowing.
const LAYER_BYTES: usize = 384;

/// Appends a count, which the format spells as an `i64`.
///
/// # Panics
///
/// Panics if `n` exceeds `i64::MAX` (no simulated count does).
fn write_count(n: u64, out: &mut String) {
    write_i64(i64::try_from(n).expect("count fits i64"), out);
}

/// Appends the canonical serialization of one simulated network result.
pub fn write_network_result(r: &NetworkResult, out: &mut String) {
    out.reserve(LAYER_BYTES * (r.layers.len() + 1));
    out.push_str("{\"arch\":");
    write_str(&r.arch, out);
    out.push_str(",\"network\":");
    write_str(&r.network, out);
    out.push_str(",\"frequency_mhz\":");
    write_i64(i64::from(r.frequency_mhz), out);
    out.push_str(",\"total_cycles\":");
    write_count(r.total_cycles(), out);
    out.push_str(",\"total_macs\":");
    write_count(r.total_macs(), out);
    out.push_str(",\"time_s\":");
    write_f64(r.time_s(), out);
    out.push_str(",\"throughput_gops\":");
    write_f64(r.throughput_gops(), out);
    out.push_str(",\"efficiency_tops_w\":");
    write_f64(r.efficiency_tops_w(), out);
    let e = &r.energy;
    out.push_str(",\"energy\":{\"mac_pj\":");
    write_f64(e.mac_pj, out);
    out.push_str(",\"rf_pj\":");
    write_f64(e.rf_pj, out);
    out.push_str(",\"sram_pj\":");
    write_f64(e.sram_pj, out);
    out.push_str(",\"noc_pj\":");
    write_f64(e.noc_pj, out);
    out.push_str(",\"dram_pj\":");
    write_f64(e.dram_pj, out);
    out.push_str(",\"control_pj\":");
    write_f64(e.control_pj, out);
    out.push_str("},\"layers\":[");
    for (i, layer) in r.layers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_layer_result(layer, out);
    }
    out.push_str("]}");
}

fn write_layer_result(l: &LayerResult, out: &mut String) {
    out.push_str("{\"name\":");
    write_str(&l.name, out);
    out.push_str(",\"macs\":");
    write_count(l.macs, out);
    out.push_str(",\"slice_pairs\":");
    write_count(l.slice_pairs as u64, out);
    out.push_str(",\"compute_cycles\":");
    write_count(l.compute_cycles, out);
    out.push_str(",\"memory_cycles\":");
    write_count(l.memory_cycles, out);
    out.push_str(",\"cycles\":");
    write_count(l.cycles, out);
    out.push_str(match l.skip_side {
        SkipSide::Input => ",\"skip_side\":\"input\"",
        SkipSide::Weight => ",\"skip_side\":\"weight\"",
        SkipSide::None => ",\"skip_side\":\"none\"",
    });
    out.push_str(",\"input_compression_ratio\":");
    write_f64(l.input_compression_ratio, out);
    out.push_str(",\"work_fraction\":");
    write_f64(l.work_fraction, out);
    let ev = &l.events;
    out.push_str(",\"events\":{\"mac_ops\":");
    write_count(ev.mac_ops, out);
    out.push_str(",\"rf_accesses\":");
    write_count(ev.rf_accesses, out);
    out.push_str(",\"sram_accesses\":");
    write_count(ev.sram_accesses, out);
    out.push_str(",\"noc_flit_hops\":");
    write_count(ev.noc_flit_hops, out);
    out.push_str(",\"dram_bits\":");
    write_count(ev.dram_bits, out);
    out.push_str(",\"cycles\":");
    write_count(ev.cycles, out);
    out.push_str("}}");
}

/// Appends the canonical serialization of a sweep grid, cells in the
/// engine's row-major (arch, network, seed) order.
pub fn write_grid(grid: &GridResult, out: &mut String) {
    out.push_str("{\"cells\":[");
    for (i, c) in grid.cells().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"arch_index\":");
        write_count(c.arch_index as u64, out);
        out.push_str(",\"network_index\":");
        write_count(c.network_index as u64, out);
        out.push_str(",\"seed\":");
        write_count(c.seed, out);
        out.push_str(",\"result\":");
        write_network_result(&c.result, out);
        out.push('}');
    }
    out.push_str("]}");
}

/// Parses `text`, which a writer of this module produced.
fn parse_written(text: &str) -> Json {
    Json::parse(text).expect("the result writers emit valid JSON")
}

/// [`write_network_result`]'s text as a [`Json`] tree.
pub fn network_result_to_json(r: &NetworkResult) -> Json {
    let mut text = String::new();
    write_network_result(r, &mut text);
    parse_written(&text)
}

/// [`write_grid`]'s text as a [`Json`] tree.
pub fn grid_to_json(grid: &GridResult) -> Json {
    let mut text = String::new();
    write_grid(grid, &mut text);
    parse_written(&text)
}

/// Parses [`write_network_result`] output back into a [`NetworkResult`].
///
/// `None` on any missing or mistyped field — a store record that fails here
/// is treated as foreign and recomputed, never half-trusted. Derived fields
/// (`total_cycles`, `time_s`, …) are intentionally ignored: they are
/// recomputed from the per-layer data, so a tampered summary cannot
/// disagree with its layers.
pub fn network_result_from_json(v: &Json) -> Option<NetworkResult> {
    let layers = v
        .get("layers")?
        .as_array()?
        .iter()
        .map(layer_result_from_json)
        .collect::<Option<Vec<_>>>()?;
    let e = v.get("energy")?;
    Some(NetworkResult {
        arch: v.get("arch")?.as_str()?.to_owned(),
        network: v.get("network")?.as_str()?.to_owned(),
        frequency_mhz: u32::try_from(v.get("frequency_mhz")?.as_u64()?).ok()?,
        layers,
        energy: EnergyBreakdown {
            mac_pj: e.get("mac_pj")?.as_f64()?,
            rf_pj: e.get("rf_pj")?.as_f64()?,
            sram_pj: e.get("sram_pj")?.as_f64()?,
            noc_pj: e.get("noc_pj")?.as_f64()?,
            dram_pj: e.get("dram_pj")?.as_f64()?,
            control_pj: e.get("control_pj")?.as_f64()?,
        },
    })
}

fn layer_result_from_json(v: &Json) -> Option<LayerResult> {
    let ev = v.get("events")?;
    Some(LayerResult {
        name: v.get("name")?.as_str()?.to_owned(),
        macs: v.get("macs")?.as_u64()?,
        slice_pairs: v.get("slice_pairs")?.as_u64()? as usize,
        compute_cycles: v.get("compute_cycles")?.as_u64()?,
        memory_cycles: v.get("memory_cycles")?.as_u64()?,
        cycles: v.get("cycles")?.as_u64()?,
        events: EventCounts {
            mac_ops: ev.get("mac_ops")?.as_u64()?,
            rf_accesses: ev.get("rf_accesses")?.as_u64()?,
            sram_accesses: ev.get("sram_accesses")?.as_u64()?,
            noc_flit_hops: ev.get("noc_flit_hops")?.as_u64()?,
            dram_bits: ev.get("dram_bits")?.as_u64()?,
            cycles: ev.get("cycles")?.as_u64()?,
        },
        skip_side: match v.get("skip_side")?.as_str()? {
            "input" => SkipSide::Input,
            "weight" => SkipSide::Weight,
            "none" => SkipSide::None,
            _ => return None,
        },
        input_compression_ratio: v.get("input_compression_ratio")?.as_f64()?,
        work_fraction: v.get("work_fraction")?.as_f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{GridRequest, ParallelEngine};
    use crate::perf::Simulator;
    use crate::spec::ArchSpec;
    use sibia_nn::network::{DensityClass, TaskDomain};
    use sibia_nn::{zoo, Activation, Layer, Network};

    /// The tree builders the writers replaced, kept verbatim as the
    /// reference the writers' bytes are compared against.
    mod reference {
        use super::super::{GridResult, LayerResult, NetworkResult, SkipSide};
        use sibia_obs::Json;

        pub fn network_result_to_json(r: &NetworkResult) -> Json {
            Json::obj(vec![
                ("arch", Json::from(r.arch.as_str())),
                ("network", Json::from(r.network.as_str())),
                ("frequency_mhz", Json::from(u64::from(r.frequency_mhz))),
                ("total_cycles", Json::from(r.total_cycles())),
                ("total_macs", Json::from(r.total_macs())),
                ("time_s", Json::from(r.time_s())),
                ("throughput_gops", Json::from(r.throughput_gops())),
                ("efficiency_tops_w", Json::from(r.efficiency_tops_w())),
                (
                    "energy",
                    Json::obj(vec![
                        ("mac_pj", Json::from(r.energy.mac_pj)),
                        ("rf_pj", Json::from(r.energy.rf_pj)),
                        ("sram_pj", Json::from(r.energy.sram_pj)),
                        ("noc_pj", Json::from(r.energy.noc_pj)),
                        ("dram_pj", Json::from(r.energy.dram_pj)),
                        ("control_pj", Json::from(r.energy.control_pj)),
                    ]),
                ),
                (
                    "layers",
                    Json::Array(r.layers.iter().map(layer_result_to_json).collect()),
                ),
            ])
        }

        fn layer_result_to_json(l: &LayerResult) -> Json {
            Json::obj(vec![
                ("name", Json::from(l.name.as_str())),
                ("macs", Json::from(l.macs)),
                ("slice_pairs", Json::from(l.slice_pairs)),
                ("compute_cycles", Json::from(l.compute_cycles)),
                ("memory_cycles", Json::from(l.memory_cycles)),
                ("cycles", Json::from(l.cycles)),
                (
                    "skip_side",
                    Json::from(match l.skip_side {
                        SkipSide::Input => "input",
                        SkipSide::Weight => "weight",
                        SkipSide::None => "none",
                    }),
                ),
                (
                    "input_compression_ratio",
                    Json::from(l.input_compression_ratio),
                ),
                ("work_fraction", Json::from(l.work_fraction)),
                (
                    "events",
                    Json::obj(vec![
                        ("mac_ops", Json::from(l.events.mac_ops)),
                        ("rf_accesses", Json::from(l.events.rf_accesses)),
                        ("sram_accesses", Json::from(l.events.sram_accesses)),
                        ("noc_flit_hops", Json::from(l.events.noc_flit_hops)),
                        ("dram_bits", Json::from(l.events.dram_bits)),
                        ("cycles", Json::from(l.events.cycles)),
                    ]),
                ),
            ])
        }

        pub fn grid_to_json(grid: &GridResult) -> Json {
            Json::obj(vec![("cells", {
                Json::Array(
                    grid.cells()
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("arch_index", Json::from(c.arch_index)),
                                ("network_index", Json::from(c.network_index)),
                                ("seed", Json::from(c.seed)),
                                ("result", network_result_to_json(&c.result)),
                            ])
                        })
                        .collect(),
                )
            })])
        }
    }

    fn written(r: &NetworkResult) -> String {
        let mut text = String::new();
        write_network_result(r, &mut text);
        text
    }

    fn result() -> NetworkResult {
        let net = Network::new(
            "jsonio-net",
            TaskDomain::Vision2d,
            DensityClass::Dense,
            vec![Layer::conv2d("c1", 8, 8, 3, 1, 1, 8)
                .with_activation(Activation::Relu)
                .with_input_sparsity(0.4)],
        );
        Simulator::new(5).simulate_network(&ArchSpec::sibia_hybrid(), &net)
    }

    #[test]
    fn value_round_trip_is_exact() {
        let r = result();
        let back = network_result_from_json(&network_result_to_json(&r)).expect("round trip");
        assert_eq!(back, r);
    }

    #[test]
    fn byte_round_trip_is_exact() {
        // write → parse → deserialize → write must be the identity on
        // bytes: this is the warm-restart byte-identity lemma. It holds for
        // `-0.0` too, which is written `0`: written `-0`, it would parse
        // back as an integer 0 and re-serialize as `0`, so a cold result
        // and its store hit would differ by a byte.
        let mut negative_zero = result();
        negative_zero.energy.rf_pj = -0.0;
        negative_zero.layers[0].work_fraction = -0.0;
        for r in [result(), negative_zero] {
            let first = written(&r);
            let back = network_result_from_json(&Json::parse(&first).unwrap()).expect("round trip");
            assert_eq!(written(&back), first);
            assert_eq!(network_result_to_json(&back).to_string(), first);
        }
    }

    #[test]
    fn writers_match_the_tree_builders_on_every_zoo_network_and_fig_arch() {
        let archs = [
            ArchSpec::bit_fusion(),
            ArchSpec::hnpu(),
            ArchSpec::sibia_no_sbr(),
            ArchSpec::sibia_input_skip(),
            ArchSpec::sibia_hybrid(),
        ];
        let nets: Vec<Network> = zoo::NETWORK_NAMES
            .iter()
            .map(|n| zoo::by_name(n).expect("zoo name"))
            .collect();
        let mut sim = Simulator::new(3);
        sim.sample_cap = 256;
        let grid = ParallelEngine::new().run(GridRequest::new(sim, &archs, &nets, &[3]));
        for cell in grid.cells() {
            let text = written(&cell.result);
            assert_eq!(
                text,
                reference::network_result_to_json(&cell.result).to_string(),
                "{} on {}",
                cell.result.network,
                cell.result.arch
            );
            assert_eq!(network_result_to_json(&cell.result).to_string(), text);
        }
        let mut text = String::new();
        write_grid(&grid, &mut text);
        assert_eq!(text, reference::grid_to_json(&grid).to_string());
        assert_eq!(grid_to_json(&grid).to_string(), text);
    }

    #[test]
    fn writer_matches_the_tree_builder_on_edge_values() {
        let mut r = result();
        r.arch = "quote\" backslash\\ bell\u{7} tab\t".to_owned();
        r.network = "ключ ✓ 😀 é".to_owned();
        r.energy.mac_pj = 1.0;
        r.energy.rf_pj = -0.0;
        r.energy.sram_pj = 5e-324;
        r.energy.noc_pj = 1e300;
        r.energy.dram_pj = f64::MAX;
        r.energy.control_pj = 0.1;
        let mut layer = r.layers[0].clone();
        layer.name = "\u{0}\u{1f}\"\\/\n".to_owned();
        layer.macs = 1 << 62;
        layer.input_compression_ratio = f64::NAN;
        layer.work_fraction = f64::NEG_INFINITY;
        layer.skip_side = SkipSide::None;
        r.layers.push(layer);
        let text = written(&r);
        assert_eq!(text, reference::network_result_to_json(&r).to_string());
        assert!(
            text.contains("\"input_compression_ratio\":null,\"work_fraction\":null,"),
            "{text}"
        );
        assert!(text.contains("\"rf_pj\":0,"), "{text}");
    }

    #[test]
    #[should_panic(expected = "count fits i64")]
    fn a_count_past_i64_panics_like_the_tree_builder() {
        let mut r = result();
        r.layers[0].events.dram_bits = u64::MAX;
        written(&r);
    }

    #[test]
    fn malformed_documents_yield_none_not_panics() {
        for bad in [
            Json::Null,
            Json::obj(vec![]),
            Json::obj(vec![("arch", Json::from("x"))]),
            Json::parse(r#"{"arch":"a","network":"n","frequency_mhz":-1,"layers":[],"energy":{}}"#)
                .unwrap(),
        ] {
            assert_eq!(network_result_from_json(&bad), None, "{bad}");
        }
        // A single bad layer poisons the whole document.
        let mut good = network_result_to_json(&result());
        if let Json::Object(members) = &mut good {
            for (k, v) in members.iter_mut() {
                if k == "layers" {
                    *v = Json::Array(vec![Json::obj(vec![("name", Json::from("broken"))])]);
                }
            }
        }
        assert_eq!(network_result_from_json(&good), None);
    }
}
