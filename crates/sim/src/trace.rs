//! CSV export of simulation results, for external analysis/plotting.

use std::fmt::Write as _;

use crate::perf::NetworkResult;

/// Quotes one CSV field per RFC 4180: fields containing a comma, a double
/// quote, or a line break are wrapped in double quotes with embedded quotes
/// doubled. Layer names come from network definitions (user-supplied in
/// custom zoos), so they must not be able to smuggle extra columns or rows
/// into the export.
fn csv_field(raw: &str) -> String {
    if raw.contains(['"', ',', '\n', '\r']) {
        let mut quoted = String::with_capacity(raw.len() + 2);
        quoted.push('"');
        for ch in raw.chars() {
            if ch == '"' {
                quoted.push('"');
            }
            quoted.push(ch);
        }
        quoted.push('"');
        quoted
    } else {
        raw.to_string()
    }
}

/// Renders a [`NetworkResult`]'s per-layer rows as CSV (with header).
pub fn network_csv(result: &NetworkResult) -> String {
    let mut out = String::from(
        "layer,macs,slice_pairs,compute_cycles,memory_cycles,cycles,mac_ops,\
         sram_accesses,dram_bits,skip_side,work_fraction,input_compression_ratio\n",
    );
    for l in &result.layers {
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{:?},{:.4},{:.3}",
            csv_field(&l.name),
            l.macs,
            l.slice_pairs,
            l.compute_cycles,
            l.memory_cycles,
            l.cycles,
            l.events.mac_ops,
            l.events.sram_accesses,
            l.events.dram_bits,
            l.skip_side,
            l.work_fraction,
            l.input_compression_ratio,
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::Simulator;
    use crate::spec::ArchSpec;
    use sibia_nn::zoo;

    #[test]
    fn network_csv_has_one_row_per_layer() {
        let mut sim = Simulator::new(1);
        sim.sample_cap = 2048;
        let net = zoo::alexnet();
        let r = sim.simulate_network(&ArchSpec::sibia_hybrid(), &net);
        let csv = network_csv(&r);
        assert_eq!(csv.lines().count(), net.layers().len() + 1);
        assert!(csv.starts_with("layer,macs"));
        assert!(csv.contains("conv1,"));
    }

    #[test]
    fn hostile_layer_names_cannot_inject_csv_columns() {
        use sibia_nn::network::{DensityClass, TaskDomain};
        use sibia_nn::{Activation, Layer, Network};
        let evil = "conv,9999,\"x\"\ninjected";
        let net = Network::new(
            "evil-net",
            TaskDomain::Vision2d,
            DensityClass::Dense,
            vec![Layer::conv2d(evil, 8, 8, 3, 1, 1, 8)
                .with_activation(Activation::Relu)
                .with_input_sparsity(0.4)],
        );
        let mut sim = Simulator::new(1);
        sim.sample_cap = 1024;
        let r = sim.simulate_network(&ArchSpec::sibia_hybrid(), &net);
        let csv = network_csv(&r);
        // Still exactly header + one row: the embedded newline is quoted,
        // so a naive line count sees the quoted break, but every *record*
        // keeps 12 fields once quotes are honoured.
        assert!(csv.contains("\"conv,9999,\"\"x\"\"\ninjected\""));
        let header_fields = csv.lines().next().unwrap().split(',').count();
        assert_eq!(header_fields, 12);
        // A hostile name must not be emitted raw (which would add fields).
        assert!(!csv.contains("\nconv,9999,"));
        // The quoted field parses back to the original name under RFC 4180.
        assert_eq!(csv_field(evil), "\"conv,9999,\"\"x\"\"\ninjected\"");
        assert_eq!(csv_field("plain"), "plain");
    }
}
