//! External-memory model: Cypress HyperRAM (paper §III-B).
//!
//! The paper attaches a HyperRAM self-refresh DRAM through a dedicated
//! interface; only its bandwidth, access latency and per-bit energy enter
//! the evaluation (Fig. 14's 19.7 % DRAM energy share and the transfer-time
//! component of layer latency).

use std::fmt;

/// HyperRAM interface model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HyperRam {
    /// Interface clock in MHz (DDR).
    pub bus_mhz: u32,
    /// Bus width in bits.
    pub bus_bits: u32,
    /// Initial access latency in bus clocks.
    pub access_latency_clocks: u32,
}

impl HyperRam {
    /// The 166 MHz ×8 DDR part the paper cites (≈333 MB/s peak).
    pub const fn cypress_64mbit() -> Self {
        Self {
            bus_mhz: 166,
            bus_bits: 8,
            access_latency_clocks: 7,
        }
    }

    /// Peak bandwidth in bytes per second (DDR: two transfers per clock).
    pub fn bandwidth_bytes_per_s(&self) -> f64 {
        self.bus_mhz as f64 * 1e6 * 2.0 * self.bus_bits as f64 / 8.0
    }

    /// Time to move one burst of `bytes`, in seconds.
    pub fn transfer_time_s(&self, bytes: u64) -> f64 {
        let latency = self.access_latency_clocks as f64 / (self.bus_mhz as f64 * 1e6);
        latency + bytes as f64 / self.bandwidth_bytes_per_s()
    }

    /// Core cycles (at `core_mhz`) to move `bytes` as a stream of
    /// `burst_bytes` bursts.
    ///
    /// # Panics
    ///
    /// Panics if `burst_bytes` is zero.
    pub fn transfer_cycles(&self, bytes: u64, burst_bytes: u64, core_mhz: u32) -> u64 {
        assert!(burst_bytes > 0, "burst size must be positive");
        let bursts = bytes.div_ceil(burst_bytes);
        let time_s = bursts as f64 * self.transfer_time_s(burst_bytes.min(bytes.max(1)));
        (time_s * core_mhz as f64 * 1e6).ceil() as u64
    }
}

impl Default for HyperRam {
    fn default() -> Self {
        Self::cypress_64mbit()
    }
}

impl fmt::Display for HyperRam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HyperRAM {} MHz ×{} ({:.0} MB/s)",
            self.bus_mhz,
            self.bus_bits,
            self.bandwidth_bytes_per_s() / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_bandwidth_is_333_mb_s() {
        let m = HyperRam::cypress_64mbit();
        assert!((m.bandwidth_bytes_per_s() / 1e6 - 332.0).abs() < 5.0);
    }

    #[test]
    fn transfer_time_includes_latency() {
        let m = HyperRam::cypress_64mbit();
        let t1 = m.transfer_time_s(0);
        assert!(t1 > 0.0);
        let t2 = m.transfer_time_s(332); // ~1 µs of payload
        assert!(t2 > t1);
    }

    #[test]
    fn cycles_scale_with_size() {
        let m = HyperRam::cypress_64mbit();
        let small = m.transfer_cycles(1024, 1024, 250);
        let big = m.transfer_cycles(1024 * 1024, 1024, 250);
        assert!(big > small * 500);
    }

    #[test]
    #[should_panic(expected = "burst size")]
    fn zero_burst_rejected() {
        let _ = HyperRam::default().transfer_cycles(10, 0, 250);
    }
}
