//! Thermal noise and SNR.
//!
//! The receiver's noise floor is what converts "attenuated" into "missing
//! bar": a signal below the demodulator's required SNR produces no
//! measurement at all (srsUE fails to synchronize; dump1090 fails CRC).

/// Boltzmann's constant times the standard temperature (290 K), expressed
/// as noise power density: −174 dBm/Hz.
pub const THERMAL_NOISE_DBM_PER_HZ: f64 = -173.975;

/// Thermal noise floor in dBm for a bandwidth in Hz and receiver noise
/// figure in dB.
pub fn noise_floor_dbm(bandwidth_hz: f64, noise_figure_db: f64) -> f64 {
    THERMAL_NOISE_DBM_PER_HZ + 10.0 * bandwidth_hz.max(1.0).log10() + noise_figure_db.max(0.0)
}

/// Signal-to-noise ratio in dB from a received power and noise floor.
pub fn snr_db(rx_power_dbm: f64, noise_floor_dbm: f64) -> f64 {
    rx_power_dbm - noise_floor_dbm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adsb_noise_floor() {
        // 2 MHz bandwidth, 7 dB NF: −174 + 63 + 7 ≈ −104 dBm.
        let nf = noise_floor_dbm(2e6, 7.0);
        assert!((nf - (-104.0)).abs() < 0.5, "got {nf}");
    }

    #[test]
    fn lte_resource_block_floor() {
        // 180 kHz RB, 7 dB NF ≈ −114.4 dBm — the usual LTE RSRP reference.
        let nf = noise_floor_dbm(180e3, 7.0);
        assert!((nf - (-114.4)).abs() < 0.5, "got {nf}");
    }

    #[test]
    fn snr_is_a_difference() {
        assert_eq!(snr_db(-80.0, -104.0), 24.0);
        assert_eq!(snr_db(-110.0, -104.0), -6.0);
    }

    #[test]
    fn degenerate_bandwidth_clamped() {
        assert!(noise_floor_dbm(0.0, 5.0).is_finite());
        assert!(noise_floor_dbm(-10.0, 5.0).is_finite());
    }
}
