//! Pseudo-random binary sequences via Fibonacci LFSRs.
//!
//! The 8VSB-like TV synthesis needs a wideband deterministic data signal; a
//! maximal-length LFSR produces a flat-spectrum bit stream reproducibly,
//! with no dependence on the workspace RNG.

/// A Fibonacci linear-feedback shift register (right-shift form).
///
/// Each step outputs bit 0, shifts right, and inserts the parity of
/// `state & taps` at the top. Tap masks below were verified maximal for
/// this convention by exhaustive period search.
#[derive(Debug, Clone)]
pub struct Lfsr {
    state: u64,
    taps: u64,
    width: u32,
}

impl Lfsr {
    /// PRBS-23: x²³ + x¹⁸ + 1. Period 8388607.
    pub fn prbs23() -> Self {
        Self::new(23, 0x21, 0x7F_FFFF).expect("valid taps")
    }

    /// Create an LFSR of `width` bits with an explicit tap mask and non-zero
    /// seed.
    ///
    /// Returns `None` for zero width (or > 63), a zero/out-of-range tap
    /// mask, or a zero seed (which would lock the register at all-zeros).
    pub fn new(width: u32, taps: u64, seed: u64) -> Option<Self> {
        if width == 0 || width > 63 || taps == 0 || seed == 0 {
            return None;
        }
        let mask = (1u64 << width) - 1;
        if taps & !mask != 0 || seed & mask == 0 {
            return None;
        }
        Some(Self {
            state: seed & mask,
            taps,
            width,
        })
    }

    /// Advance one step and return the output bit.
    pub fn next_bit(&mut self) -> bool {
        let fb = (self.state & self.taps).count_ones() & 1;
        let out = self.state & 1 == 1;
        self.state >>= 1;
        self.state |= (fb as u64) << (self.width - 1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// PRBS-9: x⁹ + x⁵ + 1 (ITU-T O.150), period 511.
    fn prbs9() -> Lfsr {
        Lfsr::new(9, 0x11, 0x1FF).unwrap()
    }

    /// PRBS-15: x¹⁵ + x¹⁴ + 1, period 32767.
    fn prbs15() -> Lfsr {
        Lfsr::new(15, 0x3, 0x7FFF).unwrap()
    }

    /// The next `n` output bits of `l`.
    fn bits(l: &mut Lfsr, n: usize) -> Vec<bool> {
        (0..n).map(|_| l.next_bit()).collect()
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(Lfsr::new(9, 0, 1).is_none(), "zero taps");
        assert!(Lfsr::new(9, 0x11, 0).is_none(), "zero seed");
        assert!(Lfsr::new(0, 0x11, 1).is_none(), "zero width");
        assert!(Lfsr::new(4, 0x100, 1).is_none(), "taps outside width");
    }

    #[test]
    fn prbs9_has_full_period() {
        let mut l = prbs9();
        let mut seen = HashSet::new();
        for _ in 0..511 {
            assert!(seen.insert(l.state), "state repeated early");
            l.next_bit();
        }
        // After a full period the state returns to the seed.
        assert!(seen.contains(&l.state));
    }

    #[test]
    fn prbs9_balanced_ones_zeros() {
        let mut l = prbs9();
        let ones = bits(&mut l, 511).iter().filter(|&&b| b).count();
        // A maximal-length sequence of order 9 has 256 ones, 255 zeros.
        assert_eq!(ones, 256);
    }

    #[test]
    fn prbs15_period_is_maximal() {
        let mut l = prbs15();
        let start = l.state;
        let mut period = 0u64;
        loop {
            l.next_bit();
            period += 1;
            if l.state == start {
                break;
            }
            assert!(period <= 40_000, "period exceeded bound");
        }
        assert_eq!(period, 32_767);
    }

    #[test]
    fn deterministic_between_instances() {
        let a = bits(&mut Lfsr::prbs23(), 64);
        let b = bits(&mut Lfsr::prbs23(), 64);
        assert_eq!(a, b);
    }

    #[test]
    fn spectrum_is_wideband() {
        // The bipolar symbol stream the TV synthesis draws from PRBS-23
        // spreads its energy across bins, unlike a tone.
        use crate::fft::power_spectrum;
        use crate::Cplx;
        let mut l = Lfsr::prbs23();
        let sig: Vec<Cplx> = bits(&mut l, 1024)
            .into_iter()
            .map(|b| Cplx::new(if b { 1.0 } else { -1.0 }, 0.0))
            .collect();
        let ps = power_spectrum(&sig).unwrap();
        let total: f64 = ps.iter().sum();
        let max = ps.iter().cloned().fold(0.0, f64::max);
        assert!(
            max / total < 0.05,
            "energy too concentrated: {}",
            max / total
        );
    }
}
