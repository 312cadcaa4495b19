//! LTE band plan and EARFCN arithmetic (3GPP TS 36.101 §5.7.3).
//!
//! The paper's five towers use downlink carriers at 731, 1970, 2145, 2660
//! and 2680 MHz — bands 12, 2, 4 (or 66) and 7 in the North American plan.
//! "Mobile networks in North America can operate from as low as 617 MHz all
//! the way to 4499 MHz."

use serde::{Deserialize, Serialize};

/// An LTE operating band with its downlink frequency plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Band {
    /// 1930–1990 MHz DL (PCS).
    B2,
    /// 2110–2155 MHz DL (AWS-1).
    B4,
    /// 869–894 MHz DL (Cellular 850).
    B5,
    /// 2620–2690 MHz DL (IMT-E 2600).
    B7,
    /// 729–746 MHz DL (Lower SMH 700).
    B12,
    /// 746–756 MHz DL (Upper SMH C).
    B13,
    /// 2110–2200 MHz DL (AWS-3).
    B66,
    /// 617–652 MHz DL (600 MHz).
    B71,
}

impl Band {
    /// All modeled bands.
    pub const ALL: [Band; 8] = [
        Band::B2,
        Band::B4,
        Band::B5,
        Band::B7,
        Band::B12,
        Band::B13,
        Band::B66,
        Band::B71,
    ];

    /// (F_DL_low in MHz, N_Offs-DL, DL EARFCN range) per TS 36.101
    /// Table 5.7.3-1.
    fn plan(&self) -> (f64, u32, core::ops::RangeInclusive<u32>) {
        match self {
            Band::B2 => (1930.0, 600, 600..=1199),
            Band::B4 => (2110.0, 1950, 1950..=2399),
            Band::B5 => (869.0, 2400, 2400..=2649),
            Band::B7 => (2620.0, 2750, 2750..=3449),
            Band::B12 => (729.0, 5010, 5010..=5179),
            Band::B13 => (746.0, 5180, 5180..=5279),
            Band::B66 => (2110.0, 66436, 66436..=67335),
            Band::B71 => (617.0, 68586, 68586..=68935),
        }
    }

    /// Downlink carrier frequency (Hz) for a DL EARFCN in this band.
    ///
    /// `F_DL = F_DL_low + 0.1 MHz × (N_DL − N_Offs-DL)`; `None` if the
    /// EARFCN is outside the band's range.
    pub fn dl_freq_hz(&self, earfcn: u32) -> Option<f64> {
        let (f_low_mhz, n_offs, range) = self.plan();
        if !range.contains(&earfcn) {
            return None;
        }
        Some((f_low_mhz + 0.1 * (earfcn - n_offs) as f64) * 1e6)
    }

    /// The DL EARFCN in this band for a carrier frequency (Hz), if the
    /// frequency lies on the band's 100 kHz raster.
    pub fn earfcn_for_freq(&self, freq_hz: f64) -> Option<u32> {
        let (f_low_mhz, n_offs, range) = self.plan();
        let steps = (freq_hz / 1e6 - f_low_mhz) / 0.1;
        let n = steps.round();
        if (steps - n).abs() > 1e-6 || n < 0.0 {
            return None;
        }
        let earfcn = n_offs + n as u32;
        range.contains(&earfcn).then_some(earfcn)
    }

    /// Band containing the given DL EARFCN, if any.
    pub fn from_earfcn(earfcn: u32) -> Option<Band> {
        Band::ALL.into_iter().find(|b| b.plan().2.contains(&earfcn))
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Band::B2 => "B2 (PCS 1900)",
            Band::B4 => "B4 (AWS-1)",
            Band::B5 => "B5 (850)",
            Band::B7 => "B7 (2600)",
            Band::B12 => "B12 (700 a/b/c)",
            Band::B13 => "B13 (700 c)",
            Band::B66 => "B66 (AWS-3)",
            Band::B71 => "B71 (600)",
        }
    }
}

/// Downlink frequency for an EARFCN, searching all modeled bands.
pub fn earfcn_to_dl_freq_hz(earfcn: u32) -> Option<f64> {
    Band::from_earfcn(earfcn).and_then(|b| b.dl_freq_hz(earfcn))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_edges() {
        assert_eq!(Band::B2.dl_freq_hz(600), Some(1930.0e6));
        assert_eq!(Band::B12.dl_freq_hz(5010), Some(729.0e6));
        assert_eq!(Band::B71.dl_freq_hz(68586), Some(617.0e6));
    }

    #[test]
    fn paper_tower_frequencies_have_earfcns() {
        // 731 MHz → B12 EARFCN 5030; 1970 → B2 1000; 2145 → B4 2300;
        // 2660 → B7 3150; 2680 → B7 3350.
        assert_eq!(Band::B12.earfcn_for_freq(731e6), Some(5030));
        assert_eq!(Band::B2.earfcn_for_freq(1970e6), Some(1000));
        assert_eq!(Band::B4.earfcn_for_freq(2145e6), Some(2300));
        assert_eq!(Band::B7.earfcn_for_freq(2660e6), Some(3150));
        assert_eq!(Band::B7.earfcn_for_freq(2680e6), Some(3350));
    }

    #[test]
    fn round_trip_all_bands() {
        for b in Band::ALL {
            let (_, n_offs, range) = (b.plan().0, b.plan().1, b.plan().2);
            let _ = n_offs;
            for earfcn in [
                *range.start(),
                (*range.start() + *range.end()) / 2,
                *range.end(),
            ] {
                let f = b.dl_freq_hz(earfcn).unwrap();
                assert_eq!(b.earfcn_for_freq(f), Some(earfcn), "{b:?} {earfcn}");
                assert_eq!(Band::from_earfcn(earfcn), Some(b));
            }
        }
    }

    #[test]
    fn out_of_range_rejected() {
        assert_eq!(Band::B2.dl_freq_hz(599), None);
        assert_eq!(Band::B2.dl_freq_hz(1200), None);
        assert_eq!(Band::B2.earfcn_for_freq(2800e6), None);
        // Off-raster frequency.
        assert_eq!(Band::B2.earfcn_for_freq(1930.05e6), None);
    }

    #[test]
    fn global_lookup() {
        assert_eq!(earfcn_to_dl_freq_hz(5030), Some(731e6));
        assert_eq!(earfcn_to_dl_freq_hz(9_999_999), None);
    }

    #[test]
    fn b4_b66_overlap_resolves_to_first_match() {
        // 2110–2155 MHz is valid in both B4 and B66; EARFCN spaces are
        // disjoint though, so lookups are unambiguous.
        assert_eq!(Band::from_earfcn(2000), Some(Band::B4));
        assert_eq!(Band::from_earfcn(66500), Some(Band::B66));
    }
}
