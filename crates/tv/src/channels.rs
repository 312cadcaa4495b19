//! The North American ATSC RF channel plan (post-repack, channels 2–36).

use serde::{Deserialize, Serialize};

/// One RF channel in the broadcast TV plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AtscChannel(u8);

impl AtscChannel {
    /// Construct from an RF channel number (2–36 after the repack).
    pub fn new(number: u8) -> Option<Self> {
        (2..=36).contains(&number).then_some(Self(number))
    }

    /// The RF channel number.
    pub fn number(&self) -> u8 {
        self.0
    }

    /// Lower band edge, Hz.
    pub fn lower_edge_hz(&self) -> f64 {
        let n = self.0 as f64;
        1e6 * match self.0 {
            2..=4 => 54.0 + (n - 2.0) * 6.0,
            5..=6 => 76.0 + (n - 5.0) * 6.0,
            7..=13 => 174.0 + (n - 7.0) * 6.0,
            _ => 470.0 + (n - 14.0) * 6.0,
        }
    }

    /// Channel center frequency, Hz.
    pub fn center_hz(&self) -> f64 {
        self.lower_edge_hz() + 3e6
    }

    /// The channel containing a frequency, if any.
    pub fn containing(freq_hz: f64) -> Option<Self> {
        (2..=36)
            .filter_map(Self::new)
            .find(|c| freq_hz >= c.lower_edge_hz() && freq_hz < c.lower_edge_hz() + 6e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's six measured RF channels are centred at 213, 473,
    /// 521, 545, 587 and 605 MHz (Figure 4).
    #[test]
    fn paper_channel_centers_match_figure4() {
        let centers: Vec<f64> = [13u8, 14, 22, 26, 33, 36]
            .into_iter()
            .map(|n| AtscChannel::new(n).unwrap().center_hz() / 1e6)
            .collect();
        assert_eq!(centers, vec![213.0, 473.0, 521.0, 545.0, 587.0, 605.0]);
    }

    #[test]
    fn band_plan_reference_points() {
        assert_eq!(AtscChannel::new(2).unwrap().lower_edge_hz(), 54e6);
        assert_eq!(AtscChannel::new(6).unwrap().lower_edge_hz(), 82e6);
        assert_eq!(AtscChannel::new(7).unwrap().lower_edge_hz(), 174e6);
        assert_eq!(AtscChannel::new(13).unwrap().lower_edge_hz(), 210e6);
        assert_eq!(AtscChannel::new(14).unwrap().lower_edge_hz(), 470e6);
        assert_eq!(AtscChannel::new(36).unwrap().lower_edge_hz(), 602e6);
    }

    #[test]
    fn out_of_plan_rejected() {
        assert!(AtscChannel::new(0).is_none());
        assert!(AtscChannel::new(1).is_none());
        assert!(AtscChannel::new(37).is_none(), "repacked spectrum");
    }

    #[test]
    fn containing_lookup() {
        assert_eq!(
            AtscChannel::containing(473e6),
            Some(AtscChannel::new(14).unwrap())
        );
        assert_eq!(
            AtscChannel::containing(213e6),
            Some(AtscChannel::new(13).unwrap())
        );
        // The 88–174 MHz FM/air band gap.
        assert_eq!(AtscChannel::containing(100e6), None);
    }
}
