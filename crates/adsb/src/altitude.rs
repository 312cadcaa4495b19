//! The 12-bit barometric altitude field of airborne-position messages.
//!
//! We implement the Q = 1 encoding (25 ft resolution, −1000…50175 ft),
//! which covers every aircraft the simulation generates; the legacy
//! 100 ft Gillham encoding (Q = 0) is rejected as unsupported.

use crate::AdsbError;

/// Altitude resolution with Q = 1, feet.
const Q_BIT_RESOLUTION_FT: i32 = 25;
/// Encoding offset, feet.
const OFFSET_FT: i32 = -1000;

/// Encode a barometric altitude (feet) into the 12-bit AC field (Q = 1).
///
/// Values are clamped to the representable range −1000…50175 ft.
pub fn encode_altitude_ft(alt_ft: f64) -> u16 {
    let n = ((alt_ft as i32 - OFFSET_FT) / Q_BIT_RESOLUTION_FT).clamp(0, 0x7FF) as u16;
    // Layout: N[10..4] Q N[3..0] — the Q bit sits between bits 4 and 5.
    let high = (n >> 4) & 0x7F;
    let low = n & 0xF;
    (high << 5) | (1 << 4) | low
}

/// Decode a 12-bit AC field into feet. Only Q = 1 is supported.
pub fn decode_altitude_ft(field: u16) -> Result<f64, AdsbError> {
    let field = field & 0xFFF;
    if field == 0 {
        return Err(AdsbError::InvalidField(
            "altitude field is zero (unavailable)",
        ));
    }
    if field & (1 << 4) == 0 {
        return Err(AdsbError::InvalidField(
            "Q=0 (Gillham) altitude not supported",
        ));
    }
    let n = (((field >> 5) & 0x7F) << 4) | (field & 0xF);
    Ok((n as i32 * Q_BIT_RESOLUTION_FT + OFFSET_FT) as f64)
}

/// Convert meters to feet.
pub fn m_to_ft(m: f64) -> f64 {
    m / 0.3048
}

/// Convert feet to meters.
pub fn ft_to_m(ft: f64) -> f64 {
    ft * 0.3048
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_reference_value() {
        // From the 1090 MHz Riddle: AC field 0xC38 decodes to 38000 ft.
        assert_eq!(decode_altitude_ft(0xC38).unwrap(), 38_000.0);
    }

    #[test]
    fn sea_level_round_trip() {
        let f = encode_altitude_ft(0.0);
        assert_eq!(decode_altitude_ft(f).unwrap(), 0.0);
    }

    #[test]
    fn cruise_altitude_round_trip() {
        let f = encode_altitude_ft(35_000.0);
        assert_eq!(decode_altitude_ft(f).unwrap(), 35_000.0);
    }

    #[test]
    fn zero_field_rejected() {
        assert!(decode_altitude_ft(0).is_err());
    }

    #[test]
    fn gillham_rejected() {
        // Any field with Q = 0 (bit 4 clear) and non-zero content.
        assert!(decode_altitude_ft(0b1000_0000_0000).is_err());
    }

    #[test]
    fn clamps_out_of_range() {
        let lo = decode_altitude_ft(encode_altitude_ft(-5_000.0)).unwrap();
        assert_eq!(lo, -1_000.0);
        let hi = decode_altitude_ft(encode_altitude_ft(99_999.0)).unwrap();
        assert_eq!(hi, 50_175.0);
    }

    #[test]
    fn unit_conversions() {
        assert!((m_to_ft(0.3048) - 1.0).abs() < 1e-12);
        assert!((ft_to_m(m_to_ft(123.0)) - 123.0).abs() < 1e-9);
    }

    proptest! {
        /// Round trip is exact to the 25 ft resolution in range.
        #[test]
        fn round_trip_within_resolution(alt in -1000.0f64..50_175.0) {
            let decoded = decode_altitude_ft(encode_altitude_ft(alt)).unwrap();
            prop_assert!((decoded - alt).abs() < 25.0);
        }
    }
}
