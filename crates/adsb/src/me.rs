//! The 56-bit ME (message/extended squitter) payloads.
//!
//! Three payload types cover everything the paper's pipeline uses: airborne
//! position (what the survey plots), airborne velocity, and identification
//! (callsigns, for operator-facing reports).

use crate::altitude::{decode_altitude_ft, encode_altitude_ft};
use crate::bits::{get_bits, set_bits};
use crate::cpr::{CprFormat, CprPosition};
use crate::AdsbError;
use serde::{Deserialize, Serialize};

/// The 6-bit character set used by identification messages.
const CHARSET: &[u8; 64] = b"#ABCDEFGHIJKLMNOPQRSTUVWXYZ##### ###############0123456789######";

/// A decoded (or to-be-encoded) ME payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MePayload {
    /// Airborne position, TC 9–18 (barometric altitude).
    AirbornePosition {
        /// Barometric altitude, feet.
        altitude_ft: f64,
        /// CPR-encoded position.
        cpr: CprPosition,
    },
    /// Surface position, TC 5–8 (taxiing/parked aircraft; CPR on the 90°
    /// surface grid, ground movement and track instead of altitude).
    SurfacePosition {
        /// Ground speed in knots, `None` = not available.
        ground_speed_kt: Option<f64>,
        /// Ground track in degrees, `None` = invalid.
        track_deg: Option<f64>,
        /// CPR-encoded position (surface flavor).
        cpr: CprPosition,
    },
    /// Airborne velocity over ground, TC 19 subtype 1.
    AirborneVelocity {
        /// East component of ground velocity, knots (positive east).
        east_kt: f64,
        /// North component of ground velocity, knots (positive north).
        north_kt: f64,
        /// Vertical rate, ft/min (positive climbing).
        vertical_rate_fpm: f64,
    },
    /// Aircraft identification (callsign), TC 4 (category A).
    Identification {
        /// Up to 8 characters, A–Z / 0–9 / space.
        callsign: String,
    },
}

impl MePayload {
    /// The type code this payload encodes with.
    pub fn type_code(&self) -> u8 {
        match self {
            MePayload::AirbornePosition { .. } => 11,
            MePayload::SurfacePosition { .. } => 6,
            MePayload::AirborneVelocity { .. } => 19,
            MePayload::Identification { .. } => 4,
        }
    }

    /// Encode into the 7-byte ME field.
    pub fn encode(&self) -> [u8; 7] {
        let mut me = [0u8; 7];
        match self {
            MePayload::AirbornePosition { altitude_ft, cpr } => {
                set_bits(&mut me, 0, 5, 11); // TC 11: airborne position, NUCp 7
                set_bits(&mut me, 8, 12, encode_altitude_ft(*altitude_ft) as u64);
                set_bits(&mut me, 21, 1, cpr.format.bit() as u64);
                set_bits(&mut me, 22, 17, cpr.lat_cpr as u64);
                set_bits(&mut me, 39, 17, cpr.lon_cpr as u64);
            }
            MePayload::SurfacePosition {
                ground_speed_kt,
                track_deg,
                cpr,
            } => {
                set_bits(&mut me, 0, 5, 6); // TC 6: surface position
                set_bits(&mut me, 5, 7, encode_movement(*ground_speed_kt) as u64);
                if let Some(trk) = track_deg {
                    set_bits(&mut me, 12, 1, 1); // track status: valid
                    let quantized = ((trk.rem_euclid(360.0)) * 128.0 / 360.0).round() as u64 % 128;
                    set_bits(&mut me, 13, 7, quantized);
                }
                set_bits(&mut me, 21, 1, cpr.format.bit() as u64);
                set_bits(&mut me, 22, 17, cpr.lat_cpr as u64);
                set_bits(&mut me, 39, 17, cpr.lon_cpr as u64);
            }
            MePayload::AirborneVelocity {
                east_kt,
                north_kt,
                vertical_rate_fpm,
            } => {
                set_bits(&mut me, 0, 5, 19); // TC 19
                set_bits(&mut me, 5, 3, 1); // subtype 1: ground speed
                let (dew, vew) = encode_component(*east_kt);
                let (dns, vns) = encode_component(*north_kt);
                set_bits(&mut me, 13, 1, dew);
                set_bits(&mut me, 14, 10, vew);
                set_bits(&mut me, 24, 1, dns);
                set_bits(&mut me, 25, 10, vns);
                // Vertical rate: 64 ft/min units, sign bit, VrSrc = baro.
                let vr = (vertical_rate_fpm / 64.0).round();
                let svr = if vr < 0.0 { 1 } else { 0 };
                let vr_field = (vr.abs() as u64 + 1).min(511);
                set_bits(&mut me, 36, 1, svr);
                set_bits(&mut me, 37, 9, vr_field);
            }
            MePayload::Identification { callsign } => {
                set_bits(&mut me, 0, 5, 4); // TC 4: category A
                let padded: Vec<u8> = callsign
                    .bytes()
                    .chain(std::iter::repeat(b' '))
                    .take(8)
                    .collect();
                for (i, &c) in padded.iter().enumerate() {
                    let code = CHARSET.iter().position(|&x| x == c).unwrap_or(32) as u64;
                    set_bits(&mut me, 8 + 6 * i, 6, code);
                }
            }
        }
        me
    }

    /// Decode a 7-byte ME field.
    pub fn decode(me: &[u8; 7]) -> Result<Self, AdsbError> {
        let tc = get_bits(me, 0, 5) as u8;
        match tc {
            5..=8 => {
                let movement = get_bits(me, 5, 7) as u8;
                let track_valid = get_bits(me, 12, 1) == 1;
                let track_deg = track_valid.then(|| get_bits(me, 13, 7) as f64 * 360.0 / 128.0);
                let format = CprFormat::from_bit(get_bits(me, 21, 1) as u8);
                Ok(MePayload::SurfacePosition {
                    ground_speed_kt: decode_movement(movement),
                    track_deg,
                    cpr: CprPosition {
                        format,
                        lat_cpr: get_bits(me, 22, 17) as u32,
                        lon_cpr: get_bits(me, 39, 17) as u32,
                    },
                })
            }
            9..=18 => {
                let alt_field = get_bits(me, 8, 12) as u16;
                let altitude_ft = decode_altitude_ft(alt_field)?;
                let format = CprFormat::from_bit(get_bits(me, 21, 1) as u8);
                Ok(MePayload::AirbornePosition {
                    altitude_ft,
                    cpr: CprPosition {
                        format,
                        lat_cpr: get_bits(me, 22, 17) as u32,
                        lon_cpr: get_bits(me, 39, 17) as u32,
                    },
                })
            }
            19 => {
                let st = get_bits(me, 5, 3);
                if st != 1 {
                    return Err(AdsbError::InvalidField("velocity subtype != 1"));
                }
                let east_kt = decode_component(get_bits(me, 13, 1), get_bits(me, 14, 10))?;
                let north_kt = decode_component(get_bits(me, 24, 1), get_bits(me, 25, 10))?;
                let svr = get_bits(me, 36, 1);
                let vr_field = get_bits(me, 37, 9);
                let vertical_rate_fpm = if vr_field == 0 {
                    0.0
                } else {
                    let mag = (vr_field as f64 - 1.0) * 64.0;
                    if svr == 1 {
                        -mag
                    } else {
                        mag
                    }
                };
                Ok(MePayload::AirborneVelocity {
                    east_kt,
                    north_kt,
                    vertical_rate_fpm,
                })
            }
            1..=4 => {
                let mut callsign = String::with_capacity(8);
                for i in 0..8 {
                    let code = get_bits(me, 8 + 6 * i, 6) as usize;
                    callsign.push(CHARSET[code] as char);
                }
                Ok(MePayload::Identification {
                    callsign: callsign.trim_end().to_string(),
                })
            }
            other => Err(AdsbError::UnsupportedTypeCode(other)),
        }
    }

    /// Ground speed in knots for a velocity payload, `None` otherwise.
    pub fn ground_speed_kt(&self) -> Option<f64> {
        match self {
            MePayload::AirborneVelocity {
                east_kt, north_kt, ..
            } => Some((east_kt * east_kt + north_kt * north_kt).sqrt()),
            _ => None,
        }
    }

    /// Track angle (degrees clockwise from north) for a velocity payload.
    pub fn track_deg(&self) -> Option<f64> {
        match self {
            MePayload::AirborneVelocity {
                east_kt, north_kt, ..
            } => {
                let t = east_kt.atan2(*north_kt).to_degrees();
                Some(if t < 0.0 { t + 360.0 } else { t })
            }
            _ => None,
        }
    }
}

/// The DO-260B surface "movement" field: a 7-bit nonuniform quantizer for
/// ground speed. Segment boundaries per the spec (Table 2-79):
/// value 1 = stopped, 2–8 step 0.125 kt, 9–12 step 0.25, 13–38 step 0.5,
/// 39–93 step 1, 94–108 step 2, 109–123 step 5, 124 = ≥175 kt.
fn encode_movement(speed_kt: Option<f64>) -> u8 {
    let Some(v) = speed_kt else { return 0 };
    let v = v.max(0.0);
    if v < 0.125 {
        1
    } else if v < 1.0 {
        (2.0 + ((v - 0.125) / 0.125).floor()) as u8
    } else if v < 2.0 {
        (9.0 + ((v - 1.0) / 0.25).floor()) as u8
    } else if v < 15.0 {
        (13.0 + ((v - 2.0) / 0.5).floor()) as u8
    } else if v < 70.0 {
        (39.0 + (v - 15.0).floor()) as u8
    } else if v < 100.0 {
        (94.0 + ((v - 70.0) / 2.0).floor()) as u8
    } else if v < 175.0 {
        (109.0 + ((v - 100.0) / 5.0).floor()) as u8
    } else {
        124
    }
}

/// Decode the movement field to a representative speed (segment lower
/// edge), `None` for "no information" / reserved values.
fn decode_movement(field: u8) -> Option<f64> {
    match field {
        0 | 125.. => None,
        1 => Some(0.0),
        2..=8 => Some(0.125 + (field - 2) as f64 * 0.125),
        9..=12 => Some(1.0 + (field - 9) as f64 * 0.25),
        13..=38 => Some(2.0 + (field - 13) as f64 * 0.5),
        39..=93 => Some(15.0 + (field - 39) as f64),
        94..=108 => Some(70.0 + (field - 94) as f64 * 2.0),
        109..=123 => Some(100.0 + (field - 109) as f64 * 5.0),
        124 => Some(175.0),
    }
}

/// Encode one signed velocity component into (direction bit, 10-bit field).
/// Field value 0 = "no information"; v = field − 1 kt.
fn encode_component(v_kt: f64) -> (u64, u64) {
    let dir = if v_kt < 0.0 { 1 } else { 0 };
    let field = (v_kt.abs().round() as u64 + 1).min(1023);
    (dir, field)
}

/// Decode one velocity component.
fn decode_component(dir: u64, field: u64) -> Result<f64, AdsbError> {
    if field == 0 {
        return Err(AdsbError::InvalidField("velocity component unavailable"));
    }
    let mag = (field - 1) as f64;
    Ok(if dir == 1 { -mag } else { mag })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpr;
    use proptest::prelude::*;

    #[test]
    fn position_round_trip() {
        let original = MePayload::AirbornePosition {
            altitude_ft: 35_000.0,
            cpr: cpr::encode(37.8716, -122.2727, CprFormat::Even),
        };
        let decoded = MePayload::decode(&original.encode()).unwrap();
        assert_eq!(original, decoded);
    }

    #[test]
    fn surface_position_round_trip() {
        let original = MePayload::SurfacePosition {
            ground_speed_kt: Some(17.0),
            track_deg: Some(90.0),
            cpr: cpr::encode_surface(37.6213, -122.3790, CprFormat::Odd),
        };
        let decoded = MePayload::decode(&original.encode()).unwrap();
        assert_eq!(original, decoded);
    }

    #[test]
    fn surface_stopped_and_unknown() {
        for gs in [None, Some(0.0)] {
            let original = MePayload::SurfacePosition {
                ground_speed_kt: gs,
                track_deg: None,
                cpr: cpr::encode_surface(37.62, -122.38, CprFormat::Even),
            };
            let decoded = MePayload::decode(&original.encode()).unwrap();
            assert_eq!(original, decoded);
        }
    }

    #[test]
    fn movement_table_round_trips_on_segment_edges() {
        // Representative speeds from each quantizer segment survive an
        // encode/decode cycle exactly.
        for v in [
            0.0, 0.125, 0.5, 1.0, 1.75, 2.0, 7.5, 15.0, 42.0, 70.0, 98.0, 100.0, 170.0, 175.0,
        ] {
            let decoded = decode_movement(encode_movement(Some(v))).unwrap();
            assert!((decoded - v).abs() < 1e-9, "speed {v} decoded as {decoded}");
        }
        assert_eq!(decode_movement(encode_movement(None)), None);
        // Above the top segment everything saturates at 175.
        assert_eq!(decode_movement(encode_movement(Some(999.0))), Some(175.0));
    }

    #[test]
    fn movement_quantization_monotone() {
        let mut prev = -1.0;
        for i in 0..600 {
            let v = i as f64 * 0.33;
            let q = decode_movement(encode_movement(Some(v))).unwrap();
            assert!(q >= prev, "at {v}: {q} < {prev}");
            assert!(q <= v + 1e-9, "quantizer must floor, {q} > {v}");
            prev = q;
        }
    }

    #[test]
    fn surface_track_quantization() {
        // 128-step track: 2.8125° resolution.
        let original = MePayload::SurfacePosition {
            ground_speed_kt: Some(10.0),
            track_deg: Some(123.0),
            cpr: cpr::encode_surface(37.62, -122.38, CprFormat::Even),
        };
        match MePayload::decode(&original.encode()).unwrap() {
            MePayload::SurfacePosition { track_deg, .. } => {
                let t = track_deg.unwrap();
                assert!((t - 123.0).abs() <= 360.0 / 128.0, "track {t}");
            }
            other => panic!("wrong payload {other:?}"),
        }
    }

    #[test]
    fn velocity_round_trip_and_derived() {
        let original = MePayload::AirborneVelocity {
            east_kt: -120.0,
            north_kt: 350.0,
            vertical_rate_fpm: -1_280.0,
        };
        let decoded = MePayload::decode(&original.encode()).unwrap();
        assert_eq!(original, decoded);
        let gs = decoded.ground_speed_kt().unwrap();
        assert!((gs - (120.0f64 * 120.0 + 350.0 * 350.0).sqrt()).abs() < 0.5);
        let track = decoded.track_deg().unwrap();
        assert!((track - 341.08).abs() < 0.5, "track {track}");
    }

    #[test]
    fn identification_round_trip() {
        let original = MePayload::Identification {
            callsign: "UAL123".to_string(),
        };
        let decoded = MePayload::decode(&original.encode()).unwrap();
        assert_eq!(original, decoded);
    }

    #[test]
    fn identification_reference_vector() {
        // 8D4840D6202CC371C32CE0576098 → callsign KLM1023_ ("KLM1023").
        let me: [u8; 7] = [0x20, 0x2C, 0xC3, 0x71, 0xC3, 0x2C, 0xE0];
        match MePayload::decode(&me).unwrap() {
            MePayload::Identification { callsign } => assert_eq!(callsign, "KLM1023"),
            other => panic!("wrong payload {other:?}"),
        }
    }

    #[test]
    fn unsupported_type_codes_rejected() {
        let mut me = [0u8; 7];
        set_bits(&mut me, 0, 5, 28); // aircraft status — not implemented
        assert_eq!(
            MePayload::decode(&me),
            Err(AdsbError::UnsupportedTypeCode(28))
        );
        set_bits(&mut me, 0, 5, 0);
        assert!(MePayload::decode(&me).is_err());
    }

    #[test]
    fn type_codes_match_spec_ranges() {
        assert_eq!(
            MePayload::AirbornePosition {
                altitude_ft: 0.0,
                cpr: cpr::encode(0.0, 0.0, CprFormat::Even)
            }
            .type_code(),
            11
        );
    }

    #[test]
    fn zero_velocity_round_trip() {
        let original = MePayload::AirborneVelocity {
            east_kt: 0.0,
            north_kt: 0.0,
            vertical_rate_fpm: 0.0,
        };
        let decoded = MePayload::decode(&original.encode()).unwrap();
        assert_eq!(original, decoded);
        assert_eq!(decoded.ground_speed_kt(), Some(0.0));
    }

    proptest! {
        /// Velocity components round-trip to 1 kt resolution.
        #[test]
        fn velocity_round_trip_random(
            e in -900.0f64..900.0,
            n in -900.0f64..900.0,
            vr in -6000.0f64..6000.0,
        ) {
            let original = MePayload::AirborneVelocity {
                east_kt: e.round(),
                north_kt: n.round(),
                vertical_rate_fpm: (vr / 64.0).round() * 64.0,
            };
            let decoded = MePayload::decode(&original.encode()).unwrap();
            prop_assert_eq!(original, decoded);
        }

        /// Callsigns of valid characters round-trip.
        #[test]
        fn callsign_round_trip(s in "[A-Z0-9]{1,8}") {
            let original = MePayload::Identification { callsign: s.clone() };
            let decoded = MePayload::decode(&original.encode()).unwrap();
            prop_assert_eq!(original, decoded);
        }
    }
}
