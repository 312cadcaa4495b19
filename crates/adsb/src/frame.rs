//! The 112-bit DF17 extended squitter frame.

use crate::bits::{get_bits, set_bits};
use crate::crc::{apply_parity, verify_frame};
use crate::icao::IcaoAddress;
use crate::me::MePayload;
use crate::AdsbError;
use serde::{Deserialize, Serialize};

/// Bits in an extended squitter.
pub const FRAME_BITS: usize = 112;
/// Bytes in an extended squitter.
pub const FRAME_BYTES: usize = 14;
/// Bits in a short (Mode S acquisition) squitter.
pub const SHORT_FRAME_BITS: usize = 56;
/// Bytes in a short squitter.
pub const SHORT_FRAME_BYTES: usize = 7;

/// Downlink format 17 (civil ADS-B extended squitter).
pub const DF_EXTENDED_SQUITTER: u8 = 17;
/// Downlink format 11 (all-call reply / acquisition squitter).
pub const DF_ALL_CALL: u8 = 11;

/// A complete DF17 frame: address plus decoded payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdsbFrame {
    /// Transmitting aircraft's ICAO address.
    pub icao: IcaoAddress,
    /// Transponder capability field (CA); 5 = airborne, level 2+.
    pub capability: u8,
    /// The ME payload.
    pub payload: MePayload,
}

impl AdsbFrame {
    /// Build a frame with the standard airborne capability value.
    pub fn new(icao: IcaoAddress, payload: MePayload) -> Self {
        Self {
            icao,
            capability: 5,
            payload,
        }
    }

    /// Serialize to 14 bytes with valid parity.
    pub fn encode(&self) -> [u8; FRAME_BYTES] {
        let mut bytes = [0u8; FRAME_BYTES];
        set_bits(&mut bytes, 0, 5, DF_EXTENDED_SQUITTER as u64);
        set_bits(&mut bytes, 5, 3, (self.capability & 0x7) as u64);
        set_bits(&mut bytes, 8, 24, self.icao.value() as u64);
        let me = self.payload.encode();
        bytes[4..11].copy_from_slice(&me);
        apply_parity(&mut bytes);
        bytes
    }

    /// Parse 14 bytes: checks parity, downlink format, then the payload.
    pub fn decode(bytes: &[u8; FRAME_BYTES]) -> Result<Self, AdsbError> {
        if !verify_frame(bytes) {
            return Err(AdsbError::BadParity);
        }
        Self::parse(bytes)
    }

    /// [`AdsbFrame::decode`] of bytes whose parity is already known to
    /// check: the downlink format, then the payload.
    pub(crate) fn parse(bytes: &[u8; FRAME_BYTES]) -> Result<Self, AdsbError> {
        let df = get_bits(bytes, 0, 5) as u8;
        if df != DF_EXTENDED_SQUITTER {
            return Err(AdsbError::UnsupportedFormat(df));
        }
        let capability = get_bits(bytes, 5, 3) as u8;
        let icao = IcaoAddress::new(get_bits(bytes, 8, 24) as u32);
        let mut me = [0u8; 7];
        me.copy_from_slice(&bytes[4..11]);
        let payload = MePayload::decode(&me)?;
        Ok(Self {
            icao,
            capability,
            payload,
        })
    }
}

/// A DF11 acquisition squitter: the 1 Hz "I exist" broadcast every Mode S
/// transponder emits, ADS-B-capable or not. Carries only identity — which
/// is exactly what the paper's presence-matching needs ("binary presence
/// or absence of ADS-B messages … is a useful indicator").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShortSquitter {
    /// Transponder address.
    pub icao: IcaoAddress,
    /// Capability field.
    pub capability: u8,
}

impl ShortSquitter {
    /// Build an acquisition squitter (CA 5 = airborne, level 2+).
    pub fn new(icao: IcaoAddress) -> Self {
        Self {
            icao,
            capability: 5,
        }
    }

    /// Serialize to 7 bytes with valid parity (interrogator code 0).
    pub fn encode(&self) -> [u8; SHORT_FRAME_BYTES] {
        let mut bytes = [0u8; SHORT_FRAME_BYTES];
        set_bits(&mut bytes, 0, 5, DF_ALL_CALL as u64);
        set_bits(&mut bytes, 5, 3, (self.capability & 0x7) as u64);
        set_bits(&mut bytes, 8, 24, self.icao.value() as u64);
        crate::crc::apply_short_parity(&mut bytes);
        bytes
    }

    /// Parse 7 bytes.
    pub fn decode(bytes: &[u8; SHORT_FRAME_BYTES]) -> Result<Self, AdsbError> {
        if !crate::crc::verify_short_frame(bytes) {
            return Err(AdsbError::BadParity);
        }
        Self::parse(bytes)
    }

    /// [`ShortSquitter::decode`] of bytes whose parity is already known
    /// to check.
    pub(crate) fn parse(bytes: &[u8; SHORT_FRAME_BYTES]) -> Result<Self, AdsbError> {
        let df = get_bits(bytes, 0, 5) as u8;
        if df != DF_ALL_CALL {
            return Err(AdsbError::UnsupportedFormat(df));
        }
        Ok(Self {
            capability: get_bits(bytes, 5, 3) as u8,
            icao: IcaoAddress::new(get_bits(bytes, 8, 24) as u32),
        })
    }
}

/// The on-air bytes of a short or extended frame, in a fixed array; it
/// dereferences to the 7 or 14 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameBytes {
    bytes: [u8; FRAME_BYTES],
    len: usize,
}

impl core::ops::Deref for FrameBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Any decodable Mode S downlink frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModeSFrame {
    /// 56-bit DF11 acquisition squitter.
    Short(ShortSquitter),
    /// 112-bit DF17 extended squitter.
    Extended(AdsbFrame),
}

impl ModeSFrame {
    /// The transmitting aircraft's address.
    pub fn icao(&self) -> IcaoAddress {
        match self {
            ModeSFrame::Short(s) => s.icao,
            ModeSFrame::Extended(f) => f.icao,
        }
    }

    /// The downlink format.
    pub fn df(&self) -> u8 {
        match self {
            ModeSFrame::Short(_) => DF_ALL_CALL,
            ModeSFrame::Extended(_) => DF_EXTENDED_SQUITTER,
        }
    }

    /// Serialize to the on-air byte string (7 or 14 bytes).
    pub fn encode_bytes(&self) -> FrameBytes {
        let mut bytes = [0u8; FRAME_BYTES];
        let len = match self {
            ModeSFrame::Short(s) => {
                bytes[..SHORT_FRAME_BYTES].copy_from_slice(&s.encode());
                SHORT_FRAME_BYTES
            }
            ModeSFrame::Extended(f) => {
                bytes = f.encode();
                FRAME_BYTES
            }
        };
        FrameBytes { bytes, len }
    }

    /// Parse the bytes of a short (7) or extended (14) frame whose parity
    /// is already known to check, as [`ShortSquitter::decode`] or
    /// [`AdsbFrame::decode`] would.
    pub(crate) fn parse(bytes: &[u8]) -> Result<Self, AdsbError> {
        if let Ok(short) = bytes.try_into() {
            return Ok(ModeSFrame::Short(ShortSquitter::parse(short)?));
        }
        let long = bytes
            .try_into()
            .map_err(|_| AdsbError::InvalidField("frame length"))?;
        Ok(ModeSFrame::Extended(AdsbFrame::parse(long)?))
    }

    /// The ADS-B payload, if this is an extended squitter.
    pub fn payload(&self) -> Option<&MePayload> {
        match self {
            ModeSFrame::Short(_) => None,
            ModeSFrame::Extended(f) => Some(&f.payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpr::{self, CprFormat};
    use proptest::prelude::*;

    fn sample_frame() -> AdsbFrame {
        AdsbFrame::new(
            IcaoAddress::new(0xA1B2C3),
            MePayload::AirbornePosition {
                altitude_ft: 12_000.0,
                cpr: cpr::encode(37.9, -122.3, CprFormat::Odd),
            },
        )
    }

    #[test]
    fn encode_decode_round_trip() {
        let f = sample_frame();
        let decoded = AdsbFrame::decode(&f.encode()).unwrap();
        assert_eq!(f, decoded);
    }

    #[test]
    fn reference_identification_frame_decodes() {
        let bytes: [u8; 14] = [
            0x8D, 0x48, 0x40, 0xD6, 0x20, 0x2C, 0xC3, 0x71, 0xC3, 0x2C, 0xE0, 0x57, 0x60, 0x98,
        ];
        let f = AdsbFrame::decode(&bytes).unwrap();
        assert_eq!(f.icao.to_string(), "4840D6");
        assert_eq!(
            f.payload,
            MePayload::Identification {
                callsign: "KLM1023".to_string()
            }
        );
    }

    #[test]
    fn corrupted_frame_rejected() {
        let mut bytes = sample_frame().encode();
        bytes[6] ^= 0x10;
        assert_eq!(AdsbFrame::decode(&bytes), Err(AdsbError::BadParity));
    }

    #[test]
    fn wrong_downlink_format_rejected() {
        let mut bytes = sample_frame().encode();
        // Rewrite DF to 11 (all-call reply) and re-stamp parity.
        set_bits(&mut bytes, 0, 5, 11);
        crate::crc::apply_parity(&mut bytes);
        assert_eq!(
            AdsbFrame::decode(&bytes),
            Err(AdsbError::UnsupportedFormat(11))
        );
    }

    #[test]
    fn first_byte_is_8d_for_ca5() {
        // DF17/CA5 frames famously start with 0x8D.
        assert_eq!(sample_frame().encode()[0], 0x8D);
    }

    #[test]
    fn short_squitter_round_trip() {
        let s = ShortSquitter::new(IcaoAddress::new(0x4840D6));
        let decoded = ShortSquitter::decode(&s.encode()).unwrap();
        assert_eq!(s, decoded);
        // DF11/CA5 frames start with 0x5D.
        assert_eq!(s.encode()[0], 0x5D);
    }

    #[test]
    fn short_squitter_corruption_rejected() {
        let mut bytes = ShortSquitter::new(IcaoAddress::new(0x123456)).encode();
        bytes[2] ^= 0x04;
        assert_eq!(ShortSquitter::decode(&bytes), Err(AdsbError::BadParity));
    }

    #[test]
    fn mode_s_frame_accessors() {
        let short = ModeSFrame::Short(ShortSquitter::new(IcaoAddress::new(0xAAAAAA)));
        let ext = ModeSFrame::Extended(sample_frame());
        assert_eq!(short.df(), 11);
        assert_eq!(ext.df(), 17);
        assert_eq!(short.icao().value(), 0xAAAAAA);
        assert!(short.payload().is_none());
        assert!(ext.payload().is_some());
        assert_eq!(short.encode_bytes().len(), 7);
        assert_eq!(ext.encode_bytes().len(), 14);
    }

    /// Parsing bytes whose parity checks is decoding them: same frame,
    /// same format error, for short and extended frames of every
    /// downlink format.
    #[test]
    fn parse_of_checked_bytes_is_decode() {
        let ext = sample_frame().encode();
        let short = ShortSquitter::new(IcaoAddress::new(0x4840D6)).encode();
        for df in 0..32u64 {
            let mut e = ext;
            set_bits(&mut e, 0, 5, df);
            apply_parity(&mut e);
            assert_eq!(
                ModeSFrame::parse(&e),
                AdsbFrame::decode(&e).map(ModeSFrame::Extended)
            );
            let mut s = short;
            set_bits(&mut s, 0, 5, df);
            crate::crc::apply_short_parity(&mut s);
            assert_eq!(
                ModeSFrame::parse(&s),
                ShortSquitter::decode(&s).map(ModeSFrame::Short)
            );
        }
        assert_eq!(
            &*ModeSFrame::Extended(sample_frame()).encode_bytes(),
            &ext[..]
        );
    }

    proptest! {
        #[test]
        fn random_icao_round_trip(raw in 0u32..0x1_000_000) {
            let f = AdsbFrame::new(
                IcaoAddress::new(raw),
                MePayload::Identification { callsign: "TEST".into() },
            );
            let decoded = AdsbFrame::decode(&f.encode()).unwrap();
            prop_assert_eq!(decoded.icao.value(), raw);
        }
    }
}
