//! Mode S CRC-24 parity (generator polynomial 0x1FFF409).
//!
//! Extended squitters place the 24-bit remainder directly in the PI field
//! (no address overlay for DF17 broadcast), so a receiver recomputes the
//! CRC over the first 88 bits and compares.
//!
//! The remainder is computed a byte at a time from a 256-entry table
//! ([`crc24`]), bit-for-bit the MSB-first long division.

/// The Mode S generator polynomial, 25 bits: x²⁴ + … (0x1FFF409), here as
/// the 24-bit representation used in the bitwise long division.
pub const POLY: u32 = 0xFFF409;

/// The register after shifting byte `b` (placed in the top 8 bits)
/// through eight steps of the long division.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = (b as u32) << 16;
        let mut k = 0;
        while k < 8 {
            crc <<= 1;
            if crc & 0x1_000000 != 0 {
                crc ^= POLY;
            }
            k += 1;
        }
        table[b] = crc & 0xFF_FFFF;
        b += 1;
    }
    table
};

/// Compute the Mode S CRC-24 over `data` (MSB-first long division, one
/// table lookup per byte). For a full 112-bit frame pass the first 11
/// bytes.
///
/// The division starts from a zero register, so the CRC of a whole frame,
/// data and parity together, is zero exactly when the stored parity
/// matches the data: that is how the verify functions check a frame.
pub fn crc24(data: &[u8]) -> u32 {
    let mut crc: u32 = 0;
    for &byte in data {
        crc = ((crc << 8) ^ TABLE[((crc >> 16) as u8 ^ byte) as usize]) & 0xFF_FFFF;
    }
    crc
}

/// Verify a 14-byte (112-bit) frame: CRC over bytes 0..11 must equal the
/// PI field in bytes 11..14.
pub fn verify_frame(frame: &[u8; 14]) -> bool {
    crc24(frame) == 0
}

/// Fill in the PI field of a 14-byte frame from its first 11 bytes.
pub fn apply_parity(frame: &mut [u8; 14]) {
    let crc = crc24(&frame[..11]);
    frame[11] = (crc >> 16) as u8;
    frame[12] = (crc >> 8) as u8;
    frame[13] = crc as u8;
}

/// Verify a 7-byte (56-bit) short frame (DF11 acquisition squitter with
/// interrogator code 0): CRC over bytes 0..4 must equal bytes 4..7.
pub fn verify_short_frame(frame: &[u8; 7]) -> bool {
    crc24(frame) == 0
}

/// Fill in the parity of a 7-byte short frame from its first 4 bytes.
pub fn apply_short_parity(frame: &mut [u8; 7]) {
    let crc = crc24(&frame[..4]);
    frame[4] = (crc >> 16) as u8;
    frame[5] = (crc >> 8) as u8;
    frame[6] = crc as u8;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bitwise long division the table replaces: the reference the
    /// table CRC must equal on every input.
    fn crc24_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0;
        for &byte in data {
            crc ^= (byte as u32) << 16;
            for _ in 0..8 {
                crc <<= 1;
                if crc & 0x1_000000 != 0 {
                    crc ^= POLY;
                }
            }
        }
        crc & 0xFFFFFF
    }

    /// The verify rule the whole-frame CRC replaces: recompute the CRC
    /// over the data bytes and compare it with the stored parity.
    fn parity_matches(frame: &[u8]) -> bool {
        let (data, pi) = frame.split_at(frame.len() - 3);
        crc24_bitwise(data) == (pi[0] as u32) << 16 | (pi[1] as u32) << 8 | pi[2] as u32
    }

    /// Known-good frame from the 1090 MHz Riddle (Junzi Sun, §2): a DF17
    /// airborne-position squitter whose CRC must come out to its PI field.
    #[test]
    fn known_reference_frame_verifies() {
        // 8D406B902015A678D4D220AA4BDA — a widely-used test vector.
        let frame: [u8; 14] = [
            0x8D, 0x40, 0x6B, 0x90, 0x20, 0x15, 0xA6, 0x78, 0xD4, 0xD2, 0x20, 0xAA, 0x4B, 0xDA,
        ];
        assert!(verify_frame(&frame));
    }

    #[test]
    fn second_reference_frame_verifies() {
        // 8D4840D6202CC371C32CE0576098 — identification message test vector.
        let frame: [u8; 14] = [
            0x8D, 0x48, 0x40, 0xD6, 0x20, 0x2C, 0xC3, 0x71, 0xC3, 0x2C, 0xE0, 0x57, 0x60, 0x98,
        ];
        assert!(verify_frame(&frame));
    }

    #[test]
    fn apply_then_verify() {
        let mut frame = [0u8; 14];
        frame[0] = 0x8D;
        frame[1..4].copy_from_slice(&[0xAB, 0xCD, 0xEF]);
        apply_parity(&mut frame);
        assert!(verify_frame(&frame));
    }

    #[test]
    fn single_bit_error_detected() {
        let mut frame: [u8; 14] = [
            0x8D, 0x40, 0x6B, 0x90, 0x20, 0x15, 0xA6, 0x78, 0xD4, 0xD2, 0x20, 0xAA, 0x4B, 0xDA,
        ];
        for byte in 0..14 {
            for bit in 0..8 {
                frame[byte] ^= 1 << bit;
                assert!(!verify_frame(&frame), "flip {byte}.{bit} undetected");
                frame[byte] ^= 1 << bit;
            }
        }
        assert!(verify_frame(&frame), "restored frame must verify");
    }

    #[test]
    fn crc_of_zeros_is_zero() {
        assert_eq!(crc24(&[0u8; 11]), 0);
    }

    proptest! {
        /// Any frame stamped with apply_parity must verify.
        #[test]
        fn stamped_frames_always_verify(payload in proptest::collection::vec(any::<u8>(), 11)) {
            let mut frame = [0u8; 14];
            frame[..11].copy_from_slice(&payload);
            apply_parity(&mut frame);
            prop_assert!(verify_frame(&frame));
        }

        /// All double-bit errors within the first 88 bits are detected
        /// (CRC-24 has minimum distance ≥ 6 over this length).
        #[test]
        fn double_bit_errors_detected(
            payload in proptest::collection::vec(any::<u8>(), 11),
            b1 in 0usize..88,
            b2 in 0usize..88,
        ) {
            prop_assume!(b1 != b2);
            let mut frame = [0u8; 14];
            frame[..11].copy_from_slice(&payload);
            apply_parity(&mut frame);
            frame[b1 / 8] ^= 1 << (7 - b1 % 8);
            frame[b2 / 8] ^= 1 << (7 - b2 % 8);
            prop_assert!(!verify_frame(&frame));
        }

        /// The table CRC is the bitwise long division, for any length.
        #[test]
        fn table_crc_equals_bitwise_division(data in proptest::collection::vec(any::<u8>(), 0..40)) {
            prop_assert_eq!(crc24(&data), crc24_bitwise(&data));
        }

        /// The CRC of a whole frame is zero exactly when the stored parity
        /// matches, for both frame lengths.
        #[test]
        fn whole_frame_crc_is_zero_exactly_when_parity_matches(
            bytes in proptest::collection::vec(any::<u8>(), 14),
            stamp in any::<bool>(),
            long in any::<bool>(),
            flips in proptest::collection::vec(0usize..112, 0..2),
        ) {
            let n = if long { 14 } else { 7 };
            let mut frame = bytes[..n].to_vec();
            if stamp {
                let crc = crc24_bitwise(&frame[..n - 3]);
                frame[n - 3..].copy_from_slice(&crc.to_be_bytes()[1..]);
            }
            for &b in &flips {
                let b = b % (8 * n);
                frame[b / 8] ^= 0x80 >> (b % 8);
            }
            prop_assert_eq!(crc24(&frame) == 0, parity_matches(&frame));
        }
    }
}
