//! Bit-field access over byte arrays (MSB-first, as Mode S is specified).

/// Read `len` bits (≤ 64) starting at bit index `start` (0 = MSB of byte 0)
/// from `bytes`, returning them right-aligned in a `u64`.
///
/// Out-of-range reads are a caller bug; this panics in debug and clamps in
/// release via `get`-style indexing — callers in this crate always validate
/// lengths first.
pub fn get_bits(bytes: &[u8], start: usize, len: usize) -> u64 {
    debug_assert!(len <= 64);
    debug_assert!(start + len <= bytes.len() * 8);
    let mut acc = 0u64;
    for i in 0..len {
        let bit_idx = start + i;
        let byte = bytes[bit_idx / 8];
        let bit = (byte >> (7 - (bit_idx % 8))) & 1;
        acc = (acc << 1) | bit as u64;
    }
    acc
}

/// Write the low `len` bits of `value` into `bytes` starting at bit index
/// `start` (MSB-first).
pub fn set_bits(bytes: &mut [u8], start: usize, len: usize, value: u64) {
    debug_assert!(len <= 64);
    debug_assert!(start + len <= bytes.len() * 8);
    for i in 0..len {
        let bit = (value >> (len - 1 - i)) & 1;
        let bit_idx = start + i;
        let mask = 1u8 << (7 - (bit_idx % 8));
        if bit == 1 {
            bytes[bit_idx / 8] |= mask;
        } else {
            bytes[bit_idx / 8] &= !mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn get_bits_spans_bytes() {
        let bytes = [0b1010_1100, 0b0101_0011];
        assert_eq!(get_bits(&bytes, 0, 4), 0b1010);
        assert_eq!(get_bits(&bytes, 4, 8), 0b1100_0101);
        assert_eq!(get_bits(&bytes, 15, 1), 1);
        assert_eq!(get_bits(&bytes, 0, 16), 0b1010_1100_0101_0011);
    }

    #[test]
    fn set_then_get_round_trip() {
        let mut bytes = [0u8; 4];
        set_bits(&mut bytes, 5, 11, 0b101_0110_1011);
        assert_eq!(get_bits(&bytes, 5, 11), 0b101_0110_1011);
        // Neighbors untouched.
        assert_eq!(get_bits(&bytes, 0, 5), 0);
        assert_eq!(get_bits(&bytes, 16, 16), 0);
    }

    #[test]
    fn set_bits_clears_previous_ones() {
        let mut bytes = [0xFFu8; 2];
        set_bits(&mut bytes, 4, 8, 0);
        assert_eq!(bytes, [0xF0, 0x0F]);
    }

    proptest! {
        #[test]
        fn random_round_trip(
            bytes in proptest::collection::vec(any::<u8>(), 4..16),
            start in 0usize..32,
            len in 1usize..33,
        ) {
            prop_assume!(start + len <= bytes.len() * 8);
            let mut copy = bytes.clone();
            let v = get_bits(&bytes, start, len);
            set_bits(&mut copy, start, len, v);
            prop_assert_eq!(&copy, &bytes, "set(get(x)) must be identity");
        }
    }
}
