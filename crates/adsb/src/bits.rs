//! Bit-field access over byte arrays (MSB-first, as Mode S is specified).
//!
//! A field of up to 64 bits spans at most nine bytes, so both functions
//! work a byte at a time through a 128-bit register rather than a bit at a
//! time.

/// The bytes `first..=last` of `bytes`, big-endian, right-aligned.
#[inline]
fn load(bytes: &[u8], first: usize, last: usize) -> u128 {
    bytes[first..=last]
        .iter()
        .fold(0u128, |acc, &b| acc << 8 | u128::from(b))
}

/// The first and last byte a non-empty field touches, and how far its
/// last bit sits above bit 0 of the big-endian register over them.
#[inline]
fn span(start: usize, len: usize) -> (usize, usize, u32) {
    let end = start + len;
    let last = (end - 1) / 8;
    (start / 8, last, (8 * (last + 1) - end) as u32)
}

/// Read `len` bits (≤ 64) starting at bit index `start` (0 = MSB of byte 0)
/// from `bytes`, returning them right-aligned in a `u64`.
///
/// # Panics
/// If the field reaches past the end of `bytes` (and, in debug builds, if
/// `len > 64`); callers in this crate always validate lengths first.
pub fn get_bits(bytes: &[u8], start: usize, len: usize) -> u64 {
    debug_assert!(len <= 64);
    debug_assert!(start + len <= bytes.len() * 8);
    if len == 0 {
        return 0;
    }
    let (first, last, shift) = span(start, len);
    (load(bytes, first, last) >> shift) as u64 & (u64::MAX >> (64 - len))
}

/// Write the low `len` bits of `value` into `bytes` starting at bit index
/// `start` (MSB-first); the bits of `value` above `len` are ignored.
///
/// # Panics
/// As [`get_bits`].
pub fn set_bits(bytes: &mut [u8], start: usize, len: usize, value: u64) {
    debug_assert!(len <= 64);
    debug_assert!(start + len <= bytes.len() * 8);
    if len == 0 {
        return;
    }
    let (first, last, shift) = span(start, len);
    let mask = u128::from(u64::MAX >> (64 - len)) << shift;
    let word = load(bytes, first, last) & !mask | (u128::from(value) << shift) & mask;
    for (k, b) in bytes[first..=last].iter_mut().rev().enumerate() {
        *b = (word >> (8 * k)) as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time read the word-wide [`get_bits`] replaced: the
    /// oracle it is held to.
    fn get_bits_bitwise(bytes: &[u8], start: usize, len: usize) -> u64 {
        let mut acc = 0u64;
        for i in 0..len {
            let bit_idx = start + i;
            let byte = bytes[bit_idx / 8];
            let bit = (byte >> (7 - (bit_idx % 8))) & 1;
            acc = (acc << 1) | bit as u64;
        }
        acc
    }

    /// The bit-at-a-time write the word-wide [`set_bits`] replaced.
    fn set_bits_bitwise(bytes: &mut [u8], start: usize, len: usize, value: u64) {
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

        /// Every `(start, len)` field of a 9-byte buffer, the most a
        /// 64-bit field can span (every bit offset, every length 0..=64,
        /// fields ending on the last bit): the word-wide read and write
        /// equal the bitwise oracles, and `set_bits` ignores the bits of
        /// `value` above `len` as the oracle does.
        #[test]
        fn word_wide_fields_equal_the_bitwise_oracles(
            bytes in proptest::collection::vec(any::<u8>(), 9),
            value in any::<u64>(),
        ) {
            for start in 0..=bytes.len() * 8 {
                for len in 0..=64.min(bytes.len() * 8 - start) {
                    prop_assert_eq!(
                        get_bits(&bytes, start, len),
                        get_bits_bitwise(&bytes, start, len),
                        "get ({}, {})", start, len
                    );
                    let (mut fast, mut slow) = (bytes.clone(), bytes.clone());
                    set_bits(&mut fast, start, len, value);
                    set_bits_bitwise(&mut slow, start, len, value);
                    prop_assert_eq!(fast, slow, "set ({}, {})", start, len);
                }
            }
        }
    }
}
