//! Write-ahead journal for the cloud calibration service.
//!
//! The cloud must survive a crash mid-campaign without double-applying
//! an effect or losing audit progress. The discipline is classic
//! write-ahead logging: every durable effect is appended to the journal
//! — and synced — before the cloud acts on it. Recovery restores the
//! latest registry snapshot and replays the journal on top, arriving at
//! a bit-identical state.
//!
//! The journal holds only what a recovery path reads. Both clouds open
//! it with [`WalRecord::SnapshotTaken`]. The threaded `aircal-net`
//! cloud then writes per-node [`WalRecord::NodeState`] upserts, each
//! round closed by a [`WalRecord::RoundCompleted`] commit marker; its
//! recovery applies a round's upserts only once it reads that marker,
//! so a torn round is discarded whole, and it journals on from the end
//! of the last committed record. The discrete-event engine writes
//! [`WalRecord::Dispatch`], [`WalRecord::ReportApplied`] and
//! [`WalRecord::DeliveryFailed`] between its per-round checkpoints. The
//! audit event stream (`aircal_obs::AuditEvent`), not the journal,
//! carries step outcomes, trust deltas and ladder transitions.
//!
//! # Frame format
//!
//! The journal is one byte buffer of CRC-framed, length-prefixed
//! records:
//!
//! ```text
//! 0xA7 marker u8 | payload_len u32 | crc32 u32 | payload …
//! ```
//!
//! (integers little-endian; the CRC covers the payload only, the marker
//! and length guard the frame structure itself). A crash can tear the
//! tail mid-write; [`Journal::open`] therefore truncates at the first
//! invalid frame — bad marker, impossible length, CRC mismatch, or
//! undecodable payload — and recovers the longest valid prefix. It
//! never panics on arbitrary bytes. A checkpoint empties the buffer
//! ([`Journal::reset`]): the snapshot it goes with covers everything
//! the journal held.

use std::fmt;

/// Frame marker byte. Not a magic string: a single byte keeps the
/// frame overhead small while still catching most torn/garbled tails
/// before the CRC has to.
pub const FRAME_MARKER: u8 = 0xA7;

/// Frame header bytes before the payload: marker + len + crc.
pub const FRAME_HEADER: usize = 1 + 4 + 4;

/// Hard per-record payload ceiling. A length field above this is
/// corruption, not an allocation request.
pub const MAX_RECORD_LEN: usize = 1 << 24;

/// The CRC-32 (IEEE 802.3) generator polynomial, bit-reflected.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// CRC-32 of every byte value: the bitwise shift/xor loop run at compile
/// time, eight steps per entry, so the table is exactly the polynomial
/// above and nothing else.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC32_POLY & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slicing-by-8 tables: `CRC32_SLICES[k][b]` is the CRC state of byte
/// `b` followed by `k` zero bytes, so eight bytes fold in one step of
/// eight independent lookups. Row 0 is [`CRC32_TABLE`].
const CRC32_SLICES: [[u32; 256]; 8] = {
    let mut slices = [CRC32_TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = (prev >> 8) ^ CRC32_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    slices
};

/// CRC-32 (IEEE 802.3, reflected), eight bytes per step (slicing-by-8),
/// then one table lookup per tail byte. The one copy in the workspace:
/// journal frames, ACSN snapshots and the cloud's snapshot/journal
/// chaining all call it.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_SLICES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a 64-bit offset basis: the hash of no bytes.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit: `h` with `bytes` folded in, one byte at a time, so
/// folding two pieces in turn equals folding them joined. Start a hash
/// at [`FNV1A_OFFSET`]. The one copy in the workspace: every node id,
/// hash chain, fingerprint and digest calls it. `#[inline]` lets the
/// sim's per-event calls inline across the crate boundary.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a journal record failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The byte stream ended before the record structure did.
    Truncated,
    /// An enum tag or field decoded to an impossible value.
    Malformed(&'static str),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Truncated => write!(f, "journal record truncated"),
            WalError::Malformed(what) => write!(f, "malformed journal field: {what}"),
        }
    }
}

impl std::error::Error for WalError {}

// ---------------------------------------------------------------------------
// Typed records
// ---------------------------------------------------------------------------

/// One durable effect, journaled before it is applied.
///
/// Every kind is one a recovery path reads: `Cloud::recover` in
/// `aircal-net` (`SnapshotTaken`, `NodeState`, `RoundCompleted`) or the
/// discrete-event engine's recovery (`SnapshotTaken`, `Dispatch`,
/// `ReportApplied`, `DeliveryFailed`), which applies the last three with
/// the same `SimCloud::apply` its live handlers call. The engine keys its
/// records by node index.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Upsert of one node's full registry state, as opaque codec-owned
    /// bytes (the `aircal-net` ACSN per-node encoding, which carries the
    /// node's name). Replaying the committed upserts after a snapshot
    /// reproduces the registry bit-for-bit.
    NodeState { state: Vec<u8> },
    /// A measurement dispatch left the cloud (engine-side, by index).
    Dispatch {
        node: u64,
        kind: u8,
        seq: u64,
        tick: u64,
    },
    /// A measurement report passed the dedup window and was applied.
    ReportApplied {
        node: u64,
        kind: u8,
        seq: u64,
        value_bits: u64,
        tick: u64,
    },
    /// A registry snapshot was taken; the journal prefix before this
    /// point is redundant. `state_crc` is the CRC-32 of the snapshot
    /// bytes, chaining journal and snapshot together. Only the threaded
    /// `aircal-net` cloud checks it (`Cloud::recover`); the
    /// discrete-event engine writes 0, because its crash check compares
    /// the recovered cloud state with the live one directly.
    SnapshotTaken { tick: u64, state_crc: u32 },
    /// The commit marker of a round: the `effects` node upserts just
    /// before it are whole, and recovery may apply them.
    RoundCompleted { effects: u32 },
    /// A delivery reached the cloud garbled and was discarded; the
    /// dispatch it answers is known-dead (immediately reschedulable),
    /// which is cloud state and so must survive a crash.
    DeliveryFailed {
        node: u64,
        kind: u8,
        seq: u64,
        tick: u64,
    },
}

// Variant tags. New variants append; tags are never reused. Retired:
// 1 (RoundStarted), 2 (StepOutcome), 3 (TrustDelta), 4
// (LadderTransition), 5 (ProfileUpdate) and 9 (AuditApplied), kinds no
// recovery path read.
const TAG_NODE_STATE: u8 = 6;
const TAG_DISPATCH: u8 = 7;
const TAG_REPORT_APPLIED: u8 = 8;
const TAG_SNAPSHOT_TAKEN: u8 = 10;
const TAG_ROUND_COMPLETED: u8 = 11;
const TAG_DELIVERY_FAILED: u8 = 12;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        if self.buf.len() - self.pos < n {
            return Err(WalError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn bytes(&mut self) -> Result<Vec<u8>, WalError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() {
            return Err(WalError::Truncated);
        }
        Ok(self.take(n)?.to_vec())
    }
    fn done(&self) -> Result<(), WalError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WalError::Malformed("trailing bytes in record"))
        }
    }
}

impl WalRecord {
    /// Serialize the record payload (frame applied by the journal).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(48);
        self.encode_into(&mut b);
        b
    }

    /// Append the record payload to `b`, so a hot caller can reuse one
    /// buffer for every record.
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        match self {
            WalRecord::NodeState { state } => {
                b.push(TAG_NODE_STATE);
                put_bytes(b, state);
            }
            WalRecord::Dispatch {
                node,
                kind,
                seq,
                tick,
            } => {
                b.push(TAG_DISPATCH);
                put_u64(b, *node);
                b.push(*kind);
                put_u64(b, *seq);
                put_u64(b, *tick);
            }
            WalRecord::ReportApplied {
                node,
                kind,
                seq,
                value_bits,
                tick,
            } => {
                b.push(TAG_REPORT_APPLIED);
                put_u64(b, *node);
                b.push(*kind);
                put_u64(b, *seq);
                put_u64(b, *value_bits);
                put_u64(b, *tick);
            }
            WalRecord::SnapshotTaken { tick, state_crc } => {
                b.push(TAG_SNAPSHOT_TAKEN);
                put_u64(b, *tick);
                put_u32(b, *state_crc);
            }
            WalRecord::RoundCompleted { effects } => {
                b.push(TAG_ROUND_COMPLETED);
                put_u32(b, *effects);
            }
            WalRecord::DeliveryFailed {
                node,
                kind,
                seq,
                tick,
            } => {
                b.push(TAG_DELIVERY_FAILED);
                put_u64(b, *node);
                b.push(*kind);
                put_u64(b, *seq);
                put_u64(b, *tick);
            }
        }
    }

    /// Decode one record payload. Every failure is a typed error; this
    /// never panics on arbitrary bytes.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, WalError> {
        let mut c = Cursor {
            buf: payload,
            pos: 0,
        };
        let rec = match c.u8()? {
            TAG_NODE_STATE => WalRecord::NodeState { state: c.bytes()? },
            TAG_DISPATCH => WalRecord::Dispatch {
                node: c.u64()?,
                kind: c.u8()?,
                seq: c.u64()?,
                tick: c.u64()?,
            },
            TAG_REPORT_APPLIED => WalRecord::ReportApplied {
                node: c.u64()?,
                kind: c.u8()?,
                seq: c.u64()?,
                value_bits: c.u64()?,
                tick: c.u64()?,
            },
            TAG_SNAPSHOT_TAKEN => WalRecord::SnapshotTaken {
                tick: c.u64()?,
                state_crc: c.u32()?,
            },
            TAG_ROUND_COMPLETED => WalRecord::RoundCompleted { effects: c.u32()? },
            TAG_DELIVERY_FAILED => WalRecord::DeliveryFailed {
                node: c.u64()?,
                kind: c.u8()?,
                seq: c.u64()?,
                tick: c.u64()?,
            },
            _ => return Err(WalError::Malformed("record tag")),
        };
        c.done()?;
        Ok(rec)
    }
}

// ---------------------------------------------------------------------------
// The journal
// ---------------------------------------------------------------------------

/// What [`Journal::open`] found in a byte stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpenReport {
    /// Records recovered (the longest valid prefix).
    pub recovered: u64,
    /// Bytes discarded from the torn tail (0 for a clean journal).
    pub truncated_bytes: u64,
}

/// A CRC-framed write-ahead journal: one byte buffer of frames.
///
/// Storage is a plain byte vector, so the same machinery backs both the
/// in-process engine (bytes live in memory) and a file-backed
/// deployment (the buffer is one file). Durability is modeled by
/// [`Journal::sync`]: effects must not be applied before the sync that
/// covers their append returns.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// Every frame, oldest first.
    bytes: Vec<u8>,
    /// Records appended over this journal's lifetime.
    appends: u64,
    /// Sync barriers issued.
    syncs: u64,
    /// Appends not yet covered by a sync.
    unsynced: u64,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Frame and append one record.
    pub fn append(&mut self, record: &WalRecord) {
        self.append_encoded(&record.encode());
    }

    /// Frame and append one record already encoded by
    /// [`WalRecord::encode_into`].
    ///
    /// # Panics
    /// If `payload` is longer than [`MAX_RECORD_LEN`]: such a frame
    /// would not survive [`Journal::open`], so it is refused here, the
    /// one place frames are written.
    pub fn append_encoded(&mut self, payload: &[u8]) {
        assert!(
            payload.len() <= MAX_RECORD_LEN,
            "WAL record of {} bytes exceeds MAX_RECORD_LEN",
            payload.len()
        );
        self.bytes.push(FRAME_MARKER);
        self.bytes
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        self.bytes.extend_from_slice(payload);
        self.appends += 1;
        self.unsynced += 1;
    }

    /// Durability barrier: everything appended so far survives a crash.
    /// Returns how many appends this sync covered.
    pub fn sync(&mut self) -> u64 {
        self.syncs += 1;
        std::mem::take(&mut self.unsynced)
    }

    /// Records appended over this journal's lifetime.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Sync barriers issued.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Framed bytes held.
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The journal as one contiguous byte stream (what a crash leaves
    /// on disk).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// Drop every frame, keeping the buffer's capacity: the snapshot
    /// just taken covers the entire journal contents (used at clean
    /// checkpoint boundaries).
    pub fn reset(&mut self) {
        self.bytes.clear();
    }

    /// Every record payload in append order, borrowed straight from the
    /// frames. The journal wrote every frame it holds, so the buffer is
    /// a run of valid frames.
    pub fn payloads(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let mut pos = 0;
        std::iter::from_fn(move || {
            let payload = frame_payload(&self.bytes[pos..])?;
            pos += FRAME_HEADER + payload.len();
            Some(payload)
        })
    }

    /// Decode every record in order, up to the first payload that is
    /// not a record (only [`Journal::append_encoded`] of foreign bytes
    /// can leave one). Never panics.
    pub fn records(&self) -> Vec<WalRecord> {
        self.payloads()
            .map_while(|p| WalRecord::decode(p).ok())
            .collect()
    }

    /// Open a journal from a possibly torn byte stream: recover the
    /// longest valid prefix of records, truncating the tail at the
    /// first bad frame. Never panics, whatever the bytes.
    pub fn open(bytes: &[u8]) -> (Journal, OpenReport) {
        let mut pos = 0usize;
        let mut recovered = 0u64;
        while let Some(payload) = frame_payload(&bytes[pos..]) {
            if WalRecord::decode(payload).is_err() {
                break;
            }
            pos += FRAME_HEADER + payload.len();
            recovered += 1;
        }
        let report = OpenReport {
            recovered,
            truncated_bytes: (bytes.len() - pos) as u64,
        };
        let journal = Journal {
            bytes: bytes[..pos].to_vec(),
            appends: recovered,
            // Reopened records are already durable.
            syncs: 1,
            unsynced: 0,
        };
        (journal, report)
    }
}

/// The payload of the frame at the head of `rest`, if that frame is
/// whole and valid: marker, length bound and CRC all check out.
fn frame_payload(rest: &[u8]) -> Option<&[u8]> {
    if rest.len() < FRAME_HEADER || rest[0] != FRAME_MARKER {
        return None;
    }
    let len = u32::from_le_bytes(rest[1..5].try_into().unwrap()) as usize;
    if len > MAX_RECORD_LEN || rest.len() < FRAME_HEADER + len {
        return None;
    }
    let crc_stored = u32::from_le_bytes(rest[5..9].try_into().unwrap());
    let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
    (crc32(payload) == crc_stored).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One record of every kind.
    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::NodeState {
                state: vec![1, 2, 3, 4, 5],
            },
            WalRecord::Dispatch {
                node: 17,
                kind: 2,
                seq: 9,
                tick: 95,
            },
            WalRecord::ReportApplied {
                node: 17,
                kind: 2,
                seq: 9,
                value_bits: (-61.25f64).to_bits(),
                tick: 97,
            },
            WalRecord::SnapshotTaken {
                tick: 100,
                state_crc: 0x1234_5678,
            },
            WalRecord::RoundCompleted { effects: 9 },
            WalRecord::DeliveryFailed {
                node: 17,
                kind: 1,
                seq: 10,
                tick: 99,
            },
        ]
    }

    /// The bitwise definition the tables are built from, kept as the
    /// reference the slicing-by-8 [`crc32`] must equal.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for b in bytes {
            crc ^= *b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" -> 0xCBF43926 (the classic CRC-32 check value).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn table_crc32_equals_the_bitwise_definition_at_every_length() {
        // xorshift64: deterministic pseudo-random bytes, no dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut bytes = Vec::with_capacity(4096);
        for len in 0..=4096 {
            bytes.clear();
            bytes.extend((0..len).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            }));
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "length {len}");
        }
    }

    #[test]
    fn append_encoded_frames_the_same_bytes_as_append() {
        let mut by_record = Journal::new();
        let mut by_bytes = Journal::new();
        let mut buf = Vec::new();
        for r in sample_records() {
            by_record.append(&r);
            buf.clear();
            r.encode_into(&mut buf);
            assert_eq!(buf, r.encode());
            by_bytes.append_encoded(&buf);
        }
        assert_eq!(by_record.to_bytes(), by_bytes.to_bytes());
        let payloads: Vec<Vec<u8>> = by_bytes.payloads().map(<[u8]>::to_vec).collect();
        let encoded: Vec<Vec<u8>> = sample_records().iter().map(WalRecord::encode).collect();
        assert_eq!(payloads, encoded);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_RECORD_LEN")]
    fn append_refuses_a_record_open_would_truncate() {
        Journal::new().append(&WalRecord::NodeState {
            state: vec![0; MAX_RECORD_LEN],
        });
    }

    #[test]
    fn records_round_trip() {
        for r in sample_records() {
            let bytes = r.encode();
            assert_eq!(WalRecord::decode(&bytes).unwrap(), r);
        }
    }

    #[test]
    fn journal_append_and_replay() {
        let mut j = Journal::new();
        for r in sample_records() {
            j.append(&r);
        }
        assert_eq!(j.sync(), sample_records().len() as u64);
        assert_eq!(j.records(), sample_records());
        assert_eq!(j.appends(), sample_records().len() as u64);
        assert_eq!(j.syncs(), 1);
        // A checkpoint empties the journal but keeps its buffer.
        let capacity = j.bytes.capacity();
        j.reset();
        assert!(j.records().is_empty());
        assert_eq!(j.len_bytes(), 0);
        assert_eq!(j.bytes.capacity(), capacity);
        assert_eq!(j.appends(), sample_records().len() as u64);
    }

    #[test]
    fn open_recovers_a_clean_journal_bit_identically() {
        let mut j = Journal::new();
        for r in sample_records() {
            j.append(&r);
        }
        let (back, report) = Journal::open(&j.to_bytes());
        assert_eq!(report.recovered, sample_records().len() as u64);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(back.records(), j.records());
    }

    #[test]
    fn every_truncation_recovers_the_longest_valid_prefix() {
        let mut j = Journal::new();
        for r in sample_records() {
            j.append(&r);
        }
        let bytes = j.to_bytes();
        // Frame boundaries: prefix sums of framed record sizes.
        let mut boundaries = vec![0usize];
        for r in sample_records() {
            boundaries.push(boundaries.last().unwrap() + FRAME_HEADER + r.encode().len());
        }
        for n in 0..bytes.len() {
            let (back, report) = Journal::open(&bytes[..n]);
            // Longest valid prefix: every whole frame before the cut.
            let expect = boundaries.iter().filter(|&&b| b > 0 && b <= n).count();
            assert_eq!(
                back.records().len(),
                expect,
                "truncation to {n} bytes recovered wrong prefix"
            );
            assert_eq!(report.recovered as usize, expect);
        }
    }

    #[test]
    fn every_bit_flip_never_panics_and_never_gains_records() {
        let mut j = Journal::new();
        for r in sample_records().into_iter().take(4) {
            j.append(&r);
        }
        let bytes = j.to_bytes();
        let clean = sample_records().len().min(4);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                let (back, _) = Journal::open(&bad);
                assert!(
                    back.records().len() <= clean,
                    "bit flip at byte {i} bit {bit} grew the journal"
                );
            }
        }
    }

    #[test]
    fn arbitrary_garbage_opens_empty() {
        let garbage: Vec<u8> = (0..512u32).map(|i| (i * 37 % 251) as u8).collect();
        let (j, report) = Journal::open(&garbage);
        assert!(j.records().is_empty());
        assert_eq!(report.truncated_bytes, garbage.len() as u64);
    }

    #[test]
    fn oversized_length_field_is_corruption_not_allocation() {
        let mut bytes = vec![FRAME_MARKER];
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let (j, _) = Journal::open(&bytes);
        assert!(j.records().is_empty());
    }
}
