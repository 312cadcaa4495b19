//! Versioned, checksummed snapshots for crash-safe recovery.
//!
//! A crowd-sourced agent dies and restarts all the time; what must *not*
//! happen is a restarted node silently re-entering the fleet with stale,
//! forked, or bit-rotted state. Snapshots here are a deliberately dumb,
//! serde-free binary format:
//!
//! ```text
//! "ACSN" | version u16 | kind u8 | payload_len u32 | payload … | crc32 u32
//! ```
//!
//! (all integers little-endian; the CRC covers everything before it).
//! Every failure mode is a typed [`SnapshotError`] — a truncated or
//! bit-flipped snapshot must fail restore loudly, never panic, never load.

use crate::adversary::{Adversary, AdversaryKind, AdversaryState};
use crate::cloud::{HealthLadder, NodeHealth};
use crate::node::{NodeAgent, NodeBehavior, ServiceLedger};
use crate::protocol::NodeClaims;
use aircal_aircraft::TrafficSim;
use aircal_core::wal::crc32;
use aircal_env::Scenario;
use aircal_geo::LatLon;
use std::sync::Arc;

/// File magic: **A**ircal **C**alibration **SN**apshot.
pub const MAGIC: [u8; 4] = *b"ACSN";
/// Current codec version.
pub const VERSION: u16 = 1;
/// Snapshot kind: a node agent's durable state.
pub const KIND_NODE: u8 = 1;
/// Snapshot kind: the cloud's registry state.
pub const KIND_REGISTRY: u8 = 2;

/// Why a snapshot failed to restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The first four bytes are not `"ACSN"`.
    BadMagic,
    /// The codec version is newer than this binary understands.
    UnsupportedVersion(u16),
    /// The snapshot is of a different kind than the caller asked for.
    WrongKind {
        /// Kind the caller expected.
        expected: u8,
        /// Kind found in the header.
        found: u8,
    },
    /// The byte stream ended before the structure did.
    Truncated,
    /// The CRC32 over header + payload does not match the trailer.
    ChecksumMismatch {
        /// CRC recorded in the snapshot.
        stored: u32,
        /// CRC recomputed over the bytes.
        computed: u32,
    },
    /// Bytes remain after the structure ended.
    TrailingBytes,
    /// A field decoded to a value that cannot be valid.
    Malformed(&'static str),
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::WrongKind { expected, found } => {
                write!(f, "wrong snapshot kind: expected {expected}, found {found}")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after snapshot"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot field: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// Writer / reader primitives
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("bool")),
        }
    }
    fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Malformed("utf-8 string"))
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(SnapshotError::Malformed("option tag")),
        }
    }
    fn done(&self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes)
        }
    }
}

/// Wrap a payload in the `ACSN` envelope.
fn seal(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 15);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Verify the envelope and return the payload slice.
fn unseal(expected_kind: u8, bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < 4 {
        return Err(SnapshotError::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut r = Reader::new(bytes);
    r.take(4)?; // magic
    let version = r.u16()?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let kind = r.u8()?;
    let len = r.u32()? as usize;
    let payload_start = r.pos;
    let payload = r.take(len)?;
    let crc_stored = r.u32()?;
    r.done()?;
    let computed = crc32(&bytes[..payload_start + len]);
    if crc_stored != computed {
        return Err(SnapshotError::ChecksumMismatch {
            stored: crc_stored,
            computed,
        });
    }
    // Kind is checked after integrity: a corrupted kind byte should read
    // as corruption, not as "wrong kind of valid snapshot".
    if kind != expected_kind {
        return Err(SnapshotError::WrongKind {
            expected: expected_kind,
            found: kind,
        });
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Node agent snapshots
// ---------------------------------------------------------------------------

fn write_claims(w: &mut Writer, c: &NodeClaims) {
    w.str(&c.name);
    w.f64(c.position.lat_deg);
    w.f64(c.position.lon_deg);
    w.f64(c.position.alt_m);
    w.bool(c.outdoor);
    w.f64(c.freq_range_hz.0);
    w.f64(c.freq_range_hz.1);
    w.f64(c.price_per_hour);
}

fn read_claims(r: &mut Reader<'_>) -> Result<NodeClaims, SnapshotError> {
    Ok(NodeClaims {
        name: r.str()?,
        position: LatLon::new(r.f64()?, r.f64()?, r.f64()?),
        outdoor: r.bool()?,
        freq_range_hz: (r.f64()?, r.f64()?),
        price_per_hour: r.f64()?,
    })
}

fn write_behavior(w: &mut Writer, b: NodeBehavior) {
    match b {
        NodeBehavior::Honest => w.u8(0),
        NodeBehavior::Fabricator { ghosts } => {
            w.u8(1);
            w.u64(ghosts as u64);
        }
        NodeBehavior::FalseClaims => w.u8(2),
    }
}

fn read_behavior(r: &mut Reader<'_>) -> Result<NodeBehavior, SnapshotError> {
    match r.u8()? {
        0 => Ok(NodeBehavior::Honest),
        1 => Ok(NodeBehavior::Fabricator {
            ghosts: r.u64()? as usize,
        }),
        2 => Ok(NodeBehavior::FalseClaims),
        _ => Err(SnapshotError::Malformed("behavior tag")),
    }
}

fn write_adversary(w: &mut Writer, a: Option<&Adversary>) {
    match a {
        None => w.u8(0),
        Some(a) => {
            w.u8(1);
            match a.kind {
                AdversaryKind::SpoofAdsb { ghosts } => {
                    w.u8(0);
                    w.u64(ghosts as u64);
                }
                AdversaryKind::ReplayStale => {
                    w.u8(1);
                    w.u64(0);
                }
                AdversaryKind::GainInflate { db } => {
                    w.u8(2);
                    w.f64(db);
                }
                AdversaryKind::FrozenFrontend => {
                    w.u8(3);
                    w.u64(0);
                }
                AdversaryKind::CalibrationPoison { db_per_round } => {
                    w.u8(4);
                    w.f64(db_per_round);
                }
            }
            w.u64(a.seed);
            let st = a.state();
            w.opt_u64(st.stale_survey_seed);
            w.u64(st.surveys_served);
            w.u64(st.cells_served);
            w.u64(st.tv_served);
        }
    }
}

fn read_adversary(r: &mut Reader<'_>) -> Result<Option<Adversary>, SnapshotError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let kind_tag = r.u8()?;
            // The kinds without a parameter write a zero word in its
            // place; any other value is corruption, or the node would
            // restore from bytes it never wrote.
            let mut reserved = || match r.u64()? {
                0 => Ok(()),
                _ => Err(SnapshotError::Malformed("reserved adversary word")),
            };
            let kind = match kind_tag {
                0 => AdversaryKind::SpoofAdsb {
                    ghosts: r.u64()? as usize,
                },
                1 => {
                    reserved()?;
                    AdversaryKind::ReplayStale
                }
                2 => AdversaryKind::GainInflate { db: r.f64()? },
                3 => {
                    reserved()?;
                    AdversaryKind::FrozenFrontend
                }
                4 => AdversaryKind::CalibrationPoison {
                    db_per_round: r.f64()?,
                },
                _ => return Err(SnapshotError::Malformed("adversary kind tag")),
            };
            let seed = r.u64()?;
            let state = AdversaryState {
                stale_survey_seed: r.opt_u64()?,
                surveys_served: r.u64()?,
                cells_served: r.u64()?,
                tv_served: r.u64()?,
            };
            let adv = Adversary::new(kind, seed);
            adv.restore_state(state);
            Ok(Some(adv))
        }
        _ => Err(SnapshotError::Malformed("adversary tag")),
    }
}

/// Serialize a node agent's durable state: claims, behavior, adversary
/// state, and the service ledger. The physical installation (world, site,
/// sky) is ambient and reconstructed by the supervisor on restore.
pub fn snapshot_node(node: &NodeAgent) -> Vec<u8> {
    let mut w = Writer::default();
    write_claims(&mut w, &node.claims);
    write_behavior(&mut w, node.behavior);
    write_adversary(&mut w, node.adversary.as_ref());
    let ledger = node.ledger();
    let hashes = ledger.hashes();
    w.u32(hashes.len() as u32);
    for h in hashes {
        w.u64(*h);
    }
    seal(KIND_NODE, &w.buf)
}

/// Rebuild a node agent from its snapshot, the reconstructed installation,
/// and the shared sky. Fails with a typed error on any corruption.
pub fn restore_node(
    scenario: Scenario,
    sky: Arc<TrafficSim>,
    bytes: &[u8],
) -> Result<NodeAgent, SnapshotError> {
    let payload = unseal(KIND_NODE, bytes)?;
    let mut r = Reader::new(payload);
    let claims = read_claims(&mut r)?;
    let behavior = read_behavior(&mut r)?;
    let adversary = read_adversary(&mut r)?;
    let n = r.u32()? as usize;
    // A length prefix larger than the remaining payload is corruption,
    // not an allocation request.
    if n > payload.len() / 8 + 1 {
        return Err(SnapshotError::Truncated);
    }
    let mut hashes = Vec::with_capacity(n);
    for _ in 0..n {
        hashes.push(r.u64()?);
    }
    r.done()?;
    let mut node = NodeAgent::new(scenario, behavior, sky);
    node.claims = claims;
    node.adversary = adversary;
    node.restore_ledger(ServiceLedger::from_hashes(hashes));
    Ok(node)
}

// ---------------------------------------------------------------------------
// Cloud registry snapshots
// ---------------------------------------------------------------------------

/// One node's durable registry state: the record the cloud keeps between
/// audits and persists in snapshots and journal upserts. The live link,
/// in-flight verdicts, and link statistics are deliberately *not* part
/// of it — they are reconstructed by re-registering.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistryNodeState {
    /// Node name (the registry key).
    pub name: String,
    /// The node's health ladder: both runs and its effective rung.
    pub ladder: HealthLadder,
    /// Last known reachability.
    pub reachable: bool,
    /// Commission seed of the node's last completed audit (fingerprint
    /// comparisons are only evidence when the seeds differ).
    pub last_seed: Option<u64>,
    /// Fingerprint of the last completed survey report.
    pub survey_fp: Option<u64>,
    /// Fingerprint of the last completed cellular sweep.
    pub cells_fp: Option<u64>,
    /// Fingerprint of the last completed TV sweep.
    pub tv_fp: Option<u64>,
    /// Per-band power baseline from the node's first clean audit:
    /// `(source tag, label, measured dB)`.
    pub baseline: Vec<(u8, String, f64)>,
    /// Last attested service-history checkpoint `(served, chain)`.
    pub attested: Option<(u64, u64)>,
    /// Why the node was evicted, if it was.
    pub eviction_reason: Option<String>,
}

fn write_node_state(w: &mut Writer, n: &RegistryNodeState) {
    w.str(&n.name);
    w.u8(n.ladder.health.severity());
    w.bool(n.reachable);
    w.u32(n.ladder.consecutive_failures);
    w.u32(n.ladder.consecutive_anomalies);
    w.opt_u64(n.last_seed);
    w.opt_u64(n.survey_fp);
    w.opt_u64(n.cells_fp);
    w.opt_u64(n.tv_fp);
    w.u32(n.baseline.len() as u32);
    for (tag, label, db) in &n.baseline {
        w.u8(*tag);
        w.str(label);
        w.f64(*db);
    }
    match n.attested {
        Some((served, chain)) => {
            w.u8(1);
            w.u64(served);
            w.u64(chain);
        }
        None => w.u8(0),
    }
    match &n.eviction_reason {
        Some(reason) => {
            w.u8(1);
            w.str(reason);
        }
        None => w.u8(0),
    }
}

fn read_node_state(
    r: &mut Reader<'_>,
    payload_len: usize,
) -> Result<RegistryNodeState, SnapshotError> {
    let name = r.str()?;
    let health =
        NodeHealth::from_severity(r.u8()?).ok_or(SnapshotError::Malformed("health rung"))?;
    let reachable = r.bool()?;
    let ladder = HealthLadder {
        consecutive_failures: r.u32()?,
        consecutive_anomalies: r.u32()?,
        health,
    };
    let last_seed = r.opt_u64()?;
    let survey_fp = r.opt_u64()?;
    let cells_fp = r.opt_u64()?;
    let tv_fp = r.opt_u64()?;
    let nb = r.u32()? as usize;
    if nb > payload_len {
        return Err(SnapshotError::Truncated);
    }
    let mut baseline = Vec::with_capacity(nb);
    for _ in 0..nb {
        baseline.push((r.u8()?, r.str()?, r.f64()?));
    }
    let attested = match r.u8()? {
        0 => None,
        1 => Some((r.u64()?, r.u64()?)),
        _ => return Err(SnapshotError::Malformed("attested tag")),
    };
    let eviction_reason = match r.u8()? {
        0 => None,
        1 => Some(r.str()?),
        _ => return Err(SnapshotError::Malformed("eviction tag")),
    };
    Ok(RegistryNodeState {
        name,
        ladder,
        reachable,
        last_seed,
        survey_fp,
        cells_fp,
        tv_fp,
        baseline,
        attested,
        eviction_reason,
    })
}

/// Encode one node's registry state as a bare payload (no `ACSN`
/// envelope) — the write-ahead journal embeds these in its `NodeState`
/// records, where the journal's own CRC framing provides integrity.
pub fn encode_node_state(n: &RegistryNodeState) -> Vec<u8> {
    let mut w = Writer::default();
    write_node_state(&mut w, n);
    w.buf
}

/// Decode one node's registry state from a bare payload produced by
/// [`encode_node_state`]. Fails with a typed error on any corruption.
pub fn decode_node_state(bytes: &[u8]) -> Result<RegistryNodeState, SnapshotError> {
    let mut r = Reader::new(bytes);
    let state = read_node_state(&mut r, bytes.len())?;
    r.done()?;
    Ok(state)
}

/// Serialize the cloud's registry state.
pub fn snapshot_registry(nodes: &[RegistryNodeState]) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(nodes.len() as u32);
    for n in nodes {
        write_node_state(&mut w, n);
    }
    seal(KIND_REGISTRY, &w.buf)
}

/// Restore the cloud's registry state. Fails with a typed error on any
/// corruption; never panics.
pub fn restore_registry(bytes: &[u8]) -> Result<Vec<RegistryNodeState>, SnapshotError> {
    let payload = unseal(KIND_REGISTRY, bytes)?;
    let mut r = Reader::new(payload);
    let count = r.u32()? as usize;
    if count > payload.len() {
        return Err(SnapshotError::Truncated);
    }
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        nodes.push(read_node_state(&mut r, payload.len())?);
    }
    r.done()?;
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Vec<RegistryNodeState> {
        vec![
            RegistryNodeState {
                name: "open-field".into(),
                ladder: HealthLadder::default(),
                reachable: true,
                last_seed: Some(777),
                survey_fp: Some(0xDEAD_BEEF),
                cells_fp: None,
                tv_fp: Some(1),
                baseline: vec![(0, "Tower 1".into(), -61.25), (1, "KSE-22".into(), -33.5)],
                attested: Some((12, 0x1234_5678_9ABC_DEF0)),
                eviction_reason: None,
            },
            RegistryNodeState {
                name: "ghost-rig".into(),
                ladder: HealthLadder {
                    consecutive_failures: 2,
                    consecutive_anomalies: 4,
                    health: NodeHealth::Evicted,
                },
                reachable: false,
                last_seed: None,
                survey_fp: None,
                cells_fp: None,
                tv_fp: None,
                baseline: Vec::new(),
                attested: None,
                eviction_reason: Some("spot-check: 4/4 sampled ICAOs unknown".into()),
            },
        ]
    }

    #[test]
    fn registry_roundtrip() {
        let nodes = sample_registry();
        let bytes = snapshot_registry(&nodes);
        let back = restore_registry(&bytes).unwrap();
        assert_eq!(back, nodes);
    }

    #[test]
    fn registry_snapshot_is_deterministic() {
        let nodes = sample_registry();
        assert_eq!(snapshot_registry(&nodes), snapshot_registry(&nodes));
    }

    #[test]
    fn wrong_kind_is_typed() {
        let bytes = snapshot_registry(&sample_registry());
        let err = unseal(KIND_NODE, &bytes).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::WrongKind {
                expected: KIND_NODE,
                found: KIND_REGISTRY
            }
        );
    }

    #[test]
    fn every_truncation_fails_loudly() {
        let bytes = snapshot_registry(&sample_registry());
        for n in 0..bytes.len() {
            let err = restore_registry(&bytes[..n]);
            assert!(err.is_err(), "truncation to {n} bytes restored silently");
        }
    }

    #[test]
    fn every_bit_flip_fails_loudly() {
        let bytes = snapshot_registry(&sample_registry());
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    restore_registry(&bad).is_err(),
                    "bit flip at byte {i} bit {bit} restored silently"
                );
            }
        }
    }

    #[test]
    fn bare_node_state_roundtrips() {
        for n in sample_registry() {
            let bytes = encode_node_state(&n);
            assert_eq!(decode_node_state(&bytes).unwrap(), n);
        }
    }

    #[test]
    fn bare_node_state_truncations_fail_loudly() {
        let n = &sample_registry()[0];
        let bytes = encode_node_state(n);
        for cut in 0..bytes.len() {
            assert!(
                decode_node_state(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes decoded silently"
            );
        }
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = snapshot_registry(&sample_registry());
        bytes[4] = 9; // version low byte
        let err = restore_registry(&bytes).unwrap_err();
        assert_eq!(err, SnapshotError::UnsupportedVersion(9));
    }
}
