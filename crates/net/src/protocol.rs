//! Node ⇄ cloud wire protocol.
//!
//! Every message is serde-serializable: the in-process transport carries
//! the structs directly, and the integration tests round-trip them through
//! JSON to prove a networked deployment could too.

use aircal_cellular::CellMeasurement;
use aircal_core::survey::{SurveyConfig, SurveyResult};
use aircal_geo::LatLon;
use aircal_tv::TvMeasurement;
use serde::{Deserialize, Serialize};

/// What a node operator *claims* about their installation when they
/// register — exactly the self-reported data the paper wants to verify
/// (cf. CBRS: "every CBRS modem is required to self-report its location,
/// indoor/outdoor status, installation situation").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeClaims {
    /// Node name.
    pub name: String,
    /// Claimed position.
    pub position: LatLon,
    /// Claimed outdoor installation?
    pub outdoor: bool,
    /// Claimed usable frequency range, Hz.
    pub freq_range_hz: (f64, f64),
    /// Asking price per hour of sensing, arbitrary units.
    pub price_per_hour: f64,
}

/// Delivery envelope stamped on every request and echoed verbatim on its
/// reply: the link's stable node id plus a per-link monotonic sequence
/// number (the wire-attempt index).
///
/// The envelope is what makes at-least-once delivery safe. Retries,
/// duplicated frames and reordered frames all surface as replies whose
/// `seq` is not the one currently in flight; the cloud's per-node dedup
/// window drops them before any trust or profile effect is applied, so
/// delivery effort never changes calibration state — exactly-once
/// effects over an at-least-once wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Envelope {
    /// Stable per-node identifier (FNV-1a of the registered name).
    pub node_id: u64,
    /// Per-link monotonic sequence number, assigned at send time.
    pub seq: u64,
}

/// A message together with its delivery envelope. The transport carries
/// `Sequenced<Request>` down and `Sequenced<Response>` back; the node
/// service loop echoes the request envelope on the reply unchanged.
///
/// Not serde-derived (the vendored derive shim has no generics
/// support); a networked deployment serializes the [`Envelope`] and the
/// body side by side, both of which round-trip through JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct Sequenced<T> {
    /// Delivery envelope (who, and which attempt).
    pub env: Envelope,
    /// The protocol message itself.
    pub body: T,
}

/// A request from the cloud to a node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Describe yourself (returns the operator's claims).
    Describe,
    /// Run an ADS-B directional survey with this configuration and seed.
    RunSurvey {
        /// Survey parameters.
        config: SurveyConfig,
        /// Seed for the capture (the cloud picks it so a cheater cannot
        /// pre-compute plausible data).
        seed: u64,
    },
    /// Run the cellular sweep.
    ScanCells {
        /// Measurement seed.
        seed: u64,
    },
    /// Run the broadcast-TV sweep.
    SweepTv {
        /// Measurement seed.
        seed: u64,
    },
    /// The rented product: monitor a band and return its PSD. The node
    /// tunes to `center_hz`, captures, and reports a Welch PSD.
    MonitorBand {
        /// Tuned center frequency, Hz.
        center_hz: f64,
        /// Capture sample rate / span, Hz.
        span_hz: f64,
        /// Capture seed.
        seed: u64,
    },
    /// Attest to the node's service history: return the hash chain over
    /// the first `upto` measurement requests it ever served (and the
    /// current chain head). The cloud compares the reply against what it
    /// recorded earlier, so a node restarting from a forked or
    /// rolled-back snapshot cannot silently re-enter.
    Attest {
        /// Chain length to attest (clamped to the node's served count).
        upto: u64,
    },
    /// Orderly shutdown.
    Shutdown,
}

impl Request {
    /// Short tag for logs and audit-step reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Describe => "describe",
            Request::RunSurvey { .. } => "survey",
            Request::ScanCells { .. } => "cells",
            Request::SweepTv { .. } => "tv",
            Request::MonitorBand { .. } => "monitor",
            Request::Attest { .. } => "attest",
            Request::Shutdown => "shutdown",
        }
    }

    /// The [`Response::kind`] this request must produce. The transport
    /// uses this to classify a mismatched reply as corrupt/wrong-kind
    /// instead of handing it to the caller.
    pub fn expected_response_kind(&self) -> &'static str {
        match self {
            Request::Describe => "description",
            Request::RunSurvey { .. } => "survey",
            Request::ScanCells { .. } => "cells",
            Request::SweepTv { .. } => "tv",
            Request::MonitorBand { .. } => "psd",
            Request::Attest { .. } => "attestation",
            Request::Shutdown => "bye",
        }
    }
}

/// A node's response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Reply to [`Request::Describe`].
    Description(NodeClaims),
    /// Reply to [`Request::RunSurvey`].
    Survey(SurveyResult),
    /// Reply to [`Request::ScanCells`].
    Cells(Vec<CellMeasurement>),
    /// Reply to [`Request::SweepTv`].
    Tv(Vec<TvMeasurement>),
    /// Reply to [`Request::MonitorBand`]: two-sided PSD bins (linear,
    /// full-scale-relative; DC at index 0) plus the capture parameters.
    Psd {
        /// Tuned center, Hz.
        center_hz: f64,
        /// Span, Hz.
        span_hz: f64,
        /// PSD bins.
        bins: Vec<f64>,
    },
    /// Reply to [`Request::Attest`]: the node's sworn service history.
    Attestation {
        /// Measurement requests served in this node's lifetime.
        served: u64,
        /// Hash-chain head over the full history.
        chain: u64,
        /// Hash-chain value after `min(upto, served)` requests.
        upto_chain: u64,
    },
    /// The node acknowledged shutdown.
    Bye,
}

impl Response {
    /// Short tag for logs.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Description(_) => "description",
            Response::Survey(_) => "survey",
            Response::Cells(_) => "cells",
            Response::Tv(_) => "tv",
            Response::Psd { .. } => "psd",
            Response::Attestation { .. } => "attestation",
            Response::Bye => "bye",
        }
    }
}

// `SurveyResult` intentionally does not implement PartialEq in core; add a
// cheap equality for protocol tests via JSON comparison instead.

#[cfg(test)]
mod tests {
    use super::*;
    use aircal_core::survey::SurveyConfig;

    #[test]
    fn requests_round_trip_json() {
        let reqs = vec![
            Request::Describe,
            Request::RunSurvey {
                config: SurveyConfig::quick(),
                seed: 7,
            },
            Request::ScanCells { seed: 1 },
            Request::SweepTv { seed: 2 },
            Request::MonitorBand {
                center_hz: 545e6,
                span_hz: 8e6,
                seed: 3,
            },
            Request::Attest { upto: 9 },
            Request::Shutdown,
        ];
        for r in reqs {
            let json = serde_json::to_string(&r).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn claims_round_trip_json() {
        let c = NodeClaims {
            name: "berkeley-roof-01".into(),
            position: LatLon::new(37.87, -122.27, 19.5),
            outdoor: true,
            freq_range_hz: (100e6, 6e9),
            price_per_hour: 1.25,
        };
        let back: NodeClaims = serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn every_request_kind_pairs_with_a_response_kind() {
        let reqs = [
            Request::Describe,
            Request::RunSurvey {
                config: SurveyConfig::quick(),
                seed: 0,
            },
            Request::ScanCells { seed: 0 },
            Request::SweepTv { seed: 0 },
            Request::MonitorBand {
                center_hz: 5e8,
                span_hz: 8e6,
                seed: 0,
            },
            Request::Attest { upto: 0 },
            Request::Shutdown,
        ];
        let kinds: Vec<&str> = reqs.iter().map(|r| r.kind()).collect();
        assert_eq!(
            kinds,
            vec!["describe", "survey", "cells", "tv", "monitor", "attest", "shutdown"]
        );
        let expected: Vec<&str> = reqs.iter().map(|r| r.expected_response_kind()).collect();
        assert_eq!(
            expected,
            vec![
                "description",
                "survey",
                "cells",
                "tv",
                "psd",
                "attestation",
                "bye"
            ]
        );
    }

    #[test]
    fn response_kinds() {
        assert_eq!(Response::Bye.kind(), "bye");
        assert_eq!(Response::Cells(vec![]).kind(), "cells");
        let psd = Response::Psd {
            center_hz: 5e8,
            span_hz: 8e6,
            bins: vec![1.0, 2.0],
        };
        assert_eq!(psd.kind(), "psd");
        let back: Response = serde_json::from_str(&serde_json::to_string(&psd).unwrap()).unwrap();
        assert_eq!(back, psd);
    }
}
