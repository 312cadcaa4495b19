//! A byte-level pin on the calibration reports: every scenario world is
//! calibrated with the production configuration at parallelism 1 and 2,
//! and an FNV-1a digest over the reports' JSON must equal the literal
//! below. Any change to an output bit anywhere in the pipeline (sky and IQ
//! synthesis, ADS-B decode, cell scan, TV chain, FoV, inference) moves it.

use aircal::core::wal::{fnv1a, FNV1A_OFFSET};
use aircal::prelude::*;

/// Digest of the seven reports (seeds 7, 8, …, 13 in `all_scenarios()`
/// order) under `Calibrator::default()`.
const REPORTS_DIGEST: u64 = 0xd76b_0867_7def_240a;

fn reports_digest(parallelism: usize) -> u64 {
    let cal = Calibrator::default().with_parallelism(parallelism);
    all_scenarios()
        .iter()
        .zip(7u64..)
        .fold(FNV1A_OFFSET, |h, (s, seed)| {
            fnv1a(
                h,
                cal.calibrate(&s.world, &s.site, seed).to_json().as_bytes(),
            )
        })
}

#[test]
fn calibration_reports_match_pinned_digest() {
    for parallelism in [1usize, 2] {
        let digest = reports_digest(parallelism);
        assert_eq!(
            digest, REPORTS_DIGEST,
            "parallelism {parallelism}: report digest {digest:#018x}"
        );
    }
}
