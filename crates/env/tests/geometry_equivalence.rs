//! Property tests (vendored `proptest` shim): the geometry acceleration
//! layer is *exact*. Over randomized worlds — 0 to 64 buildings of random
//! placement, size, height, and material — and randomized sites, emitters,
//! and frequencies:
//!
//! * the spatial-index `path_profile` is bit-identical to brute force;
//! * the path memo is bit-identical warm and cold (a hit can only return
//!   what the miss path computed).

use aircal_env::{Building, Enclosure, GeoScratch, PathCache, SensorSite, World};
use aircal_geo::{LatLon, Point2, Sector};
use aircal_rfprop::{Material, PathProfile};
use proptest::prelude::*;

fn origin() -> LatLon {
    LatLon::surface(37.8716, -122.2727)
}

fn material(tag: u8) -> Material {
    match tag % 6 {
        0 => Material::Glass,
        1 => Material::IrrGlass,
        2 => Material::Concrete,
        3 => Material::Brick,
        4 => Material::Drywall,
        _ => Material::Wood,
    }
}

/// Deterministically expand compact per-building tuples into a world.
fn build_world(specs: &[(f64, f64, f64, f64, f64, u8)]) -> World {
    let mut world = World::open(origin());
    for (i, &(cx, cy, w, d, h, m)) in specs.iter().enumerate() {
        world.buildings.push(Building::rect(
            format!("b{i}"),
            Point2::new(cx, cy),
            w.max(0.5),
            d.max(0.5),
            h.max(1.0),
            material(m),
        ));
    }
    world
}

fn assert_bits_equal(a: &PathProfile, b: &PathProfile, what: &str) -> Result<(), TestCaseError> {
    for (name, x, y) in [
        ("distance_m", a.distance_m, b.distance_m),
        ("freq_hz", a.freq_hz, b.freq_hz),
        ("diffraction_db", a.diffraction_db, b.diffraction_db),
        ("penetration_db", a.penetration_db, b.penetration_db),
        ("excess_db", a.excess_db, b.excess_db),
        ("k_factor_db", a.k_factor_db, b.k_factor_db),
        (
            "shadowing_sigma_db",
            a.shadowing_sigma_db,
            b.shadowing_sigma_db,
        ),
    ] {
        prop_assert!(
            x.to_bits() == y.to_bits(),
            "{what}: {name} diverged ({x:?} vs {y:?})"
        );
    }
    Ok(())
}

proptest! {
    /// Indexed `path_profile` over a random world is bit-identical to the
    /// brute-force loop over every building, for outdoor and indoor sites.
    #[test]
    fn indexed_profile_bit_identical_to_brute(
        specs in proptest::collection::vec(
            (-400.0f64..400.0, -400.0f64..400.0, 0.5f64..80.0, 0.5f64..80.0,
             1.0f64..60.0, proptest::any::<u8>()),
            0..64,
        ),
        site_bearing in 0.0f64..360.0,
        site_range in 0.0f64..300.0,
        site_alt in 1.0f64..40.0,
        indoor in proptest::any::<bool>(),
        em_bearing in 0.0f64..360.0,
        em_range in 50.0f64..60_000.0,
        em_alt in 0.0f64..11_000.0,
        freq_mhz in 100.0f64..6_000.0,
    ) {
        let world = build_world(&specs);
        let mut pos = origin().destination(site_bearing, site_range);
        pos.alt_m = site_alt;
        let site = if indoor {
            SensorSite::indoor("p", pos, Enclosure::behind_window(Sector::centered(90.0, 40.0)))
        } else {
            SensorSite::outdoor("p", pos)
        };
        let mut emitter = pos.destination(em_bearing, em_range);
        emitter.alt_m = em_alt;
        let freq_hz = freq_mhz * 1e6;

        let brute = world.path_profile(&site, &emitter, freq_hz);
        let index = world.index();
        let mut scratch = GeoScratch::new();
        let indexed = world.path_profile_indexed(&index, &site, &emitter, freq_hz, &mut scratch);
        assert_bits_equal(&brute, &indexed, "indexed vs brute")?;
    }

    /// The path memo is deterministic: a cold miss and the warm hit that
    /// follows return the same bits, which are the brute-force bits.
    #[test]
    fn path_cache_warm_equals_cold(
        specs in proptest::collection::vec(
            (-300.0f64..300.0, -300.0f64..300.0, 1.0f64..60.0, 1.0f64..60.0,
             2.0f64..50.0, proptest::any::<u8>()),
            0..32,
        ),
        em_bearings in proptest::collection::vec(0.0f64..360.0, 1..8),
        em_range in 100.0f64..40_000.0,
        freq_mhz in 100.0f64..6_000.0,
    ) {
        let world = build_world(&specs);
        let mut pos = origin();
        pos.alt_m = 10.0;
        let site = SensorSite::outdoor("p", pos);
        let freq_hz = freq_mhz * 1e6;
        let index = world.index();
        let mut cache = PathCache::new();
        let mut scratch = GeoScratch::new();

        let emitters: Vec<LatLon> = em_bearings
            .iter()
            .map(|&b| {
                let mut e = pos.destination(b, em_range);
                e.alt_m = 9_000.0;
                e
            })
            .collect();
        for e in &emitters {
            let brute = world.path_profile(&site, e, freq_hz);
            let cold =
                world.path_profile_cached(&index, &mut cache, &site, e, freq_hz, &mut scratch);
            let warm =
                world.path_profile_cached(&index, &mut cache, &site, e, freq_hz, &mut scratch);
            assert_bits_equal(&brute, &cold, "cold vs brute")?;
            assert_bits_equal(&cold, &warm, "warm vs cold")?;
        }
        // Distinct bearings can collide only if two emitters share bit
        // patterns; with distinct keys every second lookup hit.
        prop_assert!(cache.hits() >= emitters.len() as u64);
        prop_assert!(cache.len() <= emitters.len());
    }
}
