//! Stochastic channel components: log-normal shadowing and Rician fading.
//!
//! These supply the variability that makes the paper's plots look the way
//! they do: receptions near the edge of a blocked sector are hit-or-miss,
//! and close-in aircraft are received "regardless of direction, likely due
//! to a combination of multipath reflections and penetrating walls" — i.e.
//! a strong diffuse component when the direct ray is blocked.

use rand_chacha::ChaCha8Rng;

/// Log-normal shadowing: a zero-mean Gaussian in the dB domain.
#[derive(Debug, Clone, Copy)]
pub struct Shadowing {
    /// Standard deviation in dB (typical: 4–8 outdoor, 7–12 indoor).
    pub sigma_db: f64,
}

impl Shadowing {
    /// Create a shadowing process with the given σ (clamped at 0).
    pub fn new(sigma_db: f64) -> Self {
        Self {
            sigma_db: sigma_db.max(0.0),
        }
    }

    /// Draw one shadowing realization in dB (positive = extra loss).
    pub fn sample_db(&self, rng: &mut ChaCha8Rng) -> f64 {
        gaussian(rng) * self.sigma_db
    }
}

/// Rician fading: a dominant (line-of-sight) component plus diffuse
/// multipath, parameterized by the K-factor (power ratio of the two).
///
/// `K → ∞` is a pure LOS channel (no fading); `K = 0` degenerates to
/// Rayleigh (no dominant path) — the regime behind a blocking wall.
#[derive(Debug, Clone, Copy)]
pub struct RicianFading {
    /// K-factor as a linear power ratio (not dB).
    pub k_linear: f64,
}

impl RicianFading {
    /// From a K-factor in dB.
    pub fn from_k_db(k_db: f64) -> Self {
        Self {
            k_linear: 10f64.powf(k_db / 10.0),
        }
    }

    /// Rayleigh fading (K = 0).
    pub fn rayleigh() -> Self {
        Self { k_linear: 0.0 }
    }

    /// Draw one fading power gain (linear, mean 1.0). Multiply the received
    /// *power* by this; in dB it is `10·log₁₀(gain)`.
    pub fn sample_power_gain(&self, rng: &mut ChaCha8Rng) -> f64 {
        let k = self.k_linear.max(0.0);
        // Complex envelope: sqrt(K/(K+1)) LOS + sqrt(1/(K+1)) CN(0,1).
        let los = (k / (k + 1.0)).sqrt();
        let sigma = (1.0 / (2.0 * (k + 1.0))).sqrt();
        let re = los + sigma * gaussian(rng);
        let im = sigma * gaussian(rng);
        re * re + im * im
    }

    /// Fading margin in dB exceeded with probability `p` (by Monte Carlo
    /// over `n` draws; used for link-budget headroom estimates in tests).
    pub fn outage_margin_db(&self, p: f64, n: usize, rng: &mut ChaCha8Rng) -> f64 {
        let mut gains: Vec<f64> = (0..n.max(1)).map(|_| self.sample_power_gain(rng)).collect();
        gains.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((p.clamp(0.0, 1.0)) * (gains.len() - 1) as f64).round() as usize;
        -10.0 * gains[idx].max(1e-12).log10()
    }
}

/// One standard normal draw: the real part of the portable Box–Muller
/// pair, from two words of `rng`.
fn gaussian(rng: &mut ChaCha8Rng) -> f64 {
    aircal_dsp::normal::draw(rng, 1.0).re
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn shadowing_zero_sigma_is_deterministic() {
        let s = Shadowing::new(0.0);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(s.sample_db(&mut r), 0.0);
        }
    }

    #[test]
    fn shadowing_statistics() {
        let s = Shadowing::new(6.0);
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| s.sample_db(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!((var.sqrt() - 6.0).abs() < 0.2, "sigma {}", var.sqrt());
    }

    #[test]
    fn rician_mean_power_is_unity() {
        for k_db in [-10.0, 0.0, 6.0, 12.0] {
            let f = RicianFading::from_k_db(k_db);
            let mut r = rng();
            let n = 50_000;
            let mean: f64 = (0..n).map(|_| f.sample_power_gain(&mut r)).sum::<f64>() / n as f64;
            assert!((mean - 1.0).abs() < 0.03, "K={k_db} dB: mean {mean}");
        }
    }

    #[test]
    fn high_k_fades_less_than_rayleigh() {
        let mut r1 = rng();
        let mut r2 = rng();
        let strong_los = RicianFading::from_k_db(12.0);
        let rayleigh = RicianFading::rayleigh();
        let var = |f: &RicianFading, r: &mut ChaCha8Rng| {
            let n = 20_000;
            let xs: Vec<f64> = (0..n).map(|_| f.sample_power_gain(r)).collect();
            let m = xs.iter().sum::<f64>() / n as f64;
            xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64
        };
        assert!(var(&strong_los, &mut r1) < var(&rayleigh, &mut r2) / 3.0);
    }

    #[test]
    fn rayleigh_deep_fade_probability() {
        // P(gain < 0.1) for Rayleigh power is 1 - e^{-0.1} ≈ 0.095.
        let f = RicianFading::rayleigh();
        let mut r = rng();
        let n = 50_000;
        let deep = (0..n).filter(|_| f.sample_power_gain(&mut r) < 0.1).count() as f64 / n as f64;
        assert!((deep - 0.095).abs() < 0.01, "got {deep}");
    }

    #[test]
    fn outage_margin_larger_for_rayleigh() {
        let mut r1 = rng();
        let mut r2 = rng();
        let ray = RicianFading::rayleigh().outage_margin_db(0.05, 20_000, &mut r1);
        let los = RicianFading::from_k_db(12.0).outage_margin_db(0.05, 20_000, &mut r2);
        assert!(ray > los + 5.0, "rayleigh {ray} vs LOS {los}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let f = RicianFading::from_k_db(3.0);
        let a: Vec<f64> = {
            let mut r = rng();
            (0..8).map(|_| f.sample_power_gain(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = rng();
            (0..8).map(|_| f.sample_power_gain(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
