//! Burst-mode capture rendering.
//!
//! A 30 s ADS-B survey at 2 Msps is 60 M samples, almost all of them pure
//! noise. The renderer instead groups scheduled bursts into *clusters* of
//! overlapping transmissions and synthesizes one IQ window per cluster
//! (guard noise + superimposed bursts + guard noise). Overlapping bursts
//! from different aircraft end up garbling each other exactly as on the
//! real channel; disjoint bursts never cost more than their own window.

use crate::frontend::Frontend;
use aircal_dsp::{derive_stream_seed, par_map_with, Cplx, DspScratch};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A burst scheduled for rendering.
#[derive(Debug, Clone)]
pub struct BurstPlan {
    /// On-air start time, seconds.
    pub start_s: f64,
    /// Unit-amplitude baseband waveform.
    pub waveform: Vec<Cplx>,
    /// Power at the antenna port, dBm.
    pub rx_power_dbm: f64,
    /// Carrier phase at the first sample, radians.
    pub phase0: f64,
}

/// One rendered capture window.
#[derive(Debug, Clone)]
pub struct RenderedWindow {
    /// Absolute time of the first sample, seconds.
    pub start_s: f64,
    /// The IQ samples.
    pub samples: Vec<Cplx>,
}

impl RenderedWindow {
    /// Return this window's sample buffer to a scratch pool so the next
    /// render reuses it — the step that closes the zero-allocation loop
    /// (render → decode → recycle) in steady state.
    pub fn recycle(self, scratch: &mut DspScratch) {
        scratch.put_cplx(self.samples);
    }
}

/// Renders burst plans into capture windows through a [`Frontend`].
#[derive(Debug, Clone)]
pub struct CaptureRenderer {
    /// The front end everything is rendered through.
    pub frontend: Frontend,
    /// Noise guard before/after each cluster, samples.
    pub guard_samples: usize,
}

impl CaptureRenderer {
    /// Create a renderer with a default half-frame guard.
    pub fn new(frontend: Frontend) -> Self {
        Self {
            frontend,
            guard_samples: 128,
        }
    }

    /// Group plan indices into clusters of overlapping (guard-merged)
    /// bursts, each cluster sorted by start time and the cluster list
    /// itself in time order. Pure scheduling — no rendering, no RNG.
    pub fn cluster_plans(&self, plans: &[BurstPlan]) -> Vec<Vec<usize>> {
        if plans.is_empty() {
            return Vec::new();
        }
        let fs = self.frontend.config.sample_rate_hz;
        let guard_s = self.guard_samples as f64 / fs;
        let mut order: Vec<usize> = (0..plans.len()).collect();
        order.sort_by(|&a, &b| plans[a].start_s.partial_cmp(&plans[b].start_s).unwrap());

        let mut clusters: Vec<Vec<usize>> = Vec::new();
        let mut cluster: Vec<usize> = Vec::new();
        let mut cluster_end = f64::NEG_INFINITY;
        for idx in order {
            let p = &plans[idx];
            let p_end = p.start_s + p.waveform.len() as f64 / fs + guard_s;
            if cluster.is_empty() || p.start_s <= cluster_end + guard_s {
                cluster.push(idx);
                cluster_end = cluster_end.max(p_end);
            } else {
                clusters.push(std::mem::take(&mut cluster));
                cluster.push(idx);
                cluster_end = p_end;
            }
        }
        if !cluster.is_empty() {
            clusters.push(cluster);
        }
        clusters
    }

    /// Render one cluster (indices into `plans`) into its window, using
    /// `rng` for the front end's noise. Working buffers come from
    /// `scratch`; the window's sample buffer is taken from the pool too,
    /// so recycling decoded windows ([`RenderedWindow::recycle`]) makes
    /// the steady-state render loop allocation-free.
    pub fn render_cluster_with(
        &self,
        plans: &[BurstPlan],
        cluster: &[usize],
        rng: &mut ChaCha8Rng,
        scratch: &mut DspScratch,
    ) -> RenderedWindow {
        let fs = self.frontend.config.sample_rate_hz;
        let start_s = plans[cluster[0]].start_s - self.guard_samples as f64 / fs;
        let end_s = cluster
            .iter()
            .map(|&i| plans[i].start_s + plans[i].waveform.len() as f64 / fs)
            .fold(f64::NEG_INFINITY, f64::max)
            + self.guard_samples as f64 / fs;
        let len = ((end_s - start_s) * fs).ceil() as usize;
        let mut buf = scratch.take_cplx(len);
        let mut sig = scratch.take_cplx(0);
        for &i in cluster {
            let p = &plans[i];
            let offset = ((p.start_s - start_s) * fs).round() as usize;
            self.frontend
                .scale_and_impair_into(&p.waveform, p.rx_power_dbm, p.phase0, offset, &mut sig);
            for (k, s) in sig.iter().enumerate() {
                if offset + k < buf.len() {
                    buf[offset + k] += *s;
                }
            }
        }
        scratch.put_cplx(sig);
        self.frontend.finalize(&mut buf, rng);
        RenderedWindow {
            start_s,
            samples: buf,
        }
    }

    /// Render one cluster with throwaway scratch (allocating wrapper over
    /// [`CaptureRenderer::render_cluster_with`]).
    fn render_cluster(
        &self,
        plans: &[BurstPlan],
        cluster: &[usize],
        rng: &mut ChaCha8Rng,
    ) -> RenderedWindow {
        let mut scratch = DspScratch::new();
        self.render_cluster_with(plans, cluster, rng, &mut scratch)
    }

    /// Render all plans into windows. Plans need not be sorted. Returns
    /// windows sorted by start time, one per cluster of overlapping bursts.
    ///
    /// One shared noise RNG runs through the clusters in time order, so
    /// this path is inherently serial; prefer [`Self::render_seeded`] for
    /// the thread-scalable, per-cluster-seeded variant.
    pub fn render(&self, plans: &[BurstPlan], rng: &mut ChaCha8Rng) -> Vec<RenderedWindow> {
        self.cluster_plans(plans)
            .iter()
            .map(|cluster| self.render_cluster(plans, cluster, rng))
            .collect()
    }

    /// Render all plans into windows with **per-cluster** noise streams
    /// derived from `(noise_seed, cluster index)`, fanned out over up to
    /// `threads` worker threads.
    ///
    /// Because each cluster's noise depends only on its index — not on
    /// how many threads ran or which rendered it first — the output is
    /// bit-identical for every `threads` value, including 1.
    pub fn render_seeded(
        &self,
        plans: &[BurstPlan],
        noise_seed: u64,
        threads: usize,
    ) -> Vec<RenderedWindow> {
        let mut scratches: Vec<DspScratch> =
            (0..threads.max(1)).map(|_| DspScratch::new()).collect();
        let (mut slots, mut out) = (Vec::new(), Vec::new());
        self.render_seeded_with(plans, noise_seed, threads, &mut scratches, &mut slots, &mut out);
        out
    }

    /// [`CaptureRenderer::render_seeded`] with caller-owned per-worker
    /// scratch pools and result buffers (see
    /// [`aircal_dsp::par_map_with`] for the `scratches`/`slots`/`out`
    /// contract). Reusing them across surveys keeps the render fan-out
    /// allocation-free per burst in steady state; output is bit-identical
    /// to [`CaptureRenderer::render_seeded`] at any thread count.
    pub fn render_seeded_with(
        &self,
        plans: &[BurstPlan],
        noise_seed: u64,
        threads: usize,
        scratches: &mut [DspScratch],
        slots: &mut Vec<Option<RenderedWindow>>,
        out: &mut Vec<RenderedWindow>,
    ) {
        let _span = aircal_obs::span!("render_windows");
        let clusters = self.cluster_plans(plans);
        par_map_with(&clusters, threads, scratches, slots, out, |ci, cluster, scratch| {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_stream_seed(noise_seed, ci as u64));
            self.render_cluster_with(plans, cluster, &mut rng, scratch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{capture_rng, FrontendConfig};

    fn renderer() -> CaptureRenderer {
        CaptureRenderer::new(Frontend::new(FrontendConfig::bladerf_xa9(1.09e9, 2e6)))
    }

    fn plan(start_s: f64, len: usize, dbm: f64) -> BurstPlan {
        BurstPlan {
            start_s,
            waveform: vec![Cplx::ONE; len],
            rx_power_dbm: dbm,
            phase0: 0.0,
        }
    }

    #[test]
    fn empty_plans_empty_windows() {
        let mut rng = capture_rng(1);
        assert!(renderer().render(&[], &mut rng).is_empty());
    }

    #[test]
    fn disjoint_bursts_get_separate_windows() {
        let r = renderer();
        let mut rng = capture_rng(2);
        let windows = r.render(&[plan(0.0, 240, -70.0), plan(1.0, 240, -70.0)], &mut rng);
        assert_eq!(windows.len(), 2);
        assert!(windows[0].start_s < windows[1].start_s);
        // Each window: guard + burst + guard.
        assert_eq!(windows[0].samples.len(), 240 + 2 * r.guard_samples);
    }

    #[test]
    fn overlapping_bursts_share_a_window() {
        let r = renderer();
        let mut rng = capture_rng(3);
        // Second burst starts 50 samples (25 µs) into the first.
        let windows = r.render(
            &[plan(0.0, 240, -70.0), plan(25e-6, 240, -70.0)],
            &mut rng,
        );
        assert_eq!(windows.len(), 1);
        let expected_len = 50 + 240 + 2 * r.guard_samples;
        assert_eq!(windows[0].samples.len(), expected_len);
    }

    #[test]
    fn superposition_adds_power() {
        use aircal_dsp::cplx::mean_power;
        let r = renderer();
        let mut rng1 = capture_rng(4);
        let mut rng2 = capture_rng(4);
        let single = r.render(&[plan(0.0, 2_000, -60.0)], &mut rng1);
        let double = r.render(
            &[plan(0.0, 2_000, -60.0), plan(0.0, 2_000, -60.0)],
            &mut rng2,
        );
        let g = r.guard_samples;
        let p1 = mean_power(&single[0].samples[g..g + 2_000]);
        let p2 = mean_power(&double[0].samples[g..g + 2_000]);
        // Two coherent equal bursts (same phase): 4× the power (+6 dB).
        assert!((p2 / p1 - 4.0).abs() < 0.3, "ratio {}", p2 / p1);
    }

    #[test]
    fn unsorted_plans_sorted_windows() {
        let r = renderer();
        let mut rng = capture_rng(5);
        let windows = r.render(
            &[plan(2.0, 100, -70.0), plan(0.5, 100, -70.0), plan(1.2, 100, -70.0)],
            &mut rng,
        );
        assert_eq!(windows.len(), 3);
        for w in windows.windows(2) {
            assert!(w[0].start_s < w[1].start_s);
        }
    }

    #[test]
    fn window_timing_accounts_for_guard() {
        let r = renderer();
        let mut rng = capture_rng(6);
        let windows = r.render(&[plan(1.0, 240, -70.0)], &mut rng);
        let guard_s = r.guard_samples as f64 / 2e6;
        assert!((windows[0].start_s - (1.0 - guard_s)).abs() < 1e-9);
    }

    /// `render_seeded` must give bit-identical windows for any thread
    /// count — the property the parallel survey pipeline stands on.
    #[test]
    fn render_seeded_is_thread_count_invariant() {
        let r = renderer();
        let plans: Vec<BurstPlan> = (0..40)
            .map(|i| plan(i as f64 * 0.01 * if i % 3 == 0 { 1.0 } else { 1.00002 }, 240, -75.0))
            .collect();
        let serial = r.render_seeded(&plans, 99, 1);
        for threads in [2, 4, 8] {
            let parallel = r.render_seeded(&plans, 99, threads);
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.start_s, b.start_s);
                assert_eq!(a.samples, b.samples);
            }
        }
    }

    /// Seeded rendering produces the same cluster geometry as the
    /// shared-RNG path (same windows, same lengths, same start times).
    #[test]
    fn render_seeded_matches_render_geometry() {
        let r = renderer();
        let plans = [plan(0.0, 240, -70.0), plan(25e-6, 240, -70.0), plan(1.0, 100, -72.0)];
        let mut rng = capture_rng(7);
        let shared = r.render(&plans, &mut rng);
        let seeded = r.render_seeded(&plans, 7, 4);
        assert_eq!(shared.len(), seeded.len());
        for (a, b) in shared.iter().zip(&seeded) {
            assert_eq!(a.start_s, b.start_s);
            assert_eq!(a.samples.len(), b.samples.len());
        }
    }
}
