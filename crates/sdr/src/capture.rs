//! Burst-mode capture rendering.
//!
//! A 30 s ADS-B survey at 2 Msps is 60 M samples, almost all of them pure
//! noise. The renderer instead groups scheduled bursts into *clusters* of
//! overlapping transmissions and synthesizes one IQ window per cluster
//! (guard noise + superimposed bursts + guard noise). Overlapping bursts
//! from different aircraft end up garbling each other exactly as on the
//! real channel; disjoint bursts never cost more than their own window.
//!
//! A burst is on-off keyed, so a plan carries only which chips hold a unit
//! pulse ([`ChipMask`]), not a waveform: rendering adds the burst's
//! impaired pulse at its on-chips and nothing elsewhere.

use crate::frontend::Frontend;
use aircal_dsp::{derive_stream_seed, par_map_with, Cplx, DspScratch};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The on/off chips of one unit-pulse burst, one bit per chip: the burst's
/// unit-amplitude waveform is `1 + 0i` at every on-chip and zero at every
/// other chip of its [`ChipMask::len`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChipMask {
    words: Vec<u64>,
    len: usize,
}

impl ChipMask {
    /// A mask of `len` chips from its words: chip `c` is on when bit
    /// `c % 64` of `words[c / 64]` is set.
    ///
    /// # Panics
    /// If `words` is not `len.div_ceil(64)` long or sets a chip at or past
    /// `len`.
    pub fn from_words(len: usize, words: &[u64]) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "words of a {len}-chip mask");
        let spare = match (words.last(), len % 64) {
            (Some(&last), used @ 1..) => last >> used,
            _ => 0,
        };
        assert!(spare == 0, "chips past a {len}-chip mask");
        Self {
            words: words.to_vec(),
            len,
        }
    }

    /// Chips in the burst, on and off.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the burst has no chips at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The on-chips, ascending.
    pub fn on_chips(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    64 * w + b
                })
            })
        })
    }
}

/// A burst scheduled for rendering.
#[derive(Debug, Clone)]
pub struct BurstPlan {
    /// On-air start time, seconds.
    pub start_s: f64,
    /// Which chips of the unit-amplitude baseband burst carry a pulse.
    pub chips: ChipMask,
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
    /// Create a renderer with a 64-sample guard: the ADS-B decoder's peak
    /// separation (`aircal_adsb::PEAK_SEPARATION`, half a short frame;
    /// this crate does not depend on the decoder, so a test in
    /// `aircal-core` pins the two equal).
    ///
    /// That guard is the decoder's whole look-back. A window stands in for
    /// a stretch of the continuous 2 MS/s stream, and must let the decoder
    /// decide each burst as it would there. A burst whose preamble sits at
    /// lag `b` is lost only to a taller kept peak closer than the
    /// separation `S = 64`, so only lags `b − 63 ..= b + 63` matter. Those
    /// after `b` lie inside the burst itself: every burst is at least
    /// 128 samples long. Those before `b` lie in the leading guard, which
    /// starts at `b − 64`: lag `b − 63`, the left neighbour `b − 64` its
    /// peak test reads, and the 16 samples each lag's correlation reads
    /// are all inside the window. The trailing guard mirrors the leading
    /// one, and the merge rule (a gap of at most two guards joins two
    /// bursts) keeps any two bursts whose peaks could interact in one
    /// window. What no finite guard models is a chain: a noise peak left
    /// of `b − 63` that would suppress the peak that suppresses `b`.
    pub fn new(frontend: Frontend) -> Self {
        Self {
            frontend,
            guard_samples: 64,
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
            let p_end = p.start_s + p.chips.len() as f64 / fs + guard_s;
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
    /// `rng` for the front end's noise. The window's sample buffer comes
    /// from `scratch`, so recycling decoded windows
    /// ([`RenderedWindow::recycle`]) makes the steady-state render loop
    /// allocation-free.
    ///
    /// Each burst adds its impaired unit pulse
    /// ([`Frontend::scale_and_impair`] of `1 + 0i`) at its on-chips only.
    /// That equals adding its whole impaired waveform: an off-chip's
    /// impaired value is a signed zero, the window starts at `+0.0`, and
    /// `x + ±0 = x` for every `x` a sum starting at `+0.0` can reach. (This
    /// needs a finite burst amplitude: `0 · inf` would be NaN.)
    pub fn render_cluster_with(
        &self,
        plans: &[BurstPlan],
        cluster: &[usize],
        rng: &mut ChaCha8Rng,
        scratch: &mut DspScratch,
    ) -> RenderedWindow {
        let _span = aircal_obs::span!("render_windows");
        let fs = self.frontend.config.sample_rate_hz;
        let start_s = plans[cluster[0]].start_s - self.guard_samples as f64 / fs;
        let end_s = cluster
            .iter()
            .map(|&i| plans[i].start_s + plans[i].chips.len() as f64 / fs)
            .fold(f64::NEG_INFINITY, f64::max)
            + self.guard_samples as f64 / fs;
        let len = ((end_s - start_s) * fs).ceil() as usize;
        let mut buf = scratch.take_cplx(len);
        for &i in cluster {
            let p = &plans[i];
            let offset = ((p.start_s - start_s) * fs).round() as usize;
            let imp = self.frontend.impairment(p.rx_power_dbm, p.phase0);
            // Without CFO every on-chip gets the same pulse value.
            let fixed = (imp.dphi == 0.0).then(|| imp.apply(Cplx::ONE, imp.ramp(0)));
            for chip in p.chips.on_chips() {
                let n = offset + chip;
                if let Some(s) = buf.get_mut(n) {
                    *s += fixed.unwrap_or_else(|| imp.apply(Cplx::ONE, imp.ramp(n)));
                }
            }
        }
        self.frontend.finalize(&mut buf, rng);
        RenderedWindow {
            start_s,
            samples: buf,
        }
    }

    /// Render all plans into windows. Plans need not be sorted. Returns
    /// windows sorted by start time, one per cluster of overlapping bursts.
    ///
    /// One shared noise RNG runs through the clusters in time order, so
    /// this path is inherently serial; prefer [`Self::render_seeded`] for
    /// the thread-scalable, per-cluster-seeded variant.
    pub fn render(&self, plans: &[BurstPlan], rng: &mut ChaCha8Rng) -> Vec<RenderedWindow> {
        let mut scratch = DspScratch::new();
        self.cluster_plans(plans)
            .iter()
            .map(|cluster| self.render_cluster_with(plans, cluster, rng, &mut scratch))
            .collect()
    }

    /// The noise stream of cluster `cluster_index` in a capture seeded with
    /// `noise_seed`: a pure function of the two, so a cluster renders the
    /// same whichever worker runs it and in whatever order.
    pub fn cluster_rng(noise_seed: u64, cluster_index: usize) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(derive_stream_seed(noise_seed, cluster_index as u64))
    }

    /// Render all plans into windows with **per-cluster** noise streams
    /// ([`Self::cluster_rng`]), fanned out over up to `threads` worker
    /// threads.
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
        let clusters = self.cluster_plans(plans);
        par_map_with(
            &clusters,
            threads,
            &mut scratches,
            &mut slots,
            &mut out,
            |ci, cluster, scratch| {
                let mut rng = Self::cluster_rng(noise_seed, ci);
                self.render_cluster_with(plans, cluster, &mut rng, scratch)
            },
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{capture_rng, FrontendConfig};

    impl ChipMask {
        /// A mask of `len` chips with exactly the chips in `on` set, a
        /// chip at a time: the oracle [`ChipMask::from_words`] is held to.
        ///
        /// # Panics
        /// If a chip in `on` is not below `len`.
        pub(crate) fn from_on_chips(len: usize, on: impl IntoIterator<Item = usize>) -> Self {
            let mut words = vec![0u64; len.div_ceil(64)];
            for chip in on {
                assert!(chip < len, "chip {chip} outside a {len}-chip mask");
                words[chip / 64] |= 1 << (chip % 64);
            }
            Self { words, len }
        }
    }

    fn renderer() -> CaptureRenderer {
        CaptureRenderer::new(Frontend::new(FrontendConfig::bladerf_xa9(1.09e9, 2e6)))
    }

    fn plan(start_s: f64, len: usize, dbm: f64) -> BurstPlan {
        BurstPlan {
            start_s,
            chips: ChipMask::from_on_chips(len, 0..len),
            rx_power_dbm: dbm,
            phase0: 0.0,
        }
    }

    /// The dense render the chip masks replace: each burst's whole
    /// impaired waveform, zero chips included, added into the window.
    fn render_dense(
        r: &CaptureRenderer,
        plans: &[BurstPlan],
        cluster: &[usize],
        rng: &mut ChaCha8Rng,
    ) -> Vec<Cplx> {
        let fs = r.frontend.config.sample_rate_hz;
        let guard_s = r.guard_samples as f64 / fs;
        let start_s = plans[cluster[0]].start_s - guard_s;
        let end_s = cluster
            .iter()
            .map(|&i| plans[i].start_s + plans[i].chips.len() as f64 / fs)
            .fold(f64::NEG_INFINITY, f64::max)
            + guard_s;
        let mut buf = vec![Cplx::ZERO; ((end_s - start_s) * fs).ceil() as usize];
        for &i in cluster {
            let p = &plans[i];
            let mut wave = vec![Cplx::ZERO; p.chips.len()];
            for chip in p.chips.on_chips() {
                wave[chip] = Cplx::ONE;
            }
            let offset = ((p.start_s - start_s) * fs).round() as usize;
            let sig = r
                .frontend
                .scale_and_impair(&wave, p.rx_power_dbm, p.phase0, offset);
            for (k, s) in sig.iter().enumerate() {
                if offset + k < buf.len() {
                    buf[offset + k] += *s;
                }
            }
        }
        r.frontend.finalize(&mut buf, rng);
        buf
    }

    /// Rendering from chip masks is bit-identical to rendering the dense
    /// unit waveforms: random masks, phases and powers, overlapping
    /// bursts, with and without CFO and IQ imbalance.
    #[test]
    fn chip_mask_render_equals_dense_waveform_render() {
        use rand::Rng;
        let mut rng = capture_rng(11);
        for (cfo_hz, iq_db) in [(0.0, 0.0), (-0.0, 0.4), (12_500.0, -0.3)] {
            let mut cfg = FrontendConfig::bladerf_xa9(1.09e9, 2e6);
            cfg.cfo_hz = cfo_hz;
            cfg.iq_imbalance_db = iq_db;
            let r = CaptureRenderer::new(Frontend::new(cfg));
            let plans: Vec<BurstPlan> = (0..30)
                .map(|i| {
                    let len = rng.gen_range(1..300);
                    let on = (0..len).filter(|_| rng.gen_bool(0.5)).collect::<Vec<_>>();
                    BurstPlan {
                        start_s: i as f64 * 1e-4 + rng.gen_range(0.0..2e-4),
                        chips: ChipMask::from_on_chips(len, on),
                        rx_power_dbm: rng.gen_range(-95.0..-20.0),
                        phase0: rng.gen_range(0.0..core::f64::consts::TAU),
                    }
                })
                .collect();
            let mut scratch = DspScratch::new();
            for (ci, cluster) in r.cluster_plans(&plans).iter().enumerate() {
                let seed = 1_000 + ci as u64;
                let sparse =
                    r.render_cluster_with(&plans, cluster, &mut capture_rng(seed), &mut scratch);
                let dense = render_dense(&r, &plans, cluster, &mut capture_rng(seed));
                let bits = |v: &[Cplx]| {
                    v.iter()
                        .map(|z| (z.re.to_bits(), z.im.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    bits(&sparse.samples),
                    bits(&dense),
                    "cfo {cfo_hz}, cluster {ci}"
                );
                sparse.recycle(&mut scratch);
            }
        }
    }

    #[test]
    fn chip_mask_round_trips_its_on_chips() {
        let on = [0usize, 1, 63, 64, 65, 127, 128, 199];
        let mask = ChipMask::from_on_chips(200, on);
        assert_eq!(mask.len(), 200);
        assert_eq!(mask.on_chips().collect::<Vec<_>>(), on);
        assert!(ChipMask::from_on_chips(0, []).is_empty());
        let words = [1 | 1 << 63, 1 << 7 | 1 << 63, 1, 1];
        for len in [128usize, 129, 192, 193, 256] {
            let used = &words[..len.div_ceil(64)];
            let on = (0..len).filter(|&c| used[c / 64] >> (c % 64) & 1 == 1);
            assert_eq!(
                ChipMask::from_words(len, used),
                ChipMask::from_on_chips(len, on)
            );
        }
        assert!(ChipMask::from_words(0, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "chips past a 200-chip mask")]
    fn chip_mask_words_reject_chips_past_the_end() {
        ChipMask::from_words(200, &[0, 0, 0, 1 << 8]);
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
        let windows = r.render(&[plan(0.0, 240, -70.0), plan(25e-6, 240, -70.0)], &mut rng);
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
            &[
                plan(2.0, 100, -70.0),
                plan(0.5, 100, -70.0),
                plan(1.2, 100, -70.0),
            ],
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
            .map(|i| {
                plan(
                    i as f64 * 0.01 * if i % 3 == 0 { 1.0 } else { 1.00002 },
                    240,
                    -75.0,
                )
            })
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
        let plans = [
            plan(0.0, 240, -70.0),
            plan(25e-6, 240, -70.0),
            plan(1.0, 100, -72.0),
        ];
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
