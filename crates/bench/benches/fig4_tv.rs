//! Criterion bench for the Figure 4 pipeline: one full TV channel
//! measurement (8VSB synthesis → front end → bandpass/|x|²/moving-average)
//! and the six-channel sweep.

use aircal_env::{Scenario, ScenarioKind};
use aircal_tv::{paper_tv_towers, TvPowerProbe};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_tv(c: &mut Criterion) {
    let scenario = Scenario::build(ScenarioKind::Rooftop);
    let towers = paper_tv_towers(&scenario.world.origin);
    let probe = TvPowerProbe::default();

    let mut group = c.benchmark_group("fig4_tv");
    group.sample_size(10);
    group.bench_function("measure_one_channel", |b| {
        b.iter(|| {
            black_box(probe.sweep(&scenario.world, &scenario.site, &towers[..1], black_box(3)))
        })
    });
    group.bench_function("sweep_six_channels", |b| {
        b.iter(|| black_box(probe.sweep(&scenario.world, &scenario.site, &towers, black_box(3))))
    });
    group.finish();
}

criterion_group!(benches, bench_tv);
criterion_main!(benches);
