//! Benchmarks of the extension modules (CZT, MUSIC, Doppler, FEC,
//! near-field decoding).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ros_dsp::czt::zoom_spectrum;
use ros_dsp::music::{covariance, music_spectrum};
use ros_em::Complex64;

fn bench_czt(c: &mut Criterion) {
    let signal: Vec<f64> = (0..512)
        .map(|i| (i as f64 * 0.61).sin() + (i as f64 * 0.13).cos())
        .collect();
    c.bench_function("czt_zoom_512_to_1024", |b| {
        b.iter(|| black_box(zoom_spectrum(&signal, 0.1, 0.2, 1024).len()))
    });
}

fn bench_music(c: &mut Criterion) {
    let snaps: Vec<Vec<Complex64>> = (0..128)
        .map(|t| {
            (0..4)
                .map(|k| {
                    Complex64::cis((t * k) as f64 * 0.37)
                        + Complex64::cis(t as f64 * 0.91 - k as f64 * 1.2)
                })
                .collect()
        })
        .collect();
    c.bench_function("music_covariance_128snap", |b| {
        b.iter(|| black_box(covariance(&snaps).n))
    });
    let r = covariance(&snaps);
    c.bench_function("music_spectrum_1024", |b| {
        b.iter(|| black_box(music_spectrum(&r, 2, 0.5, 1024).1.len()))
    });
}

fn bench_doppler(c: &mut Criterion) {
    use ros_radar::doppler::{range_doppler_map, synthesize_burst, BurstConfig, MovingEcho};
    use ros_radar::echo::{Echo, Pose};
    let chirp = ros_radar::chirp::ChirpConfig::ti_default();
    let array = ros_radar::array::RadarArray::ti_default();
    let budget = ros_em::radar_eq::RadarLinkBudget::ti_eval();
    let burst_cfg = BurstConfig::default();
    let mut rng = StdRng::seed_from_u64(1);
    let echoes = [MovingEcho {
        echo: Echo::new(
            ros_em::Vec3::new(0.0, 4.0, 0.0),
            Complex64::from_polar(1e-2, 0.0),
        ),
        radial_speed_mps: 5.0,
    }];
    let burst = synthesize_burst(
        &chirp,
        &array,
        &budget,
        &burst_cfg,
        Pose::side_looking(ros_em::Vec3::ZERO),
        &echoes,
        &mut rng,
    );
    c.bench_function("range_doppler_map_32x256", |b| {
        b.iter(|| black_box(range_doppler_map(&burst).len()))
    });
}

fn bench_fec(c: &mut Criterion) {
    use ros_core::fec::{protect, recover};
    let msg: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
    c.bench_function("hamming74_protect_recover_64bits", |b| {
        b.iter(|| {
            let coded = protect(&msg);
            black_box(
                recover(&coded, msg.len())
                    .map(|(bits, _)| bits.len())
                    .unwrap_or(0),
            )
        })
    });
}

criterion_group!(extensions, bench_czt, bench_music, bench_doppler, bench_fec);
criterion_main!(extensions);
