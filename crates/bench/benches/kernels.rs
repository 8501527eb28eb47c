//! Micro-benchmarks of the DSP/EM kernels on the radar hot path.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ros_dsp::cfar::{ca_cfar, CfarParams};
use ros_dsp::dbscan::{dbscan, DbscanParams};
use ros_dsp::fft::fft_in_place;
use ros_dsp::peaks::{find_peaks, PeakParams};
use ros_em::Complex64;

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for &n in &[256usize, 1024, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let data: Vec<Complex64> = (0..n).map(|i| Complex64::cis(i as f64 * 0.37)).collect();
            b.iter(|| {
                let mut buf = data.clone();
                fft_in_place(&mut buf);
                black_box(buf[0])
            });
        });
    }
    group.finish();
}

fn bench_cfar(c: &mut Criterion) {
    let profile: Vec<f64> = (0..512)
        .map(|i| 1.0 + ((i * 7919) % 97) as f64 / 97.0 + if i == 300 { 100.0 } else { 0.0 })
        .collect();
    c.bench_function("cfar_512", |b| {
        b.iter(|| black_box(ca_cfar(&profile, &CfarParams::default()).len()))
    });
}

fn bench_peaks(c: &mut Criterion) {
    let spectrum: Vec<f64> = (0..4096)
        .map(|i| (i as f64 * 0.013).sin().abs() + ((i * 31) % 17) as f64 * 0.01)
        .collect();
    c.bench_function("find_peaks_4096", |b| {
        b.iter(|| {
            black_box(
                find_peaks(
                    &spectrum,
                    &PeakParams {
                        min_prominence: 0.2,
                        ..Default::default()
                    },
                )
                .len(),
            )
        })
    });
}

fn bench_dbscan(c: &mut Criterion) {
    // A merged point cloud the size the detector sees (~300 points).
    let points: Vec<[f64; 2]> = (0..300)
        .map(|i| {
            let a = i as f64 * 2.399963;
            let r = 0.2 + ((i % 3) as f64) * 1.5;
            [r * a.cos(), 3.0 + 0.3 * a.sin()]
        })
        .collect();
    c.bench_function("dbscan_300", |b| {
        b.iter(|| black_box(dbscan(&points, &DbscanParams::default()).1))
    });
}

criterion_group!(kernels, bench_fft, bench_cfar, bench_peaks, bench_dbscan);
criterion_main!(kernels);
