//! System-level benchmarks: the radar front-end, the detector flow,
//! and full drive-by decodes — one per headline experiment family.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, ReaderConfig};
use ros_dsp::window::{Window, WindowTable};
use ros_em::{Complex64, Vec3};
use ros_radar::echo::{Echo, Pose};
use ros_radar::processing::DetectScratch;
use ros_radar::radar::FmcwRadar;

fn bench_if_synthesis(c: &mut Criterion) {
    let radar = FmcwRadar::ti_eval();
    let echoes: Vec<Echo> = (0..160)
        .map(|i| {
            Echo::new(
                Vec3::new(i as f64 * 0.001, 3.0, 1.0),
                Complex64::from_polar(1e-3, i as f64),
            )
        })
        .collect();
    c.bench_function("if_synthesis_160_echoes", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let f = radar.capture(Pose::side_looking(Vec3::ZERO), &echoes, &mut rng);
            black_box(f.data[0][0])
        })
    });
}

fn bench_frame_detection(c: &mut Criterion) {
    let radar = FmcwRadar::ti_eval();
    let mut rng = StdRng::seed_from_u64(2);
    let echoes = [
        Echo::new(Vec3::new(0.0, 3.0, 0.0), Complex64::from_polar(1e-2, 0.0)),
        Echo::new(Vec3::new(1.5, 4.0, 0.0), Complex64::from_polar(5e-3, 1.0)),
    ];
    let frame = radar.capture(Pose::side_looking(Vec3::ZERO), &echoes, &mut rng);
    let mut scratch = DetectScratch::default();
    let mut points = Vec::new();
    c.bench_function("frame_detect", |b| {
        b.iter(|| {
            radar.detect_with(&frame, &mut scratch, &mut points);
            black_box(points.len())
        })
    });
    let table = WindowTable::new(Window::Hann, frame.n_samples());
    c.bench_function("frame_spotlight", |b| {
        b.iter(|| black_box(radar.spotlight_with(&frame, Vec3::new(0.0, 3.0, 0.0), &table)))
    });
}

fn bench_drive_by_decode(c: &mut Criterion) {
    // Figure-15-style runs: one fast drive-by per stack size.
    let mut group = c.benchmark_group("drive_by_fast_decode");
    group.sample_size(10);
    for &rows in &[8usize, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, &rows| {
            let code = SpatialCode {
                rows_per_stack: rows,
                ..SpatialCode::paper_4bit()
            };
            b.iter(|| {
                let tag = code.encode(&[true; 4]).unwrap();
                let outcome = DriveBy::new(tag, 3.0).run(&ReaderConfig::fast());
                black_box(outcome.bits().len())
            });
        });
    }
    group.finish();
}

fn bench_encode_decode_analytic(c: &mut Criterion) {
    // Figure-10-style analytic model: RCS sampling + spectrum.
    use ros_core::rcs_model;
    use ros_em::constants::LAMBDA_CENTER_M;
    let code = SpatialCode::paper_4bit();
    let tag = code.encode(&[true; 4]).unwrap();
    let pos = tag.stack_positions_m().to_vec();
    c.bench_function("rcs_model_sample_and_spectrum", |b| {
        b.iter(|| {
            let rcs = rcs_model::sample_rcs_factor(&pos, LAMBDA_CENTER_M, 1.0, 512);
            let (s, m) = rcs_model::rcs_spectrum(&rcs, 1.0, LAMBDA_CENTER_M, 8);
            black_box((s.len(), m.len()))
        })
    });
}

criterion_group!(
    pipeline,
    bench_if_synthesis,
    bench_frame_detection,
    bench_drive_by_decode,
    bench_encode_decode_analytic
);
criterion_main!(pipeline);
