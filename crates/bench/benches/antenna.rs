//! Benchmarks of the antenna physics layer (the HFSS substitute).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ros_antenna::stack::PsvaaStack;
use ros_antenna::vaa::{ArrayKind, VanAttaArray};
use ros_em::constants::F_CENTER_HZ;
use ros_em::jones::Polarization;

fn bench_vaa_response(c: &mut Criterion) {
    let mut group = c.benchmark_group("vaa_monostatic_field");
    for &pairs in &[1usize, 3, 6] {
        group.bench_with_input(BenchmarkId::from_parameter(pairs), &pairs, |b, &p| {
            let vaa = VanAttaArray::new(ArrayKind::Psvaa, p);
            b.iter(|| {
                black_box(vaa.monostatic_field(0.35, F_CENTER_HZ, Polarization::H, Polarization::V))
            });
        });
    }
    group.finish();
}

fn bench_azimuth_sweep(c: &mut Criterion) {
    // The Fig. 4a sweep: 181 azimuths, one frequency.
    let vaa = VanAttaArray::new(ArrayKind::VanAtta, 3);
    c.bench_function("fig4a_sweep_181pts", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for deg in -90..=90 {
                let th = (deg as f64).to_radians();
                acc += vaa.monostatic_rcs_dbsm(th, F_CENTER_HZ, Polarization::V, Polarization::V);
            }
            black_box(acc)
        })
    });
}

fn bench_stack_pattern(c: &mut Criterion) {
    let mut group = c.benchmark_group("stack_elevation_factor");
    for &rows in &[8usize, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, &r| {
            let stack = PsvaaStack::uniform(r);
            b.iter(|| black_box(stack.elevation_array_factor(0.05, F_CENTER_HZ)));
        });
    }
    group.finish();
}

fn bench_shaping_cost_landscape(c: &mut Criterion) {
    // One DE objective evaluation for an 8-row flat-top (the §4.3
    // search's inner loop): a 4-phase half-profile mirrored over 8 rows.
    let half = [0.0, 0.9, 2.1, 3.4];
    let width = ros_em::units::Degrees::new(10.0).radians().value();
    c.bench_function("flat_top_objective_8row", |b| {
        b.iter(|| {
            black_box(ros_antenna::shaping::flat_top_objective(
                black_box(&half),
                8,
                width,
            ))
        })
    });
}

fn bench_shaping_search(c: &mut Criterion) {
    // One whole DE shaping search: the objective above, with rejected
    // trials stopped early against their target's cost. The 8-row
    // search is `tag_design`'s build; the 32-row one is most of
    // `full_pass`'s set-up.
    c.bench_function("standard_profile_8row", |b| {
        b.iter(|| black_box(ros_antenna::shaping::standard_profile(black_box(8))))
    });
    c.bench_function("standard_profile_32row", |b| {
        b.iter(|| black_box(ros_antenna::shaping::standard_profile(black_box(32))))
    });
}

criterion_group!(
    antenna,
    bench_vaa_response,
    bench_azimuth_sweep,
    bench_stack_pattern,
    bench_shaping_cost_landscape,
    bench_shaping_search
);
criterion_main!(antenna);
