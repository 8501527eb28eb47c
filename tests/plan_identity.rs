//! Property tests for the plan layer: every planned transform must be
//! **bit-identical** (`f64::to_bits`) to its direct, allocating
//! reference at arbitrary sizes, and plan reuse through a
//! [`PlanCache`] (across sizes and through dirty scratch buffers) must
//! never change a single bit. This is the correctness half of the
//! zero-allocation steady-state contract (DESIGN.md §14); the
//! allocation half lives in `alloc_budget.rs`.

use proptest::prelude::*;
use ros_dsp::fft::{fft_in_place, FftPlan};
use ros_dsp::plan::PlanCache;
use ros_dsp::resample::{resample_uniform, resample_uniform_into, Sample};
use ros_dsp::window::{Window, WindowTable};
use ros_em::Complex64;

fn to_complex(values: &[(f64, f64)]) -> Vec<Complex64> {
    values
        .iter()
        .map(|&(re, im)| Complex64::new(re, im))
        .collect()
}

fn assert_complex_bits_eq(a: &[Complex64], b: &[Complex64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(x.re.to_bits(), y.re.to_bits());
        prop_assert_eq!(x.im.to_bits(), y.im.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A planned FFT matches the direct in-place transform bitwise at
    /// every power-of-two size, and the plan stays correct when reused.
    #[test]
    fn fft_plan_bit_identical_to_direct(
        values in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 1..257),
    ) {
        let n = values.len().next_power_of_two();
        let mut direct = to_complex(&values);
        direct.resize(n, Complex64::ZERO);
        let mut planned = direct.clone();

        let plan = FftPlan::new(n);
        fft_in_place(&mut direct);
        plan.process_forward(&mut planned);
        assert_complex_bits_eq(&direct, &planned)?;

        // Second pass through the same plan: still bit-identical.
        let mut again = direct.clone();
        fft_in_place(&mut direct);
        plan.process_forward(&mut again);
        assert_complex_bits_eq(&direct, &again)?;
    }

    /// The scratch-buffer resampler matches the direct one bitwise for
    /// arbitrary traces, grids, and (dirty) scratch buffers.
    #[test]
    fn planned_resample_bit_identical_to_direct(
        points in prop::collection::vec((-2.0f64..2.0, -1e3f64..1e3), 1..80),
        n in 1usize..96,
    ) {
        let samples: Vec<Sample> = points.iter().map(|&(x, y)| Sample { x, y }).collect();
        let direct = resample_uniform(samples.clone(), -2.0, 2.0, n);

        let mut work = samples;
        let mut aux = vec![Sample { x: 9.0, y: 9.0 }; 2];
        let mut out = vec![-5.0; 7];
        resample_uniform_into(&mut work, -2.0, 2.0, n, &mut aux, &mut out);

        prop_assert_eq!(direct.len(), out.len());
        for (d, p) in direct.iter().zip(&out) {
            prop_assert_eq!(d.to_bits(), p.to_bits());
        }
    }

    /// A cached window table tapers bit-identically to the direct
    /// window at any length.
    #[test]
    fn window_table_bit_identical_to_direct(
        values in prop::collection::vec(-1e3f64..1e3, 1..257),
        which in 0usize..3,
    ) {
        let window = [Window::Rect, Window::Hann, Window::Hamming][which];
        let mut direct = values.clone();
        window.apply(&mut direct);

        let table = WindowTable::new(window, values.len());
        let mut planned = values;
        table.taper(&mut planned);

        for (d, p) in direct.iter().zip(&planned) {
            prop_assert_eq!(d.to_bits(), p.to_bits());
        }
    }
}

/// One cache, many sizes: interleaving transforms of different lengths
/// through the same [`PlanCache`] (the per-worker arena pattern) gives
/// the same bits as building each plan fresh.
#[test]
fn plan_cache_reuse_across_sizes_is_bit_identical() {
    let mut cache = PlanCache::new();
    let sizes = [8usize, 64, 8, 32, 64, 16, 8];
    for (round, &n) in sizes.iter().enumerate() {
        let signal: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i + round) as f64 * 0.25, -(i as f64) * 0.5))
            .collect();
        let mut direct = signal.clone();
        fft_in_place(&mut direct);
        let mut planned = signal;
        cache.fft(n).process_forward(&mut planned);
        for (a, b) in direct.iter().zip(&planned) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }
}
