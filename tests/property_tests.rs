//! Cross-crate property-based tests (proptest).

use proptest::prelude::*;
use ros_core::encode::SpatialCode;
use ros_core::rcs_model;
use ros_dsp::fft::{fft_in_place, ifft_in_place};
use ros_dsp::resample::{resample_uniform, Sample};
use ros_em::constants::LAMBDA_CENTER_M;
use ros_em::units::{db_power_sum, Db, DbAmplitude, DbPower, Dbm, Degrees, Hertz, Radians, Watts};
use ros_em::Complex64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FFT→IFFT is the identity for arbitrary signals.
    #[test]
    fn fft_roundtrip(values in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 1..64)) {
        let n = values.len().next_power_of_two();
        let mut buf: Vec<Complex64> = values
            .iter()
            .map(|&(re, im)| Complex64::new(re, im))
            .collect();
        buf.resize(n, Complex64::ZERO);
        let orig = buf.clone();
        fft_in_place(&mut buf);
        ifft_in_place(&mut buf);
        for (a, b) in buf.iter().zip(&orig) {
            prop_assert!((*a - *b).abs() < 1e-6 * (1.0 + b.abs()));
        }
    }

    /// Parseval: energy is conserved by the FFT.
    #[test]
    fn fft_parseval(values in prop::collection::vec(-1e2f64..1e2, 2..128)) {
        let n = values.len().next_power_of_two();
        let mut buf: Vec<Complex64> = values.iter().map(|&v| Complex64::real(v)).collect();
        buf.resize(n, Complex64::ZERO);
        let time: f64 = buf.iter().map(|c| c.norm_sqr()).sum();
        fft_in_place(&mut buf);
        let freq: f64 = buf.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((time - freq).abs() <= 1e-6 * (1.0 + time));
    }

    /// Resampling a constant trace returns the constant everywhere.
    #[test]
    fn resample_preserves_constants(
        xs in prop::collection::vec(-1.0f64..1.0, 2..40),
        c in -1e3f64..1e3,
        n in 2usize..64,
    ) {
        let samples: Vec<Sample> = xs.iter().map(|&x| Sample { x, y: c }).collect();
        let out = resample_uniform(samples, -1.0, 1.0, n);
        for y in out {
            prop_assert!((y - c).abs() < 1e-9);
        }
    }

    /// Any valid spatial code keeps every secondary spacing outside the
    /// coding band — the §5.2 interference-freedom guarantee.
    #[test]
    fn secondary_peaks_never_alias_into_band(bits in 2usize..8) {
        let code = SpatialCode::with_bits(bits, 8);
        let d: Vec<f64> = (1..=bits).map(|k| code.slot_position_m(k)).collect();
        let lo = d[0].abs();
        let hi = d[bits - 1].abs();
        for i in 0..bits {
            for j in 0..bits {
                if i == j { continue; }
                let s = (d[i] - d[j]).abs();
                prop_assert!(s < lo - 1e-9 || s > hi + 1e-9,
                    "secondary {s} inside [{lo}, {hi}]");
            }
        }
    }

    /// The analytic multi-stack RCS factor is bounded by M² and
    /// symmetric in u.
    #[test]
    fn rcs_factor_bounds(
        positions in prop::collection::vec(-15.0f64..15.0, 1..7),
        u in -1.0f64..1.0,
    ) {
        let pos_m: Vec<f64> = positions.iter().map(|p| p * LAMBDA_CENTER_M).collect();
        let m = pos_m.len() as f64;
        let f = rcs_model::multi_stack_factor(&pos_m, u, LAMBDA_CENTER_M);
        prop_assert!(f >= -1e-9);
        prop_assert!(f <= m * m + 1e-9);
        let f_neg = rcs_model::multi_stack_factor(&pos_m, -u, LAMBDA_CENTER_M);
        prop_assert!((f - f_neg).abs() < 1e-6 * (1.0 + f));
    }

    /// Encoding then reading back positions is consistent with the
    /// slot formula for every bit pattern.
    #[test]
    fn encode_positions_match_slots(word in 0u8..16) {
        let bits = [
            word & 1 != 0,
            word & 2 != 0,
            word & 4 != 0,
            word & 8 != 0,
        ];
        let code = SpatialCode { rows_per_stack: 8, ..SpatialCode::paper_4bit() };
        let tag = code.encode_with(ros_tests::fixture_cache(), &bits).unwrap();
        let pos = tag.stack_positions_m();
        // Reference stack always first, at 0.
        prop_assert!((pos[0]).abs() < 1e-12);
        prop_assert_eq!(pos.len(), 1 + bits.iter().filter(|&&b| b).count());
        let mut expected: Vec<f64> = vec![0.0];
        for (k, &b) in bits.iter().enumerate() {
            if b {
                expected.push(code.slot_position_m(k + 1));
            }
        }
        for (a, b) in pos.iter().zip(&expected) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// OOK BER is monotone decreasing in SNR.
    #[test]
    fn ber_monotone(snr_db in -5.0f64..30.0) {
        let lin = |db: f64| 10f64.powf(db / 10.0);
        let b1 = ros_dsp::stats::ook_ber(lin(snr_db));
        let b2 = ros_dsp::stats::ook_ber(lin(snr_db + 1.0));
        prop_assert!(b2 <= b1 + 1e-15);
        prop_assert!((0.0..=0.5 + 1e-12).contains(&b1));
    }

    /// Hamming(7,4) corrects every single-bit error on every message.
    #[test]
    fn hamming_corrects_any_single_flip(
        bits in prop::collection::vec(any::<bool>(), 1..24),
        flip in any::<usize>(),
    ) {
        let coded = ros_core::fec::protect(&bits);
        let mut corrupted = coded.clone();
        let idx = flip % corrupted.len();
        corrupted[idx] = !corrupted[idx];
        let (back, fixes) = ros_core::fec::recover(&corrupted, bits.len()).unwrap();
        prop_assert_eq!(back, bits);
        prop_assert!(fixes <= 1);
    }

    /// Hermitian eigendecomposition: A·v = λ·v and trace preservation
    /// for random Hermitian matrices.
    #[test]
    fn eig_residual_small(seed_vals in prop::collection::vec(-2.0f64..2.0, 16)) {
        use ros_dsp::eig::{hermitian_eig, CMatrix};
        let n = 4;
        let a = CMatrix::from_fn(n, |i, j| {
            let base = seed_vals[i * n + j];
            if i == j {
                Complex64::real(base.abs() + 1.0)
            } else if i < j {
                Complex64::new(base, seed_vals[j * n + i])
            } else {
                Complex64::new(seed_vals[j * n + i], -seed_vals[i * n + j])
            }
        });
        prop_assume!(a.is_hermitian(1e-9));
        let e = hermitian_eig(&a);
        // Residual per eigenpair.
        for k in 0..n {
            for i in 0..n {
                let mut av = Complex64::ZERO;
                for j in 0..n {
                    av += a[(i, j)] * e.vectors[(j, k)];
                }
                let r = (av - e.vectors[(i, k)] * e.values[k]).abs();
                prop_assert!(r < 1e-7, "residual {r}");
            }
        }
        let trace: f64 = (0..n).map(|i| a[(i, i)].re).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8 * (1.0 + trace.abs()));
    }
}

// Round-trip properties for the `ros_em::units` newtypes — the other
// half of the unit-safety story: the lint gate forbids ad-hoc
// conversions, and these properties pin down that the sanctioned ones
// are exact inverses across many decades.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Power-dB ↔ linear ratio round-trips across 12 decades.
    #[test]
    fn db_power_roundtrip(x in -6.0f64..6.0) {
        let ratio = 10f64.powf(x);
        let db = DbPower::from_ratio(ratio);
        prop_assert!((db.ratio() - ratio).abs() < 1e-9 * ratio);
        prop_assert!((DbPower::from_ratio(db.ratio()).value() - db.value()).abs() < 1e-9);
    }

    /// Amplitude-dB ↔ linear ratio round-trips across 12 decades.
    #[test]
    fn db_amplitude_roundtrip(x in -6.0f64..6.0) {
        let ratio = 10f64.powf(x);
        let db = DbAmplitude::from_ratio(ratio);
        prop_assert!((db.ratio() - ratio).abs() < 1e-9 * ratio);
        prop_assert!((DbAmplitude::from_ratio(db.ratio()).value() - db.value()).abs() < 1e-9);
    }

    /// The two dB families are genuinely distinct: the same dB number
    /// denotes an amplitude ratio whose *square* is the power ratio
    /// (20·log₁₀(a) = 10·log₁₀(a²)), so for any nonzero dB the linear
    /// readings disagree.
    #[test]
    fn db_families_distinct(db in -60.0f64..60.0) {
        let amp = DbAmplitude::new(db).ratio();
        let pow = DbPower::new(db).ratio();
        prop_assert!((amp * amp - pow).abs() < 1e-9 * (1.0 + pow));
        if db.abs() > 0.5 {
            prop_assert!((amp - pow).abs() > 1e-12 * (1.0 + pow));
        }
    }

    /// Reinterpreting between families keeps the dB number (it is free)
    /// and therefore square-roots / squares the linear ratio.
    #[test]
    fn db_reinterpret_consistent(x in -6.0f64..6.0) {
        let r = 10f64.powf(x);
        let p = DbPower::from_ratio(r);
        prop_assert_eq!(p.as_amplitude().value(), p.value());
        prop_assert!((p.as_amplitude().ratio() - r.sqrt()).abs() < 1e-9 * (1.0 + r.sqrt()));
        let a = DbAmplitude::from_ratio(r);
        prop_assert_eq!(a.as_power().value(), a.value());
        prop_assert!((a.as_power().ratio() - r * r).abs() < 1e-6 * (1.0 + r * r));
    }

    /// dBm ↔ watts round-trips from femtowatts to kilowatts.
    #[test]
    fn dbm_watts_roundtrip(x in -15.0f64..3.0) {
        let w = 10f64.powf(x);
        let dbm = Dbm::from_watts(Watts::new(w));
        prop_assert!((dbm.to_watts().value() - w).abs() < 1e-9 * w);
        prop_assert!((Watts::new(w).to_dbm().value() - dbm.value()).abs() < 1e-12);
        // And the milliwatt path agrees with the watt path.
        prop_assert!((Dbm::from_milliwatts(w * 1e3).value() - dbm.value()).abs() < 1e-9);
        prop_assert!((dbm.to_milliwatts() - w * 1e3).abs() < 1e-6 * w * 1e3);
    }

    /// `dBm + dB` is exactly linear power scaling by the gain ratio.
    #[test]
    fn dbm_gain_is_linear_scaling(p_dbm in -90.0f64..10.0, g_db in -30.0f64..30.0) {
        let before = Dbm::new(p_dbm).to_watts().value();
        let after = (Dbm::new(p_dbm) + Db::new(g_db)).to_watts().value();
        let expect = before * DbPower::new(g_db).ratio();
        prop_assert!((after - expect).abs() < 1e-9 * expect);
        // Subtracting the gain undoes it.
        let undone = (Dbm::new(p_dbm) + Db::new(g_db) - Db::new(g_db)).value();
        prop_assert!((undone - p_dbm).abs() < 1e-12);
    }

    /// Degrees ↔ radians round-trips, both directions.
    #[test]
    fn angle_roundtrip(d in -720.0f64..720.0) {
        let back = Degrees::new(d).radians().degrees().value();
        prop_assert!((back - d).abs() < 1e-9 * (1.0 + d.abs()));
        let r = d / 57.0;
        let back_r = Radians::new(r).degrees().radians().value();
        prop_assert!((back_r - r).abs() < 1e-12 * (1.0 + r.abs()));
    }

    /// Wrapping lands in (−π, π] and never changes the angle's sine or
    /// cosine.
    #[test]
    fn wrapped_angle_is_equivalent(r in -50.0f64..50.0) {
        let w = Radians::new(r).wrapped();
        prop_assert!(w.value() > -std::f64::consts::PI - 1e-12);
        prop_assert!(w.value() <= std::f64::consts::PI + 1e-12);
        prop_assert!((w.sin() - r.sin()).abs() < 1e-9);
        prop_assert!((w.cos() - r.cos()).abs() < 1e-9);
    }

    /// λ·f = c for any mmWave frequency.
    #[test]
    fn wavelength_times_frequency_is_c(f_ghz in 1.0f64..300.0) {
        let f = Hertz::new(f_ghz * 1e9);
        let c = f.wavelength().value() * f.value();
        prop_assert!((c - ros_em::constants::C).abs() < 1e-3);
    }

    /// Incoherent dB power summation matches summing linear ratios.
    #[test]
    fn db_power_sum_matches_linear(a in -40.0f64..10.0, b in -40.0f64..10.0) {
        let sum = db_power_sum([Db::new(a), Db::new(b)]);
        let lin = DbPower::new(a).ratio() + DbPower::new(b).ratio();
        prop_assert!((sum.ratio() - lin).abs() < 1e-9 * lin);
    }
}

// DSP kernel agreement properties: every "fast path" (Goertzel
// single bin, non-uniform resampling) must agree with its
// textbook reference on arbitrary inputs, not just the fixtures the
// unit tests pin down.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Linear resampling preserves monotonicity: a nondecreasing trace
    /// in stays nondecreasing out, including the clamped extrapolation
    /// beyond the sample hull.
    #[test]
    fn resample_preserves_monotonicity(
        steps in prop::collection::vec((0.01f64..1.0, 0.0f64..1.0), 2..40),
        n in 2usize..64,
        margin in 0.0f64..1.0,
    ) {
        let mut x = 0.0;
        let mut y = 0.0;
        let samples: Vec<Sample> = steps
            .iter()
            .map(|&(dx, dy)| {
                x += dx;
                y += dy;
                Sample { x, y }
            })
            .collect();
        let x0 = samples[0].x - margin;
        let x1 = samples[samples.len() - 1].x + margin;
        let out = resample_uniform(samples, x0, x1, n);
        prop_assert_eq!(out.len(), n);
        for w in out.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12, "not monotone: {} then {}", w[0], w[1]);
        }
    }

    /// Hamming(7,4) corrects up to one flip in *every* block — the
    /// full correction budget across a multi-block message, not just a
    /// single corrupted block.
    #[test]
    fn hamming_corrects_one_flip_per_block(
        bits in prop::collection::vec(any::<bool>(), 1..24),
        flips in prop::collection::vec(any::<usize>(), 6),
    ) {
        let coded = ros_core::fec::protect(&bits);
        let n_blocks = coded.len() / 7;
        let mut corrupted = coded.clone();
        let mut expected_fixes = 0;
        for (block, flip) in flips.iter().take(n_blocks).enumerate() {
            // Offset 0..=6 flips that bit of the block; 7 leaves the
            // block clean, so the budget itself is also exercised.
            let offset = flip % 8;
            if offset < 7 {
                corrupted[block * 7 + offset] ^= true;
                expected_fixes += 1;
            }
        }
        let (back, fixes) = ros_core::fec::recover(&corrupted, bits.len()).unwrap();
        prop_assert_eq!(back, bits);
        prop_assert_eq!(fixes, expected_fixes);
        prop_assert!(fixes <= n_blocks, "fixes beyond the correction budget");
    }

    /// CFAR never reports an SNR outside the ±120 dB physical clamp —
    /// for any power profile, including NaN/±∞ poisoned cells, zero
    /// floors, and a deliberately injected dominant spike.
    #[test]
    fn cfar_snr_always_inside_clamp(
        cells in prop::collection::vec((any::<u8>(), 0.0f64..1e6), 8..96),
        spike_at in any::<usize>(),
        spike_db in 0.0f64..200.0,
    ) {
        use ros_dsp::cfar::{ca_cfar, CfarParams};
        // Half the cells stay ordinary power readings; the rest are
        // poisoned with the degenerate values a corrupted frame can
        // produce (NaN, ±∞, a dead zero floor).
        let mut power: Vec<f64> = cells
            .iter()
            .map(|&(tag, v)| match tag % 8 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                _ => v,
            })
            .collect();
        let idx = spike_at % power.len();
        power[idx] = 10f64.powf(spike_db / 10.0);
        for det in ca_cfar(&power, &CfarParams::default()) {
            let snr = det.snr_db();
            prop_assert!(snr.is_finite(), "non-finite SNR from cell {}", det.index);
            prop_assert!(
                (-120.0..=120.0).contains(&snr),
                "SNR {snr} dB outside the ±120 dB clamp"
            );
            prop_assert!(det.power.is_finite() && det.noise.is_finite());
        }
    }

    /// Goertzel-style single-bin evaluation agrees with the FFT at
    /// every on-grid bin (the FFT is unnormalized; `single_bin`
    /// divides by N).
    #[test]
    fn goertzel_matches_fft_bin(
        values in prop::collection::vec((-1e2f64..1e2, -1e2f64..1e2), 2..65),
        k_raw in any::<usize>(),
    ) {
        let n = values.len().next_power_of_two();
        let mut x: Vec<Complex64> = values
            .iter()
            .map(|&(re, im)| Complex64::new(re, im))
            .collect();
        x.resize(n, Complex64::ZERO);
        let k = k_raw % n;
        let got = ros_dsp::goertzel::single_bin(&x, k as f64 / n as f64);
        let mut spec = x.clone();
        fft_in_place(&mut spec);
        let want = spec[k] / n as f64;
        prop_assert!(
            (got - want).abs() < 1e-9 * (1.0 + want.abs()),
            "bin {k}/{n}: goertzel {got:?} vs fft {want:?}"
        );
    }
}
