//! Special functions used by the RoS performance models.
//!
//! The OOK bit-error-rate model (§7.1) needs the complementary error
//! function, and array-factor math uses the Dirichlet (periodic sinc)
//! kernel. `std` provides neither, so we implement them here with
//! accuracy sufficient for link-level modelling (relative error < 1e-7
//! for `erfc`).

use crate::units::cast::{self, AsF64};

/// Complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Uses the rational Chebyshev approximation from Numerical Recipes
/// (`erfccheb`-style single formula), accurate to ~1.2e-7 everywhere,
/// far below the precision any BER plot needs.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Dirichlet kernel (periodic sinc): `sin(Nx/2)/(N·sin(x/2))`,
/// normalized to 1 at `x = 0`. This is the magnitude shape of an
/// `N`-element uniform array factor versus phase progression `x`.
pub fn dirichlet(x: f64, n: usize) -> f64 {
    debug_assert!(n > 0);
    let half = x / 2.0;
    let denom = half.sin();
    if denom.abs() < 1e-12 {
        // At multiples of 2π the ratio → ±1; take the limit.
        let k = cast::round_i64(x / std::f64::consts::TAU);
        // The limit is (−1)^(k·(n−1)); only the parity of the product
        // matters, and wrapping_sub preserves parity even for n = 0.
        let product_odd = k % 2 != 0 && !n.wrapping_sub(1).is_multiple_of(2);
        return if product_odd { -1.0 } else { 1.0 };
    }
    (n.as_f64() * half).sin() / (n.as_f64() * denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        // Abramowitz & Stegun table values.
        let cases = [
            (0.0, 1.0),
            (0.5, 0.4795001),
            (1.0, 0.1572992),
            (1.5, 0.0338949),
            (2.0, 0.0046777),
            (3.0, 2.20905e-5),
        ];
        for (x, want) in cases {
            let got = erfc(x);
            assert!(
                (got - want).abs() < 2e-7 * (1.0 + want),
                "erfc({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn erfc_symmetry() {
        for x in [0.1, 0.7, 1.3, 2.4] {
            assert!((erfc(-x) - (2.0 - erfc(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn dirichlet_peak_and_nulls() {
        let n = 8;
        assert!((dirichlet(0.0, n) - 1.0).abs() < 1e-12);
        // First null of an N-element uniform array at x = 2π/N.
        let null = dirichlet(std::f64::consts::TAU / n as f64, n);
        assert!(null.abs() < 1e-12, "got {null}");
        // Grating-lobe replica at x = 2π.
        assert!((dirichlet(std::f64::consts::TAU, n).abs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ook_ber_anchors_from_paper() {
        // §7.1 & §7.2 anchor points: BER = ½·erfc(√SNR / (2√2)).
        let ber = |snr_db: f64| {
            let snr = 10f64.powf(snr_db / 10.0);
            0.5 * erfc(snr.sqrt() / (2.0 * std::f64::consts::SQRT_2))
        };
        assert!((ber(15.8) - 0.001).abs() < 3e-4); // "15.8 dB ↔ 0.1%"
        assert!((ber(14.0) - 0.006).abs() < 2e-3); // "14 dB ↔ 0.6%"
        assert!((ber(10.0) - 0.057).abs() < 8e-3); // "10 dB ↔ 5.7%"
    }
}
