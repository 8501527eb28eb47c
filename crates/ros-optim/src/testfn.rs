//! Standard optimization benchmark functions, the objectives the DE
//! and PSO tests minimize.

use ros_em::units::cast::AsF64;

/// Sphere function `Σ xᵢ²`. Global minimum 0 at the origin.
pub fn sphere(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

/// Rosenbrock's banana valley
/// `Σ [100(x_{i+1} − xᵢ²)² + (1 − xᵢ)²]`.
/// Global minimum 0 at `(1, …, 1)`.
pub fn rosenbrock(x: &[f64]) -> f64 {
    x.windows(2)
        .map(|w| 100.0 * (w[1] - w[0] * w[0]).powi(2) + (1.0 - w[0]).powi(2))
        .sum()
}

/// Rastrigin's highly multimodal function
/// `10·D + Σ [xᵢ² − 10·cos(2πxᵢ)]`. Global minimum 0 at the origin.
pub fn rastrigin(x: &[f64]) -> f64 {
    10.0 * x.len().as_f64()
        + x.iter()
            .map(|v| v * v - 10.0 * (std::f64::consts::TAU * v).cos())
            .sum::<f64>()
}

/// Ackley's function. Global minimum 0 at the origin.
pub fn ackley(x: &[f64]) -> f64 {
    let d = x.len().as_f64();
    let sum_sq: f64 = x.iter().map(|v| v * v).sum();
    let sum_cos: f64 = x.iter().map(|v| (std::f64::consts::TAU * v).cos()).sum();
    -20.0 * (-0.2 * (sum_sq / d).sqrt()).exp() - (sum_cos / d).exp() + 20.0 + std::f64::consts::E
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minima_at_known_points() {
        assert_eq!(sphere(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(rosenbrock(&[1.0, 1.0, 1.0]), 0.0);
        assert!(rastrigin(&[0.0, 0.0]).abs() < 1e-12);
        assert!(ackley(&[0.0, 0.0]).abs() < 1e-12);
    }

    #[test]
    fn positive_away_from_minima() {
        assert!(sphere(&[1.0]) > 0.0);
        assert!(rosenbrock(&[0.0, 0.0]) > 0.0);
        assert!(rastrigin(&[0.5]) > 0.0);
        assert!(ackley(&[1.0, 1.0]) > 0.0);
    }

    #[test]
    fn rastrigin_has_local_minima() {
        // x = 1 is near a local minimum with cost ≈ 1, far from global 0.
        let local = rastrigin(&[1.0]);
        assert!(local > 0.5 && local < 2.0);
    }
}
