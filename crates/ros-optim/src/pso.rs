//! Particle swarm optimization — the comparison baseline for the
//! paper's DE-GA choice (§4.3).
//!
//! The paper selects differential evolution for the beam-shaping
//! search without comparing alternatives. PSO is the other standard
//! derivative-free population method; implementing both lets the
//! `optimizer_ablation` experiment quantify whether the DE choice
//! matters for the flat-top objective (spoiler: both reach equivalent
//! flat-tops; DE converges with fewer evaluations on this landscape).

use crate::de::DeResult;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// PSO configuration.
#[derive(Clone, Debug)]
pub struct PsoConfig {
    /// Swarm size.
    pub particles: usize,
    /// Inertia weight ω.
    pub inertia: f64,
    /// Cognitive (personal-best) acceleration c₁.
    pub cognitive: f64,
    /// Social (global-best) acceleration c₂.
    pub social: f64,
    /// Iterations.
    pub max_iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PsoConfig {
    fn default() -> Self {
        PsoConfig {
            particles: 40,
            inertia: 0.72,
            cognitive: 1.49,
            social: 1.49,
            max_iterations: 300,
            seed: 0x9507_0001,
        }
    }
}

/// Minimizes `f` within the axis-aligned box `bounds` using standard
/// global-best PSO with velocity clamping and boundary reflection.
///
/// Returns the same result type as [`crate::de::minimize`] so callers
/// can swap optimizers freely.
///
/// # Panics
/// Panics when `bounds` is empty, any `lo > hi`, or
/// `config.particles < 2`.
#[expect(
    clippy::float_cmp,
    reason = "a degenerate lo == hi bound pins the coordinate; exact by design"
)]
pub fn minimize_pso<F>(mut f: F, bounds: &[(f64, f64)], config: &PsoConfig) -> DeResult
where
    F: FnMut(&[f64]) -> f64,
{
    let dim = bounds.len();
    assert!(dim > 0, "at least one dimension required");
    assert!(
        bounds.iter().all(|&(lo, hi)| lo <= hi),
        "every bound must satisfy lo <= hi"
    );
    assert!(config.particles >= 2, "PSO needs at least 2 particles");

    let mut rng = StdRng::seed_from_u64(config.seed);
    let np = config.particles;
    let vmax: Vec<f64> = bounds.iter().map(|&(lo, hi)| 0.5 * (hi - lo)).collect();

    let mut pos: Vec<Vec<f64>> = (0..np)
        .map(|_| {
            bounds
                .iter()
                .map(|&(lo, hi)| if lo == hi { lo } else { rng.gen_range(lo..hi) })
                .collect()
        })
        .collect();
    let mut vel: Vec<Vec<f64>> = (0..np)
        .map(|_| vmax.iter().map(|&v| rng.gen_range(-v..=v)).collect())
        .collect();
    let mut best_pos = pos.clone();
    let mut best_cost: Vec<f64> = pos.iter_mut().map(|x| f(x)).collect();
    let mut evaluations = np;

    let mut g_best = 0usize;
    for i in 1..np {
        if best_cost[i] < best_cost[g_best] {
            g_best = i;
        }
    }
    let mut g_pos = best_pos[g_best].clone();
    let mut g_cost = best_cost[g_best];

    let mut iterations = 0;
    for _ in 0..config.max_iterations {
        iterations += 1;
        for i in 0..np {
            for d in 0..dim {
                let r1: f64 = rng.gen();
                let r2: f64 = rng.gen();
                vel[i][d] = config.inertia * vel[i][d]
                    + config.cognitive * r1 * (best_pos[i][d] - pos[i][d])
                    + config.social * r2 * (g_pos[d] - pos[i][d]);
                vel[i][d] = vel[i][d].clamp(-vmax[d], vmax[d]);
                pos[i][d] += vel[i][d];
                // Reflect at the walls.
                let (lo, hi) = bounds[d];
                if pos[i][d] < lo {
                    pos[i][d] = lo + (lo - pos[i][d]).min(hi - lo);
                    vel[i][d] = -vel[i][d];
                } else if pos[i][d] > hi {
                    pos[i][d] = hi - (pos[i][d] - hi).min(hi - lo);
                    vel[i][d] = -vel[i][d];
                }
            }
            let cost = f(&pos[i]);
            evaluations += 1;
            if cost < best_cost[i] {
                best_cost[i] = cost;
                best_pos[i] = pos[i].clone();
                if cost < g_cost {
                    g_cost = cost;
                    g_pos = pos[i].clone();
                }
            }
        }
    }

    DeResult {
        x: g_pos,
        cost: g_cost,
        generations: iterations,
        evaluations,
        pruned: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfn;

    #[test]
    fn minimizes_sphere() {
        let bounds = vec![(-5.0, 5.0); 4];
        let r = minimize_pso(testfn::sphere, &bounds, &PsoConfig::default());
        assert!(r.cost < 1e-6, "cost {}", r.cost);
    }

    #[test]
    fn minimizes_rosenbrock() {
        let bounds = vec![(-2.0, 2.0); 2];
        let cfg = PsoConfig {
            max_iterations: 800,
            ..Default::default()
        };
        let r = minimize_pso(testfn::rosenbrock, &bounds, &cfg);
        assert!(r.cost < 1e-3, "cost {}", r.cost);
    }

    #[test]
    fn handles_multimodal_rastrigin() {
        let bounds = vec![(-5.12, 5.12); 3];
        let cfg = PsoConfig {
            particles: 80,
            max_iterations: 600,
            ..Default::default()
        };
        let r = minimize_pso(testfn::rastrigin, &bounds, &cfg);
        // PSO can trap in local minima on Rastrigin; accept near-global.
        assert!(r.cost < 2.0, "cost {}", r.cost);
    }

    #[test]
    fn respects_bounds() {
        let bounds = vec![(1.0, 2.0), (-3.0, -2.5)];
        let r = minimize_pso(testfn::sphere, &bounds, &PsoConfig::default());
        assert!(r.x[0] >= 1.0 - 1e-12 && r.x[0] <= 2.0 + 1e-12);
        assert!(r.x[1] >= -3.0 - 1e-12 && r.x[1] <= -2.5 + 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let bounds = vec![(-5.0, 5.0); 3];
        let cfg = PsoConfig {
            max_iterations: 40,
            ..Default::default()
        };
        let a = minimize_pso(testfn::ackley, &bounds, &cfg);
        let b = minimize_pso(testfn::ackley, &bounds, &cfg);
        assert_eq!(a.x, b.x);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    #[should_panic(expected = "at least 2 particles")]
    fn tiny_swarm_rejected() {
        minimize_pso(
            testfn::sphere,
            &[(-1.0, 1.0)],
            &PsoConfig {
                particles: 1,
                ..Default::default()
            },
        );
    }
}
