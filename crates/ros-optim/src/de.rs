//! Differential evolution (Storn & Price 1997) with bound constraints.
//!
//! Minimizes `f: ℝᴰ → ℝ` inside a box with the classic
//! **asynchronous** loop: an accepted trial replaces its target at
//! once, so later trials in the same generation already mutate against
//! it. The loop is deterministic given the seed, and every historical
//! layout (beam-shaping profiles, ASK amplitude calibration) was
//! produced by this exact trajectory, so it is preserved bit for bit.
//!
//! # The cutoff contract
//!
//! Selection only asks whether a trial beats its target: a rejected
//! trial's exact cost is never used. The objective therefore receives
//! the cost it must beat, `f(x, cutoff)`, and must
//!
//! * return the exact cost of `x` when that cost is `≤ cutoff`, and
//! * otherwise return any value `> cutoff`.
//!
//! A trial's cutoff is its target's cost; the initial population is
//! evaluated with `f64::INFINITY`, so every cost the loop keeps is
//! exact and the trajectory does not depend on how early an objective
//! gives up. An objective that cannot prune ignores the cutoff:
//! `|x, _| f(x)`. One that gives up returns `f64::INFINITY`, which
//! [`DeResult::pruned`] counts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ros_obs::names;

/// Mutation/crossover strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// `DE/rand/1/bin` — classic, good global exploration.
    Rand1Bin,
    /// `DE/best/1/bin` — greedier, faster on smooth objectives.
    Best1Bin,
    /// `DE/rand-to-best/1/bin` — compromise between the two.
    RandToBest1Bin,
}

/// Optimizer configuration.
#[derive(Clone, Debug)]
pub struct DeConfig {
    /// Population size (≥ 4). Typical: 10·D.
    pub population: usize,
    /// Differential weight F ∈ (0, 2].
    pub f: f64,
    /// Crossover probability CR ∈ [0, 1].
    pub cr: f64,
    /// Maximum generations.
    pub max_generations: usize,
    /// Early-stop when the best cost falls below this.
    pub target_cost: f64,
    /// Early-stop when the population cost spread falls below this.
    pub tol: f64,
    /// Mutation strategy.
    pub strategy: Strategy,
    /// RNG seed (results are deterministic per seed).
    pub seed: u64,
}

impl Default for DeConfig {
    fn default() -> Self {
        DeConfig {
            population: 40,
            f: 0.7,
            cr: 0.9,
            max_generations: 300,
            target_cost: f64::NEG_INFINITY,
            tol: 0.0,
            strategy: Strategy::Rand1Bin,
            seed: 0x5eed_0001,
        }
    }
}

/// Result of a DE run.
#[derive(Clone, Debug)]
pub struct DeResult {
    /// Best parameter vector found.
    pub x: Vec<f64>,
    /// Objective value at `x`, exact: the best cost is always an
    /// accepted one.
    pub cost: f64,
    /// Generations executed.
    pub generations: usize,
    /// Objective evaluations performed.
    pub evaluations: usize,
    /// Rejected trials whose objective gave up early, i.e. returned
    /// `f64::INFINITY` against a finite cutoff.
    pub pruned: usize,
}

/// Minimizes `f` within the axis-aligned box `bounds`
/// (`bounds[i] = (lo, hi)` for dimension `i`). `f(x, cutoff)` follows
/// the module's cutoff contract.
///
/// ```
/// use ros_optim::{minimize, DeConfig};
/// let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
/// let r = minimize(|x, _| sphere(x), &[(-3.0, 3.0); 2], &DeConfig::default());
/// assert!(r.cost < 1e-6);
/// ```
///
/// # Panics
/// Panics if `bounds` is empty, any `lo > hi`, or
/// `config.population < 4`.
#[expect(
    clippy::float_cmp,
    reason = "a degenerate lo == hi bound pins the coordinate; exact by design"
)]
pub fn minimize<F>(mut f: F, bounds: &[(f64, f64)], config: &DeConfig) -> DeResult
where
    F: FnMut(&[f64], f64) -> f64,
{
    let dim = bounds.len();
    assert!(dim > 0, "at least one dimension required");
    assert!(
        bounds.iter().all(|&(lo, hi)| lo <= hi),
        "every bound must satisfy lo <= hi"
    );
    assert!(
        config.population >= 4,
        "DE needs a population of at least 4"
    );

    let mut rng = StdRng::seed_from_u64(config.seed);
    let np = config.population;

    // Initial population: uniform in the box.
    let mut pop: Vec<Vec<f64>> = (0..np)
        .map(|_| {
            bounds
                .iter()
                .map(|&(lo, hi)| if lo == hi { lo } else { rng.gen_range(lo..hi) })
                .collect()
        })
        .collect();
    let mut costs: Vec<f64> = pop.iter().map(|x| f(x, f64::INFINITY)).collect();
    let mut evaluations = np;
    let mut pruned = 0;

    let mut best_idx = argmin(&costs);

    // One trial buffer for the whole run: an accepted trial swaps
    // places with its target, whose old genes are overwritten next.
    let mut trial = vec![0.0; dim];
    let mut generation = 0;
    while generation < config.max_generations {
        generation += 1;
        for i in 0..np {
            // Pick distinct indices r1, r2, r3 ≠ i.
            let mut pick = || loop {
                let r = rng.gen_range(0..np);
                if r != i {
                    return r;
                }
            };
            let r1 = pick();
            let r2 = loop {
                let r = pick();
                if r != r1 {
                    break r;
                }
            };
            let r3 = loop {
                let r = pick();
                if r != r1 && r != r2 {
                    break r;
                }
            };

            // Binomial crossover with a guaranteed mutant gene. A
            // mutant gene is a pure function of the population, so it
            // is formed only where the crossover takes it.
            let forced = rng.gen_range(0..dim);
            for (d, t) in trial.iter_mut().enumerate() {
                let take_mutant = d == forced || rng.gen::<f64>() < config.cr;
                let v = if take_mutant {
                    match config.strategy {
                        Strategy::Rand1Bin => pop[r1][d] + config.f * (pop[r2][d] - pop[r3][d]),
                        Strategy::Best1Bin => {
                            pop[best_idx][d] + config.f * (pop[r1][d] - pop[r2][d])
                        }
                        Strategy::RandToBest1Bin => {
                            pop[i][d]
                                + config.f * (pop[best_idx][d] - pop[i][d])
                                + config.f * (pop[r1][d] - pop[r2][d])
                        }
                    }
                } else {
                    pop[i][d]
                };
                *t = v.clamp(bounds[d].0, bounds[d].1);
            }

            let trial_cost = f(&trial, costs[i]);
            evaluations += 1;
            if trial_cost <= costs[i] {
                std::mem::swap(&mut pop[i], &mut trial);
                costs[i] = trial_cost;
                if trial_cost < costs[best_idx] {
                    best_idx = i;
                }
            } else if trial_cost.is_infinite() {
                pruned += 1;
            }
        }

        if costs[best_idx] <= config.target_cost {
            break;
        }
        if config.tol > 0.0 {
            let worst = costs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            if worst - costs[best_idx] < config.tol {
                break;
            }
        }
    }

    ros_obs::count(names::OPTIM_DE_GENERATIONS, generation);
    DeResult {
        x: pop[best_idx].clone(),
        cost: costs[best_idx],
        generations: generation,
        evaluations,
        pruned,
    }
}

fn argmin(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x < xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfn;

    #[test]
    fn minimizes_sphere() {
        let bounds = vec![(-5.0, 5.0); 4];
        let r = minimize(|x, _| testfn::sphere(x), &bounds, &DeConfig::default());
        assert!(r.cost < 1e-6, "cost {}", r.cost);
        assert!(r.x.iter().all(|v| v.abs() < 1e-2));
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let bounds = vec![(-2.0, 2.0); 2];
        let cfg = DeConfig {
            max_generations: 600,
            ..Default::default()
        };
        let r = minimize(|x, _| testfn::rosenbrock(x), &bounds, &cfg);
        assert!(r.cost < 1e-4, "cost {}", r.cost);
        assert!((r.x[0] - 1.0).abs() < 0.05 && (r.x[1] - 1.0).abs() < 0.05);
    }

    #[test]
    fn minimizes_rastrigin_multimodal() {
        let bounds = vec![(-5.12, 5.12); 3];
        let cfg = DeConfig {
            population: 60,
            max_generations: 800,
            ..Default::default()
        };
        let r = minimize(|x, _| testfn::rastrigin(x), &bounds, &cfg);
        assert!(r.cost < 1e-3, "cost {}", r.cost);
    }

    #[test]
    fn respects_bounds() {
        let bounds = vec![(1.0, 2.0), (-3.0, -2.5)];
        // Optimum of the sphere is outside the box; DE must stay inside.
        let r = minimize(|x, _| testfn::sphere(x), &bounds, &DeConfig::default());
        assert!(r.x[0] >= 1.0 && r.x[0] <= 2.0);
        assert!(r.x[1] >= -3.0 && r.x[1] <= -2.5);
        // Best feasible point is the corner (1, -2.5).
        assert!((r.x[0] - 1.0).abs() < 1e-6);
        assert!((r.x[1] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn deterministic_per_seed() {
        let bounds = vec![(-5.0, 5.0); 3];
        let cfg = DeConfig {
            seed: 42,
            max_generations: 50,
            ..Default::default()
        };
        let a = minimize(|x, _| testfn::rastrigin(x), &bounds, &cfg);
        let b = minimize(|x, _| testfn::rastrigin(x), &bounds, &cfg);
        assert_eq!(a.x, b.x);
        assert_eq!(a.cost, b.cost);
        let other = minimize(
            |x, _| testfn::rastrigin(x),
            &bounds,
            &DeConfig {
                seed: 43,
                max_generations: 50,
                ..Default::default()
            },
        );
        // Different seeds explore differently (cost may coincide, path not).
        assert_ne!(a.x, other.x);
    }

    #[test]
    fn target_cost_stops_early() {
        let bounds = vec![(-5.0, 5.0); 2];
        let cfg = DeConfig {
            target_cost: 1.0,
            max_generations: 10_000,
            ..Default::default()
        };
        let r = minimize(|x, _| testfn::sphere(x), &bounds, &cfg);
        assert!(r.generations < 10_000);
        assert!(r.cost <= 1.0);
    }

    #[test]
    fn all_strategies_solve_sphere() {
        let bounds = vec![(-5.0, 5.0); 3];
        for strategy in [
            Strategy::Rand1Bin,
            Strategy::Best1Bin,
            Strategy::RandToBest1Bin,
        ] {
            let cfg = DeConfig {
                strategy,
                ..Default::default()
            };
            let r = minimize(|x, _| testfn::sphere(x), &bounds, &cfg);
            assert!(r.cost < 1e-4, "{strategy:?} cost {}", r.cost);
        }
    }

    #[test]
    fn degenerate_bound_is_held_fixed() {
        let bounds = vec![(2.0, 2.0), (-1.0, 1.0)];
        let r = minimize(|x, _| testfn::sphere(x), &bounds, &DeConfig::default());
        assert_eq!(r.x[0], 2.0);
        assert!(r.x[1].abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn tiny_population_rejected() {
        let cfg = DeConfig {
            population: 3,
            ..Default::default()
        };
        minimize(|x, _| testfn::sphere(x), &[(-1.0, 1.0)], &cfg);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn inverted_bounds_rejected() {
        minimize(
            |x, _| testfn::sphere(x),
            &[(1.0, -1.0)],
            &DeConfig::default(),
        );
    }

    #[test]
    fn evaluation_count_reported() {
        let bounds = vec![(-1.0, 1.0); 2];
        let cfg = DeConfig {
            population: 10,
            max_generations: 5,
            ..Default::default()
        };
        let r = minimize(|x, _| testfn::sphere(x), &bounds, &cfg);
        // init (10) + 5 generations × 10 trials.
        assert_eq!(r.evaluations, 10 + 5 * 10);
    }

    /// A sphere that follows the cutoff contract the way the flat-top
    /// objective does: it sums squares and gives up as soon as the
    /// partial sum (a lower bound of the total) exceeds the cutoff.
    fn pruning_sphere(x: &[f64], cutoff: f64) -> f64 {
        let mut sum = 0.0;
        for v in x {
            sum += v * v;
            if sum > cutoff {
                return f64::INFINITY;
            }
        }
        sum
    }

    #[test]
    fn pruning_objective_keeps_the_trajectory() {
        let bounds = vec![(-5.0, 5.0); 6];
        for strategy in [
            Strategy::Rand1Bin,
            Strategy::Best1Bin,
            Strategy::RandToBest1Bin,
        ] {
            let cfg = DeConfig {
                strategy,
                max_generations: 80,
                seed: 7,
                ..Default::default()
            };
            let exact = minimize(|x, _| testfn::sphere(x), &bounds, &cfg);
            let pruned = minimize(pruning_sphere, &bounds, &cfg);
            assert_eq!(exact.cost.to_bits(), pruned.cost.to_bits(), "{strategy:?}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&exact.x), bits(&pruned.x), "{strategy:?}");
            assert_eq!(exact.evaluations, pruned.evaluations);
            assert_eq!(exact.pruned, 0);
            assert!(pruned.pruned > 0, "{strategy:?} pruned nothing");
        }
    }
}
