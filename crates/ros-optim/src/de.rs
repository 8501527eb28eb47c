//! Differential evolution (Storn & Price 1997) with bound constraints.
//!
//! Minimizes `f: ℝᴰ → ℝ` inside a box. The implementation is
//! deterministic given the seed, which keeps the beam-shaping layouts
//! (and therefore every downstream figure) reproducible.
//!
//! Two selection schemes coexist:
//!
//! * [`minimize`] — the classic **asynchronous** Storn & Price loop:
//!   an accepted trial replaces its target immediately, so later
//!   trials in the same generation already mutate against it. Every
//!   historical layout (beam-shaping profiles, ASK amplitude
//!   calibration) was produced by this trajectory, so it is preserved
//!   bit-for-bit.
//! * [`minimize_par`] — **generation-synchronous** selection: each
//!   generation draws all of its randomness and builds all `NP` trial
//!   vectors against the generation-start population, evaluates the
//!   whole batch (fanned out over [`ros_exec::par_map`]), and only
//!   then applies the greedy replacement. Because the RNG stream never
//!   depends on objective values and each trial evaluates
//!   independently, the result is bit-identical at any thread count —
//!   the property `tests/determinism.rs` locks down. The two schemes
//!   converge to the same optima but follow different trajectories,
//!   so they are deliberately separate entry points.

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
// lint: allow-dead-pub(returned by minimize; callers bind fields, never the name)
pub struct DeResult {
    /// Best parameter vector found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub cost: f64,
    /// Generations executed.
    pub generations: usize,
    /// Objective evaluations performed.
    pub evaluations: usize,
}

/// Minimizes `f` within the axis-aligned box `bounds`
/// (`bounds[i] = (lo, hi)` for dimension `i`).
///
/// ```
/// use ros_optim::{minimize, DeConfig};
/// let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
/// let r = minimize(sphere, &[(-3.0, 3.0); 2], &DeConfig::default());
/// assert!(r.cost < 1e-6);
/// ```
///
/// # Panics
/// Panics if `bounds` is empty, any `lo > hi`, or
/// `config.population < 4`.
#[expect(clippy::float_cmp, reason = "a degenerate lo == hi bound pins the coordinate; exact by design")]
pub fn minimize<F>(mut f: F, bounds: &[(f64, f64)], config: &DeConfig) -> DeResult
where
    F: FnMut(&[f64]) -> f64,
{
    let dim = bounds.len();
    assert!(dim > 0, "at least one dimension required");
    assert!(
        bounds.iter().all(|&(lo, hi)| lo <= hi),
        "every bound must satisfy lo <= hi"
    );
    assert!(config.population >= 4, "DE needs a population of at least 4");

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
    let mut costs: Vec<f64> = pop.iter().map(|x| f(x)).collect();
    let mut evaluations = np;

    let mut best_idx = argmin(&costs);

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

            // Mutant vector.
            let mutant: Vec<f64> = (0..dim)
                .map(|d| match config.strategy {
                    Strategy::Rand1Bin => pop[r1][d] + config.f * (pop[r2][d] - pop[r3][d]),
                    Strategy::Best1Bin => {
                        pop[best_idx][d] + config.f * (pop[r1][d] - pop[r2][d])
                    }
                    Strategy::RandToBest1Bin => {
                        pop[i][d]
                            + config.f * (pop[best_idx][d] - pop[i][d])
                            + config.f * (pop[r1][d] - pop[r2][d])
                    }
                })
                .collect();

            // Binomial crossover with a guaranteed mutant gene.
            let forced = rng.gen_range(0..dim);
            let trial: Vec<f64> = (0..dim)
                .map(|d| {
                    let take_mutant = d == forced || rng.gen::<f64>() < config.cr;
                    let v = if take_mutant { mutant[d] } else { pop[i][d] };
                    v.clamp(bounds[d].0, bounds[d].1)
                })
                .collect();

            let trial_cost = f(&trial);
            evaluations += 1;
            if trial_cost <= costs[i] {
                pop[i] = trial;
                costs[i] = trial_cost;
                if trial_cost < costs[best_idx] {
                    best_idx = i;
                }
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
    }
}

/// Generation-synchronous DE with the per-generation trial batch
/// evaluated in parallel on [`ros_exec`]'s scoped-thread executor.
///
/// Requires `F: Fn + Sync` (shared read-only across workers). The
/// result is **bit-identical at any worker count** — including
/// `ROS_EXEC_THREADS=1` — because the RNG stream is drawn before
/// evaluation and never depends on objective values, and each trial is
/// evaluated independently. It is *not* the same trajectory as
/// [`minimize`] (synchronous vs asynchronous selection; see the module
/// docs), though it converges to the same optima on the benchmark
/// suite.
///
/// # Panics
/// Panics on the same invalid inputs as [`minimize`].
#[expect(clippy::float_cmp, reason = "a degenerate lo == hi bound pins the coordinate; exact by design")]
pub fn minimize_par<F>(f: F, bounds: &[(f64, f64)], config: &DeConfig) -> DeResult
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    let dim = bounds.len();
    assert!(dim > 0, "at least one dimension required");
    assert!(
        bounds.iter().all(|&(lo, hi)| lo <= hi),
        "every bound must satisfy lo <= hi"
    );
    assert!(config.population >= 4, "DE needs a population of at least 4");

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
    let mut costs: Vec<f64> = ros_exec::par_map(&pop, |x| f(x));
    let mut evaluations = np;

    let mut best_idx = argmin(&costs);

    let mut generation = 0;
    while generation < config.max_generations {
        generation += 1;

        // Draw all randomness and build all NP trials against the
        // generation-start population (synchronous DE). The draw order
        // per member — r1/r2/r3, forced gene, CR coin per gene — is
        // cost-independent, so every thread count sees the same stream.
        let trials: Vec<Vec<f64>> = (0..np)
            .map(|i| {
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

                // Mutant vector.
                let mutant: Vec<f64> = (0..dim)
                    .map(|d| match config.strategy {
                        Strategy::Rand1Bin => pop[r1][d] + config.f * (pop[r2][d] - pop[r3][d]),
                        Strategy::Best1Bin => {
                            pop[best_idx][d] + config.f * (pop[r1][d] - pop[r2][d])
                        }
                        Strategy::RandToBest1Bin => {
                            pop[i][d]
                                + config.f * (pop[best_idx][d] - pop[i][d])
                                + config.f * (pop[r1][d] - pop[r2][d])
                        }
                    })
                    .collect();

                // Binomial crossover with a guaranteed mutant gene.
                let forced = rng.gen_range(0..dim);
                (0..dim)
                    .map(|d| {
                        let take_mutant = d == forced || rng.gen::<f64>() < config.cr;
                        let v = if take_mutant { mutant[d] } else { pop[i][d] };
                        v.clamp(bounds[d].0, bounds[d].1)
                    })
                    .collect()
            })
            .collect();

        // Evaluate the whole batch (the parallelizable step), then
        // apply greedy one-to-one selection.
        let trial_costs = ros_exec::par_map(&trials, |x| f(x));
        evaluations += np;
        for (i, (trial, trial_cost)) in trials.into_iter().zip(trial_costs).enumerate() {
            if trial_cost <= costs[i] {
                pop[i] = trial;
                costs[i] = trial_cost;
                if trial_cost < costs[best_idx] {
                    best_idx = i;
                }
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

    // Emitted from the serial epilogue, after the last par_map batch —
    // the count is identical at every thread count.
    ros_obs::count(names::OPTIM_DE_GENERATIONS, generation);
    DeResult {
        x: pop[best_idx].clone(),
        cost: costs[best_idx],
        generations: generation,
        evaluations,
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
        let r = minimize(testfn::sphere, &bounds, &DeConfig::default());
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
        let r = minimize(testfn::rosenbrock, &bounds, &cfg);
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
        let r = minimize(testfn::rastrigin, &bounds, &cfg);
        assert!(r.cost < 1e-3, "cost {}", r.cost);
    }

    #[test]
    fn respects_bounds() {
        let bounds = vec![(1.0, 2.0), (-3.0, -2.5)];
        // Optimum of the sphere is outside the box; DE must stay inside.
        let r = minimize(testfn::sphere, &bounds, &DeConfig::default());
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
        let a = minimize(testfn::rastrigin, &bounds, &cfg);
        let b = minimize(testfn::rastrigin, &bounds, &cfg);
        assert_eq!(a.x, b.x);
        assert_eq!(a.cost, b.cost);
        let other = minimize(
            testfn::rastrigin,
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
        let r = minimize(testfn::sphere, &bounds, &cfg);
        assert!(r.generations < 10_000);
        assert!(r.cost <= 1.0);
    }

    #[test]
    fn all_strategies_solve_sphere() {
        let bounds = vec![(-5.0, 5.0); 3];
        for strategy in [Strategy::Rand1Bin, Strategy::Best1Bin, Strategy::RandToBest1Bin] {
            let cfg = DeConfig {
                strategy,
                ..Default::default()
            };
            let r = minimize(testfn::sphere, &bounds, &cfg);
            assert!(r.cost < 1e-4, "{strategy:?} cost {}", r.cost);
        }
    }

    #[test]
    fn degenerate_bound_is_held_fixed() {
        let bounds = vec![(2.0, 2.0), (-1.0, 1.0)];
        let r = minimize(testfn::sphere, &bounds, &DeConfig::default());
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
        minimize(testfn::sphere, &[(-1.0, 1.0)], &cfg);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn inverted_bounds_rejected() {
        minimize(testfn::sphere, &[(1.0, -1.0)], &DeConfig::default());
    }

    #[test]
    fn parallel_bit_identical_across_thread_counts() {
        let bounds = vec![(-5.0, 5.0); 4];
        let cfg = DeConfig {
            max_generations: 60,
            seed: 0xbeef,
            ..Default::default()
        };
        let serial = {
            let _pin = ros_exec::ThreadGuard::pin(Some(1));
            minimize_par(testfn::rastrigin, &bounds, &cfg)
        };
        for t in [2, 8] {
            let _pin = ros_exec::ThreadGuard::pin(Some(t));
            let par = minimize_par(testfn::rastrigin, &bounds, &cfg);
            assert_eq!(serial.cost.to_bits(), par.cost.to_bits(), "threads={t}");
            for (a, b) in serial.x.iter().zip(&par.x) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={t}");
            }
            assert_eq!(serial.evaluations, par.evaluations);
            assert_eq!(serial.generations, par.generations);
        }
    }

    #[test]
    fn parallel_variant_solves_benchmarks() {
        let r = minimize_par(testfn::sphere, &[(-5.0, 5.0); 4], &DeConfig::default());
        assert!(r.cost < 1e-6, "sphere cost {}", r.cost);
        let cfg = DeConfig {
            population: 60,
            max_generations: 800,
            ..Default::default()
        };
        let r = minimize_par(testfn::rastrigin, &[(-5.12, 5.12); 3], &cfg);
        assert!(r.cost < 1e-3, "rastrigin cost {}", r.cost);
    }

    #[test]
    fn evaluation_count_reported() {
        let bounds = vec![(-1.0, 1.0); 2];
        let cfg = DeConfig {
            population: 10,
            max_generations: 5,
            ..Default::default()
        };
        let r = minimize(testfn::sphere, &bounds, &cfg);
        // init (10) + 5 generations × 10 trials.
        assert_eq!(r.evaluations, 10 + 5 * 10);
    }
}
