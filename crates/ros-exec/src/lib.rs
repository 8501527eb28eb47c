//! Deterministic parallel execution for the RoS pipeline.
//!
//! Every hot loop in the workspace — DE population evaluation, per-frame
//! echo synthesis, u-grid RCS sweeps, figure fan-out — is a map over
//! independent work items. This crate provides that map as a scoped-thread
//! chunked executor with two hard guarantees the simulation layers rely on:
//!
//! 1. **Stable ordering** — [`par_map`] returns results in input order
//!    regardless of how the OS schedules the worker threads. Output `i`
//!    is always `f(items[i])`.
//! 2. **Bit-reproducibility at any thread count** — work items never share
//!    mutable state, each item's floating-point evaluation order is the
//!    same as in a plain serial `iter().map()`, and randomness is derived
//!    per item from a master seed via [`ParSeed`], never from a shared RNG
//!    stream. `par_map` at 1, 2, or 64 threads therefore produces outputs
//!    whose `f64::to_bits()` are identical to the serial evaluation.
//!
//! The worker count comes from, in priority order: the calling thread's
//! [`ThreadGuard`] pin, the `ROS_EXEC_THREADS` environment variable,
//! and finally [`std::thread::available_parallelism`]. `ROS_EXEC_THREADS=1`
//! turns every wired path back into plain serial execution (used by
//! `verify.sh` to cross-check determinism). Workers inherit their
//! spawner's pin and telemetry run ([`ros_obs::RunContext`]).
//!
//! The crate is std-only: scoped threads (`std::thread::scope`) carry
//! borrowed slices into the workers, so no `'static` bounds, no channels,
//! and no external dependencies beyond the std-only `ros-obs`.

use std::cell::Cell;
use std::thread::ScopedJoinHandle;

pub mod channel;

thread_local! {
    /// The calling thread's worker-count pin (0 = unset).
    static PIN: Cell<usize> = const { Cell::new(0) };
}

/// Wraps `f` for a worker thread: the worker enters the calling
/// thread's telemetry run and worker pin, then runs `f`.
fn inherit<R>(f: impl FnOnce() -> R) -> impl FnOnce() -> R {
    let (run, pin) = (ros_obs::RunContext::current(), PIN.get());
    move || {
        run.within(|| {
            PIN.set(pin);
            f()
        })
    }
}

/// Runs `f` inside a scoped-thread region, as `std::thread::scope` does.
///
/// This crate is the workspace's single spawn boundary (clippy's
/// `disallowed_methods` bans direct `std::thread` spawning everywhere
/// else), and the `par_map` family only covers slice-shaped fan-out.
/// Long-running services — `ros-serve`'s producer/worker/aggregator
/// topology — need free-form scoped workers wired by [`channel`]s, so
/// the escape hatch lives here where the spawn policy is audited.
/// Workers spawned on the scope are joined before `scope` returns and
/// panics propagate, same as the underlying std primitive.
#[expect(
    clippy::disallowed_methods,
    reason = "ros-exec is the workspace's one spawn boundary"
)]
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
{
    std::thread::scope(|inner| f(&Scope { inner }))
}

/// `std::thread::Scope`, but each worker enters its spawner's run and pin.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope> Scope<'scope, '_> {
    /// Spawns a scoped worker, as `std::thread::Scope::spawn` does.
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        self.inner.spawn(inherit(f))
    }
}

/// An RAII worker-count override: pins the pool size for its scope and
/// restores the *prior* value on drop (including on panic).
///
/// This replaces a bare `set_threads(Some(1))` → `set_threads(None)`
/// pair, which clobbered any enclosing override and left the pool in
/// the wrong state when the code between the calls panicked. Guards
/// nest correctly:
///
/// ```
/// use ros_exec::ThreadGuard;
/// let outer = ThreadGuard::pin(Some(4));
/// assert_eq!(ros_exec::threads(), 4);
/// {
///     let _inner = ThreadGuard::pin(Some(1));
///     assert_eq!(ros_exec::threads(), 1);
/// } // inner drops: back to 4, not to "unset"
/// assert_eq!(ros_exec::threads(), 4);
/// drop(outer);
/// ```
///
/// Takes precedence over `ROS_EXEC_THREADS`. Intended for benchmarks
/// and determinism tests that compare the same code path at several
/// thread counts within one process; library code should not pin.
/// The pin is the calling thread's, inherited by the workers it spawns.
#[must_use = "dropping the guard immediately restores the prior thread count"]
pub struct ThreadGuard {
    prev: usize,
}

impl ThreadGuard {
    /// Pins the worker count to `n` (or clears the override with
    /// `None`) until the guard drops.
    pub fn pin(n: Option<usize>) -> Self {
        ThreadGuard {
            prev: PIN.replace(n.unwrap_or(0)),
        }
    }
}

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        PIN.set(self.prev);
    }
}

/// The worker count [`par_map`] will use.
///
/// Resolution order: [`ThreadGuard`] override, then `ROS_EXEC_THREADS`
/// (a positive integer), then [`std::thread::available_parallelism`]
/// (1 if unavailable).
pub fn threads() -> usize {
    let forced = PIN.get();
    if forced > 0 {
        return forced;
    }
    if let Ok(var) = std::env::var("ROS_EXEC_THREADS") {
        if let Ok(n) = var.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Parallel map with stable output ordering: `out[i] = f(&items[i])`.
///
/// Items are split into at most [`threads`] contiguous chunks, one scoped
/// worker thread per chunk; within a chunk evaluation is the plain serial
/// loop, so per-item results are bit-identical to `items.iter().map(f)`.
///
/// ```
/// let squares = ros_exec::par_map(&[1i64, 2, 3, 4], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(threads(), items, f)
}

/// [`par_map`] at an explicit worker count, ignoring the pin.
///
/// Used by determinism tests to compare the same path at several
/// thread counts inside one process. Chunks are contiguous index ranges
/// assembled back in chunk order, so the output ordering never depends
/// on thread scheduling. A panic in any worker is propagated to the
/// caller after the scope joins.
#[expect(
    clippy::disallowed_methods,
    reason = "ros-exec is the workspace's one spawn boundary"
)]
pub fn par_map_with<T, R, F>(n_threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let f = &f;
    let n = items.len();
    let workers = n_threads.max(1).min(n);
    if workers <= 1 {
        // Serial fast path: no thread setup, identical evaluation order.
        return items.iter().map(f).collect();
    }
    let chunk_len = n.div_ceil(workers);
    let mut chunks: Vec<Vec<R>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let start = w * chunk_len;
            let end = ((w + 1) * chunk_len).min(n);
            if start >= end {
                break;
            }
            let slice = &items[start..end];
            handles.push(scope.spawn(inherit(move || slice.iter().map(f).collect::<Vec<R>>())));
        }
        for handle in handles {
            match handle.join() {
                Ok(part) => chunks.push(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    chunks.into_iter().flatten().collect()
}

/// Parallel in-place transform with per-worker scratch arenas:
/// `f(&mut scratches[w], i, &mut items[i])` for every item, where `w`
/// is the index of the worker chunk the item landed in.
///
/// This is the zero-allocation sibling of [`par_map`]: results are
/// written *into* the items (no output vector, no per-chunk collect
/// buffers), and each worker thread gets exclusive `&mut` access to
/// one scratch arena from the caller-held pool. Determinism at any
/// thread count holds under the same contract as `par_map` — `f`'s
/// writes to `items[i]` must depend only on `items[i]` (plus captured
/// shared state), never on scratch *contents* left by other items;
/// scratch is working memory, not a carrier of results.
///
/// The one-item case of [`par_for_each_chunk_mut`], whose worker split,
/// serial fast path and panics it shares.
pub fn par_for_each_mut<S, T, F>(scratches: &mut [S], items: &mut [T], f: F)
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize, &mut T) + Sync,
{
    par_for_each_chunk_mut(scratches, items, 1, |scratch, start, chunk| {
        for (j, item) in chunk.iter_mut().enumerate() {
            f(scratch, start + j, item);
        }
    });
}

/// [`par_for_each_mut`] over consecutive chunks of `chunk` items (the
/// last may be shorter; a `chunk` of 0 counts as 1): `f(&mut
/// scratches[w], start, &mut items[start..start + len])` for every
/// chunk, and a worker always takes whole chunks. Lets a kernel that
/// processes several items together (the IF tone loop packs two frames
/// into one vector register) see the same chunk boundaries at any
/// thread count, so its results cannot depend on the split.
///
/// At most `min(threads(), scratches.len(), number of chunks)` workers
/// run, each on a contiguous run of chunks; with one worker the call
/// degenerates to a plain serial loop over `scratches[0]` with no
/// thread machinery and no allocation at all, which is what the
/// steady-state allocation-budget tests pin. The multi-worker branch
/// collects no handles either.
///
/// # Panics
/// Panics if `scratches` is empty while `items` is not, and propagates
/// worker panics after the scope joins.
#[expect(
    clippy::disallowed_methods,
    reason = "ros-exec is the workspace's one spawn boundary"
)]
pub fn par_for_each_chunk_mut<S, T, F>(scratches: &mut [S], items: &mut [T], chunk: usize, f: F)
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    assert!(
        !scratches.is_empty(),
        "par_for_each_mut needs at least one scratch arena"
    );
    let chunk = chunk.max(1);
    let n_chunks = n.div_ceil(chunk);
    let workers = threads().max(1).min(scratches.len()).min(n_chunks);
    let run = |scratch: &mut S, base: usize, part: &mut [T]| {
        for (c, items) in part.chunks_mut(chunk).enumerate() {
            f(scratch, base + c * chunk, items);
        }
    };
    if workers <= 1 {
        // Serial fast path: no thread setup, identical evaluation order.
        run(&mut scratches[0], 0, items);
        return;
    }
    let per_worker = n_chunks.div_ceil(workers) * chunk;
    std::thread::scope(|scope| {
        // Walk both slices with split_at_mut so each spawned worker
        // owns a disjoint (scratch, run of chunks) pair. No handle
        // vector is collected: the scope joins every worker on exit and
        // re-raises the first panic, so the spawn loop itself stays
        // allocation-free (thread spawning is the OS's business).
        let mut rest_items: &mut [T] = items;
        let mut rest_scratch: &mut [S] = scratches;
        let mut start = 0usize;
        while !rest_items.is_empty() {
            let take = per_worker.min(rest_items.len());
            let (part, items_tail) = rest_items.split_at_mut(take);
            rest_items = items_tail;
            let (scratch, scratch_tail) = rest_scratch.split_at_mut(1);
            rest_scratch = scratch_tail;
            let scratch = &mut scratch[0];
            let base = start;
            let run = &run;
            scope.spawn(inherit(move || run(scratch, base, part)));
            start += take;
        }
    });
}

/// Splits one master seed into independent per-item RNG seeds.
///
/// Each work item `i` gets `stream(i)`, a 64-bit seed derived from the
/// master by a SplitMix64 finalizer over a Weyl sequence — the standard
/// construction for statistically independent streams from one seed.
/// The derivation depends only on `(master, index)`, never on which
/// thread or in which order the item runs, which is what makes every
/// parallelized random path bit-reproducible at any thread count
/// (including 1).
///
/// ```
/// let seeds = ros_exec::ParSeed::new(0xd21e);
/// assert_eq!(seeds.stream(7), ros_exec::ParSeed::new(0xd21e).stream(7));
/// assert_ne!(seeds.stream(0), seeds.stream(1));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParSeed {
    master: u64,
}

/// Weyl-sequence increment (the SplitMix64 golden-gamma constant).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: a bijective avalanche mix on 64 bits.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ParSeed {
    /// Creates a seed splitter rooted at `master`.
    pub fn new(master: u64) -> Self {
        ParSeed { master }
    }

    /// The independent seed of work item `index`.
    pub fn stream(&self, index: u64) -> u64 {
        splitmix64(
            self.master
                .wrapping_add(GAMMA)
                .wrapping_add(index.wrapping_mul(GAMMA)),
        )
    }

    /// A nested stream: item `index` within named sub-domain `tag`.
    ///
    /// Use distinct tags when one master seed feeds several different
    /// random consumers (e.g. decode-frame noise vs detect-frame noise)
    /// so their streams can never collide at equal indices.
    pub fn substream(&self, tag: u64, index: u64) -> u64 {
        ParSeed::new(splitmix64(self.master ^ splitmix64(tag))).stream(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_stable_at_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for t in [1, 2, 3, 8, 64, 1000] {
            let par = par_map_with(t, &items, |x| x * 3 + 1);
            assert_eq!(par, serial, "threads={t}");
        }
    }

    #[test]
    fn float_results_bit_identical_across_thread_counts() {
        // A numerically touchy reduction per item: same per-item serial
        // order ⇒ identical bits no matter the worker count.
        let items: Vec<f64> = (0..1000).map(|i| 1e-3 * i as f64).collect();
        let eval = |x: &f64| (0..50).fold(*x, |acc, k| (acc + 1.0 / (k as f64 + 1.7)).sin());
        let one: Vec<u64> = par_map_with(1, &items, eval)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for t in [2, 5, 8] {
            let many: Vec<u64> = par_map_with(t, &items, eval)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(one, many, "threads={t}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert!(par_map_with(8, &empty, |x| *x).is_empty());
        assert_eq!(par_map_with(8, &[5], |x| x + 1), vec![6]);
        assert_eq!(par_map_with(3, &[1, 2], |x| x * 2), vec![2, 4]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = par_map_with(64, &[1, 2, 3], |x| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }

    #[test]
    fn override_takes_precedence() {
        let guard = ThreadGuard::pin(Some(3));
        assert_eq!(threads(), 3);
        drop(guard);
        assert!(threads() >= 1);
    }

    #[test]
    fn thread_guards_nest_and_restore() {
        let outer = ThreadGuard::pin(Some(4));
        assert_eq!(threads(), 4);
        {
            let _inner = ThreadGuard::pin(Some(1));
            assert_eq!(threads(), 1);
        }
        assert_eq!(threads(), 4, "inner guard must restore the outer pin");
        drop(outer);
        assert!(threads() >= 1);
    }

    #[test]
    fn thread_guard_restores_on_panic() {
        let before = threads();
        let result = std::panic::catch_unwind(|| {
            let _pin = ThreadGuard::pin(Some(7));
            panic!("boom");
        });
        assert!(result.is_err());
        assert_eq!(threads(), before, "guard must restore across unwind");
    }

    #[test]
    fn a_pin_stays_on_its_own_thread() {
        let unpinned = threads();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _pin = ThreadGuard::pin(Some(unpinned + 5));
                barrier.wait();
                barrier.wait();
            });
            s.spawn(|| {
                barrier.wait();
                assert_eq!(threads(), unpinned, "another thread's pin leaked in");
                barrier.wait();
            });
        });
    }

    #[test]
    fn workers_inherit_the_spawners_run_and_pin() {
        use ros_obs::names::{DECODE_ATTEMPTS, DECODE_ERRORS, DECODE_OK};
        let _pin = ThreadGuard::pin(Some(4));
        let ((), lines) = ros_obs::capture_scope(ros_obs::Level::Summary, || {
            let seen = par_map_with(4, &[0u8; 4], |_| {
                ros_obs::count(DECODE_OK, 1);
                threads()
            });
            assert_eq!(seen, [4; 4], "par_map_with workers see the pin");

            let mut items = [0usize; 4];
            par_for_each_mut(&mut [(); 4], &mut items, |_, _, item| {
                ros_obs::count(DECODE_ATTEMPTS, 1);
                *item = threads();
            });
            assert_eq!(items, [4; 4], "par_for_each_mut workers see the pin");

            let spawned = scope(|s| {
                s.spawn(|| {
                    ros_obs::count(DECODE_ERRORS, 1);
                    threads()
                })
                .join()
            });
            assert_eq!(spawned.ok(), Some(4), "scope workers see the pin");
            ros_obs::flush();
        });
        for (name, n) in [
            ("decode.attempts", 4),
            ("decode.ok", 4),
            ("decode.errors", 1),
        ] {
            let line = format!(
                "{{\"ev\":\"metric\",\"name\":\"{name}\",\"kind\":\"counter\",\"value\":{n}}}"
            );
            assert!(lines.contains(&line), "{name} missing from {lines:?}");
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map_with(4, &[1, 2, 3, 4, 5, 6, 7, 8], |x| {
                assert!(*x != 5, "boom");
                *x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn for_each_mut_matches_serial_at_every_thread_count() {
        let expect: Vec<f64> = (0..257)
            .map(|i| (i as f64 * 0.37).sin() * (i as f64 + 1.0))
            .collect();
        for t in [1usize, 2, 3, 8, 64] {
            let _pin = ThreadGuard::pin(Some(t));
            let mut items: Vec<f64> = (0..257).map(|i| i as f64).collect();
            let mut scratches = vec![0.0f64; t];
            par_for_each_mut(&mut scratches, &mut items, |scratch, i, item| {
                // Scratch is used as working memory but never carries
                // information between items.
                *scratch = (*item * 0.37).sin();
                *item = *scratch * (i as f64 + 1.0);
            });
            let bits: Vec<u64> = items.iter().map(|v| v.to_bits()).collect();
            let expect_bits: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, expect_bits, "threads={t}");
        }
    }

    #[test]
    fn for_each_mut_clamps_workers_to_scratch_pool() {
        // 8 threads requested but only 2 arenas: must still process
        // every item exactly once, in order-independent fashion.
        let _pin = ThreadGuard::pin(Some(8));
        let mut items: Vec<u64> = (0..100).collect();
        let mut scratches = [0u64; 2];
        par_for_each_mut(&mut scratches, &mut items, |_, i, item| {
            *item += i as u64;
        });
        let expect: Vec<u64> = (0..100).map(|i| 2 * i).collect();
        assert_eq!(items, expect);
    }

    #[test]
    fn for_each_chunk_mut_hands_out_whole_chunks() {
        // Every chunk starts on a multiple of `chunk`, is full except
        // possibly the last, and reaches `f` exactly once, whatever
        // the worker count.
        for t in [1usize, 2, 3, 8] {
            let _pin = ThreadGuard::pin(Some(t));
            for chunk in [0usize, 1, 2, 3, 5] {
                let step = chunk.max(1);
                for n in [1usize, 2, 7, 20] {
                    let mut items = vec![(usize::MAX, 0usize); n];
                    let mut scratches = vec![0usize; t];
                    par_for_each_chunk_mut(
                        &mut scratches,
                        &mut items,
                        chunk,
                        |calls, start, part| {
                            *calls += 1;
                            assert_eq!(start % step, 0, "t={t} chunk={chunk} n={n}");
                            assert_eq!(
                                part.len(),
                                step.min(n - start),
                                "t={t} chunk={chunk} n={n}"
                            );
                            for (j, item) in part.iter_mut().enumerate() {
                                assert_eq!(item.0, usize::MAX, "item visited twice");
                                *item = (start, j);
                            }
                        },
                    );
                    let expect: Vec<(usize, usize)> =
                        (0..n).map(|i| (i - i % step, i % step)).collect();
                    assert_eq!(items, expect, "t={t} chunk={chunk} n={n}");
                    assert_eq!(scratches.iter().sum::<usize>(), n.div_ceil(step));
                }
            }
        }
    }

    #[test]
    fn for_each_mut_empty_items_is_noop() {
        let mut items: Vec<u64> = Vec::new();
        let mut scratches: [u64; 0] = [];
        // Empty items must not even touch the (empty) scratch pool.
        par_for_each_mut(&mut scratches, &mut items, |_, _, _| {});
    }

    #[test]
    fn for_each_mut_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let _pin = ThreadGuard::pin(Some(4));
            let mut items = [1u64, 2, 3, 4, 5, 6, 7, 8];
            let mut scratches = [0u64; 4];
            par_for_each_mut(&mut scratches, &mut items, |_, _, item| {
                assert!(*item != 5, "boom");
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn par_seed_is_deterministic_and_spread() {
        let s = ParSeed::new(0x5eed);
        assert_eq!(s.stream(0), ParSeed::new(0x5eed).stream(0));
        // No collisions over a modest index range (bijective mix of
        // distinct inputs makes collisions astronomically unlikely).
        // Membership-only set (insert/contains, never iterated); a
        // BTreeSet, as clippy's hash-collection ban asks of library code.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..10_000 {
            assert!(seen.insert(s.stream(i)), "collision at {i}");
        }
        // Different masters diverge.
        assert_ne!(ParSeed::new(1).stream(0), ParSeed::new(2).stream(0));
    }

    #[test]
    fn substreams_do_not_collide_with_streams() {
        let s = ParSeed::new(77);
        for i in 0..100 {
            assert_ne!(s.stream(i), s.substream(1, i));
            assert_ne!(s.substream(1, i), s.substream(2, i));
        }
    }

    #[test]
    fn seeded_parallel_draws_match_serial() {
        let s = ParSeed::new(0xabcdef);
        let idx: Vec<u64> = (0..64).collect();
        let serial: Vec<u64> = idx.iter().map(|&i| s.stream(i)).collect();
        for t in [2, 8] {
            assert_eq!(par_map_with(t, &idx, |&i| s.stream(i)), serial);
        }
    }
}
