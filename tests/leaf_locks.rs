//! The three workspace mutexes are leaves: the `GeomCache` store, the
//! `ros-exec` channel and the `ros-obs` run state. Nothing is built,
//! locked or blocked on while one of them is held, so code that holds
//! none of them may freely nest cache lookups, telemetry and channel
//! traffic — from its own thread or from `ros-exec` workers.
//!
//! Each scenario that could deadlock runs on its own thread under a
//! bounded wait: a lock nesting regression shows up as a failed test,
//! not a hung suite.

use ros_cache::{GeomCache, Key, KeyBuilder, TableKind};
use ros_obs::names::DECODE_ATTEMPTS;
use ros_obs::{Level, Value};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Longest a scenario may take before it counts as deadlocked.
const DEADLINE: Duration = Duration::from_secs(10);

/// Runs `f` on a fresh thread and returns its result, failing the test
/// if it does not finish within [`DEADLINE`].
fn bounded<R: Send + 'static>(what: &str, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let result = rx.recv_timeout(DEADLINE);
    if let Err(RecvTimeoutError::Timeout) = result {
        // The worker is stuck; leave it detached.
        panic!("{what}: no result within {DEADLINE:?}; deadlocked");
    }
    // The worker has sent its result or unwound: join it, re-raising
    // its panic.
    if let Err(panic) = worker.join() {
        resume_unwind(panic);
    }
    result.expect("a worker that returned sent its result")
}

fn key(n: u64) -> Key {
    KeyBuilder::new("leaf_locks").u64(n).finish()
}

#[test]
fn a_build_may_look_up_another_key() {
    let (outer, snap) = bounded("nested lookup", || {
        let cache = GeomCache::new();
        let outer = cache.get_or_build(TableKind::Pattern, key(1), || {
            *cache.get_or_build(TableKind::Pattern, key(2), || 20u64) + 1
        });
        (*outer, cache.snapshot())
    });
    assert_eq!(outer, 21);
    assert_eq!((snap.misses(), snap.hits()), (2, 0));
    assert_eq!(snap.entries, 2);
}

#[test]
fn a_lookup_of_a_key_being_built_waits_and_counts_a_hit() {
    let (built, waited, snap) = bounded("lookup during a build", || {
        let cache = GeomCache::new();
        ros_exec::scope(|s| {
            let mut waiter = None;
            let built = cache.get_or_build(TableKind::Shaping, key(3), || {
                waiter = Some(s.spawn(|| *cache.get_or_build(TableKind::Shaping, key(3), || 0u64)));
                // The waiter's hit is counted at reservation, before the
                // slot is filled; only then does this build finish.
                while cache.snapshot().hits() == 0 {
                    std::thread::yield_now();
                }
                3u64
            });
            let waited = waiter.map(|w| w.join().unwrap_or_else(|p| resume_unwind(p)));
            (*built, waited, cache.snapshot())
        })
    });
    assert_eq!((built, waited), (3, Some(3)), "the waiter gets the built table");
    assert_eq!((snap.misses(), snap.hits()), (1, 1));
}

#[test]
fn a_build_may_fan_out_to_workers_that_look_up_the_same_cache() {
    let (sum, snap) = bounded("par_map lookups inside a build", || {
        let cache = GeomCache::new();
        let items: Vec<u64> = (10..18).collect();
        let sum = cache.get_or_build(TableKind::Shaping, key(0), || {
            ros_exec::par_map_with(2, &items, |&n| {
                *cache.get_or_build(TableKind::Pattern, key(n), || n * 2)
            })
            .iter()
            .sum::<u64>()
        });
        (*sum, cache.snapshot())
    });
    assert_eq!(sum, (10..18).map(|n| n * 2).sum::<u64>());
    assert_eq!(snap.misses(), 9, "one outer build and eight distinct inner keys");
    assert_eq!(snap.hits(), 0);
}

/// Checks that `line` is exactly one flat JSON object of string,
/// number, boolean or null values — a whole ndjson line, not a torn or
/// interleaved one.
fn is_flat_json_object(line: &str) -> bool {
    fn string(s: &[u8], mut i: usize) -> Option<usize> {
        if s.get(i) != Some(&b'"') {
            return None;
        }
        i += 1;
        loop {
            match *s.get(i)? {
                b'"' => return Some(i + 1),
                b'\\' => i += 2,
                _ => i += 1,
            }
        }
    }
    fn value(s: &[u8], i: usize) -> Option<usize> {
        match *s.get(i)? {
            b'"' => string(s, i),
            b'-' | b'0'..=b'9' => {
                let len = s[i..]
                    .iter()
                    .take_while(|c| c.is_ascii_digit() || b"-+.eE".contains(c))
                    .count();
                std::str::from_utf8(&s[i..i + len]).ok()?.parse::<f64>().ok()?;
                Some(i + len)
            }
            _ => ["true", "false", "null"]
                .iter()
                .find(|w| s[i..].starts_with(w.as_bytes()))
                .map(|w| i + w.len()),
        }
    }
    let s = line.as_bytes();
    if s.first() != Some(&b'{') {
        return false;
    }
    let mut i = 1;
    loop {
        let Some(after_key) = string(s, i) else { return false };
        if s.get(after_key) != Some(&b':') {
            return false;
        }
        let Some(after_value) = value(s, after_key + 1) else { return false };
        match s.get(after_value) {
            Some(b',') => i = after_value + 1,
            Some(b'}') => return after_value + 1 == s.len(),
            _ => return false,
        }
    }
}

#[test]
fn workers_inside_a_build_emit_whole_telemetry_lines() {
    const ITEMS: u64 = 32;
    let lines = bounded("telemetry from workers inside a build", || {
        let ((), lines) = ros_obs::capture_scope(Level::Detail, || {
            let cache = GeomCache::new();
            let items: Vec<u64> = (0..ITEMS).collect();
            cache.get_or_build(TableKind::Shaping, key(100), || {
                ros_exec::par_map_with(2, &items, |&n| {
                    ros_obs::count(DECODE_ATTEMPTS, 1);
                    ros_obs::event_detail(
                        "leaf_locks.item",
                        &[("n", Value::U64(n)), ("tag", Value::Str("a \"quoted\" tag"))],
                    );
                    // A worker lookup waits on no lock the build holds.
                    *cache.get_or_build(TableKind::Pattern, key(n % 4), || n)
                });
            });
            ros_obs::flush();
        });
        lines
    });
    for l in &lines {
        assert!(is_flat_json_object(l), "torn or malformed ndjson line: {l}");
    }
    let events = lines.iter().filter(|l| l.contains("\"ev\":\"leaf_locks.item\"")).count();
    assert_eq!(u64::try_from(events).ok(), Some(ITEMS));
    assert!(
        lines.iter().any(|l| l.contains(r#""name":"decode.attempts","kind":"counter","value":32"#)),
        "every worker's counter update lands: {lines:?}"
    );
}

#[test]
fn a_panicking_build_leaves_no_entry() {
    let cache = GeomCache::new();
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        cache.get_or_build(TableKind::Dispersion, key(7), || -> u32 { panic!("build failed") })
    }));
    assert!(panicked.is_err());
    assert!(!cache.contains(&key(7)), "a failed build must not stay reserved");
    assert_eq!(cache.len(), 0);
    let before = cache.snapshot();
    assert_eq!(*cache.get_or_build(TableKind::Dispersion, key(7), || 7u32), 7);
    let after = cache.snapshot();
    assert_eq!(after.misses() - before.misses(), 1, "the retry builds afresh");
    assert_eq!(after.hits(), before.hits());
    assert_eq!(after.entries, 1);
}

#[test]
fn a_blocked_sender_holds_nothing_its_consumer_needs() {
    // The producer blocks on a full channel inside a cache build while
    // telemetry is on; the consumer needs the cache (another key) and
    // the run state to drain it.
    let (built, drained) = bounded("channel traffic inside a build", || {
        let ((built, drained), _lines) = ros_obs::capture_scope(Level::Summary, || {
            let cache = GeomCache::new();
            let (tx, rx) = ros_exec::channel::bounded::<u64>(1);
            ros_exec::scope(|s| {
                let consumer = s.spawn(|| {
                    let mut got = 0u64;
                    while let Some(v) = rx.recv() {
                        ros_obs::count(DECODE_ATTEMPTS, 1);
                        got += *cache.get_or_build(TableKind::Pattern, key(200 + v), || v);
                    }
                    got
                });
                let built = cache.get_or_build(TableKind::Shaping, key(199), || {
                    let mut items: Vec<u64> = (0..16).collect();
                    tx.send_all(&mut items).is_ok()
                });
                drop(tx);
                (*built, consumer.join().unwrap_or(0))
            })
        });
        (built, drained)
    });
    assert!(built);
    assert_eq!(drained, (0..16).sum::<u64>());
}
