//! Property tests for the `ros-cache` structural key and eviction
//! order (ISSUE 9 satellite 2).
//!
//! The key contract: two inputs map to the same key if and only if
//! they are structurally identical — every `f64` compared by exact
//! bit pattern, every slice by length and element order. The store
//! contract: eviction follows insertion order deterministically, so
//! replaying an interleaved insert/get sequence reproduces the same
//! resident set and the same statistics.

use proptest::prelude::*;
use ros_cache::{GeomCache, Key, KeyBuilder, TableKind};
use std::sync::Arc;

/// Builds the canonical test key for a slice of raw f64 bit patterns.
fn slice_key(bits: &[u64]) -> Key {
    let vals: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
    KeyBuilder::new("props.slice").f64s(&vals).finish()
}

/// One step of an interleaved cache workload: `(true, k)` touches key
/// `k` (a `get_or_build`, which is a hit when resident and an insert
/// when not); `(false, k)` probes it without mutating (`contains`).
type Op = (bool, u8);

/// A pattern-table key around a layout key built from `bits`, the
/// shape of the stack and array table keys.
fn nested_key(bits: &[u64], freq_bits: u64) -> Key {
    KeyBuilder::new("props.table")
        .nested(&slice_key(bits))
        .f64(f64::from_bits(freq_bits))
        .finish()
}

fn small_key(i: u8) -> Key {
    KeyBuilder::new("props.evict").u64(u64::from(i)).finish()
}

/// Applies a workload to a fresh capacity-bounded cache and returns
/// its observable end state: which keys are resident, plus the
/// hit/miss/insert/evict totals.
fn replay(ops: &[Op], capacity: usize) -> (Vec<bool>, u64, u64, u64, u64) {
    let cache = GeomCache::with_capacity(capacity);
    for &(touch, i) in ops {
        if touch {
            let v: Arc<u8> = cache.get_or_build(TableKind::Pattern, small_key(i), || i);
            assert_eq!(*v, i, "a cache read must return the built value");
        } else {
            let _ = cache.contains(&small_key(i));
        }
    }
    let resident: Vec<bool> = (0u8..12).map(|i| cache.contains(&small_key(i))).collect();
    let s = cache.snapshot();
    (resident, s.hits(), s.misses(), s.inserts(), s.evictions())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structurally equal inputs produce equal keys, always.
    #[test]
    fn equal_inputs_equal_key(bits in prop::collection::vec(any::<u64>(), 0..32)) {
        prop_assert_eq!(slice_key(&bits), slice_key(&bits.clone()));
    }

    /// Flipping any single bit of any single element produces a
    /// distinct key — f64s are keyed by exact bit pattern, so even
    /// NaN-payload and signed-zero changes separate.
    #[test]
    fn any_single_bit_flip_changes_the_key(
        bits in prop::collection::vec(any::<u64>(), 1..32),
        idx in any::<usize>(),
        bit in 0u8..64,
    ) {
        let i = idx % bits.len();
        let mut flipped = bits.clone();
        flipped[i] ^= 1u64 << bit;
        prop_assert_ne!(slice_key(&bits), slice_key(&flipped));
    }

    /// Changing the slice length produces a distinct key even when
    /// the shared prefix is identical (length is part of the key).
    #[test]
    fn length_is_part_of_the_key(
        bits in prop::collection::vec(any::<u64>(), 1..32),
        extra in any::<u64>(),
    ) {
        let mut longer = bits.clone();
        longer.push(extra);
        prop_assert_ne!(slice_key(&bits), slice_key(&longer));
        prop_assert_ne!(slice_key(&bits), slice_key(&bits[..bits.len() - 1]));
    }

    /// Swapping two unequal adjacent elements produces a distinct key
    /// (element order is structural, not a multiset).
    #[test]
    fn element_order_is_part_of_the_key(
        bits in prop::collection::vec(any::<u64>(), 2..32),
        idx in any::<usize>(),
    ) {
        let i = idx % (bits.len() - 1);
        prop_assume!(bits[i] != bits[i + 1]);
        let mut swapped = bits.clone();
        swapped.swap(i, i + 1);
        prop_assert_ne!(slice_key(&bits), slice_key(&swapped));
    }

    /// Equal inner layouts give equal outer keys with equal
    /// fingerprints, so `Ord` (fingerprint first) agrees with `Eq`
    /// although `nested` folds the inner fingerprint instead of
    /// re-hashing the inner bytes.
    #[test]
    fn nested_equal_inner_equal_outer(
        bits in prop::collection::vec(any::<u64>(), 0..32),
        freq in any::<u64>(),
    ) {
        let a = nested_key(&bits, freq);
        let b = nested_key(&bits.clone(), freq);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        prop_assert_eq!(a, b);
    }

    /// Flipping any single bit of any inner `f64` gives a distinct
    /// outer key: the inner bytes are part of the outer encoding.
    #[test]
    fn nested_inner_bit_flip_changes_the_outer_key(
        bits in prop::collection::vec(any::<u64>(), 1..32),
        idx in any::<usize>(),
        bit in 0u8..64,
        freq in any::<u64>(),
    ) {
        let i = idx % bits.len();
        let mut flipped = bits.clone();
        flipped[i] ^= 1u64 << bit;
        let (a, b) = (nested_key(&bits, freq), nested_key(&flipped, freq));
        prop_assert_ne!(a.cmp(&b), std::cmp::Ordering::Equal);
        prop_assert_ne!(a, b);
    }

    /// Replaying the same interleaved insert/get workload on two
    /// fresh caches reproduces the same resident set and the same
    /// counters: eviction order is a pure function of the op
    /// sequence, never of hash values or thread scheduling.
    #[test]
    fn eviction_order_is_deterministic(
        ops in prop::collection::vec((any::<bool>(), 0u8..12), 0..64),
        capacity in 1usize..6,
    ) {
        let a = replay(&ops, capacity);
        let b = replay(&ops, capacity);
        prop_assert_eq!(&a, &b);
        let resident = a.0.iter().filter(|&&r| r).count();
        prop_assert!(resident <= capacity, "capacity bound violated");
        // Conservation: every resident entry was inserted and every
        // insert not evicted is still resident.
        prop_assert_eq!(a.3 - a.4, ros_em::units::cast::u64_from_usize(resident));
    }
}
