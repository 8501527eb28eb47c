//! Structural cache keys: the exact-input content addressing scheme.
//!
//! A [`Key`] is built by feeding every input of a pure geometry/EM
//! function — scalars, flags, slices — through a [`KeyBuilder`]. Each
//! component is written twice:
//!
//! * into a 64-bit FNV-1a fingerprint (fast `Ord` discrimination), and
//! * into an exact, type-tagged byte encoding of the inputs.
//!
//! A nested key is the one exception to byte-wise hashing: its bytes
//! are copied in whole and its own fingerprint is folded into the
//! outer one ([`KeyBuilder::nested`]).
//!
//! `f64`s are keyed by their `to_bits()` bit pattern: two calls share
//! a table only when the computation would be bit-identical. Because the full
//! byte encoding participates in `Eq`/`Ord`, equality is *exact* — the
//! fingerprint only accelerates comparisons, it never decides them —
//! so a hash collision can at worst slow a lookup down, never alias
//! two different inputs to one table.
//!
//! Every component carries a type tag and slices carry their length,
//! so the encoding is prefix-free: perturbing any single `f64` bit,
//! element, or slice length produces a distinct key (the
//! `cache_props` suite pins this property).

use ros_em::units::cast::u64_from_usize;
use std::sync::Arc;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A content-addressed cache key: FNV-1a fingerprint plus the exact
/// structural byte encoding of the inputs it was built from.
///
/// The bytes are shared: cloning a key (e.g. with every stack of a tag
/// that holds its layout key) bumps a reference count instead of
/// copying the encoding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Fingerprint first: `Ord` discriminates on it before falling
    /// back to the exact bytes, keeping `BTreeMap` comparisons cheap.
    fp: u64,
    bytes: Arc<[u8]>,
}

impl Key {
    /// The 64-bit FNV-1a fingerprint of the structural encoding.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// The exact structural encoding (type-tagged, length-prefixed).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Component type tags — these make the encoding prefix-free, so two
/// different input sequences can never serialize to the same bytes.
mod tag {
    pub(crate) const DOMAIN: u8 = 0x01;
    pub(crate) const U64: u8 = 0x02;
    pub(crate) const BOOL: u8 = 0x03;
    pub(crate) const F64: u8 = 0x04;
    pub(crate) const F64_SLICE: u8 = 0x05;
    pub(crate) const BOOL_SLICE: u8 = 0x06;
    pub(crate) const NESTED: u8 = 0x07;
}

/// Incremental [`Key`] builder. Feed every input of the memoized
/// function, in a fixed order, then [`KeyBuilder::finish`].
#[derive(Clone, Debug)]
pub struct KeyBuilder {
    h: u64,
    bytes: Vec<u8>,
}

impl KeyBuilder {
    /// Starts a key in a named domain (one domain per memoized
    /// function, e.g. `"antenna.shaping_profile"`) so two functions
    /// with coincidentally identical parameter lists never share an
    /// entry.
    pub fn new(domain: &str) -> Self {
        let mut b = KeyBuilder {
            h: FNV_OFFSET,
            bytes: Vec::with_capacity(32 + domain.len()),
        };
        b.push(tag::DOMAIN);
        b.raw_u64(u64_from_usize(domain.len()));
        for byte in domain.bytes() {
            b.push(byte);
        }
        b
    }

    fn push(&mut self, byte: u8) {
        self.h = (self.h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        self.bytes.push(byte);
    }

    fn raw_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.push(byte);
        }
    }

    /// Appends a `u64` component.
    #[must_use]
    pub fn u64(mut self, v: u64) -> Self {
        self.push(tag::U64);
        self.raw_u64(v);
        self
    }

    /// Appends a `usize` component (encoded as `u64`).
    #[must_use]
    pub fn usize(self, v: usize) -> Self {
        self.u64(u64_from_usize(v))
    }

    /// Appends a `bool` component.
    #[must_use]
    pub fn bool(mut self, v: bool) -> Self {
        self.push(tag::BOOL);
        self.push(u8::from(v));
        self
    }

    /// Appends an `f64` component, keyed by exact bit pattern.
    #[must_use]
    pub fn f64(mut self, v: f64) -> Self {
        self.push(tag::F64);
        self.raw_u64(v.to_bits());
        self
    }

    /// Appends an `&[f64]` component: length, then each element's bit
    /// pattern in order.
    #[must_use]
    pub fn f64s(mut self, vs: &[f64]) -> Self {
        self.push(tag::F64_SLICE);
        self.raw_u64(u64_from_usize(vs.len()));
        for &v in vs {
            self.raw_u64(v.to_bits());
        }
        self
    }

    /// Appends an `&[bool]` component: length, then each element.
    #[must_use]
    pub fn bools(mut self, vs: &[bool]) -> Self {
        self.push(tag::BOOL_SLICE);
        self.raw_u64(u64_from_usize(vs.len()));
        for &v in vs {
            self.push(u8::from(v));
        }
        self
    }

    /// Embeds a previously built [`Key`] (e.g. a layout key inside a
    /// pattern-table key) as one length-prefixed component.
    ///
    /// The inner bytes are copied whole and the fingerprint folds in
    /// the inner key's fingerprint instead of re-hashing those bytes
    /// one at a time. `Ord` stays consistent with `Eq`: the encoding is
    /// prefix-free, so equal outer bytes hold equal inner bytes at the
    /// same place, every key's fingerprint is a function of its own
    /// bytes, and so equal bytes still imply equal fingerprints.
    #[must_use]
    pub fn nested(mut self, k: &Key) -> Self {
        self.push(tag::NESTED);
        self.raw_u64(u64_from_usize(k.bytes.len()));
        self.bytes.extend_from_slice(&k.bytes);
        self.h = (self.h ^ k.fp).wrapping_mul(FNV_PRIME);
        self
    }

    /// Seals the key.
    pub fn finish(self) -> Key {
        Key {
            fp: self.h,
            bytes: self.bytes.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_inputs_equal_key() {
        let a = KeyBuilder::new("t").f64(1.5).usize(4).finish();
        let b = KeyBuilder::new("t").f64(1.5).usize(4).finish();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn domain_separates_identical_params() {
        let a = KeyBuilder::new("alpha").u64(7).finish();
        let b = KeyBuilder::new("beta").u64(7).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn f64_keys_by_bit_pattern() {
        // 0.0 and -0.0 compare equal as floats but have distinct bits:
        // they must key distinct tables (the computation may differ).
        let pos = KeyBuilder::new("t").f64(0.0).finish();
        let neg = KeyBuilder::new("t").f64(-0.0).finish();
        assert_ne!(pos, neg);
        // NaN keys consistently (same bit pattern, same key).
        let nan1 = KeyBuilder::new("t").f64(f64::NAN).finish();
        let nan2 = KeyBuilder::new("t").f64(f64::NAN).finish();
        assert_eq!(nan1, nan2);
    }

    #[test]
    fn slice_length_is_part_of_the_key() {
        let a = KeyBuilder::new("t").f64s(&[1.0, 2.0]).finish();
        let b = KeyBuilder::new("t").f64s(&[1.0, 2.0, 0.0]).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn adjacent_components_do_not_bleed() {
        // [1.0] ++ [] vs [] ++ [1.0]: tags + lengths keep them apart.
        let a = KeyBuilder::new("t").f64s(&[1.0]).f64s(&[]).finish();
        let b = KeyBuilder::new("t").f64s(&[]).f64s(&[1.0]).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn nested_key_round_trips() {
        let layout = KeyBuilder::new("layout").f64s(&[0.0, 1.0]).finish();
        let a = KeyBuilder::new("pattern")
            .nested(&layout)
            .f64(79e9)
            .finish();
        let b = KeyBuilder::new("pattern")
            .nested(&layout)
            .f64(79e9)
            .finish();
        assert_eq!(a, b);
        let other = KeyBuilder::new("layout").f64s(&[0.0, 2.0]).finish();
        let c = KeyBuilder::new("pattern").nested(&other).f64(79e9).finish();
        assert_ne!(a, c);
    }
}
