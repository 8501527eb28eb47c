//! Dimensional newtypes — compile-time unit safety for RoS physics.
//!
//! RoS correctness rests on arithmetic the bare `f64` type cannot
//! check: dB↔linear conversions come in *two* families (10·log₁₀ for
//! power, 20·log₁₀ for amplitude), angles flow between degrees and
//! radians on their way into the spatial-coding FFT over `u = cos θ`,
//! and link budgets mix absolute powers (dBm) with relative gains
//! (dB). Feeding a dB value where a linear power is expected silently
//! corrupts every downstream BER and link-budget figure. This module
//! makes those
//! mistakes unrepresentable:
//!
//! * [`DbPower`] — decibels of a **power** ratio (10·log₁₀ family);
//!   [`Db`] is an alias, it is the common currency for gains/losses.
//! * [`DbAmplitude`] — decibels of an **amplitude** (field) ratio
//!   (20·log₁₀ family). Same dB number line, different linear meaning;
//!   [`DbAmplitude::as_power`] converts between the families for free
//!   because `20·log₁₀(a) = 10·log₁₀(a²)`.
//! * [`Dbm`] / [`Watts`] — absolute power, log and linear.
//! * [`Meters`], [`Hertz`] — lengths and frequencies.
//! * [`Radians`] / [`Degrees`] — angles with explicit conversions.
//! * [`cast`] — checked/lossless numeric casts replacing raw `as`.
//!
//! Every type is `#[repr(transparent)]` over `f64` — zero cost, same
//! ABI — and every operation is panic-free (IEEE semantics: a negative
//! ratio yields NaN dB, exactly as `f64::log10` would).
//!
//! The companion static-analysis gate (`cargo run -p xtask -- lint`)
//! forbids raw dB/angle conversion expressions outside this module, so
//! the typed layer is the only door.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the shared newtype boilerplate: construction, accessors,
/// `Display`, and the linear `Add`/`Sub`/`Neg`/scalar ops.
macro_rules! scalar_newtype {
    ($(#[$doc:meta])* $name:ident, $unit:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
        #[repr(transparent)]
        pub struct $name(f64);

        impl $name {
            /// Zero of this quantity.
            pub const ZERO: $name = $name(0.0);

            /// Wraps a raw value already expressed in this unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                $name(value)
            }

            /// The raw value in this unit.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                $name(self.0.abs())
            }

            /// True when the payload is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, o: $name) -> $name {
                $name(self.0 + o.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, o: $name) -> $name {
                $name(self.0 - o.0)
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, o: $name) {
                self.0 += o.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, o: $name) {
                self.0 -= o.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, k: f64) -> $name {
                $name(self.0 * k)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, v: $name) -> $name {
                $name(self * v.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, k: f64) -> $name {
                $name(self.0 / k)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }
    };
}

scalar_newtype! {
    /// Decibels of a **power** ratio: `10·log₁₀(P₁/P₀)`.
    ///
    /// Use for antenna/processing gains, path and fog losses, SNR
    /// margins, and relative RCS. See [`DbAmplitude`] for the
    /// 20·log₁₀ field-ratio family.
    DbPower, "dB"
}

scalar_newtype! {
    /// Decibels of an **amplitude** (field/voltage) ratio:
    /// `20·log₁₀(a₁/a₀)`.
    ///
    /// The spatial-coding pipeline works with field amplitudes (the
    /// FFT over reflected phasors); this family converts linear
    /// amplitude ratios. The same numeric dB value describes the power
    /// ratio of the squared amplitude — [`Self::as_power`] is free.
    DbAmplitude, "dB(amp)"
}

scalar_newtype! {
    /// Absolute power on the decibel-milliwatt scale.
    Dbm, "dBm"
}

scalar_newtype! {
    /// Absolute power in watts (linear scale).
    Watts, "W"
}

scalar_newtype! {
    /// Length / distance in metres.
    Meters, "m"
}

scalar_newtype! {
    /// Frequency in hertz.
    Hertz, "Hz"
}

scalar_newtype! {
    /// Angle in radians.
    Radians, "rad"
}

scalar_newtype! {
    /// Angle in degrees.
    Degrees, "deg"
}

/// The common currency for relative gains and losses (power family).
pub type Db = DbPower;

impl DbPower {
    /// dB value of a linear **power** ratio (`10·log₁₀`).
    ///
    /// Panic-free: negative ratios produce NaN, zero produces −∞,
    /// following IEEE `log10` semantics.
    #[inline]
    pub fn from_ratio(power_ratio: f64) -> Self {
        DbPower(10.0 * power_ratio.log10())
    }

    /// The linear **power** ratio this dB value describes (`10^(x/10)`).
    #[inline]
    pub fn ratio(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Reinterprets on the amplitude scale: the same physical ratio
    /// expressed for fields, i.e. the identical dB number.
    #[inline]
    pub const fn as_amplitude(self) -> DbAmplitude {
        DbAmplitude(self.0)
    }
}

impl DbAmplitude {
    /// dB value of a linear **amplitude** ratio (`20·log₁₀`).
    #[inline]
    pub fn from_ratio(amplitude_ratio: f64) -> Self {
        DbAmplitude(20.0 * amplitude_ratio.log10())
    }

    /// The linear **amplitude** ratio this dB value describes
    /// (`10^(x/20)`).
    #[inline]
    pub fn ratio(self) -> f64 {
        10f64.powf(self.0 / 20.0)
    }

    /// Reinterprets on the power scale (`20·log₁₀(a) = 10·log₁₀(a²)`):
    /// the identical dB number.
    #[inline]
    pub const fn as_power(self) -> DbPower {
        DbPower(self.0)
    }
}

impl Dbm {
    /// Converts an absolute power in watts.
    #[inline]
    pub fn from_watts(w: Watts) -> Self {
        Dbm(10.0 * (w.value() * 1e3).log10())
    }

    /// Converts an absolute power in milliwatts.
    #[inline]
    pub fn from_milliwatts(mw: f64) -> Self {
        Dbm(10.0 * mw.log10())
    }

    /// This power in watts.
    #[inline]
    pub fn to_watts(self) -> Watts {
        Watts(10f64.powf(self.0 / 10.0) * 1e-3)
    }

    /// This power in milliwatts.
    #[inline]
    pub fn to_milliwatts(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }
}

/// Applying a gain to an absolute power: `dBm + dB = dBm`.
impl Add<Db> for Dbm {
    type Output = Dbm;
    #[inline]
    fn add(self, gain: Db) -> Dbm {
        Dbm(self.0 + gain.value())
    }
}

/// Applying a loss to an absolute power: `dBm − dB = dBm`.
impl Sub<Db> for Dbm {
    type Output = Dbm;
    #[inline]
    fn sub(self, loss: Db) -> Dbm {
        Dbm(self.0 - loss.value())
    }
}

impl Watts {
    /// This power on the dBm scale.
    #[inline]
    pub fn to_dbm(self) -> Dbm {
        Dbm::from_watts(self)
    }
}

impl Hertz {
    /// Free-space wavelength `c / f`.
    #[inline]
    pub fn wavelength(self) -> Meters {
        Meters(crate::constants::C / self.0)
    }
}

impl Meters {
    /// Ratio of two lengths (dimensionless).
    #[inline]
    pub fn per(self, o: Meters) -> f64 {
        self.0 / o.0
    }
}

impl Degrees {
    /// Converts to radians — the only sanctioned degree→radian
    /// conversion in the workspace.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned degree-to-radian conversion"
    )]
    pub fn radians(self) -> Radians {
        Radians(self.0.to_radians())
    }

    /// Sine of this angle.
    #[inline]
    pub fn sin(self) -> f64 {
        self.radians().sin()
    }

    /// Cosine of this angle.
    #[inline]
    pub fn cos(self) -> f64 {
        self.radians().cos()
    }
}

impl Radians {
    /// Converts to degrees — the only sanctioned radian→degree
    /// conversion in the workspace.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned radian-to-degree conversion"
    )]
    pub fn degrees(self) -> Degrees {
        Degrees(self.0.to_degrees())
    }

    /// Wraps to `(-π, π]`.
    #[inline]
    pub fn wrapped(self) -> Radians {
        let two_pi = std::f64::consts::TAU;
        let mut a = self.0 % two_pi;
        if a <= -std::f64::consts::PI {
            a += two_pi;
        } else if a > std::f64::consts::PI {
            a -= two_pi;
        }
        Radians(a)
    }

    /// Sine of this angle.
    #[inline]
    pub fn sin(self) -> f64 {
        self.0.sin()
    }

    /// Cosine of this angle.
    #[inline]
    pub fn cos(self) -> f64 {
        self.0.cos()
    }

    /// Tangent of this angle.
    #[inline]
    pub fn tan(self) -> f64 {
        self.0.tan()
    }
}

/// Sums incoherent power contributions expressed in dB.
///
/// Returns `Db::new(f64::NEG_INFINITY)` for an empty iterator
/// ("zero total power").
pub fn db_power_sum<I: IntoIterator<Item = Db>>(dbs: I) -> Db {
    let total: f64 = dbs.into_iter().map(|d| d.ratio()).sum();
    if total <= 0.0 {
        Db::new(f64::NEG_INFINITY)
    } else {
        Db::from_ratio(total)
    }
}

pub mod cast {
    //! Checked / lossless numeric casts replacing raw `as`.
    //!
    //! The `xtask lint` gate forbids bare `as` numeric casts in library
    //! crates because `as` silently truncates, wraps, and saturates.
    //! These helpers give every conversion an explicit, documented
    //! contract; all are panic-free.

    /// Lossless widening of an integer index/count into `f64`.
    ///
    /// Exact for magnitudes up to 2⁵³ — far beyond any array length or
    /// sample count in this workspace; beyond that the nearest
    /// representable value is returned (IEEE round-to-nearest), which
    /// is also what `as f64` does.
    pub trait AsF64 {
        /// This value as an `f64`.
        #[expect(
            clippy::wrong_self_convention,
            reason = "implemented only for Copy primitives, named after the `as f64` cast it replaces"
        )]
        fn as_f64(self) -> f64;
    }

    macro_rules! impl_as_f64 {
        ($($t:ty),*) => {$(
            impl AsF64 for $t {
                #[inline]
                #[expect(clippy::as_conversions, reason = "lossless widening defined once, here")]
                fn as_f64(self) -> f64 {
                    self as f64
                }
            }
        )*};
    }

    impl_as_f64!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

    /// Floor of `x` as a `usize`, clamped to `[0, usize::MAX]`.
    ///
    /// NaN maps to 0. Use for converting non-negative continuous
    /// quantities (sample positions, bin indices) to array indexes.
    #[inline]
    #[expect(
        clippy::as_conversions,
        reason = "clamp bound, and a floor range-checked above"
    )]
    pub fn floor_usize(x: f64) -> usize {
        if x.is_nan() || x <= 0.0 {
            0
        } else if x >= usize::MAX as f64 {
            usize::MAX
        } else {
            x.floor() as usize
        }
    }

    /// Ceiling of `x` as a `usize`, clamped to `[0, usize::MAX]`.
    #[inline]
    pub fn ceil_usize(x: f64) -> usize {
        floor_usize(x.ceil())
    }

    /// Nearest integer of `x` as an `i64`, saturating at the type
    /// bounds; NaN maps to 0.
    #[inline]
    #[expect(
        clippy::as_conversions,
        reason = "float-to-int `as` saturates, which is the documented contract"
    )]
    pub fn round_i64(x: f64) -> i64 {
        if x.is_nan() {
            0
        } else {
            // `as` from float to int saturates since Rust 1.45, which
            // is exactly the contract documented here.
            x.round() as i64
        }
    }

    /// Converts a `usize` to `u64` (lossless on every supported
    /// platform).
    #[inline]
    #[expect(
        clippy::as_conversions,
        reason = "usize is at most 64 bits on every supported target"
    )]
    pub fn u64_from_usize(n: usize) -> u64 {
        n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::cast::AsF64;
    use super::*;

    #[test]
    fn power_family_roundtrip() {
        for db in [-60.0, -3.0103, 0.0, 3.0, 30.0] {
            let d = DbPower::new(db);
            assert!((DbPower::from_ratio(d.ratio()).value() - db).abs() < 1e-12);
        }
        assert!((DbPower::from_ratio(2.0).value() - 3.0103).abs() < 1e-3);
        assert!((DbPower::new(10.0).ratio() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn amplitude_family_roundtrip() {
        for db in [-40.0, 0.0, 6.0206, 20.0] {
            let d = DbAmplitude::new(db);
            assert!((DbAmplitude::from_ratio(d.ratio()).value() - db).abs() < 1e-12);
        }
        // Halving an amplitude costs 6.02 dB — the PSVAA penalty (§4.2).
        assert!((DbAmplitude::from_ratio(0.5).value() + 6.0206).abs() < 1e-3);
    }

    #[test]
    fn families_are_distinct_types_with_shared_axis() {
        // 6 dB is ×4 in power but ×2 in amplitude.
        let d = DbPower::new(6.0206);
        assert!((d.ratio() - 4.0).abs() < 1e-3);
        assert!((d.as_amplitude().ratio() - 2.0).abs() < 1e-3);
        // Round-trip through the other family is the identity.
        assert_eq!(d.as_amplitude().as_power(), d);
    }

    #[test]
    fn dbm_watts() {
        assert!((Dbm::from_milliwatts(1.0).value() - 0.0).abs() < 1e-12);
        assert!((Watts::new(1.0).to_dbm().value() - 30.0).abs() < 1e-12);
        assert!((Dbm::new(30.0).to_watts().value() - 1.0).abs() < 1e-12);
        assert!((Dbm::new(20.0).to_milliwatts() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn link_budget_algebra() {
        let p = Dbm::new(-30.0);
        let g = Db::new(9.0);
        assert_eq!((p + g).value(), -21.0);
        assert_eq!((p - g).value(), -39.0);
        // A dBm difference is a plain dB margin.
        let margin = Db::new((p + g).value() - p.value());
        assert_eq!(margin.value(), 9.0);
    }

    #[test]
    fn angles() {
        let d = Degrees::new(180.0);
        assert!((d.radians().value() - std::f64::consts::PI).abs() < 1e-12);
        assert!((d.radians().degrees().value() - 180.0).abs() < 1e-12);
        assert!((Degrees::new(90.0).sin() - 1.0).abs() < 1e-12);
        assert!(Degrees::new(90.0).cos().abs() < 1e-12);
        let w = Radians::new(3.0 * std::f64::consts::PI).wrapped();
        assert!((w.value() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn wavelength_at_79ghz() {
        let lam = Hertz::new(79.0e9).wavelength();
        assert!((lam.value() - 3.794e-3).abs() < 2e-6);
    }

    #[test]
    fn db_sum_combines_incoherently() {
        let s = db_power_sum([Db::new(0.0), Db::new(0.0)]);
        assert!((s.value() - 3.0103).abs() < 1e-3);
        assert_eq!(db_power_sum(std::iter::empty()).value(), f64::NEG_INFINITY);
    }

    #[test]
    fn panic_free_on_degenerate_inputs() {
        assert!(DbPower::from_ratio(-1.0).value().is_nan());
        assert_eq!(DbPower::from_ratio(0.0).value(), f64::NEG_INFINITY);
        assert_eq!(cast::floor_usize(f64::NAN), 0);
        assert_eq!(cast::floor_usize(-3.2), 0);
        assert_eq!(cast::floor_usize(1e300), usize::MAX);
        assert_eq!(cast::round_i64(f64::INFINITY), i64::MAX);
    }

    #[test]
    fn casts_are_exact_for_indexes() {
        assert_eq!(4096usize.as_f64(), 4096.0);
        assert_eq!((1u64 << 53).as_f64(), 9007199254740992.0);
        assert_eq!(cast::floor_usize(7.99), 7);
        assert_eq!(cast::ceil_usize(7.01), 8);
        assert_eq!(cast::u64_from_usize(7), 7u64);
    }

    #[test]
    fn repr_transparent_is_zero_cost() {
        assert_eq!(std::mem::size_of::<Db>(), std::mem::size_of::<f64>());
        assert_eq!(std::mem::align_of::<Dbm>(), std::mem::align_of::<f64>());
        assert_eq!(std::mem::size_of::<Degrees>(), 8);
    }
}
