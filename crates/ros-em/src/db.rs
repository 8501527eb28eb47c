//! Decibel conversion helpers.
//!
//! Two families exist because RF engineering uses both:
//!
//! * **power ratios** — `pow_to_db` / `db_to_pow` (10·log₁₀),
//! * **amplitude (field) ratios** — `lin_to_db` / `db_to_lin` (20·log₁₀).
//!
//! [`dbm_to_mw`] converts an absolute dBm level to milliwatts.
//!
//! These are the ergonomic `f64` entry points; the arithmetic itself
//! lives in the typed layer ([`crate::units`]), which is the only
//! place in the workspace allowed to spell out `10^(x/10)`-style
//! expressions (enforced by `xtask lint`).

use crate::units::{Db, DbAmplitude, DbPower, Dbm};

/// Converts a linear **power** ratio to decibels (10·log₁₀).
#[inline]
pub fn pow_to_db(p: f64) -> f64 {
    DbPower::from_ratio(p).value()
}

/// Converts decibels to a linear **power** ratio.
#[inline]
pub fn db_to_pow(db: f64) -> f64 {
    DbPower::new(db).ratio()
}

/// Converts a linear **amplitude** ratio to decibels (20·log₁₀).
#[inline]
pub fn lin_to_db(a: f64) -> f64 {
    DbAmplitude::from_ratio(a).value()
}

/// Converts decibels to a linear **amplitude** ratio.
#[inline]
pub fn db_to_lin(db: f64) -> f64 {
    DbAmplitude::new(db).ratio()
}

/// Converts dBm to milliwatts.
#[inline]
pub fn dbm_to_mw(dbm: f64) -> f64 {
    Dbm::new(dbm).to_milliwatts()
}

/// Sums an iterator of powers expressed in dB into a total in dB.
///
/// Useful for combining incoherent contributions (e.g. noise sources).
/// Returns `f64::NEG_INFINITY` for an empty iterator, matching "zero
/// total power".
pub fn db_power_sum<I: IntoIterator<Item = f64>>(dbs: I) -> f64 {
    crate::units::db_power_sum(dbs.into_iter().map(Db::new)).value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_db_roundtrip() {
        for db in [-60.0, -3.0103, 0.0, 3.0, 30.0] {
            assert!((pow_to_db(db_to_pow(db)) - db).abs() < 1e-12);
        }
        assert!((pow_to_db(2.0) - 3.0103).abs() < 1e-3);
        assert!((db_to_pow(10.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn amplitude_db_roundtrip() {
        for db in [-40.0, 0.0, 6.0206, 20.0] {
            assert!((lin_to_db(db_to_lin(db)) - db).abs() < 1e-12);
        }
        // Halving an amplitude costs 6.02 dB — the PSVAA penalty (§4.2).
        assert!((lin_to_db(0.5) + 6.0206).abs() < 1e-3);
    }

    #[test]
    fn dbm_conversions() {
        assert!((dbm_to_mw(20.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn db_sum_combines_incoherently() {
        // Two equal powers add 3 dB.
        let s = db_power_sum([0.0, 0.0]);
        assert!((s - 3.0103).abs() < 1e-3);
        assert_eq!(db_power_sum(std::iter::empty()), f64::NEG_INFINITY);
        // A dominant term masks a tiny one.
        let s = db_power_sum([0.0, -60.0]);
        assert!(s < 0.01 && s > 0.0);
    }
}
