//! Order statistics, computed the way Python's
//! `statistics.quantiles(data, n=…)` computes them (its default
//! "exclusive" method), so a figure printed here can be checked
//! against the same formula applied to the raw samples.

/// The `k`-th of the `n`-quantiles of `values` (`0 < k < n`), e.g.
/// `quantile(v, 1, 2)` is the median and `quantile(v, 9, 10)` the p90.
/// NaN for an empty input.
pub fn quantile(values: &[f64], k: usize, n: usize) -> f64 {
    assert!(0 < k && k < n, "quantile {k} of {n}");
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => f64::NAN,
        1 => d[0],
        len => {
            let m = len + 1;
            let j = (k * m / n).clamp(1, len - 1);
            // After the clamp, delta can leave 0..=n: the end quantiles
            // of a short sample extrapolate, exactly as Python's do.
            let delta = (k * m) as i128 - (j * n) as i128;
            let (lo, hi, n) = (d[j - 1], d[j], n as i128);
            (lo * (n - delta) as f64 + hi * delta as f64) / n as f64
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 1, 2)
}

/// First quartile, median, third quartile.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    [1, 2, 3].map(|k| quantile(values, k, 4))
}

/// FNV-1a, folded over whatever a workload's outputs feed it.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * b.abs().max(1.0)
    }

    /// Expected values are Python's `statistics.quantiles` output for
    /// the same vectors.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        let q = quartiles(&[5.0, 1.0, 3.0]);
        assert!(
            close(q[0], 1.0) && close(q[1], 3.0) && close(q[2], 5.0),
            "{q:?}"
        );
        let q = quartiles(&[2.0, 4.0]);
        assert!(
            close(q[0], 1.5) && close(q[1], 3.0) && close(q[2], 4.5),
            "{q:?}"
        );
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_matches_python_deciles() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // statistics.quantiles(range(1, 21), n=10)[8] == 18.9
        assert!(close(quantile(&v, 9, 10), 18.9));
        assert!(close(median(&v), 10.5));
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert!(close(quantile(&r, 9, 10), 18.9));
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a.0, b.0);
    }
}
