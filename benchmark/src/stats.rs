//! Order statistics over timing samples: median, quartiles, spread and
//! the tail-percentile rule.

/// The median (mean of the two middle values for an even count; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so the spreads printed here match
/// the ones Python computes from the same samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median (0 for fewer than
/// two samples or a zero median).
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if xs.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / m.abs()
}

/// A tail percentile together with the facts needed to read it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (nearest rank).
    pub percentile: u32,
    /// Its value.
    pub value: f64,
    /// Samples strictly above its rank.
    pub above: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest whole percentile (nearest rank) that still has at least
/// ten samples above it.  With ten or fewer samples no percentile
/// qualifies and the median rank (p50) is reported instead.
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    let rank = |q: usize| (q * n).div_ceil(100).max(1);
    let q = (50..=99).rev().find(|&q| n >= rank(q) + 10).unwrap_or(50);
    let r = rank(q).min(n.max(1));
    Tail {
        percentile: q as u32,
        value: s.get(r - 1).copied().unwrap_or(0.0),
        above: n.saturating_sub(r),
        samples: n,
    }
}

/// The same percentile rank applied to another sample set (used to give
/// the tail a per-pass spread).
pub fn percentile(xs: &[f64], q: u32) -> f64 {
    let s = sorted(xs);
    let r = (q as usize * s.len()).div_ceil(100).max(1);
    s.get(r - 1).copied().unwrap_or(0.0)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 7.5));
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[1.0]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_above_it() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 13 cells x 3 passes.
        let t = tail(&xs(39));
        assert_eq!((t.percentile, t.above, t.samples), (74, 10, 39));
        assert_eq!(t.value, 29.0);
        // 42 cells x 3 passes.
        let t = tail(&xs(126));
        assert_eq!((t.percentile, t.above), (92, 10));
        // 7 cells x 5 passes.
        let t = tail(&xs(35));
        assert_eq!((t.percentile, t.above), (71, 10));
        // 100 samples: p90 is rank 90 with exactly ten above.
        let t = tail(&xs(100));
        assert_eq!((t.percentile, t.value, t.above), (90, 90.0, 10));
        // Too few samples for any tail: fall back to the median rank.
        let t = tail(&xs(7));
        assert_eq!((t.percentile, t.value), (50, 4.0));
        assert_eq!(percentile(&xs(39), 74), 29.0);
    }
}
