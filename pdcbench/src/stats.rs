//! The order statistics the benchmark reports.

/// `xs` sorted ascending (total order, so NaN cannot panic the sort).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle value, or the midpoint of the two middle values
/// for an even count. `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let m = v.len() / 2;
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[m]),
        _ => Some((v[m - 1] + v[m]) / 2.0),
    }
}

/// Quartiles `[q1, q2, q3]` by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads this program prints match the ones computed over its
/// output. `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative when the clamp moved `j` up: Python extrapolates then.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The highest whole percentile `p` whose nearest-rank value still has at
/// least `beyond` samples ranked after it, with that value. `None` when
/// there are not more than `beyond` samples.
pub fn tail(xs: &[f64], beyond: usize) -> Option<(usize, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n <= beyond {
        return None;
    }
    let p = 100 * (n - beyond) / n;
    let rank = (p * n).div_ceil(100).max(1);
    Some((p, v[rank - 1]))
}

/// Self time of the span `[start, end)`: its length minus the part of it
/// covered by the union of its children's intervals.
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut kids: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in kids {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 2.0, 1.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10], 10), None);
        // 11 samples: p9 is the highest percentile with 10 beyond it.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), Some((9, 1.0)));
        // 100 samples: p90 sits at rank 90 with exactly 10 beyond.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&xs, 10), Some((90, 90.0)));
        // 1000 samples: p99 has 10 beyond it, p100 would have none.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), Some((99, 990.0)));
        // 25 samples: p60 is rank 15, leaving exactly 10 beyond.
        let xs: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), Some((60, 15.0)));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0.0, 10.0, &[]), 10.0);
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children count once.
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 4.0), (2.0, 5.0)]), 6.0);
        // Children are clipped to the parent.
        assert_eq!(self_time(2.0, 4.0, &[(0.0, 3.0), (3.5, 9.0)]), 0.5);
        assert_eq!(self_time(0.0, 1.0, &[(0.0, 1.0)]), 0.0);
    }
}
