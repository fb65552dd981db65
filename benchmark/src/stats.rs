//! Order statistics used by every reported timing.
//!
//! A run is cut into equal slices; a reported timing is the median across
//! slices of the per-slice statistic, so one noisy second moves one slice,
//! not the result. Tail percentiles are only reported as high as the sample
//! supports: the highest rung of [`LADDER`] that still leaves ten samples
//! beyond it in the thinnest slice.

/// Percentiles a tail metric may be reported at, highest first.
pub const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile in every slice.
pub const BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` ascending values.
/// The small tolerance keeps `99.9 % of 10 000` at rank 9990 although the
/// product is not exact in binary.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest ladder percentile that keeps [`BEYOND`] samples beyond it
/// when a slice holds `samples` values; the median when even that is too
/// much to ask.
pub fn supported_percentile(samples: usize) -> f64 {
    LADDER
        .into_iter()
        .find(|&p| samples.saturating_sub(rank(p, samples)) >= BEYOND)
        .unwrap_or(50.0)
}

fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median across non-empty slices of `stat(slice)`; each slice is sorted
/// ascending before `stat` sees it.
pub fn slice_median(slices: &mut [Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let per_slice: Vec<f64> = slices
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| {
            sort(s);
            stat(s)
        })
        .collect();
    median(&per_slice)
}

/// The tail of a sliced sample: the percentile the thinnest slice supports
/// and its slice-median value.
pub fn slice_tail(slices: &mut [Vec<f64>]) -> (f64, f64) {
    let thinnest = slices.iter().map(Vec::len).min().unwrap_or(0);
    let p = supported_percentile(thinnest);
    (p, slice_median(slices, |s| percentile(s, p)))
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), which is what the benchmark's acceptance
/// rule is stated in. Needs two values; fewer yield that value three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        return [v.first().copied().unwrap_or(0.0); 3];
    }
    [1usize, 2, 3].map(|i| {
        // Position i*(n+1)/4 in 1-based ranks; like Python, the rank is
        // clamped to the data but the interpolation weight is not.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn picker_keeps_ten_samples_beyond() {
        // 8000 samples: p99.9 leaves 8 beyond (too few), p99 leaves 80.
        assert_eq!(supported_percentile(8000), 99.0);
        assert_eq!(supported_percentile(10_000), 99.9);
        // 200 samples: p95 leaves exactly 10.
        assert_eq!(supported_percentile(200), 95.0);
        assert_eq!(supported_percentile(199), 90.0);
        // 80 samples: p90 leaves 8, p75 leaves 20.
        assert_eq!(supported_percentile(80), 75.0);
        // Too thin for any tail: fall back to the median.
        assert_eq!(supported_percentile(12), 50.0);
        assert_eq!(supported_percentile(0), 50.0);
    }

    #[test]
    fn slice_median_ignores_one_bad_slice() {
        let mut slices = vec![
            vec![1.0, 2.0, 3.0],
            vec![1.0, 2.0, 3.0],
            vec![100.0, 200.0, 300.0],
            vec![],
        ];
        assert_eq!(slice_median(&mut slices, |s| percentile(s, 50.0)), 2.0);
    }

    #[test]
    fn slice_tail_uses_the_thinnest_slice() {
        let big: Vec<f64> = (0..10_000).map(f64::from).collect();
        let small: Vec<f64> = (0..200).map(f64::from).collect();
        let (p, _) = slice_tail(&mut [big, small]);
        assert_eq!(p, 95.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
