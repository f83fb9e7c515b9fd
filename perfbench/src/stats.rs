//! Order statistics and process measurements shared by every workload.

/// Linear-interpolated quantile (`q` in `[0, 1]`) of an ascending slice —
/// the same definition as Python's `statistics.quantiles(method="inclusive")`.
/// Returns `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Sorts a copy of `values` ascending (NaN-free input assumed; NaNs sort
/// last under `total_cmp`).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`, or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile_sorted(&sorted(values), 0.5)
}

/// Mean of the middle half of `values` (the interquartile mean), or
/// `None` when empty.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let (lo, hi) = (n / 4, n - n / 4);
    let middle = &v[lo..hi.max(lo + 1)];
    Some(middle.iter().sum::<f64>() / middle.len() as f64)
}

/// The `q` quantile of `values`, but only when at least `MIN_BEYOND`
/// samples lie beyond it (`n·(1−q) ≥ 10`): a percentile resting on fewer
/// tail samples is noise, so it is not reported.
pub fn percentile_with_tail(values: &[f64], q: f64) -> Option<f64> {
    let beyond = values.len() as f64 * (1.0 - q);
    if beyond + 1e-9 < MIN_BEYOND as f64 {
        return None;
    }
    quantile_sorted(&sorted(values), q)
}

/// Samples a reported percentile needs beyond it.
pub const MIN_BEYOND: usize = 10;

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
