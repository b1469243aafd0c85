//! Order statistics over timing samples.

/// The median: the mean of the two middle values for an even count
/// (the same rule as Python's `statistics.median`). `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` ∈ (0, 100] of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it, as `(p, value)`; `None` below 20 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| xs.len() as f64 * (1.0 - p / 100.0) >= 10.0)
        .map(|p| (p, percentile(xs, p)))
}

/// `"median X unit, pNN Y unit (n samples)"` — how every timing is
/// reported in the human-readable lines.
pub fn describe(xs: &[f64], unit: &str) -> String {
    let tail = match tail(xs) {
        Some((p, v)) => format!(", p{p} {v:.4} {unit}"),
        None => String::new(),
    };
    format!(
        "median {:.4} {unit}{tail} ({} samples)",
        median(xs),
        xs.len()
    )
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}
