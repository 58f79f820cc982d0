//! Order statistics over latency samples.

/// The `q`-quantile (`0.0..=1.0`) of `samples`, linearly interpolated
/// between the two nearest ranks; `None` when there are no samples.
/// Infinite samples (refused requests) rank above every finite one.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    if frac == 0.0 || sorted[lo] == sorted[hi] {
        Some(sorted[lo])
    } else {
        Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_ranks() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), Some(4.6));
        assert_eq!(quantile(&[1.0, f64::INFINITY], 1.0), Some(f64::INFINITY));
    }
}
