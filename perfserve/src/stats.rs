//! Order statistics for the benchmark's samples.
//!
//! Every reported percentile goes through [`percentile`], which
//! refuses a tail it cannot support: a p90 over 50 samples is decided
//! by 5 observations and moves from run to run by whatever the host
//! did during those few commands.

/// Fewest samples a tail percentile must have strictly beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (`0 < p < 1`) of `samples`, linearly
/// interpolated between closest ranks. For an upper tail (`p > 0.5`)
/// it is an error unless at least [`MIN_TAIL_SAMPLES`] samples lie
/// beyond the percentile, i.e. `n * (1 - p) >= 10`; the median needs
/// one sample.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p < 1.0) {
        return Err(format!("percentile {p} is outside (0, 1)"));
    }
    if samples.is_empty() {
        return Err("percentile of no samples".into());
    }
    if p > 0.5 {
        let beyond = samples.len() as f64 * (1.0 - p);
        if beyond + 1e-9 < MIN_TAIL_SAMPLES as f64 {
            return Err(format!(
                "p{:.0} over {} samples has {beyond:.1} beyond it; at least {MIN_TAIL_SAMPLES} are needed",
                p * 100.0,
                samples.len()
            ));
        }
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Ok(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Median of `samples` (error when empty).
pub fn median(samples: &[f64]) -> Result<f64, String> {
    percentile(samples, 0.5)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the default "exclusive" method), so the steadiness report
/// reads the same as any check computed from the printed values.
pub fn quartiles(values: &[f64]) -> Result<[f64; 3], String> {
    if values.len() < 2 {
        return Err("quartiles need at least two values".into());
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(percentile(&ninety_nine, 0.9).is_err());
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert!((percentile(&hundred, 0.9).unwrap() - 89.1).abs() < 1e-9);
        // p99 needs a thousand.
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(percentile(&hundred, 0.99).is_err());
        assert!(percentile(&thousand, 0.99).is_ok());
        // The median needs only one.
        assert_eq!(median(&[3.0]).unwrap(), 3.0);
        assert!(median(&[]).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v).unwrap(), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]).unwrap(), [0.75, 1.5, 2.25]);
    }
}
