//! Small statistics helpers: medians, the ln-ln scaling slope, a seeded
//! shuffle and the process's peak resident set.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    })
}

/// Least-squares slope of `ln y` against `ln x`: the scaling exponent
/// (1.0 = linear). `None` with fewer than two points or a non-positive
/// value.
pub fn loglog_slope(points: &[(f64, f64)]) -> Option<f64> {
    if points.len() < 2 || points.iter().any(|&(x, y)| x <= 0.0 || y <= 0.0) {
        return None;
    }
    let n = points.len() as f64;
    let lx: Vec<f64> = points.iter().map(|p| p.0.ln()).collect();
    let ly: Vec<f64> = points.iter().map(|p| p.1.ln()).collect();
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    (sxx > 0.0).then(|| sxy / sxx)
}

/// SplitMix64 step: a tiny deterministic generator for seeded shuffles.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by `seed` (same seed, same order).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn slope_recovers_power_law() {
        let pts: Vec<(f64, f64)> = [1152.0, 2304.0, 4608.0]
            .iter()
            .map(|&n: &f64| (n, 3e-9 * n.powf(1.85)))
            .collect();
        let s = loglog_slope(&pts).unwrap();
        assert!((s - 1.85).abs() < 1e-12, "{s}");
        assert_eq!(loglog_slope(&pts[..1]), None);
    }

    #[test]
    fn shuffle_is_seeded_permutation() {
        let mut a: Vec<u32> = (0..19).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..19).collect::<Vec<_>>());
        let mut c: Vec<u32> = (0..19).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
    }
}
