//! Percentiles and the quiet-window estimator.
//!
//! The host's interference comes in phases that last seconds and slow
//! the serve loop by up to 1.8×. A whole-run percentile therefore moves
//! with however much of the run the slow phases happened to cover. Each
//! run instead cuts its phase into quarter-second windows, ranks them by
//! their median request time, and takes every timing over the samples of
//! its quietest windows, pooled until each timing has enough samples:
//! slow phases cannot move those figures as long as a few seconds of the
//! run are quiet.

/// Nearest-rank quantile `q` (in `0..=1`) of `values`, which are sorted in
/// place. `None` for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// The windows of a phase, quietest first: cuts the phase into windows
/// of `window_ns` and ranks them by the median of the `(at_ns, value)`
/// samples that fall in each. Windows with fewer than `min_per_window`
/// samples are left out.
pub fn quiet_order(
    samples: &[(u64, f64)],
    length_ns: u64,
    window_ns: u64,
    min_per_window: usize,
) -> Vec<usize> {
    let count = window_count(length_ns, window_ns);
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); count];
    for &(at, v) in samples {
        per[window_of(at, window_ns, count)].push(v);
    }
    let mut ranked: Vec<(f64, usize)> = per
        .iter_mut()
        .enumerate()
        .filter(|(_, v)| v.len() >= min_per_window)
        .filter_map(|(w, v)| quantile(v, 0.5).map(|m| (m, w)))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    ranked.into_iter().map(|(_, w)| w).collect()
}

fn window_count(length_ns: u64, window_ns: u64) -> usize {
    length_ns.div_ceil(window_ns).max(1) as usize
}

/// The window a sample taken at `at_ns` falls in; samples past the end
/// land in the last window.
fn window_of(at_ns: u64, window_ns: u64, count: usize) -> usize {
    ((at_ns / window_ns) as usize).min(count - 1)
}

/// Pools the items of the windows in `order`, window by window, until
/// the pool holds at least `need` items (or the windows run out).
pub fn pool<'a, T>(
    items: &'a [T],
    at_ns: impl Fn(&T) -> u64,
    order: &[usize],
    length_ns: u64,
    window_ns: u64,
    need: usize,
) -> Vec<&'a T> {
    let count = window_count(length_ns, window_ns);
    let mut per: Vec<Vec<&T>> = vec![Vec::new(); count];
    for item in items {
        per[window_of(at_ns(item), window_ns, count)].push(item);
    }
    let mut out = Vec::new();
    for &w in order {
        if out.len() >= need {
            break;
        }
        out.append(&mut per[w]);
    }
    out
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut v, 0.9), Some(90.0));
        assert_eq!(quantile(&mut v, 1.0), Some(100.0));
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut [7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&mut [], 0.5), None);
        // Odd count: the middle element; even count: the lower middle.
        assert_eq!(quantile(&mut [3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(quantile(&mut [4.0, 1.0, 3.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn quiet_windows_are_pooled_fastest_first() {
        // Eight 10 ns windows; windows 2 and 5 are slow, window 7 has too
        // few samples to rank.
        let mut samples = Vec::new();
        for w in 0..7u64 {
            let v = if w == 2 || w == 5 {
                200.0
            } else {
                100.0 + w as f64
            };
            samples.extend((0..10).map(|i| (w * 10 + i, v)));
        }
        samples.push((75, 1.0));
        let order = quiet_order(&samples, 80, 10, 5);
        assert_eq!(order, vec![0, 1, 3, 4, 6, 2, 5]);
        // Pooling stops at the first window that reaches the count.
        let pooled = pool(&samples, |s| s.0, &order, 80, 10, 15);
        assert_eq!(pooled.len(), 20);
        assert!(pooled.iter().all(|s| s.1 < 102.0));
        // Asking for more than there is takes every ranked window.
        assert_eq!(pool(&samples, |s| s.0, &order, 80, 10, 1000).len(), 70);
        // Samples past the end land in the last window.
        assert_eq!(quiet_order(&[(500, 1.0)], 80, 10, 1), vec![7]);
    }
}
