//! Order statistics and pacing arithmetic shared by every workload.

/// Median of an unsorted sample (mean of the middle pair when even).
/// Panics on an empty sample: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail figure a timing is reported with: the sample at the highest
/// percentile that still has at least ten samples beyond it, capped at
/// p99. With `n >= 1000` this is p99; below that the percentile drops so
/// that ten samples always lie beyond the reported one. Fewer than eleven
/// samples support no tail at all, so the median stands in.
pub fn tail(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "tail of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return median(&v);
    }
    // Samples strictly beyond the p99 rank, but never fewer than ten.
    let beyond = (n - (99 * n).div_ceil(100)).max(10);
    v[n - 1 - beyond]
}

/// Completion rates of one closed-loop client, one per second it was
/// running: `done_s` are its completion times in seconds after it
/// started, ascending. Each rate is the completions that fell into that
/// second divided by the time they took — from the last completion before
/// the second (the moment the first of them was sent) to the last one in
/// it — so it is not quantised to whole completions per second. What is
/// left after the last whole second counts with that second. A run reports
/// the median of these: a slow spell of the host that covers less than
/// half the window leaves it alone, where completions over wall time would
/// average it in.
pub fn closed_loop_rates(done_s: &[f64]) -> Vec<f64> {
    let Some(&end) = done_s.last() else { return Vec::new() };
    let last_second = (end.floor() - 1.0).max(0.0);
    let mut rates = Vec::new();
    let (mut prev, mut i) = (0.0, 0);
    while i < done_s.len() {
        let second = done_s[i].floor().min(last_second);
        let n = done_s[i..].iter().take_while(|t| t.floor().min(last_second) == second).count();
        let last = done_s[i + n - 1];
        if last > prev {
            rates.push(n as f64 / (last - prev));
        }
        prev = last;
        i += n;
    }
    rates
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them — the acceptance rule for this benchmark is stated in those
/// terms, so the variance study must compute the same figure.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median — the "spread" every
/// end-to-end metric's bound is compared with.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    (q3 - q1) / med.abs()
}

/// When chunk `k` of an open-loop stream running at `rate` samples per
/// second in `chunk`-sample sends is due, in nanoseconds after the start.
/// The schedule never looks at how long earlier sends took.
pub fn due_ns(k: u64, chunk: usize, rate: f64) -> u64 {
    (k as f64 * chunk as f64 / rate * 1e9) as u64
}

/// How late a send was: zero when it went out at or before its due time.
pub fn lateness_ns(sent_ns: u64, due_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_from_a_thousand_samples_up() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), 990.0);
        let v: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&v), 4950.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_on_small_samples() {
        // 190 has exactly 191..=200 beyond it: p95 of 200 samples.
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(tail(&v), 190.0);
        assert_eq!(tail(&(1..=11).map(f64::from).collect::<Vec<_>>()), 1.0);
    }

    #[test]
    fn tail_of_a_tiny_sample_falls_back_to_the_median() {
        assert_eq!(tail(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn closed_loop_rates_are_per_second_and_unquantised() {
        // A client answering every 0.3 s: 3.33/s, whichever second.
        let done: Vec<f64> = (1..=20).map(|k| 0.3 * f64::from(k)).collect();
        let rates = closed_loop_rates(&done);
        assert_eq!(rates.len(), 6);
        assert!(rates.iter().all(|r| (r - 1.0 / 0.3).abs() < 1e-9), "{rates:?}");
        // The answer that lands just after the last whole second does not
        // become a rate of its own.
        assert_eq!(closed_loop_rates(&[0.5, 1.0, 1.5, 2.0, 2.5, 3.02]).len(), 3);
        // Two slow seconds out of six do not move the median.
        let mut done = Vec::new();
        let mut t = 0.0;
        while t < 6.0 {
            t += if (2.0..4.0).contains(&t) { 0.2 } else { 0.1 };
            done.push(t);
        }
        assert!((median(&closed_loop_rates(&done)) - 10.0).abs() < 0.5);
        // A request that spans a whole empty second is charged its time.
        assert_eq!(closed_loop_rates(&[0.5, 3.5, 4.5]), [2.0, 2.0 / 4.0]);
        assert_eq!(closed_loop_rates(&[0.25]), [4.0]);
        assert!(closed_loop_rates(&[]).is_empty());
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn open_loop_schedule_ignores_service_time() {
        // 400 000 samples/s in 256-sample chunks: one chunk every 640 us.
        assert_eq!(due_ns(0, 256, 400_000.0), 0);
        assert_eq!(due_ns(1, 256, 400_000.0), 640_000);
        assert_eq!(due_ns(1000, 256, 400_000.0), 640_000_000);
        // A send that stalled 2 ms does not move the next due time, so the
        // next chunk is already late when it goes out.
        let stalled_until = due_ns(5, 256, 400_000.0) + 2_000_000;
        assert_eq!(lateness_ns(stalled_until, due_ns(6, 256, 400_000.0)), 1_360_000);
        assert_eq!(lateness_ns(10, 20), 0);
    }
}
