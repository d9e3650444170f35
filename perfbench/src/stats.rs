//! The benchmark's own arithmetic: percentiles and the tail rule, the
//! open-loop schedule and due-time latency, layer self times, and the choice
//! of the sustained rung. Everything here is pure, so it is unit-tested.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (0-based) of the `p`th percentile in `n` sorted
/// samples.
fn rank(n: usize, p: f64) -> usize {
    // `p * n / 100` keeps whole-number products exact; the epsilon absorbs
    // the representation error of fractional percentiles such as 99.9.
    (((p * n as f64) / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1)) - 1
}

/// Nearest-rank `p`th percentile of an ascending-sorted, non-empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p)]
}

/// Samples strictly beyond the nearest-rank `p`th percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// Whether a sample of `n` supports reporting its `p`th percentile.
pub fn tail_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// Samples per window of [`windowed_percentile`]: the fewest that put ten
/// samples beyond a p99.
pub const WINDOW: usize = 1000;

/// The `p`th percentile of each consecutive window of [`WINDOW`] samples (a
/// short last window joins the one before it), then the median over
/// windows; `None` below one full window. Virtual machines sharing a host
/// stall every process for milliseconds a few times a second, in bursts; a
/// tail over a whole phase moves with how many bursts the phase happened to
/// catch, while the median over windows reports the tail of a typical
/// stretch of time.
pub fn windowed_percentile(in_order: &[f64], p: f64) -> Option<f64> {
    assert!(tail_supported(WINDOW, p), "a window of {WINDOW} cannot support p{p}");
    let windows = in_order.len() / WINDOW;
    if windows == 0 {
        return None;
    }
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                in_order.len()
            } else {
                (w + 1) * WINDOW
            };
            let mut sorted = in_order[w * WINDOW..end].to_vec();
            sorted.sort_by(f64::total_cmp);
            percentile(&sorted, p)
        })
        .collect();
    Some(median_upper(&per_window))
}

/// Median that takes the upper middle value of an even sample, so two
/// windows report their worse tail rather than an average.
fn median_upper(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Median of an unsorted sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Median, p99 and count of a latency sample, in the sample's unit.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// Meaningful only when `tail_supported(n, 99.0)`.
    pub p99: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n: sorted.len(),
        p50: percentile(&sorted, 50.0),
        p99: percentile(&sorted, 99.0),
    }
}

/// Open-loop schedule: the due times (ns after the phase start) of `rate`
/// requests per second, evenly spaced, over `seconds`. Evenly spaced rather
/// than Poisson so that, at a light rate, every request finds the server
/// idle, and so a run repeats across seeds.
pub fn uniform_schedule(rate: f64, seconds: f64) -> Vec<u64> {
    assert!(rate > 0.0 && seconds > 0.0, "schedule needs a positive rate and length");
    let count = (rate * seconds).round() as usize;
    let period_ns = 1e9 / rate;
    (0..count).map(|i| (i as f64 * period_ns).round() as u64).collect()
}

/// Latency of an open-loop request, timed from when it was due, so a stall
/// that delays later sends is charged to every request it delays.
pub fn due_latency_ns(due_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(due_ns)
}

/// How late a send ran: against its due time, or against the moment the
/// generator's in-flight window reopened when the window held it back
/// (that wait is the server's backlog, not the generator's lag).
pub fn send_lag_ns(due_ns: u64, window_open_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns.max(window_open_ns))
}

/// Self time of each layer from cumulative medians, listed bottom layer
/// first: a layer's self time is its median minus the median of the layer
/// below it. The self times therefore sum to the top layer's median.
pub fn self_times(cumulative: &[f64]) -> Vec<f64> {
    let mut below = 0.0;
    cumulative
        .iter()
        .map(|&total| {
            let own = total - below;
            below = total;
            own
        })
        .collect()
}

/// Whether `sum` is within `tolerance` (a share) of `reference`.
pub fn within(sum: f64, reference: f64, tolerance: f64) -> bool {
    (sum - reference).abs() <= tolerance * reference.abs()
}

/// What one ladder rung measured.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests scheduled.
    pub planned: usize,
    /// Requests answered 200 with bit-exact scores.
    pub succeeded: usize,
    /// Requests failed, refused or mismatched.
    pub failed: usize,
    /// Due-time latency at the percentile the limit is held to, in
    /// microseconds.
    pub latency_us: f64,
    /// Completed requests over the time from the first due time to the
    /// last completion.
    pub achieved_rps: f64,
}

/// A rung meets the latency limit when its latency is within `limit_us`, no
/// request failed, and the server kept pace with the offered rate (a
/// growing backlog shows as achieved throughput falling behind it).
pub fn rung_passes(rung: &Rung, limit_us: f64, keep_pace: f64) -> bool {
    rung.failed == 0
        && rung.succeeded == rung.planned
        && rung.latency_us <= limit_us
        && rung.achieved_rps >= keep_pace * rung.rate
}

/// Index of the sustained rung: the highest rung that passes with every
/// rung below it passing too (the ladder is climbed in order and stops at
/// the first miss).
pub fn sustained_rung(rungs: &[Rung], limit_us: f64, keep_pace: f64) -> Option<usize> {
    rungs
        .iter()
        .take_while(|r| rung_passes(r, limit_us, keep_pace))
        .count()
        .checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert!(!tail_supported(999, 99.0));
        assert!(tail_supported(1000, 99.0));
        assert!(tail_supported(WINDOW, 99.0));
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(!tail_supported(19, 50.0));
        assert!(tail_supported(20, 50.0));
        assert!(!tail_supported(9_999, 99.9));
        assert!(tail_supported(10_000, 99.9));
        assert!(tail_supported(WINDOW, 90.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_tail_is_the_median_over_windows() {
        // Three windows; the middle one caught a 50 ms stall on 4% of its
        // requests. The whole sample's p99 is the stall, the windowed p99
        // is the tail of the two clean windows.
        let mut values: Vec<f64> = (0..3000).map(|i| 100.0 + (i % 1000) as f64 / 10.0).collect();
        for v in &mut values[1000..1040] {
            *v = 50_000.0;
        }
        let mut whole = values.clone();
        whole.sort_by(f64::total_cmp);
        assert_eq!(percentile(&whole, 99.0), 50_000.0);
        assert_eq!(windowed_percentile(&values, 99.0), Some(198.9));
        // A short remainder joins the last window; of two windows the worse
        // tail is reported.
        assert_eq!(windowed_percentile(&values[..2500], 99.0), Some(50_000.0));
        assert_eq!(windowed_percentile(&values[2000..], 99.0), Some(198.9));
        assert_eq!(windowed_percentile(&values[..999], 99.0), None);
    }

    #[test]
    fn schedule_is_evenly_spaced_at_the_rate() {
        let due = uniform_schedule(1000.0, 0.5);
        assert_eq!(due.len(), 500);
        assert_eq!(due[0], 0);
        assert_eq!(due[1], 1_000_000);
        assert_eq!(due[499], 499_000_000);
        let third = uniform_schedule(3.0, 1.0);
        assert_eq!(third, vec![0, 333_333_333, 666_666_667]);
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_send() {
        // Due at 1 ms, held back by a stall until 5 ms, answered at 5.3 ms:
        // the request waited 4.3 ms for the client's point of view.
        assert_eq!(due_latency_ns(1_000_000, 5_300_000), 4_300_000);
        assert_eq!(due_latency_ns(2_000, 1_000), 0);
        // The same send is 4 ms late on the generator's own account unless
        // the in-flight window was what held it.
        assert_eq!(send_lag_ns(1_000_000, 0, 5_000_000), 4_000_000);
        assert_eq!(send_lag_ns(1_000_000, 4_990_000, 5_000_000), 10_000);
    }

    #[test]
    fn self_times_subtract_the_layer_below_and_sum_to_the_top() {
        let cumulative = [1.5, 2.0, 0.5, 240.0, 260.0];
        let own = self_times(&cumulative);
        assert_eq!(own, vec![1.5, 0.5, -1.5, 239.5, 20.0]);
        assert_eq!(own.iter().sum::<f64>(), 260.0);
        assert!(within(own.iter().sum(), 270.0, 0.05));
        assert!(!within(own.iter().sum(), 300.0, 0.1));
    }

    fn rung(rate: f64, latency_us: f64, failed: usize, achieved_share: f64) -> Rung {
        let planned = 1000;
        Rung {
            rate,
            planned,
            succeeded: planned - failed,
            failed,
            latency_us,
            achieved_rps: rate * achieved_share,
        }
    }

    #[test]
    fn sustained_is_the_last_rung_before_the_first_miss() {
        let limit = 2000.0;
        let ladder = [
            rung(1000.0, 400.0, 0, 1.0),
            rung(2000.0, 900.0, 0, 0.99),
            rung(4000.0, 1900.0, 0, 0.99),
            rung(6000.0, 2500.0, 0, 0.99),
            rung(8000.0, 1500.0, 0, 0.99),
        ];
        assert_eq!(sustained_rung(&ladder, limit, 0.97), Some(2));
        // A failure disqualifies a rung however fast it was.
        let failing = [rung(1000.0, 400.0, 0, 1.0), rung(2000.0, 500.0, 1, 1.0)];
        assert_eq!(sustained_rung(&failing, limit, 0.97), Some(0));
        // So does a backlog: throughput falling behind the offered rate.
        let backlog = [rung(1000.0, 400.0, 0, 1.0), rung(2000.0, 1800.0, 0, 0.9)];
        assert_eq!(sustained_rung(&backlog, limit, 0.97), Some(0));
        assert_eq!(sustained_rung(&[rung(1000.0, 2500.0, 0, 1.0)], limit, 0.97), None);
    }
}
