//! Order statistics the reports are built from.

/// Latency samples of one operation type, in nanoseconds, in rounds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u32>,
    /// Samples before the current round.
    closed: usize,
    /// Median of each closed round, in µs.
    round_p50_us: Vec<f64>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            ns: Vec::with_capacity(n),
            ..Samples::default()
        }
    }

    pub fn push(&mut self, elapsed: std::time::Duration) {
        self.ns
            .push(u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX));
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Closes the current round (a round without samples leaves no trace).
    pub fn end_round(&mut self) {
        let round = &mut self.ns[self.closed..];
        if !round.is_empty() {
            round.sort_unstable();
            self.round_p50_us.push(percentile(round, 50.0) / 1000.0);
            self.closed = self.ns.len();
        }
    }

    /// Closes the last round and sorts all samples; the percentiles
    /// below are read off afterwards.
    pub fn finish(&mut self) {
        self.end_round();
        self.ns.sort_unstable();
    }

    /// Nearest-rank percentile over all rounds in µs; 0 when empty (the
    /// operation type does not occur in this workload).
    pub fn percentile_us(&self, p: f64) -> f64 {
        percentile(&self.ns, p) / 1000.0
    }

    /// The gated latency figure: the quiet-quartile round's median, in µs.
    pub fn quiet_p50_us(&self) -> f64 {
        lower_quartile(&self.round_p50_us)
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unordered values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The value a quarter of the way up the sorted `values` (the third
/// smallest of twelve); 0 when empty.
///
/// The sandbox's noise is one-sided: a neighbour's burst makes a round
/// slower, nothing makes it faster than the code allows. Rounds are equal
/// work, so the lower quartile of their times is what the code costs when
/// the box is quiet, and it holds as long as a quarter of the rounds were
/// undisturbed; a median needs half.
pub fn lower_quartile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 4]
}

/// `ops_per_s` as the benchmark defines it: the quiet-quartile round's rate.
pub fn quiet_round_rate(round_ops: u64, round_seconds: &[f64]) -> f64 {
    round_ops as f64 / lower_quartile(round_seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_unordered() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn lower_quartile_is_a_quarter_of_the_way_up() {
        let twelve: Vec<f64> = (1..=12).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&twelve), 3.0);
        assert_eq!(lower_quartile(&[5.0]), 5.0);
        assert_eq!(lower_quartile(&[2.0, 1.0]), 1.0);
        assert_eq!(lower_quartile(&[]), 0.0);
    }

    #[test]
    fn quiet_round_rate_ignores_disturbed_rounds() {
        // Eight of twelve rounds hit a burst: the quiet quartile holds.
        let mut seconds = vec![1.3; 8];
        seconds.extend([1.0; 4]);
        assert_eq!(quiet_round_rate(1000, &seconds), 1000.0);
    }

    #[test]
    fn samples_report_microseconds_per_round_and_overall() {
        let mut samples = Samples::default();
        let round = |samples: &mut Samples, ns: [u64; 3]| {
            for ns in ns {
                samples.push(std::time::Duration::from_nanos(ns));
            }
            samples.end_round();
        };
        round(&mut samples, [3000, 1000, 2000]);
        samples.end_round(); // an empty round leaves no trace
        round(&mut samples, [9000, 7000, 8000]);
        samples.finish();
        assert_eq!(samples.quiet_p50_us(), 2.0, "the quieter round's median");
        assert_eq!(samples.percentile_us(50.0), 3.0);
        assert_eq!(samples.percentile_us(100.0), 9.0);
        assert_eq!(samples.len(), 6);
        assert_eq!(Samples::default().quiet_p50_us(), 0.0);
    }
}
