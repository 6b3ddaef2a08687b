//! Order statistics over latency samples.

/// Percentile ladder the tail rule walks down, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
const TAIL_BEYOND: usize = 10;

/// A set of timing samples, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The value at `percentile`, in seconds.
    pub value_s: f64,
    /// The percentile reported.
    pub percentile: f64,
    /// Total samples the percentile was taken over.
    pub n: usize,
}

impl Samples {
    pub fn push(&mut self, seconds: f64) {
        self.values.push(seconds);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The samples from index `start` on.
    pub fn since(&self, start: usize) -> Samples {
        Samples {
            values: self.values.get(start..).unwrap_or_default().to_vec(),
        }
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median in seconds (0 for an empty set).
    pub fn median(&self) -> f64 {
        percentile_of(&self.sorted(), 50.0)
    }

    /// The highest percentile of [`TAIL_LADDER`] with at least ten samples
    /// strictly beyond its rank.
    pub fn tail(&self) -> Tail {
        let sorted = self.sorted();
        let n = sorted.len();
        let percentile = TAIL_LADDER
            .iter()
            .copied()
            .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_BEYOND as f64)
            .unwrap_or(50.0);
        Tail {
            value_s: percentile_of(&sorted, percentile),
            percentile,
            n,
        }
    }
}

/// Nearest-rank percentile of an ascending slice.
fn percentile_of(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a small set of values (0 for an empty set).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_of(&v, 50.0)
}
