//! Order statistics over measured samples, and the seeded generator that
//! derives every workload input from `--seed`.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank method;
/// `None` when there are no samples. Sorts a copy, so callers keep their order.
#[must_use]
pub fn quantile<T: Copy + PartialOrd>(samples: &[T], q: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are comparable"));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `samples`; `None` when there are none.
#[must_use]
pub fn median<T: Copy + PartialOrd>(samples: &[T]) -> Option<T> {
    quantile(samples, 0.5)
}

/// `numerator / denominator`, or 0 when nothing was counted.
#[must_use]
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Nanoseconds to microseconds.
#[must_use]
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Nanoseconds to milliseconds.
#[must_use]
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1_000_000.0
}

/// SplitMix64: a tiny, fully deterministic generator. The same seed yields the
/// same page order, jitter and cell order on every machine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (one stream per
    /// client thread or input kind).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound` ≥ 1).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let samples = [5u64, 1, 4, 2, 3];
        assert_eq!(median(&samples), Some(3));
        assert_eq!(quantile(&samples, 0.9), Some(5));
        assert_eq!(quantile(&samples, 0.0), Some(1));
        assert_eq!(median::<u64>(&[]), None);
    }

    #[test]
    fn the_generator_repeats_per_seed() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
        let mut items: Vec<u32> = (0..16).collect();
        Rng::new(3, 0).shuffle(&mut items);
        let mut again: Vec<u32> = (0..16).collect();
        Rng::new(3, 0).shuffle(&mut again);
        assert_eq!(items, again);
        items.sort_unstable();
        assert_eq!(items, (0..16).collect::<Vec<_>>());
    }
}
