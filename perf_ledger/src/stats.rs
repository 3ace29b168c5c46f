//! Order statistics over measured samples, and a small seeded RNG for
//! request plans.

/// The `q`-quantile of `samples`, interpolating linearly between order
/// statistics (numpy's default estimator). `NaN` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// One metric as the ledger reports it: the value, how many raw samples
/// it rests on, and the quartiles of its per-round values (the spread
/// [`crate::report::compare`] weighs against the metric's bound).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The reported number.
    pub value: f64,
    /// Raw samples behind `value` (requests, iterations, set-ups).
    pub n: usize,
    /// First quartile of the per-round values.
    pub q1: f64,
    /// Third quartile of the per-round values.
    pub q3: f64,
}

impl Measured {
    /// The median of `samples`, with their quartiles.
    pub fn median(samples: &[f64]) -> Measured {
        Measured {
            value: quantile(samples, 0.5),
            n: samples.len(),
            q1: quantile(samples, 0.25),
            q3: quantile(samples, 0.75),
        }
    }

    /// A single number with no spread (a count or a one-off ratio).
    pub fn exact(value: f64) -> Measured {
        Measured {
            value,
            n: 1,
            q1: value,
            q3: value,
        }
    }
}

/// SplitMix64: a tiny, seedable generator. Request order and cold-row
/// draws come from it, so the same `--seed` always sends the same
/// requests.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream: `seed` mixed with a stream number, so
    /// clients and rounds draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
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

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A shuffle bag: deals each of `0..n` once in seeded order, then
/// reshuffles. Every `n` deals hold each index exactly once, so even a
/// short round sees the workload's exact mix, and a run's numbers do
/// not wander with the luck of independent draws.
#[derive(Debug, Clone)]
pub struct Deck {
    rng: Rng,
    n: usize,
    cards: Vec<usize>,
}

impl Deck {
    /// A bag over `0..n` (`n > 0`) drawing on stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64, n: usize) -> Deck {
        Deck {
            rng: Rng::new(seed, stream),
            n,
            cards: Vec::new(),
        }
    }

    /// The next index.
    pub fn deal(&mut self) -> usize {
        if self.cards.is_empty() {
            self.cards = (0..self.n).collect();
            self.rng.shuffle(&mut self.cards);
        }
        self.cards.pop().expect("a refilled deck")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_like_numpy() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 0.25), 1.75);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn rng_streams_repeat_and_differ() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..8).map(|_| rng.below(100)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
    }

    #[test]
    fn a_deck_deals_every_card_once_per_pass() {
        let mut deck = Deck::new(3, 0, 5);
        for _ in 0..3 {
            let mut pass: Vec<usize> = (0..5).map(|_| deck.deal()).collect();
            pass.sort_unstable();
            assert_eq!(pass, [0, 1, 2, 3, 4]);
        }
    }
}
