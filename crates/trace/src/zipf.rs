//! A fast approximate Zipf/power-law sampler.
//!
//! Workload hot sets are modeled as Zipf-distributed block popularity:
//! rank *k* is accessed with probability ∝ `k^(-α)`. We sample with the
//! continuous inverse-CDF approximation, which is O(1) per draw and
//! needs no table — accurate enough for workload synthesis (the target
//! is an entropy/footprint *shape*, not an exact Zipf law).

use rand::Rng;

/// A Zipf-like sampler over ranks `0..n`.
///
/// # Examples
///
/// ```
/// use nvm_llc_trace::zipf::Zipf;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(7);
/// let zipf = Zipf::new(1000, 0.9);
/// let r = zipf.sample(&mut rng);
/// assert!(r < 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    inverse: InverseCdf,
}

/// The inverse CDF's draw-independent terms, computed once per sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
enum InverseCdf {
    /// α = 1: `x = base^u`, with `base = n + 1`.
    Harmonic { base: f64 },
    /// α ≠ 1: `x = (scale·u + 1)^exponent`, with
    /// `scale = (n + 1)^(1 − α) − 1` and `exponent = 1 / (1 − α)`.
    Power { scale: f64, exponent: f64 },
}

impl Zipf {
    /// Creates a sampler over `n` ranks with skew `alpha ≥ 0`
    /// (`alpha = 0` is uniform; larger is more skewed).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha` is negative/non-finite — both are
    /// generator construction bugs.
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "zipf alpha must be finite and non-negative"
        );
        let base = n as f64 + 1.0;
        let inverse = if (alpha - 1.0).abs() < 1e-9 {
            InverseCdf::Harmonic { base }
        } else {
            let one_minus = 1.0 - alpha;
            InverseCdf::Power {
                scale: base.powf(one_minus) - 1.0,
                exponent: 1.0 / one_minus,
            }
        };
        Zipf { n, alpha, inverse }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Draws a rank in `0..n`, lower ranks more likely for `alpha > 0`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.random::<f64>().max(1e-12);
        let x = match self.inverse {
            // α = 1: inverse CDF of 1/x on [1, n+1] is exponential in u.
            InverseCdf::Harmonic { base } => base.powf(u),
            // Continuous power-law inverse CDF on [1, n+1].
            InverseCdf::Power { scale, exponent } => (scale * u + 1.0).powf(exponent),
        };
        ((x.floor() as u64).saturating_sub(1)).min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn histogram(zipf: Zipf, draws: usize) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut counts = vec![0u64; zipf.n() as usize];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn samples_stay_in_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        for n in [1u64, 2, 7, 1000] {
            let z = Zipf::new(n, 0.8);
            for _ in 0..1000 {
                assert!(z.sample(&mut rng) < n);
            }
        }
    }

    #[test]
    fn alpha_zero_is_roughly_uniform() {
        let counts = histogram(Zipf::new(10, 0.0), 100_000);
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 1.3, "{counts:?}");
    }

    #[test]
    fn high_alpha_concentrates_on_low_ranks() {
        let counts = histogram(Zipf::new(1000, 1.2), 100_000);
        let head: u64 = counts[..10].iter().sum();
        assert!(head as f64 > 0.5 * 100_000.0, "head got {head} of 100000");
        // Rank 0 must dominate rank 100.
        assert!(counts[0] > 10 * counts[100].max(1));
    }

    #[test]
    fn alpha_one_special_case_works() {
        let counts = histogram(Zipf::new(100, 1.0), 50_000);
        assert!(counts[0] > counts[50]);
        assert_eq!(counts.iter().sum::<u64>(), 50_000);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = Zipf::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn negative_alpha_panics() {
        let _ = Zipf::new(10, -1.0);
    }
}
